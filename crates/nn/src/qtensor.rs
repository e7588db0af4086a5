//! The stored-word surface of [`TensorBase`], written once for both integer
//! backends: zeroed construction, dequantization and word-level access for
//! raw Q-format words ([`QTensor`]) and `i8` affine bytes ([`I8Tensor`]).
//! Quantization ([`TensorBase::quantize`], [`TensorBase::quantize_from`])
//! is generic over every backend and lives with the tensor itself.

use std::fmt;

use navft_qformat::{QFormat, QValue};

use crate::element::I8Affine;
use crate::qnetwork::QuantizedElement;
use crate::tensor::TensorBase;
use crate::Tensor;

/// A dense row-major tensor of quantized fixed-point words.
///
/// Each element is stored as the raw two's-complement integer of a
/// [`QFormat`] word (sign-extended into an `i32`). This is the buffer the
/// paper's fault model actually corrupts: a bit flip or stuck-at fault on a
/// `QTensor` is a single integer operation on the live word, with no
/// quantize→corrupt→dequantize round trip.
///
/// `QTensor` is the `i32` instantiation of the generic [`TensorBase`], so
/// the shared accessors ([`TensorBase::shape`], [`TensorBase::len`],
/// [`TensorBase::argmax`], …) come from the same code as the `f32`
/// [`Tensor`]'s.
///
/// # Examples
///
/// ```
/// use navft_nn::{QTensor, Tensor};
/// use navft_qformat::QFormat;
///
/// let t = Tensor::from_vec(&[2], vec![1.5, -2.0]);
/// let q = QTensor::quantize(&t, QFormat::Q3_4);
/// assert_eq!(q.words(), &[24, -32]);
/// assert_eq!(q.dequantize().data(), &[1.5, -2.0]);
/// ```
pub type QTensor = TensorBase<i32>;

/// A dense row-major tensor of symmetric affine bytes.
///
/// Each element is stored as a live `i8` word representing `word · scale`
/// ([`I8Affine`]). Like the raw Q-format words of [`QTensor`], these bytes
/// exist at inference time, so the fault model corrupts them with single
/// integer operations — no quantize→corrupt→dequantize round trip.
///
/// # Examples
///
/// ```
/// use navft_nn::{I8Affine, I8Tensor, Tensor};
///
/// let t = Tensor::from_vec(&[2], vec![0.5, -0.25]);
/// let i8t = I8Tensor::quantize(&t, I8Affine { scale: 0.25 });
/// assert_eq!(i8t.words(), &[2, -1]);
/// assert_eq!(i8t.dequantize().data(), &[0.5, -0.25]);
/// ```
pub type I8Tensor = TensorBase<i8>;

impl<E: QuantizedElement> TensorBase<E> {
    /// A tensor of the given shape filled with zero words in `meta`.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize], meta: E::Meta) -> TensorBase<E> {
        TensorBase::quantize(&Tensor::zeros(shape), meta)
    }

    /// Dequantizes into a fresh `f32` tensor
    /// ([`Element::value_to_f32`](crate::Element::value_to_f32) per word:
    /// exact for formats up to 24 value bits and for bytes).
    pub fn dequantize(&self) -> Tensor {
        let meta = *self.meta();
        Tensor::from_vec(self.shape(), self.words().iter().map(|w| w.value_to_f32(&meta)).collect())
    }

    /// The flat stored-word buffer.
    pub fn words(&self) -> &[E] {
        self.data()
    }

    /// The flat stored-word buffer, mutably — the fault-injection surface
    /// of the integer backends.
    pub fn words_mut(&mut self) -> &mut [E] {
        self.data_mut()
    }
}

impl QTensor {
    /// Builds a tensor directly from raw two's-complement words.
    ///
    /// Each word is clamped to the format's representable raw range (a valid
    /// word is never altered).
    ///
    /// # Panics
    ///
    /// Panics if `words.len()` does not match the product of `shape`.
    pub fn from_raw_vec(shape: &[usize], words: Vec<i32>, format: QFormat) -> QTensor {
        let expected: usize = shape.iter().product();
        assert_eq!(
            words.len(),
            expected,
            "word count {} does not match shape {:?}",
            words.len(),
            shape
        );
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        let words = words.into_iter().map(|w| QValue::from_raw(w, format).raw()).collect();
        TensorBase::from_parts(shape.to_vec(), words, format)
    }

    /// The format every word is encoded in.
    pub fn format(&self) -> QFormat {
        *self.meta()
    }
}

impl I8Tensor {
    /// The affine every byte is encoded in.
    pub fn affine(&self) -> I8Affine {
        *self.meta()
    }
}

impl<E: QuantizedElement> fmt::Debug for TensorBase<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = std::any::type_name::<E>();
        write!(f, "TensorBase<{name}> {{ shape: {:?}, {} words ", self.shape(), self.len())?;
        E::fmt_meta(self.meta(), f)?;
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantize_and_dequantize_roundtrip_grid_values() {
        let t = Tensor::from_vec(&[2, 2], vec![0.0, 0.5, -1.25, 3.75]);
        let q = QTensor::quantize(&t, QFormat::Q3_4);
        assert_eq!(q.shape(), &[2, 2]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn quantize_saturates_out_of_range_values() {
        let t = Tensor::from_vec(&[2], vec![100.0, -100.0]);
        let q = QTensor::quantize(&t, QFormat::Q3_4);
        assert_eq!(q.words(), &[127, -128]);
    }

    #[test]
    fn from_raw_vec_clamps_to_the_raw_range() {
        let q = QTensor::from_raw_vec(&[3], vec![500, -500, 7], QFormat::Q3_4);
        assert_eq!(q.words(), &[127, -128, 7]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_raw_vec_rejects_wrong_length() {
        let _ = QTensor::from_raw_vec(&[2], vec![1], QFormat::Q3_4);
    }

    /// Quantizing into a reused tensor replaces its shape and words, keeps
    /// its metadata, and dequantizes back to the grid values written.
    fn round_trip<E: QuantizedElement>(meta: E::Meta, words: [E; 2]) {
        let mut q = TensorBase::<E>::zeros(&[4], meta);
        q.quantize_from(&Tensor::from_vec(&[2], vec![1.0, -1.0]));
        assert_eq!(q.shape(), &[2]);
        assert_eq!(q.words(), &words);
        assert_eq!(q.meta(), &meta);
        assert_eq!(q.dequantize().data(), &[1.0, -1.0]);
    }

    #[test]
    fn quantize_from_reuses_the_tensor_and_replaces_shape() {
        round_trip::<i32>(QFormat::Q3_4, [16, -16]);
    }

    #[test]
    fn i8_quantize_from_reuses_the_tensor_and_replaces_shape() {
        round_trip::<i8>(I8Affine { scale: 0.5 }, [2, -2]);
    }

    #[test]
    fn words_mut_exposes_live_storage() {
        let mut q = QTensor::zeros(&[2], QFormat::Q3_4);
        q.words_mut()[1] = 16;
        assert_eq!(q.dequantize().data()[1], 1.0);
    }

    #[test]
    fn i8_words_mut_exposes_live_storage() {
        let mut q = I8Tensor::zeros(&[2], I8Affine { scale: 0.5 });
        q.words_mut()[1] = 2;
        assert_eq!(q.dequantize().data()[1], 1.0);
    }

    #[test]
    fn argmax_on_raw_words_matches_value_argmax() {
        let t = Tensor::from_vec(&[4], vec![-2.0, 3.5, 3.5, 1.0]);
        let q = QTensor::quantize(&t, QFormat::Q3_4);
        assert_eq!(q.argmax(), t.argmax());
    }

    #[test]
    fn debug_is_nonempty() {
        let q = QTensor::zeros(&[1], QFormat::Q3_4);
        assert!(!format!("{q:?}").is_empty());
    }

    #[test]
    fn i8_quantize_and_dequantize_roundtrip_grid_values() {
        let affine = I8Affine { scale: 0.25 };
        let t = Tensor::from_vec(&[2, 2], vec![0.0, 0.5, -1.25, 3.75]);
        let q = I8Tensor::quantize(&t, affine);
        assert_eq!(q.shape(), &[2, 2]);
        assert_eq!(q.len(), 4);
        assert_eq!(q.dequantize().data(), t.data());
    }

    #[test]
    fn i8_quantize_saturates_out_of_range_values() {
        let t = Tensor::from_vec(&[2], vec![100.0, -100.0]);
        let q = I8Tensor::quantize(&t, I8Affine { scale: 0.25 });
        assert_eq!(q.words(), &[127, -128]);
    }

    #[test]
    fn argmax_on_bytes_matches_value_argmax() {
        let t = Tensor::from_vec(&[4], vec![-2.0, 3.5, 3.5, 1.0]);
        let q = I8Tensor::quantize(&t, I8Affine { scale: 0.05 });
        assert_eq!(q.argmax(), t.argmax());
    }

    #[test]
    fn i8_debug_is_nonempty() {
        let q = I8Tensor::zeros(&[1], I8Affine { scale: 0.5 });
        assert!(!format!("{q:?}").is_empty());
    }
}
