//! Dense row-major tensors, generic over the numeric backend's element type.
//!
//! [`TensorBase`] carries a shape, a flat element buffer and the element
//! type's metadata ([`Element::Meta`]: nothing for `f32`, the storage
//! [`QFormat`](navft_qformat::QFormat) for raw words, the
//! [`I8Affine`](crate::I8Affine) scale for bytes). The backends are aliases
//! of the same struct — [`Tensor`] (`f32`), [`QTensor`](crate::QTensor)
//! (`i32` raw words) and [`I8Tensor`](crate::I8Tensor) (`i8` bytes) — so the
//! generic network stack moves one tensor type through one engine regardless
//! of backend, and an `f32` observation enters any of them through one
//! conversion, [`TensorBase::quantize_from`].

use std::fmt;

use rand::Rng;

use crate::element::Element;

/// A dense row-major tensor of one backend's elements.
///
/// Shapes follow the `[channels, height, width]` convention for images and
/// `[features]` for vectors. The tensor intentionally exposes its flat data
/// buffer ([`TensorBase::data`] / [`TensorBase::data_mut`]) because the fault
/// model of the paper corrupts the *memory buffers* holding feature maps,
/// weights and activations.
///
/// Use the aliases: [`Tensor`] for `f32` values, [`QTensor`](crate::QTensor)
/// for raw Q-format words, [`I8Tensor`](crate::I8Tensor) for affine bytes.
///
/// # Examples
///
/// ```
/// use navft_nn::Tensor;
///
/// let mut t = Tensor::zeros(&[2, 3]);
/// t.data_mut()[4] = 1.5;
/// assert_eq!(t.get(&[1, 1]), 1.5);
/// assert_eq!(t.len(), 6);
/// ```
#[derive(Clone, PartialEq)]
pub struct TensorBase<E: Element> {
    shape: Vec<usize>,
    data: Vec<E>,
    meta: E::Meta,
}

/// A dense row-major `f32` tensor — the float backend's storage type.
pub type Tensor = TensorBase<f32>;

impl<E: Element> TensorBase<E> {
    /// Builds a tensor from already-validated parts (internal constructor of
    /// the generic forward paths).
    pub(crate) fn from_parts(shape: Vec<usize>, data: Vec<E>, meta: E::Meta) -> TensorBase<E> {
        debug_assert_eq!(shape.iter().product::<usize>(), data.len());
        TensorBase { shape, data, meta }
    }

    /// Converts an `f32` tensor into this backend's words on the grid
    /// `meta` describes ([`Element::from_f32`]: rounding to nearest and
    /// saturating for the integer backends, a bitwise copy for `f32`).
    pub fn quantize(tensor: &Tensor, meta: E::Meta) -> TensorBase<E> {
        let mut converted = TensorBase { shape: Vec::new(), data: Vec::new(), meta };
        converted.quantize_from(tensor);
        converted
    }

    /// Converts an `f32` tensor into this tensor in place, reusing the
    /// existing allocations — the zero-allocation entry point of episode
    /// loops that feed float observations to any backend.
    ///
    /// The tensor takes `tensor`'s shape; its metadata is unchanged.
    pub fn quantize_from(&mut self, tensor: &Tensor) {
        self.shape.clear();
        self.shape.extend_from_slice(tensor.shape());
        self.data.clear();
        E::extend_from_f32(&mut self.data, tensor.data(), &self.meta);
    }

    /// The tensor's metadata: the [`Element::Meta`] of the network it feeds.
    pub fn meta(&self) -> &E::Meta {
        &self.meta
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &[usize] {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements (never true for a valid tensor).
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat data buffer.
    pub fn data(&self) -> &[E] {
        &self.data
    }

    /// The flat data buffer, mutably — the fault-injection surface.
    pub fn data_mut(&mut self) -> &mut [E] {
        &mut self.data
    }

    /// Consumes the tensor and returns its flat buffer.
    pub fn into_data(self) -> Vec<E> {
        self.data
    }

    /// Index of the maximum element (ties resolve to the first).
    ///
    /// Returns 0 for a single-element tensor; never panics for valid
    /// tensors. Raw-word comparison equals value comparison because
    /// dequantization is monotonic, so greedy action selection needs no
    /// float round trip on the quantized backend.
    pub fn argmax(&self) -> usize {
        argmax(&self.data)
    }

    pub(crate) fn flat_index(&self, index: &[usize]) -> usize {
        assert_eq!(index.len(), self.shape.len(), "index rank mismatch");
        let mut flat = 0;
        for (dim, (&i, &d)) in index.iter().zip(self.shape.iter()).enumerate() {
            assert!(i < d, "index {i} out of range for dimension {dim} of extent {d}");
            flat = flat * d + i;
        }
        flat
    }
}

impl Tensor {
    /// A tensor of the given shape filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn zeros(shape: &[usize]) -> Tensor {
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "tensor dimensions must be non-zero");
        let len = shape.iter().product();
        Tensor { shape: shape.to_vec(), data: vec![0.0; len], meta: () }
    }

    /// A tensor of the given shape filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Tensor {
        let mut t = Tensor::zeros(shape);
        t.data.iter_mut().for_each(|v| *v = value);
        t
    }

    /// Builds a tensor from a flat buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape`.
    pub fn from_vec(shape: &[usize], data: Vec<f32>) -> Tensor {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        Tensor { shape: shape.to_vec(), data, meta: () }
    }

    /// A tensor with elements drawn uniformly from `[-scale, scale]`.
    pub fn uniform<R: Rng + ?Sized>(shape: &[usize], scale: f32, rng: &mut R) -> Tensor {
        let mut t = Tensor::zeros(shape);
        for v in t.data.iter_mut() {
            *v = rng.gen_range(-scale..=scale);
        }
        t
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.data[self.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index rank or any coordinate is out of range.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.flat_index(index);
        self.data[i] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the new shape has a different element count.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        Tensor::from_vec(shape, self.data.clone())
    }

    /// Overwrites this tensor in place with `shape` and `data`, reusing the
    /// existing allocations whenever their capacity suffices.
    ///
    /// This is the zero-allocation counterpart of [`Tensor::from_vec`]; the
    /// batched inference scratch and the reusable forward trace are built on
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not match the product of `shape` or the
    /// shape is invalid.
    pub fn assign(&mut self, shape: &[usize], data: &[f32]) {
        let expected: usize = shape.iter().product();
        assert_eq!(
            data.len(),
            expected,
            "data length {} does not match shape {:?}",
            data.len(),
            shape
        );
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.clear();
        self.data.extend_from_slice(data);
    }

    /// Resizes this tensor in place to `shape`, reusing the existing
    /// allocation; newly exposed elements are zero. Existing element values
    /// are unspecified afterwards — callers are expected to overwrite the
    /// whole buffer (e.g. via a layer's `forward_into`).
    ///
    /// # Panics
    ///
    /// Panics if the shape is empty or has a zero dimension.
    pub fn resize_to(&mut self, shape: &[usize]) {
        assert!(!shape.is_empty(), "tensor shape must have at least one dimension");
        assert!(shape.iter().all(|&d| d > 0), "tensor dimensions must be non-zero");
        self.shape.clear();
        self.shape.extend_from_slice(shape);
        self.data.resize(shape.iter().product(), 0.0);
    }

    /// Applies `f` to every element, returning a new tensor.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
            meta: (),
        }
    }

    /// The maximum element.
    pub fn max(&self) -> f32 {
        self.data.iter().copied().fold(f32::NEG_INFINITY, f32::max)
    }

    /// The minimum element.
    pub fn min(&self) -> f32 {
        self.data.iter().copied().fold(f32::INFINITY, f32::min)
    }
}

/// Index of the maximum element of a flat buffer (ties resolve to the
/// first; 0 for an empty or single-element buffer).
///
/// This is [`TensorBase::argmax`] for borrowed slices — the form the
/// zero-allocation batched engine hands out through [`crate::Scratch::row`].
/// It is generic over the
/// element type because greedy action selection over raw Q-format words is
/// the same comparison as over dequantized `f32` values (dequantization is
/// monotonic in the raw word).
pub fn argmax<T: PartialOrd>(values: &[T]) -> usize {
    let mut best = 0;
    for (i, v) in values.iter().enumerate() {
        if *v > values[best] {
            best = i;
        }
    }
    best
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor {{ shape: {:?}, {} elements }}", self.shape, self.data.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn zeros_and_full() {
        let z = Tensor::zeros(&[2, 2]);
        assert_eq!(z.data(), &[0.0; 4]);
        let f = Tensor::full(&[3], 2.5);
        assert_eq!(f.data(), &[2.5, 2.5, 2.5]);
    }

    #[test]
    fn indexing_is_row_major() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        assert_eq!(t.get(&[0, 0]), 0.0);
        assert_eq!(t.get(&[0, 2]), 2.0);
        assert_eq!(t.get(&[1, 0]), 3.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
    }

    #[test]
    fn set_and_get_roundtrip() {
        let mut t = Tensor::zeros(&[2, 2, 2]);
        t.set(&[1, 0, 1], 7.0);
        assert_eq!(t.get(&[1, 0, 1]), 7.0);
        assert_eq!(t.data()[5], 7.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_index_panics() {
        let t = Tensor::zeros(&[2, 2]);
        let _ = t.get(&[0, 2]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_length_mismatch_panics() {
        let _ = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(&[2, 3], (0..6).map(|i| i as f32).collect());
        let r = t.reshape(&[6]);
        assert_eq!(r.shape(), &[6]);
        assert_eq!(r.data(), t.data());
    }

    #[test]
    fn map_and_extrema_and_argmax() {
        let t = Tensor::from_vec(&[4], vec![-1.0, 3.0, 2.0, 3.0]);
        assert_eq!(t.map(|v| v * 2.0).data(), &[-2.0, 6.0, 4.0, 6.0]);
        assert_eq!(t.max(), 3.0);
        assert_eq!(t.min(), -1.0);
        assert_eq!(t.argmax(), 1);
    }

    #[test]
    fn uniform_respects_scale() {
        let mut rng = SmallRng::seed_from_u64(0);
        let t = Tensor::uniform(&[100], 0.5, &mut rng);
        assert!(t.data().iter().all(|v| v.abs() <= 0.5));
        assert!(t.data().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn into_data_returns_buffer() {
        let t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        assert_eq!(t.into_data(), vec![1.0, 2.0]);
    }

    #[test]
    fn assign_overwrites_shape_and_data_in_place() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.assign(&[4], &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(t.shape(), &[4]);
        assert_eq!(t.data(), &[1.0, 2.0, 3.0, 4.0]);
        // Shrinking reuses the buffer and drops the tail.
        t.assign(&[2], &[9.0, 8.0]);
        assert_eq!(t.data(), &[9.0, 8.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn assign_rejects_mismatched_data() {
        let mut t = Tensor::zeros(&[2]);
        t.assign(&[3], &[1.0, 2.0]);
    }

    #[test]
    fn resize_to_changes_shape_and_element_count() {
        let mut t = Tensor::from_vec(&[2], vec![1.0, 2.0]);
        t.resize_to(&[2, 2]);
        assert_eq!(t.shape(), &[2, 2]);
        assert_eq!(t.len(), 4);
        t.resize_to(&[3]);
        assert_eq!(t.len(), 3);
    }
}
