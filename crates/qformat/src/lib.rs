//! Signed fixed-point `Q(sign, int, frac)` numerics with bit-level access.
//!
//! Learning-based navigation accelerators store policies (Q-tables, network
//! weights, feature maps and activations) as quantized fixed-point words.
//! Hardware faults — stuck-at defects and transient bit flips — manifest at the
//! level of the *bits* of these words, so any faithful fault-injection study
//! needs a numeric type that exposes its bit pattern.
//!
//! This crate provides:
//!
//! * [`QFormat`] — a fixed-point format descriptor `Q(1, int, frac)` (one sign
//!   bit, `int` integer bits, `frac` fractional bits), including the formats
//!   the paper evaluates: [`QFormat::Q4_11`], [`QFormat::Q7_8`],
//!   [`QFormat::Q10_5`] and the 8-bit [`QFormat::Q3_4`] used for Grid World.
//! * [`QValue`] — a single quantized word in a given format with saturating
//!   quantization, exact dequantization and bit get/set/flip/stuck operations.
//! * [`bitstats`] — bit-population and value-histogram statistics used to
//!   explain why stuck-at-0 and stuck-at-1 faults behave differently
//!   (Fig. 2b/2d of the paper).
//!
//! # The numeric domain of two backends
//!
//! This crate defines the quantized domain both inference backends of
//! `navft-nn` compute in. Compiling a trained `f32` network snaps its
//! parameters onto a format's grid with [`QValue::quantize`] (the
//! equivalence suites' float oracle requantizes activations the same way);
//! the native backend stores raw two's-complement words and leans on the
//! integer-only primitives here: [`QFormat::requantize_product_sum`]
//! (widened-accumulator requantization with saturation and
//! round-to-nearest-away-from-zero, matching `f32::round`) and
//! [`bitstats::BitStats::extend_raw`] (bit statistics without a float round
//! trip).
//!
//! ## Paper data-type mapping
//!
//! The drone policy sweep of Fig. 7e compares the 16-bit formats
//! [`QFormat::Q4_11`], [`QFormat::Q7_8`] and [`QFormat::Q10_5`] — wider
//! integer ranges make a flipped high-order bit a larger outlier, which is
//! why `Q(1,10,5)` is the least fault-resilient. Grid World policies store
//! 8-bit [`QFormat::Q3_4`] words (matching the value histograms of
//! Fig. 2b/2d), and the extended ablation adds [`QFormat::Q2_5`] and
//! [`QFormat::Q2_13`]. The data-type experiments execute each of these
//! formats natively on the quantized backend.
//!
//! # Examples
//!
//! ```
//! use navft_qformat::{QFormat, QValue};
//!
//! # fn main() -> Result<(), navft_qformat::FormatError> {
//! let fmt = QFormat::new(4, 11)?; // Q(1,4,11), 16-bit word
//! let w = QValue::quantize(1.5, fmt);
//! assert!((w.to_f32() - 1.5).abs() < fmt.resolution());
//!
//! // Flip the most significant (sign) bit: a small weight becomes a large
//! // negative outlier — exactly the failure mode range-based anomaly
//! // detection is designed to catch.
//! let corrupted = w.with_flipped_bit(fmt.total_bits() - 1)?;
//! assert!(corrupted.to_f32() < -14.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod format;
mod value;

pub mod bitstats;

pub use error::FormatError;
pub use format::QFormat;
pub use value::{round_half_away, QValue};
