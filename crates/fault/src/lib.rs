//! Hardware fault models, injectors and campaign machinery.
//!
//! This crate is the fault-injection tool-chain of the paper: it emulates the
//! memory faults that afflict learning-based navigation accelerators —
//! permanent *stuck-at-0* / *stuck-at-1* defects and transient *bit flips*
//! (single-event upsets) — at the level of the quantized fixed-point words
//! stored in the accelerator's buffers.
//!
//! The abstractions mirror §3.2–3.3 of the paper:
//!
//! * [`FaultKind`] — stuck-at-0, stuck-at-1, or bit flip.
//! * [`FaultSite`] / [`FaultTarget`] — which buffer is hit (tabular values,
//!   input feature maps, weights, activations) and optionally which layer.
//! * [`FaultMap`] — a concrete set of (word, bit) faults sampled from a bit
//!   error rate (BER); permanent faults are re-enforced on every access while
//!   transient flips are applied once.
//! * [`Injector`] — the single corruption entry point,
//!   [`Injector::corrupt`], generic over the stored word. For `f32` buffers
//!   that *model* Q-format storage it applies the fault map through a
//!   quantize–corrupt–dequantize round trip; for buffers that *natively*
//!   hold raw words (the quantized and `i8` inference backends) it flips
//!   bits of the live words in place — one integer operation per fault, no
//!   round trip. The span variant ([`Injector::corrupt_span`]) addresses one
//!   layer's buffer within a map sampled over a whole network's
//!   concatenated weight space.
//! * [`InjectionSchedule`] — *when* the fault strikes (which training episode
//!   or inference step) and whether it is injected statically (before
//!   execution) or dynamically (during execution).
//! * [`campaign`] — repetition/seeding machinery plus one-pass summary
//!   statistics for large fault-injection campaigns, and the work-stealing
//!   [`campaign::run_cells`] scheduler that executes every (cell, repetition)
//!   trial of a whole evaluation run over one shared work queue with
//!   bit-identical-to-serial results.
//!
//! # Examples
//!
//! ```
//! use navft_fault::{FaultKind, FaultMap};
//! use navft_qformat::QFormat;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! // Sample a 1% BER bit-flip pattern over 64 words of 16 bits each.
//! let map = FaultMap::sample(64, QFormat::Q4_11, 0.01, FaultKind::BitFlip, &mut rng);
//! let mut weights = vec![0.5f32; 64];
//! map.corrupt(&mut weights, QFormat::Q4_11);
//! assert!(weights.iter().any(|&w| w != 0.5));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;

mod injector;
mod location;
mod map;
mod model;
mod schedule;

pub use injector::Injector;
pub use location::{FaultSite, FaultTarget};
pub use map::{BitFault, FaultMap, StoredWord};
pub use model::{FaultKind, FaultSpec, TransientScope};
pub use schedule::{InjectionMode, InjectionSchedule};
