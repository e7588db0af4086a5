//! The paper's two low-overhead fault-mitigation techniques.
//!
//! Traditional protection (ECC, dual/triple modular redundancy) is too
//! expensive for resource-constrained edge accelerators. Based on its fault
//! characterization, the paper proposes two application-aware alternatives,
//! both implemented here:
//!
//! 1. **Adaptive exploration-rate adjustment** during training (§5.1,
//!    [`ExplorationAdjuster`]): detect faults from drops in cumulative reward
//!    and respond by boosting exploration (transient faults) or restarting the
//!    exploration schedule with a slowed decay (permanent faults), so the
//!    agent can learn around the fault pattern.
//! 2. **Range-based anomaly detection** during inference (§5.2,
//!    [`RangeGuard`]): instrument per-layer value ranges after training,
//!    flag values whose sign/integer bits escape the 10 %-widened range, and
//!    skip (zero) them, exploiting the sparsity of trained policies.
//!    [`RangeGuard::scrub`] cleans a weight buffer in place;
//!    [`RangeGuard::scrub_buffer`] applies the same comparison to an
//!    activation or input row on any backend.
//!
//! # Examples
//!
//! Protecting a trained policy's weights:
//!
//! ```
//! use navft_mitigation::{RangeGuard, RangeGuardConfig};
//! use navft_nn::mlp;
//! use navft_qformat::QFormat;
//! use rand::{rngs::SmallRng, SeedableRng};
//!
//! let mut rng = SmallRng::seed_from_u64(7);
//! let mut policy = mlp(&[16, 32, 4], &mut rng);
//! let guard = RangeGuard::from_network(&policy, QFormat::Q4_11, RangeGuardConfig::paper());
//!
//! // A bit flip in the sign/integer bits creates a large outlier...
//! policy.layer_weights_mut(0).unwrap()[10] = -12.0;
//! // ...which the guard detects and skips.
//! assert_eq!(guard.scrub(&mut policy), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod anomaly;
mod exploration;

pub use anomaly::{GuardedElement, RangeGuard, RangeGuardConfig, ValueBounds};
pub use exploration::{ExplorationAdjuster, ExplorationAdjusterConfig, MitigationEvent};
