//! High-level experiment orchestration for the navft reproduction of
//! *Analyzing and Improving Fault Tolerance of Learning-Based Navigation
//! Systems* (DAC 2021).
//!
//! The lower-level crates provide the building blocks — fixed-point numerics
//! (`navft-qformat`), the fault-injection tool-chain (`navft-fault`), the
//! Grid World and drone environments (`navft-gridworld`, `navft-dronesim`),
//! the quantized NN library (`navft-nn`), the learning algorithms
//! (`navft-rl`) and the two mitigation techniques (`navft-mitigation`).
//! This crate assembles them into the paper's experiments:
//!
//! * [`Scale`] — how big a campaign to run (smoke / quick / paper-sized).
//! * [`FigureData`] — structured results matching the paper's figures, with
//!   plain-text rendering.
//! * [`grid_policies`] / [`drone_policy`] — policy training helpers for both
//!   benchmark tasks.
//! * [`sweep`] — the declarative campaign layer: every figure is a set of
//!   [`sweep::CellSpec`] cells plus a fold to figure data, executed by one
//!   work-stealing scheduler with resumable JSONL artifacts
//!   ([`sweep::run_sweeps`]).
//! * [`experiments`] — one sweep builder per figure of the paper's
//!   evaluation (Fig. 2 through Fig. 10) plus ablations, registered in
//!   [`experiments::sweep_builders`]; see [`experiments::all_sweeps`].
//!
//! # Examples
//!
//! Reproduce the Grid World inference-sensitivity figure at smoke scale:
//!
//! ```no_run
//! use navft_core::{experiments, Scale};
//!
//! let scale = Scale::Smoke;
//! for figure in experiments::fig5::sweep(scale).collect(scale.threads()) {
//!     println!("{figure}");
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drone_policy;
pub mod experiments;
pub mod grid_policies;
pub mod sweep;

mod figure;
mod hooks;
mod scale;

pub use figure::{FigureContent, FigureData, Heatmap, Series};
pub use hooks::{BufferFaultHook, HookPersistence, HookTarget};
pub use scale::{DroneParams, GridParams, Scale};
