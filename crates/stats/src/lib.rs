//! # humnet-stats
//!
//! Statistics substrate for the `humnet` toolkit.
//!
//! Every simulator and analysis pipeline in `humnet` leans on this crate for:
//!
//! * a small, fully deterministic pseudo-random number generator
//!   ([`rng::Rng`]) so that every experiment is reproducible bit-for-bit
//!   from a `u64` seed;
//! * inequality and fairness indices ([`inequality`]) — Gini, Lorenz,
//!   top share, Jain — used to quantify concentration of research attention;
//! * exact weighted samplers ([`sampler`]), a blocked prefix layout for
//!   f64 weights and a Fenwick tree for integers, that draw what
//!   [`Rng::choose_weighted`] draws without rescanning the weights.
//!
//! The crate is dependency-light and synchronous by design: the humnet
//! simulators are CPU-bound discrete-event loops, and determinism is a core
//! requirement for reproducing the experiment tables in `EXPERIMENTS.md`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod inequality;
pub mod rng;
pub mod sampler;

pub use inequality::{gini, jain_fairness, lorenz_curve, top_share};
pub use rng::Rng;
pub use sampler::{CumulativeWeights, FenwickWeights};

/// Errors produced by statistical routines in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// The input slice was empty but the statistic requires data.
    EmptyInput,
    /// Input slices that must have equal length did not.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A parameter was outside its valid domain (e.g. a probability not in `[0, 1]`).
    InvalidParameter(&'static str),
    /// The statistic is undefined for the given data (e.g. zero variance).
    Degenerate(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::EmptyInput => write!(f, "input data is empty"),
            StatsError::LengthMismatch { left, right } => {
                write!(f, "input length mismatch: {left} vs {right}")
            }
            StatsError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            StatsError::Degenerate(what) => write!(f, "statistic undefined: {what}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, StatsError>;
