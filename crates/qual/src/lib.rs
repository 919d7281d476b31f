//! # humnet-qual
//!
//! Qualitative-coding engine for the `humnet` toolkit.
//!
//! The paper's §5.2 asks networking researchers to "robustly collect and
//! analyze even informal, personal, and ad-hoc communications", formally
//! *coding* them when the corpus is large. This crate models the parts of
//! that practice the experiments measure:
//!
//! * [`reliability`] — inter-rater reliability statistics: percent
//!   agreement, Cohen's κ, weighted κ, Scott's π, Fleiss' κ, and
//!   Krippendorff's α (each validated against published worked examples);
//! * [`simulate`] — simulated coder pools over ground-truth-coded units,
//!   used by experiment **T2** to show how codebook refinement rounds
//!   drive agreement up;
//! * [`diary`] — a diary study whose compliance decays unless researchers
//!   send probes (experiment **T6**).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod diary;
pub mod reliability;
pub mod simulate;

pub use diary::{simulate_diary, DiaryConfig, DiaryEntry, DiaryOutcome};
pub use reliability::{
    cohen_kappa, fleiss_kappa, krippendorff_alpha, krippendorff_alpha_interval, percent_agreement,
    scott_pi, weighted_kappa,
};
pub use simulate::{CoderProfile, SimulatedStudy, StudyConfig};

/// Errors produced by the qualitative-coding engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QualError {
    /// The operation requires nonempty data.
    EmptyInput,
    /// Input sizes that must match did not.
    LengthMismatch {
        /// Length of the first input.
        left: usize,
        /// Length of the second input.
        right: usize,
    },
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// The statistic is undefined for the given data.
    Degenerate(&'static str),
}

impl std::fmt::Display for QualError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualError::EmptyInput => write!(f, "input is empty"),
            QualError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            QualError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            QualError::Degenerate(what) => write!(f, "statistic undefined: {what}"),
        }
    }
}

impl std::error::Error for QualError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, QualError>;
