//! # humnet-qual
//!
//! Qualitative-coding engine for the `humnet` toolkit.
//!
//! The paper's §5.2 asks networking researchers to "robustly collect and
//! analyze even informal, personal, and ad-hoc communications", formally
//! *coding* them when the corpus is large. This crate implements the full
//! machinery that recommendation presumes:
//!
//! * [`transcript`] — interview/conversation transcripts with speaker
//!   turns, consent metadata, and anonymization;
//! * [`codebook`] — hierarchical codebooks with definitions and refinement
//!   history;
//! * [`coding`] — coded segments and per-coder coding sessions;
//! * [`reliability`] — inter-rater reliability statistics: percent
//!   agreement, Cohen's κ, weighted κ, Scott's π, Fleiss' κ, and
//!   Krippendorff's α (each validated against published worked examples);
//! * [`themes`] — theme extraction from code co-occurrence, and
//!   representative quote selection;
//! * [`ethics`] — consent records and export guardrails (§6.2.3);
//! * [`simulate`] — simulated coder pools over ground-truth-coded
//!   transcripts, used by experiment **T2** to show how codebook
//!   refinement rounds drive agreement up.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codebook;
pub mod coding;
pub mod diary;
pub mod ethics;
pub mod focusgroup;
pub mod reliability;
pub mod simulate;
pub mod themes;
pub mod transcript;

pub use codebook::{Code, Codebook};
pub use coding::{CodedSegment, CodingSession};
pub use diary::{simulate_diary, DiaryConfig, DiaryEntry, DiaryOutcome};
pub use focusgroup::{
    simulate_focus_group, FocusGroupConfig, FocusGroupOutcome, FocusParticipant,
};
pub use ethics::{ConsentRecord, ConsentStatus, EthicsPolicy};
pub use reliability::{
    cohen_kappa, fleiss_kappa, krippendorff_alpha, krippendorff_alpha_interval,
    percent_agreement, scott_pi, weighted_kappa,
};
pub use simulate::{CoderProfile, SimulatedStudy, StudyConfig};
pub use themes::{extract_themes, representative_quotes, Theme};
pub use transcript::{Speaker, Transcript, Utterance};

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
    /// A referenced code does not exist in the codebook.
    UnknownCode(String),
    /// The statistic is undefined for the given data.
    Degenerate(&'static str),
    /// An ethics guardrail blocked the operation.
    EthicsViolation(String),
}

impl std::fmt::Display for QualError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QualError::EmptyInput => write!(f, "input is empty"),
            QualError::LengthMismatch { left, right } => {
                write!(f, "length mismatch: {left} vs {right}")
            }
            QualError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            QualError::UnknownCode(c) => write!(f, "unknown code: {c}"),
            QualError::Degenerate(what) => write!(f, "statistic undefined: {what}"),
            QualError::EthicsViolation(what) => write!(f, "ethics guardrail: {what}"),
        }
    }
}

impl std::error::Error for QualError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, QualError>;
