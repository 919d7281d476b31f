//! # humnet-survey
//!
//! Positionality substrate for the `humnet` toolkit.
//!
//! [`positionality`] holds a typed model of positionality statements (§4),
//! a rule-based detector that finds them in paper text (used by experiment
//! **F2** over the synthetic corpus), and a reflexivity score.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod positionality;

pub use positionality::{
    detect_positionality, has_positionality_statement, reflexivity_score, DetectedStatement,
    PositionalityFacet, PositionalityStatement,
};

/// Errors produced by the survey substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SurveyError {
    /// The operation requires nonempty input.
    EmptyInput,
}

impl std::fmt::Display for SurveyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SurveyError::EmptyInput => write!(f, "input is empty"),
        }
    }
}

impl std::error::Error for SurveyError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, SurveyError>;
