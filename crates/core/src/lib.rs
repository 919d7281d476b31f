//! # humnet-core
//!
//! The `humnet` toolkit's primary contribution: first-class Rust types for
//! the three research tools the paper advocates, plus the auditing and
//! reporting machinery that makes them checkable.
//!
//! * [`par`] — participatory action research projects: partners, engagement
//!   records across research stages, Arnstein-style participation-ladder
//!   scoring, and the §5.1 documentation audit.
//! * [`ethnography`] — field studies: sites, visit schedules (traditional,
//!   patchwork, rapid), and an insight-saturation model that quantifies the
//!   §3 claim that fragmented field time can preserve depth (experiment
//!   **F6**).
//! * [`audit`] — the `MethodsAuditor`: runs the paper's §5 checklist over a
//!   [`humnet_corpus::Corpus`] (experiments **F2** and **F7**).
//! * [`report`] — plain-text tables and series used by the experiment
//!   driver and benches to regenerate every table/figure in
//!   `EXPERIMENTS.md`.
//! * `subrun` — the fork-join that runs an experiment's independent
//!   sub-runs (T1's 25 agenda runs, T3's 15 mesh runs) on several
//!   threads with the serial loop's output and journal.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod audit;
pub mod ethnography;
pub mod experiments;
pub mod par;
pub mod report;
mod subrun;

pub use audit::{AuditReport, MethodsAuditor, VenueAudit};
pub use ethnography::{EthnographyConfig, FieldStudy, MemoPractice, Schedule, StudyOutcome};
pub use par::{EngagementKind, EngagementRecord, ParProject, Partner, ResearchStage};
pub use report::{Series, Table};

/// Errors produced by the core crate.
#[derive(Debug, Clone)]
pub enum CoreError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// The operation requires nonempty input.
    EmptyInput,
    /// A referenced entity was missing.
    NotFound(&'static str),
    /// A failure in one of the domain crates, with the original error
    /// preserved so `std::error::Error::source()` walks back to it.
    Upstream {
        /// Which experiment stage or subsystem the failure surfaced in.
        stage: &'static str,
        /// The originating crate error, kept alive behind an `Arc` so
        /// `CoreError` stays cheap to clone.
        source: std::sync::Arc<dyn std::error::Error + Send + Sync + 'static>,
    },
}

impl CoreError {
    /// Wrap an upstream crate error, tagging it with the stage it broke.
    pub fn upstream<E>(stage: &'static str, source: E) -> Self
    where
        E: std::error::Error + Send + Sync + 'static,
    {
        CoreError::Upstream {
            stage,
            source: std::sync::Arc::new(source),
        }
    }
}

/// Adapter for `map_err`: `result.map_err(upstream("f5 congestion"))?`
/// keeps the originating error reachable through `source()` instead of
/// flattening it to a static string.
pub fn upstream<E>(stage: &'static str) -> impl FnOnce(E) -> CoreError
where
    E: std::error::Error + Send + Sync + 'static,
{
    move |e| CoreError::upstream(stage, e)
}

impl PartialEq for CoreError {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CoreError::InvalidParameter(a), CoreError::InvalidParameter(b)) => a == b,
            (CoreError::EmptyInput, CoreError::EmptyInput) => true,
            (CoreError::NotFound(a), CoreError::NotFound(b)) => a == b,
            // Source errors are type-erased; compare by stage and message,
            // which is what callers observe.
            (
                CoreError::Upstream {
                    stage: sa,
                    source: ea,
                },
                CoreError::Upstream {
                    stage: sb,
                    source: eb,
                },
            ) => sa == sb && ea.to_string() == eb.to_string(),
            _ => false,
        }
    }
}

impl Eq for CoreError {}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CoreError::EmptyInput => write!(f, "input is empty"),
            CoreError::NotFound(what) => write!(f, "not found: {what}"),
            CoreError::Upstream { stage, source } => {
                write!(f, "{stage}: {source}")
            }
        }
    }
}

impl std::error::Error for CoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CoreError::Upstream { source, .. } => {
                // Re-borrow to drop the auto-trait bounds the field carries.
                Some(source.as_ref() as &(dyn std::error::Error + 'static))
            }
            _ => None,
        }
    }
}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
