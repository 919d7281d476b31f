//! # humnet-corpus
//!
//! Bibliometric corpus substrate for the `humnet` toolkit.
//!
//! The paper this toolkit reproduces makes claims about the *sociology of
//! publication* in networking: positionality statements are vanishingly rare
//! at systems venues, partnerships go undocumented, human-centered work is
//! pushed to HCI venues. Testing those claims requires a publication corpus.
//! Scraping the ACM DL is not possible offline, so this crate provides:
//!
//! * a typed data model of papers, authors, venues, institutions, regions,
//!   topics and method tags ([`model`]);
//! * a **synthetic corpus generator** ([`generator`]) calibrated to
//!   well-known stylized facts (power-law citations via preferential
//!   attachment, venue-dependent method prevalence, Global North dominance
//!   of author affiliations);
//! * corpus analytics ([`analysis`]) — method prevalence tables, regional
//!   shares, citation inequality.
//!
//! The generator's parameters are all public ([`generator::CorpusConfig`]),
//! so experiments can sweep them; every corpus is deterministic given a
//! seed.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod generator;
pub mod model;

pub use analysis::{
    citation_gini, method_prevalence, method_rate_by_year, papers_per_venue, region_share,
    MethodPrevalence,
};
pub use generator::{CorpusConfig, VenueProfile};
pub use model::{
    Author, Corpus, MethodTag, Paper, Region, StakeholderClass, Topic, Venue, VenueKind,
};

/// Errors produced by corpus routines.
#[derive(Debug)]
pub enum CorpusError {
    /// The corpus is empty but the operation requires papers.
    EmptyCorpus,
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// A referenced entity id does not exist.
    DanglingReference(&'static str, usize),
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::EmptyCorpus => write!(f, "corpus is empty"),
            CorpusError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CorpusError::DanglingReference(kind, id) => {
                write!(f, "dangling {kind} reference: {id}")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CorpusError>;
