//! # humnet
//!
//! A toolkit and simulation suite for studying *the humans of networking
//! research* — a full Rust reproduction of the HotNets '25 position paper
//! "Unveiling and Engaging with the Humans of Networking Research".
//!
//! The paper argues that networking research abstracts away the people who
//! build, operate, and experience the Internet, and proposes three
//! qualitative methods — participatory action research, ethnography, and
//! positionality — as first-class research tools. Since a position paper
//! has no evaluation to re-run, this crate *operationalizes* the paper:
//! every claim becomes a simulator and every recommendation becomes a
//! checkable audit (see `DESIGN.md` for the substitution table and
//! `EXPERIMENTS.md` for measured results).
//!
//! ## Crate map
//!
//! | Module | Backing crate | Contents |
//! |---|---|---|
//! | [`stats`] | `humnet-stats` | deterministic RNG, exact weighted samplers, inequality indices |
//! | [`text`] | `humnet-text` | tokenization, Markov generation of synthetic abstracts |
//! | [`corpus`] | `humnet-corpus` | synthetic publication corpus + bibliometrics |
//! | [`qual`] | `humnet-qual` | simulated coder pools, inter-rater reliability, diary studies |
//! | [`ixp`] | `humnet-ixp` | AS topology, Gao–Rexford routing, IXPs, regulation |
//! | [`community`] | `humnet-community` | volunteer-maintained mesh + common-pool congestion |
//! | [`agenda`] | `humnet-agenda` | research-ecosystem ABM + venue gatekeeping |
//! | [`survey`] | `humnet-survey` | positionality statements and their detection |
//! | [`resilience`] | `humnet-resilience` | deterministic fault injection, supervised experiment runner |
//! | [`serve`] | `humnet-serve` | long-lived experiment daemon with a content-addressed result cache |
//! | [`telemetry`] | `humnet-telemetry` | metrics registry, tracing spans, structured event journal |
//! | [`core`] | `humnet-core` | PAR / ethnography workflows, methods auditor, experiment suite |
//!
//! ## Quickstart
//!
//! ```
//! use humnet::core::experiments;
//! use humnet::resilience::NoFaults;
//! use humnet::telemetry::Telemetry;
//!
//! // Regenerate the headline experiment: concentration of research
//! // attention under a data-driven regime (figure F1), with no faults
//! // injected and telemetry disabled.
//! let f1 = experiments::f1_attention(42, &mut NoFaults, &Telemetry::disabled())
//!     .expect("simulation runs");
//! assert!(f1.gini > 0.5, "attention is heavily concentrated");
//! println!("{}", f1.by_class.render());
//! ```
//!
//! Run `cargo run --bin experiments` to regenerate every table and figure.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use humnet_agenda as agenda;
pub use humnet_community as community;
pub use humnet_core as core;
pub use humnet_corpus as corpus;
pub use humnet_ixp as ixp;
pub use humnet_qual as qual;
pub use humnet_resilience as resilience;
pub use humnet_serve as serve;
pub use humnet_stats as stats;
pub use humnet_survey as survey;
pub use humnet_telemetry as telemetry;
pub use humnet_text as text;
