//! # humnet-ixp
//!
//! Interconnection substrate for the `humnet` toolkit.
//!
//! Section 3 of the paper rests on two ethnographic findings about Internet
//! exchange points:
//!
//! 1. **Mexico/Telmex** (Rosa 2021): a law mandated that the incumbent peer
//!    at the national IXP; the incumbent complied on paper by "playing with
//!    different ASNs", leaving domestic traffic flowing through its paid
//!    transit anyway.
//! 2. **Brazil vs Germany** (Rosa 2022): despite 35+ local IXPs, Brazilian
//!    ISPs interconnect in Europe, because the big content providers have
//!    few points of presence in the Global South — giant Northern IXPs act
//!    as "alternatives to Tier 1".
//!
//! Both findings are *routing outcomes of human and institutional
//! behaviour*. This crate builds the machinery to reproduce them:
//!
//! * [`topology`] — AS-level topology with Gao–Rexford business
//!   relationships (customer/provider, settlement-free peer) and IXPs with
//!   multilateral peering via route servers;
//! * [`routing`] — valley-free policy routing: customer > peer > provider
//!   preference, selective export, shortest-path tiebreaks;
//! * [`traffic`] — gravity-model traffic matrices and path assignment with
//!   transit-cost accounting;
//! * [`metrics`] — locality and exchange-share metrics;
//! * [`regulation`] — mandatory-peering rules and the ASN-splitting
//!   circumvention strategy;
//! * [`scenario`] — parameterized builders for the Mexico and
//!   Brazil/Germany case studies (experiments **F3** and **F4**);
//! * [`internet`] — a seeded `synthetic_internet(n, seed)` generator for
//!   internet-scale topologies (preferential-attachment customer trees,
//!   region-biased peering at generated IXPs), the substrate of the scale
//!   experiment **F10**.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod growth;
pub mod internet;
pub mod metrics;
pub mod regulation;
pub mod routing;
pub mod scenario;
pub mod topology;
pub mod traffic;

pub use growth::{simulate_growth, GrowingIxp, GrowthConfig, GrowthOutcome};
pub use internet::{synthetic_internet, synthetic_internet_with, InternetConfig};
pub use metrics::{domestic_ixp_share, foreign_exchange_share, LocalityReport};
pub use regulation::{CircumventionStrategy, PeeringRegulation};
pub use routing::{Route, RouteKind, RoutingTable};
pub use scenario::{MexicoConfig, MexicoScenario, TwoRegionConfig, TwoRegionScenario};
pub use topology::{
    AsId, AsInfo, AsKind, AsTopology, FrozenTopology, IxpId, IxpInfo, RegionId, RegionTag, NO_IXP,
};
pub use traffic::{FlowAssignment, TrafficConfig, TrafficMatrix};

/// Errors produced by the interconnection substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IxpError {
    /// An AS id was out of range.
    InvalidAs(usize),
    /// An IXP id was out of range.
    InvalidIxp(usize),
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// A relationship would be inconsistent (e.g. an AS providing for itself).
    InconsistentRelationship(&'static str),
    /// The operation requires routes that do not exist.
    NoRoute {
        /// Source AS.
        from: usize,
        /// Destination AS.
        to: usize,
    },
    /// A region id was out of range.
    InvalidRegion(u32),
    /// A route lookup named a destination the table was not computed for
    /// (see [`RoutingTable::compute_for_destinations`]).
    DestinationNotComputed(usize),
}

impl std::fmt::Display for IxpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IxpError::InvalidAs(id) => write!(f, "invalid AS id {id}"),
            IxpError::InvalidIxp(id) => write!(f, "invalid IXP id {id}"),
            IxpError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            IxpError::InconsistentRelationship(what) => {
                write!(f, "inconsistent relationship: {what}")
            }
            IxpError::NoRoute { from, to } => write!(f, "no route from AS{from} to AS{to}"),
            IxpError::InvalidRegion(id) => write!(f, "invalid region id {id}"),
            IxpError::DestinationNotComputed(dst) => {
                write!(f, "routes toward AS{dst} were not computed")
            }
        }
    }
}

impl std::error::Error for IxpError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, IxpError>;
