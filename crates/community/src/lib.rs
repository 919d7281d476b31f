//! # humnet-community
//!
//! Community-network simulator for the `humnet` toolkit.
//!
//! Section 4 of the paper grounds its positionality argument in the Seattle
//! Community Network and the community-cellular tradition (CoLTE, CCM,
//! LibreRouter): socio-technical systems whose fate is decided by volunteer
//! labour and local governance at least as much as by radio engineering.
//! Two of that literature's findings are reproduced here as experiments:
//!
//! * **Sustainability (T3).** Volunteer-maintained infrastructure lives or
//!   dies by the shape of its volunteer pool (Jang 2024; Garrison et al.
//!   2021, "The Network Is an Excuse"). [`mesh`] models the physical
//!   network, [`volunteer`] the humans, and [`sim`] runs the
//!   failure/repair/burnout loop.
//! * **Common-pool congestion (F5).** Johnson et al. 2021 showed community
//!   networks can manage backhaul capacity as an Ostrom-style common-pool
//!   resource. [`congestion`] implements free-for-all, static-cap, and
//!   community-token allocation policies and measures fairness,
//!   utilization, and starvation.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod congestion;
pub mod economics;
pub mod mesh;
pub mod sim;
pub mod volunteer;

pub use congestion::{AllocationPolicy, CongestionConfig, CongestionOutcome, CongestionSim};
pub use economics::{
    compare_policies, simulate_economics, DuesPolicy, EconomicsConfig, EconomicsOutcome,
};
pub use mesh::{MeshConfig, MeshNetwork, NodeState, ServiceScratch};
pub use sim::{SustainabilityConfig, SustainabilityOutcome, SustainabilitySim};
pub use volunteer::{Volunteer, VolunteerPool, VolunteerRegime};

/// Errors produced by the community-network simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommunityError {
    /// A parameter was outside its valid domain.
    InvalidParameter(&'static str),
    /// A node id was out of range.
    InvalidNode(usize),
    /// The operation requires a nonempty network or pool.
    EmptyInput,
}

impl std::fmt::Display for CommunityError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommunityError::InvalidParameter(what) => write!(f, "invalid parameter: {what}"),
            CommunityError::InvalidNode(id) => write!(f, "invalid node id {id}"),
            CommunityError::EmptyInput => write!(f, "input is empty"),
        }
    }
}

impl std::error::Error for CommunityError {}

/// Convenience result alias.
pub type Result<T> = std::result::Result<T, CommunityError>;
