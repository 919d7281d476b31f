//! Mandatory-peering regulation and its circumvention.
//!
//! Rosa's Mexico study [38] found that a law requiring the incumbent to
//! peer at the national IXP was defeated: the incumbent "played with
//! different ASNs", joining the exchange with an ASN whose announcements
//! did not cover its customer cone. Competitors' peer sessions therefore
//! learned nothing of value, and domestic traffic kept flowing through the
//! incumbent's paid transit.
//!
//! The model here makes that executable:
//!
//! * With [`CircumventionStrategy::ComplyFully`], the incumbent itself
//!   joins the IXP; Gao–Rexford export then makes its entire customer cone
//!   reachable over the settlement-free sessions.
//! * With [`CircumventionStrategy::AsnSplitting`], a *shell ASN* joins
//!   instead. The shell is a customer of the incumbent, so routes through
//!   the shell toward the incumbent's cone are provider routes — which the
//!   shell, per valley-free export, does **not** announce to its peers.
//!   Regulatory `enforcement` forces a fraction of the incumbent's direct
//!   customers to be re-homed beneath the shell, putting exactly that
//!   fraction of the cone back behind the peer sessions.

use crate::topology::{AsId, AsKind, AsTopology, IxpId};
use crate::{IxpError, Result};

/// How the incumbent responds to a mandatory-peering rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircumventionStrategy {
    /// Join the exchange with the real ASN and export the full cone.
    ComplyFully,
    /// Join with an empty shell ASN (the Telmex maneuver).
    AsnSplitting,
}

/// A mandatory-peering rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeeringRegulation {
    /// Whether the incumbent is required to peer at the public exchange.
    pub mandatory_peering: bool,
    /// Regulator effectiveness in `[0, 1]`: the fraction of the incumbent's
    /// direct customers whose routes the regulator successfully forces
    /// behind the exchange sessions. Irrelevant under
    /// [`CircumventionStrategy::ComplyFully`].
    pub enforcement: f64,
}

impl PeeringRegulation {
    /// Validate parameter ranges.
    pub fn validate(&self) -> Result<()> {
        if !(0.0..=1.0).contains(&self.enforcement) {
            return Err(IxpError::InvalidParameter("enforcement must be in [0,1]"));
        }
        Ok(())
    }
}

/// Outcome of applying a regulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegulationOutcome {
    /// The AS that actually joined the exchange (incumbent or shell).
    pub exchange_presence: Option<AsId>,
    /// Customers re-homed beneath the shell by enforcement.
    pub rehomed_customers: Vec<AsId>,
}

/// Apply a mandatory-peering regulation to a topology.
///
/// `incumbent` must exist; `ixp` must exist. When the rule is not
/// mandatory, nothing changes. Otherwise the incumbent (or its shell, per
/// the strategy) joins the IXP and multilateral peering is re-established
/// among all members.
pub fn apply_regulation(
    topology: &mut AsTopology,
    incumbent: AsId,
    ixp: IxpId,
    regulation: PeeringRegulation,
    strategy: CircumventionStrategy,
) -> Result<RegulationOutcome> {
    regulation.validate()?;
    // Borrow, don't clone: the shell only needs the incumbent's name and
    // interned region id (both cheap), and validity must still be checked
    // before the non-mandatory early return below.
    let (shell_name, shell_region) = {
        let info = topology.as_info(incumbent)?;
        (format!("{}-shell", info.name), info.region)
    };
    if ixp >= topology.ixp_count() {
        return Err(IxpError::InvalidIxp(ixp));
    }
    if !regulation.mandatory_peering {
        return Ok(RegulationOutcome {
            exchange_presence: None,
            rehomed_customers: Vec::new(),
        });
    }
    match strategy {
        CircumventionStrategy::ComplyFully => {
            topology.join_ixp(incumbent, ixp)?;
            topology.multilateral_peering(ixp)?;
            Ok(RegulationOutcome {
                exchange_presence: Some(incumbent),
                rehomed_customers: Vec::new(),
            })
        }
        CircumventionStrategy::AsnSplitting => {
            let shell = topology.add_as_in(shell_name, AsKind::Incumbent, shell_region, 0.0)?;
            topology.add_provider(shell, incumbent)?;
            topology.join_ixp(shell, ixp)?;
            // Enforcement re-homes the first ⌈e·k⌉ direct customers (by id,
            // deterministically) beneath the shell.
            let customers: Vec<AsId> = {
                let mut c = topology.customers_of(incumbent).to_vec();
                c.retain(|&x| x != shell);
                c.sort_unstable();
                c
            };
            let k = (regulation.enforcement * customers.len() as f64).ceil() as usize;
            let rehomed: Vec<AsId> = customers.into_iter().take(k).collect();
            for &c in &rehomed {
                // The customer now also buys from the shell; its shorter,
                // regulator-audited announcement path runs through the
                // shell's exchange presence.
                topology.add_provider(c, shell)?;
            }
            topology.multilateral_peering(ixp)?;
            Ok(RegulationOutcome {
                exchange_presence: Some(shell),
                rehomed_customers: rehomed,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;
    use crate::topology::RegionTag;

    /// Incumbent with two retail customers; one competitor at the IXP.
    fn base() -> (AsTopology, AsId, AsId, [AsId; 3], IxpId) {
        let mut t = AsTopology::new();
        let mx = RegionTag::new("MX", true);
        let inc = t.add_as("Telmex", AsKind::Incumbent, &mx, 100.0);
        let c1 = t.add_as("Retail-1", AsKind::Access, &mx, 5.0);
        let c2 = t.add_as("Retail-2", AsKind::Access, &mx, 5.0);
        let comp = t.add_as("Competitor", AsKind::Access, &mx, 8.0);
        t.add_provider(c1, inc).unwrap();
        t.add_provider(c2, inc).unwrap();
        // The competitor also buys transit from the incumbent (market power).
        t.add_provider(comp, inc).unwrap();
        let ixp = t.add_ixp("IXP-MX", &mx);
        t.join_ixp(comp, ixp).unwrap();
        (t, inc, comp, [inc, c1, c2], ixp)
    }

    #[test]
    fn non_mandatory_changes_nothing() {
        let (mut t, inc, _comp, _, ixp) = base();
        let before = t.clone();
        let out = apply_regulation(
            &mut t,
            inc,
            ixp,
            PeeringRegulation {
                mandatory_peering: false,
                enforcement: 1.0,
            },
            CircumventionStrategy::ComplyFully,
        )
        .unwrap();
        assert_eq!(out.exchange_presence, None);
        assert_eq!(t, before);
    }

    #[test]
    fn full_compliance_exposes_cone_via_peering() {
        let (mut t, inc, comp, [_, c1, c2], ixp) = base();
        apply_regulation(
            &mut t,
            inc,
            ixp,
            PeeringRegulation {
                mandatory_peering: true,
                enforcement: 0.0,
            },
            CircumventionStrategy::ComplyFully,
        )
        .unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        // Competitor reaches retail customers via the peer session.
        for dst in [c1, c2] {
            let route = rt.route(comp, dst).unwrap();
            assert!(
                route.has_peer_hop,
                "route should use IXP peering: {route:?}"
            );
            assert_eq!(route.crossed_ixp, Some(ixp));
        }
    }

    #[test]
    fn asn_splitting_keeps_traffic_on_transit() {
        let (mut t, inc, comp, [_, c1, c2], ixp) = base();
        let out = apply_regulation(
            &mut t,
            inc,
            ixp,
            PeeringRegulation {
                mandatory_peering: true,
                enforcement: 0.0,
            },
            CircumventionStrategy::AsnSplitting,
        )
        .unwrap();
        assert!(out.exchange_presence.is_some());
        assert!(out.rehomed_customers.is_empty());
        let rt = RoutingTable::compute(&t).unwrap();
        // The shell peers, but announces nothing useful: competitor still
        // reaches retail customers through paid incumbent transit.
        for dst in [c1, c2] {
            let route = rt.route(comp, dst).unwrap();
            assert!(!route.has_peer_hop, "circumvented: {route:?}");
            assert!(route.path.contains(&inc));
        }
    }

    #[test]
    fn enforcement_rehomes_customers_behind_shell() {
        let (mut t, inc, comp, [_, c1, c2], ixp) = base();
        let out = apply_regulation(
            &mut t,
            inc,
            ixp,
            PeeringRegulation {
                mandatory_peering: true,
                enforcement: 0.5,
            },
            CircumventionStrategy::AsnSplitting,
        )
        .unwrap();
        // ceil(0.5 × 3 direct customers) = 2 re-homed (c1, c2 by id; the
        // competitor itself is also a customer and sorts after them? ids:
        // c1 = 1, c2 = 2, comp = 3 -> rehomed = [1, 2].
        assert_eq!(out.rehomed_customers, vec![c1, c2]);
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(comp, c1).unwrap();
        assert!(
            route.has_peer_hop,
            "rehomed customer reachable via IXP: {route:?}"
        );
        let _ = inc;
    }

    #[test]
    fn full_enforcement_equivalent_to_compliance_for_reachability() {
        let (mut t, inc, comp, [_, c1, c2], ixp) = base();
        apply_regulation(
            &mut t,
            inc,
            ixp,
            PeeringRegulation {
                mandatory_peering: true,
                enforcement: 1.0,
            },
            CircumventionStrategy::AsnSplitting,
        )
        .unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        for dst in [c1, c2] {
            assert!(rt.route(comp, dst).unwrap().has_peer_hop);
        }
    }

    #[test]
    fn bad_parameters_rejected() {
        let (mut t, inc, _comp, _, ixp) = base();
        let bad = PeeringRegulation {
            mandatory_peering: true,
            enforcement: 1.5,
        };
        assert!(
            apply_regulation(&mut t, inc, ixp, bad, CircumventionStrategy::ComplyFully).is_err()
        );
        let ok = PeeringRegulation {
            mandatory_peering: true,
            enforcement: 0.5,
        };
        assert!(apply_regulation(&mut t, 99, ixp, ok, CircumventionStrategy::ComplyFully).is_err());
        assert!(apply_regulation(&mut t, inc, 7, ok, CircumventionStrategy::ComplyFully).is_err());
    }
}
