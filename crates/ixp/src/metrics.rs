//! Locality and exchange-share metrics over assigned traffic.

use crate::topology::{AsTopology, IxpId};
use crate::traffic::FlowAssignment;
use crate::{IxpError, Result};

/// Where domestic traffic between ASes of one region gets exchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct LocalityReport {
    /// Region analysed.
    pub region: String,
    /// Total intra-region demand volume observed.
    pub total_volume: f64,
    /// Volume exchanged settlement-free at an IXP located in the region.
    pub local_ixp_volume: f64,
    /// Volume exchanged settlement-free at an IXP outside the region.
    pub foreign_ixp_volume: f64,
    /// Volume carried over paid transit with no peer hop at all.
    pub transit_volume: f64,
    /// Volume whose AS path leaves the region at any point.
    pub path_leaves_region: f64,
}

impl LocalityReport {
    /// Share of intra-region traffic exchanged at a local IXP.
    pub fn local_ixp_share(&self) -> f64 {
        if self.total_volume > 0.0 {
            self.local_ixp_volume / self.total_volume
        } else {
            0.0
        }
    }
}

/// Analyse where intra-region traffic is exchanged for one region name.
pub fn locality_report(
    topology: &AsTopology,
    flows: &[FlowAssignment],
    region: &str,
) -> Result<LocalityReport> {
    let mut report = LocalityReport {
        region: region.to_owned(),
        total_volume: 0.0,
        local_ixp_volume: 0.0,
        foreign_ixp_volume: 0.0,
        transit_volume: 0.0,
        path_leaves_region: 0.0,
    };
    // One name comparison per interned region instead of one per flow/hop.
    let in_region: Vec<bool> = topology
        .regions()
        .iter()
        .map(|r| r.name == region)
        .collect();
    for f in flows {
        let src = topology.as_info(f.src)?;
        let dst = topology.as_info(f.dst)?;
        if !in_region[src.region as usize] || !in_region[dst.region as usize] {
            continue;
        }
        report.total_volume += f.volume;
        match f.route.crossed_ixp {
            Some(ixp) => {
                if in_region[topology.ixps()[ixp].region as usize] {
                    report.local_ixp_volume += f.volume;
                } else {
                    report.foreign_ixp_volume += f.volume;
                }
            }
            None => {
                if !f.route.has_peer_hop {
                    report.transit_volume += f.volume;
                }
                // Private peering (peer hop without IXP) counts as neither
                // local-IXP nor transit; it simply isn't at an exchange.
            }
        }
        // Does the path traverse any AS homed outside the region?
        let leaves = f.route.path.iter().any(|&a| {
            topology
                .as_info(a)
                .map(|i| !in_region[i.region as usize])
                .unwrap_or(false)
        });
        if leaves {
            report.path_leaves_region += f.volume;
        }
    }
    Ok(report)
}

/// Share of *all* assigned volume whose peer hop happens at the given IXP.
pub fn ixp_share(flows: &[FlowAssignment], ixp: IxpId) -> f64 {
    let total: f64 = flows.iter().map(|f| f.volume).sum();
    if total <= 0.0 {
        return 0.0;
    }
    let at: f64 = flows
        .iter()
        .filter(|f| f.route.crossed_ixp == Some(ixp))
        .map(|f| f.volume)
        .sum();
    at / total
}

/// Share of intra-region traffic of `region` exchanged at a *local* IXP —
/// the headline metric of experiment **F3**.
pub fn domestic_ixp_share(
    topology: &AsTopology,
    flows: &[FlowAssignment],
    region: &str,
) -> Result<f64> {
    Ok(locality_report(topology, flows, region)?.local_ixp_share())
}

/// Of the traffic *sourced* in Global South regions, the share whose peer
/// hop occurs at an IXP located in the Global North — the headline metric
/// of experiment **F4** (Brazilian ISPs exchanging at DE-CIX).
pub fn foreign_exchange_share(topology: &AsTopology, flows: &[FlowAssignment]) -> Result<f64> {
    let south: Vec<bool> = topology.regions().iter().map(|r| r.global_south).collect();
    let mut south_total = 0.0;
    let mut at_north_ixp = 0.0;
    for f in flows {
        let src = topology.as_info(f.src)?;
        if !south[src.region as usize] {
            continue;
        }
        south_total += f.volume;
        if let Some(ixp) = f.route.crossed_ixp {
            if !south[topology.ixps()[ixp].region as usize] {
                at_north_ixp += f.volume;
            }
        }
    }
    if south_total <= 0.0 {
        return Err(IxpError::InvalidParameter(
            "no Global South traffic in assignment",
        ));
    }
    Ok(at_north_ixp / south_total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;
    use crate::topology::{AsKind, AsTopology, RegionTag};
    use crate::traffic::{TrafficConfig, TrafficMatrix};

    /// Two MX access ISPs under a US transit, with an optional MX IXP.
    fn build(peer_at_ixp: bool) -> (AsTopology, Vec<FlowAssignment>) {
        let mut t = AsTopology::new();
        let mx = RegionTag::new("MX", true);
        let us = RegionTag::new("US", false);
        let transit = t.add_as("T", AsKind::Transit, &us, 1.0);
        let a = t.add_as("A", AsKind::Access, &mx, 10.0);
        let b = t.add_as("B", AsKind::Access, &mx, 10.0);
        t.add_provider(a, transit).unwrap();
        t.add_provider(b, transit).unwrap();
        if peer_at_ixp {
            let ixp = t.add_ixp("IXP-MX", &mx);
            t.join_ixp(a, ixp).unwrap();
            t.join_ixp(b, ixp).unwrap();
            t.multilateral_peering(ixp).unwrap();
        }
        let rt = RoutingTable::compute(&t).unwrap();
        let m = TrafficMatrix::gravity(
            &t,
            &TrafficConfig {
                same_region_affinity: 1.0,
                content_share: 0.0,
            },
        )
        .unwrap();
        let (flows, _) = m.assign(&rt);
        (t, flows)
    }

    #[test]
    fn transit_only_topology_has_zero_local_share() {
        let (t, flows) = build(false);
        let rep = locality_report(&t, &flows, "MX").unwrap();
        assert!(rep.total_volume > 0.0);
        assert_eq!(rep.local_ixp_volume, 0.0);
        assert_eq!(rep.transit_volume, rep.total_volume);
        assert_eq!(rep.local_ixp_share(), 0.0);
    }

    #[test]
    fn ixp_peering_localizes_traffic() {
        let (t, flows) = build(true);
        let rep = locality_report(&t, &flows, "MX").unwrap();
        assert_eq!(rep.local_ixp_share(), 1.0);
        assert_eq!(rep.transit_volume, 0.0);
    }

    #[test]
    fn ixp_share_metric() {
        let (_t, flows) = build(true);
        assert_eq!(ixp_share(&flows, 0), 1.0);
        assert_eq!(ixp_share(&flows, 5), 0.0);
        assert_eq!(ixp_share(&[], 0), 0.0);
    }

    #[test]
    fn domestic_share_convenience() {
        let (t, flows) = build(true);
        assert_eq!(domestic_ixp_share(&t, &flows, "MX").unwrap(), 1.0);
        assert_eq!(domestic_ixp_share(&t, &flows, "US").unwrap(), 0.0);
    }

    #[test]
    fn foreign_exchange_share_detects_north_exchange() {
        // South ISPs peering at a *north* IXP.
        let mut t = AsTopology::new();
        let br = RegionTag::new("BR", true);
        let de = RegionTag::new("DE", false);
        let a = t.add_as("A", AsKind::Access, &br, 10.0);
        let b = t.add_as("B", AsKind::Access, &br, 10.0);
        let ixp = t.add_ixp("DE-CIX", &de);
        t.join_ixp(a, ixp).unwrap();
        t.join_ixp(b, ixp).unwrap();
        t.multilateral_peering(ixp).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let m = TrafficMatrix::gravity(
            &t,
            &TrafficConfig {
                same_region_affinity: 1.0,
                content_share: 0.0,
            },
        )
        .unwrap();
        let (flows, _) = m.assign(&rt);
        assert_eq!(foreign_exchange_share(&t, &flows).unwrap(), 1.0);
    }

    #[test]
    fn foreign_exchange_share_errors_without_south_traffic() {
        let mut t = AsTopology::new();
        let us = RegionTag::new("US", false);
        let a = t.add_as("A", AsKind::Access, &us, 1.0);
        let b = t.add_as("B", AsKind::Access, &us, 1.0);
        t.add_peering(a, b, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let m = TrafficMatrix::gravity(
            &t,
            &TrafficConfig {
                same_region_affinity: 1.0,
                content_share: 0.0,
            },
        )
        .unwrap();
        let (flows, _) = m.assign(&rt);
        assert!(foreign_exchange_share(&t, &flows).is_err());
    }
}
