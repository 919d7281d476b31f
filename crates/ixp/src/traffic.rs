//! Gravity-model traffic matrices and path assignment.

use crate::routing::{Route, RoutingTable};
use crate::topology::{AsId, AsKind, AsTopology};
use crate::{IxpError, Result};

/// Configuration of the gravity traffic model.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Multiplier applied to demand between two ASes in the same region
    /// (domestic affinity; > 1 models language/content locality).
    pub same_region_affinity: f64,
    /// Share of every access AS's demand that goes to content providers
    /// (the rest is AS-to-AS, e.g. inter-ISP user traffic).
    pub content_share: f64,
}

impl Default for TrafficConfig {
    fn default() -> Self {
        TrafficConfig {
            same_region_affinity: 2.0,
            content_share: 0.75,
        }
    }
}

/// One source–destination demand with its resolved route.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowAssignment {
    /// Source AS.
    pub src: AsId,
    /// Destination AS.
    pub dst: AsId,
    /// Demand volume (arbitrary units).
    pub volume: f64,
    /// The selected route.
    pub route: Route,
}

/// A traffic matrix: demands between AS pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TrafficMatrix {
    /// Nonzero demands as `(src, dst, volume)`.
    pub demands: Vec<(AsId, AsId, f64)>,
}

impl TrafficMatrix {
    /// Build a gravity-model matrix: demand from each access/community AS
    /// to every other access/community AS and every content AS, with volume
    /// `src.size × dst.size`, scaled by region affinity and split between
    /// content and inter-ISP traffic per the config.
    pub fn gravity(topology: &AsTopology, config: &TrafficConfig) -> Result<Self> {
        if config.same_region_affinity <= 0.0 {
            return Err(IxpError::InvalidParameter("affinity must be positive"));
        }
        if !(0.0..=1.0).contains(&config.content_share) {
            return Err(IxpError::InvalidParameter("content_share must be in [0,1]"));
        }
        let mut demands = Vec::new();
        let eyeballs: Vec<&crate::topology::AsInfo> = topology
            .ases()
            .iter()
            .filter(|a| matches!(a.kind, AsKind::Access | AsKind::Community))
            .collect();
        let contents: Vec<&crate::topology::AsInfo> = topology
            .ases()
            .iter()
            .filter(|a| a.kind == AsKind::Content)
            .collect();
        for src in &eyeballs {
            // Content-bound demand.
            for dst in &contents {
                let mut v = src.size * dst.size * config.content_share;
                if src.region == dst.region {
                    v *= config.same_region_affinity;
                }
                if v > 0.0 {
                    demands.push((src.id, dst.id, v));
                }
            }
            // Inter-eyeball demand.
            for dst in &eyeballs {
                if src.id == dst.id {
                    continue;
                }
                let mut v = src.size * dst.size * (1.0 - config.content_share);
                if src.region == dst.region {
                    v *= config.same_region_affinity;
                }
                if v > 0.0 {
                    demands.push((src.id, dst.id, v));
                }
            }
        }
        Ok(TrafficMatrix { demands })
    }

    /// Sampled gravity matrix for internet-scale topologies, where the
    /// all-pairs product set of [`TrafficMatrix::gravity`] is quadratic
    /// and pointless: draw `pairs` source–destination demands from the
    /// same gravity population (uniform eyeball source; destination is a
    /// content AS with probability `content_share`, another eyeball
    /// otherwise; volume `src.size × dst.size`, boosted by
    /// `same_region_affinity` for domestic pairs). The demand list
    /// references only the sampled destinations, so it pairs with
    /// [`RoutingTable::compute_for_destinations`] to avoid all-pairs
    /// route materialization. Deterministic in `(topology, config, pairs,
    /// seed)`.
    pub fn gravity_sampled(
        topology: &AsTopology,
        config: &TrafficConfig,
        pairs: usize,
        seed: u64,
    ) -> Result<Self> {
        if config.same_region_affinity <= 0.0 {
            return Err(IxpError::InvalidParameter("affinity must be positive"));
        }
        if !(0.0..=1.0).contains(&config.content_share) {
            return Err(IxpError::InvalidParameter("content_share must be in [0,1]"));
        }
        let eyeballs: Vec<&crate::topology::AsInfo> = topology
            .ases()
            .iter()
            .filter(|a| matches!(a.kind, AsKind::Access | AsKind::Community))
            .collect();
        let contents: Vec<&crate::topology::AsInfo> = topology
            .ases()
            .iter()
            .filter(|a| a.kind == AsKind::Content)
            .collect();
        if eyeballs.is_empty() {
            return Err(IxpError::InvalidParameter(
                "no eyeball ASes to source traffic",
            ));
        }
        if eyeballs.len() < 2 && contents.is_empty() {
            return Err(IxpError::InvalidParameter("no destinations to sample"));
        }
        let mut rng = humnet_stats::Rng::new(seed);
        let mut demands = Vec::with_capacity(pairs);
        for _ in 0..pairs {
            let src = *rng.choose(&eyeballs);
            let to_content = !contents.is_empty() && rng.chance(config.content_share);
            let dst = if to_content || eyeballs.len() < 2 {
                *rng.choose(&contents)
            } else {
                // Re-draw until distinct; terminates since eyeballs ≥ 2.
                loop {
                    let d = *rng.choose(&eyeballs);
                    if d.id != src.id {
                        break d;
                    }
                }
            };
            let mut v = src.size * dst.size;
            if src.region == dst.region {
                v *= config.same_region_affinity;
            }
            if v > 0.0 {
                demands.push((src.id, dst.id, v));
            }
        }
        Ok(TrafficMatrix { demands })
    }

    /// The distinct destinations named by this matrix, sorted — the input
    /// for [`RoutingTable::compute_for_destinations`].
    pub fn destinations(&self) -> Vec<AsId> {
        let mut dsts: Vec<AsId> = self.demands.iter().map(|&(_, d, _)| d).collect();
        dsts.sort_unstable();
        dsts.dedup();
        dsts
    }

    /// Total demand volume.
    pub fn total(&self) -> f64 {
        self.demands.iter().map(|&(_, _, v)| v).sum()
    }

    /// Resolve every demand to its route. Demands with no valley-free route
    /// are returned separately (unserved traffic).
    pub fn assign(&self, routes: &RoutingTable) -> (Vec<FlowAssignment>, Vec<(AsId, AsId, f64)>) {
        let mut assigned = Vec::with_capacity(self.demands.len());
        let mut unserved = Vec::new();
        for &(src, dst, volume) in &self.demands {
            match routes.route(src, dst) {
                Ok(route) => assigned.push(FlowAssignment {
                    src,
                    dst,
                    volume,
                    route,
                }),
                Err(_) => unserved.push((src, dst, volume)),
            }
        }
        (assigned, unserved)
    }
}

/// Total transit cost of an assignment: volume × paid hops, summed.
pub fn total_transit_cost(flows: &[FlowAssignment]) -> f64 {
    flows
        .iter()
        .map(|f| f.volume * f.route.transit_hops() as f64)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{AsKind, AsTopology, RegionTag};

    fn topo() -> AsTopology {
        let mut t = AsTopology::new();
        let mx = RegionTag::new("MX", true);
        let us = RegionTag::new("US", false);
        let transit = t.add_as("T", AsKind::Transit, &us, 1.0);
        let a = t.add_as("A", AsKind::Access, &mx, 10.0);
        let b = t.add_as("B", AsKind::Access, &mx, 5.0);
        let c = t.add_as("CDN", AsKind::Content, &us, 50.0);
        t.add_provider(a, transit).unwrap();
        t.add_provider(b, transit).unwrap();
        t.add_provider(c, transit).unwrap();
        t
    }

    #[test]
    fn gravity_generates_expected_pairs() {
        let t = topo();
        let m = TrafficMatrix::gravity(&t, &TrafficConfig::default()).unwrap();
        // 2 eyeballs × 1 content + 2 eyeball pairs (ordered) = 4 demands.
        assert_eq!(m.demands.len(), 4);
        assert!(m.total() > 0.0);
    }

    #[test]
    fn same_region_affinity_boosts_domestic_traffic() {
        let t = topo();
        let cfg = TrafficConfig {
            same_region_affinity: 3.0,
            content_share: 0.5,
        };
        let m = TrafficMatrix::gravity(&t, &cfg).unwrap();
        let find = |s: usize, d: usize| {
            m.demands
                .iter()
                .find(|&&(a, b, _)| a == s && b == d)
                .map(|&(_, _, v)| v)
                .unwrap()
        };
        // A->B domestic (both MX): 10*5*0.5*3 = 75.
        assert!((find(1, 2) - 75.0).abs() < 1e-9);
        // A->CDN cross-region: 10*50*0.5 = 250.
        assert!((find(1, 3) - 250.0).abs() < 1e-9);
    }

    #[test]
    fn gravity_rejects_bad_config() {
        let t = topo();
        let bad = TrafficConfig {
            same_region_affinity: 0.0,
            content_share: 0.5,
        };
        assert!(TrafficMatrix::gravity(&t, &bad).is_err());
        let bad = TrafficConfig {
            same_region_affinity: 1.0,
            content_share: 1.5,
        };
        assert!(TrafficMatrix::gravity(&t, &bad).is_err());
    }

    #[test]
    fn assignment_resolves_all_flows_in_connected_topology() {
        let t = topo();
        let m = TrafficMatrix::gravity(&t, &TrafficConfig::default()).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let (flows, unserved) = m.assign(&rt);
        assert_eq!(flows.len(), 4);
        assert!(unserved.is_empty());
    }

    #[test]
    fn unserved_traffic_reported() {
        let mut t = topo();
        let island = t.add_as("Island", AsKind::Access, &RegionTag::new("ZZ", true), 3.0);
        let _ = island;
        let m = TrafficMatrix::gravity(&t, &TrafficConfig::default()).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let (_flows, unserved) = m.assign(&rt);
        assert!(!unserved.is_empty());
    }

    #[test]
    fn sampled_gravity_is_deterministic_and_routable_on_sampled_rows() {
        let t = topo();
        let cfg = TrafficConfig::default();
        let a = TrafficMatrix::gravity_sampled(&t, &cfg, 64, 9).unwrap();
        let b = TrafficMatrix::gravity_sampled(&t, &cfg, 64, 9).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.demands.len(), 64);
        // Routing only the sampled destinations serves every demand.
        let rt = RoutingTable::compute_for_destinations(&t, &a.destinations()).unwrap();
        let (flows, unserved) = a.assign(&rt);
        assert_eq!(flows.len(), 64);
        assert!(unserved.is_empty());
        // Sources are always eyeballs; self-demands never occur.
        for &(src, dst, v) in &a.demands {
            assert_ne!(src, dst);
            assert!(v > 0.0);
        }
        assert_ne!(TrafficMatrix::gravity_sampled(&t, &cfg, 64, 10).unwrap(), a);
    }

    #[test]
    fn transit_cost_counts_paid_hops() {
        let t = topo();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(1, 2).unwrap(); // A -> T -> B, 2 paid hops
        let flows = vec![FlowAssignment {
            src: 1,
            dst: 2,
            volume: 10.0,
            route,
        }];
        assert_eq!(total_transit_cost(&flows), 20.0);
    }

    #[test]
    fn peering_reduces_transit_cost() {
        let mut t = topo();
        t.add_peering(1, 2, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let m = TrafficMatrix::gravity(&t, &TrafficConfig::default()).unwrap();
        let (flows, _) = m.assign(&rt);
        let peered_cost = total_transit_cost(&flows);

        let t0 = topo();
        let rt0 = RoutingTable::compute(&t0).unwrap();
        let (flows0, _) = m.assign(&rt0);
        let unpeered_cost = total_transit_cost(&flows0);
        assert!(peered_cost < unpeered_cost);
    }
}
