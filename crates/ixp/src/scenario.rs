//! Parameterized builders for the paper's two IXP case studies.

use crate::metrics::{domestic_ixp_share, foreign_exchange_share, locality_report, LocalityReport};
use crate::regulation::{apply_regulation, CircumventionStrategy, PeeringRegulation};
use crate::routing::RoutingTable;
use crate::topology::{AsKind, AsTopology, RegionTag};
use crate::traffic::{total_transit_cost, FlowAssignment, TrafficConfig, TrafficMatrix};
use crate::{IxpError, Result};
use humnet_resilience::{FaultHook, FaultKind};
use humnet_stats::Rng;
use humnet_telemetry::{Event, Telemetry};

/// Configuration of the Mexico/Telmex scenario (experiment **F3**).
#[derive(Debug, Clone, PartialEq)]
pub struct MexicoConfig {
    /// Number of competitor access ISPs at the national IXP.
    pub competitors: usize,
    /// Number of retail customer ASes beneath the incumbent.
    pub incumbent_customers: usize,
    /// The regulation in force.
    pub regulation: PeeringRegulation,
    /// The incumbent's response.
    pub strategy: CircumventionStrategy,
    /// Seed for size draws.
    pub seed: u64,
}

impl Default for MexicoConfig {
    fn default() -> Self {
        MexicoConfig {
            competitors: 6,
            incumbent_customers: 12,
            regulation: PeeringRegulation {
                mandatory_peering: true,
                enforcement: 0.0,
            },
            strategy: CircumventionStrategy::AsnSplitting,
            seed: 1,
        }
    }
}

/// A built and routed Mexico scenario.
#[derive(Debug, Clone)]
pub struct MexicoScenario {
    /// The topology after regulation.
    pub topology: AsTopology,
    /// Assigned flows.
    pub flows: Vec<FlowAssignment>,
    /// Id of the national IXP.
    pub ixp: usize,
    /// Id of the incumbent.
    pub incumbent: usize,
    /// Ids of the competitor ISPs (the IXP members the regulation is
    /// supposed to help).
    pub competitors: Vec<usize>,
}

impl MexicoScenario {
    /// Build and route the scenario under a fault hook. The hook is asked
    /// about [`FaultKind::IxpOutage`] for the national exchange (step = IXP
    /// id): a dark exchange means no multilateral peering and no enforceable
    /// mandatory-peering regulation, so competitor traffic falls back to the
    /// incumbent's paid transit.
    ///
    /// Telemetry: an `ixp.mexico` span, an `ixp.route_assign_ns` histogram
    /// over the route+assign hot path, scenario/flow counters, and a
    /// milestone event. Telemetry only observes.
    pub fn run(config: &MexicoConfig, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<Self> {
        let _span = tel.span("ixp.mexico");
        if config.competitors == 0 || config.incumbent_customers == 0 {
            return Err(IxpError::InvalidParameter(
                "need at least one competitor and one incumbent customer",
            ));
        }
        config.regulation.validate()?;
        let mut rng = Rng::new(config.seed);
        let mx = RegionTag::new("MX", true);
        let mut t = AsTopology::new();
        let incumbent = t.add_as("Telmex", AsKind::Incumbent, &mx, 50.0);
        for i in 0..config.incumbent_customers {
            let size = rng.pareto(2.0, 1.5).min(30.0);
            let c = t.add_as(&format!("Retail-{i}"), AsKind::Access, &mx, size);
            t.add_provider(c, incumbent)?;
        }
        let ixp = t.add_ixp("IXP-MX", &mx);
        let mut competitors = Vec::with_capacity(config.competitors);
        for i in 0..config.competitors {
            let size = rng.pareto(2.0, 1.5).min(30.0);
            let c = t.add_as(&format!("Competitor-{i}"), AsKind::Access, &mx, size);
            // Market power: competitors still buy transit from the incumbent.
            t.add_provider(c, incumbent)?;
            t.join_ixp(c, ixp)?;
            competitors.push(c);
        }
        // An exchange outage takes the whole switching fabric down: no
        // multilateral peering and nothing for the regulator to enforce.
        // Transit links stay up, so routing degrades instead of failing.
        if hook.inject(ixp as u64, FaultKind::IxpOutage).is_none() {
            t.multilateral_peering(ixp)?;
            apply_regulation(&mut t, incumbent, ixp, config.regulation, config.strategy)?;
        }
        let t0 = tel.start();
        let routes = RoutingTable::compute(&t)?;
        let matrix = TrafficMatrix::gravity(
            &t,
            &TrafficConfig {
                same_region_affinity: 1.0,
                content_share: 0.0, // pure domestic inter-ISP scenario
            },
        )?;
        let (flows, _unserved) = matrix.assign(&routes);
        tel.observe_since("ixp.route_assign_ns", t0);
        tel.counter("ixp.scenarios", 1);
        tel.counter("ixp.flows", flows.len() as u64);
        tel.event(Event::new(
            "milestone",
            format!(
                "ixp.mexico: {} ASes, {} flows routed",
                t.ases().len(),
                flows.len()
            ),
        ));
        Ok(MexicoScenario {
            topology: t,
            flows,
            ixp,
            incumbent,
            competitors,
        })
    }

    /// Share of *competitor-sourced* domestic traffic exchanged
    /// settlement-free at the national IXP — the quantity the regulation
    /// was supposed to raise. (Retail-to-retail traffic inside the
    /// incumbent's cone never touches the exchange under any policy, so it
    /// is excluded from the denominator.)
    pub fn competitor_ixp_share(&self) -> Result<f64> {
        let mut total = 0.0;
        let mut at_ixp = 0.0;
        for f in &self.flows {
            if !self.competitors.contains(&f.src) {
                continue;
            }
            total += f.volume;
            if f.route.crossed_ixp == Some(self.ixp) {
                at_ixp += f.volume;
            }
        }
        if total <= 0.0 {
            return Err(IxpError::InvalidParameter("no competitor traffic"));
        }
        Ok(at_ixp / total)
    }

    /// Share of all domestic traffic exchanged settlement-free at the
    /// national IXP (includes retail↔retail traffic that structurally
    /// cannot use the exchange).
    pub fn domestic_ixp_share(&self) -> Result<f64> {
        domestic_ixp_share(&self.topology, &self.flows, "MX")
    }

    /// Total paid-transit cost across all flows (the incumbent's prize for
    /// successful circumvention).
    pub fn transit_cost(&self) -> f64 {
        total_transit_cost(&self.flows)
    }

    /// Full locality report.
    pub fn locality(&self) -> Result<LocalityReport> {
        locality_report(&self.topology, &self.flows, "MX")
    }
}

/// Configuration of the Brazil-vs-Germany scenario (experiment **F4**).
#[derive(Debug, Clone, PartialEq)]
pub struct TwoRegionConfig {
    /// Number of Global South access ISPs.
    pub south_isps: usize,
    /// Number of content providers (hyperscalers/CDNs).
    pub content_providers: usize,
    /// Fraction of content providers with a point of presence at the local
    /// (South) IXP, in `[0, 1]` — the paper's driver of traffic gravity.
    pub content_presence_south: f64,
    /// Whether South ISPs remote-peer at the giant Northern IXP (the
    /// "connect in Europe" behaviour Rosa documents).
    pub south_remote_peering: bool,
    /// Seed for size draws.
    pub seed: u64,
}

impl Default for TwoRegionConfig {
    fn default() -> Self {
        TwoRegionConfig {
            south_isps: 10,
            content_providers: 6,
            content_presence_south: 0.2,
            south_remote_peering: true,
            seed: 1,
        }
    }
}

/// A built and routed two-region scenario.
#[derive(Debug, Clone)]
pub struct TwoRegionScenario {
    /// The topology.
    pub topology: AsTopology,
    /// Assigned flows.
    pub flows: Vec<FlowAssignment>,
    /// Local (South) IXP id.
    pub south_ixp: usize,
    /// Giant Northern IXP id.
    pub north_ixp: usize,
}

impl TwoRegionScenario {
    /// Build and route the scenario under a fault hook. The hook is asked
    /// about [`FaultKind::IxpOutage`] once per exchange (step = IXP id); a
    /// dark exchange loses its multilateral peering mesh and its traffic
    /// falls back to paid transit.
    ///
    /// Telemetry: an `ixp.two_region` span, the shared
    /// `ixp.route_assign_ns` histogram, counters, and a milestone event.
    pub fn run(
        config: &TwoRegionConfig,
        hook: &mut dyn FaultHook,
        tel: &Telemetry,
    ) -> Result<Self> {
        let _span = tel.span("ixp.two_region");
        if config.south_isps == 0 || config.content_providers == 0 {
            return Err(IxpError::InvalidParameter(
                "need at least one south ISP and one content provider",
            ));
        }
        if !(0.0..=1.0).contains(&config.content_presence_south) {
            return Err(IxpError::InvalidParameter(
                "content_presence_south must be in [0,1]",
            ));
        }
        let mut rng = Rng::new(config.seed);
        let br = RegionTag::new("BR", true);
        let de = RegionTag::new("DE", false);
        let mut t = AsTopology::new();
        // Tier-1-ish transit in the North.
        let transit = t.add_as("GlobalTransit", AsKind::Transit, &de, 1.0);
        let south_ixp = t.add_ixp("IX-br", &br);
        let north_ixp = t.add_ixp("DE-CIX", &de);
        // South access ISPs: members of the local IXP, buy global transit,
        // optionally remote-peer at the Northern exchange.
        let mut south_ids = Vec::new();
        for i in 0..config.south_isps {
            let size = rng.pareto(2.0, 1.3).min(40.0);
            let isp = t.add_as(&format!("BR-ISP-{i}"), AsKind::Access, &br, size);
            t.add_provider(isp, transit)?;
            t.join_ixp(isp, south_ixp)?;
            if config.south_remote_peering {
                t.join_ixp(isp, north_ixp)?;
            }
            south_ids.push(isp);
        }
        // Content providers: all present at the giant Northern IXP; a
        // configurable fraction also at the local exchange. The fraction is
        // applied deterministically (first ⌈p·n⌉ providers) so sweeps are
        // smooth rather than noisy.
        let present_locally =
            (config.content_presence_south * config.content_providers as f64).round() as usize;
        for i in 0..config.content_providers {
            let size = rng.pareto(10.0, 1.2).min(200.0);
            let c = t.add_as(&format!("CDN-{i}"), AsKind::Content, &de, size);
            t.add_provider(c, transit)?;
            t.join_ixp(c, north_ixp)?;
            if i < present_locally {
                t.join_ixp(c, south_ixp)?;
            }
        }
        for exchange in [south_ixp, north_ixp] {
            if hook.inject(exchange as u64, FaultKind::IxpOutage).is_none() {
                t.multilateral_peering(exchange)?;
            }
        }
        let t0 = tel.start();
        let routes = RoutingTable::compute(&t)?;
        let matrix = TrafficMatrix::gravity(&t, &TrafficConfig::default())?;
        let (flows, _unserved) = matrix.assign(&routes);
        tel.observe_since("ixp.route_assign_ns", t0);
        tel.counter("ixp.scenarios", 1);
        tel.counter("ixp.flows", flows.len() as u64);
        tel.event(Event::new(
            "milestone",
            format!(
                "ixp.two_region: {} ASes, {} flows routed",
                t.ases().len(),
                flows.len()
            ),
        ));
        Ok(TwoRegionScenario {
            topology: t,
            flows,
            south_ixp,
            north_ixp,
        })
    }

    /// Share of South-sourced traffic exchanged at the Northern IXP.
    pub fn foreign_exchange_share(&self) -> Result<f64> {
        foreign_exchange_share(&self.topology, &self.flows)
    }

    /// Share of South-sourced traffic whose peer hop is at the local IXP.
    pub fn local_exchange_share(&self) -> Result<f64> {
        let mut south_total = 0.0;
        let mut at_local = 0.0;
        for f in &self.flows {
            let src = self.topology.as_info(f.src)?;
            if !self.topology.region(src.region).global_south {
                continue;
            }
            south_total += f.volume;
            if f.route.crossed_ixp == Some(self.south_ixp) {
                at_local += f.volume;
            }
        }
        if south_total <= 0.0 {
            return Err(IxpError::InvalidParameter("no south traffic"));
        }
        Ok(at_local / south_total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::NoFaults;

    #[test]
    fn mexico_circumvention_kills_ixp_share() {
        let mut cfg = MexicoConfig::default();
        cfg.strategy = CircumventionStrategy::AsnSplitting;
        cfg.regulation.enforcement = 0.0;
        let circumvented =
            MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        cfg.strategy = CircumventionStrategy::ComplyFully;
        let complied = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        let share_circ = circumvented.competitor_ixp_share().unwrap();
        let share_comp = complied.competitor_ixp_share().unwrap();
        assert!(
            share_comp > share_circ + 0.3,
            "compliance {share_comp} should dwarf circumvention {share_circ}"
        );
        assert!(
            (share_comp - 1.0).abs() < 1e-9,
            "full compliance localizes everything"
        );
        // Circumvention preserves the incumbent's transit revenue.
        assert!(circumvented.transit_cost() > complied.transit_cost());
    }

    #[test]
    fn mexico_enforcement_sweep_is_monotone() {
        let mut last = -1.0;
        for e in [0.0, 0.25, 0.5, 0.75, 1.0] {
            let mut cfg = MexicoConfig::default();
            cfg.regulation.enforcement = e;
            let s = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
            let share = s.competitor_ixp_share().unwrap();
            assert!(
                share >= last - 1e-9,
                "share should not fall with enforcement: {share} after {last} at e={e}"
            );
            last = share;
        }
        assert!(
            last > 0.9,
            "full enforcement should localize competitor traffic"
        );
    }

    #[test]
    fn mexico_no_regulation_baseline() {
        let mut cfg = MexicoConfig::default();
        cfg.regulation.mandatory_peering = false;
        let s = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        // Competitors still peer among themselves at the IXP, so the share
        // is positive but far from complete (the incumbent cone dominates).
        let share = s.competitor_ixp_share().unwrap();
        assert!(share > 0.0 && share < 0.9, "share = {share}");
        let rep = s.locality().unwrap();
        assert!(rep.transit_volume > 0.0);
        assert!(s.domestic_ixp_share().unwrap() <= share + 1e-9);
    }

    #[test]
    fn mexico_rejects_degenerate_configs() {
        let mut cfg = MexicoConfig::default();
        cfg.competitors = 0;
        assert!(MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).is_err());
    }

    #[test]
    fn mexico_deterministic() {
        let cfg = MexicoConfig::default();
        let a = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        let b = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        assert_eq!(a.flows, b.flows);
    }

    #[test]
    fn two_region_content_presence_pulls_traffic_home() {
        let mut cfg = TwoRegionConfig::default();
        cfg.content_presence_south = 0.0;
        let none = TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        cfg.content_presence_south = 1.0;
        let full = TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        let foreign_none = none.foreign_exchange_share().unwrap();
        let foreign_full = full.foreign_exchange_share().unwrap();
        assert!(
            foreign_none > foreign_full + 0.2,
            "no local content: {foreign_none} should far exceed full presence: {foreign_full}"
        );
        let local_full = full.local_exchange_share().unwrap();
        let local_none = none.local_exchange_share().unwrap();
        assert!(local_full > local_none);
    }

    #[test]
    fn two_region_without_remote_peering_uses_transit() {
        let mut cfg = TwoRegionConfig::default();
        cfg.content_presence_south = 0.0;
        cfg.south_remote_peering = false;
        let s = TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        // No exchange available for content traffic at all: foreign share 0,
        // everything on paid transit.
        let foreign = s.foreign_exchange_share().unwrap();
        assert_eq!(foreign, 0.0);
        assert!(crate::traffic::total_transit_cost(&s.flows) > 0.0);
    }

    #[test]
    fn two_region_south_south_traffic_stays_local() {
        // With a local IXP and membership, inter-ISP south traffic peers
        // locally regardless of content presence.
        let cfg = TwoRegionConfig::default();
        let s = TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        for f in &s.flows {
            let src = s.topology.as_info(f.src).unwrap();
            let dst = s.topology.as_info(f.dst).unwrap();
            if s.topology.region(src.region).global_south
                && s.topology.region(dst.region).global_south
            {
                assert_eq!(
                    f.route.crossed_ixp,
                    Some(s.south_ixp),
                    "south-south flow should use the local exchange"
                );
            }
        }
    }

    #[test]
    fn ixp_outage_degrades_to_transit() {
        use humnet_resilience::{FaultHook, FaultKind};
        /// Hook that takes every exchange dark.
        struct AllIxpsDark(u64);
        impl FaultHook for AllIxpsDark {
            fn inject(&mut self, _step: u64, kind: FaultKind) -> Option<f64> {
                (kind == FaultKind::IxpOutage).then(|| {
                    self.0 += 1;
                    1.0
                })
            }
            fn faults_injected(&self) -> u64 {
                self.0
            }
            fn fork(&self) -> humnet_resilience::HookFork {
                humnet_resilience::HookFork::new(|_| Box::new(AllIxpsDark(0)))
            }
            fn join(&mut self, injected: u64) {
                self.0 += injected;
            }
        }
        let cfg = MexicoConfig::default();
        let mut hook = AllIxpsDark(0);
        let dark = MexicoScenario::run(&cfg, &mut hook, &Telemetry::disabled()).unwrap();
        assert_eq!(hook.faults_injected(), 1);
        // Nothing crosses a dark exchange; everything rides paid transit.
        assert_eq!(dark.competitor_ixp_share().unwrap(), 0.0);
        let lit = MexicoScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        assert!(dark.transit_cost() >= lit.transit_cost());

        let two_cfg = TwoRegionConfig::default();
        let mut hook = AllIxpsDark(0);
        let dark = TwoRegionScenario::run(&two_cfg, &mut hook, &Telemetry::disabled()).unwrap();
        assert_eq!(hook.faults_injected(), 2);
        assert_eq!(dark.foreign_exchange_share().unwrap(), 0.0);
        assert_eq!(dark.local_exchange_share().unwrap(), 0.0);
        // An inactive plan reproduces the fault-free build.
        let plain =
            TwoRegionScenario::run(&two_cfg, &mut NoFaults, &Telemetry::disabled()).unwrap();
        let mut none = humnet_resilience::PlanHook::new(humnet_resilience::FaultPlan::none());
        let hooked = TwoRegionScenario::run(&two_cfg, &mut none, &Telemetry::disabled()).unwrap();
        assert_eq!(plain.flows, hooked.flows);
    }

    #[test]
    fn two_region_rejects_bad_config() {
        let mut cfg = TwoRegionConfig::default();
        cfg.content_presence_south = 2.0;
        assert!(TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).is_err());
        let mut cfg = TwoRegionConfig::default();
        cfg.south_isps = 0;
        assert!(TwoRegionScenario::run(&cfg, &mut NoFaults, &Telemetry::disabled()).is_err());
    }
}
