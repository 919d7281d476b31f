//! Property-based tests over the toolkit's core invariants.

use humnet::community::{AllocationPolicy, CongestionConfig, CongestionSim};
use humnet::ixp::{AsKind, AsTopology, RegionTag, RouteKind, RoutingTable};
use humnet::qual::{cohen_kappa, krippendorff_alpha, percent_agreement};
use humnet::resilience::NoFaults;
use humnet::stats::{gini, jain_fairness, lorenz_curve, Rng};
use humnet::telemetry::Telemetry;
use proptest::prelude::*;

proptest! {
    #[test]
    fn gini_bounded_and_scale_invariant(
        data in prop::collection::vec(0.01f64..1000.0, 2..60),
        scale in 0.1f64..100.0,
    ) {
        let g = gini(&data).unwrap();
        prop_assert!((0.0..1.0).contains(&g));
        let scaled: Vec<f64> = data.iter().map(|x| x * scale).collect();
        let gs = gini(&scaled).unwrap();
        prop_assert!((g - gs).abs() < 1e-9);
    }

    #[test]
    fn lorenz_curve_is_convex_monotone(
        data in prop::collection::vec(0.01f64..1000.0, 2..60),
    ) {
        let curve = lorenz_curve(&data).unwrap();
        prop_assert_eq!(curve[0], (0.0, 0.0));
        for w in curve.windows(2) {
            prop_assert!(w[1].1 >= w[0].1 - 1e-12);
            prop_assert!(w[1].1 <= w[1].0 + 1e-9, "curve must stay under the diagonal");
        }
        // Slopes are nondecreasing (ascending sort => convex curve).
        for w in curve.windows(3) {
            let s1 = (w[1].1 - w[0].1) / (w[1].0 - w[0].0);
            let s2 = (w[2].1 - w[1].1) / (w[2].0 - w[1].0);
            prop_assert!(s2 >= s1 - 1e-9);
        }
    }

    #[test]
    fn jain_bounds(data in prop::collection::vec(0.0f64..100.0, 1..50)) {
        prop_assume!(data.iter().any(|&x| x > 0.0));
        let j = jain_fairness(&data).unwrap();
        let n = data.len() as f64;
        prop_assert!(j >= 1.0 / n - 1e-12);
        prop_assert!(j <= 1.0 + 1e-12);
    }

    #[test]
    fn kappa_and_alpha_agree_on_self(labels in prop::collection::vec(0usize..4, 4..40)) {
        prop_assume!(labels.iter().any(|&l| l != labels[0]));
        let a: Vec<Option<usize>> = labels.iter().map(|&l| Some(l)).collect();
        prop_assert!((cohen_kappa(&a, &a).unwrap() - 1.0).abs() < 1e-9);
        prop_assert!((percent_agreement(&a, &a).unwrap() - 1.0).abs() < 1e-12);
        prop_assert!((krippendorff_alpha(&[a.clone(), a]).unwrap() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn kappa_bounded_above_by_one(
        xs in prop::collection::vec(0usize..3, 6..40),
        ys in prop::collection::vec(0usize..3, 6..40),
    ) {
        let n = xs.len().min(ys.len());
        let a: Vec<Option<usize>> = xs[..n].iter().map(|&l| Some(l)).collect();
        let b: Vec<Option<usize>> = ys[..n].iter().map(|&l| Some(l)).collect();
        if let Ok(k) = cohen_kappa(&a, &b) {
            prop_assert!(k <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn congestion_outcomes_bounded(seed in 0u64..100, sigma in 0.2f64..1.6) {
        let mut cfg = CongestionConfig::default();
        cfg.rounds = 60;
        cfg.seed = seed;
        cfg.demand_sigma = sigma;
        let sim = CongestionSim::new(cfg).unwrap();
        for policy in AllocationPolicy::ALL {
            let out = sim.run(policy, &mut NoFaults, &Telemetry::disabled());
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.fairness), "{policy:?}");
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.utilization));
            prop_assert!((0.0..=1.0).contains(&out.starvation));
        }
    }
}

proptest! {
    #[test]
    fn interval_alpha_at_most_one(
        base in prop::collection::vec(0.0f64..5.0, 5..30),
        noise in prop::collection::vec(-1.0f64..1.0, 5..30),
    ) {
        let n = base.len().min(noise.len());
        let a: Vec<Option<f64>> = base[..n].iter().map(|&x| Some(x)).collect();
        let b: Vec<Option<f64>> = base[..n]
            .iter()
            .zip(&noise[..n])
            .map(|(&x, &e)| Some(x + e))
            .collect();
        if let Ok(alpha) = humnet::qual::krippendorff_alpha_interval(&[a, b]) {
            prop_assert!(alpha <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn growth_conserves_arrivals(seed in 0u64..100, rounds in 1u32..60, arrivals in 1usize..20) {
        let mut cfg = humnet::ixp::GrowthConfig::default();
        cfg.seed = seed;
        cfg.rounds = rounds;
        cfg.arrivals_per_round = arrivals;
        let initial: u32 = cfg.ixps.iter().map(|i| i.members).sum();
        let out = humnet::ixp::simulate_growth(&cfg, &Telemetry::disabled()).unwrap();
        let total: u32 = out.final_members.iter().sum();
        prop_assert_eq!(total, initial + rounds * arrivals as u32);
        prop_assert!((0.0..=1.0).contains(&out.top_share));
        prop_assert!((0.0..=1.0).contains(&out.south_joined_local));
    }

    #[test]
    fn economics_membership_bookkeeping(seed in 0u64..100, sigma in 0.2f64..1.5) {
        use humnet::community::{simulate_economics, DuesPolicy, EconomicsConfig};
        let mut cfg = EconomicsConfig::default();
        cfg.seed = seed;
        cfg.income_sigma = sigma;
        for policy in DuesPolicy::ALL {
            let out = simulate_economics(&cfg, policy).unwrap();
            prop_assert_eq!(
                out.remaining_members + out.dropped_for_affordability,
                cfg.households
            );
            prop_assert_eq!(out.balance_curve.len(), cfg.months as usize);
            if let Some(month) = out.insolvent_at {
                prop_assert!((month as usize) < out.balance_curve.len());
                prop_assert!(out.balance_curve[month as usize] < 0.0);
            }
        }
    }

    #[test]
    fn mesh_service_requires_up_state(seed in 0u64..100, nodes in 2usize..40) {
        use humnet::community::{MeshConfig, MeshNetwork, NodeState, ServiceScratch};
        let mut cfg = MeshConfig::default();
        cfg.nodes = nodes;
        cfg.gateways = 1;
        let mut rng = Rng::new(seed);
        let mut mesh = MeshNetwork::deploy(&cfg, &mut rng).unwrap();
        // Randomly fail some nodes.
        for v in 0..nodes {
            if rng.chance(0.3) {
                mesh.set_state(v, NodeState::Down).unwrap();
            }
        }
        // Only up nodes hold service, so the served count never exceeds
        // the up count.
        let up = (0..nodes)
            .filter(|&v| mesh.state(v).unwrap() == NodeState::Up)
            .count();
        let served = mesh.served_count(&mut ServiceScratch::default());
        prop_assert!(served <= up, "{} served of {} up", served, up);
        let frac = mesh.service_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    #[test]
    fn diary_compliance_curve_bounded(seed in 0u64..100, probe in 0.0f64..1.0) {
        let mut cfg = humnet::qual::DiaryConfig::default();
        cfg.probe_rate = probe;
        let out = humnet::qual::simulate_diary(&cfg, seed, &Telemetry::disabled()).unwrap();
        for &c in &out.compliance_curve {
            prop_assert!((0.0..=1.0).contains(&c));
        }
        prop_assert!((0.0..=1.0).contains(&out.prompted_share()));
    }
}

/// Build a random but guaranteed-acyclic AS hierarchy: for i < j, j may buy
/// transit from i; peers sprinkled on top.
fn random_topology(seed: u64, n: usize) -> AsTopology {
    let mut rng = Rng::new(seed);
    let mut t = AsTopology::new();
    let region = RegionTag::new("X", false);
    for i in 0..n {
        t.add_as(&format!("AS{i}"), AsKind::Access, &region, 1.0);
    }
    for j in 1..n {
        // Every AS below the root buys from at least one earlier AS.
        let provider = rng.range(0, j);
        t.add_provider(j, provider).unwrap();
        if rng.chance(0.3) {
            let p2 = rng.range(0, j);
            let _ = t.add_provider(j, p2);
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            // Keep relationships unambiguous: no peering between pairs that
            // already have a transit relationship (hybrid relationships
            // exist in reality but would make the hop classifier below
            // ambiguous).
            let related = t.providers_of(a).contains(&b) || t.providers_of(b).contains(&a);
            if !related && rng.chance(0.1) {
                let _ = t.add_peering(a, b, None);
            }
        }
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The central routing invariant: every computed path is valley-free —
    /// zero or more customer→provider hops, at most one peer hop, then
    /// zero or more provider→customer hops — and uses only real links.
    #[test]
    fn routes_are_valley_free(seed in 0u64..300, n in 3usize..16) {
        let topology = random_topology(seed, n);
        let routes = RoutingTable::compute(&topology).unwrap();
        for src in 0..n {
            for dst in 0..n {
                let Ok(route) = routes.route(src, dst) else { continue };
                if src == dst {
                    prop_assert_eq!(route.kind, RouteKind::SelfRoute);
                    continue;
                }
                prop_assert_eq!(*route.path.first().unwrap(), src);
                prop_assert_eq!(*route.path.last().unwrap(), dst);
                // Classify each hop; check the up* peer? down* shape.
                #[derive(PartialEq, Clone, Copy, Debug)]
                enum Phase { Up, Peer, Down }
                let mut phase = Phase::Up;
                let mut peer_hops = 0;
                for w in route.path.windows(2) {
                    let (u, v) = (w[0], w[1]);
                    let up = topology.providers_of(u).contains(&v);
                    let down = topology.customers_of(u).contains(&v);
                    let peer = topology.peers_of(u).iter().any(|&(x, _)| x == v);
                    prop_assert!(up || down || peer, "hop {u}->{v} uses no link");
                    let hop = if up { Phase::Up } else if down { Phase::Down } else { Phase::Peer };
                    // Phase may only move forward: Up -> Peer -> Down.
                    match (phase, hop) {
                        (Phase::Up, _) => phase = hop,
                        (Phase::Peer, Phase::Peer) => prop_assert!(false, "two peer hops"),
                        (Phase::Peer, Phase::Down) => phase = Phase::Down,
                        (Phase::Peer, Phase::Up) => prop_assert!(false, "up after peer"),
                        (Phase::Down, Phase::Down) => {}
                        (Phase::Down, _) => prop_assert!(false, "{hop:?} after down"),
                    }
                    if hop == Phase::Peer {
                        peer_hops += 1;
                    }
                }
                prop_assert!(peer_hops <= 1);
                prop_assert_eq!(route.has_peer_hop, peer_hops == 1);
            }
        }
    }

    /// Connectivity sanity: with the construction above, AS 0 is a root
    /// provider, so every AS reaches every other through the hierarchy.
    #[test]
    fn hierarchy_provides_full_reachability(seed in 0u64..200, n in 3usize..14) {
        let topology = random_topology(seed, n);
        let routes = RoutingTable::compute(&topology).unwrap();
        for src in 0..n {
            for dst in 0..n {
                prop_assert!(routes.reachable(src, dst), "no route {src}->{dst}");
            }
        }
    }

    /// Differential oracle: the SoA engine (serial, parallel, sampled, and
    /// on-demand) selects routes identical to the retained seed
    /// implementation on random topologies, including ones whose
    /// providers can have larger ids than their customers and whose peers
    /// meet at IXPs, some at two of them.
    #[test]
    fn soa_routing_matches_reference(seed in 0u64..300, n in 3usize..16) {
        matches_reference(&random_topology(seed, n))?;
        matches_reference(&shuffled_ixp_topology(seed, n))?;
    }
}

fn matches_reference(topology: &AsTopology) -> Result<(), TestCaseError> {
    let n = topology.as_count();
    let soa = RoutingTable::compute(topology).unwrap();
    let naive = humnet::ixp::routing::reference::ReferenceTable::compute(topology).unwrap();
    let ft = topology.freeze();
    let all: Vec<usize> = (0..n).collect();
    let par = RoutingTable::compute_frozen(&ft, &all, 4).unwrap();
    prop_assert_eq!(&par, &soa);
    for src in 0..n {
        for dst in 0..n {
            let expected = naive.route(src, dst).ok();
            prop_assert_eq!(
                &soa.route(src, dst).ok(),
                &expected,
                "route {}->{}",
                src,
                dst
            );
            if (src + dst) % 5 == 0 {
                let demand = RoutingTable::route_on_demand(&ft, src, dst).ok();
                prop_assert_eq!(&demand, &expected, "on-demand {}->{}", src, dst);
            }
        }
    }
    // A sampled table agrees on its covered rows, at 1 and 4 workers.
    let sample: Vec<usize> = (0..n).filter(|d| d % 2 == 0).collect();
    let sampled = RoutingTable::compute_for_destinations(topology, &sample).unwrap();
    let sampled_par = RoutingTable::compute_frozen(&ft, &sample, 4).unwrap();
    prop_assert_eq!(&sampled_par, &sampled);
    for src in 0..n {
        for &dst in &sample {
            prop_assert_eq!(sampled.route(src, dst).ok(), naive.route(src, dst).ok());
        }
    }
    Ok(())
}

/// [`random_topology`]'s kind of hierarchy under a random permutation of
/// AS ids, so a provider's id may exceed its customer's, with peerings
/// that are private, at one of two IXPs, or at both (two sessions between
/// one pair, added in either exchange order).
fn shuffled_ixp_topology(seed: u64, n: usize) -> AsTopology {
    let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut id: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        id.swap(i, rng.range(0, i + 1));
    }
    let mut t = AsTopology::new();
    let region = RegionTag::new("X", false);
    for i in 0..n {
        t.add_as(&format!("AS{i}"), AsKind::Access, &region, 1.0);
    }
    let exchanges = [t.add_ixp("IX-A", &region), t.add_ixp("IX-B", &region)];
    for j in 1..n {
        t.add_provider(id[j], id[rng.range(0, j)]).unwrap();
        if rng.chance(0.3) {
            let _ = t.add_provider(id[j], id[rng.range(0, j)]);
        }
    }
    for a in 0..n {
        for b in (a + 1)..n {
            if !rng.chance(0.2) {
                continue;
            }
            let (u, v) = if rng.chance(0.5) {
                (id[a], id[b])
            } else {
                (id[b], id[a])
            };
            let first = rng.range(0, 2);
            match rng.range(0, 4) {
                0 => t.add_peering(u, v, None).unwrap(),
                1 => t.add_peering(u, v, Some(exchanges[first])).unwrap(),
                _ => {
                    t.add_peering(u, v, Some(exchanges[first])).unwrap();
                    t.add_peering(u, v, Some(exchanges[1 - first])).unwrap();
                }
            }
        }
    }
    t
}

// Chaos properties: any fault plan — any profile, seed and intensity —
// must leave every fault-capable experiment either succeeding with a
// valid (possibly degraded) result or failing with a typed error. Panics
// fail the test by construction.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_fault_plan_degrades_gracefully(
        profile_idx in 0usize..4,
        seed in 0u64..1_000_000,
        intensity in 0.0f64..3.0,
    ) {
        use humnet::core::experiments::ExperimentId;
        use humnet::resilience::{FaultPlan, FaultProfile};
        let plan = FaultPlan::new(FaultProfile::ALL[profile_idx], seed)
            .with_intensity(intensity);
        // The quick fault-capable experiments (T1/T3 are equivalent but
        // ~100x slower; their hooks are exercised in crate-level tests).
        let off = Telemetry::disabled();
        for id in [ExperimentId::F1, ExperimentId::T2, ExperimentId::F4, ExperimentId::F5] {
            let run = id.run_instrumented(&plan, &off).expect("experiments degrade, not error");
            prop_assert!(!run.rendered.is_empty());
            if run.faults_injected > 0 {
                prop_assert!(plan.is_active(), "faults require an active plan");
            }
            // Same plan, same result: the fault schedule is part of the seed.
            let again = id.run_instrumented(&plan, &off).expect("rerun succeeds");
            prop_assert_eq!(&run, &again);
        }
    }

    #[test]
    fn congestion_invariants_hold_under_any_plan(
        profile_idx in 0usize..4,
        seed in 0u64..1_000_000,
        intensity in 0.0f64..4.0,
    ) {
        use humnet::resilience::{FaultPlan, FaultProfile, PlanHook};
        let plan = FaultPlan::new(FaultProfile::ALL[profile_idx], seed)
            .with_intensity(intensity);
        let sim = CongestionSim::new(CongestionConfig::default()).unwrap();
        let mut hook = PlanHook::new(plan);
        for out in sim.compare(&mut hook, &Telemetry::disabled()) {
            prop_assert!(out.fairness.is_nan() || (0.0..=1.0 + 1e-9).contains(&out.fairness));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.utilization));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&out.starvation));
        }
    }
}
