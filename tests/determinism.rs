//! Determinism contract: every simulator in the toolkit is bit-for-bit
//! reproducible from its seed, and sensitive to seed changes. This is what
//! makes `EXPERIMENTS.md` reproducible on any machine.

mod common;

use humnet::agenda::{AgendaConfig, AgendaSim};
use humnet::community::{
    AllocationPolicy, CongestionConfig, CongestionSim, SustainabilityConfig, SustainabilitySim,
};
use humnet::corpus::CorpusConfig;
use humnet::ixp::{MexicoConfig, MexicoScenario, TwoRegionConfig, TwoRegionScenario};
use humnet::qual::{SimulatedStudy, StudyConfig};
use humnet::resilience::NoFaults;
use humnet::stats::Rng;
use humnet::telemetry::Telemetry;

#[test]
fn rng_streams_are_stable_across_calls() {
    let take = |seed: u64| -> Vec<u64> {
        let mut rng = Rng::new(seed);
        (0..32).map(|_| rng.next_u64()).collect()
    };
    assert_eq!(take(1), take(1));
    assert_ne!(take(1), take(2));
}

#[test]
fn corpus_generation_reproducible() {
    let mut cfg = CorpusConfig::default();
    cfg.years = 3;
    for v in cfg.venues.iter_mut() {
        v.papers_per_year = 6;
    }
    let off = Telemetry::disabled();
    let a = cfg.generate(77, &off).unwrap();
    let b = cfg.generate(77, &off).unwrap();
    assert_eq!(a, b);
    assert_ne!(a, cfg.generate(78, &off).unwrap());
}

#[test]
fn agenda_reproducible() {
    let run = |seed| {
        let mut cfg = AgendaConfig::default();
        cfg.rounds = 20;
        cfg.seed = seed;
        let mut sim = AgendaSim::new(cfg).unwrap();
        sim.run(&mut NoFaults, &Telemetry::disabled()).unwrap();
        sim.history().to_vec()
    };
    assert_eq!(run(5), run(5));
    assert_ne!(run(5), run(6));
}

#[test]
fn ixp_scenarios_reproducible() {
    let off = Telemetry::disabled();
    let mx = MexicoConfig::default();
    assert_eq!(
        MexicoScenario::run(&mx, &mut NoFaults, &off).unwrap().flows,
        MexicoScenario::run(&mx, &mut NoFaults, &off).unwrap().flows
    );
    let tr = TwoRegionConfig::default();
    let a = TwoRegionScenario::run(&tr, &mut NoFaults, &off).unwrap();
    let b = TwoRegionScenario::run(&tr, &mut NoFaults, &off).unwrap();
    assert_eq!(a.flows, b.flows);
    assert_eq!(
        a.foreign_exchange_share().unwrap(),
        b.foreign_exchange_share().unwrap()
    );
}

#[test]
fn community_sims_reproducible() {
    let mut cfg = SustainabilityConfig::default();
    cfg.days = 100;
    cfg.seed = 3;
    let off = Telemetry::disabled();
    let a = SustainabilitySim::new(cfg.clone())
        .unwrap()
        .run(&mut NoFaults, &off)
        .unwrap();
    let b = SustainabilitySim::new(cfg)
        .unwrap()
        .run(&mut NoFaults, &off)
        .unwrap();
    assert_eq!(a, b);

    let ccfg = CongestionConfig::default();
    let s1 = CongestionSim::new(ccfg.clone()).unwrap();
    let s2 = CongestionSim::new(ccfg).unwrap();
    for p in AllocationPolicy::ALL {
        assert_eq!(
            s1.run(p, &mut NoFaults, &off),
            s2.run(p, &mut NoFaults, &off)
        );
    }
}

#[test]
fn qual_study_reproducible() {
    let run = |seed| {
        let mut s = SimulatedStudy::new(StudyConfig::default(), seed).unwrap();
        s.reliability_trajectory(3, &mut NoFaults, &Telemetry::disabled())
            .unwrap()
    };
    assert_eq!(run(9), run(9));
    assert_ne!(run(9), run(10));
}

#[test]
fn experiment_suite_reproducible() {
    use humnet::core::experiments as exp;
    let off = Telemetry::disabled();
    let a = exp::f1_attention(42, &mut NoFaults, &off).unwrap();
    let b = exp::f1_attention(42, &mut NoFaults, &off).unwrap();
    assert_eq!(a.gini, b.gini);
    assert_eq!(a.lorenz, b.lorenz);
    let (t1a, _) = exp::t1_regimes(&[1], &mut NoFaults, &off).unwrap();
    let (t1b, _) = exp::t1_regimes(&[1], &mut NoFaults, &off).unwrap();
    for (x, y) in t1a.iter().zip(&t1b) {
        assert_eq!(x.marginalized_coverage, y.marginalized_coverage);
        assert_eq!(x.publications, y.publications);
    }
}

#[test]
fn routing_worker_count_never_changes_results() {
    use humnet::core::experiments as exp;
    use humnet::ixp::RoutingTable;

    // The SoA engine at 1/2/8 workers produces byte-identical tables on the
    // topologies the F3 and F4 experiments route over.
    let off = Telemetry::disabled();
    let mx = MexicoScenario::run(&MexicoConfig::default(), &mut NoFaults, &off).unwrap();
    let tr = TwoRegionScenario::run(&TwoRegionConfig::default(), &mut NoFaults, &off).unwrap();
    for t in [&mx.topology, &tr.topology] {
        let ft = t.freeze();
        let dests: Vec<usize> = (0..t.as_count()).collect();
        let serial = RoutingTable::compute_frozen(&ft, &dests, 1).unwrap();
        for workers in [2usize, 8] {
            let par = RoutingTable::compute_frozen(&ft, &dests, workers).unwrap();
            assert_eq!(par, serial, "workers = {workers}");
            assert_eq!(par.digest(), serial.digest());
        }
    }

    // ... so the F3/F4 experiment journals are unchanged: the scenarios
    // route through the same engine, and repeated instrumented runs emit
    // identical canonical event streams (timings excluded).
    let journal = |run: &dyn Fn(&Telemetry)| -> Vec<String> {
        let tel = Telemetry::new();
        run(&tel);
        tel.snapshot().canonical_events()
    };
    let f3 = |tel: &Telemetry| {
        exp::f3_telmex(4, &mut NoFaults, tel).unwrap();
    };
    let f4 = |tel: &Telemetry| {
        exp::f4_gravity(4, &mut NoFaults, tel).unwrap();
    };
    assert_eq!(journal(&f3), journal(&f3));
    assert_eq!(journal(&f4), journal(&f4));
    assert!(!journal(&f3).is_empty(), "F3 must journal events");
}

#[test]
fn f10_routing_table_is_independent_of_worker_count() {
    use humnet::ixp::{synthetic_internet, RoutingTable, TrafficConfig, TrafficMatrix};

    // F10 routes its table once, on as many workers as the host has
    // cores (at most 8); this is the check that lets it: the same
    // topology and destinations at 1, 2 and 8 workers give one table,
    // whose digest EXPERIMENTS.md publishes.
    let t = synthetic_internet(2_000, 7).unwrap();
    let ft = t.freeze();
    let dests = TrafficMatrix::gravity_sampled(&t, &TrafficConfig::default(), 512, 7)
        .unwrap()
        .destinations();
    let serial = RoutingTable::compute_frozen(&ft, &dests, 1).unwrap();
    for workers in [2usize, 8] {
        let par = RoutingTable::compute_frozen(&ft, &dests, workers).unwrap();
        assert_eq!(par, serial, "workers = {workers}");
        assert_eq!(par.digest(), serial.digest());
    }
    assert_eq!(serial.digest(), 0xe66e_aae9_1a7c_091a);
}

#[test]
fn all_pairs_routing_table_is_pinned() {
    use humnet::ixp::{synthetic_internet, RoutingTable};

    // Every destination of a 1k-AS internet, so all three route classes
    // and the peer-hop IXP of every AS pair are in the digest.
    let t = synthetic_internet(1_000, 5).unwrap();
    let table = RoutingTable::compute(&t).unwrap();
    assert_eq!(table.digest(), 0x7115_c6fc_24ea_c2bc);
}

/// FNV-1a-64, the pin hash of the tests below.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn default_corpus_is_pinned() {
    // F2 and F7 render rates only, so a sampler that drew a different
    // paper or author with the same number of draws would still pass their
    // pins. Hashing the whole corpus (citations, author lists, abstracts)
    // catches that.
    for (seed, want) in [(3, 0xe1d2_cfca_e3bd_9122), (7, 0x11ed_3853_c27b_3654)] {
        let corpus = CorpusConfig::default()
            .generate(seed, &Telemetry::disabled())
            .unwrap();
        assert_eq!(fnv1a(format!("{corpus:?}").as_bytes()), want, "seed {seed}");
    }
}

#[test]
fn hot_experiment_outputs_are_pinned() {
    use humnet::core::experiments::ExperimentId;
    use humnet::resilience::{FaultPlan, FaultProfile};

    // FNV-1a-64 of the rendered output of the experiments whose hot loops
    // skip recomputation (AgendaSim's per-round discovery weights, the
    // corpus generator's Fenwick-tree samplers and interned Markov
    // abstracts, F10's single routing pass, T3's reused day buffers);
    // skipping it must not move a bit.
    let chaos = FaultPlan::new(FaultProfile::Chaos, 7);
    let cases = [
        (ExperimentId::F1, FaultPlan::none(), 0x1aca_093b_1a57_b4ad),
        (ExperimentId::F1, chaos, 0x028c_a051_9b31_709d),
        (ExperimentId::T1, FaultPlan::none(), 0x8523_af34_dc5c_a65f),
        (ExperimentId::T1, chaos, 0x215d_1a98_7795_0944),
        (ExperimentId::F2, FaultPlan::none(), 0x716d_f2a9_d668_b317),
        (ExperimentId::F2, chaos, 0x716d_f2a9_d668_b317),
        (ExperimentId::F7, FaultPlan::none(), 0x7d7f_0a39_e383_0eaa),
        (ExperimentId::F7, chaos, 0x7d7f_0a39_e383_0eaa),
        (ExperimentId::F10, FaultPlan::none(), 0x32d2_1b27_cabb_d1d1),
        (ExperimentId::F10, chaos, 0x32d2_1b27_cabb_d1d1),
        (ExperimentId::T3, FaultPlan::none(), 0x6ebd_65ef_0253_f74a),
        (ExperimentId::T3, chaos, 0xc270_5e5d_7173_c5cd),
    ];
    for (id, plan, want) in cases {
        let out = id.run_instrumented(&plan, &Telemetry::disabled()).unwrap();
        assert_eq!(
            fnv1a(out.rendered.as_bytes()),
            want,
            "{} under {:?}",
            id.code(),
            plan.profile
        );
    }
}

#[test]
fn markov_paragraphs_are_pinned() {
    use humnet::text::MarkovModel;

    // Repeated bigrams ("the network" x4, "we measure" x2, ...) give
    // successor counts above 1, so a sampler that ignored the counts, or
    // reordered the successors, would draw different words.
    let mut model = MarkovModel::new();
    model.train_text(
        "We measure the network. We interview the operators. The operators \
         maintain the network. The network serves the community. We measure \
         the operators and the network. Ñandutí meshes serve the community.",
    );
    let mut paragraphs = String::new();
    for seed in 1..=4 {
        paragraphs.push_str(&model.generate_paragraph(3, 14, &mut Rng::new(seed)));
        paragraphs.push('\n');
    }
    paragraphs.push_str(&model.generate_paragraph(5, 2, &mut Rng::new(5)));
    assert_eq!(
        fnv1a(paragraphs.as_bytes()),
        0x5f7a_a792_9e19_0d8b,
        "{paragraphs}"
    );
}

#[test]
fn supervised_chaos_run_reproducible() {
    // A cross-family subset keeps the double run fast; the binary's
    // contract (tests/contract.rs) covers all seventeen.
    let supervisor = |seed: u64| common::chaos(seed).build();
    let a = supervisor(1234).run(&common::suite());
    let b = supervisor(1234).run(&common::suite());
    // Same seed + plan => byte-identical canonical report and outputs.
    assert_eq!(a.report.canonical(), b.report.canonical());
    assert_eq!(a.outputs, b.outputs);
    // ... and the same telemetry event sequence (timings excluded).
    assert_eq!(
        a.telemetry.canonical_events(),
        b.telemetry.canonical_events()
    );
    assert!(a.report.total_faults() > 0, "chaos must actually inject");
    assert_eq!(a.report.exit_code(), 0, "chaos degrades, not fails");

    // A different seed draws a different fault schedule.
    let c = supervisor(4321).run(&common::suite());
    assert_ne!(a.report.canonical(), c.report.canonical());
}

/// What one instrumented T1 or T3 run leaves behind, durations excluded.
#[derive(Debug, PartialEq)]
struct Observed {
    rendered: String,
    faults_injected: u64,
    events: Vec<String>,
    counters: std::collections::BTreeMap<String, u64>,
    gauges: std::collections::BTreeMap<String, f64>,
    histogram_counts: Vec<(String, u64)>,
}

/// Run `run` under `hook`, instrumented the way `ExperimentId::run_hooked`
/// instruments it, on a recording `Telemetry`.
fn observe(
    hook: &mut dyn humnet::resilience::FaultHook,
    run: impl FnOnce(&mut dyn humnet::resilience::FaultHook, &Telemetry) -> String,
) -> Observed {
    use humnet::resilience::InstrumentedHook;
    let tel = Telemetry::new();
    let rendered = run(&mut InstrumentedHook::new(&mut *hook, &tel), &tel);
    let snap = tel.into_snapshot();
    Observed {
        rendered,
        faults_injected: hook.faults_injected(),
        events: snap.canonical_events(),
        counters: snap.metrics.counters,
        gauges: snap.metrics.gauges,
        histogram_counts: snap
            .metrics
            .histograms
            .into_iter()
            .map(|(name, h)| (name, h.count))
            .collect(),
    }
}

const SUBRUN_SEEDS: [u64; 5] = [1, 2, 3, 4, 5];

/// T1's 25 agenda runs as the serial loop ran them before they fanned
/// out: straight on the caller's hook and telemetry.
fn t1_serial(hook: &mut dyn humnet::resilience::FaultHook, tel: &Telemetry) -> String {
    for regime in humnet::agenda::MethodRegime::ALL {
        for seed in SUBRUN_SEEDS {
            let mut cfg = AgendaConfig::default();
            cfg.regime = regime;
            cfg.seed = seed;
            AgendaSim::new(cfg).unwrap().run(hook, tel).unwrap();
        }
    }
    String::new()
}

/// T3's 15 mesh runs, likewise.
fn t3_serial(hook: &mut dyn humnet::resilience::FaultHook, tel: &Telemetry) -> String {
    for regime in humnet::community::VolunteerRegime::ALL {
        for seed in SUBRUN_SEEDS {
            let mut cfg = SustainabilityConfig::default();
            cfg.regime = regime;
            cfg.daily_failure_rate = 0.05;
            cfg.seed = seed;
            SustainabilitySim::new(cfg).unwrap().run(hook, tel).unwrap();
        }
    }
    String::new()
}

#[test]
fn t1_and_t3_are_independent_of_worker_count() {
    use humnet::core::experiments as exp;
    use humnet::resilience::{
        FaultHook, FaultKind, FaultPlan, FaultProfile, InstrumentedHook, PlanHook, RecordedFault,
        RecordedFaults,
    };

    type Serial = fn(&mut dyn FaultHook, &Telemetry) -> String;
    type OnWorkers = fn(usize, &mut dyn FaultHook, &Telemetry) -> String;
    let experiments: [(&str, Serial, OnWorkers); 2] = [
        ("t1", t1_serial, |workers, hook, tel| {
            exp::t1_regimes_on(workers, &SUBRUN_SEEDS, hook, tel)
                .unwrap()
                .1
                .render()
        }),
        ("t3", t3_serial, |workers, hook, tel| {
            exp::t3_sustainability_on(workers, &SUBRUN_SEEDS, hook, tel)
                .unwrap()
                .render()
        }),
    ];
    let chaos = FaultPlan::new(FaultProfile::Chaos, 7);
    for (code, serial, on_workers) in experiments {
        // The fault schedule a chaos run journals, replayed through a
        // `RecordedFaults` below.
        let capture: Vec<RecordedFault> = {
            let tel = Telemetry::new();
            serial(&mut InstrumentedHook::new(PlanHook::new(chaos), &tel), &tel);
            tel.snapshot()
                .events
                .iter()
                .filter(|e| e.kind == "fault")
                .map(|e| RecordedFault {
                    kind: FaultKind::parse(&e.detail).unwrap(),
                    step: e.step.unwrap(),
                    severity: e.severity.unwrap(),
                })
                .collect()
        };
        assert!(!capture.is_empty(), "{code}: chaos must inject");
        let hook = |name: &str| -> Box<dyn FaultHook> {
            match name {
                "none" => Box::new(NoFaults),
                "chaos" => Box::new(PlanHook::new(chaos)),
                _ => Box::new(RecordedFaults::new(&capture)),
            }
        };
        let mut rendered = Vec::new();
        for name in ["none", "chaos", "replayed chaos"] {
            let want = observe(&mut *hook(name), serial);
            for workers in [1, 2, 8] {
                let got = observe(&mut *hook(name), |h, t| on_workers(workers, h, t));
                assert_eq!(
                    Observed {
                        rendered: String::new(),
                        ..got
                    },
                    want,
                    "{code} under {name} on {workers} workers"
                );
                rendered.push((name, got.rendered));
            }
            if name != "none" {
                assert_eq!(want.faults_injected, capture.len() as u64, "{code}");
            }
        }
        // One rendering per hook: the replay renders what chaos did.
        for (name, r) in &rendered {
            let expect = if *name == "none" {
                &rendered[0].1
            } else {
                &rendered[3].1
            };
            assert_eq!(r, expect, "{code} under {name}");
        }
    }
}
