//! The experiment suite: one function per table/figure in `EXPERIMENTS.md`.
//!
//! Each function builds its workload, runs the relevant simulators, and
//! returns both structured numbers and a rendered [`Table`]/[`Series`].
//! The `experiments` binary prints them; the benches in `crates/bench`
//! time them; the integration tests assert their qualitative shapes.

use crate::audit::MethodsAuditor;
use crate::ethnography::{EthnographyConfig, FieldStudy, MemoPractice, Schedule};
use crate::par::ParProject;
use crate::report::{Series, Table};
use crate::{subrun, upstream, Result};
use humnet_agenda::{
    attention_by_class, attention_gini, coverage, AgendaConfig, AgendaSim, MethodRegime,
    ReviewConfig, VenueWeights,
};
use humnet_community::{
    CongestionConfig, CongestionSim, SustainabilityConfig, SustainabilitySim, VolunteerRegime,
};
use humnet_corpus::{CorpusConfig, MethodTag, VenueKind};
use humnet_ixp::{
    synthetic_internet, CircumventionStrategy, MexicoConfig, MexicoScenario, RoutingTable,
    TrafficConfig, TrafficMatrix, TwoRegionConfig, TwoRegionScenario,
};
use humnet_qual::{SimulatedStudy, StudyConfig};
use humnet_resilience::{
    ExperimentSpec, FaultHook, FaultPlan, InstrumentedHook, JobError, JobOutput, PlanHook,
};
use humnet_stats::lorenz_curve;
use humnet_telemetry::Telemetry;

fn core_err(msg: &'static str) -> crate::CoreError {
    crate::CoreError::InvalidParameter(msg)
}

/// Result of experiment **F1**: Lorenz curve of research attention under
/// the data-driven regime.
#[derive(Debug, Clone)]
pub struct F1Result {
    /// Lorenz curve of per-problem publication counts.
    pub lorenz: Series,
    /// Gini of per-problem attention.
    pub gini: f64,
    /// Publications per stakeholder class table.
    pub by_class: Table,
}

/// **F1** — concentration of research attention (§1's feedback loop).
/// Reviewer no-shows and volunteer dropout from `hook` perturb the agenda
/// simulation mid-run.
pub fn f1_attention(seed: u64, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<F1Result> {
    let mut cfg = AgendaConfig::default();
    cfg.regime = MethodRegime::DataDriven;
    cfg.seed = seed;
    let mut sim = AgendaSim::new(cfg).map_err(upstream("agenda config"))?;
    sim.run(hook, tel).map_err(upstream("agenda run"))?;
    let counts: Vec<f64> = sim
        .space()
        .problems
        .iter()
        .map(|p| p.publications as f64)
        .collect();
    let curve = lorenz_curve(&counts).map_err(upstream("lorenz"))?;
    let mut lorenz = Series::new(
        "F1: Lorenz curve of research attention (data-driven regime)",
        "population share",
        "publication share",
    );
    for (x, y) in curve {
        lorenz.push(x, y);
    }
    let gini = attention_gini(sim.space()).map_err(upstream("gini"))?;
    let mut by_class = Table::new(
        "F1: publications by stakeholder class",
        &["class", "publications", "marginalized"],
    );
    for (class, pubs) in attention_by_class(sim.space()) {
        by_class.row(&[
            class.label().to_owned(),
            pubs.to_string(),
            class.is_marginalized().to_string(),
        ]);
    }
    Ok(F1Result {
        lorenz,
        gini,
        by_class,
    })
}

/// One row of the **T1** regime-comparison table.
#[derive(Debug, Clone)]
pub struct T1Row {
    /// Regime.
    pub regime: MethodRegime,
    /// Mean marginalized-problem coverage.
    pub marginalized_coverage: f64,
    /// Mean dominant-problem coverage.
    pub dominant_coverage: f64,
    /// Mean attention Gini.
    pub gini: f64,
    /// Mean total publications.
    pub publications: f64,
}

/// **T1** — method-regime comparison over several seeds. Fault draws are
/// pure per `(step, kind)`, so every regime faces the identical churn
/// schedule and the cross-regime comparison stays fair. The
/// `regimes × seeds` agenda runs are independent and fan out over the
/// available cores; the output and journal are the serial loop's.
pub fn t1_regimes(
    seeds: &[u64],
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<(Vec<T1Row>, Table)> {
    let jobs = MethodRegime::ALL.len() * seeds.len();
    t1_regimes_on(subrun::workers_for(jobs), seeds, hook, tel)
}

/// [`t1_regimes`] on exactly `workers` threads. Nothing it returns or
/// records depends on `workers`; tests pin it to show that.
pub fn t1_regimes_on(
    workers: usize,
    seeds: &[u64],
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<(Vec<T1Row>, Table)> {
    if seeds.is_empty() {
        return Err(crate::CoreError::EmptyInput);
    }
    let jobs = MethodRegime::ALL.len() * seeds.len();
    // Job k runs regime k / seeds.len() at seed k % seeds.len(): the
    // serial loop's order.
    let job_seeds = seeds.to_vec();
    let runs = subrun::fork_join(jobs, workers, hook, tel, move |k, hook, tel| {
        let mut cfg = AgendaConfig::default();
        cfg.regime = MethodRegime::ALL[k / job_seeds.len()];
        cfg.seed = job_seeds[k % job_seeds.len()];
        let mut sim = AgendaSim::new(cfg).map_err(upstream("agenda config"))?;
        sim.run(hook, tel).map_err(upstream("agenda run"))?;
        Ok([
            coverage(sim.space(), true).map_err(upstream("coverage"))?,
            coverage(sim.space(), false).map_err(upstream("coverage"))?,
            attention_gini(sim.space()).map_err(upstream("gini"))?,
            sim.history()
                .last()
                .map(|s| s.publications as f64)
                .unwrap_or(0.0),
        ])
    })?;
    let n = seeds.len() as f64;
    let rows: Vec<T1Row> = MethodRegime::ALL
        .iter()
        .zip(runs.chunks(seeds.len()))
        .map(|(&regime, runs)| {
            // Summed in seed order from 0.0, as the serial loop did.
            let mut sum = [0.0; 4];
            for run in runs {
                for (s, v) in sum.iter_mut().zip(run) {
                    *s += v;
                }
            }
            T1Row {
                regime,
                marginalized_coverage: sum[0] / n,
                dominant_coverage: sum[1] / n,
                gini: sum[2] / n,
                publications: sum[3] / n,
            }
        })
        .collect();
    let mut table = Table::new(
        "T1: problem surfacing by method regime",
        &[
            "regime",
            "marginalized coverage",
            "dominant coverage",
            "attention gini",
            "publications",
        ],
    );
    for r in &rows {
        table.row(&[
            r.regime.label().to_owned(),
            Table::f(r.marginalized_coverage),
            Table::f(r.dominant_coverage),
            Table::f(r.gini),
            format!("{:.0}", r.publications),
        ]);
    }
    Ok((rows, table))
}

/// **F2** — positionality-statement prevalence by venue kind and year.
/// The corpus generation and the survey-pipeline audit both report into
/// `tel`.
pub fn f2_positionality(seed: u64, tel: &Telemetry) -> Result<(Table, Vec<Series>)> {
    let cfg = CorpusConfig::default();
    let corpus = cfg
        .generate(seed, tel)
        .map_err(upstream("corpus generate"))?;
    let report = MethodsAuditor::new().audit(&corpus, tel)?;
    let mut table = Table::new(
        "F2: positionality prevalence by venue kind",
        &["venue kind", "papers", "tagged rate", "detected rate"],
    );
    for v in &report.venues {
        table.row(&[
            v.kind.label().to_owned(),
            v.papers.to_string(),
            Table::f(v.positionality_rate),
            Table::f(v.detected_positionality_rate),
        ]);
    }
    // Per-year trend series for two contrasting venue kinds.
    let (lo, hi) = corpus.year_range().ok_or(crate::CoreError::EmptyInput)?;
    let mut series = Vec::new();
    for kind in [VenueKind::SystemsNetworking, VenueKind::HciCscw] {
        let mut s = Series::new(
            format!("F2: positionality rate over time ({})", kind.label()),
            "year",
            "rate",
        );
        for year in lo..=hi {
            s.push(
                year as f64,
                humnet_corpus::method_rate_by_year(&corpus, kind, MethodTag::Positionality, year),
            );
        }
        series.push(s);
    }
    Ok((table, series))
}

/// **T2** — inter-rater reliability vs codebook refinement round. Coder
/// attrition from `hook` degrades coding rounds.
pub fn t2_irr(seed: u64, rounds: u32, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<Table> {
    let mut study =
        SimulatedStudy::new(StudyConfig::default(), seed).map_err(upstream("study config"))?;
    let traj = study
        .reliability_trajectory(rounds, hook, tel)
        .map_err(upstream("trajectory"))?;
    let mut table = Table::new(
        "T2: inter-rater reliability vs codebook refinement",
        &[
            "round",
            "percent agreement",
            "fleiss kappa",
            "krippendorff alpha",
        ],
    );
    for r in &traj {
        table.row(&[
            r.round.to_string(),
            Table::f(r.percent_agreement),
            Table::f(r.fleiss_kappa),
            Table::f(r.krippendorff_alpha),
        ]);
    }
    Ok(table)
}

/// **F3** — mandatory-peering enforcement sweep, complied vs circumvented.
/// IXP outages from `hook` leave exchanges dark (no multilateral peering,
/// no enforceable regulation).
pub fn f3_telmex(
    points: usize,
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<(Series, Series, Table)> {
    if points < 2 {
        return Err(core_err("need >= 2 sweep points"));
    }
    let mut comply = Series::new(
        "F3: competitor IXP share vs enforcement (incumbent complies)",
        "enforcement",
        "ixp share",
    );
    let mut split = Series::new(
        "F3: competitor IXP share vs enforcement (ASN splitting)",
        "enforcement",
        "ixp share",
    );
    let mut table = Table::new(
        "F3: Telmex scenario",
        &[
            "enforcement",
            "share (comply)",
            "share (split)",
            "transit cost (split)",
        ],
    );
    for i in 0..points {
        let e = i as f64 / (points - 1) as f64;
        let mut cfg = MexicoConfig::default();
        cfg.regulation.enforcement = e;
        cfg.strategy = CircumventionStrategy::ComplyFully;
        let sc = MexicoScenario::run(&cfg, hook, tel).map_err(upstream("mexico run"))?;
        let share_c = sc.competitor_ixp_share().map_err(upstream("share"))?;
        cfg.strategy = CircumventionStrategy::AsnSplitting;
        let ss = MexicoScenario::run(&cfg, hook, tel).map_err(upstream("mexico run"))?;
        let share_s = ss.competitor_ixp_share().map_err(upstream("share"))?;
        comply.push(e, share_c);
        split.push(e, share_s);
        table.row(&[
            Table::f(e),
            Table::f(share_c),
            Table::f(share_s),
            format!("{:.0}", ss.transit_cost()),
        ]);
    }
    Ok((comply, split, table))
}

/// **F4** — IXP gravity: foreign-exchange share vs local content presence.
/// Either region's exchange can go dark under `hook`.
pub fn f4_gravity(
    points: usize,
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<(Series, Series)> {
    if points < 2 {
        return Err(core_err("need >= 2 sweep points"));
    }
    let mut foreign = Series::new(
        "F4: share of South traffic exchanged at the Northern IXP",
        "local content presence",
        "foreign exchange share",
    );
    let mut local = Series::new(
        "F4: share of South traffic exchanged at the local IXP",
        "local content presence",
        "local exchange share",
    );
    for i in 0..points {
        let p = i as f64 / (points - 1) as f64;
        let mut cfg = TwoRegionConfig::default();
        cfg.content_presence_south = p;
        let sc = TwoRegionScenario::run(&cfg, hook, tel).map_err(upstream("two-region run"))?;
        foreign.push(p, sc.foreign_exchange_share().map_err(upstream("share"))?);
        local.push(p, sc.local_exchange_share().map_err(upstream("share"))?);
    }
    Ok((foreign, local))
}

/// **F10** — internet-scale routing on a synthetic internet.
///
/// Builds a [`synthetic_internet`] topology (2 000 ASes — the canonical
/// run is sized so the full suite stays fast; the scale-smoke CI job and
/// `bench_substrates` exercise 10k/100k), samples a gravity traffic
/// matrix, computes routes **only toward the sampled destinations** on
/// the frozen SoA engine with one worker per available core (at most
/// 8: the calling thread plus warm pooled threads of the runner's
/// fan-out), and reports locality metrics. The worker count never
/// changes the table (`tests/determinism.rs` pins it at 1, 2 and 8
/// workers). There
/// is no fault surface: the computation either reproduces the same bytes
/// or errors.
pub fn f10_scale(seed: u64, tel: &Telemetry) -> Result<Table> {
    let _span = tel.span("ixp.internet");
    let n = 2_000;
    let pairs = 512;
    let t = synthetic_internet(n, seed).map_err(upstream("synthetic internet"))?;
    let ft = t.freeze();
    let matrix = TrafficMatrix::gravity_sampled(&t, &TrafficConfig::default(), pairs, seed)
        .map_err(upstream("sampled gravity"))?;
    let dests = matrix.destinations();
    let t0 = tel.start();
    let workers = subrun::workers_for(dests.len()).min(8);
    let routes = RoutingTable::compute_frozen(&ft, &dests, workers).map_err(upstream("routing"))?;
    tel.observe_since("ixp.route_assign_ns", t0);
    let (flows, unserved) = matrix.assign(&routes);
    let total_volume: f64 = flows.iter().map(|f| f.volume).sum();
    let mean_hops = if flows.is_empty() {
        0.0
    } else {
        flows.iter().map(|f| f.route.hops() as f64).sum::<f64>() / flows.len() as f64
    };
    let peer_share = if total_volume > 0.0 {
        flows
            .iter()
            .filter(|f| f.route.has_peer_hop)
            .map(|f| f.volume)
            .sum::<f64>()
            / total_volume
    } else {
        0.0
    };
    // IXP 0 is the giant Northern exchange by construction.
    let giant_share = humnet_ixp::metrics::ixp_share(&flows, 0);
    tel.counter("ixp.scenarios", 1);
    tel.counter("ixp.flows", flows.len() as u64);
    tel.event(humnet_telemetry::Event::new(
        "milestone",
        format!("ixp.internet: {n} ASes, {} flows routed", flows.len()),
    ));
    let mut table = Table::new(
        "F10: internet-scale routing (synthetic internet, sampled gravity)",
        &["metric", "value"],
    );
    table.row(&["ASes".into(), n.to_string()]);
    table.row(&["sampled demands".into(), pairs.to_string()]);
    table.row(&[
        "destinations computed".into(),
        routes.destinations().len().to_string(),
    ]);
    table.row(&["route digest".into(), format!("{:016x}", routes.digest())]);
    table.row(&["flows served".into(), flows.len().to_string()]);
    table.row(&["flows unserved".into(), unserved.len().to_string()]);
    table.row(&["mean AS-path hops".into(), Table::f(mean_hops)]);
    table.row(&["peer-hop volume share".into(), Table::f(peer_share)]);
    table.row(&["giant-IXP volume share".into(), Table::f(giant_share)]);
    Ok(table)
}

/// **T3** — community-network sustainability by volunteer regime. Link
/// outages from `hook` spike the daily failure rate, volunteer dropout
/// thins the repair pool. The `regimes × seeds` mesh runs are independent
/// and fan out like [`t1_regimes`]'s.
pub fn t3_sustainability(
    seeds: &[u64],
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<Table> {
    let jobs = VolunteerRegime::ALL.len() * seeds.len();
    t3_sustainability_on(subrun::workers_for(jobs), seeds, hook, tel)
}

/// [`t3_sustainability`] on exactly `workers` threads. Nothing it returns
/// or records depends on `workers`; tests pin it to show that.
pub fn t3_sustainability_on(
    workers: usize,
    seeds: &[u64],
    hook: &mut dyn FaultHook,
    tel: &Telemetry,
) -> Result<Table> {
    if seeds.is_empty() {
        return Err(crate::CoreError::EmptyInput);
    }
    let jobs = VolunteerRegime::ALL.len() * seeds.len();
    let job_seeds = seeds.to_vec();
    let runs = subrun::fork_join(jobs, workers, hook, tel, move |k, hook, tel| {
        let mut cfg = SustainabilityConfig::default();
        cfg.regime = VolunteerRegime::ALL[k / job_seeds.len()];
        cfg.daily_failure_rate = 0.05;
        cfg.seed = job_seeds[k % job_seeds.len()];
        SustainabilitySim::new(cfg)
            .map_err(upstream("sustain config"))?
            .run(hook, tel)
            .map_err(upstream("sustain run"))
    })?;
    let mut table = Table::new(
        "T3: sustainability by volunteer regime (1 year, 5% daily failure)",
        &["regime", "uptime", "mttr (days)", "attrition", "cost"],
    );
    let n = seeds.len() as f64;
    for (regime, runs) in VolunteerRegime::ALL.iter().zip(runs.chunks(seeds.len())) {
        let mut uptime = 0.0;
        let mut mttr = 0.0;
        let mut mttr_n = 0;
        let mut attrition = 0.0;
        let mut cost = 0.0;
        for out in runs {
            uptime += out.uptime;
            if !out.mttr.is_nan() {
                mttr += out.mttr;
                mttr_n += 1;
            }
            attrition += out.attrition as f64;
            cost += out.total_cost;
        }
        table.row(&[
            regime.label().to_owned(),
            Table::f(uptime / n),
            if mttr_n > 0 {
                Table::f(mttr / mttr_n as f64)
            } else {
                "n/a".to_owned()
            },
            Table::f(attrition / n),
            format!("{:.0}", cost / n),
        ]);
    }
    Ok(table)
}

/// **F5** — common-pool congestion policies. Link outages from `hook`
/// shrink the shared backhaul pool; every policy faces the identical
/// outage schedule.
pub fn f5_congestion(seed: u64, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<Table> {
    let mut cfg = CongestionConfig::default();
    cfg.seed = seed;
    let sim = CongestionSim::new(cfg).map_err(upstream("congestion config"))?;
    let mut table = Table::new(
        "F5: congestion-management policies (30 households, bursty demand)",
        &[
            "policy",
            "fairness (backlogged)",
            "utilization",
            "modest-user starvation",
        ],
    );
    for out in sim.compare(hook, tel) {
        table.row(&[
            out.policy.label().to_owned(),
            Table::f(out.fairness),
            Table::f(out.utilization),
            Table::f(out.starvation),
        ]);
    }
    Ok(table)
}

/// **T4** — participation-ladder audit of project archetypes.
pub fn t4_ladder() -> Result<Table> {
    let mut table = Table::new(
        "T4: participation-ladder audit of project archetypes",
        &[
            "archetype",
            "participation score",
            "§5.1 compliant",
            "violations",
        ],
    );
    for i in 0..6 {
        let p = ParProject::archetype(i);
        let violations = p.audit_5_1();
        table.row(&[
            p.name.clone(),
            Table::f(p.participation_score()),
            p.is_5_1_compliant().to_string(),
            violations.len().to_string(),
        ]);
    }
    Ok(table)
}

/// **F6** — field-schedule comparison at a fixed 60-day budget.
pub fn f6_patchwork() -> Result<Table> {
    let mut table = Table::new(
        "F6: ethnography schedules at a fixed 60-day budget",
        &[
            "schedule",
            "memos",
            "days on site",
            "insights",
            "saturation",
            "mean depth",
        ],
    );
    let cases: Vec<(&str, Schedule, MemoPractice)> = vec![
        ("traditional", Schedule::Traditional, MemoPractice::None),
        (
            "patchwork x6",
            Schedule::Patchwork {
                fragments: 6,
                gap_days: 30,
            },
            MemoPractice::None,
        ),
        (
            "patchwork x6 + memos",
            Schedule::Patchwork {
                fragments: 6,
                gap_days: 30,
            },
            MemoPractice::Reflexive(0.9),
        ),
        (
            "patchwork x12 + memos",
            Schedule::Patchwork {
                fragments: 12,
                gap_days: 14,
            },
            MemoPractice::Reflexive(0.9),
        ),
        (
            "rapid (10 days)",
            Schedule::Rapid { days_on_site: 10 },
            MemoPractice::None,
        ),
    ];
    for (label, schedule, memos) in cases {
        let mut cfg = EthnographyConfig::default();
        cfg.schedule = schedule;
        cfg.memos = memos;
        let out = FieldStudy::new(cfg)
            .map_err(upstream("ethnography config"))?
            .run();
        let memo_label = match memos {
            MemoPractice::None => "none".to_owned(),
            MemoPractice::Reflexive(k) => format!("reflexive {k:.1}"),
        };
        table.row(&[
            label.to_owned(),
            memo_label,
            out.days_on_site.to_string(),
            format!("{:.1}", out.insights),
            Table::f(out.saturation),
            Table::f(out.mean_depth),
        ]);
    }
    Ok(table)
}

/// **T5** — venue gatekeeping: acceptance by method vs CFP human weight.
pub fn t5_gatekeeping(points: usize) -> Result<(Series, Series, Table)> {
    if points < 2 {
        return Err(core_err("need >= 2 sweep points"));
    }
    let mut human = Series::new(
        "T5: human-centered acceptance vs CFP human-insight weight",
        "human-insight weight",
        "acceptance rate",
    );
    let mut systems = Series::new(
        "T5: systems acceptance vs CFP human-insight weight",
        "human-insight weight",
        "acceptance rate",
    );
    let mut table = Table::new(
        "T5: venue gatekeeping",
        &["human weight", "systems acceptance", "human acceptance"],
    );
    for i in 0..points {
        let w = 0.5 * i as f64 / (points - 1) as f64;
        let out = humnet_agenda::review::run_review(
            &ReviewConfig::default(),
            &VenueWeights::broadened(w),
        )
        .map_err(upstream("review run"))?;
        human.push(w, out.human_acceptance);
        systems.push(w, out.systems_acceptance);
        table.row(&[
            Table::f(w),
            Table::f(out.systems_acceptance),
            Table::f(out.human_acceptance),
        ]);
    }
    Ok((human, systems, table))
}

/// **F8** — IXP growth dynamics: winner-take-all vs regional affinity.
pub fn f8_growth(points: usize, tel: &Telemetry) -> Result<(Series, Series, Table)> {
    if points < 2 {
        return Err(core_err("need >= 2 sweep points"));
    }
    let mut top = Series::new(
        "F8: top exchange's membership share vs regional affinity",
        "regional affinity (gamma)",
        "top share",
    );
    let mut local = Series::new(
        "F8: South arrivals joining a local exchange vs regional affinity",
        "regional affinity (gamma)",
        "local join share",
    );
    let mut table = Table::new(
        "F8: IXP growth dynamics",
        &[
            "gamma",
            "top share",
            "membership gini",
            "south joined local",
        ],
    );
    for i in 0..points {
        let gamma = 3.0 * i as f64 / (points - 1) as f64;
        let mut cfg = humnet_ixp::GrowthConfig::default();
        cfg.gamma_region = gamma;
        let out = humnet_ixp::simulate_growth(&cfg, tel).map_err(upstream("growth run"))?;
        top.push(gamma, out.top_share);
        local.push(gamma, out.south_joined_local);
        table.row(&[
            Table::f(gamma),
            Table::f(out.top_share),
            Table::f(out.membership_gini),
            Table::f(out.south_joined_local),
        ]);
    }
    Ok((top, local, table))
}

/// **F9** — method-adoption dynamics around a CFP intervention.
pub fn f9_adoption() -> Result<(Series, Table)> {
    let cfg = humnet_agenda::AdoptionConfig::default();
    let traj = humnet_agenda::simulate_adoption(&cfg).map_err(upstream("adoption run"))?;
    let mut series = Series::new(
        "F9: human-centered share of the community (CFP broadened at round 15)",
        "round",
        "human share",
    );
    let mut table = Table::new(
        "F9: adoption dynamics",
        &[
            "round",
            "human share",
            "human acceptance",
            "systems acceptance",
            "cfp broadened",
        ],
    );
    for snap in &traj {
        series.push(snap.round as f64, snap.human_share);
        table.row(&[
            snap.round.to_string(),
            Table::f(snap.human_share),
            Table::f(snap.human_acceptance),
            Table::f(snap.systems_acceptance),
            snap.intervened.to_string(),
        ]);
    }
    Ok((series, table))
}

/// **T6** — diary-study compliance with and without technology probes
/// (§6.1's "other methods", after Chidziwisano 2024).
pub fn t6_diary(seed: u64, tel: &Telemetry) -> Result<Table> {
    let mut table = Table::new(
        "T6: diary-study compliance (12 participants, 6 weeks)",
        &[
            "design",
            "overall compliance",
            "final-week compliance",
            "prompted share",
            "mean words",
        ],
    );
    for (label, probe_rate) in [("plain diary", 0.0), ("diary + probes", 0.5)] {
        let mut cfg = humnet_qual::DiaryConfig::default();
        cfg.probe_rate = probe_rate;
        let out = humnet_qual::simulate_diary(&cfg, seed, tel).map_err(upstream("diary run"))?;
        table.row(&[
            label.to_owned(),
            Table::f(out.overall_compliance(&cfg)),
            Table::f(out.final_week_compliance()),
            Table::f(out.prompted_share()),
            format!("{:.1}", out.mean_words()),
        ]);
    }
    Ok(table)
}

/// **T7** — cooperative economics under three dues policies.
pub fn t7_economics(seeds: &[u64]) -> Result<Table> {
    if seeds.is_empty() {
        return Err(crate::CoreError::EmptyInput);
    }
    let mut table = Table::new(
        "T7: cooperative finances over 5 years by dues policy",
        &[
            "policy",
            "insolvency rate",
            "mean closing balance",
            "mean members kept",
            "mean priced out",
        ],
    );
    for policy in humnet_community::DuesPolicy::ALL {
        let mut insolvent = 0usize;
        let mut closing = 0.0;
        let mut kept = 0.0;
        let mut dropped = 0.0;
        for &seed in seeds {
            let mut cfg = humnet_community::EconomicsConfig::default();
            cfg.seed = seed;
            cfg.income_sigma = 1.2;
            let out = humnet_community::simulate_economics(&cfg, policy)
                .map_err(upstream("economics run"))?;
            if out.insolvent_at.is_some() {
                insolvent += 1;
            }
            closing += out.closing_balance;
            kept += out.remaining_members as f64;
            dropped += out.dropped_for_affordability as f64;
        }
        let n = seeds.len() as f64;
        table.row(&[
            policy.label().to_owned(),
            Table::f(insolvent as f64 / n),
            format!("{:.0}", closing / n),
            Table::f(kept / n),
            Table::f(dropped / n),
        ]);
    }
    Ok(table)
}

/// **F7** — §5 recommendation uptake audit across the corpus. Corpus
/// generation and the survey-pipeline audit both report into `tel`.
pub fn f7_audit(seed: u64, tel: &Telemetry) -> Result<Table> {
    let corpus = CorpusConfig::default()
        .generate(seed, tel)
        .map_err(upstream("corpus generate"))?;
    let report = MethodsAuditor::new().audit(&corpus, tel)?;
    let mut table = Table::new(
        "F7: §5 recommendation uptake by venue kind",
        &[
            "venue kind",
            "partnerships (§5.1)",
            "conversations (§5.2)",
            "positionality (§5.3)",
            "human methods",
        ],
    );
    for v in &report.venues {
        table.row(&[
            v.kind.label().to_owned(),
            Table::f(v.partnership_rate),
            Table::f(v.conversation_rate),
            Table::f(v.positionality_rate),
            Table::f(v.human_method_rate),
        ]);
    }
    table.row(&[
        "full §5 adoption".to_owned(),
        Table::f(report.full_adoption_rate),
        format!("recall {:.2}", report.detector_recall),
        format!("precision {:.2}", report.detector_precision),
        String::new(),
    ]);
    Ok(table)
}

/// The seventeen experiments of `EXPERIMENTS.md`, as a first-class registry
/// so the supervised runner (and anything else) can enumerate, parse and
/// execute them uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum ExperimentId {
    F1,
    T1,
    F2,
    T2,
    F3,
    F4,
    T3,
    F5,
    T4,
    F6,
    T5,
    F7,
    F8,
    F9,
    T6,
    T7,
    F10,
}

/// One registry row: everything the runner, the CLI and the benches need
/// to know about an experiment, plus the function that runs it with its
/// canonical parameters and renders the output as the binary prints it.
struct Entry {
    id: ExperimentId,
    code: &'static str,
    title: &'static str,
    family: &'static str,
    fault_capable: bool,
    render: fn(&mut dyn FaultHook, &Telemetry) -> Result<String>,
}

/// The registry, in [`ExperimentId::ALL`] order (the enum discriminant
/// indexes it). Experiments without a fault surface ignore the hook.
static REGISTRY: [Entry; 17] = [
    Entry {
        id: ExperimentId::F1,
        code: "f1",
        title: "Lorenz curve of research attention (paper §1)",
        family: "agenda",
        fault_capable: true,
        render: |hook, tel| {
            let r = f1_attention(42, hook, tel)?;
            Ok(format!(
                "{}\nattention gini = {:.3}\n\n{}",
                r.lorenz.render(),
                r.gini,
                r.by_class.render()
            ))
        },
    },
    Entry {
        id: ExperimentId::T1,
        code: "t1",
        title: "method-regime comparison (paper §2, §5.1)",
        family: "agenda",
        fault_capable: true,
        render: |hook, tel| Ok(t1_regimes(&[1, 2, 3, 4, 5], hook, tel)?.1.render()),
    },
    Entry {
        id: ExperimentId::F2,
        code: "f2",
        title: "positionality prevalence by venue (paper §4, §6.4)",
        family: "corpus",
        fault_capable: false,
        render: |_, tel| {
            let (table, series) = f2_positionality(7, tel)?;
            let mut parts = vec![table.render()];
            parts.extend(series.iter().map(Series::render));
            Ok(parts.join("\n"))
        },
    },
    Entry {
        id: ExperimentId::T2,
        code: "t2",
        title: "inter-rater reliability vs codebook refinement (paper §5.2)",
        family: "qual",
        fault_capable: true,
        render: |hook, tel| Ok(t2_irr(5, 6, hook, tel)?.render()),
    },
    Entry {
        id: ExperimentId::F3,
        code: "f3",
        title: "Telmex: mandatory peering vs ASN splitting (paper §3, [38])",
        family: "ixp",
        fault_capable: true,
        render: |hook, tel| {
            let (comply, split, table) = f3_telmex(11, hook, tel)?;
            Ok([comply.render(), split.render(), table.render()].join("\n"))
        },
    },
    Entry {
        id: ExperimentId::F4,
        code: "f4",
        title: "IXP gravity: Brazil vs Germany (paper §3, [39])",
        family: "ixp",
        fault_capable: true,
        render: |hook, tel| {
            let (foreign, local) = f4_gravity(11, hook, tel)?;
            Ok([foreign.render(), local.render()].join("\n"))
        },
    },
    Entry {
        id: ExperimentId::T3,
        code: "t3",
        title: "community-network sustainability (paper §4, [23])",
        family: "community",
        fault_capable: true,
        render: |hook, tel| Ok(t3_sustainability(&[1, 2, 3, 4, 5], hook, tel)?.render()),
    },
    Entry {
        id: ExperimentId::F5,
        code: "f5",
        title: "common-pool congestion management (paper §4, [28])",
        family: "community",
        fault_capable: true,
        render: |hook, tel| Ok(f5_congestion(1, hook, tel)?.render()),
    },
    Entry {
        id: ExperimentId::T4,
        code: "t4",
        title: "participation-ladder audit (paper §2, §5.1)",
        family: "practice",
        fault_capable: false,
        render: |_, _| Ok(t4_ladder()?.render()),
    },
    Entry {
        id: ExperimentId::F6,
        code: "f6",
        title: "patchwork vs traditional ethnography (paper §3, [17])",
        family: "practice",
        fault_capable: false,
        render: |_, _| Ok(f6_patchwork()?.render()),
    },
    Entry {
        id: ExperimentId::T5,
        code: "t5",
        title: "venue gatekeeping of human-centered work (paper §6.3.2)",
        family: "agenda",
        fault_capable: false,
        render: |_, _| {
            let (human, systems, table) = t5_gatekeeping(6)?;
            Ok([human.render(), systems.render(), table.render()].join("\n"))
        },
    },
    Entry {
        id: ExperimentId::F7,
        code: "f7",
        title: "§5 recommendation uptake audit",
        family: "corpus",
        fault_capable: false,
        render: |_, tel| Ok(f7_audit(3, tel)?.render()),
    },
    Entry {
        id: ExperimentId::F8,
        code: "f8",
        title: "IXP growth dynamics (paper §3, [39])",
        family: "ixp",
        fault_capable: false,
        render: |_, tel| {
            let (top, local, table) = f8_growth(7, tel)?;
            Ok([top.render(), local.render(), table.render()].join("\n"))
        },
    },
    Entry {
        id: ExperimentId::F9,
        code: "f9",
        title: "method adoption around a CFP intervention (paper §6.4)",
        family: "agenda",
        fault_capable: false,
        render: |_, _| {
            let (series, table) = f9_adoption()?;
            Ok([series.render(), table.render()].join("\n"))
        },
    },
    Entry {
        id: ExperimentId::T6,
        code: "t6",
        title: "diary studies and technology probes (paper §6.1, [7])",
        family: "qual",
        fault_capable: false,
        render: |_, tel| Ok(t6_diary(5, tel)?.render()),
    },
    Entry {
        id: ExperimentId::T7,
        code: "t7",
        title: "cooperative economics by dues policy (paper §4)",
        family: "community",
        fault_capable: false,
        render: |_, _| Ok(t7_economics(&[1, 2, 3, 4, 5])?.render()),
    },
    Entry {
        id: ExperimentId::F10,
        code: "f10",
        title: "internet-scale routing on a synthetic internet (paper §3, ROADMAP)",
        family: "ixp",
        fault_capable: false,
        render: |_, tel| Ok(f10_scale(7, tel)?.render()),
    },
];

impl ExperimentId {
    /// Every experiment, in `EXPERIMENTS.md` order.
    pub const ALL: [ExperimentId; 17] = [
        ExperimentId::F1,
        ExperimentId::T1,
        ExperimentId::F2,
        ExperimentId::T2,
        ExperimentId::F3,
        ExperimentId::F4,
        ExperimentId::T3,
        ExperimentId::F5,
        ExperimentId::T4,
        ExperimentId::F6,
        ExperimentId::T5,
        ExperimentId::F7,
        ExperimentId::F8,
        ExperimentId::F9,
        ExperimentId::T6,
        ExperimentId::T7,
        ExperimentId::F10,
    ];

    fn entry(self) -> &'static Entry {
        let entry = &REGISTRY[self as usize];
        debug_assert_eq!(entry.id, self, "REGISTRY is out of ALL order");
        entry
    }

    /// Short stable code, as accepted on the CLI (`f1`, `t3`, ...).
    pub fn code(self) -> &'static str {
        self.entry().code
    }

    /// Human-readable title (the binary's banner line).
    pub fn title(self) -> &'static str {
        self.entry().title
    }

    /// Subsystem family, the circuit-breaker granularity of the supervised
    /// runner: experiments in a family share their main simulator crate.
    pub fn family(self) -> &'static str {
        self.entry().family
    }

    /// Parse a CLI spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        ExperimentId::ALL
            .into_iter()
            .find(|id| id.code().eq_ignore_ascii_case(s))
    }

    /// Whether this experiment has a fault-injection surface. The others
    /// (closed-form audits and parameter sweeps without a long-running
    /// simulator) run identically under every fault plan.
    pub fn fault_capable(self) -> bool {
        self.entry().fault_capable
    }

    /// Run the experiment with its canonical parameters (the same the
    /// `experiments` binary uses) under `plan`, rendering the output
    /// exactly as the binary prints it. The whole run sits inside an
    /// `exp.{code}` span, fault injections are journaled through an
    /// [`InstrumentedHook`], and every simulator reports its counters,
    /// histograms, and milestone events into `tel`.
    pub fn run_instrumented(self, plan: &FaultPlan, tel: &Telemetry) -> Result<JobOutput> {
        self.run_hooked(&mut PlanHook::new(*plan), tel)
    }

    /// [`ExperimentId::run_instrumented`] with the fault source
    /// abstracted: drive the experiment's injection points from any
    /// [`FaultHook`] — a live [`PlanHook`], a replayed recorded schedule,
    /// or [`humnet_resilience::NoFaults`]. The hook is wrapped in an
    /// [`InstrumentedHook`] so injections are journaled identically
    /// whatever their source, and the reported fault count covers this
    /// run only even when the hook is reused across experiments.
    pub fn run_hooked(self, fault: &mut dyn FaultHook, tel: &Telemetry) -> Result<JobOutput> {
        let _span = tel.span(format!("exp.{}", self.code()));
        let before = fault.faults_injected();
        let mut hook = InstrumentedHook::new(fault, tel);
        let rendered = (self.entry().render)(&mut hook, tel)?;
        Ok(JobOutput {
            rendered,
            faults_injected: hook.inner().faults_injected() - before,
        })
    }

    /// The supervised job for this experiment: what `experiments run`,
    /// `replay`, dispatch children and remote workers all execute, so a
    /// replayed or dispatched experiment is driven by exactly the code that
    /// produced the capture.
    pub fn spec(self) -> ExperimentSpec {
        ExperimentSpec::new(
            self.code(),
            self.title(),
            self.family(),
            move |plan, tel| {
                self.run_instrumented(plan, tel)
                    .map_err(|e| Box::new(e) as JobError)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::{FaultProfile, NoFaults};

    fn off() -> Telemetry {
        Telemetry::disabled()
    }

    #[test]
    fn f1_produces_high_gini() {
        let r = f1_attention(42, &mut NoFaults, &off()).unwrap();
        assert!(r.gini > 0.5, "gini = {}", r.gini);
        assert!(r.lorenz.points.len() > 100);
        assert_eq!(r.by_class.rows.len(), 6);
    }

    #[test]
    fn t1_shape_holds() {
        let (rows, table) = t1_regimes(&[1, 2], &mut NoFaults, &off()).unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(table.rows.len(), 4);
        let get = |r: MethodRegime| rows.iter().find(|x| x.regime == r).unwrap();
        let dd = get(MethodRegime::DataDriven);
        let par = get(MethodRegime::Par);
        assert!(par.marginalized_coverage > dd.marginalized_coverage);
        assert!(dd.gini > par.gini);
        assert!(dd.publications > par.publications);
    }

    #[test]
    fn f2_gap_between_venue_cultures() {
        let (table, series) = f2_positionality(7, &off()).unwrap();
        assert_eq!(series.len(), 2);
        let rate = |label: &str| -> f64 {
            table.rows.iter().find(|r| r[0] == label).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(rate("hci-cscw") > rate("systems-networking") + 0.1);
    }

    #[test]
    fn t2_alpha_climbs() {
        let table = t2_irr(5, 5, &mut NoFaults, &off()).unwrap();
        assert_eq!(table.rows.len(), 6);
        let first: f64 = table.rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = table.rows.last().unwrap()[3].parse().unwrap();
        assert!(last > first);
    }

    #[test]
    fn f3_circumvention_gap() {
        let (comply, split, table) = f3_telmex(5, &mut NoFaults, &off()).unwrap();
        assert_eq!(table.rows.len(), 5);
        // At zero enforcement, compliance >> splitting.
        assert!(comply.points[0].1 > split.points[0].1 + 0.3);
        // At full enforcement the gap closes.
        let last = split.points.last().unwrap().1;
        assert!(last > 0.9, "full enforcement share = {last}");
    }

    #[test]
    fn f4_gravity_slopes() {
        let (foreign, local) = f4_gravity(5, &mut NoFaults, &off()).unwrap();
        assert!(foreign.points.first().unwrap().1 > foreign.points.last().unwrap().1);
        assert!(local.points.last().unwrap().1 > local.points.first().unwrap().1);
    }

    #[test]
    fn t3_and_f5_render() {
        let t3 = t3_sustainability(&[1, 2], &mut NoFaults, &off()).unwrap();
        assert_eq!(t3.rows.len(), 3);
        let f5 = f5_congestion(1, &mut NoFaults, &off()).unwrap();
        assert_eq!(f5.rows.len(), 3);
        assert!(f5.render().contains("community-tokens"));
    }

    #[test]
    fn t4_scores_increase() {
        let t = t4_ladder().unwrap();
        assert_eq!(t.rows.len(), 6);
        let scores: Vec<f64> = t.rows.iter().map(|r| r[1].parse().unwrap()).collect();
        assert!(scores.windows(2).all(|w| w[1] > w[0]));
    }

    #[test]
    fn f6_memos_rescue_patchwork() {
        let t = f6_patchwork().unwrap();
        let insights = |label: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == label).unwrap()[3]
                .parse()
                .unwrap()
        };
        assert!(insights("patchwork x6 + memos") > insights("patchwork x6"));
        assert!(insights("traditional") > insights("rapid (10 days)"));
    }

    #[test]
    fn t5_broadening_helps() {
        let (human, _systems, table) = t5_gatekeeping(5).unwrap();
        assert_eq!(table.rows.len(), 5);
        assert!(human.points.last().unwrap().1 > human.points.first().unwrap().1);
    }

    #[test]
    fn f7_audit_table_renders() {
        let t = f7_audit(3, &off()).unwrap();
        assert_eq!(t.rows.len(), 7);
        assert!(t.render().contains("full §5 adoption"));
    }

    #[test]
    fn f8_affinity_reduces_concentration() {
        let (top, local, table) = f8_growth(4, &off()).unwrap();
        assert_eq!(table.rows.len(), 4);
        assert!(top.points[0].1 > top.points.last().unwrap().1);
        assert!(local.points.last().unwrap().1 > local.points[0].1);
    }

    #[test]
    fn f9_share_recovers_after_intervention() {
        let (series, table) = f9_adoption().unwrap();
        assert_eq!(table.rows.len(), 30);
        let at15 = series.points[15].1;
        let last = series.points.last().unwrap().1;
        assert!(last > at15);
    }

    #[test]
    fn t7_policies_differ() {
        let t = t7_economics(&[1, 2, 3]).unwrap();
        assert_eq!(t.rows.len(), 3);
        let get = |label: &str, col: usize| -> f64 {
            t.rows.iter().find(|r| r[0] == label).unwrap()[col]
                .parse()
                .unwrap()
        };
        // Income scaling keeps more members than flat dues.
        assert!(get("income-scaled", 3) >= get("flat", 3));
        // Donations carry the highest insolvency risk.
        assert!(get("donation", 1) >= get("income-scaled", 1));
    }

    #[test]
    fn registry_codes_parse_and_families_cover() {
        assert_eq!(ExperimentId::ALL.len(), 17);
        let mut codes = std::collections::HashSet::new();
        for (i, (entry, id)) in REGISTRY.iter().zip(ExperimentId::ALL).enumerate() {
            // Table order is `ALL` order, and the discriminant indexes it.
            assert_eq!(entry.id, id);
            assert_eq!(id as usize, i);
            assert!(codes.insert(id.code()), "duplicate code {}", id.code());
            assert_eq!(ExperimentId::parse(id.code()), Some(id));
            assert_eq!(ExperimentId::parse(&id.code().to_uppercase()), Some(id));
            assert!(!id.family().is_empty());
            assert!(!id.title().is_empty());
        }
        assert_eq!(ExperimentId::parse("zz"), None);
        // `fault_capable` is exactly the set of experiments a chaos plan
        // can reach: the others never report a fault, and each capable
        // experiment of the fast subset reports one for some seed.
        let seeds = 0..4;
        for id in ExperimentId::ALL
            .into_iter()
            .filter(|id| !id.fault_capable())
        {
            for seed in seeds.clone() {
                let plan = FaultPlan::new(FaultProfile::Chaos, seed);
                let run = id.run_instrumented(&plan, &off()).unwrap();
                assert_eq!(run.faults_injected, 0, "{} seed {seed}", id.code());
            }
        }
        for id in [
            ExperimentId::F1,
            ExperimentId::T2,
            ExperimentId::F4,
            ExperimentId::F5,
        ] {
            assert!(id.fault_capable());
            let injected = seeds.clone().any(|seed| {
                let plan = FaultPlan::new(FaultProfile::Chaos, seed);
                id.run_instrumented(&plan, &off()).unwrap().faults_injected > 0
            });
            assert!(
                injected,
                "{} injected no fault for seeds {seeds:?}",
                id.code()
            );
        }
    }

    #[test]
    fn registry_run_matches_the_experiment_function_without_faults() {
        let run = ExperimentId::F5
            .run_instrumented(&FaultPlan::none(), &off())
            .unwrap();
        assert_eq!(run.faults_injected, 0);
        assert_eq!(
            run.rendered,
            f5_congestion(1, &mut NoFaults, &off()).unwrap().render()
        );
    }

    #[test]
    fn registry_chaos_run_reports_faults() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 9);
        let run = ExperimentId::T3.run_instrumented(&plan, &off()).unwrap();
        assert!(run.faults_injected > 0);
        // Same plan, same output: the registry is deterministic.
        let again = ExperimentId::T3.run_instrumented(&plan, &off()).unwrap();
        assert_eq!(run, again);
    }

    #[test]
    fn upstream_errors_preserve_the_source_chain() {
        let err = t1_regimes(&[], &mut NoFaults, &off()).unwrap_err();
        assert_eq!(err, crate::CoreError::EmptyInput);
        // A domain-crate failure surfaces with its source reachable.
        let err = f3_telmex(1, &mut NoFaults, &off()).unwrap_err();
        assert!(matches!(err, crate::CoreError::InvalidParameter(_)));
    }

    #[test]
    fn f10_serves_sampled_demands_and_is_deterministic() {
        let a = f10_scale(7, &off()).unwrap();
        let b = f10_scale(7, &off()).unwrap();
        assert_eq!(a, b);
        let get =
            |label: &str| -> String { a.rows.iter().find(|r| r[0] == label).unwrap()[1].clone() };
        // The synthetic internet is fully reachable: every demand is served.
        assert_eq!(get("flows served"), "512");
        assert_eq!(get("flows unserved"), "0");
        let peer_share: f64 = get("peer-hop volume share").parse().unwrap();
        assert!(
            peer_share > 0.0,
            "some traffic should be exchanged settlement-free"
        );
        let hops: f64 = get("mean AS-path hops").parse().unwrap();
        assert!((1.0..10.0).contains(&hops), "mean hops = {hops}");
    }

    #[test]
    fn t6_probes_help() {
        let t = t6_diary(5, &off()).unwrap();
        assert_eq!(t.rows.len(), 2);
        let final_week = |label: &str| -> f64 {
            t.rows.iter().find(|r| r[0] == label).unwrap()[2]
                .parse()
                .unwrap()
        };
        assert!(final_week("diary + probes") > final_week("plain diary"));
    }
}
