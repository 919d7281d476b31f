//! Work-stealing schedule contracts, end to end:
//!
//! - A steal-scheduled K-worker run over the real experiment suite is
//!   byte-identical — canonical journal, canonical report, outputs — to
//!   the static 1-shard run of the same seed (the PR acceptance
//!   criterion), and its capture replays cleanly.
//! - Property-style: steal == static over random spec lists, seeds, and
//!   worker counts.
//! - Edge cases: more workers than jobs, zero shards as a typed error,
//!   and a timed-out job not stalling the rest of the steal run.

use humnet::core::experiments::ExperimentId;
use humnet::resilience::{
    replay, ExperimentSpec, FaultProfile, JobError, JobOutput, Schedule, ShardPlan,
    ShardPlanError, Supervisor,
};
use humnet::telemetry::Event;
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// The fast cross-family fault-capable subset (same as shard_replay.rs).
fn suite() -> Vec<ExperimentSpec> {
    [ExperimentId::F1, ExperimentId::T2, ExperimentId::F4, ExperimentId::F5]
        .into_iter()
        .map(ExperimentId::spec)
        .collect()
}

fn supervisor(shards: u32, schedule: Schedule) -> Supervisor {
    Supervisor::builder()
        .retries(2)
        .deadline(Duration::from_secs(30))
        .fault_profile(FaultProfile::Chaos)
        .seed(2025)
        .shards(shards)
        .schedule(schedule)
        .build()
}

#[test]
fn steal_run_matches_single_shard_byte_for_byte() {
    let single = supervisor(1, Schedule::Static).run(&suite());
    let stolen = supervisor(4, Schedule::Steal).run(&suite());

    assert_eq!(
        single.telemetry.canonical_events(),
        stolen.telemetry.canonical_events()
    );
    assert_eq!(single.report.canonical(), stolen.report.canonical());
    assert_eq!(single.outputs, stolen.outputs);
    assert!(single.report.total_faults() > 0, "chaos must inject");

    // Steal bookkeeping exists only on the steal side and never leaks
    // into the canonical view.
    assert_eq!(stolen.telemetry.metrics.counters["runner.steal.workers"], 4);
    assert!(!single
        .telemetry
        .metrics
        .counters
        .contains_key("runner.steal.workers"));
    assert!(stolen.telemetry.events.iter().any(|e| e.shard.is_some()));
}

#[test]
fn steal_capture_replays_cleanly_on_one_shard() {
    let run = supervisor(4, Schedule::Steal).run(&suite());
    let factory = |code: &str| ExperimentId::parse(code).map(ExperimentId::spec);
    let report = replay::replay(&run.telemetry.events, &factory).expect("replayable journal");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.experiments, vec!["f1", "t2", "f4", "f5"]);
}

// ---------------------------------------------------------------------
// Property: steal == static over random spec lists and seeds
// ---------------------------------------------------------------------

/// Deterministic always-succeeding jobs (so the breaker — whose trip
/// order is legitimately schedule-dependent under persistent failures —
/// never engages) with per-spec telemetry that makes reordering visible.
fn synthetic_specs(n: usize, events_per_job: u64) -> Vec<ExperimentSpec> {
    (0..n)
        .map(|i| {
            let code = format!("syn{i}");
            let owned = code.clone();
            ExperimentSpec::new(&code, format!("synthetic {i}"), "bench", move |plan, tel| {
                let faults = (0..32)
                    .filter(|&s| {
                        plan.draw(s, humnet::resilience::FaultKind::LinkOutage).is_some()
                    })
                    .count() as u64;
                for e in 0..events_per_job {
                    tel.event(Event::new("milestone", format!("{owned} step {e}")).with_step(e));
                }
                tel.counter("job.calls", 1);
                Ok::<JobOutput, JobError>(JobOutput {
                    rendered: format!("{owned}: faults={faults}"),
                    faults_injected: faults,
                })
            })
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonical journal, canonical report, and outputs of a steal run
    /// equal the static 1-shard run for any spec count, seed, and worker
    /// count — the invariance guarantee the post-sort provides.
    #[test]
    fn steal_output_equals_static_output(
        jobs in 1usize..14,
        events_per_job in 0u64..4,
        seed in 0u64..1_000_000,
        workers in 1u32..8,
    ) {
        let specs = synthetic_specs(jobs, events_per_job);
        let config = humnet::resilience::RunnerConfig {
            profile: FaultProfile::Chaos,
            seed,
            deadline: Duration::from_secs(10),
            ..Default::default()
        };
        let single = Supervisor::builder().config(config).build().run(&specs);
        let stolen = Supervisor::builder()
            .config(config)
            .shards(workers)
            .schedule(Schedule::Steal)
            .build()
            .run(&specs);
        prop_assert_eq!(
            single.telemetry.canonical_events(),
            stolen.telemetry.canonical_events()
        );
        prop_assert_eq!(single.report.canonical(), stolen.report.canonical());
        prop_assert_eq!(&single.outputs, &stolen.outputs);
    }
}

// ---------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------

#[test]
fn more_workers_than_jobs_is_fine_under_steal() {
    let specs = synthetic_specs(2, 1);
    let run = Supervisor::builder()
        .seed(9)
        .shards(8)
        .schedule(Schedule::Steal)
        .build()
        .run(&specs);
    assert_eq!(run.report.experiments.len(), 2);
    assert_eq!(run.report.exit_code(), 0);
    // The runtime clamps to one worker per job.
    assert_eq!(run.telemetry.metrics.counters["runner.steal.workers"], 2);
}

#[test]
fn zero_shards_is_a_typed_error_not_a_panic() {
    assert_eq!(ShardPlan::try_new(0), Err(ShardPlanError::ZeroShards));
    assert!(ShardPlan::try_new(0).unwrap_err().to_string().contains("at least one"));
    assert_eq!(ShardPlan::try_new(3).map(|p| p.shards()), Ok(3));
    // The clamping constructor keeps its lenient contract.
    assert_eq!(ShardPlan::new(0).shards(), 1);
}

#[test]
fn steal_runs_empty_spec_lists() {
    let run = Supervisor::builder()
        .schedule(Schedule::Steal)
        .shards(4)
        .build()
        .run(&[]);
    assert!(run.report.experiments.is_empty());
    assert_eq!(run.telemetry.events.first().unwrap().kind, "run-start");
    assert_eq!(run.telemetry.events.last().unwrap().kind, "run-end");
}

#[test]
fn a_timed_out_job_does_not_stall_the_steal_run() {
    let mut specs = synthetic_specs(5, 0);
    specs.insert(
        0,
        ExperimentSpec::new("stuck", "sleeps past the deadline", "slow", |_plan, _tel| {
            std::thread::sleep(Duration::from_secs(5));
            Ok::<JobOutput, JobError>(JobOutput {
                rendered: String::new(),
                faults_injected: 0,
            })
        }),
    );
    let started = Instant::now();
    let run = Supervisor::builder()
        .retries(0)
        .deadline(Duration::from_millis(50))
        .shards(3)
        .schedule(Schedule::Steal)
        .build()
        .run(&specs);
    // The watchdog freed the run long before the stuck job's sleep ends.
    assert!(started.elapsed() < Duration::from_secs(4), "watchdog fired");
    let stuck = run.report.experiments.iter().find(|e| e.code == "stuck").unwrap();
    assert_eq!(stuck.status.label(), "timed-out");
    let ok = run
        .report
        .experiments
        .iter()
        .filter(|e| e.status.label() == "ok" || e.status.label() == "degraded")
        .count();
    assert_eq!(ok, 5, "every other job completed");
}
