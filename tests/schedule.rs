//! The in-process schedule's contracts, end to end:
//!
//! - A K-worker run over the real experiment suite is byte-identical —
//!   canonical journal, canonical report, outputs — to the 1-shard run of
//!   the same seed, and its capture replays cleanly.
//! - Property-style: K workers == 1 worker over random spec lists, seeds,
//!   and worker counts.
//! - Balance: a worker blocked on one experiment never holds the next
//!   one back, so a job waiting on a later job's signal is freed by a
//!   peer worker.
//! - Edge cases: more workers than jobs, empty spec lists, zero shards as
//!   a typed error, and a timed-out job not stalling the rest of the run.

mod common;

use common::{suite, supervisor};
use humnet::core::experiments::ExperimentId;
use humnet::resilience::{
    replay, ExperimentSpec, FaultProfile, JobError, JobOutput, RunnerConfig, ShardPlan,
    ShardPlanError, Supervisor,
};
use humnet::telemetry::Event;
use proptest::prelude::*;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Two workers over four specs: each worker runs several specs into one
/// journal, interleaved with the other's, so the spec-order assembly has
/// real work to do.
#[test]
fn two_worker_run_matches_single_shard_byte_for_byte() {
    let single = supervisor(1).run(&suite());
    let pair = supervisor(2).run(&suite());

    assert_eq!(
        single.telemetry.canonical_events(),
        pair.telemetry.canonical_events()
    );
    assert_eq!(single.report.canonical(), pair.report.canonical());
    assert_eq!(single.outputs, pair.outputs);
    assert!(single.report.total_faults() > 0, "chaos must inject");

    // Worker bookkeeping exists only on the sharded side and never leaks
    // into the canonical view.
    let counters = &pair.telemetry.metrics.counters;
    assert_eq!(counters["runner.shards"], 2);
    assert_eq!(
        counters["runner.shard.0.experiments"] + counters["runner.shard.1.experiments"],
        4
    );
    assert!(!single
        .telemetry
        .metrics
        .counters
        .keys()
        .any(|k| k.starts_with("runner.shard")));
    assert!(pair.telemetry.events.iter().any(|e| e.shard.is_some()));
}

#[test]
fn two_worker_capture_replays_cleanly_on_one_shard() {
    let run = supervisor(2).run(&suite());
    let factory = |code: &str| ExperimentId::parse(code).map(ExperimentId::spec);
    let report = replay::replay(&run.telemetry.events, &factory).expect("replayable journal");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.experiments, vec!["f1", "t2", "f4", "f5"]);
}

// ---------------------------------------------------------------------
// Property: K workers == 1 worker over random spec lists and seeds
// ---------------------------------------------------------------------

/// Deterministic always-succeeding jobs (so the breaker — whose trip
/// order legitimately depends on completion order under persistent
/// failures — never engages) with per-spec telemetry that makes
/// reordering visible.
fn synthetic_specs(n: usize, events_per_job: u64) -> Vec<ExperimentSpec> {
    (0..n)
        .map(|i| {
            let code = format!("syn{i}");
            let owned = code.clone();
            ExperimentSpec::new(
                &code,
                format!("synthetic {i}"),
                "bench",
                move |plan, tel| {
                    let faults = (0..32)
                        .filter(|&s| {
                            plan.draw(s, humnet::resilience::FaultKind::LinkOutage)
                                .is_some()
                        })
                        .count() as u64;
                    for e in 0..events_per_job {
                        tel.event(
                            Event::new("milestone", format!("{owned} step {e}")).with_step(e),
                        );
                    }
                    tel.counter("job.calls", 1);
                    Ok::<JobOutput, JobError>(JobOutput {
                        rendered: format!("{owned}: faults={faults}"),
                        faults_injected: faults,
                    })
                },
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonical journal, canonical report, and outputs of a K-worker run
    /// equal the 1-worker run for any spec count, seed, and K in 1..=8 —
    /// the invariance guarantee the spec-order assembly provides.
    #[test]
    fn k_worker_output_equals_one_worker_output(
        jobs in 1usize..14,
        events_per_job in 0u64..4,
        seed in 0u64..1_000_000,
        workers in 1u32..9,
    ) {
        let specs = synthetic_specs(jobs, events_per_job);
        let config = humnet::resilience::RunnerConfig {
            profile: FaultProfile::Chaos,
            seed,
            deadline: Duration::from_secs(10),
            ..Default::default()
        };
        let single = Supervisor::builder().config(config).build().run(&specs);
        let many = Supervisor::builder()
            .config(config)
            .shards(workers)
            .build()
            .run(&specs);
        prop_assert_eq!(
            single.telemetry.canonical_events(),
            many.telemetry.canonical_events()
        );
        prop_assert_eq!(single.report.canonical(), many.report.canonical());
        prop_assert_eq!(&single.outputs, &many.outputs);
    }
}

// ---------------------------------------------------------------------
// Balance
// ---------------------------------------------------------------------

/// Spec 0 blocks until spec 1 has run. A worker holds only the spec it
/// is running, so while one worker waits in spec 0 the other claims
/// spec 1 and frees it well inside the deadline. A contiguous partition
/// would queue spec 1 behind spec 0 on the same worker and time out.
#[test]
fn a_job_waiting_on_a_later_job_is_freed_by_a_peer_worker() {
    let signal = Arc::new((Mutex::new(false), Condvar::new()));
    let waiter = Arc::clone(&signal);
    let sender = Arc::clone(&signal);
    let mut specs = vec![
        ExperimentSpec::new("waits", "waits for the signal", "a", move |_plan, _tel| {
            let (sent, cv) = &*waiter;
            let guard = sent.lock().unwrap();
            let (guard, _) = cv
                .wait_timeout_while(guard, Duration::from_secs(5), |sent| !*sent)
                .unwrap();
            if *guard {
                Ok(JobOutput {
                    rendered: "signalled".to_owned(),
                    faults_injected: 0,
                })
            } else {
                Err::<JobOutput, JobError>("no signal within 5 s".into())
            }
        }),
        ExperimentSpec::new("signals", "sends the signal", "b", move |_plan, _tel| {
            let (sent, cv) = &*sender;
            *sent.lock().unwrap() = true;
            cv.notify_all();
            Ok::<JobOutput, JobError>(JobOutput {
                rendered: "sent".to_owned(),
                faults_injected: 0,
            })
        }),
    ];
    specs.extend(synthetic_specs(2, 0));
    let run = Supervisor::builder()
        .config(RunnerConfig {
            retries: 0,
            deadline: Duration::from_secs(1),
            ..RunnerConfig::default()
        })
        .shards(2)
        .build()
        .run(&specs);
    let statuses: Vec<&str> = run
        .report
        .experiments
        .iter()
        .map(|e| e.status.label())
        .collect();
    assert_eq!(statuses, vec!["ok"; 4], "{}", run.report.canonical());
}

// ---------------------------------------------------------------------
// Edge cases
// ---------------------------------------------------------------------

#[test]
fn more_workers_than_jobs_is_fine() {
    let specs = synthetic_specs(2, 1);
    let run = Supervisor::builder()
        .config(RunnerConfig {
            seed: 9,
            ..RunnerConfig::default()
        })
        .shards(8)
        .build()
        .run(&specs);
    assert_eq!(run.report.experiments.len(), 2);
    assert_eq!(run.report.exit_code(), 0);
    // The layout records the configured shards, but the run starts at
    // most one worker per job.
    let counters = &run.telemetry.metrics.counters;
    assert_eq!(counters["runner.shards"], 8);
    assert_eq!(
        counters["runner.shard.0.experiments"] + counters["runner.shard.1.experiments"],
        2
    );
    assert!(!counters.contains_key("runner.shard.2.experiments"));
}

#[test]
fn zero_shards_is_a_typed_error_not_a_panic() {
    assert_eq!(ShardPlan::try_new(0), Err(ShardPlanError::ZeroShards));
    assert!(ShardPlan::try_new(0)
        .unwrap_err()
        .to_string()
        .contains("at least one"));
    assert_eq!(ShardPlan::try_new(3).map(|p| p.shards()), Ok(3));
    // The clamping constructor keeps its lenient contract.
    assert_eq!(ShardPlan::new(0).shards(), 1);
}

#[test]
fn sharded_runs_accept_empty_spec_lists() {
    let run = Supervisor::builder().shards(4).build().run(&[]);
    assert!(run.report.experiments.is_empty());
    assert_eq!(run.telemetry.events.first().unwrap().kind, "run-start");
    assert_eq!(run.telemetry.events.last().unwrap().kind, "run-end");
}

#[test]
fn a_timed_out_job_does_not_stall_the_run() {
    let mut specs = synthetic_specs(5, 0);
    specs.insert(
        0,
        ExperimentSpec::new(
            "stuck",
            "sleeps past the deadline",
            "slow",
            |_plan, _tel| {
                std::thread::sleep(Duration::from_secs(5));
                Ok::<JobOutput, JobError>(JobOutput {
                    rendered: String::new(),
                    faults_injected: 0,
                })
            },
        ),
    );
    let started = Instant::now();
    let run = Supervisor::builder()
        .config(RunnerConfig {
            retries: 0,
            deadline: Duration::from_millis(50),
            ..RunnerConfig::default()
        })
        .shards(3)
        .build()
        .run(&specs);
    // The watchdog freed the run long before the stuck job's sleep ends.
    assert!(started.elapsed() < Duration::from_secs(4), "watchdog fired");
    let stuck = run
        .report
        .experiments
        .iter()
        .find(|e| e.code == "stuck")
        .unwrap();
    assert_eq!(stuck.status.label(), "timed-out");
    let ok = run
        .report
        .experiments
        .iter()
        .filter(|e| e.status.label() == "ok" || e.status.label() == "degraded")
        .count();
    assert_eq!(ok, 5, "every other job completed");
}
