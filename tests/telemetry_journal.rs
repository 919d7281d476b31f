//! The telemetry journal contract: a supervised run's event stream is
//! seed-stable (same seed => identical event sequence, timings excluded),
//! and the journal survives a JSONL round-trip through the vendored
//! serde_json bit-for-bit.

use humnet::core::experiments::ExperimentId;
use humnet::resilience::{ExperimentSpec, FaultProfile, RunnerConfig, Supervisor};
use humnet::telemetry::journal::{from_jsonl, to_jsonl};
use std::time::Duration;

/// A cross-family subset of real experiments plus one always-failing
/// synthetic family, so the journal exercises fault, retry, breaker-open,
/// and breaker-skip events in a single fast run.
fn specs() -> Vec<ExperimentSpec> {
    let mut specs: Vec<ExperimentSpec> = [ExperimentId::F1, ExperimentId::T2, ExperimentId::F5]
        .into_iter()
        .map(ExperimentId::spec)
        .collect();
    for code in ["syn1", "syn2"] {
        specs.push(ExperimentSpec::new(
            code,
            "always fails",
            "synthetic",
            |_plan, _tel| Err("synthetic failure".into()),
        ));
    }
    specs
}

fn supervisor(seed: u64) -> Supervisor {
    Supervisor::builder()
        .config(RunnerConfig {
            retries: 1,
            deadline: Duration::from_secs(30),
            profile: FaultProfile::Chaos,
            seed,
            breaker_threshold: 1,
            ..RunnerConfig::default()
        })
        .build()
}

#[test]
fn same_seed_runs_produce_identical_event_sequences() {
    let a = supervisor(99).run(&specs());
    let b = supervisor(99).run(&specs());
    assert!(!a.telemetry.events.is_empty());
    assert_eq!(a.telemetry.events.len(), b.telemetry.events.len());
    assert_eq!(
        a.telemetry.canonical_events(),
        b.telemetry.canonical_events()
    );

    // A different seed draws a different fault schedule.
    let c = supervisor(100).run(&specs());
    assert_ne!(
        a.telemetry.canonical_events(),
        c.telemetry.canonical_events()
    );
}

#[test]
fn journal_covers_faults_retries_and_breaker_trips() {
    let run = supervisor(99).run(&specs());
    let kinds: Vec<&str> = run
        .telemetry
        .events
        .iter()
        .map(|e| e.kind.as_str())
        .collect();
    for expected in [
        "run-start",
        "experiment-start",
        "fault",
        "milestone",
        "retry",
        "attempt-error",
        "breaker-open",
        "breaker-skip",
        "experiment-end",
        "run-end",
    ] {
        assert!(
            kinds.contains(&expected),
            "missing event kind {expected:?} in {kinds:?}"
        );
    }
    // Sequence numbers are dense and ordered.
    for (i, e) in run.telemetry.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64);
    }
    // Worker-side events carry their experiment scope.
    assert!(run
        .telemetry
        .events
        .iter()
        .any(|e| e.kind == "fault" && !e.experiment.is_empty()));
}

#[test]
fn journal_round_trips_through_jsonl() {
    let run = supervisor(7).run(&specs());
    let jsonl = to_jsonl(&run.telemetry.events).expect("serialize");
    assert!(!jsonl.trim().is_empty());
    assert_eq!(jsonl.trim().lines().count(), run.telemetry.events.len());
    let reread = from_jsonl(&jsonl).expect("parse");
    assert_eq!(reread, run.telemetry.events);
    // And the full snapshot serializer agrees with the standalone one.
    assert_eq!(run.telemetry.to_jsonl().expect("snapshot jsonl"), jsonl);
}
