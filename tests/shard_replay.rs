//! Sharding and replay contracts, end to end:
//!
//! - `TelemetrySnapshot::merge` is associative and (for the metrics half)
//!   order-insensitive, so any shard count and any fold order yields the
//!   same run-level view — checked property-style over randomized shard
//!   splits of randomized observation streams.
//! - A captured chaos journal replays with zero divergences (a 4-shard
//!   capture too), and a recorded fault schedule reproduces the run it
//!   was extracted from.
//!
//! That a 4-shard run's canonical journal, report and outputs are
//! byte-identical to the 1-shard run's is the `run --shards 4` row of
//! `tests/contract.rs`.

mod common;

use common::{suite, supervisor};
use humnet::core::experiments::ExperimentId;
use humnet::resilience::{replay, ExperimentSpec, RecordedFault, RecordedFaults, ShardPlan};
use humnet::telemetry::{Telemetry, TelemetrySnapshot};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Merge algebra
// ---------------------------------------------------------------------

/// Build a snapshot from a stream of (value) observations plus a counter,
/// the way a shard worker would.
fn snapshot_of(values: &[u64]) -> TelemetrySnapshot {
    let tel = Telemetry::new();
    for &v in values {
        tel.observe("job.latency_ms", v);
        tel.counter("job.calls", 1);
    }
    tel.snapshot()
}

/// Merge a list of snapshots left to right into one.
fn fold(snaps: &[TelemetrySnapshot]) -> TelemetrySnapshot {
    let mut acc = TelemetrySnapshot::default();
    for s in snaps {
        acc.merge(s, "");
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Splitting one observation stream across any shard layout and
    /// merging the per-shard snapshots — in shard order or reversed —
    /// reconstructs the unsharded metrics exactly: counters, histogram
    /// counts/sums/maxima, buckets, and therefore every quantile.
    #[test]
    fn snapshot_merge_is_shard_split_invariant(
        values in prop::collection::vec(0u64..100_000, 1..120),
        shards in 1u32..8,
    ) {
        let whole = snapshot_of(&values);
        let plan = ShardPlan::new(shards);
        let parts: Vec<TelemetrySnapshot> = (0..shards)
            .map(|k| snapshot_of(&values[plan.range(k, values.len())]))
            .collect();

        let merged = fold(&parts);
        prop_assert_eq!(&merged.metrics, &whole.metrics);

        // Order-insensitive for the metrics half: fold the shards in
        // reverse and the histograms (hence all quantile buckets) agree.
        let reversed: Vec<TelemetrySnapshot> = parts.iter().rev().cloned().collect();
        let merged_rev = fold(&reversed);
        prop_assert_eq!(&merged_rev.metrics, &whole.metrics);
        let h = &merged.metrics.histograms["job.latency_ms"];
        let hr = &merged_rev.metrics.histograms["job.latency_ms"];
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            prop_assert_eq!(h.quantile(q), hr.quantile(q));
        }
    }

    /// merge is associative: (a + b) + c == a + (b + c), snapshots whole
    /// (metrics AND events — event order is fixed by the fold sequence,
    /// which both sides share).
    #[test]
    fn snapshot_merge_is_associative(
        a in prop::collection::vec(0u64..10_000, 0..40),
        b in prop::collection::vec(0u64..10_000, 0..40),
        c in prop::collection::vec(0u64..10_000, 0..40),
    ) {
        let (sa, sb, sc) = (snapshot_of(&a), snapshot_of(&b), snapshot_of(&c));

        let mut left = sa.clone();
        left.merge(&sb, "");
        left.merge(&sc, "");

        let mut right_tail = sb.clone();
        right_tail.merge(&sc, "");
        let mut right = sa.clone();
        right.merge(&right_tail, "");

        prop_assert_eq!(left, right);
    }
}

// ---------------------------------------------------------------------
// Replay round-trips
// ---------------------------------------------------------------------

fn factory(code: &str) -> Option<ExperimentSpec> {
    ExperimentId::parse(code).map(ExperimentId::spec)
}

#[test]
fn captured_chaos_journal_replays_with_zero_divergences() {
    let run = supervisor(1).run(&suite());
    let report = replay::replay(&run.telemetry.events, &factory).expect("replayable journal");
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.exit_code(), 0);
    assert_eq!(report.captured_events, report.replayed_events);
    assert_eq!(report.experiments, vec!["f1", "t2", "f4", "f5"]);
    // The replayed run regenerates the same rendered outputs.
    assert_eq!(report.run.outputs, run.outputs);
}

#[test]
fn sharded_capture_replays_cleanly_on_one_shard() {
    // Journals serialize the merged (shard, seq)-ordered stream, so a
    // 4-shard capture must replay cleanly through the 1-shard engine.
    let run = supervisor(4).run(&suite());
    let report = replay::replay(&run.telemetry.events, &factory).expect("replayable journal");
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn recorded_fault_schedule_reproduces_the_run() {
    // Extract the fault schedule for one experiment from a captured
    // journal and drive the experiment from the recording instead of a
    // live plan: outputs must match the original attempt exactly.
    let run = supervisor(1).run(&suite());
    let spec = replay::reconstruct(&run.telemetry.events).expect("reconstructible journal");
    let schedule: &[RecordedFault] = spec.faults.get("f5").map(Vec::as_slice).unwrap_or(&[]);
    assert!(!schedule.is_empty(), "chaos at seed 2025 faults f5");

    let mut hook = RecordedFaults::new(schedule);
    let replayed = ExperimentId::F5
        .run_hooked(&mut hook, &Telemetry::disabled())
        .expect("f5 runs");
    assert_eq!(Some(&replayed.rendered), run.outputs.get("f5"));
    assert_eq!(
        replayed.faults_injected,
        run.report
            .experiments
            .iter()
            .find(|e| e.code == "f5")
            .unwrap()
            .faults_injected
    );
}
