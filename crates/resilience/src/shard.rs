//! Sharded supervised runs.
//!
//! A [`ShardPlan`] partitions the experiment list into contiguous,
//! balanced slices, one per shard. Each shard runs on its own thread with
//! its own [`Supervisor`] (and therefore its own circuit breaker), and
//! [`merge_runs`] folds the per-shard [`SupervisedRun`]s back into a
//! single run-level view: counters add, histograms merge bucket-wise,
//! spans merge by name, and per-shard journals concatenate in
//! `(shard, seq)` order.
//!
//! ## Shard invariance
//!
//! Every per-experiment decision — the fault plan seed, the retry jitter
//! stream — is derived from `(config seed, experiment code, attempt)`
//! alone, and shards receive *contiguous* slices in the original spec
//! order, so the merged canonical journal, canonical report, and rendered
//! outputs of a K-shard run are byte-identical to the 1-shard run of the
//! same seed. What is **not** shard-invariant: the `runner.shard.<k>.*`
//! metrics (they describe the shard layout itself), the `shard` field on
//! journal events (excluded from the canonical form), wall-clock
//! durations, and circuit-breaker behavior when a family keeps failing —
//! breakers are per-shard, so failures spread across shards may trip
//! later (or never) compared to a single-shard run.

use crate::report::RunReport;
use crate::runner::{
    pool_execute, run_start_detail, ExperimentSpec, QuietPanics, RunnerConfig, SupervisedRun,
    Supervisor,
};
use crate::schedule::{run_stealing, Schedule};
use humnet_telemetry::{spec_order_in_place, Event, Telemetry};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

/// A deterministic partition of `n` experiments across `shards` workers:
/// contiguous slices in input order, sizes differing by at most one, with
/// the earlier shards taking the remainder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    shards: u32,
}

/// Rejected [`ShardPlan`] parameters ([`ShardPlan::try_new`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPlanError {
    /// A plan needs at least one shard to place work on.
    ZeroShards,
}

impl fmt::Display for ShardPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardPlanError::ZeroShards => write!(f, "shard plan requires at least one shard"),
        }
    }
}

impl std::error::Error for ShardPlanError {}

impl ShardPlan {
    /// Plan for `shards` workers (clamped to at least 1). Use
    /// [`ShardPlan::try_new`] to reject zero instead of clamping.
    pub fn new(shards: u32) -> Self {
        ShardPlan {
            shards: shards.max(1),
        }
    }

    /// Plan for `shards` workers, rejecting `shards == 0` with a typed
    /// error instead of clamping (for callers validating user input, e.g.
    /// a `--shards` flag).
    pub fn try_new(shards: u32) -> Result<Self, ShardPlanError> {
        if shards == 0 {
            return Err(ShardPlanError::ZeroShards);
        }
        Ok(ShardPlan { shards })
    }

    /// Number of shards the plan partitions across.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// The index range shard `k` owns out of `n` items. Ranges are
    /// contiguous, disjoint, cover `0..n` exactly, and balanced to within
    /// one item. Shards beyond `n` receive empty ranges.
    pub fn range(&self, k: u32, n: usize) -> Range<usize> {
        let shards = self.shards as usize;
        let k = k as usize;
        let base = n / shards;
        let extra = n % shards;
        let start = k * base + k.min(extra);
        let len = base + usize::from(k < extra);
        start..(start + len).min(n)
    }

    /// All shard ranges for `n` items, in shard order.
    pub fn ranges(&self, n: usize) -> Vec<Range<usize>> {
        (0..self.shards).map(|k| self.range(k, n)).collect()
    }

    /// Clone-partition `items` into one owned slice per shard.
    pub fn assign<T: Clone>(&self, items: &[T]) -> Vec<Vec<T>> {
        self.ranges(items.len())
            .into_iter()
            .map(|r| items[r].to_vec())
            .collect()
    }
}

/// Fan `specs` out across `shards` workers under the given schedule.
/// [`Schedule::Steal`] delegates to [`run_stealing`]; [`Schedule::Static`]
/// runs each contiguous slice on a pooled worker thread with its own
/// [`Supervisor`], then folds the per-shard runs with [`merge_runs`]. The
/// quiet panic hook is installed once here (it filters by worker-thread
/// name, so it covers every shard's workers); shard supervisors must not
/// reinstall it or the global hook lock would serialize the shards.
pub fn run_sharded(
    config: RunnerConfig,
    shards: u32,
    schedule: Schedule,
    specs: &[ExperimentSpec],
) -> SupervisedRun {
    if schedule == Schedule::Steal {
        return run_stealing(config, shards, specs);
    }
    let _quiet = config.quiet_panics.then(QuietPanics::install);
    let plan = ShardPlan::new(shards);
    let mut ranges = plan.ranges(specs.len()).into_iter().enumerate();
    // Shard 0 runs inline on the calling thread — it would only block on
    // joins otherwise, and skipping one dispatch/join round trip matters
    // on small chunks.
    let first = ranges.next();
    let handles: Vec<_> = ranges
        .map(|(k, range)| {
            let base = range.start;
            let chunk = specs[range].to_vec();
            pool_execute(move || {
                Supervisor::builder().config(config).build().run_shard(&chunk, k as u32, base)
            })
        })
        .collect();
    let mut shard_runs: Vec<SupervisedRun> = Vec::with_capacity(plan.shards() as usize);
    if let Some((k, range)) = first {
        let base = range.start;
        let mut supervisor = Supervisor::builder().config(config).build();
        shard_runs.push(supervisor.run_shard(&specs[range], k as u32, base));
    }
    shard_runs.extend(
        handles
            .into_iter()
            .map(|h| h.join().expect("shard supervisor never panics")),
    );
    merge_runs(&config, shard_runs)
}

/// Fold per-shard [`SupervisedRun`]s (in shard order) into one run-level
/// run: reports concatenate, outputs union, telemetry merges through the
/// associative `TelemetrySnapshot::merge`, and the run-level
/// `run-start`/`run-end` boundary events plus report metrics are recorded
/// exactly once. The merged journal is canonicalized with
/// [`spec_order_in_place`] — a stable `(spec index, seq)` sort that's a
/// free sweep when the input is already ordered — so the result matches
/// what a single supervisor over the concatenated specs would have
/// produced even when the shards completed their slices in an arbitrary
/// order.
pub fn merge_runs(config: &RunnerConfig, shard_runs: Vec<SupervisedRun>) -> SupervisedRun {
    let total: usize = shard_runs.iter().map(|r| r.report.experiments.len()).sum();
    let tel = Telemetry::new();
    tel.event(Event::new("run-start", run_start_detail(config, total)));
    tel.counter("runner.shards", shard_runs.len() as u64);
    let mut report = RunReport {
        experiments: Vec::with_capacity(total),
        profile: config.profile.label().to_owned(),
        seed: config.seed,
        code_rev: crate::code_rev(),
    };
    let mut outputs = BTreeMap::new();
    for run in shard_runs {
        report.absorb(run.report);
        outputs.extend(run.outputs);
        tel.absorb(run.telemetry, "");
    }
    report.record_metrics(&tel);
    tel.event(Event::new("run-end", report.summary_line()));
    let mut telemetry = tel.into_snapshot();
    spec_order_in_place(&mut telemetry.events);
    SupervisedRun {
        report,
        outputs,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::runner::{JobError, JobOutput};
    use std::time::Duration;

    #[test]
    fn plan_partitions_exactly_and_balanced() {
        for shards in 1..=7u32 {
            for n in 0..40usize {
                let plan = ShardPlan::new(shards);
                let ranges = plan.ranges(n);
                assert_eq!(ranges.len(), shards as usize);
                // Contiguous cover of 0..n.
                let mut cursor = 0;
                for r in &ranges {
                    assert_eq!(r.start, cursor);
                    cursor = r.end;
                }
                assert_eq!(cursor, n);
                // Balanced to within one item.
                let sizes: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
                let (lo, hi) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
                assert!(hi - lo <= 1, "shards={shards} n={n} sizes={sizes:?}");
            }
        }
    }

    #[test]
    fn zero_shards_clamps_to_one() {
        let plan = ShardPlan::new(0);
        assert_eq!(plan.shards(), 1);
        assert_eq!(plan.ranges(5), vec![0..5]);
    }

    fn counting_spec(code: &str) -> ExperimentSpec {
        let owned = code.to_owned();
        ExperimentSpec::new(code, format!("title {code}"), "fam", move |plan, tel| {
            let faults = (0..40)
                .filter(|&s| plan.draw(s, crate::fault::FaultKind::LinkOutage).is_some())
                .count() as u64;
            tel.counter("job.calls", 1);
            tel.event(Event::new("milestone", format!("{owned} done")));
            Ok::<JobOutput, JobError>(JobOutput {
                rendered: format!("{owned}: faults={faults}"),
                faults_injected: faults,
            })
        })
    }

    fn config() -> RunnerConfig {
        RunnerConfig {
            retries: 1,
            deadline: Duration::from_secs(10),
            profile: FaultProfile::Chaos,
            seed: 77,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn sharded_run_matches_single_shard_canonically() {
        let specs: Vec<ExperimentSpec> =
            (0..9).map(|i| counting_spec(&format!("e{i}"))).collect();
        let single = Supervisor::builder().config(config()).shards(1).build().run(&specs);
        let sharded = Supervisor::builder().config(config()).shards(4).build().run(&specs);
        assert_eq!(single.report.canonical(), sharded.report.canonical());
        assert_eq!(single.outputs, sharded.outputs);
        assert_eq!(
            single.telemetry.canonical_events(),
            sharded.telemetry.canonical_events()
        );
        // Shard-invariant counters agree; the shard-layout ones exist only
        // on the sharded side.
        assert_eq!(
            single.telemetry.metrics.counters["job.calls"],
            sharded.telemetry.metrics.counters["job.calls"]
        );
        assert_eq!(sharded.telemetry.metrics.counters["runner.shards"], 4);
        assert_eq!(sharded.telemetry.metrics.counters["runner.shard.0.experiments"], 3);
        assert!(!single.telemetry.metrics.counters.contains_key("runner.shards"));
    }

    #[test]
    fn sharded_events_carry_shard_ids_in_plan_order() {
        let specs: Vec<ExperimentSpec> =
            (0..6).map(|i| counting_spec(&format!("e{i}"))).collect();
        let run = Supervisor::builder().config(config()).shards(3).build().run(&specs);
        // run-start / run-end are merge-level (no shard); everything else
        // is stamped, and shard ids are nondecreasing through the journal.
        assert_eq!(run.telemetry.events.first().unwrap().shard, None);
        assert_eq!(run.telemetry.events.last().unwrap().shard, None);
        let shards: Vec<u32> = run
            .telemetry
            .events
            .iter()
            .filter_map(|e| e.shard)
            .collect();
        assert!(!shards.is_empty());
        assert!(shards.windows(2).all(|w| w[0] <= w[1]), "{shards:?}");
        assert_eq!(shards.iter().copied().max(), Some(2));
    }

    #[test]
    fn more_shards_than_specs_is_fine() {
        let specs = vec![counting_spec("only")];
        let run = Supervisor::builder().config(config()).shards(8).build().run(&specs);
        assert_eq!(run.report.experiments.len(), 1);
        assert_eq!(run.report.exit_code(), 0);
        assert_eq!(run.telemetry.metrics.counters["runner.shards"], 8);
    }

    #[test]
    fn merge_runs_of_empty_input_is_a_valid_empty_run() {
        let merged = merge_runs(&config(), Vec::new());
        assert!(merged.report.experiments.is_empty());
        assert_eq!(merged.telemetry.events.first().unwrap().kind, "run-start");
        assert_eq!(merged.telemetry.events.last().unwrap().kind, "run-end");
    }
}
