//! Sharded supervised runs.
//!
//! With `shards(K)` above 1, [`Supervisor::run`](crate::Supervisor::run)
//! starts `min(K, n)` workers over one shared queue
//! ([`fan_out`](crate::fan_out)): each worker claims the next spec, runs
//! it, and comes back for another until the list is exhausted. A worker
//! never holds more than the spec it is running, so one slow experiment
//! delays only its own worker while the others drain the rest. Worker 0
//! runs on the calling thread; the others run on pooled threads, and all
//! of them share one circuit breaker.
//!
//! ## Shard invariance
//!
//! Every per-experiment decision — the fault plan seed, the retry jitter
//! stream — is derived from `(config seed, experiment code, attempt)`
//! alone. The run folds what depends on order — each spec's journal
//! lines, stamped with the spec's index, and its gauges — in spec order,
//! and each worker's counters, histograms and spans, which add up in any
//! order, once: report rows, outputs, journal lines, counters,
//! last-written gauges and histograms come out as the 1-shard run's,
//! whichever worker claimed which spec. What is **not** shard-invariant:
//! the `runner.shard.<w>.*` metrics (they count what worker `w` claimed),
//! the `shard` field on journal events (the worker index, excluded from
//! the canonical form), wall-clock durations, and circuit-breaker
//! behavior when a family keeps failing — the breaker is shared, so which
//! failure trips it depends on completion order.
//!
//! [`ShardPlan`] is the contiguous partition the cross-process
//! [`crate::dispatch`] and [`crate::remote`] tiers hand their shards.

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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultProfile;
    use crate::runner::{ExperimentSpec, JobError, JobOutput, RunnerConfig, Supervisor};
    use humnet_telemetry::Event;
    use std::time::Duration;

    #[test]
    fn plan_partitions_exactly_and_balanced() {
        for shards in 1..=7u32 {
            for n in 0..40usize {
                let plan = ShardPlan::new(shards);
                let ranges: Vec<Range<usize>> = (0..shards).map(|k| plan.range(k, n)).collect();
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
        assert_eq!(plan.range(0, 5), 0..5);
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
        let specs: Vec<ExperimentSpec> = (0..9).map(|i| counting_spec(&format!("e{i}"))).collect();
        let single = Supervisor::builder()
            .config(config())
            .shards(1)
            .build()
            .run(&specs);
        let sharded = Supervisor::builder()
            .config(config())
            .shards(4)
            .build()
            .run(&specs);
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
        let claimed: u64 = (0..4)
            .map(|w| sharded.telemetry.metrics.counters[&format!("runner.shard.{w}.experiments")])
            .sum();
        assert_eq!(claimed, 9, "every spec is claimed by exactly one worker");
        assert!(!single
            .telemetry
            .metrics
            .counters
            .contains_key("runner.shards"));
    }

    #[test]
    fn sharded_metrics_match_single_shard() {
        // Every spec sets the same gauge, so the value left standing names
        // the last spec folded. The jobs sleep 0, 1 or 2 ms, so the four
        // workers interleave and the last spec to finish is seldom the
        // last spec.
        let specs: Vec<ExperimentSpec> = (0..64u32)
            .map(|i| {
                ExperimentSpec::new(format!("g{i}"), "t", "fam", move |_plan, tel| {
                    std::thread::sleep(Duration::from_millis(u64::from(i % 3)));
                    tel.counter("job.calls", 1);
                    tel.gauge("job.spec", f64::from(i));
                    tel.observe("job.spec", u64::from(i));
                    Ok::<JobOutput, JobError>(JobOutput {
                        rendered: String::new(),
                        faults_injected: 0,
                    })
                })
            })
            .collect();
        let metrics = |shards| {
            let run = Supervisor::builder()
                .config(config())
                .shards(shards)
                .build()
                .run(&specs);
            let mut metrics = run.telemetry.metrics;
            metrics
                .counters
                .retain(|name, _| !name.starts_with("runner.shard"));
            let counts: Vec<(String, u64)> = metrics
                .histograms
                .iter()
                .map(|(name, h)| (name.clone(), h.count))
                .collect();
            (metrics.counters, metrics.gauges, counts)
        };
        let single = metrics(1);
        assert_eq!(single.1["job.spec"], 63.0);
        for round in 0..8 {
            assert_eq!(metrics(4), single, "round {round}");
        }
    }

    #[test]
    fn sharded_events_carry_worker_ids() {
        let specs: Vec<ExperimentSpec> = (0..6).map(|i| counting_spec(&format!("e{i}"))).collect();
        let run = Supervisor::builder()
            .config(config())
            .shards(3)
            .build()
            .run(&specs);
        // run-start / run-end are run-level (no shard); every other event
        // names the worker that ran its spec.
        let events = &run.telemetry.events;
        assert_eq!(events.first().unwrap().shard, None);
        assert_eq!(events.last().unwrap().shard, None);
        let body = &events[1..events.len() - 1];
        assert!(!body.is_empty());
        assert!(
            body.iter().all(|e| e.shard.is_some_and(|w| w < 3)),
            "{:?}",
            body.iter().map(|e| e.shard).collect::<Vec<_>>()
        );
    }

    #[test]
    fn more_shards_than_specs_is_fine() {
        let specs = vec![counting_spec("only")];
        let run = Supervisor::builder()
            .config(config())
            .shards(8)
            .build()
            .run(&specs);
        assert_eq!(run.report.experiments.len(), 1);
        assert_eq!(run.report.exit_code(), 0);
        assert_eq!(run.telemetry.metrics.counters["runner.shards"], 8);
    }
}
