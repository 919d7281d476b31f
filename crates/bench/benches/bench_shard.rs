//! Sharded-run machinery costs: the pure merge path (folding N worker
//! telemetry snapshots into a run-level view) and the full supervisor
//! fan-out over cheap synthetic jobs at 1 / 2 / 4 / 8 shards. The merge
//! bench prices the aggregation itself; the run benches price the
//! per-worker overhead that `--shards` adds on top of the work (pooled
//! worker dispatch, the shared claim counter and breaker, per-attempt
//! reply channels), which is what decides the break-even job size.
//! Baselines live in `BENCH_shard.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use humnet_resilience::{
    ExperimentSpec, FaultKind, FaultProfile, JobError, JobOutput, RunnerConfig, Supervisor,
};
use humnet_telemetry::{Event, Telemetry, TelemetrySnapshot};
use std::time::Duration;

/// A per-shard snapshot shaped like real worker output: histogram
/// observations, counters, and a journal of milestone events.
fn shard_snapshot(shard: u64, events: u64) -> TelemetrySnapshot {
    let tel = Telemetry::new();
    for i in 0..events {
        tel.observe("job.latency_ms", shard * 37 + i * 13 % 4096);
        tel.counter("job.calls", 1);
        tel.event(Event::new("milestone", format!("s{shard} step {i}")));
    }
    tel.snapshot()
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_merge");
    for shards in [2u64, 8, 32] {
        let snaps: Vec<TelemetrySnapshot> = (0..shards).map(|k| shard_snapshot(k, 200)).collect();
        group.bench_function(format!("merge_{shards}_snapshots"), |b| {
            b.iter(|| {
                let mut acc = TelemetrySnapshot::default();
                for s in &snaps {
                    acc.merge(s, "");
                }
                black_box(acc.events.len())
            })
        });
    }
    group.finish();
}

/// Cheap deterministic job: a short fault-plan scan, no real simulator,
/// so the bench isolates supervisor + shard overhead.
fn synthetic_specs(n: usize) -> Vec<ExperimentSpec> {
    (0..n)
        .map(|i| {
            let code = format!("syn{i}");
            let owned = code.clone();
            ExperimentSpec::new(&code, "synthetic", "bench", move |plan, tel| {
                let faults = (0..64)
                    .filter(|&s| plan.draw(s, FaultKind::LinkOutage).is_some())
                    .count() as u64;
                tel.counter("job.calls", 1);
                Ok::<JobOutput, JobError>(JobOutput {
                    rendered: format!("{owned}: {faults}"),
                    faults_injected: faults,
                })
            })
        })
        .collect()
}

fn bench_sharded_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("shard_run");
    let specs = synthetic_specs(32);
    let config = RunnerConfig {
        profile: FaultProfile::Chaos,
        deadline: Duration::from_secs(10),
        seed: 7,
        ..RunnerConfig::default()
    };
    for shards in [1u32, 2, 4, 8] {
        group.bench_function(format!("run_32_jobs_{shards}_shards"), |b| {
            b.iter(|| {
                let run = Supervisor::builder()
                    .config(config)
                    .shards(shards)
                    .build()
                    .run(&specs);
                black_box(run.report.experiments.len())
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_merge, bench_sharded_run);
criterion_main!(benches);
