//! Scheduling costs of the one in-process schedule (workers claim the
//! next experiment from a shared counter), over a *skewed* job mix (a few
//! expensive jobs clustered at the front of the spec list, as in the real
//! experiment suite where T1, F2, F7 and F10 cost tens of ms and the rest
//! well under 1 ms) and over a uniform mix that prices the claim-and-fold
//! machinery itself. Jobs block on short sleeps, so workers overlap even
//! on a single-core runner and the wall-clock reflects load balance, not
//! CPU parallelism. Baselines live in `BENCH_schedule.json` at the repo
//! root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use humnet_bench::schedule_specs::{skewed_specs, uniform_specs};
use humnet_resilience::{ExperimentSpec, RunnerConfig, Supervisor};
use std::time::Duration;

fn bench_config() -> RunnerConfig {
    RunnerConfig {
        deadline: Duration::from_secs(10),
        seed: 7,
        ..RunnerConfig::default()
    }
}

fn run(specs: &[ExperimentSpec], workers: u32) -> usize {
    let run = Supervisor::builder()
        .config(bench_config())
        .shards(workers)
        .build()
        .run(specs);
    black_box(run.report.experiments.len())
}

/// Skewed mix: 4 heavy jobs (2 ms) at the head of the list, 12 light jobs
/// (200 µs) behind them. Workers that finish a light job claim the next
/// one, so the heavy jobs spread across workers and the wall-clock should
/// fall as workers are added.
fn bench_skewed(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_skew");
    let specs = skewed_specs(4, 12);
    for workers in [1u32, 2, 4, 8] {
        group.bench_function(format!("skew_16_jobs_{workers}w"), |b| {
            b.iter(|| run(&specs, workers))
        });
    }
    group.finish();
}

/// Uniform mix: 16 identical 200 µs jobs — no imbalance to exploit, so
/// this prices the shared counter, the per-worker snapshots and the
/// spec-order assembly.
fn bench_uniform(c: &mut Criterion) {
    let mut group = c.benchmark_group("schedule_uniform");
    let specs = uniform_specs(16);
    group.bench_function("uniform_16_jobs_4w", |b| b.iter(|| run(&specs, 4)));
    group.finish();
}

criterion_group!(benches, bench_skewed, bench_uniform);
criterion_main!(benches);
