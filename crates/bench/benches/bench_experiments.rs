//! One bench per experiment, driven by the `ExperimentId` registry: each
//! id runs with its canonical parameters through `run_instrumented`, with
//! no faults and telemetry disabled, exactly as a fault-free
//! `experiments run` executes it (minus the supervisor). Baselines live in
//! `BENCH_experiments.json` at the repo root, keyed `experiments/<code>`.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use humnet_core::experiments::ExperimentId;
use humnet_resilience::FaultPlan;
use humnet_telemetry::Telemetry;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("experiments");
    let plan = FaultPlan::none();
    let tel = Telemetry::disabled();
    for id in ExperimentId::ALL {
        group.bench_function(id.code(), |b| {
            b.iter(|| black_box(id.run_instrumented(&plan, &tel).expect("experiment runs")))
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
