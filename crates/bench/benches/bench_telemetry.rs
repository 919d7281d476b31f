//! Telemetry overhead on the two hottest simulator paths the new
//! histograms surfaced: the agenda sim step loop (`agenda.step_ns`) and
//! the IXP scenario route-and-assign step (`ixp.route_assign_ns`).
//!
//! Each path is timed with disabled telemetry (what every caller passing
//! `Telemetry::disabled()` pays) and fully instrumented. Micro-benches at
//! the bottom price the individual primitives. Baselines live in
//! `BENCH_telemetry.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use humnet_agenda::AgendaSim;
use humnet_bench::small_agenda;
use humnet_ixp::{MexicoConfig, MexicoScenario};
use humnet_resilience::NoFaults;
use humnet_telemetry::Telemetry;

fn bench_agenda(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_agenda_step");
    group.bench_function("agenda_run_instrumented_disabled", |b| {
        let tel = Telemetry::disabled();
        b.iter(|| {
            let mut sim = AgendaSim::new(small_agenda(1)).unwrap();
            sim.run(&mut NoFaults, &tel).unwrap();
            black_box(sim.history().last().cloned())
        })
    });
    group.bench_function("agenda_run_instrumented_enabled", |b| {
        b.iter(|| {
            let tel = Telemetry::new();
            let mut sim = AgendaSim::new(small_agenda(1)).unwrap();
            sim.run(&mut NoFaults, &tel).unwrap();
            black_box(tel.snapshot())
        })
    });
    group.finish();
}

fn bench_ixp(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_ixp_scenario");
    let cfg = MexicoConfig::default();
    // "bare" is the fault-free run with disabled telemetry: the baseline
    // the instrumented variant is compared against.
    group.bench_function("mexico_run_bare", |b| {
        let tel = Telemetry::disabled();
        b.iter(|| {
            black_box(
                MexicoScenario::run(&cfg, &mut NoFaults, &tel)
                    .unwrap()
                    .flows
                    .len(),
            )
        })
    });
    group.bench_function("mexico_run_instrumented_enabled", |b| {
        b.iter(|| {
            let tel = Telemetry::new();
            let out = MexicoScenario::run(&cfg, &mut NoFaults, &tel).unwrap();
            black_box((out.flows.len(), tel.snapshot()))
        })
    });
    group.finish();
}

fn bench_primitives(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_primitives");
    let enabled = Telemetry::new();
    let disabled = Telemetry::disabled();
    group.bench_function("counter_enabled", |b| {
        b.iter(|| enabled.counter(black_box("bench.counter"), 1))
    });
    group.bench_function("counter_disabled", |b| {
        b.iter(|| disabled.counter(black_box("bench.counter"), 1))
    });
    group.bench_function("observe_enabled", |b| {
        let mut v = 0u64;
        b.iter(|| {
            v = v.wrapping_add(17);
            enabled.observe(black_box("bench.histogram_ns"), v);
        })
    });
    group.bench_function("observe_disabled", |b| {
        b.iter(|| disabled.observe(black_box("bench.histogram_ns"), 42))
    });
    group.bench_function("span_enter_exit_enabled", |b| {
        b.iter(|| {
            let _g = enabled.span("bench.span");
        })
    });
    group.bench_function("span_enter_exit_disabled", |b| {
        b.iter(|| {
            let _g = disabled.span("bench.span");
        })
    });
    group.finish();
}

criterion_group!(benches, bench_agenda, bench_ixp, bench_primitives);
criterion_main!(benches);
