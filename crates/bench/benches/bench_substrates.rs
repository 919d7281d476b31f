//! Micro-benchmarks of the substrate kernels every experiment leans on:
//! RNG, weighted samplers, inequality indices, policy routing and the
//! route-table digest.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use humnet_ixp::routing::reference::ReferenceTable;
use humnet_ixp::{
    synthetic_internet, AsKind, AsTopology, RegionTag, RoutingTable, TrafficConfig, TrafficMatrix,
};
use humnet_stats::{gini, CumulativeWeights, FenwickWeights, Rng};

fn bench_rng(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_rng");
    group.bench_function("next_u64_x1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0u64;
            for _ in 0..1000 {
                acc = acc.wrapping_add(rng.next_u64());
            }
            black_box(acc)
        })
    });
    group.bench_function("gaussian_x1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| {
            let mut acc = 0.0;
            for _ in 0..1000 {
                acc += rng.gaussian();
            }
            black_box(acc)
        })
    });
    group.bench_function("zipf_n1000", |b| {
        let mut rng = Rng::new(1);
        b.iter(|| black_box(rng.zipf(1000, 1.2)))
    });
    group.finish();
}

/// `CumulativeWeights` in the two shapes the experiments use it in, and
/// `FenwickWeights` in the corpus generator's.
fn bench_sampler(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_sampler");
    // AgendaSim's: 110 problems whose weight grows with each publication,
    // the 20 dominant ones in front drawing nearly all picks (T1, F1).
    let mut rng = Rng::new(6);
    let problems: Vec<f64> = (0..110)
        .map(|i| (if i < 20 { 40.0 } else { 1.0 }) * (0.5 + rng.next_f64()))
        .collect();
    group.bench_function("agenda_110_set_sample_x12000", |b| {
        b.iter(|| {
            let mut weights = problems.clone();
            let mut cw = CumulativeWeights::new(weights.clone());
            let mut rng = Rng::new(7);
            for _ in 0..12_000 {
                let pick = cw.sample(&mut rng);
                weights[pick] += 0.25;
                cw.set(pick, weights[pick]);
            }
            black_box(cw.total())
        })
    });
    // The corpus generator's: 600 authors, Global South ones down-weighted,
    // drawn from without updates (F2, F7).
    let authors = CumulativeWeights::new(
        (0..600)
            .map(|_| if rng.chance(0.3) { 0.35 } else { 1.0 })
            .collect(),
    );
    group.bench_function("authors_600_sample_x1000", |b| {
        let mut rng = Rng::new(8);
        b.iter(|| {
            let mut acc = 0;
            for _ in 0..1000 {
                acc += authors.sample(&mut rng);
            }
            black_box(acc)
        })
    });
    // The corpus generator's citation draw: 1,600 papers with weight
    // in-degree + 1, drawn from the base tree plus one topic's tree (one
    // paper in eight is the topic's and weighs double), no updates.
    let (mut base, mut own) = (FenwickWeights::new(), FenwickWeights::new());
    for i in 0..1600 {
        let w = 1 + rng.poisson(3.0);
        base.push(w);
        own.push(if i % 8 == 0 { w } else { 0 });
    }
    group.bench_function("citations_1600_summed_x1000", |b| {
        let mut rng = Rng::new(9);
        b.iter(|| {
            let mut acc = 0;
            for _ in 0..1000 {
                acc += base.sample_summed(&own, &mut rng);
            }
            black_box(acc)
        })
    });
    group.finish();
}

/// `RoutingTable::digest` alone on F10's table: the 2,000-AS synthetic
/// internet at seed 7, routed toward the 232 destinations of 512 sampled
/// gravity demands, as `experiments f10` computes it.
fn bench_digest(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_digest");
    let t = synthetic_internet(2_000, 7).unwrap();
    let matrix = TrafficMatrix::gravity_sampled(&t, &TrafficConfig::default(), 512, 7).unwrap();
    let table = RoutingTable::compute_frozen(&t.freeze(), &matrix.destinations(), 1).unwrap();
    group.bench_function("f10_table", |b| b.iter(|| black_box(table.digest())));
    group.finish();
}

fn bench_stats(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_stats");
    let mut rng = Rng::new(2);
    let data: Vec<f64> = (0..10_000).map(|_| rng.pareto(1.0, 1.5)).collect();
    group.bench_function("gini_10k", |b| b.iter(|| black_box(gini(&data).unwrap())));
    group.finish();
}

fn bench_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("substrate_routing");
    // A layered AS hierarchy of ~100 ASes with peering.
    for n in [40usize, 100] {
        group.bench_with_input(BenchmarkId::new("routing_table", n), &n, |b, &n| {
            let mut rng = Rng::new(5);
            let mut t = AsTopology::new();
            let region = RegionTag::new("X", false);
            for i in 0..n {
                t.add_as(&format!("AS{i}"), AsKind::Access, &region, 1.0);
            }
            for j in 1..n {
                let p = rng.range(0, j);
                t.add_provider(j, p).unwrap();
            }
            for a in 0..n {
                for bb in (a + 1)..n {
                    if rng.chance(0.05) {
                        let _ = t.add_peering(a, bb, None);
                    }
                }
            }
            b.iter(|| black_box(RoutingTable::compute(&t).unwrap().as_count()))
        });
    }
    group.finish();
}

/// Large-N routing baselines for the ROADMAP internet-scale item: the SoA
/// engine (serial and pooled-parallel, all-pairs and sampled) against the
/// retained seed implementation on `synthetic_internet` topologies.
fn bench_routing_scale(c: &mut Criterion) {
    let mut group = c.benchmark_group("routing_scale");
    let t1k = synthetic_internet(1_000, 5).unwrap();
    group.bench_function("seed_1k_all_pairs", |b| {
        b.iter(|| black_box(ReferenceTable::compute(&t1k).unwrap().as_count()))
    });
    group.bench_function("soa_1k_all_pairs", |b| {
        b.iter(|| black_box(RoutingTable::compute(&t1k).unwrap().digest()))
    });
    let all1k: Vec<usize> = (0..1_000).collect();
    group.bench_function("soa_1k_all_pairs_par8", |b| {
        b.iter(|| {
            let table = RoutingTable::compute_frozen(&t1k.freeze(), &all1k, 8).unwrap();
            black_box(table.digest())
        })
    });
    let t10k = synthetic_internet(10_000, 5).unwrap();
    let ft10k = t10k.freeze();
    let dests: Vec<usize> = (0..256).map(|i| (i * 39) % 10_000).collect();
    group.bench_function("soa_10k_sample256", |b| {
        b.iter(|| {
            black_box(
                RoutingTable::compute_frozen(&ft10k, &dests, 1)
                    .unwrap()
                    .digest(),
            )
        })
    });
    group.bench_function("soa_10k_sample256_par8", |b| {
        b.iter(|| {
            black_box(
                RoutingTable::compute_frozen(&ft10k, &dests, 8)
                    .unwrap()
                    .digest(),
            )
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_rng,
    bench_sampler,
    bench_digest,
    bench_stats,
    bench_routing,
    bench_routing_scale
);
criterion_main!(benches);
