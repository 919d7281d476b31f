//! Internet-scale routing contract (ROADMAP: internet-scale item).
//!
//! The fast test keeps a 10k-AS synthetic internet inside the default test
//! budget. The `#[ignore]`d test is the CI scale-smoke gate: build a 100k-AS
//! topology, compute routes toward a 1k-destination sample under a
//! wall-clock budget, and check route-metric invariants. Its `scale
//! smoke:` line also reports the process's peak resident set (VmHWM),
//! which the 100k-AS table dominates. Run it with
//! `cargo test --release --test scale -- --ignored --nocapture`.

use humnet::ixp::{synthetic_internet, RouteKind, RoutingTable};
use std::time::{Duration, Instant};

/// Deterministic stride sample of `k` destinations out of `n` ASes.
fn sample_destinations(n: usize, k: usize) -> Vec<usize> {
    let stride = (n / k).max(1);
    (0..k)
        .map(|i| (i * stride + i * i % stride.max(2)) % n)
        .collect()
}

/// Route-metric invariants on a sampled table: every (src, dst) pair with a
/// computed destination row is served, paths start at src and end at dst,
/// and transit hops stay within a sane internet diameter.
fn check_route_invariants(table: &RoutingTable, n: usize, dests: &[usize], spot_srcs: usize) {
    let mut served = 0usize;
    let mut max_hops = 0usize;
    for s in 0..spot_srcs {
        let src = (s * 7919) % n;
        for &dst in dests.iter().take(64) {
            let route = table.route(src, dst).expect("sampled row must route");
            served += 1;
            max_hops = max_hops.max(route.hops());
            if src == dst {
                assert_eq!(route.kind, RouteKind::SelfRoute);
                continue;
            }
            assert_eq!(route.path.first(), Some(&src));
            assert_eq!(route.path.last(), Some(&dst));
            // Valley-free shape: at most one peer hop, already encoded in
            // the route kind; a sanity bound on path length.
            assert!(route.hops() < 32, "implausible path {src}->{dst}");
        }
    }
    assert!(served > 0);
    assert!(max_hops >= 1, "spot checks must cross at least one link");
}

#[test]
fn ten_thousand_as_sample_routes_quickly() {
    let t = synthetic_internet(10_000, 11).unwrap();
    let ft = t.freeze();
    let dests = sample_destinations(10_000, 128);
    let table = RoutingTable::compute_frozen(&ft, &dests, 4).unwrap();
    assert_eq!(table.as_count(), 10_000);
    assert_eq!(table.destinations().len(), dests.len());
    check_route_invariants(&table, 10_000, &dests, 16);
    // Digest is stable across worker counts.
    let serial = RoutingTable::compute_frozen(&ft, &dests, 1).unwrap();
    assert_eq!(table.digest(), serial.digest());
}

/// The process's peak resident set as `/proc/self/status` reports it
/// (e.g. `812345 kB`), or `unknown` where there is no such file.
fn peak_rss() -> String {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .map_or("unknown".into(), |v| v.trim().to_owned())
}

/// CI scale-smoke: 100k ASes, 1k-destination sample, wall-clock budget.
#[test]
#[ignore = "scale smoke: run with --ignored in release mode"]
fn hundred_thousand_as_internet_within_budget() {
    let t0 = Instant::now();
    let t = synthetic_internet(100_000, 11).unwrap();
    let build = t0.elapsed();
    assert_eq!(t.as_count(), 100_000);

    let t1 = Instant::now();
    let ft = t.freeze();
    let dests = sample_destinations(100_000, 1_000);
    let table = RoutingTable::compute_frozen(&ft, &dests, 8).unwrap();
    let compute = t1.elapsed();

    assert_eq!(table.destinations().len(), dests.len());
    check_route_invariants(&table, 100_000, &dests, 32);

    // Digest stability: a second computation is byte-identical. The
    // first table is freed before it, so the peak holds one table.
    let digest = table.digest();
    drop(table);
    let again = RoutingTable::compute_frozen(&ft, &dests, 2).unwrap();
    assert_eq!(digest, again.digest());

    // Wall-clock budget: generous for shared CI runners, tight enough to
    // catch an accidental O(n^2) regression (which would take minutes).
    let budget = Duration::from_secs(120);
    assert!(
        build + compute < budget,
        "scale smoke blew its budget: build {build:?} + compute {compute:?} >= {budget:?}"
    );
    eprintln!(
        "scale smoke: build {build:?}, 1k-dest compute {compute:?}, peak RSS {}",
        peak_rss()
    );
}
