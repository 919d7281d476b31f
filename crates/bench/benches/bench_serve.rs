//! Serve-path costs over the real TCP protocol: a cache hit paid three
//! ways — a fresh connection per request (what the deprecated
//! connection-per-request client did), one persistent [`ServeClient`]
//! reused across requests, and a 16-deep pipeline on that same
//! connection — plus the miss path (a toy-job supervisor run on the warm
//! pool) and the raw content-address hash. The per-connection vs
//! persistent vs pipelined spread is the headline number for the client
//! redesign: it prices what connection reuse and pipelining save per
//! request. Baselines live in `BENCH_serve.json` at the repo root.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use humnet_resilience::{ExperimentSpec, JobOutput, RunnerConfig};
use humnet_serve::{cache_key, Request, ServeClient, ServeConfig, Server, SpecFactory};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

const TIMEOUT: Duration = Duration::from_secs(30);

/// A spec cheap enough that a miss prices the daemon + supervisor
/// machinery, not the experiment itself.
fn toy_factory() -> SpecFactory {
    Arc::new(|code: &str| {
        if !code.starts_with("exp") {
            return None;
        }
        let code = code.to_owned();
        Some(ExperimentSpec::new(
            code.clone(),
            "bench toy",
            "toy",
            move |_plan, _tel| {
                Ok(JobOutput {
                    rendered: format!("bench output for {code}\n"),
                    faults_injected: 0,
                })
            },
        ))
    })
}

struct Daemon {
    addr: String,
    dir: PathBuf,
    handle: std::thread::JoinHandle<()>,
}

fn start_daemon(tag: &str) -> Daemon {
    let dir = std::env::temp_dir().join(format!("humnet-serve-bench-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = ServeConfig::default();
    cfg.addr = "127.0.0.1:0".to_owned();
    cfg.cache_dir = dir.clone();
    cfg.queue_depth = 64;
    cfg.concurrency = 2;
    cfg.runner = RunnerConfig::default();
    let server = Server::bind(cfg, toy_factory()).expect("bind bench daemon");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || {
        let _ = server.run();
    });
    Daemon { addr, dir, handle }
}

fn stop_daemon(daemon: Daemon) {
    let _ = ServeClient::connect(&daemon.addr, TIMEOUT).and_then(|mut c| c.shutdown());
    let _ = daemon.handle.join();
    let _ = std::fs::remove_dir_all(&daemon.dir);
}

/// One warmed tuple queried repeatedly, a fresh TCP connection per
/// request — the connection-per-request cost the old client paid.
fn bench_hit(c: &mut Criterion) {
    let daemon = start_daemon("hit");
    let req = Request::run("exp0", 7, "none", 1.0);
    let warm = ServeClient::connect(&daemon.addr, TIMEOUT)
        .and_then(|mut c| c.request(&req))
        .expect("warm the cache");
    assert_eq!(warm.status, "miss");
    let mut group = c.benchmark_group("serve");
    group.bench_function("hit_tcp_round_trip", |b| {
        b.iter(|| {
            let resp = ServeClient::connect(&daemon.addr, TIMEOUT)
                .and_then(|mut c| c.request(&req))
                .expect("hit query");
            assert_eq!(resp.status, "hit");
            black_box(resp.artifact.map(|a| a.len()))
        })
    });

    // The same tuple over one persistent connection: what every reused
    // pool checkout saves (connect + handshake + slow-start).
    let mut client = ServeClient::connect(&daemon.addr, TIMEOUT).expect("persistent client");
    group.bench_function("hit_tcp_persistent", |b| {
        b.iter(|| {
            let resp = client.request(&req).expect("hit query");
            assert_eq!(resp.status, "hit");
            black_box(resp.artifact.map(|a| a.len()))
        })
    });

    // 16 requests written back-to-back before reading 16 responses: the
    // per-request cost once pipelining amortizes the round trip. One
    // iteration covers 16 requests — divide by 16 to compare.
    let batch: Vec<Request> = (0..16).map(|_| req.clone()).collect();
    group.bench_function("hit_tcp_pipelined_x16", |b| {
        b.iter(|| {
            let resps = client.pipeline(&batch).expect("pipelined hits");
            assert_eq!(resps.len(), 16);
            black_box(resps.iter().filter(|r| r.status == "hit").count())
        })
    });
    group.finish();
    drop(client);
    stop_daemon(daemon);
}

/// A fresh seed every iteration over a persistent connection: queue
/// admission + supervisor on the warm pool + artifact serialization +
/// cache insert.
fn bench_miss(c: &mut Criterion) {
    let daemon = start_daemon("miss");
    let seed = AtomicU64::new(1);
    let mut client = ServeClient::connect(&daemon.addr, TIMEOUT).expect("persistent client");
    let mut group = c.benchmark_group("serve");
    group.bench_function("miss_toy_run", |b| {
        b.iter(|| {
            let s = seed.fetch_add(1, Ordering::Relaxed);
            let resp = client
                .request(&Request::run("exp0", s, "none", 1.0))
                .expect("miss query");
            assert_eq!(resp.status, "miss");
            black_box(resp.artifact.map(|a| a.len()))
        })
    });
    group.finish();
    drop(client);
    stop_daemon(daemon);
}

/// The raw content address: what every request pays before the index.
fn bench_key(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve");
    let mut n = 0u64;
    group.bench_function("cache_key_fnv128", |b| {
        b.iter(|| {
            n = n.wrapping_add(1);
            black_box(cache_key("f1", n, "chaos", 1.25, 1, "0.1.0+abcdef123456"))
        })
    });
    group.finish();
}

criterion_group!(benches, bench_hit, bench_miss, bench_key);
criterion_main!(benches);
