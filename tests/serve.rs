//! Serve-daemon contracts, driving the real `experiments` binary:
//!
//! - A cache hit is byte-identical to the miss that populated it AND to
//!   what `experiments run --report-out` writes for the same tuple, and
//!   performs zero runner attempts (asserted via the daemon's telemetry).
//! - Under a tiny queue the daemon sheds excess load with `overloaded`
//!   (query exit code 3) instead of hanging, and serves again once
//!   drained.
//! - SIGTERM drains the daemon gracefully (exit 0, `serve: drained`).
//! - A deeply nested request line is answered with one `error` line, and
//!   the daemon keeps serving.

use humnet::serve::{Request, ServeClient};
use humnet::telemetry::TelemetrySnapshot;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");
const TIMEOUT: Duration = Duration::from_secs(120);

/// A unique scratch dir per test so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("humnet-serve-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(args: &[&str]) -> Output {
    Command::new(EXE)
        .args(args)
        .output()
        .expect("experiments binary runs")
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Kills the daemon on drop so a failed assertion never leaks a process.
struct Daemon {
    child: Child,
    addr: String,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `experiments serve` on a free port and wait for its ready file.
fn start_daemon(dir: &std::path::Path, extra: &[&str]) -> Daemon {
    let ready = dir.join("ready");
    // A restarted daemon reuses the path: never read a stale address.
    let _ = std::fs::remove_file(&ready);
    let cache = dir.join("cache");
    let child = Command::new(EXE)
        .args([
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--cache-dir",
            cache.to_str().unwrap(),
            "--ready-file",
            ready.to_str().unwrap(),
        ])
        .args(extra)
        .stdout(Stdio::null())
        .stderr(std::fs::File::create(dir.join("daemon.log")).unwrap())
        .spawn()
        .expect("daemon spawns");
    let t0 = Instant::now();
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&ready) {
            let text = text.trim().to_owned();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "daemon never wrote its ready file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    Daemon { child, addr }
}

/// A fresh persistent connection to the daemon under test.
fn connect(addr: &str) -> ServeClient {
    ServeClient::connect(addr, TIMEOUT).expect("connect to daemon")
}

fn counters(addr: &str) -> BTreeMap<String, u64> {
    let resp = connect(addr).request(&Request::stats()).expect("stats query");
    assert_eq!(resp.status, "stats", "{resp:?}");
    let snap = TelemetrySnapshot::from_json(resp.stats.as_deref().unwrap()).unwrap();
    snap.metrics.counters.into_iter().collect()
}

/// Shut the daemon down over the wire and require a clean exit.
fn shutdown(mut daemon: Daemon) {
    let resp = connect(&daemon.addr)
        .request(&Request::shutdown())
        .expect("shutdown query");
    assert_eq!(resp.status, "ok", "{resp:?}");
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "daemon exit: {status:?}");
    // Already reaped; keep Drop from killing a reused pid.
    std::mem::forget(daemon);
}

#[test]
fn hit_is_byte_identical_to_miss_and_to_run_with_zero_runner_attempts() {
    let dir = scratch("identity");

    // The ground truth: what a plain `run` writes for the same tuple.
    let art_path = dir.join("run-artifact.json");
    let base = run(&[
        "run", "f1", "--report-only", "--seed", "9", "--fault-profile", "churn",
        "--report-out", art_path.to_str().unwrap(),
    ]);
    assert!(base.status.success(), "{}", stderr(&base));
    let expected = std::fs::read_to_string(&art_path).unwrap();

    let daemon = start_daemon(&dir, &[]);
    let req = Request::run("f1", 9, "churn", 1.0);

    // One persistent connection carries both the miss and the hit: the
    // daemon answers N requests per connection, in order.
    let mut client = connect(&daemon.addr);
    let miss = client.request(&req).unwrap();
    assert_eq!(miss.status, "miss", "{miss:?}");
    assert_eq!(
        miss.artifact.as_deref(),
        Some(expected.as_str()),
        "daemon miss must equal the `run --report-out` artifact byte-for-byte"
    );
    let attempts_after_miss = counters(&daemon.addr)["runner.attempts"];
    assert!(attempts_after_miss >= 1);

    let hit = client.request(&req).unwrap();
    assert_eq!(hit.status, "hit", "{hit:?}");
    assert_eq!(hit.artifact, miss.artifact, "hit must be byte-identical to its miss");
    assert_eq!(hit.metrics, miss.metrics);
    assert_eq!(hit.key, miss.key);

    let stats = counters(&daemon.addr);
    assert_eq!(
        stats["runner.attempts"], attempts_after_miss,
        "a hit performs zero runner attempts"
    );
    assert_eq!(stats["serve.cache_hit"], 1);
    assert_eq!(stats["serve.cache_miss"], 1);

    // The `query` subcommand sees the same bytes.
    let cli_path = dir.join("query-artifact.json");
    let addr = daemon.addr.clone();
    let out = run(&[
        "query", "f1", "--addr", &addr, "--seed", "9", "--fault-profile", "churn",
        "--intensity", "1.0", "--artifact-out", cli_path.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("query: hit"), "{}", stderr(&out));
    assert_eq!(std::fs::read_to_string(&cli_path).unwrap(), expected);

    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn tiny_queue_sheds_with_exit_code_3_and_recovers() {
    let dir = scratch("overload");
    let daemon = start_daemon(
        &dir,
        &["--queue-depth", "1", "--concurrency", "1", "--hold-ms", "900"],
    );

    // Whether a burst actually collides depends on how fast the four
    // client processes spawn; under heavy machine load they can stagger
    // past the hold window and all get admitted. Shedding is timing-based
    // by design, so retry the burst (fresh seeds each time — every
    // request stays a miss) until at least one collision happens.
    let mut total_shed = 0usize;
    let mut all_codes = Vec::new();
    for burst in 0..3u64 {
        let clients: Vec<_> = (0..4u64)
            .map(|i| {
                let addr = daemon.addr.clone();
                let seed = (burst * 10 + i).to_string();
                std::thread::spawn(move || {
                    run(&["query", "f1", "--addr", &addr, "--seed", &seed])
                        .status
                        .code()
                        .expect("query exit code")
                })
            })
            .collect();
        let codes: Vec<i32> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        let shed = codes.iter().filter(|&&c| c == 3).count();
        let ok = codes.iter().filter(|&&c| c == 0).count();
        // How many of the burst land before the worker dequeues the
        // first is a race under machine load; the hard guarantee is
        // that at least one is admitted and the rest answer promptly.
        assert!(ok >= 1, "queue+worker admit at least one: {codes:?}");
        assert_eq!(shed + ok, 4, "every query gets a definite exit: {codes:?}");
        total_shed += shed;
        all_codes.push(codes);
        if shed >= 1 {
            break;
        }
    }
    assert!(total_shed >= 1, "no query was ever shed: {all_codes:?}");

    // Drained daemon serves again, and counted every shed.
    let after = connect(&daemon.addr)
        .request(&Request::run("f1", 99, "none", 1.0))
        .unwrap();
    assert_eq!(after.status, "miss", "{after:?}");
    let stats = counters(&daemon.addr);
    assert_eq!(stats["serve.shed"], total_shed as u64);

    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_gracefully() {
    let dir = scratch("sigterm");
    let mut daemon = start_daemon(&dir, &[]);
    let miss = connect(&daemon.addr)
        .request(&Request::run("f1", 3, "none", 1.0))
        .unwrap();
    assert_eq!(miss.status, "miss");

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.child.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = daemon.child.wait().expect("daemon exits");
    assert!(status.success(), "SIGTERM exit: {status:?}");
    let log = std::fs::read_to_string(dir.join("daemon.log")).unwrap();
    assert!(log.contains("serve: drained"), "{log}");

    // The flushed cache serves the entry to a fresh daemon as a hit.
    std::mem::forget(daemon);
    let daemon2 = start_daemon(&dir, &[]);
    let hit = connect(&daemon2.addr)
        .request(&Request::run("f1", 3, "none", 1.0))
        .unwrap();
    assert_eq!(hit.status, "hit", "{hit:?}");
    assert_eq!(hit.artifact, miss.artifact);
    shutdown(daemon2);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_deeply_nested_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let dir = scratch("nesting");
    let daemon = start_daemon(&dir, &[]);

    // 200k `[`s fit under the request-size cap; a parser recursing once
    // per level would overflow the handler's stack and abort the daemon.
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut line = "[".repeat(200_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&stream).read_line(&mut reply).expect("one reply line");
    assert!(reply.contains(r#""status":"error""#), "{reply}");
    assert!(reply.contains("nesting deeper than 128"), "{reply}");
    drop(stream);

    // A new connection is still answered.
    let counters = counters(&daemon.addr);
    assert!(counters["serve.error"] >= 1, "{counters:?}");
    shutdown(daemon);
    let _ = std::fs::remove_dir_all(&dir);
}
