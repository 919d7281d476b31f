//! Remote-dispatch contracts, driving the real `experiments` binary —
//! a dispatcher plus genuine `experiments serve` daemons (the shard
//! workers) over loopback TCP:
//!
//! - A 2-worker `dispatch --workers` produces a merged canonical journal
//!   byte-identical to the in-process 1-shard `run` of the same seed.
//! - `--chaos-net kill` cuts a worker's connection mid-lease; the retry
//!   re-leases on the surviving worker and the merged journal is still
//!   byte-identical.
//! - Dead worker addresses fail over to local child processes (and the
//!   journal still matches); with `--no-failover --allow-partial` they
//!   degrade to exit 3 with the lost experiments named.
//! - A daemon drains gracefully on a shutdown frame after serving leases.

use humnet::serve::Request;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

/// A unique scratch dir per test so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("humnet-remote-it-{}-{tag}", std::process::id()));
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

fn canonical_journal(path: &Path) -> Vec<String> {
    let text = std::fs::read_to_string(path).unwrap();
    humnet::telemetry::journal::from_jsonl(&text)
        .unwrap()
        .iter()
        .map(|e| e.canonical())
        .collect()
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Kills the worker on drop so a failed assertion never leaks a daemon.
struct WorkerProc {
    child: Child,
    addr: String,
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Start `experiments serve` on a free port with its own cache dir and
/// wait for its ready file.
fn start_worker(dir: &Path, tag: &str) -> WorkerProc {
    let ready = dir.join(format!("worker-{tag}.ready"));
    let cache = dir.join(format!("worker-{tag}-cache"));
    let _ = std::fs::remove_file(&ready);
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
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
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
            "worker never wrote its ready file"
        );
        std::thread::sleep(Duration::from_millis(25));
    };
    WorkerProc { child, addr }
}

/// Drain a worker over the wire and require a clean exit.
fn shutdown_worker(mut worker: WorkerProc) {
    let mut stream =
        TcpStream::connect(&worker.addr).expect("connect to worker for shutdown");
    let line = Request::shutdown().to_line().unwrap();
    writeln!(stream, "{line}").unwrap();
    stream.flush().unwrap();
    // The ack proves the drain path answered before the process exits.
    let mut reader = BufReader::new(&stream);
    let mut ack = String::new();
    reader.read_line(&mut ack).expect("shutdown ack");
    assert!(ack.contains("\"ok\""), "shutdown ack: {ack}");
    let status = worker.child.wait().expect("worker exits");
    assert!(status.success(), "worker exit: {status:?}");
    // Already reaped; keep Drop from killing a reused pid.
    std::mem::forget(worker);
}

/// The in-process ground truth journal for a given seed and id subset.
fn baseline_journal(dir: &Path, seed: &str, ids: &[&str]) -> PathBuf {
    let path = dir.join("inproc.jsonl");
    let mut args = vec![
        "run", "--report-only", "--fault-profile", "chaos", "--seed", seed,
        "--journal-out", path.to_str().unwrap(),
    ];
    args.extend_from_slice(ids);
    let out = run(&args);
    assert!(out.status.success(), "{}", stderr(&out));
    path
}

#[test]
fn two_worker_dispatch_is_byte_identical_to_the_in_process_run() {
    let dir = scratch("identity");
    let inproc = baseline_journal(&dir, "7", &[]);
    let disp = dir.join("dispatch.jsonl");

    let w0 = start_worker(&dir, "a");
    let w1 = start_worker(&dir, "b");
    let workers = format!("{},{}", w0.addr, w1.addr);

    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--fault-profile", "chaos",
        "--seed", "7",
        "--workers", &workers,
        "--journal-out", disp.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let a = canonical_journal(&inproc);
    let b = canonical_journal(&disp);
    assert!(!a.is_empty());
    assert_eq!(a, b, "2-worker remote dispatch must reproduce the 1-shard journal");

    // The workers are still alive and drain cleanly afterwards: dispatch
    // leases against long-lived daemons, it does not consume them.
    shutdown_worker(w0);
    shutdown_worker(w1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_net_kill_mid_lease_retries_and_stays_byte_identical() {
    let dir = scratch("chaos-kill");
    let inproc = baseline_journal(&dir, "11", &[]);
    let disp = dir.join("dispatch.jsonl");

    let w0 = start_worker(&dir, "a");
    let w1 = start_worker(&dir, "b");
    let workers = format!("{},{}", w0.addr, w1.addr);

    // Worker 0's first lease (shard 0, attempt 0) is killed mid-lease;
    // the retry rotates shard 0 onto worker 1, which finishes the slice.
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--fault-profile", "chaos",
        "--seed", "11",
        "--workers", &workers,
        "--chaos-net", "kill:0", "--shard-retries", "1",
        "--journal-out", disp.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("remote attempt 1"),
        "the remote retry must be visible in supervision logs: {}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&inproc),
        canonical_journal(&disp),
        "a chaos-killed lease must still reproduce the 1-shard journal"
    );

    // Worker 1 survived the whole run and still drains; worker 0 only
    // closed the chaos-killed lease's connection, so it drains too.
    shutdown_worker(w0);
    shutdown_worker(w1);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_workers_fail_over_to_local_children_and_stay_byte_identical() {
    let dir = scratch("failover");
    let inproc = baseline_journal(&dir, "7", &["f3", "t2"]);
    let disp = dir.join("dispatch.jsonl");

    // Nothing listens on these ports: every remote attempt fails fast and
    // the supervision ladder falls back to local child processes.
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--fault-profile", "chaos",
        "--seed", "7",
        "--workers", "127.0.0.1:1,127.0.0.1:1",
        "--shard-retries", "1", "--connect-timeout-ms", "500",
        "--journal-out", disp.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("failing over to a local child"),
        "{}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&inproc),
        canonical_journal(&disp),
        "local failover must still reproduce the 1-shard journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_workers_without_failover_degrade_under_allow_partial() {
    let dir = scratch("degraded");
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--workers", "127.0.0.1:1",
        "--no-failover", "--shard-retries", "1", "--allow-partial",
        "--connect-timeout-ms", "500",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2", "f4", "t3",
    ]);
    assert_eq!(out.status.code(), Some(3), "degraded exit: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("missing shard 0 after 2 attempts"), "{text}");
    assert!(text.contains("missing shard 1 after 2 attempts"), "{text}");
    assert!(text.contains("lost experiments: t2 f3"), "{text}");
    assert!(text.contains("lost experiments: f4 t3"), "{text}");
    assert!(
        stderr(&out).contains("gave up after 2 remote attempts"),
        "{}",
        stderr(&out)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_workers_without_failover_fail_loudly_by_default() {
    let dir = scratch("loud");
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--workers", "127.0.0.1:1",
        "--no-failover", "--shard-retries", "0",
        "--connect-timeout-ms", "500",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2",
    ]);
    assert_eq!(out.status.code(), Some(2), "fatal exit: {}", stderr(&out));
    assert!(stderr(&out).contains("shard"), "{}", stderr(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn remote_cli_rejects_bad_arguments() {
    for (args, needle) in [
        (
            vec!["dispatch", "--procs", "2", "--chaos-net", "kill:0"],
            "--chaos-net needs --workers",
        ),
        (
            vec!["dispatch", "--procs", "2", "--no-failover"],
            "--no-failover needs --workers",
        ),
        (
            vec!["dispatch", "--procs", "2", "--workers", "h:1", "--chaos-net", "explode:0"],
            "bad --chaos-net",
        ),
        (
            vec!["dispatch", "--procs", "2", "--workers", ","],
            "--workers needs",
        ),
        (
            vec!["dispatch", "--procs", "2", "--workers", "h:1", "--connect-timeout-ms", "0"],
            "positive",
        ),
        // `worker` is no subcommand, so the bare form reads it as an id.
        (vec!["worker"], "unknown experiment id 'worker'"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}
