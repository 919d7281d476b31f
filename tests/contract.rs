//! The contract, as one table: however a run is executed, its canonical
//! journal and its artifact are byte-identical to the in-process `run` of
//! the same seed and fault profile.
//!
//! Rows are execution paths and columns are fault profiles, over all 17
//! experiments. Each column's reference is one in-process `run
//! --trace-summary --journal-out --metrics-out --report-out`. The `run`
//! and `run --shards 4` cells must match its canonical journal,
//! `--report-out` bytes and duration-stripped report; the `dispatch`
//! cells its canonical journal and report. The `query` cell must give,
//! per experiment, the bytes of `run <id> --report-out` on a miss and on
//! a hit, with no runner attempt for a hit. The chaos column also checks
//! the reference's telemetry outputs, and replays and merges the 4-shard
//! capture. Every cell runs even when another fails, and each failure
//! names its path and profile.

mod common;

use common::{experiments_in, journal_events, stderr, stdout, without_durations, Daemon, Scratch};
use humnet::core::experiments::ExperimentId;
use humnet::resilience::RunArtifact;
use humnet::serve::{Request, Response};
use humnet::telemetry::{Event, TelemetrySnapshot};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::Output;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The columns: fault profiles, each run at seed 7.
const PROFILES: [&str; 2] = ["none", "chaos"];

/// A cell: checks one path of a column against the column's reference.
type Cell = fn(&Column, &Recorded);

/// The rows: each execution path and the cell that checks it.
const PATHS: [(&str, Cell); 5] = [
    ("run", run_again),
    ("run --shards 4", sharded_run),
    ("dispatch --procs 2", |c, r| dispatch(c, r, "dispatch", "")),
    ("dispatch --procs 2 --workers a,b", |c, r| {
        dispatch(c, r, "workers", &format!("--workers {}", c.workers))
    }),
    ("query", query),
];

/// Every run cell's command, shaped like the reference.
const RUN: &str = "run --trace-summary --report-out artifact.json --metrics-out metrics.json";

/// The heading `--trace-summary` prints above its flame table.
const TRACE_SUMMARY: &str = "## Trace summary";

#[test]
fn every_path_reproduces_the_in_process_run_under_every_profile() {
    let scratch = Scratch::new("contract");
    let workers = ["worker-a", "worker-b"].map(|w| Daemon::start(&scratch.join(w), ""));
    let columns = PROFILES.map(|profile| Column {
        profile,
        dir: scratch.join(profile),
        workers: format!("{},{}", workers[0].addr, workers[1].addr),
    });

    // The references first, then every cell of both columns from one
    // queue, so that the threads stay busy to the end.
    let references = in_parallel(2, |c| attempt(|| columns[c].record("reference", RUN)));
    let cells = in_parallel(PATHS.len() * 2, |i| match &references[i % 2] {
        Ok(reference) => attempt(|| (PATHS[i / 2].1)(&columns[i % 2], reference)),
        Err(e) => Err(format!("the reference run failed: {e}")),
    });

    let mut table = format!("{:<34}{:<7}{}\n", "path", PROFILES[0], PROFILES[1]);
    let mut failures = Vec::new();
    for ((path, _), row) in PATHS.iter().zip(cells.chunks(2)) {
        let mark = |c: &Result<(), String>| if c.is_ok() { "ok" } else { "FAIL" };
        table += &format!("{path:<34}{:<7}{}\n", mark(&row[0]), mark(&row[1]));
        for (cell, profile) in row.iter().zip(PROFILES) {
            if let Err(e) = cell {
                failures.push(format!("`{path}` × {profile}: {e}"));
            }
        }
    }
    println!("{table}");
    assert!(failures.is_empty(), "\n{table}\n{}", failures.join("\n"));

    // Dispatch leases against long-lived daemons without consuming them.
    for worker in workers {
        worker.shutdown();
    }
}

/// One profile's column: its directory, with one subdirectory per cell,
/// and the worker daemons its remote dispatch leases to.
struct Column {
    profile: &'static str,
    dir: PathBuf,
    workers: String,
}

/// What one run printed and wrote.
struct Recorded {
    dir: PathBuf,
    stdout: String,
    stderr: String,
    events: Vec<Event>,
    journal: Vec<String>,
    /// The `--report-out` bytes; empty for `dispatch`, which writes none.
    artifact: String,
}

impl Column {
    /// `experiments <line> --fault-profile <profile> --seed 7` in cell
    /// directory `cell`, which must succeed.
    fn experiments(&self, cell: &str, line: &str) -> Output {
        let dir = self.dir.join(cell);
        std::fs::create_dir_all(&dir).unwrap();
        let line = format!("{line} --fault-profile {} --seed 7", self.profile);
        succeeded(experiments_in(&dir, &line))
    }

    /// `command` over the whole suite in cell directory `cell`, with its
    /// journal written there.
    fn record(&self, cell: &str, command: &str) -> Recorded {
        let out = self.experiments(
            cell,
            &format!("{command} --report-only --journal-out journal.jsonl"),
        );
        let dir = self.dir.join(cell);
        let events = journal_events(&dir.join("journal.jsonl"));
        Recorded {
            stdout: stdout(&out),
            stderr: stderr(&out),
            journal: events.iter().map(Event::canonical).collect(),
            events,
            artifact: std::fs::read_to_string(dir.join("artifact.json")).unwrap_or_default(),
            dir,
        }
    }
}

/// `run` again: the reference reproduces itself.
fn run_again(column: &Column, reference: &Recorded) {
    let expected = report(&reference.stdout);
    assert!(expected.contains("seed=7"), "{expected}");
    assert!(!expected.contains("ms |"), "durations left in:\n{expected}");
    assert!(!reference.journal.is_empty() && !reference.artifact.is_empty());
    same_run(reference, &column.record("run", RUN));
    if column.profile == "chaos" {
        telemetry_outputs_are_complete(reference);
    }
}

/// Two runs' canonical journals, `--report-out` bytes and reports.
fn same_run(expected: &Recorded, got: &Recorded) {
    same_lines("canonical journal", &expected.journal, &got.journal);
    same_text("--report-out artifact", &expected.artifact, &got.artifact);
    same_text("report", &report(&expected.stdout), &report(&got.stdout));
}

/// The reference's journal, metrics snapshot and flame summary.
fn telemetry_outputs_are_complete(reference: &Recorded) {
    for (i, e) in reference.events.iter().enumerate() {
        assert_eq!(e.seq, i as u64, "journal seq is not dense at {i}: {e:?}");
        assert!(!e.kind.is_empty(), "event without a kind: {e:?}");
    }
    for kind in "run-start experiment-start fault milestone experiment-end run-end".split(' ') {
        let seen = reference.events.iter().any(|e| e.kind == kind);
        assert!(seen, "no {kind} event");
    }
    let snap = snapshot(&reference.dir.join("metrics.json"));
    assert!(!snap.metrics.counters.is_empty(), "no counters recorded");
    assert!(!snap.spans.is_empty(), "no spans recorded");
    assert!(reference.stdout.contains(TRACE_SUMMARY), "no flame summary");
}

/// `run --shards 4`: four in-process workers give the 1-shard bytes.
fn sharded_run(column: &Column, reference: &Recorded) {
    let sharded = column.record("shards", &format!("{RUN} --shards 4"));
    same_run(reference, &sharded);

    // Shard ids exist only on the sharded side, so the canonical journals
    // above matched without them.
    assert!(sharded.events.iter().any(|e| e.shard.is_some()));
    assert!(reference.events.iter().all(|e| e.shard.is_none()));
    let [one, four] = [reference, &sharded].map(|r| snapshot(&r.dir.join("metrics.json")));
    let shards = |s: &TelemetrySnapshot| s.metrics.counters.get("runner.shards").copied();
    let got = [shards(&one), shards(&four)];
    assert_eq!(got, [None, Some(4)], "runner.shards at 1 and 4 shards");
    if column.profile != "chaos" {
        return;
    }

    // The 4-shard capture replays through the 1-shard engine.
    let out = succeeded(experiments_in(&sharded.dir, "replay journal.jsonl"));
    assert!(stdout(&out).contains("verdict: MATCH"), "{}", stdout(&out));

    // Merging the two runs' snapshots adds their counters.
    let merge = "merge-metrics ../reference/metrics.json metrics.json --out merged.json";
    succeeded(experiments_in(&sharded.dir, merge));
    let merged = snapshot(&sharded.dir.join("merged.json")).metrics.counters;
    for (name, v) in one.metrics.counters.iter().chain(&four.metrics.counters) {
        let got = merged.get(name).copied().unwrap_or(0);
        assert!(got >= *v, "merged {name} = {got} < {v}");
    }
}

/// `dispatch --procs 2`, over local children or leased to the workers.
fn dispatch(column: &Column, reference: &Recorded, cell: &str, workers: &str) {
    let dispatched = column.record(cell, &format!("dispatch --procs 2 --scratch s {workers}"));
    // Every shard ran where it was sent, with no failover to a child.
    let log = &dispatched.stderr;
    assert!(!log.contains("failing over"), "{log}");
    same_lines("canonical journal", &reference.journal, &dispatched.journal);

    let text = &dispatched.stdout;
    let (head, tail) = text.split_once("\ndispatch verdict: ").expect("a verdict");
    let (verdict, rest) = tail.split_once('\n').unwrap_or((tail, ""));
    assert!(verdict.starts_with("complete"), "verdict: {verdict}");
    let expected = report(&reference.stdout);
    same_text("report", &expected, &report(&format!("{head}\n{rest}")));
}

/// `query`, one experiment at a time: a miss, then a hit.
fn query(column: &Column, _reference: &Recorded) {
    let dir = column.dir.join("query");
    let daemon = Daemon::start(&dir.join("daemon"), "");
    let (mut client, mut attempts) = (daemon.client(), 0);
    for code in ExperimentId::ALL.map(ExperimentId::code) {
        let run = format!("run {code} --report-only --report-out {code}.run.json");
        column.experiments("query", &run);
        let expected = read(&dir.join(format!("{code}.run.json")));
        let artifact = RunArtifact::from_json(&expected).unwrap();
        attempts += u64::from(artifact.report.experiments[0].attempts);

        let request = Request::run(code, 7, column.profile, 1.0);
        let miss = client.request(&request).unwrap();
        let hit = client.request(&request).unwrap();
        assert_eq!([&miss.status, &hit.status], ["miss", "hit"], "{code}");
        let what = |s: &str| format!("{code} {s}");
        same_text(&what("miss vs run"), &expected, text(&miss.artifact));
        let fields = |r: &Response| [r.key.clone(), r.artifact.clone(), r.metrics.clone()];
        same_lines(&what("hit vs miss"), &fields(&miss), &fields(&hit));

        // The `query` subcommand names the same key and writes the same
        // bytes.
        let addr = &daemon.addr;
        let query = format!("query {code} --addr {addr} --artifact-out {code}.q.json");
        let said = stderr(&column.experiments("query", &query));
        let hit_line = format!("query: hit key={} ", text(&miss.key));
        assert!(said.contains(&hit_line), "{code}: {said}");
        let written = read(&dir.join(format!("{code}.q.json")));
        same_text(&what("query vs run"), &expected, &written);
    }

    // Only the misses ran anything: the daemon made exactly the attempts
    // their reports count.
    let counters = daemon.counters();
    let n = ExperimentId::ALL.len() as u64;
    let got = ["serve.cache_miss", "serve.cache_hit", "runner.attempts"].map(|c| counters[c]);
    assert_eq!(got, [n, 2 * n, attempts], "{counters:?}");
    daemon.shutdown();
}

/// The report a run printed, durations stripped and `--trace-summary`'s
/// flame table cut off.
fn report(stdout: &str) -> String {
    let (report, _) = stdout.split_once(TRACE_SUMMARY).unwrap_or((stdout, ""));
    without_durations(report.trim_end())
}

fn succeeded(out: Output) -> Output {
    assert!(out.status.success(), "{}", stderr(&out));
    out
}

fn text(field: &Option<String>) -> &str {
    field.as_deref().unwrap_or_default()
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn snapshot(path: &Path) -> TelemetrySnapshot {
    TelemetrySnapshot::from_json(&read(path)).expect("metrics snapshot")
}

/// Fail with the first line that differs, not a diff of thousands.
fn same_lines<T: PartialEq + std::fmt::Debug>(what: &str, expected: &[T], got: &[T]) {
    let len = expected.len().max(got.len());
    if let Some(at) = (0..len).find(|&i| expected.get(i) != got.get(i)) {
        let (e, g) = (expected.get(at), got.get(at));
        panic!("{what} differs at line {at} of {len}: expected {e:?}, got {g:?}");
    }
}

fn same_text(what: &str, expected: &str, got: &str) {
    let lines = |s: &str| s.split('\n').map(str::to_owned).collect::<Vec<_>>();
    same_lines(what, &lines(expected), &lines(got));
}

/// `job(i)` for every `i` in `0..n`, three at a time, in index order. A
/// cell mostly waits on the processes it starts, so three threads keep
/// two CPUs busy.
fn in_parallel<T: Send>(n: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let done: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let worker = || loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = done.get(i) else { break };
        *slot.lock().unwrap() = Some(job(i));
    };
    std::thread::scope(|s| {
        for _ in 0..3 {
            s.spawn(worker);
        }
    });
    let take = |slot: Mutex<Option<T>>| slot.into_inner().unwrap().unwrap();
    done.into_iter().map(take).collect()
}

/// Run one cell, turning its panic into the message the table reports.
fn attempt<T>(cell: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(cell)).map_err(|panic| match panic.downcast::<String>() {
        Ok(message) => *message,
        Err(panic) => panic.downcast_ref::<&str>().unwrap_or(&"").to_string(),
    })
}
