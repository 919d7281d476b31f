//! Cross-process dispatch contracts, driving the real `experiments`
//! binary end to end:
//!
//! - A K-process `dispatch` produces a merged canonical journal and
//!   canonical report byte-identical to the in-process 1-shard `run` of
//!   the same seed — including when chaos kills a shard mid-run and the
//!   supervisor retries it.
//! - A hung child is killed at the shard deadline instead of wedging the
//!   dispatch.
//! - Exhausted retries fail loudly by default (exit 2) and degrade
//!   gracefully under `--allow-partial` (exit 3, missing shard and its
//!   experiments named in the report).
//! - `--breaker-cooldown` round-trips into the captured journal's
//!   run-start line on both `run` and `dispatch`.
//! - A complete dispatch leaves no attempt directory behind and never
//!   deletes anything else in `--scratch`.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

/// A unique scratch dir per test so parallel tests never collide.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("humnet-dispatch-it-{}-{tag}", std::process::id()));
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

#[test]
fn four_proc_dispatch_is_byte_identical_to_the_in_process_run() {
    let dir = scratch("identity");
    let inproc = dir.join("inproc.jsonl");
    let disp = dir.join("dispatch.jsonl");

    let base = run(&[
        "run", "--report-only", "--fault-profile", "chaos", "--seed", "7",
        "--journal-out", inproc.to_str().unwrap(),
    ]);
    assert!(base.status.success(), "{}", stderr(&base));

    let out = run(&[
        "dispatch", "--procs", "4", "--report-only", "--fault-profile", "chaos",
        "--seed", "7",
        "--journal-out", disp.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    let a = canonical_journal(&inproc);
    let b = canonical_journal(&disp);
    assert!(!a.is_empty());
    assert_eq!(a, b, "4-process dispatch must reproduce the 1-shard journal");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn chaos_killed_shard_is_retried_and_the_journal_is_still_identical() {
    let dir = scratch("chaos-retry");
    let inproc = dir.join("inproc.jsonl");
    let disp = dir.join("dispatch.jsonl");

    let base = run(&[
        "run", "--report-only", "--fault-profile", "chaos", "--seed", "11",
        "--journal-out", inproc.to_str().unwrap(),
    ]);
    assert!(base.status.success(), "{}", stderr(&base));

    // Shard 2's first spawn is chaos-killed (exit 137); the retry budget
    // of 1 lets its second spawn finish the slice.
    let out = run(&[
        "dispatch", "--procs", "4", "--report-only", "--fault-profile", "chaos",
        "--seed", "11",
        "--chaos-proc", "kill:2", "--shard-retries", "1",
        "--journal-out", disp.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("shard 2 attempt 1"),
        "the retry must be visible in supervision logs: {}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&inproc),
        canonical_journal(&disp),
        "a crash-retried dispatch must still reproduce the 1-shard journal"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn hung_child_is_killed_at_the_shard_deadline() {
    let dir = scratch("hang");
    // Liveness off: the test pins the kill on the deadline path. A small
    // experiment subset keeps the healthy shard quick.
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--chaos-proc", "hang:0", "--shard-retries", "0", "--allow-partial",
        "--shard-deadline-ms", "1500", "--liveness-ms", "0",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2",
    ]);
    assert_eq!(out.status.code(), Some(3), "degraded exit: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("shard deadline"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn silent_child_is_killed_by_heartbeat_liveness_before_the_deadline() {
    let dir = scratch("liveness");
    // A hung child never heartbeats, so a 1s liveness window kills it long
    // before the (deliberately huge) 60s deadline would.
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--chaos-proc", "hang:0", "--shard-retries", "0", "--allow-partial",
        "--shard-deadline-ms", "60000", "--liveness-ms", "1000",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2",
    ]);
    assert_eq!(out.status.code(), Some(3), "degraded exit: {}", stderr(&out));
    assert!(stdout(&out).contains("no heartbeat"), "{}", stdout(&out));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn exhausted_retries_degrade_gracefully_with_allow_partial() {
    let dir = scratch("partial");
    // Both spawn attempts of shard 1 are killed: the retry budget runs
    // out and --allow-partial degrades instead of failing.
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--chaos-proc", "kill:1", "--chaos-proc", "kill:1:1",
        "--shard-retries", "1", "--allow-partial",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2", "f4", "t3",
    ]);
    assert_eq!(out.status.code(), Some(3), "degraded exit: {}", stderr(&out));
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("missing shard 1 after 2 attempts"), "{text}");
    // Shard 1 owned the second half of the canonical slice; its lost
    // experiments are named.
    assert!(text.contains("lost experiments: f4 t3"), "{text}");
    // The surviving shard's report rows are intact.
    assert!(text.contains("f3"), "{text}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dead_shard_without_allow_partial_fails_loudly() {
    let dir = scratch("loud");
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--chaos-proc", "kill:1", "--chaos-proc", "kill:1:1",
        "--shard-retries", "1",
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2", "f4", "t3",
    ]);
    assert_eq!(out.status.code(), Some(2), "fatal exit: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("shard 1"), "{err}");
    assert!(err.contains("after all retries"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn breaker_cooldown_round_trips_through_run_and_dispatch_journals() {
    let dir = scratch("cooldown");
    let run_journal = dir.join("run.jsonl");
    let disp_journal = dir.join("dispatch.jsonl");

    let a = run(&[
        "run", "--report-only", "--seed", "7", "--breaker-cooldown", "2",
        "--journal-out", run_journal.to_str().unwrap(),
        "f3", "t2",
    ]);
    assert!(a.status.success(), "{}", stderr(&a));
    let b = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--breaker-cooldown", "2",
        "--journal-out", disp_journal.to_str().unwrap(),
        "--scratch", dir.join("s").to_str().unwrap(),
        "f3", "t2",
    ]);
    assert!(b.status.success(), "{}", stderr(&b));

    for path in [&run_journal, &disp_journal] {
        let first = &canonical_journal(path)[0];
        assert!(first.contains("run-start"), "{first}");
        assert!(first.contains("cooldown=2"), "{first}");
    }
    // The flag is part of the canonical run configuration, so the two
    // journals agree event for event.
    assert_eq!(canonical_journal(&run_journal), canonical_journal(&disp_journal));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dispatch_cli_rejects_bad_arguments() {
    for (args, needle) in [
        (vec!["dispatch"], "--procs"),
        (vec!["dispatch", "--procs", "0"], "--procs must be positive"),
        (vec!["dispatch", "--procs", "2", "--chaos-proc", "explode:1"], "--chaos-proc"),
        (vec!["dispatch", "--procs", "2", "--shard-deadline-ms", "0"], "positive"),
        (vec!["dispatch", "--procs", "2", "nosuch"], "unknown experiment id"),
    ] {
        let out = run(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(stderr(&out).contains(needle), "{args:?}: {}", stderr(&out));
    }
}

#[test]
fn a_complete_dispatch_removes_only_its_own_scratch_dirs() {
    let dir = scratch("own-dirs");
    let shared = dir.join("shared");
    std::fs::create_dir_all(&shared).unwrap();
    std::fs::write(shared.join("keep.txt"), "precious\n").unwrap();

    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--scratch", shared.to_str().unwrap(),
        "f3", "t2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let left: Vec<String> = std::fs::read_dir(&shared)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, ["keep.txt"], "only the dispatch's own dirs go");
    assert_eq!(std::fs::read_to_string(shared.join("keep.txt")).unwrap(), "precious\n");

    // A scratch dir the dispatch made itself is removed once empty.
    let own = dir.join("own");
    let out = run(&[
        "dispatch", "--procs", "2", "--report-only", "--seed", "7",
        "--scratch", own.to_str().unwrap(),
        "f3", "t2",
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!own.exists());
    let _ = std::fs::remove_dir_all(&dir);
}
