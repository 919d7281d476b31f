//! Cross-process dispatch contracts, driving the real `experiments`
//! binary end to end (the plain `dispatch --procs 2` identity is a cell
//! of `tests/contract.rs`):
//!
//! - A 4-process `dispatch` whose shard is chaos-killed mid-run and
//!   retried still produces a merged canonical journal byte-identical to
//!   the in-process 1-shard `run` of the same seed.
//! - A hung child is killed at the shard deadline instead of wedging the
//!   dispatch.
//! - Exhausted retries fail loudly by default (exit 2) and degrade
//!   gracefully under `--allow-partial` (exit 3, missing shard and its
//!   experiments named in the report).
//! - `--breaker-cooldown` round-trips into the captured journal's
//!   run-start line on both `run` and `dispatch`.
//! - A complete dispatch leaves no attempt directory behind and never
//!   deletes anything else in `--scratch`.

mod common;

use common::{canonical_journal, experiments, stderr, stdout, Scratch};

#[test]
fn chaos_killed_shard_is_retried_and_the_journal_is_still_identical() {
    let dir = Scratch::new("chaos-retry");
    let base =
        dir.run("run --report-only --fault-profile chaos --seed 11 --journal-out inproc.jsonl");
    assert!(base.status.success(), "{}", stderr(&base));

    // Shard 2's first spawn is chaos-killed (exit 137); the retry budget
    // of 1 lets its second spawn finish the slice.
    let out = dir.run(
        "dispatch --procs 4 --report-only --fault-profile chaos --seed 11 \
         --chaos-proc kill:2 --shard-retries 1 --journal-out dispatch.jsonl --scratch s",
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("shard 2 attempt 1"),
        "the retry must be visible in supervision logs: {}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&dir.join("inproc.jsonl")),
        canonical_journal(&dir.join("dispatch.jsonl")),
        "a crash-retried dispatch must still reproduce the 1-shard journal"
    );
}

#[test]
fn hung_child_is_killed_at_the_shard_deadline() {
    let dir = Scratch::new("hang");
    // Liveness off: the test pins the kill on the deadline path. A small
    // experiment subset keeps the healthy shard quick.
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --chaos-proc hang:0 --shard-retries 0 \
         --allow-partial --shard-deadline-ms 1500 --liveness-ms 0 --scratch s f3 t2",
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded exit: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("shard deadline"), "{text}");
}

#[test]
fn silent_child_is_killed_by_heartbeat_liveness_before_the_deadline() {
    let dir = Scratch::new("liveness");
    // A hung child never heartbeats, so a 1s liveness window kills it long
    // before the (deliberately huge) 60s deadline would.
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --chaos-proc hang:0 --shard-retries 0 \
         --allow-partial --shard-deadline-ms 60000 --liveness-ms 1000 --scratch s f3 t2",
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded exit: {}",
        stderr(&out)
    );
    assert!(stdout(&out).contains("no heartbeat"), "{}", stdout(&out));
}

#[test]
fn exhausted_retries_degrade_gracefully_with_allow_partial() {
    let dir = Scratch::new("partial");
    // Both spawn attempts of shard 1 are killed: the retry budget runs
    // out and --allow-partial degrades instead of failing.
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --chaos-proc kill:1 --chaos-proc kill:1:1 \
         --shard-retries 1 --allow-partial --scratch s f3 t2 f4 t3",
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded exit: {}",
        stderr(&out)
    );
    let text = stdout(&out);
    assert!(text.contains("DEGRADED"), "{text}");
    assert!(text.contains("missing shard 1 after 2 attempts"), "{text}");
    // Shard 1 owned the second half of the canonical slice; its lost
    // experiments are named.
    assert!(text.contains("lost experiments: f4 t3"), "{text}");
    // The surviving shard's report rows are intact.
    assert!(text.contains("f3"), "{text}");
}

#[test]
fn dead_shard_without_allow_partial_fails_loudly() {
    let dir = Scratch::new("loud");
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --chaos-proc kill:1 --chaos-proc kill:1:1 \
         --shard-retries 1 --scratch s f3 t2 f4 t3",
    );
    assert_eq!(out.status.code(), Some(2), "fatal exit: {}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("shard 1"), "{err}");
    assert!(err.contains("after all retries"), "{err}");
}

#[test]
fn breaker_cooldown_round_trips_through_run_and_dispatch_journals() {
    let dir = Scratch::new("cooldown");
    let a =
        dir.run("run --report-only --seed 7 --breaker-cooldown 2 --journal-out run.jsonl f3 t2");
    assert!(a.status.success(), "{}", stderr(&a));
    let b = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --breaker-cooldown 2 \
         --journal-out dispatch.jsonl --scratch s f3 t2",
    );
    assert!(b.status.success(), "{}", stderr(&b));

    let journals = ["run.jsonl", "dispatch.jsonl"].map(|j| canonical_journal(&dir.join(j)));
    for journal in &journals {
        let first = &journal[0];
        assert!(first.contains("run-start"), "{first}");
        assert!(first.contains("cooldown=2"), "{first}");
    }
    // The flag is part of the canonical run configuration, so the two
    // journals agree event for event.
    assert_eq!(journals[0], journals[1]);
}

#[test]
fn dispatch_cli_rejects_bad_arguments() {
    for (args, needle) in [
        ("dispatch", "--procs"),
        ("dispatch --procs 0", "--procs must be positive"),
        ("dispatch --procs 2 --chaos-proc explode:1", "--chaos-proc"),
        ("dispatch --procs 2 --shard-deadline-ms 0", "positive"),
        ("dispatch --procs 2 nosuch", "unknown experiment id"),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(stderr(&out).contains(needle), "{args}: {}", stderr(&out));
    }
}

#[test]
fn a_complete_dispatch_removes_only_its_own_scratch_dirs() {
    let dir = Scratch::new("own-dirs");
    let shared = dir.join("shared");
    std::fs::create_dir_all(&shared).unwrap();
    std::fs::write(shared.join("keep.txt"), "precious\n").unwrap();

    let out = dir.run("dispatch --procs 2 --report-only --seed 7 --scratch shared f3 t2");
    assert!(out.status.success(), "{}", stderr(&out));
    let left: Vec<String> = std::fs::read_dir(&shared)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    assert_eq!(left, ["keep.txt"], "only the dispatch's own dirs go");
    assert_eq!(
        std::fs::read_to_string(shared.join("keep.txt")).unwrap(),
        "precious\n"
    );

    // A scratch dir the dispatch made itself is removed once empty.
    let out = dir.run("dispatch --procs 2 --report-only --seed 7 --scratch own f3 t2");
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!dir.join("own").exists());
}
