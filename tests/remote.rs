//! Remote-dispatch contracts, driving the real `experiments` binary —
//! a dispatcher plus genuine `experiments serve` daemons (the shard
//! workers) over loopback TCP. The plain 2-worker identity is a cell of
//! `tests/contract.rs`.
//!
//! - `--chaos-net kill` cuts a worker's connection mid-lease; the retry
//!   re-leases on the surviving worker and the merged journal is still
//!   byte-identical to the in-process 1-shard `run`.
//! - Dead worker addresses fail over to local child processes (and the
//!   journal still matches); with `--no-failover --allow-partial` they
//!   degrade to exit 3 with the lost experiments named.
//! - Workers drain gracefully on a shutdown frame after serving leases.

mod common;

use common::{canonical_journal, experiments, stderr, stdout, Daemon, Scratch};

/// Write the in-process ground truth, `inproc.jsonl`, for a chaos run at
/// `seed` over `ids` (all when empty).
fn baseline_journal(dir: &Scratch, seed: &str, ids: &str) {
    let out = dir.run(&format!(
        "run --report-only --fault-profile chaos --seed {seed} --journal-out inproc.jsonl {ids}"
    ));
    assert!(out.status.success(), "{}", stderr(&out));
}

#[test]
fn chaos_net_kill_mid_lease_retries_and_stays_byte_identical() {
    let dir = Scratch::new("chaos-kill");
    baseline_journal(&dir, "11", "");
    let w0 = Daemon::start(&dir.join("worker-a"), "");
    let w1 = Daemon::start(&dir.join("worker-b"), "");

    // Worker 0's first lease (shard 0, attempt 0) is killed mid-lease;
    // the retry rotates shard 0 onto worker 1, which finishes the slice.
    let out = dir.run(&format!(
        "dispatch --procs 2 --report-only --fault-profile chaos --seed 11 --workers {},{} \
         --chaos-net kill:0 --shard-retries 1 --journal-out dispatch.jsonl --scratch s",
        w0.addr, w1.addr
    ));
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("remote attempt 1"),
        "the remote retry must be visible in supervision logs: {}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&dir.join("inproc.jsonl")),
        canonical_journal(&dir.join("dispatch.jsonl")),
        "a chaos-killed lease must still reproduce the 1-shard journal"
    );

    // Worker 1 survived the whole run and still drains; worker 0 only
    // closed the chaos-killed lease's connection, so it drains too.
    w0.shutdown();
    w1.shutdown();
}

#[test]
fn dead_workers_fail_over_to_local_children_and_stay_byte_identical() {
    let dir = Scratch::new("failover");
    baseline_journal(&dir, "7", "f3 t2");

    // Nothing listens on these ports: every remote attempt fails fast and
    // the supervision ladder falls back to local child processes.
    let out = dir.run(
        "dispatch --procs 2 --report-only --fault-profile chaos --seed 7 \
         --workers 127.0.0.1:1,127.0.0.1:1 --shard-retries 1 --connect-timeout-ms 500 \
         --journal-out dispatch.jsonl --scratch s f3 t2",
    );
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("failing over to a local child"),
        "{}",
        stderr(&out)
    );
    assert_eq!(
        canonical_journal(&dir.join("inproc.jsonl")),
        canonical_journal(&dir.join("dispatch.jsonl")),
        "local failover must still reproduce the 1-shard journal"
    );
}

#[test]
fn dead_workers_without_failover_degrade_under_allow_partial() {
    let dir = Scratch::new("degraded");
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --workers 127.0.0.1:1 --no-failover \
         --shard-retries 1 --allow-partial --connect-timeout-ms 500 --scratch s f3 t2 f4 t3",
    );
    assert_eq!(
        out.status.code(),
        Some(3),
        "degraded exit: {}",
        stderr(&out)
    );
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
}

#[test]
fn dead_workers_without_failover_fail_loudly_by_default() {
    let dir = Scratch::new("loud");
    let out = dir.run(
        "dispatch --procs 2 --report-only --seed 7 --workers 127.0.0.1:1 --no-failover \
         --shard-retries 0 --connect-timeout-ms 500 --scratch s f3 t2",
    );
    assert_eq!(out.status.code(), Some(2), "fatal exit: {}", stderr(&out));
    assert!(stderr(&out).contains("shard"), "{}", stderr(&out));
}

#[test]
fn remote_cli_rejects_bad_arguments() {
    for (args, needle) in [
        (
            "dispatch --procs 2 --chaos-net kill:0",
            "--chaos-net needs --workers",
        ),
        (
            "dispatch --procs 2 --no-failover",
            "--no-failover needs --workers",
        ),
        (
            "dispatch --procs 2 --workers h:1 --chaos-net explode:0",
            "bad --chaos-net",
        ),
        ("dispatch --procs 2 --workers ,", "--workers needs"),
        (
            "dispatch --procs 2 --workers h:1 --connect-timeout-ms 0",
            "positive",
        ),
        // `worker` is no subcommand, so the bare form reads it as an id.
        ("worker", "unknown experiment id 'worker'"),
    ] {
        let out = experiments(args);
        assert_eq!(out.status.code(), Some(2), "{args}");
        assert!(stderr(&out).contains(needle), "{args}: {}", stderr(&out));
    }
}
