//! The supervised runner under the chaos fault profile, driving the real
//! `experiments` binary over all 17 experiments: a chaos run with retries
//! and a generous deadline exits 0 (every experiment ends ok, degraded or
//! retried). That a chaos run's report reproduces for a fixed seed is the
//! `run` row of `tests/contract.rs`.

mod common;

use common::{experiments, stderr, stdout};

#[test]
fn chaos_run_with_retries_exits_zero() {
    let out = experiments("--fault-profile chaos --retries 2 --deadline-ms 30000 --report-only");
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        stdout(&out),
        stderr(&out)
    );
}
