//! The supervised runner under the chaos fault profile, driving the real
//! `experiments` binary over all 17 experiments:
//!
//! - a chaos run with retries and a generous deadline exits 0 (every
//!   experiment ends ok, degraded or retried);
//! - two chaos runs at the same seed print the same report once the
//!   wall-clock duration column is stripped.

use std::process::{Command, Output};

const EXE: &str = env!("CARGO_BIN_EXE_experiments");

const CHAOS: [&str; 7] = [
    "--fault-profile",
    "chaos",
    "--retries",
    "2",
    "--deadline-ms",
    "30000",
    "--report-only",
];

fn run(extra: &[&str]) -> Output {
    Command::new(EXE)
        .args(CHAOS)
        .args(extra)
        .output()
        .expect("experiments binary runs")
}

/// The report with each line's first `NNms` cell and the spaces before it
/// removed: what `sed 's/ *[0-9]*ms//'` leaves of it.
fn without_durations(report: &str) -> String {
    report
        .lines()
        .map(|line| match line.find("ms") {
            Some(end) => {
                let start = line[..end]
                    .trim_end_matches(|c: char| c.is_ascii_digit())
                    .trim_end_matches(' ')
                    .len();
                format!("{}{}\n", &line[..start], &line[end + 2..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}

#[test]
fn chaos_run_with_retries_exits_zero() {
    let out = run(&[]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn chaos_reports_are_reproducible_for_a_fixed_seed() {
    let reports: Vec<String> = (0..2)
        .map(|_| {
            let out = run(&["--seed", "7"]);
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            without_durations(&String::from_utf8(out.stdout).unwrap())
        })
        .collect();
    assert!(reports[0].contains("seed=7"), "{}", reports[0]);
    assert!(!reports[0].contains("ms |"), "durations left in:\n{}", reports[0]);
    assert_eq!(reports[0], reports[1]);
}
