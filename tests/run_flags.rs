//! The run-configuration flags that `run`, `dispatch`, `serve` and
//! `query` share are checked the same way on each of them: a value no run
//! could honour is a usage error (exit 2) whose message names the flag,
//! and nothing is run, bound or dialled first.

mod common;

use common::stderr;
use std::net::TcpListener;
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

/// The shared flags' bad values, each with the flag its refusal names.
const BAD: [(&str, &str); 4] = [
    ("--fault-profile bogus", "--fault-profile"),
    ("--intensity -1", "--intensity"),
    ("--intensity nan", "--intensity"),
    ("--deadline-ms 0", "--deadline-ms"),
];

#[test]
fn every_command_refuses_a_run_tuple_no_run_could_honour() {
    let dir = common::Scratch::new("run-flags");
    // Bound, then dropped: nothing listens there, so a query that got as
    // far as dialling fails with a connect error, not a usage error.
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let cache = dir.join("cache");
    let commands = [
        "run f3".to_owned(),
        "dispatch --procs 2 f3".to_owned(),
        format!("serve --addr 127.0.0.1:0 --cache-dir {}", cache.display()),
        format!("query f3 --addr {dead}"),
    ];
    let mut cases: Vec<(String, &str)> = Vec::new();
    for command in &commands {
        for (bad, flag) in BAD {
            cases.push((format!("{command} {bad}"), flag));
        }
    }
    // A run's cache key leaves the breaker cooldown out, so a query
    // cannot carry one.
    cases.push((
        format!("query f3 --addr {dead} --breaker-cooldown 2"),
        "--breaker-cooldown",
    ));

    let failures: Vec<String> = cases
        .iter()
        .filter_map(|(line, flag)| {
            let out = experiments_within(line, Duration::from_secs(60));
            let err = stderr(&out);
            let first = err.lines().next().unwrap_or_default();
            let refused = out.status.code() == Some(2) && names(first, flag);
            (!refused).then(|| format!("`{line}`: {:?}, stderr {first:?}", out.status))
        })
        .collect();
    assert!(failures.is_empty(), "\n{}", failures.join("\n"));
}

/// Whether `message` names `flag`, in its CLI spelling (`--deadline-ms`)
/// or its wire spelling (`deadline_ms`).
fn names(message: &str, flag: &str) -> bool {
    let words = |s: &str| s.replace(['-', '_'], " ");
    words(message).contains(words(flag).trim())
}

/// Run the binary with the words of `line`, killing it if it has not
/// exited within `limit` (a `serve` that accepted its flags would run
/// until stopped).
fn experiments_within(line: &str, limit: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(line.split_whitespace())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("experiments binary runs");
    let t0 = Instant::now();
    while child.try_wait().expect("wait").is_none() && t0.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(20));
    }
    let _ = child.kill();
    child.wait_with_output().expect("experiments output")
}
