//! Serve-daemon contracts, driving the real `experiments` binary (that a
//! hit is byte-identical to its miss and to `run --report-out`, with zero
//! runner attempts, is the `query` row of `tests/contract.rs`):
//!
//! - Under a tiny queue the daemon sheds excess load with `overloaded`
//!   (query exit code 3) instead of hanging, and serves again once
//!   drained.
//! - SIGTERM drains the daemon gracefully (exit 0, `serve: drained`).
//! - A deeply nested request line is answered with one `error` line, and
//!   the daemon keeps serving.

mod common;

use common::{experiments, stderr, Daemon, Scratch, TIMEOUT};
use humnet::serve::Request;
use std::process::Command;

#[test]
fn tiny_queue_sheds_with_exit_code_3_and_recovers() {
    let dir = Scratch::new("overload");
    let daemon = Daemon::start(&dir, "--queue-depth 1 --concurrency 1 --hold-ms 900");

    // Whether a burst actually collides depends on how fast the four
    // client processes spawn; under heavy machine load they can stagger
    // past the hold window and all get admitted. Shedding is timing-based
    // by design, so retry the burst (fresh seeds each time — every
    // request stays a miss) until at least one collision happens.
    let (mut total_shed, mut total_ok) = (0usize, 0usize);
    let mut all_codes = Vec::new();
    for burst in 0..3u64 {
        let clients: Vec<_> = (0..4u64)
            .map(|i| {
                let addr = daemon.addr.clone();
                let seed = burst * 10 + i;
                std::thread::spawn(move || {
                    let out = experiments(&format!("query f1 --addr {addr} --seed {seed}"));
                    let code = out.status.code().expect("query exit code");
                    // Every admitted query is a miss (fresh seeds); every
                    // refused one says why.
                    let said = if code == 0 {
                        "query: miss"
                    } else {
                        "overloaded"
                    };
                    assert!(stderr(&out).contains(said), "exit {code}: {}", stderr(&out));
                    code
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
        total_ok += ok;
        all_codes.push(codes);
        if shed >= 1 {
            break;
        }
    }
    assert!(total_shed >= 1, "no query was ever shed: {all_codes:?}");

    // Drained daemon serves again, and counted every shed and every miss.
    let after = daemon
        .client()
        .request(&Request::run("f1", 99, "none", 1.0))
        .unwrap();
    assert_eq!(after.status, "miss", "{after:?}");
    let stats = daemon.counters();
    assert_eq!(stats["serve.shed"], total_shed as u64);
    assert_eq!(stats["serve.cache_miss"], total_ok as u64 + 1);

    daemon.shutdown();
}

#[cfg(unix)]
#[test]
fn sigterm_drains_the_daemon_gracefully() {
    let dir = Scratch::new("sigterm");
    let mut daemon = Daemon::start(&dir, "");
    let miss = daemon
        .client()
        .request(&Request::run("f1", 3, "none", 1.0))
        .unwrap();
    assert_eq!(miss.status, "miss");

    let kill = Command::new("kill")
        .args(["-TERM", &daemon.pid().to_string()])
        .status()
        .expect("kill runs");
    assert!(kill.success());
    let status = daemon.wait();
    assert!(status.success(), "SIGTERM exit: {status:?}");
    assert!(daemon.log().contains("serve: drained"), "{}", daemon.log());

    // The flushed cache serves the entry to a fresh daemon as a hit.
    let daemon2 = Daemon::start(&dir, "");
    let hit = daemon2
        .client()
        .request(&Request::run("f1", 3, "none", 1.0))
        .unwrap();
    assert_eq!(hit.status, "hit", "{hit:?}");
    assert_eq!(hit.artifact, miss.artifact);
    daemon2.shutdown();
}

#[test]
fn a_deeply_nested_request_line_is_refused_and_the_daemon_keeps_serving() {
    use std::io::{BufRead, BufReader, Write};
    let dir = Scratch::new("nesting");
    let daemon = Daemon::start(&dir, "");

    // 200k `[`s fit under the request-size cap; a parser recursing once
    // per level would overflow the handler's stack and abort the daemon.
    let mut stream = std::net::TcpStream::connect(&daemon.addr).expect("connect");
    stream.set_read_timeout(Some(TIMEOUT)).unwrap();
    let mut line = "[".repeat(200_000);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reply = String::new();
    BufReader::new(&stream)
        .read_line(&mut reply)
        .expect("one reply line");
    assert!(reply.contains(r#""status":"error""#), "{reply}");
    assert!(reply.contains("nesting deeper than 128"), "{reply}");
    drop(stream);

    // A new connection is still answered.
    let counters = daemon.counters();
    assert!(counters["serve.error"] >= 1, "{counters:?}");
    daemon.shutdown();
}
