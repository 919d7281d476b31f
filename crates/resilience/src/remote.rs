//! Cross-machine dispatch: shard leases over TCP.
//!
//! The lease transport of [`dispatch`](mod@crate::dispatch). Workers
//! are `experiments serve` daemons: `lease` is one more request kind on
//! the serve wire protocol (line-delimited JSON, framed by
//! [`LineBuffer`]). The dispatcher leases a daemon one shard slice at a
//! time ([`Lease`]):
//! experiment codes, spec-base offset, and the full run configuration
//! tuple (`seed`, `profile`, `intensity`, `retries`, `deadline_ms`,
//! `breaker_cooldown`). The daemon admits the lease through its bounded
//! work queue, executes the slice on its warm in-process scheduler
//! runtime (exactly as a `run --shards 1` dispatch child would), streams
//! heartbeat frames inline on the connection while the lease is queued
//! or running, and returns the serialized [`crate::RunArtifact`] and
//! telemetry snapshot (events included) as the final `done` frame. This
//! module holds the wire frames and one lease attempt; the shard ladder
//! (retry, worker rotation, local failover, merge) is
//! [`dispatch`](mod@crate::dispatch)'s, and the daemon side lives in
//! `humnet-serve`.
//!
//! A lease attempt gives the verdicts a child attempt does, in
//! connection terms: a worker that closes the connection (or was never
//! reachable) fails the attempt; a lease outliving the per-shard
//! wall-clock budget is revoked by dropping the connection; a connection
//! silent for longer than the grace window (no heartbeat *or* result
//! frame) is declared partitioned and the lease revoked. A frame whose
//! lease id is not the attempt's own `(shard << 16) | attempt` fails the
//! attempt too, so a stale answer is never merged.
//!
//! Network-level fault injection mirrors `--chaos-proc`: a [`ChaosNet`]
//! spec (`kill:1`, `stall:0:1`, `garble:1`) makes the dispatcher stamp a
//! chaos directive onto the matching `(worker, attempt)` lease frame, and
//! the cooperating daemon drops the connection mid-lease, goes silent
//! holding it open, or emits a corrupt frame.

use crate::dispatch::{AttemptFailure, DispatchConfig, ShardPaths, ShardSpec, ShardYield};
use crate::runner::RunnerConfig;
use serde::{Deserialize, Serialize};
use std::fs;
use std::io::{Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// How a chaos-selected worker misbehaves on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosKind {
    /// Drop the connection abruptly mid-lease (simulated worker crash).
    Kill,
    /// Hold the connection open but send nothing (simulated partition /
    /// wedge — the dispatcher's liveness window must fire).
    Stall,
    /// Emit a corrupt, non-JSON frame (simulated wire damage).
    Garble,
}

impl ChaosKind {
    /// Wire label (`kill` / `stall` / `garble`).
    pub fn label(self) -> &'static str {
        match self {
            ChaosKind::Kill => "kill",
            ChaosKind::Stall => "stall",
            ChaosKind::Garble => "garble",
        }
    }

    /// Parse a wire label back.
    pub fn parse(s: &str) -> Option<ChaosKind> {
        match s {
            "kill" => Some(ChaosKind::Kill),
            "stall" => Some(ChaosKind::Stall),
            "garble" => Some(ChaosKind::Garble),
            _ => None,
        }
    }
}

/// One network-level fault injection, dispatcher-side: which worker
/// (index into the `--workers` list), which lease attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosNet {
    /// The fault to inject.
    pub kind: ChaosKind,
    /// Targeted worker index (position in the `--workers` list).
    pub worker: u32,
    /// Shard attempt the fault fires on (0 = first lease of a shard).
    pub lease: u32,
}

impl ChaosNet {
    /// Parse a `--chaos-net` argument:
    /// `kill:<worker>[:lease]`, `stall:<worker>[:lease]`, or
    /// `garble:<worker>[:lease]`.
    pub fn parse(s: &str) -> Option<ChaosNet> {
        let mut parts = s.split(':');
        let kind = ChaosKind::parse(parts.next()?)?;
        let worker: u32 = parts.next()?.parse().ok()?;
        let lease: u32 = match parts.next() {
            Some(a) => a.parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() {
            return None;
        }
        Some(ChaosNet {
            kind,
            worker,
            lease,
        })
    }

    /// The directive to stamp onto the lease frame for `(worker, attempt)`,
    /// if this fault targets it.
    pub fn directive(&self, worker: u32, attempt: u32) -> Option<ChaosKind> {
        (self.worker == worker && self.lease == attempt).then_some(self.kind)
    }
}

// ---------------------------------------------------------------------------
// Wire frames (line-delimited JSON, one frame per line — the serve
// protocol's `lease` request and its answers; plain `Option` fields so
// absent keys read as `None`).
// ---------------------------------------------------------------------------

/// A dispatcher → worker request frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Lease {
    /// Always `lease` (execute a shard slice); a daemon's other commands
    /// are serve requests.
    pub cmd: String,
    /// Dispatcher-chosen lease id, echoed on every response frame.
    pub lease: Option<u64>,
    /// Shard index the slice belongs to.
    pub shard: Option<u32>,
    /// Offset of the slice in the full experiment list.
    pub spec_base: Option<u64>,
    /// Experiment codes in the slice, canonical order.
    pub experiments: Option<Vec<String>>,
    /// Run seed.
    pub seed: Option<u64>,
    /// Fault profile label.
    pub profile: Option<String>,
    /// Fault intensity multiplier.
    pub intensity: Option<f64>,
    /// Per-experiment retry budget.
    pub retries: Option<u32>,
    /// Per-attempt deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Breaker half-open cooldown.
    pub breaker_cooldown: Option<u32>,
    /// Chaos directive ([`ChaosKind`] label) the worker should cooperate
    /// with on this lease; absent in production traffic.
    pub chaos: Option<String>,
}

impl Lease {
    /// A lease frame for one shard slice under `runner`'s configuration.
    pub fn for_shard(spec: &ShardSpec, runner: &RunnerConfig, lease_id: u64) -> Lease {
        Lease {
            cmd: "lease".to_owned(),
            lease: Some(lease_id),
            shard: Some(spec.shard),
            spec_base: Some(spec.spec_base),
            experiments: Some(spec.codes.clone()),
            seed: Some(runner.seed),
            profile: Some(runner.profile.label().to_owned()),
            intensity: Some(runner.intensity),
            retries: Some(runner.retries),
            deadline_ms: Some(runner.deadline.as_millis() as u64),
            breaker_cooldown: Some(runner.breaker_cooldown),
            chaos: None,
        }
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parse one wire line.
    pub fn from_line(line: &str) -> Result<Lease, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

/// A worker → dispatcher response frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerFrame {
    /// `hb` (inline heartbeat), `done` (final result), or `error`.
    pub status: String,
    /// Lease id this frame answers.
    pub lease: Option<u64>,
    /// Heartbeat counter, monotonic per lease.
    pub beat: Option<u64>,
    /// Shard index of the slice (on `done`).
    pub shard: Option<u32>,
    /// Serialized canonical [`crate::RunArtifact`] JSON (on `done`).
    pub artifact: Option<String>,
    /// Serialized telemetry snapshot JSON, events included (on `done`).
    pub metrics: Option<String>,
    /// Human-readable failure (on `error`).
    pub message: Option<String>,
}

impl WorkerFrame {
    fn empty(status: &str) -> WorkerFrame {
        WorkerFrame {
            status: status.to_owned(),
            lease: None,
            beat: None,
            shard: None,
            artifact: None,
            metrics: None,
            message: None,
        }
    }

    /// An inline heartbeat for a lease in flight.
    pub fn hb(lease: u64, beat: u64) -> WorkerFrame {
        WorkerFrame {
            lease: Some(lease),
            beat: Some(beat),
            ..WorkerFrame::empty("hb")
        }
    }

    /// The final result frame of a completed lease.
    pub fn done(lease: u64, shard: u32, artifact: String, metrics: String) -> WorkerFrame {
        WorkerFrame {
            lease: Some(lease),
            shard: Some(shard),
            artifact: Some(artifact),
            metrics: Some(metrics),
            ..WorkerFrame::empty("done")
        }
    }

    /// A lease-level failure the worker could diagnose itself.
    pub fn error(lease: Option<u64>, message: impl Into<String>) -> WorkerFrame {
        WorkerFrame {
            lease,
            message: Some(message.into()),
            ..WorkerFrame::empty("error")
        }
    }

    /// Serialize as one wire line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Parse one wire line.
    pub fn from_line(line: &str) -> Result<WorkerFrame, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

/// Incremental line framer shared by the serve daemon's connection loop,
/// the persistent pipelined client, and the lease dispatcher: push raw
/// socket reads in, pull complete trimmed lines out. Bytes after the last
/// newline stay buffered until the next push completes them, so partial
/// frames are never mis-parsed.
///
/// Each byte is scanned for a newline once: a search that comes up empty
/// remembers where it stopped, and consumed lines are only marked, then
/// compacted away once per [`LineBuffer::push`].
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
    /// Start of the first unconsumed byte.
    start: usize,
    /// `buf[start..scanned]` is known to hold no newline.
    scanned: usize,
}

impl LineBuffer {
    /// An empty framer.
    pub fn new() -> LineBuffer {
        LineBuffer::default()
    }

    /// Append raw bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.drain(..self.start);
        self.scanned -= self.start;
        self.start = 0;
        self.buf.extend_from_slice(bytes);
    }

    /// Drain the next complete line, trimmed; blank lines are skipped.
    pub fn next_line(&mut self) -> Option<String> {
        loop {
            let Some(offset) = self.buf[self.scanned..].iter().position(|&b| b == b'\n') else {
                self.scanned = self.buf.len();
                return None;
            };
            let end = self.scanned + offset;
            let text = String::from_utf8_lossy(&self.buf[self.start..end])
                .trim()
                .to_owned();
            self.start = end + 1;
            self.scanned = self.start;
            if !text.is_empty() {
                return Some(text);
            }
        }
    }

    /// Bytes buffered but not yet returned as a line: once
    /// [`LineBuffer::next_line`] has come up empty, the length of the
    /// partial frame still waiting for its newline.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Whether nothing (not even a partial frame) is buffered.
    pub fn is_empty(&self) -> bool {
        self.pending() == 0
    }
}

// ---------------------------------------------------------------------------
// Dispatcher side
// ---------------------------------------------------------------------------

/// Dial every resolved address for `addr` until one connects in budget.
fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let resolved = addr.to_socket_addrs()?;
    let mut last = std::io::Error::new(
        std::io::ErrorKind::AddrNotAvailable,
        format!("no addresses resolved for {addr}"),
    );
    for sock in resolved {
        match TcpStream::connect_timeout(&sock, timeout) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = e,
        }
    }
    Err(last)
}

/// One lease-watch-collect cycle: shard attempt `attempt` against worker
/// `(shard + attempt) % workers`. Dropping the stream on any exit path
/// *is* the lease revocation: the worker notices the dead connection on
/// its next frame write and abandons the result.
pub(crate) fn lease_attempt(
    config: &DispatchConfig,
    runner: &RunnerConfig,
    spec: &ShardSpec,
    attempt: u32,
) -> Result<ShardYield, AttemptFailure> {
    let widx = (spec.shard + attempt) as usize % config.workers.len();
    let addr = &config.workers[widx];
    let fail = |msg: String| AttemptFailure::Remote(format!("worker {addr}: {msg}"));

    let mut stream =
        connect(addr, config.connect_timeout).map_err(|e| fail(format!("connect failed: {e}")))?;
    let _ = stream.set_nodelay(true);

    let lease_id = (u64::from(spec.shard) << 16) | u64::from(attempt);
    let mut lease = Lease::for_shard(spec, runner, lease_id);
    lease.chaos = config
        .chaos_net
        .iter()
        .find_map(|c| c.directive(widx as u32, attempt))
        .map(|k| k.label().to_owned());
    let line = lease
        .to_line()
        .map_err(|e| fail(format!("lease not serializable: {e}")))?;
    stream
        .write_all(format!("{line}\n").as_bytes())
        .and_then(|()| stream.flush())
        .map_err(|e| fail(format!("lease send failed: {e}")))?;

    // Short read timeout so deadline/liveness checks interleave with the
    // blocking reads — the same poll cadence the child watcher uses.
    let poll = config.poll.max(Duration::from_millis(5));
    let _ = stream.set_read_timeout(Some(poll));

    let started = Instant::now();
    let mut last_frame = Instant::now();
    let mut framer = LineBuffer::new();
    let mut chunk = [0u8; 8192];
    loop {
        while let Some(line) = framer.next_line() {
            let frame = WorkerFrame::from_line(&line).map_err(|_| {
                let shown: String = line.chars().take(80).collect();
                fail(format!("garbled frame: {shown:?}"))
            })?;
            last_frame = Instant::now();
            match frame.status.as_str() {
                "hb" | "done" if frame.lease != Some(lease_id) => {
                    let answered = frame.lease.map_or("none".to_owned(), |id| id.to_string());
                    return Err(fail(format!(
                        "{} frame for lease {answered} on lease {lease_id}; stale answer refused",
                        frame.status
                    )));
                }
                "hb" => {}
                "done" => return collect_done(&frame, config, spec, attempt).map_err(fail),
                "error" => {
                    let msg = frame.message.unwrap_or_else(|| "unspecified".to_owned());
                    return Err(fail(format!("lease refused: {msg}")));
                }
                other => return Err(fail(format!("unexpected frame status {other:?}"))),
            }
        }
        if started.elapsed() >= config.shard_deadline {
            return Err(fail(format!(
                "lease exceeded the {}ms shard deadline; revoked",
                config.shard_deadline.as_millis()
            )));
        }
        if !config.liveness.is_zero() && last_frame.elapsed() >= config.liveness {
            return Err(fail(format!(
                "no frame for {}ms; worker declared partitioned and lease revoked",
                last_frame.elapsed().as_millis()
            )));
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Err(fail("connection closed mid-lease".to_owned())),
            Ok(n) => framer.push(&chunk[..n]),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(e) => return Err(fail(format!("read failed: {e}"))),
        }
    }
}

/// Parse a `done` frame into the same per-shard yield a local child's
/// artifact files produce; under `keep_scratch`, write the frame's
/// artifact and metrics to the attempt's `report.json` and
/// `metrics.json`, as a child does.
fn collect_done(
    frame: &WorkerFrame,
    config: &DispatchConfig,
    spec: &ShardSpec,
    attempt: u32,
) -> Result<ShardYield, String> {
    let (Some(artifact), Some(metrics)) = (frame.artifact.as_deref(), frame.metrics.as_deref())
    else {
        return Err("done frame missing artifact or metrics".to_owned());
    };
    let yielded = ShardYield::parse(artifact, metrics).map_err(|e| format!("done frame {e}"))?;
    if config.keep_scratch {
        let paths = ShardPaths::new(&config.scratch, spec.shard, attempt);
        if fs::create_dir_all(&paths.dir).is_ok() {
            let _ = fs::write(&paths.report, artifact);
            let _ = fs::write(&paths.metrics, metrics);
        }
    }
    Ok(yielded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dispatch::dispatch;
    use crate::report::RunArtifact;
    use proptest::prelude::*;
    use std::net::TcpListener;
    use std::path::PathBuf;
    use std::process::Command;

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("humnet-remote-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config(tag: &str) -> DispatchConfig {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(30),
            liveness: Duration::from_millis(500),
            poll: Duration::from_millis(5),
            backoff_base: Duration::from_millis(1),
            scratch: scratch(tag),
            ..DispatchConfig::default()
        }
    }

    fn shard_spec(shard: u32, spec_base: u64, codes: &[&str]) -> ShardSpec {
        ShardSpec {
            shard,
            spec_base,
            codes: codes.iter().map(|s| (*s).to_owned()).collect(),
        }
    }

    /// Local-failover child builder that must never be reached.
    fn no_local_children(_: &ShardSpec, _: &ShardPaths) -> Command {
        panic!("test expected no local failover");
    }

    #[test]
    fn chaos_net_specs_parse_and_match() {
        assert_eq!(
            ChaosNet::parse("kill:2"),
            Some(ChaosNet {
                kind: ChaosKind::Kill,
                worker: 2,
                lease: 0
            })
        );
        assert_eq!(
            ChaosNet::parse("stall:0:1"),
            Some(ChaosNet {
                kind: ChaosKind::Stall,
                worker: 0,
                lease: 1
            })
        );
        assert_eq!(
            ChaosNet::parse("garble:1"),
            Some(ChaosNet {
                kind: ChaosKind::Garble,
                worker: 1,
                lease: 0
            })
        );
        for bad in ["", "kill", "kill:", "kill:x", "drop:1", "kill:1:2:3"] {
            assert_eq!(ChaosNet::parse(bad), None, "{bad:?}");
        }
        let c = ChaosNet::parse("kill:1:1").unwrap();
        assert_eq!(c.directive(1, 1), Some(ChaosKind::Kill));
        assert_eq!(c.directive(1, 0), None);
        assert_eq!(c.directive(0, 1), None);
    }

    #[test]
    fn line_buffer_reassembles_split_frames_and_skips_blanks() {
        let mut framer = LineBuffer::new();
        framer.push(b"{\"cmd\":");
        assert_eq!(framer.next_line(), None, "partial frame stays buffered");
        assert_eq!(framer.pending(), 7);
        framer.push(b"\"stats\"}\n\n  \n{\"cmd\":\"run\"}\ntail");
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"stats\"}"));
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"run\"}"));
        assert_eq!(framer.next_line(), None);
        assert!(
            !framer.is_empty(),
            "the unterminated tail is still buffered"
        );
        assert_eq!(framer.pending(), 4);
        framer.push(b"\n");
        assert_eq!(framer.next_line().as_deref(), Some("tail"));
        assert!(framer.is_empty());
    }

    /// The framing of a whole stream at once, without `LineBuffer`: every
    /// newline-terminated segment, trimmed, blanks dropped, plus the length
    /// of the unterminated tail left over.
    fn frame_whole(stream: &[u8]) -> (Vec<String>, usize) {
        let mut segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        let tail = segments.pop().unwrap_or_default();
        let lines = segments
            .iter()
            .map(|seg| String::from_utf8_lossy(seg).trim().to_owned())
            .filter(|line| !line.is_empty())
            .collect();
        (lines, tail.len())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn any_split_frames_like_the_whole_stream(
            // Codes past 255 become newlines, so lines are short and many.
            codes in prop::collection::vec(0u16..320, 0..160),
            cuts in prop::collection::vec(0usize..161, 0..12),
        ) {
            let stream: Vec<u8> = codes.iter().map(|&c| u8::try_from(c).unwrap_or(b'\n')).collect();
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut framer = LineBuffer::new();
            let mut lines = Vec::new();
            let mut from = 0;
            for to in cuts {
                framer.push(&stream[from..to]);
                lines.extend(std::iter::from_fn(|| framer.next_line()));
                from = to;
            }
            prop_assert_eq!((lines, framer.pending()), frame_whole(&stream));
        }
    }

    #[test]
    fn frames_round_trip_through_lines() {
        let spec = shard_spec(2, 5, &["exp1", "exp2"]);
        let lease = Lease::for_shard(&spec, &RunnerConfig::default(), 7);
        let back = Lease::from_line(&lease.to_line().unwrap()).unwrap();
        assert_eq!(back, lease);
        assert_eq!(
            back.experiments.as_deref(),
            Some(&["exp1".to_owned(), "exp2".to_owned()][..])
        );

        let done = WorkerFrame::done(7, 2, "{}".into(), "{}".into());
        assert_eq!(
            WorkerFrame::from_line(&done.to_line().unwrap()).unwrap(),
            done
        );
        // Older daemons also sent the journal; unknown keys are ignored.
        let mut older = done.to_line().unwrap();
        older.insert_str(older.len() - 1, r#","journal":"{\"seq\":0}\n""#);
        assert_eq!(WorkerFrame::from_line(&older).unwrap(), done);
        let hb = WorkerFrame::hb(7, 3);
        assert_eq!(WorkerFrame::from_line(&hb.to_line().unwrap()).unwrap(), hb);
        assert!(WorkerFrame::from_line("}{ not a frame").is_err());
    }

    #[test]
    fn unreachable_workers_without_failover_degrade_with_connect_reason() {
        // Bind-then-drop guarantees nobody is listening on the port.
        let dead = {
            let sock = TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let mut config = quick_config("unreachable");
        config.shard_retries = 1;
        config.allow_partial = true;
        config.workers = vec![dead];
        config.connect_timeout = Duration::from_millis(500);
        config.local_failover = false;
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(outcome.degraded());
        assert_eq!(outcome.missing[0].attempts, 2);
        assert!(
            outcome.missing[0].reason.contains("connect failed"),
            "{}",
            outcome.missing[0].reason
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn exhausted_remote_retries_fail_over_to_a_local_child() {
        // No worker listens anywhere; the slice must fall through to the
        // local child ladder, which runs a fake `sh` child that writes
        // valid artifacts (same fixture style as dispatch.rs tests).
        let dead = {
            let sock = TcpListener::bind("127.0.0.1:0").unwrap();
            sock.local_addr().unwrap().to_string()
        };
        let mut config = quick_config("failover");
        config.shard_retries = 0;
        config.workers = vec![dead];
        config.connect_timeout = Duration::from_millis(300);
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            |spec, paths| {
                let tel = humnet_telemetry::Telemetry::new();
                tel.event(humnet_telemetry::Event::new("run-start", "profile=none seed=1"));
                tel.event(humnet_telemetry::Event::new("run-end", "1 experiments: 1 ok"));
                let metrics = tel.into_snapshot().to_json().unwrap();
                let artifact = RunArtifact {
                    report: crate::report::RunReport {
                        experiments: vec![crate::report::ExperimentReport {
                            code: spec.codes[0].clone(),
                            title: "t".to_owned(),
                            family: "fam".to_owned(),
                            status: crate::report::ExperimentStatus::Ok,
                            attempts: 1,
                            faults_injected: 0,
                            message: String::new(),
                            duration_ms: 0,
                        }],
                        profile: "none".to_owned(),
                        seed: 1,
                        code_rev: String::new(),
                    },
                    outputs: std::iter::once((spec.codes[0].clone(), "local output".to_owned()))
                        .collect(),
                };
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg(format!(
                    "cat > '{m}' <<'HUMNET_EOF_M'\n{metrics}\nHUMNET_EOF_M\ncat > '{r}' <<'HUMNET_EOF_R'\n{report}\nHUMNET_EOF_R\n",
                    m = paths.metrics.display(),
                    r = paths.report.display(),
                    report = artifact.to_json().unwrap(),
                ));
                cmd
            },
        )
        .unwrap();
        assert!(!outcome.degraded());
        // One failed remote attempt + one successful local child attempt.
        assert_eq!(outcome.shard_attempts, vec![2]);
        assert_eq!(outcome.run.outputs["exp1"], "local output");
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn a_done_frame_for_another_lease_fails_the_attempt() {
        // A well-formed answer to the wrong lease: what a late frame from
        // a revoked lease would look like on a reused connection.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut framer = LineBuffer::new();
            let mut chunk = [0u8; 1024];
            let lease = loop {
                if let Some(line) = framer.next_line() {
                    break Lease::from_line(&line).unwrap();
                }
                let n = stream.read(&mut chunk).unwrap();
                framer.push(&chunk[..n]);
            };
            let artifact = RunArtifact::default().to_json().unwrap();
            let metrics = humnet_telemetry::Telemetry::new()
                .into_snapshot()
                .to_json()
                .unwrap();
            let stale = lease.lease.unwrap() + 1;
            let done = WorkerFrame::done(stale, 0, artifact, metrics);
            stream
                .write_all(format!("{}\n", done.to_line().unwrap()).as_bytes())
                .unwrap();
        });
        let mut config = quick_config("stale-lease");
        config.shard_retries = 0;
        config.allow_partial = true;
        config.workers = vec![addr];
        config.local_failover = false;
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(3, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        peer.join().unwrap();
        assert!(
            outcome.degraded(),
            "a stale done frame must not complete the shard"
        );
        let reason = &outcome.missing[0].reason;
        let lease_id = 3u64 << 16;
        assert!(
            reason.contains(&format!("lease {}", lease_id + 1)),
            "{reason}"
        );
        assert!(reason.contains(&format!("lease {lease_id}")), "{reason}");
        let _ = fs::remove_dir_all(&config.scratch);
    }
}
