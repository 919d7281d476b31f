//! The serve wire protocol, and cross-machine dispatch over it.
//!
//! One protocol: line-delimited JSON over TCP, one [`Request`] per line
//! in and one [`Response`] per line out, framed by [`LineBuffer`]. The
//! `experiments serve` daemon in `humnet-serve` answers it (and
//! re-exports these types); this crate's dispatcher speaks it too, so the
//! types live here, where both can reach them.
//!
//! Workers are serve daemons, and a shard lease is one more request: a
//! [`Request`] with `cmd: "lease"`, its slice in `experiments`, its id in
//! `lease`, and the run tuple (`seed`, `profile`, `intensity`, `retries`,
//! `deadline_ms`, `breaker_cooldown`) a run request carries too. The
//! daemon admits it through its bounded work queue, executes the slice
//! on its warm in-process scheduler runtime (exactly as a `run --shards
//! 1` dispatch child would), writes an `hb` [`Response`] while the lease
//! is queued or running, and answers with a final `done` one carrying the
//! serialized [`crate::RunArtifact`] and telemetry snapshot (events
//! included). Older peers also sent a lease's `shard` and `spec_base` and
//! a `done` frame's `shard`; nothing reads them, and unknown keys are
//! ignored. This module holds the wire types and one lease attempt; the
//! shard ladder (retry, worker rotation, local failover, merge) is
//! [`dispatch`](mod@crate::dispatch)'s.
//!
//! A lease attempt gives the verdicts a child attempt does, in
//! connection terms: a worker that closes the connection (or was never
//! reachable) fails the attempt; a lease outliving the per-shard
//! wall-clock budget is revoked by dropping the connection; a connection
//! silent for longer than the grace window (no heartbeat *or* result
//! frame) is declared partitioned and the lease revoked. A frame whose
//! lease id is not the attempt's own `(shard << 16) | attempt` fails the
//! attempt too, so a stale answer is never merged, and so does a `done`
//! artifact stamped with another [`crate::code_rev`] than the
//! dispatcher's, so a worker of another build is never merged either.
//!
//! Network-level fault injection mirrors `--chaos-proc`: a [`ChaosNet`]
//! spec (`kill:1`, `stall:0:1`, `garble:1`) makes the dispatcher stamp a
//! chaos directive onto the matching `(worker, attempt)` lease request,
//! and the cooperating daemon drops the connection mid-lease, goes silent
//! holding it open, or emits a corrupt frame.

use crate::dispatch::{AttemptFailure, DispatchConfig, ShardPaths, ShardSpec, ShardYield};
use crate::fault::FaultProfile;
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
// The wire protocol: one JSON `Request` per line in, one JSON `Response`
// per line out. The vendored serde has no field attributes, so optional
// fields are plain `Option`s: absent keys read as `None`, unknown keys
// are ignored, and `None` is written as `null`.
// ---------------------------------------------------------------------------

/// Request command: execute (or look up) one experiment run.
pub const CMD_RUN: &str = "run";
/// Request command: execute one shard slice, answered with [`STATUS_HB`]
/// frames and a final [`STATUS_DONE`] or [`STATUS_ERROR`] one.
pub const CMD_LEASE: &str = "lease";
/// Request command: return the daemon's telemetry snapshot.
pub const CMD_STATS: &str = "stats";
/// Request command: drain in-flight runs, flush the cache index, exit.
pub const CMD_SHUTDOWN: &str = "shutdown";

/// Response status: answered from the cache index — no runner attempt.
pub const STATUS_HIT: &str = "hit";
/// Response status: executed on the warm pool and now cached.
pub const STATUS_MISS: &str = "miss";
/// Response status: load-shed — the pending queue was full.
pub const STATUS_OVERLOADED: &str = "overloaded";
/// Response status: the request was invalid or execution failed.
pub const STATUS_ERROR: &str = "error";
/// Response status: a `stats` answer.
pub const STATUS_STATS: &str = "stats";
/// Response status: acknowledgement (e.g. of `shutdown`).
pub const STATUS_OK: &str = "ok";
/// Response status: a heartbeat for a lease in flight.
pub const STATUS_HB: &str = "hb";
/// Response status: a lease's final result.
pub const STATUS_DONE: &str = "done";

/// One request line. `cmd` selects the action. A `run` names one
/// `experiment`; a `lease` names its slice in `experiments`, its id in
/// `lease`, and may carry a `chaos` directive. Both carry the run tuple
/// (`seed`, `profile`, `intensity`, `retries`, `deadline_ms`, and for a
/// lease `breaker_cooldown`); absent fields keep the daemon's defaults.
/// `deadline_ms` is wall-clock, so it is not part of a run's cache key;
/// `retries` is, because it changes what a faulted run reports. A run
/// never reads `breaker_cooldown`: it is not in the key either.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// One of the `CMD_*` constants.
    pub cmd: String,
    /// Experiment code of a run (e.g. `f3`), validated against the registry.
    pub experiment: Option<String>,
    /// Seed for fault plans and jitter streams.
    pub seed: Option<u64>,
    /// Fault profile label (`none|churn|outage|chaos`).
    pub profile: Option<String>,
    /// Multiplier on the profile's fault rates.
    pub intensity: Option<f64>,
    /// Extra attempts per experiment.
    pub retries: Option<u32>,
    /// Per-attempt deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// Breaker half-open cooldown (leases only).
    pub breaker_cooldown: Option<u32>,
    /// Dispatcher-chosen lease id, echoed on every frame of the answer.
    pub lease: Option<u64>,
    /// Experiment codes in a lease's slice, canonical order.
    pub experiments: Option<Vec<String>>,
    /// Chaos directive ([`ChaosKind`] label) the daemon should cooperate
    /// with on this lease; absent in production traffic.
    pub chaos: Option<String>,
}

impl Request {
    /// A `run` request for one experiment tuple.
    pub fn run(experiment: &str, seed: u64, profile: &str, intensity: f64) -> Request {
        Request {
            cmd: CMD_RUN.to_owned(),
            experiment: Some(experiment.to_owned()),
            seed: Some(seed),
            profile: Some(profile.to_owned()),
            intensity: Some(intensity),
            ..Request::default()
        }
    }

    /// A `lease` request: run the slice `codes` under `runner`'s tuple as
    /// lease `id`.
    pub fn lease(id: u64, codes: &[String], runner: &RunnerConfig) -> Request {
        Request {
            cmd: CMD_LEASE.to_owned(),
            seed: Some(runner.seed),
            profile: Some(runner.profile.label().to_owned()),
            intensity: Some(runner.intensity),
            retries: Some(runner.retries),
            deadline_ms: Some(runner.deadline.as_millis() as u64),
            breaker_cooldown: Some(runner.breaker_cooldown),
            lease: Some(id),
            experiments: Some(codes.to_vec()),
            ..Request::default()
        }
    }

    /// A `stats` request.
    pub fn stats() -> Request {
        Request {
            cmd: CMD_STATS.to_owned(),
            ..Request::default()
        }
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Request {
        Request {
            cmd: CMD_SHUTDOWN.to_owned(),
            ..Request::default()
        }
    }

    /// Lay this request's run tuple over `defaults`: each present field
    /// replaces its counterpart. The one way a tuple becomes a
    /// [`RunnerConfig`] — the daemon's runs and leases and the binary's
    /// shared run flags all go through it, so all of them refuse what no
    /// run could honour.
    pub fn overlay(&self, defaults: &RunnerConfig) -> Result<RunnerConfig, String> {
        let mut config = *defaults;
        if let Some(label) = &self.profile {
            config.profile = FaultProfile::parse(label).ok_or_else(|| {
                format!("unknown fault profile '{label}' (none|churn|outage|chaos)")
            })?;
        }
        if let Some(x) = self.intensity {
            if !x.is_finite() || x < 0.0 {
                return Err(format!("intensity must be a nonnegative number, got {x}"));
            }
            config.intensity = x;
        }
        match self.deadline_ms {
            None => {}
            Some(0) => return Err("deadline_ms must be positive".to_owned()),
            Some(ms) => config.deadline = Duration::from_millis(ms),
        }
        config.seed = self.seed.unwrap_or(config.seed);
        config.retries = self.retries.unwrap_or(config.retries);
        config.breaker_cooldown = self.breaker_cooldown.unwrap_or(config.breaker_cooldown);
        Ok(config)
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Decode a protocol line.
    pub fn from_line(line: &str) -> Result<Request, serde_json::Error> {
        serde_json::from_str(line.trim())
    }
}

/// One response line. `status` says which optional fields are set:
/// `hit`/`miss` carry `key`, `code_rev`, `artifact` and `metrics`; `stats`
/// carries `stats`; `error`, `overloaded` and `ok` carry `message`. A
/// lease is answered with `hb` frames (`lease`, `beat`) and then one
/// `done` (`lease`, `artifact`, `metrics`) or `error` (`lease`, `message`).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// One of the `STATUS_*` constants.
    pub status: String,
    /// Content-address of a run's tuple (32 hex chars).
    pub key: Option<String>,
    /// Code revision of the binary that produced the artifact.
    pub code_rev: Option<String>,
    /// The canonicalized [`crate::RunArtifact`] JSON, verbatim.
    pub artifact: Option<String>,
    /// The run's telemetry snapshot JSON, verbatim (captured at miss
    /// time; a hit replays the stored one byte-for-byte).
    pub metrics: Option<String>,
    /// Human-readable detail for `error`/`overloaded`/`ok`.
    pub message: Option<String>,
    /// Daemon telemetry snapshot JSON, for `stats`.
    pub stats: Option<String>,
    /// The lease id a frame answers.
    pub lease: Option<u64>,
    /// Heartbeat counter, monotonic per lease.
    pub beat: Option<u64>,
}

impl Response {
    fn with_status(status: &str) -> Response {
        Response {
            status: status.to_owned(),
            ..Response::default()
        }
    }

    fn with_message(status: &str, message: &str) -> Response {
        Response {
            message: Some(message.to_owned()),
            ..Response::with_status(status)
        }
    }

    /// A cache-hit or miss answer carrying the artifact.
    pub fn artifact(
        status: &str,
        key: &str,
        code_rev: &str,
        artifact: String,
        metrics: String,
    ) -> Response {
        Response {
            key: Some(key.to_owned()),
            code_rev: Some(code_rev.to_owned()),
            artifact: Some(artifact),
            metrics: Some(metrics),
            ..Response::with_status(status)
        }
    }

    /// A load-shed answer.
    pub fn overloaded(message: &str) -> Response {
        Response::with_message(STATUS_OVERLOADED, message)
    }

    /// An error answer.
    pub fn error(message: &str) -> Response {
        Response::with_message(STATUS_ERROR, message)
    }

    /// A `stats` answer.
    pub fn stats(snapshot_json: String) -> Response {
        Response {
            stats: Some(snapshot_json),
            ..Response::with_status(STATUS_STATS)
        }
    }

    /// A plain acknowledgement.
    pub fn ok(message: &str) -> Response {
        Response::with_message(STATUS_OK, message)
    }

    /// An inline heartbeat for a lease in flight.
    pub fn hb(lease: u64, beat: u64) -> Response {
        Response {
            lease: Some(lease),
            beat: Some(beat),
            ..Response::with_status(STATUS_HB)
        }
    }

    /// The final frame of a completed lease.
    pub fn done(lease: u64, artifact: String, metrics: String) -> Response {
        Response {
            lease: Some(lease),
            artifact: Some(artifact),
            metrics: Some(metrics),
            ..Response::with_status(STATUS_DONE)
        }
    }

    /// Encode as one protocol line (no trailing newline).
    pub fn to_line(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Decode a protocol line.
    pub fn from_line(line: &str) -> Result<Response, serde_json::Error> {
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
/// The dispatcher's leases and `humnet_serve`'s client both dial here.
pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
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
    let mut lease = Request::lease(lease_id, &spec.codes, runner);
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
            let frame = Response::from_line(&line).map_err(|_| {
                let shown: String = line.chars().take(80).collect();
                fail(format!("garbled frame: {shown:?}"))
            })?;
            last_frame = Instant::now();
            match frame.status.as_str() {
                STATUS_HB | STATUS_DONE if frame.lease != Some(lease_id) => {
                    let answered = frame.lease.map_or("none".to_owned(), |id| id.to_string());
                    return Err(fail(format!(
                        "{} frame for lease {answered} on lease {lease_id}; stale answer refused",
                        frame.status
                    )));
                }
                STATUS_HB => {}
                STATUS_DONE => return collect_done(&frame, config, spec, attempt).map_err(fail),
                STATUS_ERROR => {
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
    frame: &Response,
    config: &DispatchConfig,
    spec: &ShardSpec,
    attempt: u32,
) -> Result<ShardYield, String> {
    let (Some(artifact), Some(metrics)) = (frame.artifact.as_deref(), frame.metrics.as_deref())
    else {
        return Err("done frame missing artifact or metrics".to_owned());
    };
    let yielded = ShardYield::parse(artifact, metrics).map_err(|e| format!("done frame {e}"))?;
    // A worker of another build would merge journals this build cannot
    // reproduce, so its answer counts as a failed attempt.
    let (theirs, ours) = (yielded.code_rev(), crate::code_rev());
    if theirs != ours {
        return Err(format!(
            "done frame ran on code revision {theirs:?}, not this dispatcher's {ours:?}; \
             foreign answer refused"
        ));
    }
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
    fn request_lines_round_trip() {
        let mut req = Request::run("f3", 7, "chaos", 1.5);
        req.retries = Some(2);
        let line = req.to_line().unwrap();
        assert!(!line.contains('\n'), "{line}");
        assert_eq!(Request::from_line(&line).unwrap(), req);
        let stats = Request::stats().to_line().unwrap();
        assert_eq!(Request::from_line(&stats).unwrap().cmd, CMD_STATS);
    }

    #[test]
    fn absent_optional_fields_deserialize_to_none() {
        let req = Request::from_line(r#"{"cmd": "run", "experiment": "f1"}"#).unwrap();
        assert_eq!(req.experiment.as_deref(), Some("f1"));
        assert_eq!(req.seed, None);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn response_embeds_artifact_verbatim_across_the_wire() {
        // Artifact JSON is pretty-printed (multi-line) — it must survive
        // the single-line framing byte-for-byte.
        let artifact = "{\n  \"report\": \"x\"\n}".to_owned();
        let resp = Response::artifact(
            STATUS_HIT,
            "00ff",
            "0.1.0+abc",
            artifact.clone(),
            "{}".into(),
        );
        let line = resp.to_line().unwrap();
        assert!(!line.contains('\n'), "{line}");
        let back = Response::from_line(&line).unwrap();
        assert_eq!(back.artifact.as_deref(), Some(artifact.as_str()));
        assert_eq!(back.status, STATUS_HIT);
    }

    #[test]
    fn frames_round_trip_through_lines() {
        let spec = shard_spec(2, 5, &["exp1", "exp2"]);
        let lease = Request::lease(7, &spec.codes, &RunnerConfig::default());
        let back = Request::from_line(&lease.to_line().unwrap()).unwrap();
        assert_eq!(back, lease);
        assert_eq!(
            back.experiments.as_deref(),
            Some(&["exp1".to_owned(), "exp2".to_owned()][..])
        );
        // Older dispatchers also sent the slice's shard and spec base;
        // unknown keys are ignored.
        let mut older = lease.to_line().unwrap();
        older.insert_str(older.len() - 1, r#","shard":2,"spec_base":5"#);
        assert_eq!(Request::from_line(&older).unwrap(), lease);

        let done = Response::done(7, "{}".into(), "{}".into());
        assert_eq!(Response::from_line(&done.to_line().unwrap()).unwrap(), done);
        // Older daemons also sent the journal and the shard.
        let mut older = done.to_line().unwrap();
        older.insert_str(older.len() - 1, r#","journal":"{\"seq\":0}\n""#);
        older.insert_str(older.len() - 1, r#","shard":2"#);
        assert_eq!(Response::from_line(&older).unwrap(), done);
        let hb = Response::hb(7, 3);
        assert_eq!(Response::from_line(&hb.to_line().unwrap()).unwrap(), hb);
        assert!(Response::from_line("}{ not a frame").is_err());
    }

    #[test]
    fn overlay_lays_present_fields_over_the_defaults_and_refuses_the_rest() {
        let defaults = RunnerConfig::default();
        assert_eq!(
            Request::stats().overlay(&defaults).unwrap(),
            defaults,
            "an empty tuple keeps every default"
        );
        let runner = RunnerConfig {
            seed: 9,
            retries: 3,
            deadline: Duration::from_millis(1500),
            breaker_cooldown: 2,
            profile: FaultProfile::Chaos,
            intensity: 0.5,
            ..defaults
        };
        let lease = Request::lease(1, &[], &runner);
        assert_eq!(
            lease.overlay(&defaults).unwrap(),
            runner,
            "a lease carries its whole tuple"
        );
        for (bad, needle) in [
            (
                Request {
                    profile: Some("bogus".into()),
                    ..Request::default()
                },
                "fault profile",
            ),
            (
                Request {
                    intensity: Some(-1.0),
                    ..Request::default()
                },
                "intensity",
            ),
            (
                Request {
                    intensity: Some(f64::NAN),
                    ..Request::default()
                },
                "intensity",
            ),
            (
                Request {
                    deadline_ms: Some(0),
                    ..Request::default()
                },
                "deadline_ms",
            ),
        ] {
            let err = bad.overlay(&defaults).unwrap_err();
            assert!(err.contains(needle), "{bad:?}: {err}");
        }
    }

    /// A strategy's worth of JSON-ish text: characters drawn mostly from
    /// the ones the parser branches on.
    const JSONISH: &[char] = &[
        '{',
        '}',
        '[',
        ']',
        '"',
        ':',
        ',',
        '\\',
        'u',
        'n',
        't',
        'f',
        'e',
        'E',
        '-',
        '+',
        '.',
        '0',
        '1',
        '9',
        'd',
        '8',
        ' ',
        '\t',
        'a',
        '\u{e9}',
        '\u{1f600}',
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        #[test]
        fn wire_parsers_never_panic_on_arbitrary_text(
            chars in prop::collection::vec(prop::char::any(), 0..64),
            jsonish in prop::collection::vec(0usize..JSONISH.len(), 0..64),
            cut in 0usize..400,
            splice in prop::collection::vec(0usize..JSONISH.len(), 0..4),
        ) {
            let arbitrary: String = chars.into_iter().collect();
            let jsonish: String = jsonish.into_iter().map(|i| JSONISH[i]).collect();
            // A valid line cut short, with a little JSON-ish text spliced
            // in at the cut.
            let valid = Request::lease(3, &["exp1".to_owned()], &RunnerConfig::default())
                .to_line()
                .unwrap();
            let cut = cut % (valid.len() + 1);
            let spliced: String = splice.into_iter().map(|i| JSONISH[i]).collect();
            let mutated = format!("{}{spliced}", &valid[..cut]);
            for text in [arbitrary, jsonish, mutated] {
                let _ = Request::from_line(&text);
                let _ = Response::from_line(&text);
            }
        }
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

    /// A toy daemon on a loopback port: it reads one lease line, writes
    /// the chunks `answer` makes from the lease id, then closes. Returns
    /// its address and its thread.
    fn toy_daemon(
        answer: impl FnOnce(u64) -> Vec<Vec<u8>> + Send + 'static,
    ) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let _ = stream.set_nodelay(true);
            let mut framer = LineBuffer::new();
            let mut chunk = [0u8; 1024];
            let lease = loop {
                if let Some(line) = framer.next_line() {
                    break Request::from_line(&line).unwrap();
                }
                let n = stream.read(&mut chunk).unwrap();
                framer.push(&chunk[..n]);
            };
            // The dispatcher may hang up after any frame, so a write can
            // fail.
            for bytes in answer(lease.lease.unwrap()) {
                if stream.write_all(&bytes).is_err() {
                    return;
                }
            }
            // Close only once the dispatcher has: closing with its bytes
            // unread could reset the connection before it reads ours.
            let _ = stream.shutdown(std::net::Shutdown::Write);
            let _ = stream.read_to_end(&mut Vec::new());
        });
        (addr, peer)
    }

    /// A well-formed `done` line, newline included, for `lease`, whose
    /// artifact says it ran on `code_rev`.
    fn done_line(lease: u64, code_rev: &str) -> String {
        let mut artifact = RunArtifact::default();
        artifact.report.code_rev = code_rev.to_owned();
        let metrics = humnet_telemetry::Telemetry::new()
            .into_snapshot()
            .to_json()
            .unwrap();
        let done = Response::done(lease, artifact.to_json().unwrap(), metrics);
        format!("{}\n", done.to_line().unwrap())
    }

    /// One lease of shard 3 against `addr`, failing over nowhere; returns
    /// why the shard is missing.
    fn missing_reason(addr: String, tag: &str) -> String {
        let mut config = quick_config(tag);
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
        let _ = fs::remove_dir_all(&config.scratch);
        assert!(
            outcome.degraded(),
            "the done frame must not complete the shard"
        );
        outcome.missing[0].reason.clone()
    }

    #[test]
    fn a_done_frame_for_another_lease_fails_the_attempt() {
        // A well-formed answer to the wrong lease: what a late frame from
        // a revoked lease would look like on a reused connection.
        let (addr, peer) =
            toy_daemon(|lease| vec![done_line(lease + 1, &crate::code_rev()).into_bytes()]);
        let reason = missing_reason(addr, "stale-lease");
        peer.join().unwrap();
        let lease_id = 3u64 << 16;
        assert!(
            reason.contains(&format!("lease {}", lease_id + 1)),
            "{reason}"
        );
        assert!(reason.contains(&format!("lease {lease_id}")), "{reason}");
    }

    #[test]
    fn a_done_frame_from_another_code_revision_fails_the_attempt() {
        // The right lease, answered by a daemon built from other sources.
        let foreign = "0.0.0+foreign";
        let (addr, peer) = toy_daemon(move |lease| vec![done_line(lease, foreign).into_bytes()]);
        let reason = missing_reason(addr, "foreign-rev");
        peer.join().unwrap();
        assert!(reason.contains(foreign), "{reason}");
        assert!(reason.contains(&crate::code_rev()), "{reason}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]
        #[test]
        fn a_lease_succeeds_only_on_its_done_before_any_garbage(
            // 0 and 1 are heartbeats, 2 a garbled line; the one done
            // frame goes in at `done_at`.
            frames in prop::collection::vec(0u8..3, 0..10),
            done_at in 0usize..11,
            junk in prop::collection::vec(prop::char::any(), 0..40),
            cut in 1usize..1000,
            splits in prop::collection::vec(0usize..4096, 0..8),
        ) {
            let done_at = done_at.min(frames.len());
            // Garbled lines alternate between a heartbeat cut short and
            // text that is not JSON at all.
            let hb = Response::hb(0, 0).to_line().unwrap();
            let cut_short = hb[..cut % (hb.len() - 1) + 1].to_owned();
            let not_json: String = std::iter::once('!')
                .chain(junk.into_iter().map(|c| if c == '\n' { ' ' } else { c }))
                .collect();
            let mut garbled = [cut_short, not_json].into_iter().cycle();
            // Shard 3's first attempt.
            let lease = 3u64 << 16;
            let mut stream = String::new();
            let mut first_garbage = None;
            let mut done_first = false;
            for i in 0..=frames.len() {
                if i == done_at {
                    done_first = first_garbage.is_none();
                    stream += &done_line(lease, &crate::code_rev());
                }
                let line = match frames.get(i) {
                    None => break,
                    Some(2) => {
                        let line = garbled.next().unwrap();
                        first_garbage.get_or_insert_with(|| line.trim().to_owned());
                        line
                    }
                    Some(_) => Response::hb(lease, i as u64).to_line().unwrap(),
                };
                stream += &line;
                stream.push('\n');
            }
            let mut cuts: Vec<usize> = splits.iter().map(|c| c % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            let mut from = 0;
            let chunks = cuts
                .into_iter()
                .map(|to| {
                    let chunk = stream.as_bytes()[from..to].to_vec();
                    from = to;
                    chunk
                })
                .collect();
            let (addr, peer) = toy_daemon(move |_| chunks);
            let mut config = quick_config("fuzz-lease");
            config.workers = vec![addr];
            let attempt = lease_attempt(&config, &RunnerConfig::default(), &shard_spec(3, 0, &["exp1"]), 0);
            peer.join().unwrap();
            match (attempt, done_first) {
                (Ok(_), true) => {}
                (Err(failure), false) => {
                    let reason = failure.to_string();
                    let shown: String = first_garbage.unwrap().chars().take(80).collect();
                    prop_assert!(reason.contains(&format!("garbled frame: {shown:?}")), "{}", reason);
                }
                (Ok(_), false) => prop_assert!(false, "a lease succeeded past a garbled line"),
                (Err(failure), true) => prop_assert!(false, "a lease failed before garbage: {}", failure),
            }
        }
    }
}
