//! The serve wire protocol: line-delimited JSON over TCP.
//!
//! One [`Request`] object per line from the client, one [`Response`]
//! object per line back. Responses are always compact (single-line) JSON;
//! the artifact travels *as a string field* holding the exact
//! `RunArtifact` JSON the run produced, so a client comparing a hit
//! against a miss — or against an `experiments run --report-out` file —
//! compares bytes, not re-serialized structures.
//!
//! The vendored serde has no field attributes, so optional request fields
//! are plain `Option`s: absent JSON keys deserialize to `None`, and the
//! daemon fills defaults from its own configuration.

use serde::{Deserialize, Serialize};

/// Incremental line framer shared by the daemon's connection loop and the
/// persistent pipelined client (the remote worker protocol mirrors the
/// same idiom): push raw socket reads in, pull complete trimmed lines out.
/// Bytes after the last newline stay buffered until the next push
/// completes them, so partial frames are never mis-parsed.
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
            let text = String::from_utf8_lossy(&self.buf[self.start..end]).trim().to_owned();
            self.start = end + 1;
            self.scanned = self.start;
            if !text.is_empty() {
                return Some(text);
            }
        }
    }

    /// Whether nothing (not even a partial frame) is buffered.
    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }
}

/// Request command: execute (or look up) one experiment run.
pub const CMD_RUN: &str = "run";
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

/// One client request. `cmd` selects the action; the remaining fields
/// only apply to [`CMD_RUN`]. `retries` and `deadline_ms` are optional
/// overrides of the daemon's defaults (`deadline_ms` is wall-clock, so it
/// is deliberately *not* part of the cache key; `retries` is, because it
/// changes what a faulted run reports).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// `run`, `stats`, or `shutdown`.
    pub cmd: String,
    /// Experiment code (e.g. `f3`), validated against the registry.
    pub experiment: Option<String>,
    /// Seed for fault plans and jitter streams.
    pub seed: Option<u64>,
    /// Fault profile label (`none|churn|outage|chaos`).
    pub profile: Option<String>,
    /// Multiplier on the profile's fault rates.
    pub intensity: Option<f64>,
    /// Extra attempts per experiment (daemon default when absent).
    pub retries: Option<u32>,
    /// Per-attempt deadline override in milliseconds.
    pub deadline_ms: Option<u64>,
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
            retries: None,
            deadline_ms: None,
        }
    }

    /// A `stats` request.
    pub fn stats() -> Request {
        Request {
            cmd: CMD_STATS.to_owned(),
            experiment: None,
            seed: None,
            profile: None,
            intensity: None,
            retries: None,
            deadline_ms: None,
        }
    }

    /// A `shutdown` request.
    pub fn shutdown() -> Request {
        Request {
            cmd: CMD_SHUTDOWN.to_owned(),
            ..Request::stats()
        }
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

/// One daemon response. `status` says which of the optional fields are
/// populated: `hit`/`miss` carry `key`, `code_rev`, `artifact`, and
/// `metrics`; `stats` carries `stats`; `error` carries `message`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Response {
    /// One of the `STATUS_*` constants.
    pub status: String,
    /// Content-address of the request tuple (32 hex chars).
    pub key: Option<String>,
    /// Code revision of the binary that produced the artifact.
    pub code_rev: Option<String>,
    /// The canonicalized `RunArtifact` JSON, verbatim.
    pub artifact: Option<String>,
    /// The run's telemetry snapshot JSON, verbatim (captured at miss
    /// time; a hit replays the stored one byte-for-byte).
    pub metrics: Option<String>,
    /// Human-readable detail for `error`/`overloaded`/`ok`.
    pub message: Option<String>,
    /// Daemon telemetry snapshot JSON, for `stats`.
    pub stats: Option<String>,
}

impl Response {
    fn empty(status: &str) -> Response {
        Response {
            status: status.to_owned(),
            key: None,
            code_rev: None,
            artifact: None,
            metrics: None,
            message: None,
            stats: None,
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
            ..Response::empty(status)
        }
    }

    /// A load-shed answer.
    pub fn overloaded(message: &str) -> Response {
        Response {
            message: Some(message.to_owned()),
            ..Response::empty(STATUS_OVERLOADED)
        }
    }

    /// An error answer.
    pub fn error(message: &str) -> Response {
        Response {
            message: Some(message.to_owned()),
            ..Response::empty(STATUS_ERROR)
        }
    }

    /// A `stats` answer.
    pub fn stats(snapshot_json: String) -> Response {
        Response {
            stats: Some(snapshot_json),
            ..Response::empty(STATUS_STATS)
        }
    }

    /// A plain acknowledgement.
    pub fn ok(message: &str) -> Response {
        Response {
            message: Some(message.to_owned()),
            ..Response::empty(STATUS_OK)
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

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn line_buffer_reassembles_split_frames_and_skips_blanks() {
        let mut framer = LineBuffer::new();
        framer.push(b"{\"cmd\":");
        assert_eq!(framer.next_line(), None, "partial frame stays buffered");
        framer.push(b"\"stats\"}\n\n  \n{\"cmd\":\"run\"}\ntail");
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"stats\"}"));
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"run\"}"));
        assert_eq!(framer.next_line(), None);
        assert!(!framer.is_empty(), "the unterminated tail is still buffered");
        framer.push(b"\n");
        assert_eq!(framer.next_line().as_deref(), Some("tail"));
        assert!(framer.is_empty());
    }

    /// The framing of a whole stream at once, without `LineBuffer`: every
    /// newline-terminated segment, trimmed, blanks dropped, plus whether no
    /// unterminated tail is left over.
    fn frame_whole(stream: &[u8]) -> (Vec<String>, bool) {
        let mut segments: Vec<&[u8]> = stream.split(|&b| b == b'\n').collect();
        let tail = segments.pop().unwrap_or_default();
        let lines = segments
            .iter()
            .map(|seg| String::from_utf8_lossy(seg).trim().to_owned())
            .filter(|line| !line.is_empty())
            .collect();
        (lines, tail.is_empty())
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
            prop_assert_eq!((lines, framer.is_empty()), frame_whole(&stream));
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
        let resp =
            Response::artifact(STATUS_HIT, "00ff", "0.1.0+abc", artifact.clone(), "{}".into());
        let line = resp.to_line().unwrap();
        assert!(!line.contains('\n'), "{line}");
        let back = Response::from_line(&line).unwrap();
        assert_eq!(back.artifact.as_deref(), Some(artifact.as_str()));
        assert_eq!(back.status, STATUS_HIT);
    }
}
