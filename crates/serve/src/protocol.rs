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

/// The line framer every side of the protocol shares (daemon, client,
/// lease dispatcher); it lives beside the lease frames in
/// `humnet-resilience`.
pub use humnet_resilience::LineBuffer;

/// Request command: execute (or look up) one experiment run.
pub const CMD_RUN: &str = "run";
/// Request command: execute one shard slice as a
/// [`humnet_resilience::Lease`], answered with `hb` frames and a final
/// `done` or `error` [`humnet_resilience::WorkerFrame`].
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
}
