//! # humnet-serve
//!
//! A long-lived experiment service: accept `{experiment, seed, profile,
//! intensity}` requests over a tiny line-delimited JSON protocol on TCP,
//! execute misses on the existing pooled worker runtime (no per-request
//! process or thread spawn), and answer repeats from a
//! content-addressed result cache.
//!
//! The whole design leans on one invariant the rest of the workspace
//! enforces by test: same-seed runs are **byte-identical**. That makes
//! `(experiment, seed, profile, intensity, retries, code-rev)` a perfect
//! cache key — a hit returns the exact bytes a fresh run would produce,
//! at in-memory-lookup latency instead of simulation cost.
//!
//! Three layers:
//!
//! 1. [`protocol`] — the wire format: one JSON [`protocol::Request`] per
//!    line in, one JSON [`protocol::Response`] per line out.
//! 2. [`cache`] — [`cache::ResultCache`]: an in-memory index over
//!    content-addressed on-disk entries (atomic write-then-rename, FNV-1a
//!    128-bit keys and checksums, corruption-evicting rehydration).
//! 3. [`server`] — [`server::Server`]: the daemon itself, with admission
//!    control (bounded pending queue, concurrency cap, explicit
//!    load-shedding, bounded request lines), daemon telemetry behind a
//!    `stats` request, and graceful shutdown on SIGTERM or a `shutdown`
//!    request. It is also the remote shard worker: a `lease` request
//!    (sent by `dispatch --workers`) runs a shard slice through the same
//!    queue and workers, answered with inline `hb` responses and a final
//!    `done` one.
//!
//! [`client`] is the matching side: [`client::ServeClient`] owns one
//! persistent connection (the line protocol already permits N requests
//! per connection, answered in order, so the client pipelines). The
//! daemon's capacity is measured from outside, by humbench's `serve_hit`
//! workload driving the `experiments serve` binary.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol {
    //! The serve wire protocol: line-delimited JSON over TCP.
    //!
    //! One [`Request`] object per line from the client, one [`Response`]
    //! object per line back. Responses are always compact (single-line) JSON;
    //! the artifact travels *as a string field* holding the exact
    //! `RunArtifact` JSON the run produced, so a client comparing a hit
    //! against a miss — or against an `experiments run --report-out` file —
    //! compares bytes, not re-serialized structures.
    //!
    //! A shard lease from `dispatch --workers` is a [`Request`] too
    //! ([`CMD_LEASE`]), answered by `hb` [`Response`]s and a final `done` or
    //! `error` one. The types, the command and status constants and the
    //! line framer live in `humnet_resilience::remote`, because the
    //! dispatcher speaks the same protocol and cannot depend on this crate;
    //! they are re-exported here unchanged.

    pub use humnet_resilience::remote::{
        LineBuffer, Request, Response, CMD_LEASE, CMD_RUN, CMD_SHUTDOWN, CMD_STATS, STATUS_DONE,
        STATUS_ERROR, STATUS_HB, STATUS_HIT, STATUS_MISS, STATUS_OK, STATUS_OVERLOADED,
        STATUS_STATS,
    };
}
pub mod server;

pub use cache::{cache_key, CacheEntry, RehydrateStats, ResultCache};
pub use client::{ClientError, ServeClient};
pub use protocol::{LineBuffer, Request, Response};
pub use server::{install_signal_handlers, ServeConfig, ServeSummary, Server, SpecFactory};
