//! Deterministic fault injection and supervised experiment execution.
//!
//! Seven layers:
//!
//! 1. [`fault`] — a reproducible fault model: [`FaultPlan`] decides purely
//!    from `(seed, step, kind)` whether a fault fires, and simulators accept
//!    a [`FaultHook`] injection point (volunteer dropout, link/IXP outages,
//!    reviewer no-shows, coder attrition).
//! 2. [`runner`] — a [`Supervisor`] executing experiments under
//!    `catch_unwind` panic isolation, a per-attempt deadline, bounded retry
//!    with deterministic-jitter backoff ([`backoff`]), and a per-family
//!    circuit breaker ([`breaker`]).
//! 3. [`report`] — [`RunReport`]: per-experiment status rows with a
//!    byte-reproducible canonical rendering and a process exit code.
//! 4. [`shard`] — how a run fans out in process: K workers claim the
//!    next experiment from one shared queue, and the run is assembled
//!    in spec order, so its canonical output is byte-identical to the
//!    1-shard run of the same seed. [`ShardPlan`] is the contiguous
//!    partition the cross-process tiers below use.
//! 5. [`replay`] — reconstruct a past run's configuration and fault
//!    schedule from its captured journal, re-execute it, and diff the
//!    canonical event streams.
//! 6. [`dispatch`](mod@dispatch) — the out-of-process counterpart of
//!    [`shard`], and its one entry point: each shard walks one ladder of
//!    remote leases and local child processes under one retry loop, with
//!    heartbeat liveness, per-shard deadlines, failover, graceful
//!    partial-result degradation, and merge-time circuit-breaker
//!    reconciliation — still byte-identical to the in-process 1-shard
//!    run.
//! 7. [`remote`] — the serve wire protocol ([`Request`] and [`Response`]
//!    lines, framed by [`LineBuffer`]) and the lease transport of that
//!    ladder: shard-slice *leases* to `experiments serve` daemons, with
//!    inline heartbeats, connection-level liveness, deadline revocation,
//!    stale-lease refusal, and `--chaos-net` partition/stall/garble
//!    injection.

pub mod backoff;

/// The code identity this binary was built from: crate version plus the
/// [`fingerprint::source_key`] of the workspace sources, which `build.rs`
/// recomputes whenever a file under `crates/`, `src/` or `vendor/`
/// changes. Identical sources give the same identity whatever the git
/// state, and any edit gives a new one. Stamped into every [`RunReport`]
/// so artifacts say what code produced them, and mixed into the serve
/// cache key so a rebuilt daemon never serves a stale artifact.
pub fn code_rev() -> String {
    format!(
        "{}+{}",
        env!("CARGO_PKG_VERSION"),
        include_str!(concat!(env!("OUT_DIR"), "/source_key"))
    )
}

/// The short git revision of the checkout this binary was built from, for
/// humans (`unknown` outside a git checkout). Unlike [`code_rev`] it can
/// go stale: it is re-stamped only when `.git/HEAD` or a source changes.
pub fn git_rev() -> &'static str {
    env!("HUMNET_GIT_REV")
}

/// The one way a supervised run hands out experiments: each worker
/// claims the next unclaimed spec (see [`shard`]). This type has no
/// effect; it survives only so the benchmark's
/// `.schedule(Schedule::Static)` call in `humbench/src/suite.rs` builds.
#[deprecated(note = "there is one schedule; drop the call (kept for humbench/src/suite.rs)")]
#[derive(Debug, Clone, Copy)]
pub enum Schedule {
    /// The only schedule.
    Static,
}

pub mod breaker;
pub mod dispatch;
pub mod fault;
pub mod fingerprint;
pub mod remote;
pub mod replay;
pub mod report;
pub mod runner;
pub mod shard;

pub use backoff::Backoff;
pub use breaker::{Admission, CircuitBreaker};
pub use dispatch::{
    dispatch, reconcile_breakers, BreakerReconciliation, ChaosProc, DispatchConfig, DispatchError,
    DispatchOutcome, FamilyBreakerState, MissingShard, ShardPaths, ShardSpec, CHAOS_ENV,
    CHAOS_KILL_CODE,
};
pub use fault::{
    FaultHook, FaultKind, FaultPlan, FaultProfile, HookFork, InstrumentedHook, NoFaults, PlanHook,
};
pub use remote::{ChaosKind, ChaosNet, LineBuffer, Request, Response};
pub use replay::{
    first_divergence, reconstruct, replay, Divergence, RecordedFault, RecordedFaults, ReplayError,
    ReplayReport, ReplaySpec,
};
pub use report::{ExperimentReport, ExperimentStatus, RunArtifact, RunReport};
pub use runner::{
    fan_out, render_chain, ExperimentSpec, Job, JobError, JobOutput, RunnerConfig, SupervisedRun,
    Supervisor, SupervisorBuilder, WORKER_PREFIX,
};
pub use shard::{ShardPlan, ShardPlanError};
