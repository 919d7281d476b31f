//! Dispatch: the shards of one run supervised out of process, leased to
//! `experiments serve` daemons ([`crate::remote`]), spawned as child
//! processes of this binary, or both in turn.
//!
//! [`dispatch`] is the distributed counterpart of [`crate::shard`]'s
//! in-process fan-out and the only dispatch entry point. Each non-empty
//! shard's watcher thread walks one ladder with one retry loop: leases
//! rotated across [`DispatchConfig::workers`] if there are any, then —
//! without workers, or as failover — child spawns (`run --shards 1` over
//! the slice, writing a telemetry snapshot, a serialized [`RunArtifact`]
//! and a heartbeat file into a per-attempt scratch directory). Each rung
//! numbers its attempts from 0 and sleeps the shard's deterministic
//! [`Backoff`] stream between them. Either transport fails an attempt on
//! a crash, on the per-shard deadline, or on heartbeat silence longer
//! than the liveness grace.
//!
//! Because every per-experiment decision derives from `(seed, experiment
//! code, attempt)` alone, a retried shard reproduces its predecessor's
//! events exactly, and the merged canonical journal of a K-shard dispatch
//! is **byte-identical** to the in-process 1-shard run of the same seed,
//! whichever rung answered. A child's artifact files and a daemon's
//! `done` frame parse into the same per-shard yield; the merge strips each
//! shard's `run-start`/`run-end` boundary events, re-bases its 0-based
//! spec indices onto the slice offset, stamps shard provenance, and emits
//! a single run-level `run-start`/`run-end` pair around the canonical
//! `(class, spec, seq)` sort.
//!
//! Shards that exhaust every rung either fail the dispatch loudly
//! ([`DispatchError::ShardsFailed`]) or — under `allow_partial` — degrade
//! gracefully: the merged report is marked degraded, the missing shards
//! and experiment codes are listed, and the caller exits with a distinct
//! code. Circuit-breaker state is reconciled at merge time
//! ([`reconcile_breakers`]): per-family failure counts are summed across
//! shards and families that would have been open globally are flagged,
//! since per-shard breakers cannot see failures on sibling shards.
//!
//! A successful attempt's scratch directory goes once its artifacts are
//! parsed; a failed one keeps its child log. A complete run then removes
//! the scratch directory only if that left it empty.
//!
//! Process-level fault injection for tests and CI rides on the
//! [`CHAOS_ENV`] environment variable: [`ChaosProc`] specs (`kill:2`,
//! `hang:1:0`, `kill:2:1`) make the parent set the variable on matching
//! `(shard, attempt)` spawns, and a cooperating child self-kills or
//! sleeps past its deadline — so the crash, hang, retry, and degradation
//! paths are deterministically exercisable.

use crate::backoff::Backoff;
use crate::remote::{lease_attempt, ChaosNet};
use crate::report::{RunArtifact, RunReport};
use crate::runner::{run_start_detail, RunnerConfig, SupervisedRun};
use humnet_telemetry::{spec_order_in_place, Event, Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Environment variable a dispatch parent sets on chaos-selected child
/// spawns; a cooperating child reads it before doing any work.
/// `kill` → exit immediately with code 137 (simulated crash);
/// `hang` → sleep silently past any deadline (simulated wedge).
pub const CHAOS_ENV: &str = "HUMNET_CHAOS_PROC";

/// Exit code a chaos-killed child terminates with (mirrors `128 + SIGKILL`).
pub const CHAOS_KILL_CODE: i32 = 137;

/// One process-level fault injection: which shard, which spawn attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosProc {
    /// Child self-kills immediately (`kill:<shard>[:attempt]`, attempt 0
    /// by default).
    Kill {
        /// Targeted shard index.
        shard: u32,
        /// Spawn attempt the fault fires on (0 = first).
        attempt: u32,
    },
    /// Child sleeps past its deadline without heartbeating
    /// (`hang:<shard>[:attempt]`).
    Hang {
        /// Targeted shard index.
        shard: u32,
        /// Spawn attempt the fault fires on (0 = first).
        attempt: u32,
    },
}

impl ChaosProc {
    /// Parse a `--chaos-proc` argument: `kill:<shard>[:attempt]` or
    /// `hang:<shard>[:attempt]`.
    pub fn parse(s: &str) -> Option<ChaosProc> {
        let mut parts = s.split(':');
        let kind = parts.next()?;
        let shard: u32 = parts.next()?.parse().ok()?;
        let attempt: u32 = match parts.next() {
            Some(a) => a.parse().ok()?,
            None => 0,
        };
        if parts.next().is_some() {
            return None;
        }
        match kind {
            "kill" => Some(ChaosProc::Kill { shard, attempt }),
            "hang" => Some(ChaosProc::Hang { shard, attempt }),
            _ => None,
        }
    }

    /// The [`CHAOS_ENV`] value to set when spawning `(shard, attempt)`,
    /// if this fault targets it.
    pub fn env_value(&self, shard: u32, attempt: u32) -> Option<&'static str> {
        match *self {
            ChaosProc::Kill {
                shard: s,
                attempt: a,
            } if s == shard && a == attempt => Some("kill"),
            ChaosProc::Hang {
                shard: s,
                attempt: a,
            } if s == shard && a == attempt => Some("hang"),
            _ => None,
        }
    }
}

/// Knobs for the cross-process dispatcher.
#[derive(Debug, Clone)]
pub struct DispatchConfig {
    /// Extra spawn attempts per shard after the first (0 = no retry).
    pub shard_retries: u32,
    /// Per-attempt wall-clock budget for one child process.
    pub shard_deadline: Duration,
    /// Maximum heartbeat silence before a live child is declared hung and
    /// killed. Zero disables liveness checking (the deadline still holds).
    pub liveness: Duration,
    /// How often a child's heartbeat file is checked (and a lease's
    /// socket read times out). A child's exit is noticed within about
    /// 1 ms whatever this is.
    pub poll: Duration,
    /// Degrade to a partial merged result instead of failing the dispatch
    /// when a shard exhausts its retries.
    pub allow_partial: bool,
    /// Process-level fault injections (testing/CI).
    pub chaos: Vec<ChaosProc>,
    /// Scratch directory holding the per-shard artifact directories.
    pub scratch: PathBuf,
    /// Base delay for the shard-retry backoff schedule.
    pub backoff_base: Duration,
    /// Seed for the retry backoff jitter (per-shard streams derive from it).
    pub seed: u64,
    /// Keep per-(shard, attempt) scratch directories after a successful
    /// attempt instead of removing them once their artifacts are parsed
    /// (lease answers are written there too). Failed attempts always keep
    /// theirs — the child log is the only evidence of what went wrong.
    pub keep_scratch: bool,
    /// `serve` daemon addresses (`host:port`) to lease shards to, in
    /// `--workers` order; retries rotate through the list. Empty runs
    /// every shard as local child processes.
    pub workers: Vec<String>,
    /// Per-dial TCP connect budget for a lease.
    pub connect_timeout: Duration,
    /// Network-level fault injections (testing/CI).
    pub chaos_net: Vec<ChaosNet>,
    /// After the lease retries exhaust, fail the slice over to local
    /// child processes before declaring the shard missing.
    pub local_failover: bool,
}

impl Default for DispatchConfig {
    fn default() -> Self {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(120),
            liveness: Duration::from_secs(10),
            poll: Duration::from_millis(15),
            allow_partial: false,
            chaos: Vec::new(),
            scratch: std::env::temp_dir().join(format!("humnet-dispatch-{}", std::process::id())),
            backoff_base: Duration::from_millis(25),
            seed: 42,
            keep_scratch: false,
            workers: Vec::new(),
            connect_timeout: Duration::from_secs(5),
            chaos_net: Vec::new(),
            local_failover: true,
        }
    }
}

/// One shard's slice of the run: which experiments, and where the slice
/// starts in the full spec list (the spec-index re-base offset).
#[derive(Debug, Clone)]
pub struct ShardSpec {
    /// Shard index (0-based, dense).
    pub shard: u32,
    /// Offset of this slice in the full experiment list.
    pub spec_base: u64,
    /// Experiment codes in the slice, in canonical order.
    pub codes: Vec<String>,
}

/// Filesystem layout of one shard attempt's artifacts. Attempt-scoped so
/// a retry can never be confused with its crashed predecessor's leftovers.
#[derive(Debug, Clone)]
pub struct ShardPaths {
    /// The attempt's scratch directory.
    pub dir: PathBuf,
    /// Shard index.
    pub shard: u32,
    /// Spawn attempt (0 = first).
    pub attempt: u32,
    /// Telemetry snapshot JSON the child writes (`--metrics-out`).
    pub metrics: PathBuf,
    /// Serialized [`RunArtifact`] JSON the child writes (`--report-out`).
    pub report: PathBuf,
    /// An event journal path (`journal.jsonl`) for callers whose child
    /// also writes `--journal-out`. The dispatcher neither asks a child
    /// for this file nor reads it: the merge takes events from the
    /// metrics snapshot.
    pub journal: PathBuf,
    /// Heartbeat file the child appends to; the parent polls its growth.
    pub heartbeat: PathBuf,
    /// Captured child stdout+stderr.
    pub log: PathBuf,
}

impl ShardPaths {
    /// Layout for `(shard, attempt)` under `scratch`.
    pub fn new(scratch: &Path, shard: u32, attempt: u32) -> ShardPaths {
        let dir = scratch.join(format!("shard-{shard}-attempt-{attempt}"));
        ShardPaths {
            metrics: dir.join("metrics.json"),
            report: dir.join("report.json"),
            journal: dir.join("journal.jsonl"),
            heartbeat: dir.join("heartbeat"),
            log: dir.join("child.log"),
            shard,
            attempt,
            dir,
        }
    }
}

/// Why one shard attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum AttemptFailure {
    Spawn(String),
    Exited(String),
    TimedOut(Duration),
    Hung(Duration),
    Artifact(String),
    /// A remote lease failed ([`crate::remote`]); the message carries the
    /// worker address and the connection-level reason.
    Remote(String),
}

impl fmt::Display for AttemptFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttemptFailure::Spawn(e) => write!(f, "failed to spawn child: {e}"),
            AttemptFailure::Exited(status) => write!(f, "child exited abnormally ({status})"),
            AttemptFailure::TimedOut(d) => {
                write!(
                    f,
                    "child exceeded the {}ms shard deadline; killed",
                    d.as_millis()
                )
            }
            AttemptFailure::Hung(d) => write!(
                f,
                "no heartbeat for {}ms; child declared hung and killed",
                d.as_millis()
            ),
            AttemptFailure::Artifact(e) => write!(f, "child artifacts unusable: {e}"),
            AttemptFailure::Remote(e) => write!(f, "{e}"),
        }
    }
}

/// What a successful shard hands back after artifact parsing.
pub(crate) struct ShardYield {
    artifact: RunArtifact,
    telemetry: TelemetrySnapshot,
}

impl ShardYield {
    /// Parse a shard's two artifacts: a child's `report.json` and
    /// `metrics.json`, or a `done` frame's `artifact` and `metrics`.
    pub(crate) fn parse(artifact: &str, metrics: &str) -> Result<ShardYield, String> {
        Ok(ShardYield {
            artifact: RunArtifact::from_json(artifact)
                .map_err(|e| format!("artifact unusable: {e}"))?,
            telemetry: TelemetrySnapshot::from_json(metrics)
                .map_err(|e| format!("metrics unusable: {e}"))?,
        })
    }

    /// The [`crate::code_rev`] of the build that ran the shard.
    pub(crate) fn code_rev(&self) -> &str {
        &self.artifact.report.code_rev
    }
}

/// Final per-shard supervision outcome.
struct ShardOutcome {
    spec: ShardSpec,
    /// Attempts summed across the rungs.
    attempts: u32,
    result: Result<ShardYield, AttemptFailure>,
}

/// A shard that never produced a usable result (after all retries).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissingShard {
    /// Shard index.
    pub shard: u32,
    /// Spawn attempts consumed.
    pub attempts: u32,
    /// Experiment codes the merged run is missing because of it.
    pub codes: Vec<String>,
    /// Last attempt's failure, human-readable.
    pub reason: String,
}

/// Dispatch-level failure: one or more shards exhausted their retries and
/// partial results were not allowed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DispatchError {
    /// The scratch directory could not be created.
    Scratch(String),
    /// Shards died after all retries; `--allow-partial` was off.
    ShardsFailed(Vec<MissingShard>),
}

impl fmt::Display for DispatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DispatchError::Scratch(e) => write!(f, "cannot create dispatch scratch dir: {e}"),
            DispatchError::ShardsFailed(missing) => {
                write!(f, "{} shard(s) failed after all retries:", missing.len())?;
                for m in missing {
                    write!(
                        f,
                        "\n  shard {} ({} attempts, experiments {}): {}",
                        m.shard,
                        m.attempts,
                        m.codes.join(" "),
                        m.reason
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for DispatchError {}

/// Merge-time circuit-breaker reconciliation for one family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FamilyBreakerState {
    /// Experiment family (breaker granularity).
    pub family: String,
    /// Executed-and-failed experiments summed across all shards.
    pub failures: u32,
    /// Experiments short-circuited by a shard-local open breaker.
    pub skips: u32,
    /// Whether the summed failure count would have opened a single global
    /// breaker at the run's threshold.
    pub open_globally: bool,
}

/// Cross-shard breaker view: per-child breakers only see their own shard's
/// failures, so the merge sums per-family failure counts and flags
/// families a run-wide breaker would have opened. (Consecutiveness cannot
/// be reconstructed across shards; the global view over-approximates by
/// using totals, which is the conservative direction for flagging.)
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreakerReconciliation {
    /// The failure threshold the run was configured with.
    pub threshold: u32,
    /// Families with at least one failure or breaker skip, sorted.
    pub families: Vec<FamilyBreakerState>,
}

impl BreakerReconciliation {
    /// Families flagged as globally open, in sorted order.
    pub fn open_families(&self) -> Vec<&str> {
        self.families
            .iter()
            .filter(|f| f.open_globally)
            .map(|f| f.family.as_str())
            .collect()
    }

    /// Human-readable reconciliation lines; empty when nothing failed.
    pub fn render(&self) -> String {
        if self.families.is_empty() {
            return String::new();
        }
        let mut out = format!("breaker reconciliation  threshold={}\n", self.threshold);
        for f in &self.families {
            out.push_str(&format!(
                "  family '{}': {} failures, {} breaker skips across shards — {}\n",
                f.family,
                f.failures,
                f.skips,
                if f.open_globally {
                    "would be OPEN globally"
                } else {
                    "below global threshold"
                },
            ));
        }
        out
    }
}

/// Sum per-family failures across the merged report and flag families a
/// single run-wide breaker (at `threshold`) would have opened. Rows with
/// zero attempts are breaker skips (a shard-local breaker already open),
/// counted separately from executed failures.
pub fn reconcile_breakers(report: &RunReport, threshold: u32) -> BreakerReconciliation {
    let mut families: BTreeMap<&str, (u32, u32)> = BTreeMap::new();
    for row in &report.experiments {
        if row.status.completed() {
            continue;
        }
        let entry = families.entry(&row.family).or_default();
        if row.attempts == 0 {
            entry.1 += 1;
        } else {
            entry.0 += 1;
        }
    }
    BreakerReconciliation {
        threshold,
        families: families
            .into_iter()
            .map(|(family, (failures, skips))| FamilyBreakerState {
                family: family.to_owned(),
                failures,
                skips,
                open_globally: threshold > 0 && failures >= threshold,
            })
            .collect(),
    }
}

/// Result of a cross-process dispatch.
#[derive(Debug)]
pub struct DispatchOutcome {
    /// The merged run (report, outputs, telemetry) over every shard that
    /// produced a result.
    pub run: SupervisedRun,
    /// Shards that produced nothing (empty unless `allow_partial` let the
    /// dispatch degrade).
    pub missing: Vec<MissingShard>,
    /// Cross-shard circuit-breaker view of the merged report.
    pub reconciliation: BreakerReconciliation,
    /// Spawn attempts consumed per shard, in shard order.
    pub shard_attempts: Vec<u32>,
}

impl DispatchOutcome {
    /// Whether the merged result is partial (at least one shard missing).
    pub fn degraded(&self) -> bool {
        !self.missing.is_empty()
    }

    /// Process exit code: a degraded (partial) result exits with the
    /// distinct code 3; otherwise the merged report's own code applies
    /// (0 completed, 1 failed, 2 timed out).
    pub fn exit_code(&self) -> i32 {
        if self.degraded() {
            3
        } else {
            self.run.report.exit_code()
        }
    }

    /// Per-shard supervision summary plus degradation and breaker
    /// reconciliation sections, for the end-of-dispatch report.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        if self.degraded() {
            out.push_str("dispatch verdict: DEGRADED — partial results\n");
            for m in &self.missing {
                out.push_str(&format!(
                    "  missing shard {} after {} attempts: {}\n    lost experiments: {}\n",
                    m.shard,
                    m.attempts,
                    m.reason,
                    m.codes.join(" "),
                ));
            }
        } else {
            let retried = self
                .shard_attempts
                .iter()
                .enumerate()
                .filter(|&(_, &a)| a > 1)
                .map(|(k, &a)| format!("shard {k}: {a} attempts"))
                .collect::<Vec<_>>();
            if retried.is_empty() {
                out.push_str("dispatch verdict: complete — every shard succeeded first try\n");
            } else {
                out.push_str(&format!(
                    "dispatch verdict: complete after retries ({})\n",
                    retried.join(", ")
                ));
            }
        }
        let breakers = self.reconciliation.render();
        if !breakers.is_empty() {
            out.push_str(&breakers);
        }
        out
    }
}

/// Run `shards` out of process — leased to [`DispatchConfig::workers`],
/// spawned as child processes, or both in turn — and merge the results.
///
/// `build` constructs the child [`Command`] for one shard attempt — the
/// `experiments` binary passes a self-invocation (`current_exe` +
/// `run --shards 1 …`), tests can substitute anything that writes the
/// artifact files. The dispatcher owns everything around the command and
/// the lease: scratch directories, chaos stamping, stdio capture into
/// the attempt's log file, kill-on-deadline, heartbeat liveness, retry
/// with deterministic backoff, failover, artifact parsing, the final
/// merge and the scratch cleanup.
///
/// Shards with empty `codes` are skipped without spawning (they could not
/// contribute events or report rows).
pub fn dispatch<F>(
    config: &DispatchConfig,
    runner: &RunnerConfig,
    shards: Vec<ShardSpec>,
    build: F,
) -> Result<DispatchOutcome, DispatchError>
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command + Sync,
{
    fs::create_dir_all(&config.scratch).map_err(|e| DispatchError::Scratch(e.to_string()))?;
    let planned: usize = shards.iter().map(|s| s.codes.len()).sum();

    let outcomes: Vec<ShardOutcome> = thread::scope(|scope| {
        let handles: Vec<_> = shards
            .into_iter()
            .filter(|spec| !spec.codes.is_empty())
            .map(|spec| scope.spawn(|| supervise_shard(config, runner, spec, &build)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard watcher never panics"))
            .collect()
    });

    let missing: Vec<MissingShard> = outcomes
        .iter()
        .filter_map(|o| match &o.result {
            Ok(_) => None,
            Err(failure) => Some(MissingShard {
                shard: o.spec.shard,
                attempts: o.attempts,
                codes: o.spec.codes.clone(),
                reason: failure.to_string(),
            }),
        })
        .collect();
    if !missing.is_empty() && !config.allow_partial {
        return Err(DispatchError::ShardsFailed(missing));
    }

    // Successful attempts already removed their dirs; `remove_dir` takes
    // the scratch dir only if nothing else (a failed attempt's log, a
    // caller's file) lives there.
    if config.keep_scratch || !missing.is_empty() || fs::remove_dir(&config.scratch).is_err() {
        eprintln!("dispatch scratch kept at {}", config.scratch.display());
    }
    Ok(merge_outcomes(runner, planned, outcomes, missing))
}

/// A rung of the shard ladder: which transport its attempts use.
#[derive(Clone, Copy)]
enum Rung {
    Lease,
    Spawn,
}

impl Rung {
    /// How supervision logs name this rung's attempts.
    fn label(self) -> &'static str {
        match self {
            Rung::Lease => "remote ",
            Rung::Spawn => "",
        }
    }
}

/// Supervise one shard down its rungs — leases rotated across the
/// workers if there are any, then local child spawns unless failover is
/// off — retrying each rung with the shard's backoff stream. Returns the
/// first success or the last failure.
fn supervise_shard<F>(
    config: &DispatchConfig,
    runner: &RunnerConfig,
    spec: ShardSpec,
    build: &F,
) -> ShardOutcome
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command,
{
    let rungs: &[Rung] = match (config.workers.is_empty(), config.local_failover) {
        (true, _) => &[Rung::Spawn],
        (false, true) => &[Rung::Lease, Rung::Spawn],
        (false, false) => &[Rung::Lease],
    };
    let backoff = Backoff::for_shard(config.backoff_base, config.seed, spec.shard);
    let mut last = AttemptFailure::Spawn("never attempted".to_owned());
    let mut attempts = 0;
    for (i, &rung) in rungs.iter().enumerate() {
        if i > 0 {
            eprintln!(
                "dispatch: shard {} failing over to a local child after {attempts} remote attempts: {last}",
                spec.shard
            );
        }
        for attempt in 0..=config.shard_retries {
            if attempt > 0 {
                eprintln!(
                    "dispatch: shard {} {}attempt {attempt} after failure: {last}",
                    spec.shard,
                    rung.label()
                );
                thread::sleep(backoff.delay(attempt - 1));
            }
            attempts += 1;
            let result = match rung {
                Rung::Lease => lease_attempt(config, runner, &spec, attempt),
                Rung::Spawn => run_attempt(config, &spec, attempt, build),
            };
            match result {
                Ok(yielded) => {
                    return ShardOutcome {
                        spec,
                        attempts,
                        result: Ok(yielded),
                    };
                }
                Err(failure) => last = failure,
            }
        }
    }
    eprintln!(
        "dispatch: shard {} gave up after {} {}attempts: {last}",
        spec.shard,
        config.shard_retries + 1,
        rungs[rungs.len() - 1].label()
    );
    ShardOutcome {
        spec,
        attempts,
        result: Err(last),
    }
}

/// One spawn-watch-collect cycle for a shard attempt.
fn run_attempt<F>(
    config: &DispatchConfig,
    spec: &ShardSpec,
    attempt: u32,
    build: &F,
) -> Result<ShardYield, AttemptFailure>
where
    F: Fn(&ShardSpec, &ShardPaths) -> Command,
{
    let paths = ShardPaths::new(&config.scratch, spec.shard, attempt);
    fs::create_dir_all(&paths.dir).map_err(|e| AttemptFailure::Spawn(e.to_string()))?;

    let mut cmd = build(spec, &paths);
    cmd.env_remove(CHAOS_ENV);
    if let Some(value) = config
        .chaos
        .iter()
        .find_map(|c| c.env_value(spec.shard, attempt))
    {
        cmd.env(CHAOS_ENV, value);
    }
    let log = fs::File::create(&paths.log).map_err(|e| AttemptFailure::Spawn(e.to_string()))?;
    let log_err = log
        .try_clone()
        .map_err(|e| AttemptFailure::Spawn(e.to_string()))?;
    cmd.stdin(Stdio::null()).stdout(log).stderr(log_err);

    let mut child = cmd
        .spawn()
        .map_err(|e| AttemptFailure::Spawn(e.to_string()))?;
    match watch(&mut child, &paths, config) {
        Verdict::Exited(status) if status.success() => {
            let yielded = collect(&paths)?;
            // Artifacts are in memory now; the attempt dir has served its
            // purpose. (A collect failure above keeps the dir: unusable
            // artifacts are exactly when you want to inspect them.)
            if !config.keep_scratch {
                let _ = fs::remove_dir_all(&paths.dir);
            }
            Ok(yielded)
        }
        Verdict::Exited(status) => Err(AttemptFailure::Exited(status.to_string())),
        Verdict::TimedOut => {
            let _ = child.kill();
            let _ = child.wait();
            Err(AttemptFailure::TimedOut(config.shard_deadline))
        }
        Verdict::Hung(silence) => {
            let _ = child.kill();
            let _ = child.wait();
            Err(AttemptFailure::Hung(silence))
        }
    }
}

/// How a watched child attempt ended.
enum Verdict {
    Exited(ExitStatus),
    TimedOut,
    Hung(Duration),
}

/// How often [`watch`] asks whether its child has exited. A dispatch
/// pass waits on its slowest child's exit, so a coarser tick shows up
/// directly in the pass time; `try_wait` is one non-blocking syscall.
const EXIT_POLL: Duration = Duration::from_millis(1);

/// Poll the child until it exits, overruns the shard deadline, or stops
/// heartbeating for longer than the liveness grace. The exit and the
/// deadline are checked every [`EXIT_POLL`], the heartbeat file every
/// `config.poll`.
fn watch(child: &mut Child, paths: &ShardPaths, config: &DispatchConfig) -> Verdict {
    let started = Instant::now();
    let mut hb_len = 0u64;
    let mut hb_seen = Instant::now();
    let mut hb_next = Instant::now();
    loop {
        match child.try_wait() {
            Ok(Some(status)) => return Verdict::Exited(status),
            Ok(None) => {}
            // try_wait errors are transient at worst; treat as still-running
            // and let the deadline bound the damage.
            Err(_) => {}
        }
        if started.elapsed() >= config.shard_deadline {
            return Verdict::TimedOut;
        }
        if !config.liveness.is_zero() && Instant::now() >= hb_next {
            hb_next = Instant::now() + config.poll;
            let len = fs::metadata(&paths.heartbeat).map(|m| m.len()).unwrap_or(0);
            if len > hb_len {
                hb_len = len;
                hb_seen = Instant::now();
            } else if hb_seen.elapsed() >= config.liveness {
                return Verdict::Hung(hb_seen.elapsed());
            }
        }
        thread::sleep(EXIT_POLL.min(config.poll));
    }
}

/// Parse a completed attempt's artifact files back into a [`ShardYield`].
fn collect(paths: &ShardPaths) -> Result<ShardYield, AttemptFailure> {
    let read = |path: &Path| {
        fs::read_to_string(path)
            .map_err(|e| AttemptFailure::Artifact(format!("read {}: {e}", path.display())))
    };
    ShardYield::parse(&read(&paths.report)?, &read(&paths.metrics)?)
        .map_err(|e| AttemptFailure::Artifact(format!("{}: {e}", paths.dir.display())))
}

/// Fold the per-shard results into one run-level [`SupervisedRun`].
///
/// Differences from the in-process fold in [`crate::Supervisor::run`]:
/// child processes already recorded their report metrics
/// (`runner.experiments`, statuses, …) into their own snapshots — and
/// counters over a partition sum to the run total — so the merge must
/// *not* re-record them; and each child's
/// journal carries its own `run-start`/`run-end` pair plus 0-based spec
/// indices, which the merge strips and re-bases before the canonical sort.
/// A daemon's `done` frame and a child's artifact files parse into the
/// same [`ShardYield`], so leased and spawned shards merge identically.
fn merge_outcomes(
    runner: &RunnerConfig,
    planned: usize,
    outcomes: Vec<ShardOutcome>,
    missing: Vec<MissingShard>,
) -> DispatchOutcome {
    let mut outcomes = outcomes;
    outcomes.sort_by_key(|o| o.spec.shard);
    let shard_attempts: Vec<u32> = outcomes.iter().map(|o| o.attempts).collect();

    let tel = Telemetry::new();
    tel.event(Event::new("run-start", run_start_detail(runner, planned)));
    tel.counter("dispatch.procs", outcomes.len() as u64);
    tel.counter("dispatch.shards_missing", missing.len() as u64);
    let mut report = RunReport {
        experiments: Vec::with_capacity(planned),
        profile: runner.profile.label().to_owned(),
        seed: runner.seed,
        code_rev: crate::code_rev(),
    };
    let mut outputs = BTreeMap::new();
    for outcome in outcomes {
        tel.counter(
            &format!("dispatch.shard.{}.attempts", outcome.spec.shard),
            u64::from(outcome.attempts),
        );
        let Ok(yielded) = outcome.result else {
            continue;
        };
        let mut snap = yielded.telemetry;
        snap.events
            .retain(|e| e.kind != "run-start" && e.kind != "run-end");
        snap.offset_spec(outcome.spec.spec_base);
        snap.stamp_shard(outcome.spec.shard);
        report.absorb(yielded.artifact.report);
        outputs.extend(yielded.artifact.outputs);
        tel.absorb(snap, "");
    }
    tel.event(Event::new("run-end", report.summary_line()));
    let mut telemetry = tel.into_snapshot();
    spec_order_in_place(&mut telemetry.events);
    let reconciliation = reconcile_breakers(&report, runner.breaker_threshold);
    DispatchOutcome {
        run: SupervisedRun {
            report,
            outputs,
            telemetry,
        },
        missing,
        reconciliation,
        shard_attempts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::{ExperimentReport, ExperimentStatus};

    fn row(code: &str, family: &str, status: ExperimentStatus, attempts: u32) -> ExperimentReport {
        ExperimentReport {
            code: code.to_owned(),
            title: format!("experiment {code}"),
            family: family.to_owned(),
            status,
            attempts,
            faults_injected: 0,
            message: String::new(),
            duration_ms: 0,
        }
    }

    #[test]
    fn chaos_specs_parse_and_match() {
        assert_eq!(
            ChaosProc::parse("kill:2"),
            Some(ChaosProc::Kill {
                shard: 2,
                attempt: 0
            })
        );
        assert_eq!(
            ChaosProc::parse("kill:2:1"),
            Some(ChaosProc::Kill {
                shard: 2,
                attempt: 1
            })
        );
        assert_eq!(
            ChaosProc::parse("hang:0"),
            Some(ChaosProc::Hang {
                shard: 0,
                attempt: 0
            })
        );
        for bad in ["", "kill", "kill:", "kill:x", "boom:1", "kill:1:2:3"] {
            assert_eq!(ChaosProc::parse(bad), None, "{bad:?}");
        }
        let c = ChaosProc::parse("kill:2:1").unwrap();
        assert_eq!(c.env_value(2, 1), Some("kill"));
        assert_eq!(c.env_value(2, 0), None);
        assert_eq!(c.env_value(1, 1), None);
    }

    #[test]
    fn reconciliation_sums_failures_across_shards() {
        // Two shards each saw one 'sick' failure: below the local threshold
        // of 2 everywhere, but globally the family would have been open.
        let mut report = RunReport::default();
        report
            .experiments
            .push(row("a", "sick", ExperimentStatus::Failed, 2));
        report
            .experiments
            .push(row("b", "fine", ExperimentStatus::Ok, 1));
        report
            .experiments
            .push(row("c", "sick", ExperimentStatus::TimedOut, 1));
        let rec = reconcile_breakers(&report, 2);
        assert_eq!(rec.families.len(), 1);
        let sick = &rec.families[0];
        assert_eq!(sick.family, "sick");
        assert_eq!(sick.failures, 2);
        assert_eq!(sick.skips, 0);
        assert!(sick.open_globally);
        assert_eq!(rec.open_families(), vec!["sick"]);
        assert!(rec.render().contains("would be OPEN globally"));
    }

    #[test]
    fn reconciliation_counts_breaker_skips_separately() {
        let mut report = RunReport::default();
        report
            .experiments
            .push(row("a", "sick", ExperimentStatus::Failed, 1));
        // A zero-attempt failure is a shard-local breaker skip.
        report
            .experiments
            .push(row("b", "sick", ExperimentStatus::Failed, 0));
        let rec = reconcile_breakers(&report, 3);
        let sick = &rec.families[0];
        assert_eq!(sick.failures, 1);
        assert_eq!(sick.skips, 1);
        assert!(!sick.open_globally, "1 executed failure < threshold 3");
    }

    #[test]
    fn reconciliation_of_clean_report_is_empty() {
        let mut report = RunReport::default();
        report
            .experiments
            .push(row("a", "fine", ExperimentStatus::Ok, 1));
        report
            .experiments
            .push(row("b", "fine", ExperimentStatus::Retried, 2));
        let rec = reconcile_breakers(&report, 2);
        assert!(rec.families.is_empty());
        assert_eq!(rec.render(), "");
    }

    // -- process-level tests against /bin/sh fake children ----------------

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("humnet-dispatch-test-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn quick_config(tag: &str) -> DispatchConfig {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(20),
            liveness: Duration::ZERO,
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

    /// A `sh` child that writes valid single-experiment artifacts, as a
    /// child `experiments run --shards 1` invocation would.
    fn good_child(spec: &ShardSpec, paths: &ShardPaths) -> Command {
        let code = spec.codes[0].clone();
        let tel = Telemetry::new();
        tel.event(Event::new("run-start", "profile=none seed=1"));
        tel.event(
            Event::new("experiment-start", "t")
                .in_experiment(&code)
                .with_spec(0),
        );
        tel.event(
            Event::new("experiment-end", "ok faults=0")
                .with_attempt(0)
                .in_experiment(&code)
                .with_spec(0),
        );
        tel.event(Event::new("run-end", "1 experiments: 1 ok"));
        tel.counter("runner.experiments", 1);
        let metrics = tel.into_snapshot().to_json().unwrap();
        let artifact = RunArtifact {
            report: RunReport {
                experiments: vec![row(&code, "fam", ExperimentStatus::Ok, 1)],
                profile: "none".to_owned(),
                seed: 1,
                code_rev: String::new(),
            },
            outputs: std::iter::once((code.clone(), format!("{code} output"))).collect(),
        };
        let mut cmd = Command::new("sh");
        cmd.arg("-c").arg(format!(
            "cat > {m} <<'HUMNET_EOF_M'\n{metrics}\nHUMNET_EOF_M\ncat > {r} <<'HUMNET_EOF_R'\n{report}\nHUMNET_EOF_R\n",
            m = shell_quote(&paths.metrics),
            r = shell_quote(&paths.report),
            report = artifact.to_json().unwrap(),
        ));
        cmd
    }

    fn shell_quote(p: &Path) -> String {
        format!("'{}'", p.display())
    }

    #[test]
    fn crash_on_first_attempt_is_retried_to_success() {
        let config = quick_config("retry");
        let specs = vec![shard_spec(0, 0, &["e0"]), shard_spec(1, 1, &["e1"])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, |spec, paths| {
            if spec.shard == 1 && paths.attempt == 0 {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 7");
                cmd
            } else {
                good_child(spec, paths)
            }
        })
        .unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![1, 2]);
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.run.report.experiments.len(), 2);
        assert_eq!(outcome.run.outputs["e1"], "e1 output");
        assert_eq!(
            outcome.run.telemetry.metrics.counters["dispatch.shard.1.attempts"],
            2
        );
        assert!(outcome.render_summary().contains("complete after retries"));
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn exhausted_retries_fail_loudly_without_allow_partial() {
        let mut config = quick_config("loud");
        config.shard_retries = 1;
        let specs = vec![shard_spec(0, 0, &["e0"])];
        let err = dispatch(&config, &RunnerConfig::default(), specs, |_, _| {
            let mut cmd = Command::new("sh");
            cmd.arg("-c").arg("exit 3");
            cmd
        })
        .unwrap_err();
        let DispatchError::ShardsFailed(missing) = &err else {
            panic!("expected ShardsFailed, got {err:?}");
        };
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].shard, 0);
        assert_eq!(missing[0].attempts, 2);
        assert_eq!(missing[0].codes, vec!["e0"]);
        assert!(err.to_string().contains("shard 0"), "{err}");
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn allow_partial_degrades_and_names_the_missing_shard() {
        let mut config = quick_config("partial");
        config.allow_partial = true;
        config.shard_retries = 0;
        let specs = vec![shard_spec(0, 0, &["e0"]), shard_spec(1, 1, &["e1"])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, |spec, paths| {
            if spec.shard == 1 {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 9");
                cmd
            } else {
                good_child(spec, paths)
            }
        })
        .unwrap();
        assert!(outcome.degraded());
        assert_eq!(outcome.exit_code(), 3);
        assert_eq!(outcome.missing.len(), 1);
        assert_eq!(outcome.missing[0].shard, 1);
        assert_eq!(outcome.missing[0].codes, vec!["e1"]);
        // The surviving shard's results are intact.
        assert_eq!(outcome.run.report.experiments.len(), 1);
        assert_eq!(outcome.run.outputs["e0"], "e0 output");
        let summary = outcome.render_summary();
        assert!(summary.contains("DEGRADED"), "{summary}");
        assert!(summary.contains("missing shard 1"), "{summary}");
        assert!(summary.contains("e1"), "{summary}");
        assert_eq!(
            outcome.run.telemetry.metrics.counters["dispatch.shards_missing"],
            1
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn deadline_overrun_is_killed_and_reported() {
        let mut config = quick_config("deadline");
        config.shard_deadline = Duration::from_millis(120);
        config.shard_retries = 0;
        config.allow_partial = true;
        let started = Instant::now();
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["e0"])],
            |_, _| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("sleep 30");
                cmd
            },
        )
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "child was killed"
        );
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("shard deadline"),
            "{}",
            outcome.missing[0].reason
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn heartbeat_silence_is_declared_hung_before_the_deadline() {
        let mut config = quick_config("hung");
        config.shard_deadline = Duration::from_secs(30);
        config.liveness = Duration::from_millis(150);
        config.shard_retries = 0;
        config.allow_partial = true;
        let started = Instant::now();
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["e0"])],
            |_, _| {
                // Never writes a heartbeat: liveness fires long before the
                // 30s deadline would.
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("sleep 30");
                cmd
            },
        )
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "hung child was killed early"
        );
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("no heartbeat"),
            "{}",
            outcome.missing[0].reason
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn garbage_artifacts_count_as_a_failed_attempt() {
        let mut config = quick_config("garbage");
        config.shard_retries = 0;
        config.allow_partial = true;
        let outcome = dispatch(
            &config,
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["e0"])],
            |_, paths| {
                let mut cmd = Command::new("sh");
                cmd.arg("-c")
                    .arg(format!("echo not-json > {}", shell_quote(&paths.metrics)));
                cmd
            },
        )
        .unwrap();
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("artifacts unusable"),
            "{}",
            outcome.missing[0].reason
        );
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn merged_journal_rebases_specs_and_brackets_once() {
        let config = quick_config("merge");
        let specs = vec![shard_spec(0, 0, &["e0"]), shard_spec(1, 1, &["e1"])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, good_child).unwrap();
        let events = &outcome.run.telemetry.events;
        // Exactly one run-start / run-end pair, at the boundaries.
        assert_eq!(events.first().unwrap().kind, "run-start");
        assert_eq!(events.last().unwrap().kind, "run-end");
        assert_eq!(events.iter().filter(|e| e.kind == "run-start").count(), 1);
        assert_eq!(events.iter().filter(|e| e.kind == "run-end").count(), 1);
        // Shard 1's events were re-based from spec 0 to spec 1 and stamped.
        let e1_start = events
            .iter()
            .find(|e| e.kind == "experiment-start" && e.experiment == "e1")
            .unwrap();
        assert_eq!(e1_start.spec, Some(1));
        assert_eq!(e1_start.shard, Some(1));
        // Child counters summed without re-recording.
        assert_eq!(
            outcome.run.telemetry.metrics.counters["runner.experiments"],
            2
        );
        // Seqs are dense after the canonical sort.
        let seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..events.len() as u64).collect::<Vec<_>>());
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn successful_attempt_dirs_are_cleaned_and_failed_ones_kept() {
        let config = quick_config("lifecycle");
        let specs = vec![shard_spec(0, 0, &["e0"]), shard_spec(1, 1, &["e1"])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, |spec, paths| {
            if spec.shard == 1 && paths.attempt == 0 {
                let mut cmd = Command::new("sh");
                cmd.arg("-c").arg("exit 7");
                cmd
            } else {
                good_child(spec, paths)
            }
        })
        .unwrap();
        assert!(!outcome.degraded());
        // Parsed-and-merged attempts leave nothing behind …
        assert!(!ShardPaths::new(&config.scratch, 0, 0).dir.exists());
        assert!(!ShardPaths::new(&config.scratch, 1, 1).dir.exists());
        // … but the crashed first attempt of shard 1 keeps its log.
        assert!(ShardPaths::new(&config.scratch, 1, 0).dir.exists());
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn keep_scratch_preserves_successful_attempt_dirs() {
        let mut config = quick_config("keep");
        config.keep_scratch = true;
        let specs = vec![shard_spec(0, 0, &["e0"])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, good_child).unwrap();
        assert!(!outcome.degraded());
        let kept = ShardPaths::new(&config.scratch, 0, 0);
        assert!(kept.dir.exists());
        assert!(kept.report.exists());
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn empty_shards_are_not_spawned() {
        let config = quick_config("empty");
        let specs = vec![shard_spec(0, 0, &["e0"]), shard_spec(1, 1, &[])];
        let outcome = dispatch(&config, &RunnerConfig::default(), specs, |spec, paths| {
            assert_ne!(spec.shard, 1, "empty shard must not spawn");
            good_child(spec, paths)
        })
        .unwrap();
        assert_eq!(outcome.shard_attempts, vec![1]);
        assert_eq!(outcome.run.report.experiments.len(), 1);
        let _ = fs::remove_dir_all(&config.scratch);
    }
}
