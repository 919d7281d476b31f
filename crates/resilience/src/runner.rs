//! Supervised experiment runner.
//!
//! Every attempt is one closure handed to a process-wide cache of recycled
//! worker threads (`pool_run`), so a K-shard run spawns at most K workers
//! once and reuses them for every later attempt and run (the seed spawned
//! one thread per attempt, which dominated supervisor cost — see
//! `BENCH_shard.json`). The supervisor settles the attempt with
//! [`mpsc::Receiver::recv_timeout`] on the attempt's own reply channel:
//! the worker's result or the deadline, whichever comes first. A timed-out
//! attempt is abandoned (Rust offers no safe thread kill); its thread
//! finishes the overrunning job eventually, re-enlists in the pool, and
//! finds the reply channel closed. Panics are contained with
//! [`std::panic::catch_unwind`] and turned into `Failed` rows instead of
//! aborting the run. Failures are retried with exponential backoff and
//! deterministic jitter, and a per-family circuit breaker short-circuits
//! experiments whose subsystem keeps failing.

use crate::backoff::Backoff;
use crate::breaker::CircuitBreaker;
use crate::fault::{FaultPlan, FaultProfile};
use crate::report::{ExperimentReport, ExperimentStatus, RunReport};
use humnet_telemetry::{Event, Telemetry, TelemetrySnapshot};
use std::collections::BTreeMap;
use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::thread;
use std::time::{Duration, Instant};

/// What a supervised job hands back on success.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobOutput {
    /// Rendered experiment output (tables, figures-as-text).
    pub rendered: String,
    /// Faults the plan injected while this attempt ran.
    pub faults_injected: u64,
}

/// Errors cross the thread boundary as boxed chains so the report can show
/// the full `source()` walk, not just the outermost message.
pub type JobError = Box<dyn std::error::Error + Send + Sync + 'static>;

/// A supervised unit of work. Receives the fault plan for its attempt and
/// a per-attempt [`Telemetry`] instance whose snapshot the supervisor
/// merges into the run-level telemetry when the attempt reports back.
pub type Job =
    Arc<dyn Fn(&FaultPlan, &Telemetry) -> Result<JobOutput, JobError> + Send + Sync + 'static>;

/// One experiment the supervisor knows how to run.
#[derive(Clone)]
pub struct ExperimentSpec {
    /// Short stable code (e.g. `fig1`, `tab3`).
    pub code: String,
    /// Human-readable title.
    pub title: String,
    /// Family / subsystem, the circuit-breaker granularity.
    pub family: String,
    /// The work itself.
    pub job: Job,
}

impl ExperimentSpec {
    /// Convenience constructor.
    pub fn new(
        code: impl Into<String>,
        title: impl Into<String>,
        family: impl Into<String>,
        job: impl Fn(&FaultPlan, &Telemetry) -> Result<JobOutput, JobError> + Send + Sync + 'static,
    ) -> Self {
        ExperimentSpec {
            code: code.into(),
            title: title.into(),
            family: family.into(),
            job: Arc::new(job),
        }
    }
}

/// Knobs for the supervised run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunnerConfig {
    /// Extra attempts after the first (0 = no retries).
    pub retries: u32,
    /// Per-attempt wall-clock deadline.
    pub deadline: Duration,
    /// Base delay for the retry backoff schedule.
    pub backoff_base: Duration,
    /// Consecutive family failures before the breaker opens (0 = disabled).
    pub breaker_threshold: u32,
    /// Recorded outcomes an open breaker sits out before admitting one
    /// half-open probe attempt (0 = latch open for the whole run).
    pub breaker_cooldown: u32,
    /// Seed for the fault plans and the jitter stream.
    pub seed: u64,
    /// Fault mix injected into every experiment.
    pub profile: FaultProfile,
    /// Multiplier on the profile's fault rates.
    pub intensity: f64,
    /// Suppress the default panic-hook backtrace for supervised workers
    /// (their panics are captured and reported as `Failed` rows anyway).
    pub quiet_panics: bool,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        RunnerConfig {
            retries: 1,
            deadline: Duration::from_secs(30),
            backoff_base: Duration::from_millis(25),
            breaker_threshold: 2,
            breaker_cooldown: 0,
            seed: 42,
            profile: FaultProfile::None,
            intensity: 1.0,
            quiet_panics: true,
        }
    }
}

/// Result of a supervised run: the report plus each completed experiment's
/// rendered output, keyed by experiment code.
#[derive(Debug, Clone, Default)]
pub struct SupervisedRun {
    /// Per-experiment statuses and the aggregate verdict.
    pub report: RunReport,
    /// Rendered output of every experiment that completed.
    pub outputs: BTreeMap<String, String>,
    /// Merged telemetry across the run: runner-level metrics/events plus
    /// every completed attempt's metrics, spans, and journal (a timed-out
    /// worker's telemetry is abandoned with the worker).
    pub telemetry: TelemetrySnapshot,
}

/// Executes [`ExperimentSpec`]s under panic isolation, deadlines, retries
/// and a circuit breaker, producing a [`SupervisedRun`]. With
/// [`SupervisorBuilder::shards`] above 1, [`Supervisor::run`] fans the
/// specs out across worker threads that claim them one at a time and
/// folds their results back into one run-level view (see [`crate::shard`]).
pub struct Supervisor {
    config: RunnerConfig,
    /// One breaker for the whole run, shared by every worker.
    breaker: Arc<Mutex<CircuitBreaker>>,
    shards: u32,
}

/// Construction for [`Supervisor`]: the runner knobs come as one
/// [`RunnerConfig`], the worker count beside it:
///
/// ```
/// # use humnet_resilience::{FaultProfile, RunnerConfig, Supervisor};
/// # use std::time::Duration;
/// let mut sup = Supervisor::builder()
///     .config(RunnerConfig {
///         retries: 2,
///         deadline: Duration::from_secs(30),
///         profile: FaultProfile::Chaos,
///         ..RunnerConfig::default()
///     })
///     .shards(4)
///     .build();
/// ```
#[derive(Debug, Clone)]
pub struct SupervisorBuilder {
    config: RunnerConfig,
    shards: u32,
}

impl Default for SupervisorBuilder {
    fn default() -> Self {
        SupervisorBuilder {
            config: RunnerConfig::default(),
            shards: 1,
        }
    }
}

impl SupervisorBuilder {
    /// Worker shards the run fans out across (clamped to at least 1).
    /// Per-experiment outcomes and the canonical journal are
    /// shard-invariant; see `crate::shard` for what is not.
    #[must_use]
    pub fn shards(mut self, shards: u32) -> Self {
        self.shards = shards.max(1);
        self
    }

    /// Ignored: there is one schedule. Kept only so the benchmark's
    /// `.schedule(Schedule::Static)` call in `humbench/src/suite.rs`
    /// still builds.
    #[deprecated(note = "there is one schedule; drop the call (kept for humbench/src/suite.rs)")]
    #[allow(deprecated)]
    #[must_use]
    pub fn schedule(self, _schedule: crate::Schedule) -> Self {
        self
    }

    /// The runner configuration: retries, deadline, backoff, breaker,
    /// seed, fault profile and intensity (default [`RunnerConfig::default`]).
    #[must_use]
    pub fn config(mut self, config: RunnerConfig) -> Self {
        self.config = config;
        self
    }

    /// Finish: a [`Supervisor`] with a fresh (closed) breaker.
    pub fn build(self) -> Supervisor {
        Supervisor {
            breaker: Arc::new(Mutex::new(
                CircuitBreaker::new(self.config.breaker_threshold)
                    .with_cooldown(self.config.breaker_cooldown),
            )),
            config: self.config,
            shards: self.shards,
        }
    }
}

/// Outcome of a single attempt, before retry/status mapping.
enum Attempt {
    Success(JobOutput),
    Error(String),
    Panic(String),
    Timeout,
}

// ---------------------------------------------------------------------------
// Pooled worker threads
// ---------------------------------------------------------------------------

/// A closure executed on a pooled worker thread. It returns the step that
/// hands its result back, which the worker runs only after re-enlisting:
/// a caller woken by that result then leases the same warm thread again
/// instead of spawning another (each thread that allocates brings its own
/// allocator arena, so spreading attempts over threads grows the RSS).
type PoolJob = Box<dyn FnOnce() -> Deliver + Send + 'static>;

/// The last step of a [`PoolJob`]: send its result to whoever waits.
type Deliver = Box<dyn FnOnce() + Send + 'static>;

/// Idle pooled workers, each addressed by the sender of its private job
/// channel. A worker runs one job, re-enlists here, and blocks for the
/// next — so in steady state leasing a worker is a channel round-trip
/// (~4 µs) instead of a thread spawn (~30 µs), and a K-shard run costs K
/// spawns *once* per process instead of one per attempt.
static POOL_IDLE: Mutex<Vec<mpsc::Sender<PoolJob>>> = Mutex::new(Vec::new());

/// Monotonic id for pooled-thread names (`humnet-exp-pool-<id>`).
static POOL_SPAWNED: AtomicU64 = AtomicU64::new(0);

/// Idle workers kept around; a worker finishing beyond this cap exits
/// instead of re-enlisting, bounding resident threads after a burst.
const POOL_MAX_IDLE: usize = 32;

/// Run `job` on a pooled worker thread, reusing an idle one when
/// available. `Err` hands the job back when no idle worker existed and
/// spawning a fresh one failed.
fn pool_run(mut job: PoolJob) -> Result<(), PoolJob> {
    let idle = POOL_IDLE.lock().unwrap_or_else(|e| e.into_inner()).pop();
    if let Some(worker) = idle {
        // An enlisted worker keeps its own sender and is blocked on its
        // receiver, so this send only fails if its thread died anyway.
        match worker.send(job) {
            Ok(()) => return Ok(()),
            Err(mpsc::SendError(returned)) => job = returned,
        }
    }
    let id = POOL_SPAWNED.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = mpsc::channel::<PoolJob>();
    let enlist = tx.clone();
    // Spawn an idle worker first and hand it the job only once it exists,
    // so a failed spawn drops nothing but the builder and the caller gets
    // its job back.
    let spawned = thread::Builder::new()
        // The `humnet-exp-` prefix keeps pooled threads under the quiet
        // panic hook's filter.
        .name(format!("{WORKER_PREFIX}pool-{id}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                // Contain panics so a panicking job cannot take the pooled
                // thread down with it (its caller sees a closed channel).
                let deliver = panic::catch_unwind(AssertUnwindSafe(job));
                let stay = {
                    let mut idle = POOL_IDLE.lock().unwrap_or_else(|e| e.into_inner());
                    let stay = idle.len() < POOL_MAX_IDLE;
                    if stay {
                        idle.push(enlist.clone());
                    }
                    stay
                };
                if let Ok(deliver) = deliver {
                    deliver();
                }
                if !stay {
                    return;
                }
            }
        });
    match spawned {
        // The worker holds its own sender, so its receiver outlives this send.
        Ok(_) => tx.send(job).map_err(|mpsc::SendError(job)| job),
        Err(_) => Err(job),
    }
}

/// Run `f` on a pooled worker thread — inline on the calling thread when
/// no worker could be had — and return the channel its result (or panic
/// payload) arrives on.
fn pool_execute<T, F>(f: F) -> mpsc::Receiver<thread::Result<T>>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let task: PoolJob = Box::new(move || {
        let result = panic::catch_unwind(AssertUnwindSafe(f));
        Box::new(move || {
            let _ = tx.send(result);
        })
    });
    if let Err(task) = pool_run(task) {
        task()();
    }
    rx
}

/// Run `job(k, inputs[k], worker)` for every input on up to `workers`
/// threads, the calling thread (worker 0) and pooled helpers (workers 1
/// and up), and return the outputs in input order. Each worker claims the
/// next input from one queue, so a slow job holds up only its own
/// worker. A job that returns [`ControlFlow::Break`] stops every worker
/// from claiming another; the outputs are then those of the inputs
/// claimed so far, which are always a prefix of the list. A helper's
/// panic is resumed on the calling thread.
///
/// [`Supervisor::run`] fans its specs out through this, and so do the
/// independent sub-runs of T1 and T3 (`humnet_core::subrun`) and the
/// per-destination rows of a routing table
/// (`humnet_ixp::RoutingTable::compute_frozen`).
pub fn fan_out<I, T, F>(inputs: Vec<I>, workers: usize, job: F) -> Vec<T>
where
    I: Send + 'static,
    T: Send + 'static,
    F: Fn(usize, I, usize) -> ControlFlow<T, T> + Send + Sync + 'static,
{
    let helpers = workers.min(inputs.len()).saturating_sub(1);
    let queue = Mutex::new(inputs.into_iter().enumerate());
    // One worker's loop: claim the next input, run its job, and repeat
    // until none is left. A job that breaks drops the inputs left.
    let work = Arc::new(move |worker: usize| -> Vec<(usize, T)> {
        let mut done = Vec::new();
        loop {
            // The claim's guard drops at the end of its statement, so no
            // job runs under the lock.
            let claimed = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
            let Some((k, input)) = claimed else {
                return done;
            };
            let flow = job(k, input, worker);
            if flow.is_break() {
                let mut left = queue.lock().unwrap_or_else(PoisonError::into_inner);
                left.by_ref().for_each(drop);
            }
            let (ControlFlow::Continue(output) | ControlFlow::Break(output)) = flow;
            done.push((k, output));
        }
    });
    let helpers: Vec<_> = (1..=helpers)
        .map(|w| {
            let work = Arc::clone(&work);
            pool_execute(move || work(w))
        })
        .collect();
    let mut done = work(0);
    for helper in helpers {
        let claimed = helper
            .recv()
            .unwrap_or_else(|_| Err(Box::new("pooled worker vanished without a result")))
            .unwrap_or_else(|payload| panic::resume_unwind(payload));
        done.extend(claimed);
    }
    done.sort_unstable_by_key(|&(k, _)| k);
    done.into_iter().map(|(_, output)| output).collect()
}

/// One attempt on a pooled worker, settled by whichever comes first: the
/// worker's reply or the deadline. Returns the outcome and, when the
/// worker reported back in time, its telemetry snapshot. A timed-out
/// attempt is abandoned, not killed (Rust offers no safe thread kill):
/// its worker finishes the job, re-enlists in the pool, and finds the
/// reply channel closed, dropping the telemetry.
fn run_attempt(
    config: &RunnerConfig,
    spec: &ExperimentSpec,
    attempt: u32,
) -> (Attempt, Option<TelemetrySnapshot>) {
    // Each attempt gets its own deterministic plan seed: retries see a
    // fresh fault draw (a transient fault may clear), while the whole
    // run — including every retry — replays identically from the same
    // supervisor seed.
    let plan = FaultPlan::new(
        config.profile,
        config.seed
            ^ fnv1a(spec.code.as_bytes())
            ^ u64::from(attempt).wrapping_mul(0x2545_F491_4F6C_DD1D),
    )
    .with_intensity(config.intensity);

    let job = Arc::clone(&spec.job);
    let (reply_tx, reply_rx) = mpsc::channel();
    let task: PoolJob = Box::new(move || {
        // `Telemetry` is `Send` but not `Sync`: one instance lives entirely
        // on the worker, and only the plain-data snapshot crosses back
        // over the channel — so a panicking or failing job still ships
        // the telemetry it gathered.
        let tel = Telemetry::new();
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            let _span = tel.span("runner.attempt");
            job(&plan, &tel)
        }));
        let reply = (result, tel.into_snapshot());
        Box::new(move || {
            let _ = reply_tx.send(reply);
        })
    });
    if pool_run(task).is_err() {
        return (
            Attempt::Error("failed to lease a pooled worker".to_owned()),
            None,
        );
    }
    match reply_rx.recv_timeout(config.deadline) {
        Ok((Ok(Ok(output)), telemetry)) => (Attempt::Success(output), Some(telemetry)),
        Ok((Ok(Err(err)), telemetry)) => {
            (Attempt::Error(render_chain(err.as_ref())), Some(telemetry))
        }
        Ok((Err(payload), telemetry)) => (
            Attempt::Panic(panic_message(payload.as_ref())),
            Some(telemetry),
        ),
        Err(mpsc::RecvTimeoutError::Timeout) => (Attempt::Timeout, None),
        Err(mpsc::RecvTimeoutError::Disconnected) => (
            Attempt::Error("worker disconnected without a result".to_owned()),
            None,
        ),
    }
}

/// Run one spec end to end — breaker gate, attempts with retry/backoff,
/// status mapping, and every journal event — recording into `tel` and
/// returning the report row plus the rendered output on success. Every
/// worker of every run calls it, which is what makes the event stream of
/// a spec identical line for line whichever worker claimed it.
fn run_spec(
    config: &RunnerConfig,
    breaker: &Mutex<CircuitBreaker>,
    spec: &ExperimentSpec,
    tel: &Telemetry,
) -> (ExperimentReport, Option<String>) {
    let started = Instant::now();
    let lock = || breaker.lock().unwrap_or_else(|e| e.into_inner());
    let admission = lock().admit(&spec.family);
    match admission {
        crate::breaker::Admission::Closed => {}
        crate::breaker::Admission::Probe => {
            // Cooldown elapsed: this experiment runs as the half-open
            // probe. Success below closes the family; failure re-opens it
            // for another full cooldown.
            tel.counter("runner.breaker_probes", 1);
            tel.event(
                Event::new("breaker-probe", format!("family '{}'", spec.family))
                    .in_experiment(&spec.code),
            );
        }
        crate::breaker::Admission::Open => {
            let message = format!("circuit breaker open for family '{}'", spec.family);
            tel.counter("runner.breaker_skips", 1);
            tel.event(Event::new("breaker-skip", message.clone()).in_experiment(&spec.code));
            return (
                ExperimentReport {
                    code: spec.code.clone(),
                    title: spec.title.clone(),
                    family: spec.family.clone(),
                    status: ExperimentStatus::Failed,
                    attempts: 0,
                    faults_injected: 0,
                    message,
                    duration_ms: 0,
                },
                None,
            );
        }
    }

    tel.event(Event::new("experiment-start", spec.title.clone()).in_experiment(&spec.code));
    let backoff = Backoff::new(
        config.backoff_base,
        config.seed ^ fnv1a(spec.code.as_bytes()),
    );
    let mut last_message = String::new();
    let mut last_timed_out = false;
    let mut attempts = 0;

    for attempt in 0..=config.retries {
        if attempt > 0 {
            tel.counter("runner.retries", 1);
            tel.event(
                Event::new("retry", format!("after: {last_message}"))
                    .with_attempt(attempt)
                    .in_experiment(&spec.code),
            );
            thread::sleep(backoff.delay(attempt - 1));
        }
        attempts += 1;
        let (outcome, snapshot) = run_attempt(config, spec, attempt);
        // Merge the worker's telemetry in execution order, scoped to
        // this experiment, before recording the outcome event.
        if let Some(snapshot) = snapshot {
            tel.absorb(snapshot, &spec.code);
        }
        match outcome {
            Attempt::Success(output) => {
                lock().record_success(&spec.family);
                let status = if attempt > 0 {
                    ExperimentStatus::Retried
                } else if output.faults_injected > 0 {
                    ExperimentStatus::Degraded
                } else {
                    ExperimentStatus::Ok
                };
                tel.observe("runner.attempt_ns", started.elapsed().as_nanos() as u64);
                tel.event(
                    Event::new(
                        "experiment-end",
                        format!("{} faults={}", status.label(), output.faults_injected),
                    )
                    .with_attempt(attempt)
                    .in_experiment(&spec.code),
                );
                return (
                    ExperimentReport {
                        code: spec.code.clone(),
                        title: spec.title.clone(),
                        family: spec.family.clone(),
                        status,
                        attempts,
                        faults_injected: output.faults_injected,
                        message: String::new(),
                        duration_ms: started.elapsed().as_millis() as u64,
                    },
                    Some(output.rendered),
                );
            }
            Attempt::Error(msg) => {
                last_message = msg;
                last_timed_out = false;
                tel.event(
                    Event::new("attempt-error", last_message.clone())
                        .with_attempt(attempt)
                        .in_experiment(&spec.code),
                );
            }
            Attempt::Panic(msg) => {
                last_message = format!("panic: {msg}");
                last_timed_out = false;
                tel.event(
                    Event::new("panic", msg)
                        .with_attempt(attempt)
                        .in_experiment(&spec.code),
                );
            }
            Attempt::Timeout => {
                last_message = format!("deadline exceeded ({}ms)", config.deadline.as_millis());
                last_timed_out = true;
                tel.event(
                    Event::new("timeout", last_message.clone())
                        .with_attempt(attempt)
                        .in_experiment(&spec.code),
                );
            }
        }
    }

    if lock().record_failure(&spec.family) {
        tel.counter("runner.breaker_trips", 1);
        tel.event(
            Event::new("breaker-open", format!("family '{}'", spec.family))
                .in_experiment(&spec.code),
        );
    }
    let status = if last_timed_out {
        ExperimentStatus::TimedOut
    } else {
        ExperimentStatus::Failed
    };
    tel.event(
        Event::new(
            "experiment-end",
            format!("{} after {attempts} attempts", status.label()),
        )
        .in_experiment(&spec.code),
    );
    (
        ExperimentReport {
            code: spec.code.clone(),
            title: spec.title.clone(),
            family: spec.family.clone(),
            status,
            attempts,
            faults_injected: 0,
            message: last_message,
            duration_ms: started.elapsed().as_millis() as u64,
        },
        None,
    )
}

impl Supervisor {
    /// Start building a supervisor fluently.
    pub fn builder() -> SupervisorBuilder {
        SupervisorBuilder::default()
    }

    /// The configuration this supervisor runs with.
    pub fn config(&self) -> &RunnerConfig {
        &self.config
    }

    /// How many shards [`Supervisor::run`] fans out across.
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Run every spec, never panicking, and aggregate a report. The run's
    /// workers — one per shard, at most one per spec — each claim the next
    /// unclaimed spec through [`fan_out`]. Each spec's journal and gauges
    /// are folded into the run's telemetry in spec order, and each
    /// worker's counters, histograms and spans once, so the canonical
    /// journal, report, outputs, counters, gauges and histograms match
    /// the 1-shard run whichever worker ran what.
    pub fn run(&mut self, specs: &[ExperimentSpec]) -> SupervisedRun {
        let _quiet = self.config.quiet_panics.then(QuietPanics::install);
        let sharded = self.shards > 1;
        let workers = (self.shards as usize).min(specs.len()).max(1);
        let tel = Telemetry::new();
        tel.event(Event::new(
            "run-start",
            run_start_detail(&self.config, specs.len()),
        ));
        let config = self.config;
        let breaker = Arc::clone(&self.breaker);
        // Counters, histograms and spans add up in any order, so each
        // worker records its specs into one `Telemetry` and the run folds
        // it once. The journal and the gauges do not: they are taken out
        // after every spec and folded in spec order.
        let recorders: Arc<[Mutex<Telemetry>]> =
            (0..workers).map(|_| Mutex::new(Telemetry::new())).collect();
        let worker_recorders = Arc::clone(&recorders);
        let ran = fan_out(specs.to_vec(), workers, move |_, spec, worker| {
            let rec = worker_recorders[worker]
                .lock()
                .expect("run_spec never panics under a recorder's lock");
            let (row, rendered) = run_spec(&config, &breaker, &spec, &rec);
            ControlFlow::Continue((row, rendered, rec.take_ordered(), worker))
        });

        let mut experiments = Vec::with_capacity(ran.len());
        let mut outputs = BTreeMap::new();
        let mut claimed = vec![0; workers];
        for (index, (row, rendered, mut ordered, worker)) in ran.into_iter().enumerate() {
            for event in &mut ordered.events {
                event.spec.get_or_insert(index as u64);
                if sharded {
                    event.shard.get_or_insert(worker as u32);
                }
            }
            tel.absorb(ordered, "");
            if let Some(rendered) = rendered {
                outputs.insert(row.code.clone(), rendered);
            }
            experiments.push(row);
            claimed[worker] += 1;
        }
        for recorder in recorders.iter() {
            let mut rec = recorder
                .lock()
                .expect("run_spec never panics under a recorder's lock");
            tel.absorb(std::mem::take(&mut *rec).into_snapshot(), "");
        }
        if sharded {
            tel.counter("runner.shards", u64::from(self.shards));
            for (w, n) in claimed.into_iter().enumerate() {
                tel.counter(&format!("runner.shard.{w}.experiments"), n);
            }
        }

        let report = RunReport {
            experiments,
            profile: self.config.profile.label().to_owned(),
            seed: self.config.seed,
            code_rev: crate::code_rev(),
        };
        report.record_metrics(&tel);
        tel.event(Event::new("run-end", report.summary_line()));
        SupervisedRun {
            report,
            outputs,
            telemetry: tel.into_snapshot(),
        }
    }
}

/// Name prefix of the threads that run experiment code. A supervisor
/// with `quiet_panics` silences panics on threads whose name starts with
/// it, so a thread an experiment spawns for its own sub-runs takes it too.
pub const WORKER_PREFIX: &str = "humnet-exp-";

/// The `run-start` event detail: every configuration knob that shapes the
/// canonical event stream, as `key=value` tokens. The replay engine parses
/// this line to reconstruct the [`RunnerConfig`] a captured journal ran
/// under (the deadline is deliberately absent — it only matters under
/// wall-clock timeouts, which are not reproducible anyway).
pub(crate) fn run_start_detail(config: &RunnerConfig, experiments: usize) -> String {
    format!(
        "profile={} seed={} intensity={} retries={} breaker={} cooldown={} experiments={experiments}",
        config.profile.label(),
        config.seed,
        config.intensity,
        config.retries,
        config.breaker_threshold,
        config.breaker_cooldown,
    )
}

/// Render an error and its full `source()` chain as `outer: mid: root`.
pub fn render_chain(err: &(dyn std::error::Error + 'static)) -> String {
    let mut out = err.to_string();
    let mut cursor = err.source();
    while let Some(cause) = cursor {
        let rendered = cause.to_string();
        // Errors that embed their cause in Display would repeat themselves.
        if !out.ends_with(&rendered) {
            out.push_str(": ");
            out.push_str(&rendered);
        }
        cursor = cause.source();
    }
    out
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// RAII guard silencing the default panic hook for supervised worker
/// threads only. Panics on other threads still print as usual. A global
/// lock serializes install/restore so concurrent supervisors (e.g. in
/// parallel tests) cannot tangle the hook chain.
pub(crate) struct QuietPanics {
    _guard: std::sync::MutexGuard<'static, ()>,
}

static HOOK_LOCK: Mutex<()> = Mutex::new(());

impl QuietPanics {
    pub(crate) fn install() -> Self {
        let guard = HOOK_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let on_worker = thread::current()
                .name()
                .is_some_and(|n| n.starts_with(WORKER_PREFIX));
            if !on_worker {
                previous(info);
            }
        }));
        QuietPanics { _guard: guard }
    }
}

impl Drop for QuietPanics {
    fn drop(&mut self) {
        // Restore the default hook; the previous one was moved into the
        // filtering closure and is dropped with it.
        let _ = panic::take_hook();
    }
}

/// FNV-1a over bytes: stable, dependency-free spec-code hashing.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RunnerConfig {
        RunnerConfig {
            retries: 1,
            deadline: Duration::from_millis(500),
            backoff_base: Duration::from_millis(1),
            breaker_threshold: 2,
            breaker_cooldown: 0,
            seed: 7,
            profile: FaultProfile::None,
            intensity: 1.0,
            quiet_panics: true,
        }
    }

    fn ok_spec(code: &str) -> ExperimentSpec {
        ExperimentSpec::new(code, format!("title {code}"), "family-a", |_plan, _tel| {
            Ok(JobOutput {
                rendered: "fine".to_owned(),
                faults_injected: 0,
            })
        })
    }

    #[test]
    fn success_first_try_is_ok() {
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[ok_spec("e1")]);
        assert_eq!(run.report.experiments[0].status, ExperimentStatus::Ok);
        assert_eq!(run.report.experiments[0].attempts, 1);
        assert_eq!(run.outputs["e1"], "fine");
        assert_eq!(run.report.exit_code(), 0);
    }

    #[test]
    fn a_sub_millisecond_attempt_records_a_nonzero_duration() {
        // `ok_spec` returns at once, so its attempt takes well under a
        // millisecond; the histogram must still see it as time spent.
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[ok_spec("e1")]);
        let attempt = &run.telemetry.metrics.histograms["runner.attempt_ns"];
        assert_eq!(attempt.count, 1);
        assert!(attempt.sum > 0, "sub-ms attempt recorded as zero");
    }

    #[test]
    fn faults_on_success_mean_degraded() {
        let spec = ExperimentSpec::new("e1", "t", "f", |_plan, _tel| {
            Ok(JobOutput {
                rendered: String::new(),
                faults_injected: 3,
            })
        });
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[spec]);
        assert_eq!(run.report.experiments[0].status, ExperimentStatus::Degraded);
        assert_eq!(run.report.experiments[0].faults_injected, 3);
    }

    #[test]
    fn panic_is_contained_and_reported() {
        let spec = ExperimentSpec::new(
            "boom",
            "t",
            "f",
            |_plan, _tel| -> Result<JobOutput, JobError> {
                panic!("simulated crash");
            },
        );
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[spec, ok_spec("after")]);
        let boom = &run.report.experiments[0];
        assert_eq!(boom.status, ExperimentStatus::Failed);
        assert_eq!(boom.attempts, 2, "retried once before giving up");
        assert!(boom.message.contains("simulated crash"), "{}", boom.message);
        // The run continues past the panic.
        assert_eq!(run.report.experiments[1].status, ExperimentStatus::Ok);
        assert_eq!(run.report.exit_code(), 1);
    }

    #[test]
    fn deadline_overrun_times_out() {
        let mut config = quick_config();
        config.deadline = Duration::from_millis(30);
        config.retries = 0;
        let spec = ExperimentSpec::new("slow", "t", "f", |_plan, _tel| {
            thread::sleep(Duration::from_secs(5));
            Ok(JobOutput {
                rendered: String::new(),
                faults_injected: 0,
            })
        });
        let started = Instant::now();
        let mut sup = Supervisor::builder().config(config).build();
        let run = sup.run(&[spec]);
        assert_eq!(run.report.experiments[0].status, ExperimentStatus::TimedOut);
        assert!(started.elapsed() < Duration::from_secs(4), "watchdog fired");
        assert_eq!(run.report.exit_code(), 2);
    }

    #[test]
    fn a_timed_out_attempts_late_result_never_settles_its_retry() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let mut config = quick_config();
        config.deadline = Duration::from_millis(50);
        config.retries = 1;
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_job = Arc::clone(&calls);
        let spec = ExperimentSpec::new("slow", "t", "f", move |_plan, _tel| {
            let rendered = if calls_in_job.fetch_add(1, Ordering::SeqCst) == 0 {
                thread::sleep(Duration::from_millis(300));
                "late"
            } else {
                "on time"
            };
            Ok(JobOutput {
                rendered: rendered.to_owned(),
                faults_injected: 0,
            })
        });
        let mut sup = Supervisor::builder().config(config).build();
        let run = sup.run(&[spec]);
        let row = &run.report.experiments[0];
        assert_eq!(row.status, ExperimentStatus::Retried);
        assert_eq!(row.attempts, 2);
        assert_eq!(run.outputs["slow"], "on time");
        let count = |kind: &str| {
            run.telemetry
                .events
                .iter()
                .filter(|e| e.kind == kind)
                .count()
        };
        assert_eq!(count("timeout"), 1);
        assert_eq!(count("experiment-end"), 1);
        let attempt_spans = |snap: &TelemetrySnapshot| {
            snap.spans
                .iter()
                .find(|s| s.name == "runner.attempt")
                .unwrap()
                .count
        };
        assert_eq!(
            attempt_spans(&run.telemetry),
            1,
            "only the retry reported back"
        );

        // Once the abandoned attempt has finished on its pooled thread,
        // nothing of it reaches a later run.
        thread::sleep(Duration::from_millis(400));
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[ok_spec("next")]);
        assert_eq!(run.outputs.len(), 1);
        assert_eq!(run.outputs["next"], "fine");
        assert!(run.telemetry.events.iter().all(|e| e.experiment != "slow"));
        assert_eq!(attempt_spans(&run.telemetry), 1);
    }

    #[test]
    fn flaky_job_succeeds_as_retried() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let calls = Arc::new(AtomicU32::new(0));
        let calls_in_job = Arc::clone(&calls);
        let spec = ExperimentSpec::new("flaky", "t", "f", move |_plan, _tel| {
            if calls_in_job.fetch_add(1, Ordering::SeqCst) == 0 {
                Err("transient".into())
            } else {
                Ok(JobOutput {
                    rendered: "recovered".to_owned(),
                    faults_injected: 0,
                })
            }
        });
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&[spec]);
        let row = &run.report.experiments[0];
        assert_eq!(row.status, ExperimentStatus::Retried);
        assert_eq!(row.attempts, 2);
        assert_eq!(run.outputs["flaky"], "recovered");
    }

    #[test]
    fn breaker_short_circuits_a_failing_family() {
        let fail = |code: &str| {
            ExperimentSpec::new(
                code,
                "t",
                "sick",
                |_plan, _tel| -> Result<JobOutput, JobError> { Err("always broken".into()) },
            )
        };
        let mut config = quick_config();
        config.retries = 0;
        let mut sup = Supervisor::builder().config(config).build();
        let run = sup.run(&[fail("a"), fail("b"), fail("c"), ok_spec("other")]);
        let rows = &run.report.experiments;
        assert_eq!(rows[0].attempts, 1);
        assert_eq!(rows[1].attempts, 1);
        // Third experiment never executes: breaker opened at threshold 2.
        assert_eq!(rows[2].attempts, 0);
        assert!(
            rows[2].message.contains("circuit breaker open"),
            "{}",
            rows[2].message
        );
        // Other families are unaffected.
        assert_eq!(rows[3].status, ExperimentStatus::Ok);
    }

    #[test]
    fn error_chains_render_fully() {
        #[derive(Debug)]
        struct Outer(std::io::Error);
        impl std::fmt::Display for Outer {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, "stage failed")
            }
        }
        impl std::error::Error for Outer {
            fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
                Some(&self.0)
            }
        }
        let err = Outer(std::io::Error::other("root cause"));
        let rendered = render_chain(&err);
        assert_eq!(rendered, "stage failed: root cause");
    }

    #[test]
    fn telemetry_flows_from_workers_into_the_run_snapshot() {
        let specs = vec![
            ExperimentSpec::new("good", "t", "fam-a", |_plan, tel: &Telemetry| {
                tel.counter("job.work", 5);
                tel.event(Event::new("milestone", "halfway"));
                Ok(JobOutput {
                    rendered: String::new(),
                    faults_injected: 0,
                })
            }),
            ExperimentSpec::new("bad", "t", "fam-b", |_plan, tel: &Telemetry| {
                tel.event(Event::new("milestone", "about to fail"));
                Err::<JobOutput, JobError>("broken".into())
            }),
        ];
        let mut sup = Supervisor::builder().config(quick_config()).build();
        let run = sup.run(&specs);
        let snap = &run.telemetry;
        // Worker counters and events arrive scoped to their experiment.
        assert_eq!(snap.metrics.counters["job.work"], 5);
        let milestone = snap.events.iter().find(|e| e.detail == "halfway").unwrap();
        assert_eq!(milestone.experiment, "good");
        // A failing worker still ships its telemetry, plus runner events.
        assert!(snap.events.iter().any(|e| e.detail == "about to fail"));
        assert!(snap
            .events
            .iter()
            .any(|e| e.kind == "retry" && e.experiment == "bad"));
        assert!(snap.events.iter().any(|e| e.kind == "attempt-error"));
        assert_eq!(snap.events.first().unwrap().kind, "run-start");
        assert_eq!(snap.events.last().unwrap().kind, "run-end");
        // Sequence numbers are dense and ordered.
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..snap.events.len() as u64).collect::<Vec<_>>());
        // Report-derived metrics landed in the same snapshot.
        assert_eq!(snap.metrics.counters["runner.experiments"], 2);
        // Worker attempt spans were merged (1 success + 2 failed attempts).
        let attempt_span = snap
            .spans
            .iter()
            .find(|s| s.name == "runner.attempt")
            .unwrap();
        assert_eq!(attempt_span.count, 3);
    }

    #[test]
    fn breaker_trip_and_skip_are_journaled() {
        let fail = |code: &str| {
            ExperimentSpec::new(
                code,
                "t",
                "sick",
                |_plan, _tel| -> Result<JobOutput, JobError> { Err("always broken".into()) },
            )
        };
        let mut config = quick_config();
        config.retries = 0;
        let mut sup = Supervisor::builder().config(config).build();
        let run = sup.run(&[fail("a"), fail("b"), fail("c")]);
        let events = &run.telemetry.events;
        assert!(events
            .iter()
            .any(|e| e.kind == "breaker-open" && e.experiment == "b"));
        assert!(events
            .iter()
            .any(|e| e.kind == "breaker-skip" && e.experiment == "c"));
        assert_eq!(run.telemetry.metrics.counters["runner.breaker_skips"], 1);
    }

    #[test]
    fn reports_are_deterministic_across_runs() {
        let specs = || {
            vec![
                ExperimentSpec::new(
                    "d1",
                    "det one",
                    "fam",
                    |plan: &FaultPlan, _tel: &Telemetry| {
                        let faults = (0..50)
                            .filter(|&s| {
                                plan.draw(s, crate::fault::FaultKind::LinkOutage).is_some()
                            })
                            .count() as u64;
                        Ok(JobOutput {
                            rendered: format!("faults={faults}"),
                            faults_injected: faults,
                        })
                    },
                ),
                ok_spec("d2"),
            ]
        };
        let mut config = quick_config();
        config.profile = FaultProfile::Chaos;
        let run_a = Supervisor::builder().config(config).build().run(&specs());
        let run_b = Supervisor::builder().config(config).build().run(&specs());
        assert_eq!(run_a.report.canonical(), run_b.report.canonical());
        assert_eq!(run_a.outputs, run_b.outputs);
    }
}
