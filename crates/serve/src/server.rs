//! The serve daemon: accept loop, admission control, warm-pool execution.
//!
//! Request flow:
//!
//! ```text
//! accept ──▶ bounded conn queue ──▶ handler threads (fixed pool)
//!                 │ full: shed                │
//!                 ▼                           ▼ cache hit: write the
//!            overloaded                       │ entry's pre-encoded line,
//!                                             │ zero runner attempts
//!                               bounded work queue (depth = queue_depth)
//!                                 │ full: shed (`overloaded`)
//!                                 ▼
//!                     worker threads (count = concurrency)
//!                     ──▶ Supervisor on the process-wide warm pool
//!                     ──▶ canonicalized RunArtifact ──▶ cache insert
//! ```
//!
//! Admission control is two `mpsc::sync_channel`s: `try_send` either
//! enqueues or fails *immediately*, so overload produces an explicit
//! `overloaded` response (counted as `serve.shed`) instead of an
//! unbounded queue or a hung client. The handler and worker pools are
//! fixed at startup — a request never spawns a process or thread; misses
//! run on the same pooled scheduler runtime (warm executor sessions) the
//! batch CLI uses.
//!
//! Shutdown — a `shutdown` request or SIGTERM ([`install_signal_handlers`])
//! — stops the accept loop, lets the workers drain every queued run (each
//! still gets its response), joins both pools, and flushes the cache
//! index.

use crate::cache::{cache_key, CacheEntry, RehydrateStats, ResultCache};
use crate::protocol::{
    Request, Response, CMD_RUN, CMD_SHUTDOWN, CMD_STATS, STATUS_ERROR, STATUS_MISS,
};
use humnet_resilience::{code_rev, ExperimentSpec, FaultProfile, RunArtifact, RunnerConfig, Supervisor};
use humnet_telemetry::{SharedTelemetry, TelemetrySnapshot};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Maps an experiment code to its runnable spec, or `None` for codes the
/// registry does not know — the daemon's request validation. The binary
/// passes the `ExperimentId` registry; tests pass toy specs.
pub type SpecFactory = Arc<dyn Fn(&str) -> Option<ExperimentSpec> + Send + Sync + 'static>;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`host:port`; port 0 picks a free port — read it
    /// back from [`Server::local_addr`]).
    pub addr: String,
    /// Result-cache directory (created if missing, rehydrated if not).
    pub cache_dir: PathBuf,
    /// Pending-run queue depth; a run request arriving with the queue
    /// full is shed with an `overloaded` response.
    pub queue_depth: usize,
    /// Result-cache size bound: at most this many entries are kept,
    /// evicting least-recently-used on insert (`0` = unbounded).
    /// Evictions are counted in `serve.evicted`.
    pub cache_max_entries: usize,
    /// Result-cache age bound: entries whose file mtime is older than
    /// this are evicted at rehydrate and by a periodic sweep (`0` =
    /// disabled). The LRU bound is size-only, so without an age-out
    /// artifacts from dead code revisions pin the cache forever. Sweep
    /// evictions are counted in `serve.evicted_stale`.
    pub cache_max_age: Duration,
    /// Worker threads executing misses (clamped to at least 1).
    pub concurrency: usize,
    /// Connection-handler threads (`0` = auto: `concurrency +
    /// queue_depth + 2`, floored at 16). A persistent pipelined client
    /// occupies one handler for its connection's lifetime, so this must
    /// cover the expected number of concurrent long-lived connections
    /// (e.g. capacity-ramp workers) or the surplus connections starve.
    pub handlers: usize,
    /// Base runner configuration; per-request fields (seed, profile,
    /// intensity, retries, deadline) override their counterparts.
    pub runner: RunnerConfig,
    /// Testing knob: hold each miss this long before executing, so tests
    /// and CI can fill the queue deterministically (`--hold-ms`).
    pub hold: Duration,
    /// Per-connection idle timeout; a silent client is disconnected.
    pub idle: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_owned(),
            cache_dir: std::env::temp_dir().join("humnet-serve-cache"),
            queue_depth: 32,
            cache_max_entries: 0,
            cache_max_age: Duration::ZERO,
            concurrency: 2,
            handlers: 0,
            runner: RunnerConfig::default(),
            hold: Duration::ZERO,
            idle: Duration::from_secs(30),
        }
    }
}

/// What [`Server::run`] hands back after a graceful shutdown.
#[derive(Debug)]
pub struct ServeSummary {
    /// The address the daemon served on.
    pub addr: SocketAddr,
    /// Final daemon telemetry (request/hit/miss/shed counters, latency
    /// histograms, absorbed runner metrics).
    pub stats: TelemetrySnapshot,
    /// Cache entries indexed at shutdown.
    pub cache_entries: usize,
    /// What the startup rehydration scan found.
    pub rehydrated: RehydrateStats,
}

/// Everything the handler and worker threads share.
struct Ctx {
    config: ServeConfig,
    factory: SpecFactory,
    cache: ResultCache,
    tel: SharedTelemetry,
    stop: Arc<AtomicBool>,
}

/// One admitted run request, resolved against the daemon defaults.
struct RunRequest {
    experiment: String,
    seed: u64,
    profile: FaultProfile,
    intensity: f64,
    retries: u32,
    deadline: Duration,
    key: String,
}

struct WorkItem {
    run: RunRequest,
    resp: mpsc::Sender<Reply>,
}

/// What the connection loop writes back for one request.
enum Reply {
    /// A cache hit: the entry's `hit` line as the cache encoded it,
    /// newline included, shared rather than re-serialized.
    Hit(Arc<[u8]>),
    /// Every other answer, serialized on the way out.
    Fresh(Response),
}

/// The serve daemon. [`Server::bind`] binds the listener and rehydrates
/// the cache; [`Server::run`] blocks until shutdown.
pub struct Server {
    ctx: Arc<Ctx>,
    listener: TcpListener,
    addr: SocketAddr,
    rehydrated: RehydrateStats,
}

impl Server {
    /// Bind the listener, open (and rehydrate) the cache. Nothing is
    /// served until [`Server::run`].
    pub fn bind(config: ServeConfig, factory: SpecFactory) -> io::Result<Server> {
        let (cache, rehydrated) = ResultCache::open_with(
            &config.cache_dir,
            config.cache_max_entries,
            config.cache_max_age,
        )?;
        let listener = TcpListener::bind(config.addr.as_str())?;
        let addr = listener.local_addr()?;
        let tel = SharedTelemetry::new();
        tel.gauge("serve.cache_entries", cache.len() as f64);
        if rehydrated.stale > 0 {
            tel.counter("serve.evicted_stale", rehydrated.stale as u64);
        }
        Ok(Server {
            ctx: Arc::new(Ctx {
                config,
                factory,
                cache,
                tel,
                stop: Arc::new(AtomicBool::new(false)),
            }),
            listener,
            addr,
            rehydrated,
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// What the startup cache scan found.
    pub fn rehydrated(&self) -> RehydrateStats {
        self.rehydrated
    }

    /// A flag that stops the daemon when set (what a `shutdown` request
    /// sets internally; embedders and tests can hold one too).
    pub fn shutdown_handle(&self) -> Arc<AtomicBool> {
        self.ctx.stop.clone()
    }

    /// Serve until a `shutdown` request, SIGTERM, or the shutdown handle
    /// fires; then drain queued runs, join the pools, flush the cache
    /// index, and report.
    pub fn run(self) -> io::Result<ServeSummary> {
        let ctx = self.ctx;
        let concurrency = ctx.config.concurrency.max(1);
        let (work_tx, work_rx) = mpsc::sync_channel::<WorkItem>(ctx.config.queue_depth);
        let work_rx = Arc::new(Mutex::new(work_rx));
        let workers: Vec<_> = (0..concurrency)
            .map(|i| {
                let rx = Arc::clone(&work_rx);
                let ctx = Arc::clone(&ctx);
                thread::Builder::new()
                    .name(format!("humnet-serve-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &ctx))
                    .expect("spawn serve worker")
            })
            .collect();

        // Enough handlers that every admissible run (in-flight + queued)
        // can have a waiting connection, plus slack so the connection
        // that *should* be shed gets a handler to shed it on. The floor
        // covers persistent pipelined clients, each of which parks on a
        // handler for its connection's lifetime.
        let handler_count = match ctx.config.handlers {
            0 => (concurrency + ctx.config.queue_depth + 2).max(16),
            n => n,
        };
        let (conn_tx, conn_rx) = mpsc::sync_channel::<TcpStream>(handler_count * 2);
        let conn_rx = Arc::new(Mutex::new(conn_rx));
        let handlers: Vec<_> = (0..handler_count)
            .map(|i| {
                let rx = Arc::clone(&conn_rx);
                let ctx = Arc::clone(&ctx);
                let wtx = work_tx.clone();
                thread::Builder::new()
                    .name(format!("humnet-serve-conn-{i}"))
                    .spawn(move || handler_loop(&rx, &ctx, &wtx))
                    .expect("spawn serve handler")
            })
            .collect();
        // Handlers hold the only remaining work senders: when they exit,
        // the workers see the queue disconnect (after draining) and stop.
        drop(work_tx);

        // The listener blocks in accept so fresh connections cost
        // microseconds, not a poll tick. A watchdog thread owns the only
        // polling: it watches the stop flag and SIGTERM, and wakes the
        // blocked accept with a throwaway local connection when either
        // fires — shutdown pays the poll latency; requests never do. The
        // same thread hosts the cache age-out sweep so stale entries die
        // even on an idle daemon (insert-time eviction alone only runs
        // when misses arrive).
        let watchdog = {
            let ctx = Arc::clone(&ctx);
            let addr = self.addr;
            // Half the age bound keeps the worst-case overstay of a stale
            // entry at ~1.5x the configured age without sweeping the
            // directory on every tick.
            let sweep_every = sweep_interval(ctx.config.cache_max_age);
            thread::Builder::new()
                .name("humnet-serve-watchdog".to_owned())
                .spawn(move || {
                    let mut last_sweep = Instant::now();
                    loop {
                        if sigterm_received() {
                            ctx.stop.store(true, Ordering::SeqCst);
                        }
                        if ctx.stop.load(Ordering::SeqCst) {
                            let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                            return;
                        }
                        if let Some(every) = sweep_every {
                            if last_sweep.elapsed() >= every {
                                last_sweep = Instant::now();
                                let evicted = ctx.cache.sweep_stale();
                                if evicted > 0 {
                                    ctx.tel.counter("serve.evicted_stale", evicted as u64);
                                    ctx.tel.gauge("serve.cache_entries", ctx.cache.len() as f64);
                                }
                            }
                        }
                        thread::sleep(Duration::from_millis(25));
                    }
                })
                .expect("spawn serve watchdog")
        };

        let mut accept_err = None;
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if ctx.stop.load(Ordering::SeqCst) {
                        break; // the watchdog's wake-up connection
                    }
                    ctx.tel.counter("serve.connections", 1);
                    match conn_tx.try_send(stream) {
                        Ok(()) => {}
                        Err(TrySendError::Full(stream)) => {
                            // Connection-level shed: every handler is busy
                            // and the hand-off buffer is full. Tell the
                            // client why instead of queueing invisibly.
                            ctx.tel.counter("serve.shed", 1);
                            shed_connection(stream);
                        }
                        Err(TrySendError::Disconnected(_)) => break,
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => {
                    accept_err = Some(e);
                    break;
                }
            }
        }
        ctx.stop.store(true, Ordering::SeqCst);
        let _ = watchdog.join();

        drop(conn_tx);
        for h in handlers {
            let _ = h.join();
        }
        for w in workers {
            let _ = w.join();
        }
        ctx.cache.flush_index()?;
        if let Some(e) = accept_err {
            return Err(e);
        }
        Ok(ServeSummary {
            addr: self.addr,
            stats: ctx.tel.snapshot(),
            cache_entries: ctx.cache.len(),
            rehydrated: self.rehydrated,
        })
    }
}

/// How often the watchdog sweeps for stale cache entries: half the age
/// bound, clamped to [250ms, 30s]; `None` when age-out is disabled.
fn sweep_interval(max_age: Duration) -> Option<Duration> {
    if max_age.is_zero() {
        return None;
    }
    Some((max_age / 2).clamp(Duration::from_millis(250), Duration::from_secs(30)))
}

// ------------------------------------------------------------- signals --

static SIGTERM_FLAG: AtomicBool = AtomicBool::new(false);

/// Whether a SIGTERM has arrived since [`install_signal_handlers`].
pub fn sigterm_received() -> bool {
    SIGTERM_FLAG.load(Ordering::SeqCst)
}

/// Route SIGTERM into a graceful daemon shutdown. The handler only flips
/// an atomic flag (async-signal-safe); the accept loop notices on its
/// next poll tick and drains normally.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_sigterm(_signum: i32) {
        SIGTERM_FLAG.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM: i32 = 15;
    #[allow(unsafe_code)]
    unsafe {
        signal(SIGTERM, on_sigterm as extern "C" fn(i32) as usize);
    }
}

/// No-op off unix: only the `shutdown` request stops the daemon.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

// ----------------------------------------------------------- handlers --

fn handler_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx, work_tx: &SyncSender<WorkItem>) {
    loop {
        let stream = rx.lock().expect("conn queue lock").recv();
        let Ok(stream) = stream else { break };
        let _ = serve_connection(stream, ctx, work_tx);
    }
}

/// Process one connection's requests sequentially until the peer closes,
/// goes idle past the budget, or the daemon begins draining.
fn serve_connection(
    mut stream: TcpStream,
    ctx: &Ctx,
    work_tx: &SyncSender<WorkItem>,
) -> io::Result<()> {
    // Accepted sockets do not reliably inherit the listener's
    // non-blocking mode; pin down blocking + a short read timeout so the
    // loop can poll the shutdown flag between reads. Nagle must be off:
    // on a persistent pipelined connection the kernel would otherwise
    // hold each response line for the peer's delayed ACK (~40 ms per
    // request instead of microseconds).
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut framer = crate::protocol::LineBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        while let Some(line) = framer.next_line() {
            last_activity = Instant::now();
            let (reply, close) = handle_line(ctx, work_tx, &line);
            write_reply(&mut stream, &reply)?;
            if close {
                return Ok(());
            }
        }
        if ctx.stop.load(Ordering::SeqCst) && framer.is_empty() {
            return Ok(()); // draining: drop idle connections
        }
        if last_activity.elapsed() >= ctx.config.idle {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                framer.push(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock
                    || e.kind() == io::ErrorKind::TimedOut
                    || e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Dispatch one request line. Returns the reply and whether the
/// connection should close afterwards.
fn handle_line(ctx: &Ctx, work_tx: &SyncSender<WorkItem>, line: &str) -> (Reply, bool) {
    ctx.tel.counter("serve.requests", 1);
    let req = match Request::from_line(line) {
        Ok(req) => req,
        Err(e) => {
            ctx.tel.counter("serve.error", 1);
            return (Reply::Fresh(Response::error(&format!("bad request: {e}"))), false);
        }
    };
    match req.cmd.as_str() {
        CMD_RUN => (handle_run(ctx, work_tx, &req), false),
        CMD_STATS => {
            let resp = match ctx.tel.snapshot().to_json() {
                Ok(json) => Response::stats(json),
                Err(e) => Response::error(&format!("stats serialization: {e}")),
            };
            (Reply::Fresh(resp), false)
        }
        CMD_SHUTDOWN => {
            ctx.stop.store(true, Ordering::SeqCst);
            (Reply::Fresh(Response::ok("draining; daemon will exit")), true)
        }
        other => {
            ctx.tel.counter("serve.error", 1);
            let msg = format!("unknown cmd '{other}' (run|stats|shutdown)");
            (Reply::Fresh(Response::error(&msg)), false)
        }
    }
}

/// The run path: resolve, consult the index, admit or shed.
fn handle_run(ctx: &Ctx, work_tx: &SyncSender<WorkItem>, req: &Request) -> Reply {
    let t0 = Instant::now();
    let run = match resolve(ctx, req) {
        Ok(run) => run,
        Err(msg) => {
            ctx.tel.counter("serve.error", 1);
            return Reply::Fresh(Response::error(&msg));
        }
    };
    // Fast path: hits are answered straight from the in-memory index —
    // no queue, no worker, no runner, no serialization.
    if let Some(line) = ctx.cache.hit_line(&run.key) {
        ctx.tel.counter("serve.cache_hit", 1);
        ctx.tel.observe("serve.hit_ns", t0.elapsed().as_nanos() as u64);
        return Reply::Hit(line);
    }
    let (resp_tx, resp_rx) = mpsc::channel();
    let resp = match work_tx.try_send(WorkItem { run, resp: resp_tx }) {
        Err(TrySendError::Full(_)) => {
            ctx.tel.counter("serve.shed", 1);
            Response::overloaded("pending queue full; retry later")
        }
        Err(TrySendError::Disconnected(_)) => Response::error("daemon is shutting down"),
        // A queued duplicate of an in-flight tuple lands as a hit when the
        // worker re-checks the index.
        Ok(()) => match resp_rx.recv() {
            Ok(Reply::Hit(line)) => {
                ctx.tel.counter("serve.cache_hit", 1);
                ctx.tel.observe("serve.hit_ns", t0.elapsed().as_nanos() as u64);
                return Reply::Hit(line);
            }
            Ok(Reply::Fresh(resp)) => {
                match resp.status.as_str() {
                    STATUS_MISS => {
                        ctx.tel.counter("serve.cache_miss", 1);
                        ctx.tel.observe("serve.miss_ns", t0.elapsed().as_nanos() as u64);
                    }
                    STATUS_ERROR => ctx.tel.counter("serve.error", 1),
                    _ => {}
                }
                resp
            }
            Err(_) => {
                ctx.tel.counter("serve.error", 1);
                Response::error("worker dropped the request")
            }
        },
    };
    Reply::Fresh(resp)
}

/// Resolve a run request against the daemon defaults, validating the
/// experiment against the registry and computing its content address.
fn resolve(ctx: &Ctx, req: &Request) -> Result<RunRequest, String> {
    let defaults = &ctx.config.runner;
    let experiment = req
        .experiment
        .clone()
        .ok_or("run request needs an \"experiment\" field")?;
    if (ctx.factory)(&experiment).is_none() {
        return Err(format!("unknown experiment '{experiment}'"));
    }
    let profile = match &req.profile {
        None => defaults.profile,
        Some(label) => FaultProfile::parse(label)
            .ok_or_else(|| format!("unknown fault profile '{label}' (none|churn|outage|chaos)"))?,
    };
    let intensity = req.intensity.unwrap_or(defaults.intensity);
    if !intensity.is_finite() || intensity < 0.0 {
        return Err(format!("intensity must be a nonnegative number, got {intensity}"));
    }
    let seed = req.seed.unwrap_or(defaults.seed);
    let retries = req.retries.unwrap_or(defaults.retries);
    let deadline = match req.deadline_ms {
        None => defaults.deadline,
        Some(0) => return Err("deadline_ms must be positive".to_owned()),
        Some(ms) => Duration::from_millis(ms),
    };
    let key = cache_key(&experiment, seed, profile.label(), intensity, retries, &code_rev());
    Ok(RunRequest {
        experiment,
        seed,
        profile,
        intensity,
        retries,
        deadline,
        key,
    })
}

/// Write one reply, newline included, with a single `write_all`: on a
/// `TCP_NODELAY` socket a separate newline write would cost a second
/// segment per answer.
fn write_reply(stream: &mut TcpStream, reply: &Reply) -> io::Result<()> {
    match reply {
        Reply::Hit(line) => stream.write_all(line)?,
        Reply::Fresh(resp) => {
            let mut line = resp.to_line().unwrap_or_else(|e| {
                format!("{{\"status\": \"error\", \"message\": \"response serialization: {e}\"}}")
            });
            line.push('\n');
            stream.write_all(line.as_bytes())?;
        }
    }
    stream.flush()
}

/// Best-effort `overloaded` notice on a connection shed before any
/// request was read (handler pool exhausted).
fn shed_connection(mut stream: TcpStream) {
    let _ = stream.set_write_timeout(Some(Duration::from_millis(250)));
    let _ = write_reply(&mut stream, &Reply::Fresh(Response::overloaded("all handlers busy")));
}

// ------------------------------------------------------------ workers --

fn worker_loop(rx: &Mutex<Receiver<WorkItem>>, ctx: &Ctx) {
    loop {
        // Holding the lock across `recv` is fine: it is released the
        // moment an item arrives, so at most one idle worker waits while
        // the rest execute.
        let item = rx.lock().expect("work queue lock").recv();
        let Ok(item) = item else { break };
        // A duplicate that queued behind its twin becomes a hit here
        // instead of recomputing.
        let reply = match ctx.cache.hit_line(&item.run.key) {
            Some(line) => Reply::Hit(line),
            None => Reply::Fresh(execute(ctx, &item.run)),
        };
        // A handler that gave up (connection died) just drops the
        // receiver; the computed result is still cached.
        let _ = item.resp.send(reply);
    }
}

/// Execute one admitted miss on the warm pool and cache the artifact.
fn execute(ctx: &Ctx, run: &RunRequest) -> Response {
    if !ctx.config.hold.is_zero() {
        thread::sleep(ctx.config.hold);
    }
    let Some(spec) = (ctx.factory)(&run.experiment) else {
        return Response::error(&format!("unknown experiment '{}'", run.experiment));
    };
    let mut config = ctx.config.runner;
    config.seed = run.seed;
    config.profile = run.profile;
    config.intensity = run.intensity;
    config.retries = run.retries;
    config.deadline = run.deadline;
    // The quiet-panics hook is process-global state; concurrent workers
    // installing/restoring it would race. Panics are still caught and
    // reported as failed rows — just with their backtraces on stderr.
    config.quiet_panics = false;
    let result = Supervisor::builder().config(config).build().run(&[spec]);

    let artifact = RunArtifact {
        report: result.report,
        outputs: result.outputs,
    }
    .canonicalized();
    let artifact_json = match artifact.to_json() {
        Ok(json) => json,
        Err(e) => return Response::error(&format!("artifact serialization: {e}")),
    };
    let metrics_json = match result.telemetry.to_json() {
        Ok(json) => json,
        Err(e) => return Response::error(&format!("metrics serialization: {e}")),
    };
    // Fold the run's metrics (not its journal — a daemon's event log
    // must not grow with every request) into the daemon totals, so
    // `stats` exposes runner.attempts and friends.
    let mut run_metrics = result.telemetry;
    run_metrics.events.clear();
    ctx.tel.absorb(run_metrics, "");

    let rev = code_rev();
    let entry = CacheEntry {
        key: run.key.clone(),
        experiment: run.experiment.clone(),
        seed: run.seed,
        profile: run.profile.label().to_owned(),
        intensity: run.intensity,
        retries: run.retries,
        code_rev: rev.clone(),
        checksum: CacheEntry::checksum_of(&artifact_json, &metrics_json),
        artifact: artifact_json.clone(),
        metrics: metrics_json.clone(),
    };
    match ctx.cache.insert(entry) {
        Ok(evicted) if evicted > 0 => ctx.tel.counter("serve.evicted", evicted as u64),
        Ok(_) => {}
        Err(e) => {
            // The result is still good; only persistence failed. Serve it
            // and say so — the next identical request recomputes.
            eprintln!("serve: cache insert for {} failed: {e}", run.key);
        }
    }
    ctx.tel.gauge("serve.cache_entries", ctx.cache.len() as f64);
    Response::artifact(STATUS_MISS, &run.key, &rev, artifact_json, metrics_json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::STATUS_HIT;
    use humnet_resilience::JobOutput;
    use std::fs;
    use std::path::Path;

    const TIMEOUT: Duration = Duration::from_secs(60);

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("humnet-serve-test-{}-{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// Registry stand-in: any code starting with `exp` runs a tiny
    /// deterministic job; everything else is unknown.
    fn toy_factory() -> SpecFactory {
        Arc::new(|code: &str| {
            if !code.starts_with("exp") {
                return None;
            }
            let code = code.to_owned();
            let title = format!("toy {code}");
            Some(ExperimentSpec::new(code.clone(), title, "toy", move |_plan, tel| {
                tel.counter("toy.runs", 1);
                Ok(JobOutput {
                    rendered: format!("toy output for {code}\n"),
                    faults_injected: 0,
                })
            }))
        })
    }

    fn config(cache_dir: &Path) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.addr = "127.0.0.1:0".to_owned();
        cfg.cache_dir = cache_dir.to_path_buf();
        cfg
    }

    fn start(cfg: ServeConfig) -> (String, thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(cfg, toy_factory()).expect("bind");
        let addr = server.local_addr().to_string();
        let handle = thread::spawn(move || server.run().expect("serve run"));
        (addr, handle)
    }

    fn connect(addr: &str) -> ServeClient {
        ServeClient::connect(addr, TIMEOUT).expect("connect")
    }

    fn counters(addr: &str) -> std::collections::BTreeMap<String, u64> {
        let resp = connect(addr).stats().expect("stats query");
        assert_eq!(resp.status, crate::protocol::STATUS_STATS, "{resp:?}");
        let snap = TelemetrySnapshot::from_json(resp.stats.as_deref().unwrap()).expect("stats json");
        snap.metrics.counters.into_iter().collect()
    }

    fn shutdown(addr: &str, handle: thread::JoinHandle<ServeSummary>) -> ServeSummary {
        let resp = connect(addr).shutdown().expect("shutdown query");
        assert_eq!(resp.status, crate::protocol::STATUS_OK, "{resp:?}");
        handle.join().expect("daemon thread")
    }

    #[test]
    fn miss_then_hit_is_byte_identical_with_zero_new_runner_attempts() {
        let dir = scratch("hit");
        let (addr, handle) = start(config(&dir));

        // One persistent connection serves both the miss and the hit.
        let mut client = connect(&addr);
        let req = Request::run("exp1", 7, "chaos", 1.0);
        let miss = client.request(&req).unwrap();
        assert_eq!(miss.status, STATUS_MISS, "{miss:?}");
        let attempts_after_miss = counters(&addr)["runner.attempts"];
        assert!(attempts_after_miss >= 1);

        let hit = client.request(&req).unwrap();
        assert_eq!(hit.status, STATUS_HIT, "{hit:?}");
        assert_eq!(hit.key, miss.key);
        assert_eq!(hit.code_rev, miss.code_rev);
        assert_eq!(hit.artifact, miss.artifact, "hit artifact must be byte-identical");
        assert_eq!(hit.metrics, miss.metrics, "hit metrics must be byte-identical");

        // The hit performed zero runner attempts: the absorbed runner
        // counters did not move.
        let after_hit = counters(&addr);
        assert_eq!(after_hit["runner.attempts"], attempts_after_miss);
        assert_eq!(after_hit["serve.cache_hit"], 1);
        assert_eq!(after_hit["serve.cache_miss"], 1);
        assert!(!after_hit.contains_key("serve.shed"));

        // And the artifact matches what a direct supervisor run of the
        // same tuple produces (the daemon adds nothing of its own).
        let mut rc = RunnerConfig::default();
        rc.seed = 7;
        rc.profile = FaultProfile::parse("chaos").unwrap();
        rc.intensity = 1.0;
        rc.quiet_panics = false;
        let spec = toy_factory()("exp1").unwrap();
        let direct = Supervisor::builder().config(rc).build().run(&[spec]);
        let expected = RunArtifact {
            report: direct.report,
            outputs: direct.outputs,
        }
        .canonicalized()
        .to_json()
        .unwrap();
        assert_eq!(miss.artifact.as_deref(), Some(expected.as_str()));

        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tuple_changes_are_misses_and_bad_requests_are_errors() {
        let dir = scratch("tuple");
        let (addr, handle) = start(config(&dir));

        let mut client = connect(&addr);
        for req in [
            Request::run("exp1", 1, "none", 1.0),
            Request::run("exp1", 2, "none", 1.0),   // seed changed
            Request::run("exp1", 1, "churn", 1.0),  // profile changed
            Request::run("exp1", 1, "none", 2.0),   // intensity changed
            Request::run("exp2", 1, "none", 1.0),   // experiment changed
        ] {
            let resp = client.request(&req).unwrap();
            assert_eq!(resp.status, STATUS_MISS, "{req:?} -> {resp:?}");
        }
        let mut retried = Request::run("exp1", 1, "none", 1.0);
        retried.retries = Some(4); // retries changed
        assert_eq!(client.request(&retried).unwrap().status, STATUS_MISS);
        // ...but deadline is wall-clock only: same tuple, different
        // deadline is still a hit.
        let mut deadlined = Request::run("exp1", 1, "none", 1.0);
        deadlined.deadline_ms = Some(120_000);
        assert_eq!(client.request(&deadlined).unwrap().status, STATUS_HIT);

        let unknown = client.request(&Request::run("nope", 1, "none", 1.0)).unwrap();
        assert_eq!(unknown.status, crate::protocol::STATUS_ERROR);
        assert!(unknown.message.unwrap().contains("unknown experiment"));
        let bad_profile = client.request(&Request::run("exp1", 1, "bogus", 1.0)).unwrap();
        assert_eq!(bad_profile.status, crate::protocol::STATUS_ERROR);

        let stats = counters(&addr);
        assert_eq!(stats["serve.cache_miss"], 6);
        assert_eq!(stats["serve.cache_hit"], 1);
        assert_eq!(stats["serve.error"], 2);

        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 6);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_and_unknown_commands_get_error_responses() {
        let dir = scratch("garbage");
        let (addr, handle) = start(config(&dir));

        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(b"this is not json\n{\"cmd\": \"dance\"}\n").unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while buf.iter().filter(|&&b| b == b'\n').count() < 2 {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "daemon closed early");
            buf.extend_from_slice(&chunk[..n]);
        }
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        let first = Response::from_line(lines.next().unwrap()).unwrap();
        assert_eq!(first.status, crate::protocol::STATUS_ERROR);
        assert!(first.message.unwrap().contains("bad request"));
        let second = Response::from_line(lines.next().unwrap()).unwrap();
        assert_eq!(second.status, crate::protocol::STATUS_ERROR);
        assert!(second.message.unwrap().contains("unknown cmd"));
        drop(stream);

        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_excess_requests_and_recovers_after_drain() {
        let dir = scratch("overload");
        let mut cfg = config(&dir);
        cfg.queue_depth = 1;
        cfg.concurrency = 1;
        cfg.hold = Duration::from_millis(400);
        let (addr, handle) = start(cfg);

        // With one worker holding each miss 400ms and a queue of one,
        // four concurrent distinct-tuple requests cannot all be
        // admitted: the excess must be shed promptly, not hung.
        let t0 = Instant::now();
        let clients: Vec<_> = (0..4u64)
            .map(|seed| {
                let addr = addr.clone();
                thread::spawn(move || {
                    connect(&addr)
                        .run("exp1", seed, "none", 1.0)
                        .expect("query")
                        .status
                })
            })
            .collect();
        let statuses: Vec<String> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(t0.elapsed() < Duration::from_secs(30), "requests hung");
        let shed = statuses.iter().filter(|s| *s == "overloaded").count();
        let ran = statuses.iter().filter(|s| *s == "miss" || *s == "hit").count();
        assert!(shed >= 1, "no request was shed: {statuses:?}");
        // How many of the four land before the worker dequeues the first
        // is a race; the hard guarantees are that at least one is
        // admitted and the rest shed *promptly*.
        assert!(ran >= 1, "queue+worker should admit at least one: {statuses:?}");
        assert_eq!(shed + ran, 4, "every request gets a definite answer: {statuses:?}");

        // Drained daemon serves again.
        let after = connect(&addr).run("exp1", 99, "none", 1.0).unwrap();
        assert_eq!(after.status, STATUS_MISS, "{after:?}");
        let stats = counters(&addr);
        assert_eq!(stats["serve.shed"], shed as u64);
        // Seeds were distinct, so every admitted request was a miss.
        assert_eq!(stats["serve.cache_miss"], (ran + 1) as u64);

        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn restart_rehydrates_the_cache_and_serves_hits_without_recompute() {
        let dir = scratch("rehydrate");
        let (addr, handle) = start(config(&dir));
        let req = Request::run("exp3", 11, "outage", 0.5);
        let miss = connect(&addr).request(&req).unwrap();
        assert_eq!(miss.status, STATUS_MISS);
        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 1);

        // Fresh daemon, same cache dir: the entry is served as a hit
        // with zero runner activity in the new process's telemetry.
        let (addr2, handle2) = start(config(&dir));
        let hit = connect(&addr2).request(&req).unwrap();
        assert_eq!(hit.status, STATUS_HIT, "{hit:?}");
        assert_eq!(hit.artifact, miss.artifact);
        assert_eq!(hit.metrics, miss.metrics);
        let stats = counters(&addr2);
        assert!(!stats.contains_key("runner.attempts"), "{stats:?}");
        assert_eq!(stats["serve.cache_hit"], 1);
        let summary2 = shutdown(&addr2, handle2);
        assert_eq!(summary2.cache_entries, 1);
        assert_eq!(summary2.rehydrated.loaded, 1);
        assert_eq!(summary2.rehydrated.evicted, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    /// One request over a bare socket; returns the raw response line,
    /// newline included, exactly as the daemon wrote it.
    fn raw_exchange(addr: &str, req: &Request) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(format!("{}\n", req.to_line().unwrap()).as_bytes()).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 4096];
        while !buf.ends_with(b"\n") {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "daemon closed mid-line");
            buf.extend_from_slice(&chunk[..n]);
        }
        String::from_utf8(buf).unwrap()
    }

    #[test]
    fn raw_hit_after_restart_is_the_miss_line_with_its_status_swapped() {
        let dir = scratch("raw-hit");
        let (addr, handle) = start(config(&dir));
        let req = Request::run("exp2", 5, "chaos", 1.0);
        let miss = raw_exchange(&addr, &req);
        shutdown(&addr, handle);

        let (addr2, handle2) = start(config(&dir));
        let hit = raw_exchange(&addr2, &req);
        assert_eq!(miss.matches("\"status\":\"miss\"").count(), 1, "{miss}");
        assert_eq!(hit, miss.replace("\"status\":\"miss\"", "\"status\":\"hit\""));
        assert_eq!(counters(&addr2)["serve.cache_hit"], 1);
        shutdown(&addr2, handle2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bounded_cache_evicts_lru_and_counts_it() {
        let dir = scratch("bounded");
        let mut cfg = config(&dir);
        cfg.cache_max_entries = 2;
        let (addr, handle) = start(cfg);

        let mut client = connect(&addr);
        // Fill to the cap, then freshen seed 1 so seed 2 is the LRU.
        for seed in [1, 2] {
            assert_eq!(client.run("exp1", seed, "none", 1.0).unwrap().status, STATUS_MISS);
        }
        assert_eq!(client.run("exp1", 1, "none", 1.0).unwrap().status, STATUS_HIT);
        // A third tuple evicts seed 2...
        assert_eq!(client.run("exp1", 3, "none", 1.0).unwrap().status, STATUS_MISS);
        let stats = counters(&addr);
        assert_eq!(stats["serve.evicted"], 1, "{stats:?}");
        // ...so seed 2 recomputes (miss) while seed 1 is still a hit.
        assert_eq!(client.run("exp1", 2, "none", 1.0).unwrap().status, STATUS_MISS);
        let stats = counters(&addr);
        assert_eq!(stats["serve.evicted"], 2, "seed 1 or 3 made room: {stats:?}");
        assert!(stats["serve.connections"] >= 1, "{stats:?}");

        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 2, "the bound holds at shutdown");
        let _ = fs::remove_dir_all(&dir);
    }
}
