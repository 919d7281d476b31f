//! The serve daemon: accept loop, admission control, warm-pool execution.
//!
//! Request flow — every line is parsed once, as a [`Request`], and
//! answered with [`Response`] lines:
//!
//! ```text
//! accept ──▶ bounded conn queue ──▶ handler threads (fixed pool)
//!                 │ full: shed                │
//!                 ▼                           ├─ lease: chaos directive?
//!            overloaded                       │  kill / stall / garble
//!                                             ├─ resolve: registry codes,
//!                                             │  tuple over the defaults
//!                                             ├─ run, cache hit: write the
//!                                             │  entry's pre-encoded line,
//!                                             │  zero runner attempts
//!                                             ▼
//!                     admit: bounded work queue (depth = queue_depth)
//!                                 │ full: shed (`overloaded`)
//!                                 ▼
//!                     worker threads (count = concurrency)
//!                     ──▶ execute: Supervisor on the process-wide warm
//!                         pool, canonicalized RunArtifact and metrics
//!                         run: cache insert, `miss` line
//!                         lease: `done` frame (never cached); its handler
//!                         writes an `hb` frame every 100 ms until then
//! ```
//!
//! A run and a lease differ only at the ends: a run names one experiment
//! and has a cache key, so it can be a hit and its result is cached; a
//! lease names a slice, heartbeats while it waits, and is answered `done`.
//! Resolution, admission and execution are one step each for both.
//!
//! Admission control is two `mpsc::sync_channel`s: `try_send` either
//! enqueues or fails *immediately*, so overload produces an explicit
//! `overloaded` answer (counted as `serve.shed`) instead of an
//! unbounded queue or a hung client. The handler and worker pools are
//! fixed at startup — a request never spawns a process or thread; misses
//! and shard leases (the `dispatch --workers` protocol) run on the same
//! pooled worker runtime the batch CLI uses. A request line is capped at
//! 1 MiB, so no peer can grow a handler's buffer without bound.
//!
//! Shutdown — a `shutdown` request or SIGTERM ([`install_signal_handlers`])
//! — stops the accept loop, lets the workers drain every queued run and
//! lease (each still gets its final answer), joins both pools, and
//! flushes the cache index.

use crate::cache::{cache_key, CacheEntry, RehydrateStats, ResultCache};
use crate::protocol::{
    LineBuffer, Request, Response, CMD_LEASE, CMD_RUN, CMD_SHUTDOWN, CMD_STATS, STATUS_DONE,
    STATUS_ERROR, STATUS_MISS, STATUS_OVERLOADED,
};
use humnet_resilience::{
    code_rev, ChaosKind, ExperimentSpec, RunArtifact, RunnerConfig, Supervisor,
};
use humnet_telemetry::{SharedTelemetry, TelemetrySnapshot};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Longest partial request line a connection may buffer. Request and
/// lease lines are a few hundred bytes; a peer that sends more than this
/// without a newline gets one `error` line and is disconnected (counted
/// as `serve.oversized`).
const MAX_REQUEST_BYTES: usize = 1 << 20;

/// How often a lease's handler writes an `hb` frame while the lease is
/// queued or running, so the dispatcher's liveness window never mistakes
/// queue wait or a long slice for a dead worker.
const LEASE_HEARTBEAT: Duration = Duration::from_millis(100);

/// How long a connection may stay silent before it is disconnected.
const IDLE: Duration = Duration::from_secs(30);

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
    /// Evictions are counted in `serve.evicted`; entries another code
    /// revision wrote are deleted at rehydrate (`serve.evicted_stale`).
    pub cache_max_entries: usize,
    /// Worker threads executing misses (clamped to at least 1). The
    /// connection-handler pool is sized from this and `queue_depth`:
    /// `concurrency + queue_depth + 2` threads, floored at 16.
    pub concurrency: usize,
    /// Base runner configuration; a request's tuple (seed, profile,
    /// intensity, retries, deadline, and a lease's breaker cooldown) is
    /// laid over it by [`Request::overlay`].
    pub runner: RunnerConfig,
    /// Testing knob: hold each miss this long before executing, so tests
    /// and CI can fill the queue deterministically (`--hold-ms`).
    pub hold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7077".to_owned(),
            cache_dir: std::env::temp_dir().join("humnet-serve-cache"),
            queue_depth: 32,
            cache_max_entries: 0,
            concurrency: 2,
            runner: RunnerConfig::default(),
            hold: Duration::ZERO,
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

/// One admitted unit of work for the worker pool — a miss or a lease —
/// which answers its handler over a channel of its own.
type Job = Box<dyn FnOnce(&Ctx) + Send>;

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
    pub fn bind(mut config: ServeConfig, factory: SpecFactory) -> io::Result<Server> {
        // The quiet-panics hook is process-global state; concurrent workers
        // installing/restoring it would race. Panics are still caught and
        // reported as failed rows — just with their backtraces on stderr.
        config.runner.quiet_panics = false;
        let (cache, rehydrated) =
            ResultCache::open_bounded(&config.cache_dir, config.cache_max_entries)?;
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

    /// Serve until a `shutdown` request or SIGTERM; then drain queued
    /// runs, join the pools, flush the cache index, and report.
    pub fn run(self) -> io::Result<ServeSummary> {
        let ctx = self.ctx;
        let concurrency = ctx.config.concurrency.max(1);
        let (work_tx, work_rx) = mpsc::sync_channel::<Job>(ctx.config.queue_depth);
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
        let handler_count = (concurrency + ctx.config.queue_depth + 2).max(16);
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
        // fires — shutdown pays the poll latency; requests never do.
        let watchdog = {
            let ctx = Arc::clone(&ctx);
            let addr = self.addr;
            thread::Builder::new()
                .name("humnet-serve-watchdog".to_owned())
                .spawn(move || loop {
                    if sigterm_received() {
                        ctx.stop.store(true, Ordering::SeqCst);
                    }
                    if ctx.stop.load(Ordering::SeqCst) {
                        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(250));
                        return;
                    }
                    thread::sleep(Duration::from_millis(25));
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

fn handler_loop(rx: &Mutex<Receiver<TcpStream>>, ctx: &Ctx, work_tx: &SyncSender<Job>) {
    loop {
        let stream = rx.lock().expect("conn queue lock").recv();
        let Ok(stream) = stream else { break };
        let _ = serve_connection(stream, ctx, work_tx);
    }
}

/// Process one connection's requests sequentially until the peer closes,
/// goes idle past the budget, overflows [`MAX_REQUEST_BYTES`], or the
/// daemon begins draining.
fn serve_connection(mut stream: TcpStream, ctx: &Ctx, work_tx: &SyncSender<Job>) -> io::Result<()> {
    // Accepted sockets do not reliably inherit the listener's
    // non-blocking mode; pin down blocking + a short read timeout so the
    // loop can poll the shutdown flag between reads. Nagle must be off:
    // on a persistent pipelined connection the kernel would otherwise
    // hold each response line for the peer's delayed ACK (~40 ms per
    // request instead of microseconds).
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_millis(100)))?;
    let mut framer = LineBuffer::new();
    let mut chunk = [0u8; 4096];
    let mut last_activity = Instant::now();
    loop {
        while let Some(line) = framer.next_line() {
            last_activity = Instant::now();
            if handle_line(ctx, work_tx, &mut stream, &line)? {
                return Ok(());
            }
        }
        if framer.pending() > MAX_REQUEST_BYTES {
            ctx.tel.counter("serve.oversized", 1);
            let msg = format!("request line exceeds {MAX_REQUEST_BYTES} bytes without a newline");
            return write_reply(&mut stream, &Reply::Fresh(Response::error(&msg)));
        }
        if ctx.stop.load(Ordering::SeqCst) && framer.is_empty() {
            return Ok(()); // draining: drop idle connections
        }
        if last_activity.elapsed() >= IDLE {
            return Ok(());
        }
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(()), // peer closed
            Ok(n) => {
                framer.push(&chunk[..n]);
                last_activity = Instant::now();
            }
            Err(e) if is_read_timeout(&e) => {}
            Err(e) => return Err(e),
        }
    }
}

/// A read that timed out or was interrupted: poll again.
fn is_read_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
    )
}

/// Answer one request line on `stream`. Returns whether the connection
/// should close afterwards.
fn handle_line(
    ctx: &Ctx,
    work_tx: &SyncSender<Job>,
    stream: &mut TcpStream,
    line: &str,
) -> io::Result<bool> {
    ctx.tel.counter("serve.requests", 1);
    let req = match Request::from_line(line) {
        Ok(req) => req,
        Err(e) => {
            ctx.tel.counter("serve.error", 1);
            write_reply(
                stream,
                &Reply::Fresh(Response::error(&format!("bad request: {e}"))),
            )?;
            return Ok(false);
        }
    };
    let (reply, close) = match req.cmd.as_str() {
        CMD_RUN => (handle_run(ctx, work_tx, &req), false),
        CMD_LEASE => return handle_lease(ctx, work_tx, stream, &req),
        CMD_STATS => {
            let resp = match ctx.tel.snapshot().to_json() {
                Ok(json) => Response::stats(json),
                Err(e) => Response::error(&format!("stats serialization: {e}")),
            };
            (Reply::Fresh(resp), false)
        }
        CMD_SHUTDOWN => {
            ctx.stop.store(true, Ordering::SeqCst);
            (
                Reply::Fresh(Response::ok("draining; daemon will exit")),
                true,
            )
        }
        other => {
            ctx.tel.counter("serve.error", 1);
            let msg = format!("unknown cmd '{other}' (run|lease|stats|shutdown)");
            (Reply::Fresh(Response::error(&msg)), false)
        }
    };
    write_reply(stream, &reply)?;
    Ok(close)
}

/// The run path: resolve, consult the index, admit or shed.
fn handle_run(ctx: &Ctx, work_tx: &SyncSender<Job>, req: &Request) -> Reply {
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
    if let Some(line) = run.hit(ctx) {
        ctx.tel.counter("serve.cache_hit", 1);
        ctx.tel
            .observe("serve.hit_ns", t0.elapsed().as_nanos() as u64);
        return Reply::Hit(line);
    }
    let (resp_tx, resp_rx) = mpsc::channel();
    let job: Job = Box::new(move |ctx: &Ctx| {
        // A duplicate that queued behind its twin becomes a hit here
        // instead of recomputing.
        let reply = match run.hit(ctx) {
            Some(line) => Reply::Hit(line),
            None => {
                thread::sleep(ctx.config.hold);
                Reply::Fresh(execute(ctx, &run))
            }
        };
        // A handler that gave up (connection died) just drops the
        // receiver; the computed result is still cached.
        let _ = resp_tx.send(reply);
    });
    if let Some(refusal) = admit(ctx, work_tx, job) {
        return Reply::Fresh(refusal);
    }
    match resp_rx.recv() {
        Ok(Reply::Hit(line)) => {
            ctx.tel.counter("serve.cache_hit", 1);
            ctx.tel
                .observe("serve.hit_ns", t0.elapsed().as_nanos() as u64);
            Reply::Hit(line)
        }
        Ok(Reply::Fresh(resp)) => {
            match resp.status.as_str() {
                STATUS_MISS => {
                    ctx.tel.counter("serve.cache_miss", 1);
                    ctx.tel
                        .observe("serve.miss_ns", t0.elapsed().as_nanos() as u64);
                }
                STATUS_ERROR => ctx.tel.counter("serve.error", 1),
                _ => {}
            }
            Reply::Fresh(resp)
        }
        Err(_) => {
            ctx.tel.counter("serve.error", 1);
            Reply::Fresh(Response::error("worker dropped the request"))
        }
    }
}

/// A run or lease request resolved against the daemon defaults.
struct Resolved {
    /// The registry specs it runs: a run's one experiment, a lease's slice.
    specs: Vec<ExperimentSpec>,
    /// The daemon's runner defaults with the request's tuple laid over.
    config: RunnerConfig,
    /// What its executed result becomes.
    answer: Answer,
}

/// What an executed request's result becomes.
enum Answer {
    /// A run's `miss` line, its result cached under `key` for the
    /// experiment code as it was requested.
    Miss { experiment: String, key: String },
    /// A lease's `done` frame; lease results are never cached.
    Done { lease: u64 },
}

impl Resolved {
    /// The cached answer, if this is a run that has one.
    fn hit(&self, ctx: &Ctx) -> Option<Arc<[u8]>> {
        match &self.answer {
            Answer::Miss { key, .. } => ctx.cache.hit_line(key),
            Answer::Done { .. } => None,
        }
    }
}

/// Resolve a run (one experiment, with a cache key) or a lease (a slice,
/// no key): validate its codes against the registry and lay its tuple
/// over the daemon defaults, refusing what no run could honour.
fn resolve(ctx: &Ctx, req: &Request) -> Result<Resolved, String> {
    let lease = req.cmd == CMD_LEASE;
    let codes = if lease {
        req.experiments.as_deref().unwrap_or_default()
    } else {
        std::slice::from_ref(
            req.experiment
                .as_ref()
                .ok_or("run request needs an \"experiment\" field")?,
        )
    };
    if codes.is_empty() {
        return Err("empty lease".to_owned());
    }
    let specs = codes
        .iter()
        .map(|code| (ctx.factory)(code).ok_or_else(|| format!("unknown experiment '{code}'")))
        .collect::<Result<Vec<_>, _>>()?;
    let mut config = req.overlay(&ctx.config.runner)?;
    let answer = if lease {
        Answer::Done {
            lease: req.lease.unwrap_or(0),
        }
    } else {
        // The cache key leaves the breaker cooldown out, so a run never
        // reads it.
        config.breaker_cooldown = ctx.config.runner.breaker_cooldown;
        let experiment = codes[0].clone();
        let key = cache_key(
            &experiment,
            config.seed,
            config.profile.label(),
            config.intensity,
            config.retries,
            &code_rev(),
        );
        Answer::Miss { experiment, key }
    };
    Ok(Resolved {
        specs,
        config,
        answer,
    })
}

/// Queue one job for the workers, or return the refusal to answer with:
/// `overloaded` (counted as `serve.shed`) when the queue is full, an
/// error once the daemon drains.
fn admit(ctx: &Ctx, work_tx: &SyncSender<Job>, job: Job) -> Option<Response> {
    match work_tx.try_send(job) {
        Ok(()) => None,
        Err(TrySendError::Full(_)) => {
            ctx.tel.counter("serve.shed", 1);
            Some(Response::overloaded("pending queue full; retry later"))
        }
        Err(TrySendError::Disconnected(_)) => Some(Response::error("daemon is shutting down")),
    }
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
    let _ = write_reply(
        &mut stream,
        &Reply::Fresh(Response::overloaded("all handlers busy")),
    );
}

// ------------------------------------------------------------- leases --

/// The lease path: cooperate with a chaos directive, or resolve the
/// slice, admit it like a miss, and write an `hb` frame every
/// [`LEASE_HEARTBEAT`] until its final `done` or `error` frame.
fn handle_lease(
    ctx: &Ctx,
    work_tx: &SyncSender<Job>,
    stream: &mut TcpStream,
    req: &Request,
) -> io::Result<bool> {
    ctx.tel.counter("serve.leases", 1);
    let id = req.lease.unwrap_or(0);
    if let Some(kind) = req.chaos.as_deref().and_then(ChaosKind::parse) {
        ctx.tel.counter("serve.lease_faulted", 1);
        inject_chaos(ctx, stream, kind, id);
        return Ok(true);
    }
    // A failed write means the dispatcher revoked the lease by dropping
    // the connection.
    let revoked = |e| {
        ctx.tel.counter("serve.lease_faulted", 1);
        e
    };
    let frame = match resolve(ctx, req) {
        Err(msg) => {
            ctx.tel.counter("serve.error", 1);
            Response::error(&msg)
        }
        Ok(run) => {
            let (tx, rx) = mpsc::channel();
            let job: Job = Box::new(move |ctx: &Ctx| {
                let _ = tx.send(execute(ctx, &run));
            });
            match admit(ctx, work_tx, job) {
                // A lease is answered `hb`, `done` or `error`, so a shed
                // lease is an error.
                Some(refusal) if refusal.status == STATUS_OVERLOADED => Response::error(&format!(
                    "overloaded: {}",
                    refusal.message.unwrap_or_default()
                )),
                Some(refusal) => refusal,
                None => {
                    let mut beat = 0;
                    loop {
                        match rx.recv_timeout(LEASE_HEARTBEAT) {
                            Ok(frame) => break frame,
                            Err(RecvTimeoutError::Timeout) => {
                                beat += 1;
                                let hb = Reply::Fresh(Response::hb(id, beat));
                                write_reply(stream, &hb).map_err(revoked)?;
                            }
                            Err(RecvTimeoutError::Disconnected) => {
                                break Response::error("lease execution thread died");
                            }
                        }
                    }
                }
            }
        }
    };
    let done = frame.status == STATUS_DONE;
    let frame = Response {
        lease: Some(id),
        ..frame
    };
    write_reply(stream, &Reply::Fresh(frame)).map_err(revoked)?;
    if done {
        ctx.tel.counter("serve.lease_done", 1);
    }
    Ok(false)
}

/// Cooperate with a chaos directive stamped on a lease request: crash
/// the connection, go silent, or corrupt the stream — always *after* the
/// lease was read, so the dispatcher sees a mid-lease fault, not a
/// refused one. The connection is closed afterwards.
fn inject_chaos(ctx: &Ctx, stream: &mut TcpStream, kind: ChaosKind, id: u64) {
    eprintln!("serve: chaos-net {} on lease {id}", kind.label());
    match kind {
        // One heartbeat first: the lease is visibly in flight when the
        // wire goes dead.
        ChaosKind::Kill => {
            let _ = write_reply(stream, &Reply::Fresh(Response::hb(id, 1)));
        }
        // Hold the connection open sending nothing until the dispatcher
        // revokes it (EOF on our side). Draining ends it too, because
        // shutdown joins this handler; the hour bound keeps a forgotten
        // stall from outliving a test run by much.
        ChaosKind::Stall => {
            let until = Instant::now() + Duration::from_secs(3600);
            let mut sink = [0u8; 256];
            while !ctx.stop.load(Ordering::SeqCst) && Instant::now() < until {
                match stream.read(&mut sink) {
                    Ok(0) => break,
                    Ok(_) => {}
                    Err(e) if is_read_timeout(&e) => {}
                    Err(_) => break,
                }
            }
        }
        ChaosKind::Garble => {
            let _ = stream.write_all(b"}{ not a frame \xff\n");
        }
    }
    let _ = stream.shutdown(Shutdown::Both);
}

// ------------------------------------------------------------ workers --

fn worker_loop(rx: &Mutex<Receiver<Job>>, ctx: &Ctx) {
    loop {
        // Holding the lock across `recv` is fine: it is released the
        // moment a job arrives, so at most one idle worker waits while
        // the rest execute.
        let job = rx.lock().expect("work queue lock").recv();
        let Ok(job) = job else { break };
        job(ctx);
    }
}

/// Execute an admitted run or lease on the warm pool — the supervised
/// run a local dispatch child performs — and encode its canonical
/// artifact and telemetry. The run's metrics (not its journal: a
/// daemon's event log must not grow with every request) join the daemon
/// totals, so `stats` exposes runner.attempts and friends. Only a miss
/// is then cached.
fn execute(ctx: &Ctx, run: &Resolved) -> Response {
    let result = Supervisor::builder()
        .config(run.config)
        .build()
        .run(&run.specs);
    let artifact = RunArtifact {
        report: result.report,
        outputs: result.outputs,
    }
    .canonicalized()
    .to_json();
    let metrics = result.telemetry.to_json();
    let mut run_metrics = result.telemetry;
    run_metrics.events.clear();
    ctx.tel.absorb(run_metrics, "");
    let (artifact, metrics) = match (artifact, metrics) {
        (Ok(artifact), Ok(metrics)) => (artifact, metrics),
        (Err(e), _) => return Response::error(&format!("artifact serialization: {e}")),
        (_, Err(e)) => return Response::error(&format!("metrics serialization: {e}")),
    };
    let (experiment, key) = match &run.answer {
        Answer::Done { lease } => return Response::done(*lease, artifact, metrics),
        Answer::Miss { experiment, key } => (experiment, key),
    };
    let rev = code_rev();
    let entry = CacheEntry {
        key: key.clone(),
        experiment: experiment.clone(),
        seed: run.config.seed,
        profile: run.config.profile.label().to_owned(),
        intensity: run.config.intensity,
        retries: run.config.retries,
        code_rev: rev.clone(),
        checksum: CacheEntry::checksum_of(&artifact, &metrics),
        artifact: artifact.clone(),
        metrics: metrics.clone(),
    };
    match ctx.cache.insert(entry) {
        Ok(evicted) if evicted > 0 => ctx.tel.counter("serve.evicted", evicted as u64),
        Ok(_) => {}
        Err(e) => {
            // The result is still good; only persistence failed. Serve it
            // and say so — the next identical request recomputes.
            eprintln!("serve: cache insert for {key} failed: {e}");
        }
    }
    ctx.tel.gauge("serve.cache_entries", ctx.cache.len() as f64);
    Response::artifact(STATUS_MISS, key, &rev, artifact, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ServeClient;
    use crate::protocol::{STATUS_DONE, STATUS_HIT};
    use humnet_resilience::{
        dispatch, ChaosNet, DispatchConfig, FaultProfile, JobOutput, ShardPaths, ShardSpec,
        SupervisedRun,
    };
    use proptest::prelude::*;
    use std::fs;
    use std::path::Path;
    use std::process::Command;

    const TIMEOUT: Duration = Duration::from_secs(60);

    fn scratch(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("humnet-serve-test-{}-{name}", std::process::id()));
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
            Some(ExperimentSpec::new(
                code.clone(),
                title,
                "toy",
                move |_plan, tel| {
                    tel.counter("toy.runs", 1);
                    Ok(JobOutput {
                        rendered: format!("toy output for {code}\n"),
                        faults_injected: 0,
                    })
                },
            ))
        })
    }

    fn config(cache_dir: &Path) -> ServeConfig {
        let mut cfg = ServeConfig::default();
        cfg.addr = "127.0.0.1:0".to_owned();
        cfg.cache_dir = cache_dir.to_path_buf();
        cfg
    }

    fn start(cfg: ServeConfig) -> (String, thread::JoinHandle<ServeSummary>) {
        start_with(cfg, toy_factory())
    }

    fn start_with(
        cfg: ServeConfig,
        factory: SpecFactory,
    ) -> (String, thread::JoinHandle<ServeSummary>) {
        let server = Server::bind(cfg, factory).expect("bind");
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
        let snap =
            TelemetrySnapshot::from_json(resp.stats.as_deref().unwrap()).expect("stats json");
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
        assert_eq!(
            hit.artifact, miss.artifact,
            "hit artifact must be byte-identical"
        );
        assert_eq!(
            hit.metrics, miss.metrics,
            "hit metrics must be byte-identical"
        );

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
            Request::run("exp1", 2, "none", 1.0), // seed changed
            Request::run("exp1", 1, "churn", 1.0), // profile changed
            Request::run("exp1", 1, "none", 2.0), // intensity changed
            Request::run("exp2", 1, "none", 1.0), // experiment changed
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

        let unknown = client
            .request(&Request::run("nope", 1, "none", 1.0))
            .unwrap();
        assert_eq!(unknown.status, crate::protocol::STATUS_ERROR);
        assert!(unknown.message.unwrap().contains("unknown experiment"));
        let bad_profile = client
            .request(&Request::run("exp1", 1, "bogus", 1.0))
            .unwrap();
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
        stream
            .write_all(b"this is not json\n{\"cmd\": \"dance\"}\n")
            .unwrap();
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
        let ran = statuses
            .iter()
            .filter(|s| *s == "miss" || *s == "hit")
            .count();
        assert!(shed >= 1, "no request was shed: {statuses:?}");
        // How many of the four land before the worker dequeues the first
        // is a race; the hard guarantees are that at least one is
        // admitted and the rest shed *promptly*.
        assert!(
            ran >= 1,
            "queue+worker should admit at least one: {statuses:?}"
        );
        assert_eq!(
            shed + ran,
            4,
            "every request gets a definite answer: {statuses:?}"
        );

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
        stream
            .write_all(format!("{}\n", req.to_line().unwrap()).as_bytes())
            .unwrap();
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
        assert_eq!(
            hit,
            miss.replace("\"status\":\"miss\"", "\"status\":\"hit\"")
        );
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
            assert_eq!(
                client.run("exp1", seed, "none", 1.0).unwrap().status,
                STATUS_MISS
            );
        }
        assert_eq!(
            client.run("exp1", 1, "none", 1.0).unwrap().status,
            STATUS_HIT
        );
        // A third tuple evicts seed 2...
        assert_eq!(
            client.run("exp1", 3, "none", 1.0).unwrap().status,
            STATUS_MISS
        );
        let stats = counters(&addr);
        assert_eq!(stats["serve.evicted"], 1, "{stats:?}");
        // ...so seed 2 recomputes (miss) while seed 1 is still a hit.
        assert_eq!(
            client.run("exp1", 2, "none", 1.0).unwrap().status,
            STATUS_MISS
        );
        let stats = counters(&addr);
        assert_eq!(
            stats["serve.evicted"], 2,
            "seed 1 or 3 made room: {stats:?}"
        );
        assert!(stats["serve.connections"] >= 1, "{stats:?}");

        let summary = shutdown(&addr, handle);
        assert_eq!(summary.cache_entries, 2, "the bound holds at shutdown");
        let _ = fs::remove_dir_all(&dir);
    }

    // ------------------------------------------------------------ leases --

    /// A daemon on a fresh cache dir, as `dispatch --workers` sees it.
    fn start_worker(tag: &str) -> (String, thread::JoinHandle<ServeSummary>) {
        start(config(&scratch(&format!("worker-{tag}"))))
    }

    fn quick_dispatch(tag: &str) -> DispatchConfig {
        DispatchConfig {
            shard_retries: 1,
            shard_deadline: Duration::from_secs(30),
            liveness: Duration::from_millis(500),
            poll: Duration::from_millis(5),
            backoff_base: Duration::from_millis(1),
            scratch: scratch(&format!("dispatch-{tag}")),
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

    /// The in-process ground truth a merged remote run must match.
    fn reference_run(codes: &[&str], runner: &RunnerConfig) -> SupervisedRun {
        let specs: Vec<ExperimentSpec> = codes.iter().map(|c| toy_factory()(c).unwrap()).collect();
        let mut cfg = *runner;
        cfg.quiet_panics = false;
        Supervisor::builder().config(cfg).build().run(&specs)
    }

    /// Local-failover child builder that must never be reached.
    fn no_local_children(_: &ShardSpec, _: &ShardPaths) -> Command {
        panic!("test expected no local failover");
    }

    fn remote(config: &DispatchConfig, workers: &[&str], chaos: Option<&str>) -> DispatchConfig {
        DispatchConfig {
            workers: workers.iter().map(|w| (*w).to_owned()).collect(),
            connect_timeout: Duration::from_millis(500),
            chaos_net: chaos
                .into_iter()
                .map(|c| ChaosNet::parse(c).unwrap())
                .collect(),
            ..config.clone()
        }
    }

    /// Send one lease line on a fresh connection and collect its frames up
    /// to the first non-heartbeat one (or EOF).
    fn lease_frames(addr: &str, lease: &Request) -> Vec<Response> {
        lease_line_frames(addr, &lease.to_line().unwrap())
    }

    /// [`lease_frames`] for a lease line as written.
    fn lease_line_frames(addr: &str, line: &str) -> Vec<Response> {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        stream.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut framer = LineBuffer::new();
        let mut frames = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            while let Some(line) = framer.next_line() {
                let frame = Response::from_line(&line).unwrap();
                let last = frame.status != "hb";
                frames.push(frame);
                if last {
                    return frames;
                }
            }
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => return frames,
                Ok(n) => framer.push(&chunk[..n]),
            }
        }
    }

    fn lease_for(codes: &[&str], id: u64) -> Request {
        let codes: Vec<String> = codes.iter().map(|c| (*c).to_owned()).collect();
        Request::lease(id, &codes, &RunnerConfig::default())
    }

    /// A registry whose `expgate` experiment announces itself on the
    /// returned receiver and then blocks until the returned sender sends,
    /// so a test knows a lease is executing and decides when it ends.
    fn gated_factory() -> (SpecFactory, mpsc::Receiver<()>, mpsc::Sender<()>) {
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let started_tx = Mutex::new(started_tx);
        let release_rx = Arc::new(Mutex::new(release_rx));
        let factory: SpecFactory = Arc::new(move |code: &str| {
            if code != "expgate" {
                return toy_factory()(code);
            }
            let started_tx = started_tx.lock().unwrap().clone();
            let release_rx = Arc::clone(&release_rx);
            Some(ExperimentSpec::new(
                "expgate",
                "gate",
                "toy",
                move |_plan, _tel| {
                    let _ = started_tx.send(());
                    let _ = release_rx.lock().unwrap().recv_timeout(TIMEOUT);
                    Ok(JobOutput {
                        rendered: "gate opened\n".to_owned(),
                        faults_injected: 0,
                    })
                },
            ))
        });
        (factory, started_rx, release_tx)
    }

    #[test]
    fn two_daemons_merge_byte_identical_to_in_process_run_and_count_leases() {
        let (addr_a, handle_a) = start_worker("identity-a");
        let (addr_b, handle_b) = start_worker("identity-b");
        let config = quick_dispatch("identity");
        let runner = RunnerConfig {
            seed: 11,
            ..RunnerConfig::default()
        };
        // Shards 0 and 2 lease to daemon A, shard 1 to daemon B.
        let shards = vec![
            shard_spec(0, 0, &["exp1", "exp2"]),
            shard_spec(1, 2, &["exp3"]),
            shard_spec(2, 3, &["exp4"]),
        ];
        let outcome = dispatch(
            &remote(&config, &[&addr_a, &addr_b], None),
            &runner,
            shards,
            no_local_children,
        )
        .unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![1, 1, 1]);
        assert_eq!(outcome.run.outputs["exp2"], "toy output for exp2\n");

        let reference = reference_run(&["exp1", "exp2", "exp3", "exp4"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events(),
            "remote merge must be byte-identical to the in-process run"
        );
        let stats = counters(&addr_a);
        assert!(stats["serve.leases"] >= 2, "{stats:?}");
        assert!(stats["serve.lease_done"] >= 2, "{stats:?}");
        assert!(!stats.contains_key("serve.lease_faulted"), "{stats:?}");
        // Lease runs fold their runner metrics into the daemon totals...
        assert!(stats["runner.attempts"] >= 3, "{stats:?}");
        // ...but their results are never cached.
        assert_eq!(shutdown(&addr_a, handle_a).cache_entries, 0);
        assert_eq!(shutdown(&addr_b, handle_b).cache_entries, 0);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn killed_lease_is_reissued_to_the_survivor() {
        // Worker 0's first lease (shard 0, attempt 0) is killed mid-lease;
        // rotation re-leases the slice on worker 1.
        let (addr_bad, handle_bad) = start_worker("reissue-bad");
        let (addr_good, handle_good) = start_worker("reissue-good");
        let config = quick_dispatch("reissue");
        let runner = RunnerConfig::default();
        let outcome = dispatch(
            &remote(&config, &[&addr_bad, &addr_good], Some("kill:0")),
            &runner,
            vec![shard_spec(0, 0, &["exp1", "exp2"])],
            no_local_children,
        )
        .unwrap();
        assert!(!outcome.degraded());
        assert_eq!(outcome.shard_attempts, vec![2], "one remote retry");
        let reference = reference_run(&["exp1", "exp2"], &runner);
        assert_eq!(
            outcome.run.telemetry.canonical_events(),
            reference.telemetry.canonical_events()
        );
        assert_eq!(counters(&addr_bad)["serve.lease_faulted"], 1);
        assert_eq!(counters(&addr_good)["serve.lease_done"], 1);
        shutdown(&addr_bad, handle_bad);
        shutdown(&addr_good, handle_good);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn frame_stamped_chaos_garble_fails_the_attempt_with_a_garbled_reason() {
        let (addr, handle) = start_worker("garble");
        let mut config = quick_dispatch("garble");
        config.shard_retries = 0;
        config.allow_partial = true;
        config.local_failover = false;
        let outcome = dispatch(
            &remote(&config, &[&addr], Some("garble:0")),
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("garbled frame"),
            "{}",
            outcome.missing[0].reason
        );
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    #[test]
    fn stalled_lease_trips_the_liveness_window() {
        let (addr, handle) = start_worker("stall");
        let mut config = quick_dispatch("stall");
        config.shard_retries = 0;
        config.allow_partial = true;
        config.liveness = Duration::from_millis(150);
        config.local_failover = false;
        let started = Instant::now();
        let outcome = dispatch(
            &remote(&config, &[&addr], Some("stall:0")),
            &RunnerConfig::default(),
            vec![shard_spec(0, 0, &["exp1"])],
            no_local_children,
        )
        .unwrap();
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "liveness fired late"
        );
        assert!(outcome.degraded());
        assert!(
            outcome.missing[0].reason.contains("no frame for"),
            "{}",
            outcome.missing[0].reason
        );
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&config.scratch);
    }

    /// A scripted fake worker that misbehaves at a chosen point in the
    /// lease lifecycle, for the kill-point property test.
    fn flaky_worker(kill_point: u8) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        if kill_point == 0 {
            // Nothing ever listens: the bound socket is dropped here.
            return addr;
        }
        thread::spawn(move || {
            let Ok((mut stream, _)) = listener.accept() else {
                return;
            };
            // Read (and discard) the lease line first so every kill point
            // is a mid-lease fault, not a refused connection.
            let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
            let mut framer = LineBuffer::new();
            let mut chunk = [0u8; 1024];
            while framer.next_line().is_none() {
                match stream.read(&mut chunk) {
                    Ok(0) | Err(_) => return,
                    Ok(n) => framer.push(&chunk[..n]),
                }
            }
            match kill_point {
                // Close before any frame.
                1 => {}
                // Corrupt frame.
                2 => {
                    let _ = stream.write_all(b"%% garbage %%\n");
                }
                // One valid heartbeat, then the wire dies.
                3 => {
                    let line = Response::hb(0, 1).to_line().unwrap();
                    let _ = stream.write_all(format!("{line}\n").as_bytes());
                }
                // A done frame cut off mid-line (no newline ever arrives).
                _ => {
                    let line = Response::done(0, "{}".into(), "{}".into())
                        .to_line()
                        .unwrap();
                    let _ = stream.write_all(&line.as_bytes()[..line.len() / 2]);
                    thread::sleep(Duration::from_millis(50));
                }
            }
            let _ = stream.shutdown(Shutdown::Both);
        });
        addr
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(10))]
        /// Wherever in the lease lifecycle the first worker dies — refused
        /// dial, pre-frame close, garble, post-heartbeat close, mid-frame
        /// cut — the lease is re-issued to the healthy daemon and the
        /// merged result is intact and byte-identical.
        #[test]
        fn lease_reissue_survives_any_kill_point(kill_point in 0u8..5) {
            let flaky = flaky_worker(kill_point);
            let (good, handle) = start_worker(&format!("killpoint-{kill_point}"));
            let mut config = quick_dispatch(&format!("killpoint-{kill_point}"));
            config.liveness = Duration::from_millis(400);
            let runner = RunnerConfig { seed: 5, ..RunnerConfig::default() };
            let shards = vec![shard_spec(0, 0, &["exp1", "exp2"])];
            let outcome = dispatch(
                &remote(&config, &[&flaky, &good], None),
                &runner,
                shards,
                no_local_children,
            )
            .unwrap();
            prop_assert!(!outcome.degraded());
            prop_assert_eq!(&outcome.shard_attempts, &vec![2]);
            prop_assert_eq!(outcome.run.report.experiments.len(), 2);
            let reference = reference_run(&["exp1", "exp2"], &runner);
            prop_assert_eq!(
                outcome.run.telemetry.canonical_events(),
                reference.telemetry.canonical_events()
            );
            shutdown(&good, handle);
            let _ = fs::remove_dir_all(&config.scratch);
        }
    }

    #[test]
    fn leases_with_a_tuple_no_run_could_honour_are_refused_and_run_nothing() {
        let dir = scratch("lease-validate");
        let (addr, handle) = start(config(&dir));
        let mut negative = lease_for(&["exp1"], 1);
        negative.intensity = Some(-1.0);
        let mut zero_deadline = lease_for(&["exp1"], 2);
        zero_deadline.deadline_ms = Some(0);
        let mut unknown = lease_for(&["exp1", "nope"], 3);
        unknown.seed = Some(9);
        for (lease, needle) in [
            (negative, "intensity"),
            (zero_deadline, "deadline_ms"),
            (unknown, "unknown experiment 'nope'"),
        ] {
            let frames = lease_frames(&addr, &lease);
            assert_eq!(frames.len(), 1, "{frames:?}");
            assert_eq!(frames[0].status, "error", "{frames:?}");
            assert_eq!(frames[0].lease, lease.lease);
            assert!(
                frames[0].message.as_deref().unwrap().contains(needle),
                "{frames:?}"
            );
        }
        let stats = counters(&addr);
        assert_eq!(stats["serve.leases"], 3);
        assert!(
            !stats.contains_key("runner.attempts"),
            "nothing ran: {stats:?}"
        );
        assert!(!stats.contains_key("serve.lease_done"), "{stats:?}");
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lease_arriving_at_a_full_queue_is_shed_as_overloaded() {
        let dir = scratch("lease-shed");
        let mut cfg = config(&dir);
        cfg.concurrency = 1;
        cfg.queue_depth = 1;
        let (factory, started, release) = gated_factory();
        let (addr, handle) = start_with(cfg, factory);

        // The only worker executes the gated lease...
        let running = {
            let addr = addr.clone();
            thread::spawn(move || lease_frames(&addr, &lease_for(&["expgate"], 1)))
        };
        started.recv_timeout(TIMEOUT).expect("gated lease started");
        // ...a second lease takes the one queue slot (its first heartbeat
        // proves it was admitted)...
        let mut queued = TcpStream::connect(&addr).unwrap();
        queued.set_read_timeout(Some(TIMEOUT)).unwrap();
        let line = lease_for(&["exp1"], 2).to_line().unwrap();
        queued.write_all(format!("{line}\n").as_bytes()).unwrap();
        let mut first = [0u8; 1];
        queued.read_exact(&mut first).unwrap();
        // ...so a third is shed at once.
        let shed = lease_frames(&addr, &lease_for(&["exp2"], 3));
        assert_eq!(shed.len(), 1, "{shed:?}");
        assert_eq!(shed[0].status, "error");
        assert_eq!(shed[0].lease, Some(3));
        assert!(
            shed[0]
                .message
                .as_deref()
                .unwrap()
                .starts_with("overloaded"),
            "{shed:?}"
        );
        assert_eq!(counters(&addr)["serve.shed"], 1);

        release.send(()).unwrap();
        let frames = running.join().unwrap();
        assert_eq!(frames.last().unwrap().status, "done", "{frames:?}");
        drop(queued);
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_mid_lease_still_delivers_the_done_frame() {
        let dir = scratch("lease-drain");
        let (factory, started, release) = gated_factory();
        let (addr, handle) = start_with(config(&dir), factory);
        let running = {
            let addr = addr.clone();
            thread::spawn(move || lease_frames(&addr, &lease_for(&["expgate", "exp1"], 7)))
        };
        started.recv_timeout(TIMEOUT).expect("gated lease started");
        let ack = connect(&addr).shutdown().expect("shutdown query");
        assert_eq!(ack.status, crate::protocol::STATUS_OK, "{ack:?}");
        // The daemon is draining; the lease it already admitted finishes.
        release.send(()).unwrap();
        let frames = running.join().unwrap();
        let done = frames.last().unwrap();
        assert_eq!(done.status, "done", "{frames:?}");
        assert_eq!(done.lease, Some(7));
        let artifact = RunArtifact::from_json(done.artifact.as_deref().unwrap()).unwrap();
        assert_eq!(artifact.outputs["expgate"], "gate opened\n");
        let summary = handle.join().expect("daemon thread");
        assert_eq!(summary.stats.metrics.counters["serve.lease_done"], 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_stalled_lease_does_not_hold_shutdown() {
        let dir = scratch("lease-stall-drain");
        let (addr, handle) = start(config(&dir));
        let mut lease = lease_for(&["exp1"], 1);
        lease.chaos = Some("stall".to_owned());
        let mut stalled = TcpStream::connect(&addr).unwrap();
        stalled.set_read_timeout(Some(TIMEOUT)).unwrap();
        stalled
            .write_all(format!("{}\n", lease.to_line().unwrap()).as_bytes())
            .unwrap();
        // The lease is counted faulted just before its handler goes silent.
        let t0 = Instant::now();
        while !counters(&addr).contains_key("serve.lease_faulted") {
            assert!(t0.elapsed() < TIMEOUT, "stall never began");
            thread::sleep(Duration::from_millis(10));
        }
        connect(&addr).shutdown().expect("shutdown query");
        let (joined_tx, joined_rx) = mpsc::channel();
        thread::spawn(move || joined_tx.send(handle.join().is_ok()));
        let joined = joined_rx.recv_timeout(Duration::from_secs(3));
        assert_eq!(joined, Ok(true), "the stalled lease held shutdown");
        // The stalled connection was closed without a frame.
        let mut rest = Vec::new();
        let _ = stalled.read_to_end(&mut rest);
        assert!(rest.is_empty(), "{:?}", String::from_utf8_lossy(&rest));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_endless_request_line_is_refused_and_the_connection_closed() {
        let dir = scratch("oversized");
        let (addr, handle) = start(config(&dir));
        let mut stream = TcpStream::connect(&addr).unwrap();
        stream.set_read_timeout(Some(TIMEOUT)).unwrap();
        // 2 MiB and no newline; the daemon hangs up partway, so the write
        // may fail — what matters is what comes back.
        let writer = {
            let mut stream = stream.try_clone().unwrap();
            thread::spawn(move || {
                let _ = stream.write_all(&vec![b'x'; 2 << 20]);
            })
        };
        let mut reply = Vec::new();
        let mut chunk = [0u8; 4096];
        loop {
            match stream.read(&mut chunk) {
                Ok(0) | Err(_) => break,
                Ok(n) => reply.extend_from_slice(&chunk[..n]),
            }
        }
        writer.join().unwrap();
        let text = String::from_utf8(reply).unwrap();
        assert_eq!(text.lines().count(), 1, "{text}");
        let resp = Response::from_line(&text).unwrap();
        assert_eq!(resp.status, crate::protocol::STATUS_ERROR);
        assert!(resp.message.unwrap().contains("exceeds"), "{text}");
        assert_eq!(counters(&addr)["serve.oversized"], 1);
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_older_dispatchers_lease_line_runs_to_the_same_done_frame() {
        let dir = scratch("lease-older");
        let (addr, handle) = start(config(&dir));
        let line = lease_for(&["exp1", "exp2"], 4).to_line().unwrap();
        // Older dispatchers also sent the slice's shard and spec base.
        let mut older = line.clone();
        older.insert_str(older.len() - 1, r#","shard":1,"spec_base":2"#);
        let [now, then] = [line, older].map(|line| {
            let frames = lease_line_frames(&addr, &line);
            let done = frames.last().unwrap().clone();
            assert_eq!(done.status, STATUS_DONE, "{frames:?}");
            assert_eq!(done.lease, Some(4));
            let metrics = TelemetrySnapshot::from_json(done.metrics.as_deref().unwrap()).unwrap();
            (done.artifact.unwrap(), metrics.canonical_events())
        });
        assert_eq!(
            now, then,
            "the older line yields the same artifact and journal"
        );
        assert_eq!(counters(&addr)["serve.lease_done"], 2);
        shutdown(&addr, handle);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Write `stream` to a fresh connection in pieces cut at `cuts`, and
    /// read back up to `answers` response lines, fewer if the daemon
    /// hangs up first. The writes stop at the first that fails, as they
    /// do once the daemon has hung up.
    fn pipelined(addr: &str, stream: &[u8], cuts: &[usize], answers: usize) -> Vec<Response> {
        let mut conn = TcpStream::connect(addr).unwrap();
        conn.set_nodelay(true).unwrap();
        conn.set_read_timeout(Some(TIMEOUT)).unwrap();
        let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (stream.len() + 1)).collect();
        cuts.push(stream.len());
        cuts.sort_unstable();
        let writer = {
            let mut conn = conn.try_clone().unwrap();
            let stream = stream.to_vec();
            thread::spawn(move || {
                let mut from = 0;
                for to in cuts {
                    if conn.write_all(&stream[from..to]).is_err() {
                        return;
                    }
                    thread::sleep(Duration::from_millis(1));
                    from = to;
                }
            })
        };
        let mut framer = LineBuffer::new();
        let mut got = Vec::new();
        let mut chunk = [0u8; 4096];
        while got.len() < answers {
            match framer.next_line() {
                Some(line) => got.push(Response::from_line(&line).unwrap()),
                None => match conn.read(&mut chunk) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => framer.push(&chunk[..n]),
                },
            }
        }
        writer.join().unwrap();
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Malformed lines on one pipelined connection — arbitrary
        /// non-blank bytes, and valid run, lease and stats lines cut short
        /// — each get exactly one `error` answer and no heartbeat,
        /// wherever the writes split them, and a `stats` request after
        /// them is still answered: the stream never desyncs.
        #[test]
        fn malformed_pipelined_lines_get_one_error_each_and_never_desync(
            noise in prop::collection::vec(prop::collection::vec(0u16..256, 1..48), 0..4),
            truncations in prop::collection::vec(0usize..400, 0..4),
            cuts in prop::collection::vec(0usize..4000, 0..8),
        ) {
            let valid = [
                Request::run("exp1", 1, "none", 1.0),
                lease_for(&["exp1"], 1),
                Request::stats(),
            ]
            .map(|req| req.to_line().unwrap());
            let mut lines: Vec<Vec<u8>> = noise
                .into_iter()
                .map(|codes| {
                    let mut line: Vec<u8> = codes
                        .into_iter()
                        .map(|c| c as u8)
                        .filter(|&b| b != b'\n')
                        .collect();
                    // The framer skips blank lines, which get no answer.
                    if String::from_utf8_lossy(&line).trim().is_empty() {
                        line.push(b'x');
                    }
                    line
                })
                .collect();
            for (i, at) in truncations.into_iter().enumerate() {
                let line = valid[i % valid.len()].as_bytes();
                lines.push(line[..1 + at % (line.len() - 1)].to_vec());
            }
            let mut stream = Vec::new();
            for line in lines.iter().chain([&valid[2].as_bytes().to_vec()]) {
                stream.extend_from_slice(line);
                stream.push(b'\n');
            }

            let dir = scratch("malformed");
            let (addr, handle) = start(config(&dir));
            let answers = pipelined(&addr, &stream, &cuts, lines.len() + 1);
            let statuses: Vec<&str> = answers.iter().map(|r| r.status.as_str()).collect();
            let mut expected = vec![STATUS_ERROR; lines.len()];
            expected.push(crate::protocol::STATUS_STATS);
            prop_assert_eq!(statuses, expected);
            shutdown(&addr, handle);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// Lines nested deeper than the parser's 128 levels and lines just
        /// under [`MAX_REQUEST_BYTES`] on one pipelined connection each
        /// get exactly one `error` answer, and a `stats` request after
        /// them is still answered. A line over the cap mixed in among
        /// them gets the one `exceeds` answer after those before it, and
        /// the daemon hangs up: nothing after it is answered.
        #[test]
        fn oversized_and_deeply_nested_lines_never_desync_a_pipeline(
            shapes in prop::collection::vec(0usize..1 << 20, 1..6),
            oversized_at in 0usize..8,
            cuts in prop::collection::vec(0usize..1 << 22, 0..8),
        ) {
            let stats = Request::stats().to_line().unwrap();
            let lines: Vec<Vec<u8>> = shapes
                .iter()
                .map(|&code| {
                    let depth = 129 + code % 2000;
                    match code % 4 {
                        // A stats request with a field nested too deep.
                        0 => {
                            let nested = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
                            stats.replace('}', &format!(r#","x":{nested}}}"#))
                        }
                        // Nesting that never closes.
                        1 => r#"{"cmd":"run","a":"#.repeat(depth),
                        // Just under the cap: an unterminated string.
                        2 => format!(
                            r#"{{"cmd":"stats","pad":"{}"#,
                            "x".repeat(MAX_REQUEST_BYTES - 32 - code % 4096)
                        ),
                        _ => format!("{}1{}", "[".repeat(depth), "]".repeat(depth)),
                    }
                    .into_bytes()
                })
                .collect();
            // Past the cap by more than one read, so the daemon sees the
            // partial line over it before any newline; sometimes the
            // stream ends inside it.
            let oversized = vec![b'y'; MAX_REQUEST_BYTES + 8192 + shapes[0] % 4096];
            let mut stream = Vec::new();
            for (i, line) in lines.iter().enumerate() {
                if i == oversized_at {
                    stream.extend_from_slice(&oversized);
                    stream.push(b'\n');
                }
                stream.extend_from_slice(line);
                stream.push(b'\n');
            }
            stream.extend_from_slice(stats.as_bytes());
            stream.push(b'\n');
            if oversized_at == lines.len() {
                stream.extend_from_slice(&oversized);
            }

            let dir = scratch("oversized-mix");
            // In order: an error for each line before the oversized one
            // (each line, when it comes last or not at all), the stats
            // answer unless the oversized line precedes it, then its
            // `exceeds` error.
            let has_oversized = oversized_at <= lines.len();
            let mut expected = vec![(STATUS_ERROR, false); oversized_at.min(lines.len())];
            if oversized_at >= lines.len() {
                expected.push((crate::protocol::STATUS_STATS, false));
            }
            if has_oversized {
                expected.push((STATUS_ERROR, true));
            }
            let (addr, handle) = start(config(&dir));
            // Once the daemon hangs up, reading for one answer more meets
            // the end of the stream at once.
            let answers = pipelined(
                &addr,
                &stream,
                &cuts,
                expected.len() + usize::from(has_oversized),
            );
            let got: Vec<(&str, bool)> = answers
                .iter()
                .map(|r| {
                    let exceeds = r.message.as_deref().is_some_and(|m| m.contains("exceeds"));
                    (r.status.as_str(), exceeds)
                })
                .collect();
            prop_assert_eq!(got, expected);
            let counted = counters(&addr).get("serve.oversized").copied();
            prop_assert_eq!(counted.unwrap_or(0), u64::from(has_oversized));
            shutdown(&addr, handle);
            let _ = fs::remove_dir_all(&dir);
        }
    }
}
