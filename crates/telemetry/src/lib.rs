//! # humnet-telemetry
//!
//! Zero-external-dependency observability for the humnet workspace:
//!
//! 1. a [`MetricsRegistry`] of counters, gauges, and log-bucketed
//!    histograms (p50/p90/p99/max, mergeable for sharded runs), cheap
//!    enough for hot simulator loops;
//! 2. a span-based tracer with monotonic timing, parent/child nesting,
//!    and a per-run flame summary ([`TelemetrySnapshot::render_trace_summary`]);
//! 3. an append-only structured [`journal`] (JSONL via the vendored
//!    `serde_json`) of fault injections, retries, breaker trips, and
//!    simulator milestones.
//!
//! The [`Telemetry`] facade uses `RefCell` interior mutability so
//! simulators can record through a shared `&Telemetry`. It is `Send` but
//! not `Sync`: the supervised runner creates one instance per worker
//! attempt, moves it into the worker thread, and merges the resulting
//! [`TelemetrySnapshot`] back into the run-level instance — see
//! `humnet-resilience`.
//!
//! ## Determinism contract
//!
//! Event *ordering and counts*, metric *names and counter values*, and
//! span *names and counts* are pure functions of the seed. Only durations
//! (histogram samples of `*_ns` metrics, span times) vary between runs.
//! `tests/telemetry_journal.rs` enforces this at the workspace level.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod journal;
pub mod metrics;
pub mod table;
pub mod trace;

pub use journal::{spec_order_in_place, spec_ordered, Event, Journal};
pub use metrics::{Histogram, HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use table::TextTable;
pub use trace::{SpanSnapshot, Tracer};

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Default)]
struct Inner {
    metrics: MetricsRegistry,
    tracer: Tracer,
    journal: Journal,
}

/// Shared-reference recording facade over metrics, spans, and the journal.
///
/// Construct with [`Telemetry::new`] (recording) or
/// [`Telemetry::disabled`] (every call is a cheap no-op — callers that do
/// not observe a simulator pass this, so the hot paths pay almost nothing
/// when observability is off).
#[derive(Debug, Default)]
pub struct Telemetry {
    enabled: bool,
    inner: RefCell<Inner>,
}

impl Telemetry {
    /// A recording instance.
    pub fn new() -> Self {
        Telemetry {
            enabled: true,
            inner: RefCell::new(Inner::default()),
        }
    }

    /// A no-op instance: every recording call returns immediately.
    pub fn disabled() -> Self {
        Telemetry::default()
    }

    /// An empty instance that records iff this one does: what a sub-run
    /// on another thread records into before its snapshot is
    /// [`absorb`](Telemetry::absorb)ed here.
    pub fn fork(&self) -> Self {
        Telemetry {
            enabled: self.enabled,
            inner: RefCell::default(),
        }
    }

    /// Add `by` to the named counter.
    pub fn counter(&self, name: &str, by: u64) {
        if self.enabled {
            self.inner.borrow_mut().metrics.inc(name, by);
        }
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &str, v: f64) {
        if self.enabled {
            self.inner.borrow_mut().metrics.set_gauge(name, v);
        }
    }

    /// Record a raw value into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        if self.enabled {
            self.inner.borrow_mut().metrics.observe(name, v);
        }
    }

    /// Start a manual timing: `None` when disabled, so the hot path skips
    /// the clock read entirely. Pair with [`Telemetry::observe_since`].
    pub fn start(&self) -> Option<Instant> {
        self.enabled.then(Instant::now)
    }

    /// Record nanoseconds elapsed since a [`Telemetry::start`] into the
    /// named histogram. A no-op when `t0` is `None`.
    pub fn observe_since(&self, name: &str, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.observe(name, t0.elapsed().as_nanos() as u64);
        }
    }

    /// Open a span; the returned guard closes it on drop. Spans nest:
    /// a child's time is charged to the parent's cumulative-but-not-self
    /// time, producing the flame summary.
    #[must_use = "a span measures the scope of its guard; dropping immediately measures nothing"]
    pub fn span(&self, name: impl Into<String>) -> SpanGuard<'_> {
        if self.enabled {
            self.inner.borrow_mut().tracer.enter(name.into());
            SpanGuard { tel: Some(self) }
        } else {
            SpanGuard { tel: None }
        }
    }

    /// Append an event to the journal (seq assigned automatically).
    pub fn event(&self, event: Event) {
        if self.enabled {
            self.inner.borrow_mut().journal.record(event);
        }
    }

    /// Fold a worker attempt's snapshot into this instance: counters add,
    /// gauges overwrite, histograms and spans merge, and the worker's
    /// events are appended in order with empty experiment fields stamped
    /// to `scope` and sequence numbers reassigned.
    pub fn absorb(&self, snap: TelemetrySnapshot, scope: &str) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.borrow_mut();
        inner.metrics.absorb(snap.metrics);
        inner.tracer.absorb(&snap.spans);
        for event in snap.events {
            inner.journal.absorb(event, scope);
        }
    }

    /// Move out what depends on the order it was recorded in — the
    /// journal and the gauges — and leave the counters, histograms and
    /// spans, which add up in any order. The supervised runner calls this
    /// after every experiment a worker runs, folds the parts it takes in
    /// spec order, and folds what is left once per worker.
    pub fn take_ordered(&self) -> TelemetrySnapshot {
        let mut inner = self.inner.borrow_mut();
        TelemetrySnapshot {
            metrics: MetricsSnapshot {
                gauges: inner.metrics.take_gauges(),
                ..MetricsSnapshot::default()
            },
            spans: Vec::new(),
            events: std::mem::take(&mut inner.journal).into_events(),
        }
    }

    /// Plain-data view of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let inner = self.inner.borrow();
        TelemetrySnapshot {
            metrics: inner.metrics.snapshot(),
            spans: inner.tracer.snapshot(),
            events: inner.journal.events().to_vec(),
        }
    }

    /// Like [`Telemetry::snapshot`], but consumes the instance and moves
    /// the journal out instead of cloning it. The supervised runner calls
    /// this on the per-attempt and per-worker instances it owns, so event
    /// vectors cross thread boundaries without a copy.
    pub fn into_snapshot(self) -> TelemetrySnapshot {
        let inner = self.inner.into_inner();
        TelemetrySnapshot {
            metrics: inner.metrics.snapshot(),
            spans: inner.tracer.snapshot(),
            events: inner.journal.into_events(),
        }
    }
}

/// A `Sync` recording facade for long-lived multi-threaded services.
///
/// [`Telemetry`] is deliberately `Send`-but-not-`Sync` (`RefCell`): the
/// batch runner gives each worker attempt its own instance and merges
/// snapshots. A daemon is different — many connection handlers record
/// into *one* live instance whose totals must be observable at any time
/// (a `stats` request), so this wrapper serializes access through a
/// mutex. Only cold paths (request accounting, not simulator inner
/// loops) should record through it.
#[derive(Debug, Default)]
pub struct SharedTelemetry {
    inner: std::sync::Mutex<Telemetry>,
}

impl SharedTelemetry {
    /// A recording instance.
    pub fn new() -> Self {
        SharedTelemetry {
            inner: std::sync::Mutex::new(Telemetry::new()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Telemetry> {
        // Telemetry recording never panics while the lock is held, so a
        // poisoned mutex only means some *other* panic unwound through a
        // recording call; the data is still sound to read.
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Add `by` to the named counter.
    pub fn counter(&self, name: &str, by: u64) {
        self.lock().counter(name, by);
    }

    /// Set the named gauge.
    pub fn gauge(&self, name: &str, v: f64) {
        self.lock().gauge(name, v);
    }

    /// Record a raw value into the named histogram.
    pub fn observe(&self, name: &str, v: u64) {
        self.lock().observe(name, v);
    }

    /// Append an event to the journal.
    pub fn event(&self, event: Event) {
        self.lock().event(event);
    }

    /// Fold a finished run's snapshot into the live totals.
    pub fn absorb(&self, snap: TelemetrySnapshot, scope: &str) {
        self.lock().absorb(snap, scope);
    }

    /// Plain-data view of everything recorded so far.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        self.lock().snapshot()
    }
}

/// Guard returned by [`Telemetry::span`]; closes the span on drop.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tel: Option<&'a Telemetry>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(tel) = self.tel {
            // `try_borrow_mut`: if this guard is dropped while the inner
            // state is borrowed (a panic mid-record), losing one span beats
            // a double-panic abort.
            if let Ok(mut inner) = tel.inner.try_borrow_mut() {
                inner.tracer.exit();
            }
        }
    }
}

/// Plain-data, serializable capture of a [`Telemetry`] instance.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Counters, gauges, and histograms.
    pub metrics: MetricsSnapshot,
    /// Per-span-name timing aggregates, sorted by name.
    pub spans: Vec<SpanSnapshot>,
    /// Journal events in append order.
    pub events: Vec<Event>,
}

impl TelemetrySnapshot {
    /// Merge another snapshot (e.g. from a shard) into this one; `scope`
    /// stamps the other's unscoped events. Counters add, gauges overwrite,
    /// histograms and spans merge bucket-wise/by-name — all associative and
    /// loss-free — and events append in order with `seq` reassigned, so
    /// folding per-shard snapshots in `(shard, seq)` order reconstructs the
    /// run-level journal.
    pub fn merge(&mut self, other: &TelemetrySnapshot, scope: &str) {
        self.metrics.merge(&other.metrics);
        trace::merge_spans(&mut self.spans, &other.spans);
        for event in &other.events {
            let mut e = event.clone();
            if e.experiment.is_empty() {
                e.experiment = scope.to_owned();
            }
            e.seq = self.events.len() as u64;
            self.events.push(e);
        }
    }

    /// Stamp every event that does not already carry a shard id with
    /// `shard`. The cross-process dispatcher calls this on each shard's
    /// snapshot before the run-level fold, so a merged journal records
    /// which shard produced every line without disturbing the canonical
    /// (shard-invariant) form.
    pub fn stamp_shard(&mut self, shard: u32) {
        for event in &mut self.events {
            if event.shard.is_none() {
                event.shard = Some(shard);
            }
        }
    }

    /// Shift every stamped spec index by `base`. A child process running
    /// one shard's slice numbers its specs from 0; the cross-process
    /// dispatcher re-bases each shard's events onto the slice's offset in
    /// the full spec list, so the merged journal sorts into the same
    /// global spec order an in-process run produces.
    pub fn offset_spec(&mut self, base: u64) {
        if base == 0 {
            return;
        }
        for event in &mut self.events {
            if let Some(spec) = event.spec.as_mut() {
                *spec += base;
            }
        }
    }

    /// Canonical event lines (timings and seq excluded): two same-seed
    /// runs must produce identical output.
    pub fn canonical_events(&self) -> Vec<String> {
        self.events.iter().map(Event::canonical).collect()
    }

    /// Pretty-printed JSON of the whole snapshot (for `--metrics-out`).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a snapshot previously written by [`TelemetrySnapshot::to_json`]
    /// (the `experiments merge-metrics` input format).
    pub fn from_json(text: &str) -> Result<TelemetrySnapshot, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Journal as JSONL (for `--journal-out`).
    pub fn to_jsonl(&self) -> Result<String, serde_json::Error> {
        journal::to_jsonl(&self.events)
    }

    /// Human-readable metrics tables: counters, gauges, then histogram
    /// quantiles — the end-of-run summary the `experiments` binary prints.
    pub fn render_metrics_table(&self) -> String {
        let mut out = String::new();
        if !self.metrics.counters.is_empty() {
            let mut t = TextTable::new(&["counter", "value"]).with_heading("Counters");
            for (name, v) in &self.metrics.counters {
                t.row(vec![name.clone(), v.to_string()]);
            }
            out.push_str(&t.render());
        }
        if !self.metrics.gauges.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = TextTable::new(&["gauge", "value"]).with_heading("Gauges");
            for (name, v) in &self.metrics.gauges {
                t.row(vec![name.clone(), format!("{v:.4}")]);
            }
            out.push_str(&t.render());
        }
        if !self.metrics.histograms.is_empty() {
            if !out.is_empty() {
                out.push('\n');
            }
            let mut t = TextTable::new(&["histogram", "count", "p50", "p90", "p99", "max", "mean"])
                .with_heading("Histograms");
            for (name, h) in &self.metrics.histograms {
                let unit_ns = histogram_unit_ns(name);
                let fmt = |v: u64| format_ns(v.saturating_mul(unit_ns));
                t.row(vec![
                    name.clone(),
                    h.count.to_string(),
                    fmt(h.quantile(0.50)),
                    fmt(h.quantile(0.90)),
                    fmt(h.quantile(0.99)),
                    fmt(h.max),
                    fmt(h.mean()),
                ]);
            }
            out.push_str(&t.render());
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }

    /// Per-run flame summary: spans sorted by cumulative time, with self
    /// vs. cumulative columns.
    pub fn render_trace_summary(&self) -> String {
        if self.spans.is_empty() {
            return "(no spans recorded)\n".to_owned();
        }
        let mut spans = self.spans.clone();
        spans.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        let mut t = TextTable::new(&["span", "count", "total", "self", "max", "mean"])
            .with_heading("Trace summary");
        for s in &spans {
            let mean = s.total_ns.checked_div(s.count).unwrap_or(0);
            t.row(vec![
                s.name.clone(),
                s.count.to_string(),
                format_ns(s.total_ns),
                format_ns(s.self_ns),
                format_ns(s.max_ns),
                format_ns(mean),
            ]);
        }
        t.render()
    }
}

/// Nanoseconds per recorded unit of a histogram, read from its name's
/// unit suffix (`_ms`, `_us`; `_ns` or no suffix records nanoseconds).
fn histogram_unit_ns(name: &str) -> u64 {
    if name.ends_with("_ms") {
        1_000_000
    } else if name.ends_with("_us") {
        1_000
    } else {
        1
    }
}

/// Render nanoseconds with a human-scale unit (`ns`, `µs`, `ms`, `s`).
pub fn format_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.2}µs", ns as f64 / 1_000.0)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1_000_000.0)
    } else {
        format!("{:.2}s", ns as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_telemetry_records_nothing() {
        let tel = Telemetry::disabled();
        tel.counter("x", 1);
        tel.gauge("g", 1.0);
        tel.observe("h", 10);
        tel.event(Event::new("fault", "x"));
        assert!(tel.start().is_none());
        {
            let _span = tel.span("s");
        }
        let snap = tel.snapshot();
        assert!(snap.metrics.is_empty());
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
    }

    #[test]
    fn facade_records_through_shared_reference() {
        let tel = Telemetry::new();
        tel.counter("faults.injected", 2);
        tel.gauge("agenda.surfaced", 0.75);
        tel.observe("agenda.step_ns", 500);
        tel.event(Event::new("milestone", "agenda done"));
        {
            let _outer = tel.span("exp.f1");
            let _inner = tel.span("agenda.run");
        }
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counters["faults.injected"], 2);
        assert_eq!(snap.spans.len(), 2);
        assert_eq!(snap.events.len(), 1);
    }

    #[test]
    fn absorb_scopes_and_resequences_worker_events() {
        let run = Telemetry::new();
        run.event(Event::new("run-start", "seed=1"));
        let worker = Telemetry::new();
        worker.counter("agenda.rounds", 60);
        worker.event(Event::new("fault", "volunteer-dropout").with_step(3));
        worker.event(Event::new("milestone", "done").in_experiment("explicit"));
        run.absorb(worker.snapshot(), "f1");
        run.event(Event::new("run-end", "ok"));
        let snap = run.snapshot();
        let seqs: Vec<u64> = snap.events.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(snap.events[1].experiment, "f1");
        assert_eq!(snap.events[2].experiment, "explicit");
        assert_eq!(snap.metrics.counters["agenda.rounds"], 60);
    }

    #[test]
    fn take_ordered_leaves_what_adds_up_in_any_order() {
        let tel = Telemetry::new();
        {
            let _span = tel.span("runner.attempt");
            tel.counter("job.calls", 1);
            tel.gauge("job.level", 0.5);
            tel.observe("job.ns", 100);
            tel.event(Event::new("milestone", "a"));
        }
        let ordered = tel.take_ordered();
        assert_eq!(ordered.events.len(), 1);
        assert_eq!(ordered.metrics.gauges["job.level"], 0.5);
        assert!(ordered.metrics.counters.is_empty() && ordered.spans.is_empty());
        tel.event(Event::new("milestone", "b"));
        let rest = tel.into_snapshot();
        assert_eq!(rest.events.len(), 1, "the journal starts over");
        assert_eq!(rest.events[0].seq, 0);
        assert!(rest.metrics.gauges.is_empty());
        assert_eq!(rest.metrics.counters["job.calls"], 1);
        assert_eq!(rest.metrics.histograms["job.ns"].count, 1);
        assert_eq!(rest.spans[0].count, 1);
    }

    #[test]
    fn stamp_shard_preserves_explicit_ids_and_canonical_form() {
        let tel = Telemetry::new();
        tel.event(Event::new("milestone", "a"));
        tel.event(Event::new("fault", "b").with_shard(7));
        let mut snap = tel.snapshot();
        let canonical_before = snap.canonical_events();
        snap.stamp_shard(3);
        assert_eq!(snap.events[0].shard, Some(3));
        // An explicit shard id is never overwritten.
        assert_eq!(snap.events[1].shard, Some(7));
        // Shard stamping is invisible to the canonical journal.
        assert_eq!(snap.canonical_events(), canonical_before);
    }

    #[test]
    fn snapshot_json_round_trip() {
        let tel = Telemetry::new();
        tel.counter("c", 1);
        tel.observe("h", 42);
        tel.event(Event::new("fault", "x").with_severity(0.5));
        {
            let _s = tel.span("sp");
        }
        let snap = tel.snapshot();
        let json = snap.to_json().unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&json).unwrap();
        // Span durations survive serialization, so full equality holds.
        assert_eq!(back, snap);
    }

    #[test]
    fn render_tables_are_non_empty_and_aligned() {
        let tel = Telemetry::new();
        tel.counter("faults.injected", 3);
        tel.gauge("uptime", 0.99);
        tel.observe("step_ns", 1_500);
        {
            let _s = tel.span("run");
        }
        let snap = tel.snapshot();
        let metrics = snap.render_metrics_table();
        assert!(metrics.contains("## Counters"));
        assert!(metrics.contains("## Gauges"));
        assert!(metrics.contains("## Histograms"));
        assert!(metrics.contains("faults.injected"));
        let trace = snap.render_trace_summary();
        assert!(trace.contains("## Trace summary"));
        assert!(trace.contains("run"));
        assert_eq!(
            TelemetrySnapshot::default().render_metrics_table(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn shared_telemetry_is_sync_and_aggregates_across_threads() {
        fn assert_sync<T: Sync + Send>() {}
        assert_sync::<SharedTelemetry>();
        let tel = SharedTelemetry::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        tel.counter("serve.requests", 1);
                        tel.observe("serve.hit_ns", 50);
                    }
                });
            }
        });
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counters["serve.requests"], 400);
        assert_eq!(snap.metrics.histograms["serve.hit_ns"].count, 400);
    }

    #[test]
    fn histograms_render_in_their_recorded_unit() {
        let tel = Telemetry::new();
        tel.observe("job.latency_ms", 128);
        tel.observe("serve.wait_us", 250);
        tel.observe("agenda.step_ns", 999);
        let table = tel.snapshot().render_metrics_table();
        let row = |name: &str| table.lines().find(|l| l.contains(name)).unwrap().to_owned();
        assert!(row("job.latency_ms").contains("128.00ms"), "{table}");
        assert!(row("serve.wait_us").contains("250.00µs"), "{table}");
        assert!(row("agenda.step_ns").contains("999ns"), "{table}");
    }

    #[test]
    fn format_ns_units() {
        assert_eq!(format_ns(999), "999ns");
        assert_eq!(format_ns(1_500), "1.50µs");
        assert_eq!(format_ns(2_340_000), "2.34ms");
        assert_eq!(format_ns(3_000_000_000), "3.00s");
    }
}
