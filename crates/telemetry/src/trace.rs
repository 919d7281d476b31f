//! Span-based tracing with parent/child self-time accounting.
//!
//! Spans are guard-scoped: entering pushes a frame on a per-tracer stack,
//! dropping the guard pops it and charges elapsed time to the span's name.
//! A child's cumulative time is subtracted from its parent's *self* time,
//! so the flame summary can show where time is actually spent rather than
//! double-counting nested work. Timing uses [`std::time::Instant`]
//! (monotonic); span *names and counts* are deterministic across same-seed
//! runs, durations are not.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// One in-flight span on the tracer stack.
#[derive(Debug)]
struct Frame {
    name: String,
    start: Instant,
    /// Cumulative nanoseconds spent in already-closed direct children.
    child_ns: u64,
}

/// Aggregate statistics for one span name.
#[derive(Debug, Clone, Copy, Default)]
struct SpanStat {
    count: u64,
    total_ns: u64,
    self_ns: u64,
    max_ns: u64,
}

/// Collects span timings for one run or one worker attempt.
#[derive(Debug, Default)]
pub struct Tracer {
    stack: Vec<Frame>,
    stats: BTreeMap<String, SpanStat>,
}

impl Tracer {
    /// Open a span. Must be balanced by [`Tracer::exit`]; the public guard
    /// API on `Telemetry` enforces this via `Drop`.
    pub fn enter(&mut self, name: String) {
        self.stack.push(Frame {
            name,
            start: Instant::now(),
            child_ns: 0,
        });
    }

    /// Close the most recently opened span, charging elapsed time to its
    /// name and crediting the enclosing parent's child-time. A no-op on an
    /// empty stack (guards dropped out of order degrade, never panic).
    pub fn exit(&mut self) {
        let Some(frame) = self.stack.pop() else {
            return;
        };
        let elapsed = frame.start.elapsed().as_nanos() as u64;
        let stat = self.stats.entry(frame.name).or_default();
        stat.count += 1;
        stat.total_ns = stat.total_ns.saturating_add(elapsed);
        stat.self_ns = stat
            .self_ns
            .saturating_add(elapsed.saturating_sub(frame.child_ns));
        stat.max_ns = stat.max_ns.max(elapsed);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns = parent.child_ns.saturating_add(elapsed);
        }
    }

    /// Fold a snapshot's span stats into this tracer, merging by name.
    pub fn absorb(&mut self, spans: &[SpanSnapshot]) {
        for s in spans {
            let stat = self.stats.entry(s.name.clone()).or_default();
            stat.count += s.count;
            stat.total_ns = stat.total_ns.saturating_add(s.total_ns);
            stat.self_ns = stat.self_ns.saturating_add(s.self_ns);
            stat.max_ns = stat.max_ns.max(s.max_ns);
        }
    }

    /// Per-name aggregate view, sorted by name (stable across runs).
    pub fn snapshot(&self) -> Vec<SpanSnapshot> {
        self.stats
            .iter()
            .map(|(name, s)| SpanSnapshot {
                name: name.clone(),
                count: s.count,
                total_ns: s.total_ns,
                self_ns: s.self_ns,
                max_ns: s.max_ns,
            })
            .collect()
    }
}

/// Aggregated timing for one span name across a run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanSnapshot {
    /// Span name (see the span taxonomy in DESIGN.md §7).
    pub name: String,
    /// Times the span was entered.
    pub count: u64,
    /// Cumulative wall-clock nanoseconds, including children.
    pub total_ns: u64,
    /// Nanoseconds excluding time spent in direct child spans.
    pub self_ns: u64,
    /// Longest single occurrence.
    pub max_ns: u64,
}

/// Merge span lists by name (sharded-run aggregation); result sorted by name.
pub fn merge_spans(into: &mut Vec<SpanSnapshot>, other: &[SpanSnapshot]) {
    let mut by_name: BTreeMap<String, SpanSnapshot> =
        into.drain(..).map(|s| (s.name.clone(), s)).collect();
    for s in other {
        let entry = by_name
            .entry(s.name.clone())
            .or_insert_with(|| SpanSnapshot {
                name: s.name.clone(),
                ..SpanSnapshot::default()
            });
        entry.count += s.count;
        entry.total_ns = entry.total_ns.saturating_add(s.total_ns);
        entry.self_ns = entry.self_ns.saturating_add(s.self_ns);
        entry.max_ns = entry.max_ns.max(s.max_ns);
    }
    *into = by_name.into_values().collect();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_attributes_self_time_to_the_right_span() {
        let mut t = Tracer::default();
        t.enter("outer".into());
        t.enter("inner".into());
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit();
        t.exit();
        let snap = t.snapshot();
        let outer = snap.iter().find(|s| s.name == "outer").unwrap();
        let inner = snap.iter().find(|s| s.name == "inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 1);
        assert!(inner.total_ns > 0);
        // Outer's self time excludes inner's total.
        assert!(outer.self_ns <= outer.total_ns - inner.total_ns + 1_000_000);
        assert!(outer.total_ns >= inner.total_ns);
    }

    #[test]
    fn unbalanced_exit_is_harmless() {
        let mut t = Tracer::default();
        t.exit();
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn merge_spans_sums_by_name() {
        let a = vec![SpanSnapshot {
            name: "x".into(),
            count: 2,
            total_ns: 100,
            self_ns: 80,
            max_ns: 60,
        }];
        let mut into = a.clone();
        merge_spans(
            &mut into,
            &[
                SpanSnapshot {
                    name: "x".into(),
                    count: 1,
                    total_ns: 50,
                    self_ns: 50,
                    max_ns: 50,
                },
                SpanSnapshot {
                    name: "y".into(),
                    count: 1,
                    total_ns: 10,
                    self_ns: 10,
                    max_ns: 10,
                },
            ],
        );
        assert_eq!(into.len(), 2);
        let x = into.iter().find(|s| s.name == "x").unwrap();
        assert_eq!(
            (x.count, x.total_ns, x.self_ns, x.max_ns),
            (3, 150, 130, 60)
        );
    }
}
