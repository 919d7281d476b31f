//! Append-only structured event journal.
//!
//! Events record *what happened* — fault injections, retries, breaker
//! trips, simulator milestones — with enough context (experiment id, step,
//! attempt, severity) to replay or diff a run. Events deliberately carry
//! **no wall-clock timestamps**: with a fixed seed the journal is
//! byte-for-byte reproducible, which is what lets CI diff two runs and the
//! determinism test assert equality. Order is captured by `seq` instead.

use serde::{Deserialize, Serialize};
use serde_json::Error;

/// One journal entry. Construct with [`Event::new`] and the `with_*`
/// builders; `seq` is assigned by the journal on append.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Position in the journal (0-based, assigned on append).
    pub seq: u64,
    /// Experiment code the event belongs to (empty for run-level events;
    /// the supervisor stamps worker events with their experiment scope).
    pub experiment: String,
    /// Shard the event was recorded on, for sharded supervised runs
    /// (`None` for single-supervisor runs and run-level merge events).
    /// Excluded from [`Event::canonical`]: the canonical journal of a
    /// merged sharded run is byte-identical to the 1-shard run's.
    pub shard: Option<u32>,
    /// Global spec index (position in the run's experiment list) of the
    /// experiment this event belongs to (`None` for run-level events).
    /// Like `shard`, it records provenance and is excluded from
    /// [`Event::canonical`]; unlike `shard`, it is also an *ordering key*:
    /// [`spec_ordered`] sorts a journal whose specs completed in any
    /// order back into the deterministic spec order.
    pub spec: Option<u64>,
    /// Event kind: `fault`, `retry`, `breaker-open`, `breaker-skip`,
    /// `milestone`, `experiment-start`, `experiment-end`, `run-start`,
    /// `run-end`, `attempt-error`, `panic`, `timeout`.
    pub kind: String,
    /// Simulator step / round / day the event occurred at, if any.
    pub step: Option<u64>,
    /// Fault severity in `(0, 1]`, present for `fault` events.
    pub severity: Option<f64>,
    /// 0-based attempt index, present for runner-level events.
    pub attempt: Option<u32>,
    /// Human-readable detail line.
    pub detail: String,
}

impl Event {
    /// New event with the given kind and detail; everything else unset.
    pub fn new(kind: &str, detail: impl Into<String>) -> Self {
        Event {
            kind: kind.to_owned(),
            detail: detail.into(),
            ..Event::default()
        }
    }

    /// Attach the simulator step the event occurred at.
    #[must_use]
    pub fn with_step(mut self, step: u64) -> Self {
        self.step = Some(step);
        self
    }

    /// Attach a fault severity.
    #[must_use]
    pub fn with_severity(mut self, severity: f64) -> Self {
        self.severity = Some(severity);
        self
    }

    /// Attach the runner attempt index.
    #[must_use]
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = Some(attempt);
        self
    }

    /// Scope the event to an experiment code.
    #[must_use]
    pub fn in_experiment(mut self, code: &str) -> Self {
        self.experiment = code.to_owned();
        self
    }

    /// Stamp the shard the event was recorded on.
    #[must_use]
    pub fn with_shard(mut self, shard: u32) -> Self {
        self.shard = Some(shard);
        self
    }

    /// Stamp the global spec index the event belongs to.
    #[must_use]
    pub fn with_spec(mut self, spec: u64) -> Self {
        self.spec = Some(spec);
        self
    }

    /// Canonical one-line form with timings, `seq`, and `shard` excluded —
    /// two same-seed runs must produce identical canonical lines, and a
    /// merged sharded run must canonicalize identically to a 1-shard run.
    pub fn canonical(&self) -> String {
        let step = self.step.map_or(String::new(), |s| s.to_string());
        let sev = self.severity.map_or(String::new(), |s| format!("{s:.4}"));
        let attempt = self.attempt.map_or(String::new(), |a| a.to_string());
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.experiment, self.kind, step, sev, attempt, self.detail
        )
    }
}

/// Append-only event log for one run or one worker attempt.
#[derive(Debug, Clone, Default)]
pub struct Journal {
    events: Vec<Event>,
}

impl Journal {
    /// Append an event, assigning its sequence number.
    pub fn record(&mut self, mut event: Event) {
        event.seq = self.events.len() as u64;
        self.events.push(event);
    }

    /// Append an already-sequenced event from another journal, re-stamping
    /// `seq` and filling an empty `experiment` field with `scope`.
    pub fn absorb(&mut self, mut event: Event, scope: &str) {
        if event.experiment.is_empty() {
            event.experiment = scope.to_owned();
        }
        self.record(event);
    }

    /// Events in append order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Consume the journal, returning its events without cloning.
    pub fn into_events(self) -> Vec<Event> {
        self.events
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Sort key class for [`spec_ordered`]: `run-start` sorts first,
/// `run-end` last, everything else by spec index in between.
fn order_class(event: &Event) -> u8 {
    match event.kind.as_str() {
        "run-start" => 0,
        "run-end" => 2,
        _ => 1,
    }
}

/// Canonical deterministic ordering for a merged journal: `run-start`
/// first, `run-end` last, and body events stably sorted by spec index
/// (events without one keep their relative position at the end of the
/// body). Within one spec, the original `seq` order is preserved — the
/// sort is stable and per-spec events are recorded sequentially — so a
/// journal from a K-worker run sorts back into the exact event stream a
/// 1-shard run emits. `seq` is reassigned
/// densely after the sort. A no-op on journals that are already in spec
/// order (1-shard runs) and on pre-spec journals (every key is `None`).
pub fn spec_ordered(events: &[Event]) -> Vec<Event> {
    let mut sorted: Vec<Event> = events.to_vec();
    sorted.sort_by_key(|e| (order_class(e), e.spec.unwrap_or(u64::MAX)));
    for (seq, event) in sorted.iter_mut().enumerate() {
        event.seq = seq as u64;
    }
    sorted
}

/// In-place variant of [`spec_ordered`] for hot merge paths: when the
/// events are already in spec order (the cross-process dispatcher folds
/// its shards' journals in shard order) this is a single comparison
/// sweep with no allocation or copying. Only an actually out-of-order
/// journal pays for the stable sort and the dense `seq` reassignment.
pub fn spec_order_in_place(events: &mut [Event]) {
    let key = |e: &Event| (order_class(e), e.spec.unwrap_or(u64::MAX));
    if events.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
        return;
    }
    events.sort_by_key(key);
    for (seq, event) in events.iter_mut().enumerate() {
        event.seq = seq as u64;
    }
}

/// Serialize events as JSONL: one JSON object per line, trailing newline.
pub fn to_jsonl(events: &[Event]) -> Result<String, Error> {
    let mut out = String::new();
    for e in events {
        out.push_str(&serde_json::to_string(e)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parse a JSONL journal back into events (blank lines ignored).
pub fn from_jsonl(text: &str) -> Result<Vec<Event>, Error> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn journal_assigns_sequence_numbers() {
        let mut j = Journal::default();
        j.record(Event::new("run-start", "profile=chaos"));
        j.record(
            Event::new("fault", "link-outage")
                .with_step(7)
                .with_severity(0.5),
        );
        assert_eq!(j.len(), 2);
        assert_eq!(j.events()[0].seq, 0);
        assert_eq!(j.events()[1].seq, 1);
        assert_eq!(j.events()[1].step, Some(7));
    }

    #[test]
    fn absorb_stamps_scope_and_reseq() {
        let mut j = Journal::default();
        j.record(Event::new("run-start", ""));
        let worker_event = Event {
            seq: 42,
            ..Event::new("milestone", "done")
        };
        j.absorb(worker_event, "f1");
        let scoped = Event::new("fault", "x").in_experiment("f3");
        j.absorb(scoped, "f1");
        assert_eq!(j.events()[1].seq, 1);
        assert_eq!(j.events()[1].experiment, "f1");
        // An explicit scope is never overwritten.
        assert_eq!(j.events()[2].experiment, "f3");
    }

    #[test]
    fn jsonl_round_trip_preserves_events() {
        let mut j = Journal::default();
        j.record(Event::new("run-start", "seed=1"));
        j.record(
            Event::new("fault", "reviewer-no-show")
                .with_step(12)
                .with_severity(0.625)
                .with_attempt(1)
                .in_experiment("t2"),
        );
        j.record(Event::new("run-end", "2 experiments: 2 ok"));
        let text = to_jsonl(j.events()).unwrap();
        assert_eq!(text.lines().count(), 3);
        let back = from_jsonl(&text).unwrap();
        assert_eq!(back, j.events());
    }

    #[test]
    fn canonical_excludes_seq_and_shard() {
        let a = Event {
            seq: 1,
            ..Event::new("fault", "x").with_step(3)
        };
        let b = Event {
            seq: 9,
            ..Event::new("fault", "x").with_step(3).with_shard(2)
        };
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn pre_shard_journals_still_parse() {
        // A journal line captured before the `shard` / `spec` fields
        // existed must deserialize with them `None` so old journals stay
        // replayable.
        let line = r#"{"seq":0,"experiment":"f1","kind":"fault","step":4,"severity":0.5,"attempt":null,"detail":"link-outage"}"#;
        let events = from_jsonl(line).unwrap();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].shard, None);
        assert_eq!(events[0].spec, None);
        assert_eq!(events[0].step, Some(4));
    }

    #[test]
    fn spec_is_excluded_from_canonical() {
        let a = Event::new("fault", "x").with_step(3);
        let b = Event::new("fault", "x")
            .with_step(3)
            .with_spec(9)
            .with_shard(1);
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn spec_ordered_restores_spec_order_and_reseqs() {
        // Completion order 1, 0 (as a K-worker run might produce),
        // bracketed by run-start / run-end.
        let mut j = Journal::default();
        j.record(Event::new("run-start", "seed=1"));
        j.record(Event::new("experiment-start", "b").with_spec(1));
        j.record(Event::new("experiment-end", "ok").with_spec(1));
        j.record(Event::new("experiment-start", "a").with_spec(0));
        j.record(Event::new("experiment-end", "ok").with_spec(0));
        j.record(Event::new("run-end", "2 ok"));
        let sorted = spec_ordered(j.events());
        let kinds_and_specs: Vec<(String, Option<u64>)> =
            sorted.iter().map(|e| (e.kind.clone(), e.spec)).collect();
        assert_eq!(
            kinds_and_specs,
            vec![
                ("run-start".to_owned(), None),
                ("experiment-start".to_owned(), Some(0)),
                ("experiment-end".to_owned(), Some(0)),
                ("experiment-start".to_owned(), Some(1)),
                ("experiment-end".to_owned(), Some(1)),
                ("run-end".to_owned(), None),
            ]
        );
        let seqs: Vec<u64> = sorted.iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3, 4, 5]);
        // Already-ordered journals pass through unchanged.
        assert_eq!(spec_ordered(&sorted), sorted);
    }
}
