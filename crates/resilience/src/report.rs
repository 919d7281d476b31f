//! Per-experiment outcome records and the aggregated [`RunReport`].
//!
//! The report renders through `humnet_telemetry::TextTable` — the same
//! renderer the metrics tables use — and its headline numbers are pushed
//! into the run-level telemetry via [`RunReport::record_metrics`], so the
//! human-readable report and the metrics snapshot cannot drift apart.

use humnet_telemetry::{Telemetry, TextTable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Outcome of one supervised experiment, worst-last.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ExperimentStatus {
    /// Completed first try with no faults injected.
    Ok,
    /// Completed first try, but the fault plan fired at least once.
    Degraded,
    /// Completed only after one or more retries.
    Retried,
    /// Exceeded the wall-clock deadline on every attempt.
    TimedOut,
    /// Returned an error (or panicked, or hit an open breaker) on every attempt.
    Failed,
}

impl ExperimentStatus {
    /// Fixed-width label for the report table.
    pub fn label(self) -> &'static str {
        match self {
            ExperimentStatus::Ok => "ok",
            ExperimentStatus::Degraded => "degraded",
            ExperimentStatus::Retried => "retried",
            ExperimentStatus::TimedOut => "timed-out",
            ExperimentStatus::Failed => "failed",
        }
    }

    /// Whether the experiment ultimately produced a result.
    pub fn completed(self) -> bool {
        !matches!(self, ExperimentStatus::TimedOut | ExperimentStatus::Failed)
    }
}

impl fmt::Display for ExperimentStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // `pad` (not `write_str`) so `{:<9}` table alignment works.
        f.pad(self.label())
    }
}

/// One row of the run report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentReport {
    /// Short experiment code (e.g. `fig1`, `tab3`).
    pub code: String,
    /// Human-readable title.
    pub title: String,
    /// Family / subsystem the experiment belongs to (breaker granularity).
    pub family: String,
    /// Final status after all attempts.
    pub status: ExperimentStatus,
    /// Attempts actually executed (0 when short-circuited by the breaker).
    pub attempts: u32,
    /// Faults the plan injected during the successful attempt.
    pub faults_injected: u64,
    /// Error message for `Failed`/`TimedOut`, empty otherwise.
    pub message: String,
    /// Wall-clock milliseconds across all attempts (excluded from the
    /// canonical rendering — it is not reproducible).
    pub duration_ms: u64,
}

/// Aggregated outcome of a supervised run over all experiments.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Per-experiment rows, in execution order.
    pub experiments: Vec<ExperimentReport>,
    /// Fault profile label the run was configured with.
    pub profile: String,
    /// Seed the fault plan and jitter streams were derived from.
    pub seed: u64,
    /// Code revision that produced the report ([`crate::code_rev`]);
    /// empty on hand-built reports.
    pub code_rev: String,
}

impl RunReport {
    /// Worst status across all experiments (`Ok` when the report is empty).
    pub fn worst(&self) -> ExperimentStatus {
        self.experiments
            .iter()
            .map(|e| e.status)
            .max()
            .unwrap_or(ExperimentStatus::Ok)
    }

    /// Process exit code the run should terminate with:
    /// `Failed` → 1, `TimedOut` → 2, anything completed → 0.
    pub fn exit_code(&self) -> i32 {
        match self.worst() {
            ExperimentStatus::Failed => 1,
            ExperimentStatus::TimedOut => 2,
            _ => 0,
        }
    }

    /// Count of experiments with the given status.
    pub fn count(&self, status: ExperimentStatus) -> usize {
        self.experiments
            .iter()
            .filter(|e| e.status == status)
            .count()
    }

    /// Append another report's rows (sharded-run aggregation: shard
    /// reports concatenate in shard order, which — with contiguous shard
    /// slices — reconstructs the original spec order).
    pub fn absorb(&mut self, other: RunReport) {
        self.experiments.extend(other.experiments);
    }

    /// Total faults injected across all experiments.
    pub fn total_faults(&self) -> u64 {
        self.experiments.iter().map(|e| e.faults_injected).sum()
    }

    /// One-line summary: `17 experiments: 13 ok, 3 degraded, 1 failed`.
    pub fn summary_line(&self) -> String {
        let mut parts = Vec::new();
        for status in [
            ExperimentStatus::Ok,
            ExperimentStatus::Degraded,
            ExperimentStatus::Retried,
            ExperimentStatus::TimedOut,
            ExperimentStatus::Failed,
        ] {
            let n = self.count(status);
            if n > 0 {
                parts.push(format!("{n} {}", status.label()));
            }
        }
        if parts.is_empty() {
            parts.push("nothing run".to_owned());
        }
        format!(
            "{} experiments: {}",
            self.experiments.len(),
            parts.join(", ")
        )
    }

    /// The `run report` header line. The rev token only appears on
    /// stamped reports, so hand-built reports (and pre-stamp captures)
    /// render exactly as before.
    fn header(&self) -> String {
        if self.code_rev.is_empty() {
            format!("run report  profile={}  seed={}\n", self.profile, self.seed)
        } else {
            format!(
                "run report  profile={}  seed={}  rev={}\n",
                self.profile, self.seed, self.code_rev
            )
        }
    }

    /// Human-readable table including wall-clock durations.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header());
        out.push_str(&self.render_rows(true));
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Byte-reproducible rendering: identical configuration (seed, profile,
    /// retries, deadline) must yield identical canonical text, so wall-clock
    /// durations are excluded.
    pub fn canonical(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header());
        out.push_str(&self.render_rows(false));
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Push the report's headline numbers into the run-level telemetry so
    /// the metrics snapshot carries the same counts the rendered report
    /// shows: experiment/attempt/fault totals and one counter per status
    /// actually present.
    pub fn record_metrics(&self, tel: &Telemetry) {
        tel.counter("runner.experiments", self.experiments.len() as u64);
        tel.counter(
            "runner.attempts",
            self.experiments.iter().map(|e| u64::from(e.attempts)).sum(),
        );
        tel.counter("runner.faults_injected", self.total_faults());
        for status in [
            ExperimentStatus::Ok,
            ExperimentStatus::Degraded,
            ExperimentStatus::Retried,
            ExperimentStatus::TimedOut,
            ExperimentStatus::Failed,
        ] {
            let n = self.count(status);
            if n > 0 {
                tel.counter(&format!("runner.status.{}", status.label()), n as u64);
            }
        }
    }

    fn render_rows(&self, with_durations: bool) -> String {
        let mut headers = vec!["code", "family", "status", "attempts", "faults"];
        if with_durations {
            headers.push("duration");
        }
        headers.push("experiment");
        let mut table = TextTable::new(&headers);
        for e in &self.experiments {
            let mut cells = vec![
                e.code.clone(),
                e.family.clone(),
                e.status.label().to_owned(),
                e.attempts.to_string(),
                e.faults_injected.to_string(),
            ];
            if with_durations {
                // Fixed width so CI's duration-stripping diff of two
                // same-seed runs sees identical column alignment.
                cells.push(format!("{:>6}ms", e.duration_ms));
            }
            let mut experiment = e.title.clone();
            if !e.message.is_empty() {
                experiment.push_str(&format!("  [{}]", e.message));
            }
            cells.push(experiment);
            table.row(cells);
        }
        table.render()
    }
}

/// The serializable half of a [`crate::SupervisedRun`]: what a shard child
/// process writes with `--report-out` and the cross-process dispatcher
/// reads back. Telemetry travels separately (`--metrics-out` carries the
/// full [`humnet_telemetry::TelemetrySnapshot`], events included).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunArtifact {
    /// Per-experiment statuses and the aggregate verdict.
    pub report: RunReport,
    /// Rendered output of every experiment that completed, by code.
    pub outputs: BTreeMap<String, String>,
}

impl RunArtifact {
    /// Pretty-printed JSON (the `--report-out` file format).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a `--report-out` file back.
    pub fn from_json(text: &str) -> Result<RunArtifact, serde_json::Error> {
        serde_json::from_str(text)
    }

    /// Byte-reproducible form: wall-clock durations zeroed, everything
    /// else untouched. Two same-seed runs of the same binary serialize a
    /// canonicalized artifact to identical bytes — the invariant the
    /// serve cache's hit-equals-miss contract rests on — so this is what
    /// `--report-out` writes and what the daemon caches.
    pub fn canonicalized(&self) -> RunArtifact {
        let mut out = self.clone();
        for row in &mut out.report.experiments {
            row.duration_ms = 0;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(code: &str, status: ExperimentStatus) -> ExperimentReport {
        ExperimentReport {
            code: code.to_owned(),
            title: format!("experiment {code}"),
            family: "agenda".to_owned(),
            status,
            attempts: 1,
            faults_injected: 0,
            message: String::new(),
            duration_ms: 12,
        }
    }

    #[test]
    fn worst_and_exit_code_track_severity() {
        let mut r = RunReport::default();
        assert_eq!(r.worst(), ExperimentStatus::Ok);
        assert_eq!(r.exit_code(), 0);
        r.experiments.push(row("f1", ExperimentStatus::Degraded));
        r.experiments.push(row("f2", ExperimentStatus::Retried));
        assert_eq!(r.worst(), ExperimentStatus::Retried);
        assert_eq!(r.exit_code(), 0);
        r.experiments.push(row("f3", ExperimentStatus::TimedOut));
        assert_eq!(r.exit_code(), 2);
        r.experiments.push(row("f4", ExperimentStatus::Failed));
        assert_eq!(r.worst(), ExperimentStatus::Failed);
        assert_eq!(r.exit_code(), 1);
    }

    #[test]
    fn canonical_excludes_durations() {
        let mut a = RunReport::default();
        a.experiments.push(row("f1", ExperimentStatus::Ok));
        let mut b = a.clone();
        b.experiments[0].duration_ms = 99_999;
        assert_eq!(a.canonical(), b.canonical());
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn summary_line_lists_only_present_statuses() {
        let mut r = RunReport::default();
        r.experiments.push(row("f1", ExperimentStatus::Ok));
        r.experiments.push(row("f2", ExperimentStatus::Ok));
        r.experiments.push(row("f3", ExperimentStatus::Failed));
        assert_eq!(r.summary_line(), "3 experiments: 2 ok, 1 failed");
    }

    #[test]
    fn render_goes_through_the_shared_table() {
        let mut r = RunReport::default();
        r.profile = "chaos".to_owned();
        r.experiments.push(row("f1", ExperimentStatus::Ok));
        let full = r.render();
        assert!(full.contains("| code |"), "{full}");
        assert!(full.contains("| duration |"), "{full}");
        assert!(full.contains("12ms"), "{full}");
        let canonical = r.canonical();
        assert!(!canonical.contains("duration"), "{canonical}");
        assert!(!canonical.contains("ms"), "{canonical}");
    }

    #[test]
    fn record_metrics_mirrors_the_report() {
        use humnet_telemetry::Telemetry;
        let mut r = RunReport::default();
        r.experiments.push(row("f1", ExperimentStatus::Ok));
        r.experiments.push(row("f2", ExperimentStatus::Failed));
        r.experiments[1].faults_injected = 4;
        let tel = Telemetry::new();
        r.record_metrics(&tel);
        let snap = tel.snapshot();
        assert_eq!(snap.metrics.counters["runner.experiments"], 2);
        assert_eq!(snap.metrics.counters["runner.attempts"], 2);
        assert_eq!(snap.metrics.counters["runner.faults_injected"], 4);
        assert_eq!(snap.metrics.counters["runner.status.ok"], 1);
        assert_eq!(snap.metrics.counters["runner.status.failed"], 1);
        assert!(!snap.metrics.counters.contains_key("runner.status.retried"));
    }

    #[test]
    fn code_rev_renders_only_when_stamped() {
        let mut r = RunReport::default();
        r.experiments.push(row("f1", ExperimentStatus::Ok));
        assert!(!r.render().contains("rev="), "{}", r.render());
        r.code_rev = "0.1.0+abcdef123456".to_owned();
        assert!(r.render().contains("rev=0.1.0+abcdef123456"));
        assert!(r.canonical().contains("rev=0.1.0+abcdef123456"));
    }

    #[test]
    fn canonicalized_artifact_zeroes_durations_only() {
        let mut report = RunReport::default();
        report.code_rev = "0.1.0+feedface0000".to_owned();
        report.experiments.push(row("f1", ExperimentStatus::Ok));
        let mut artifact = RunArtifact {
            report,
            outputs: std::iter::once(("f1".to_owned(), "out".to_owned())).collect(),
        };
        artifact.report.experiments[0].duration_ms = 777;
        let mut other = artifact.clone();
        other.report.experiments[0].duration_ms = 12;
        assert_ne!(artifact.to_json().unwrap(), other.to_json().unwrap());
        let a = artifact.canonicalized();
        let b = other.canonicalized();
        assert_eq!(a.to_json().unwrap(), b.to_json().unwrap());
        assert_eq!(a.report.experiments[0].duration_ms, 0);
        assert_eq!(a.report.code_rev, "0.1.0+feedface0000");
        assert_eq!(a.outputs["f1"], "out");
        // Canonicalization does not mutate the original.
        assert_eq!(artifact.report.experiments[0].duration_ms, 777);
    }

    #[test]
    fn completed_partition() {
        assert!(ExperimentStatus::Ok.completed());
        assert!(ExperimentStatus::Degraded.completed());
        assert!(ExperimentStatus::Retried.completed());
        assert!(!ExperimentStatus::TimedOut.completed());
        assert!(!ExperimentStatus::Failed.completed());
    }
}
