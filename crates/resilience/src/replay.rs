//! Journal-driven replay: turn any captured event journal into a
//! regression test.
//!
//! A supervised run's journal records everything that shaped it: the
//! `run-start` event carries the [`RunnerConfig`] knobs that matter
//! (profile, seed, intensity, retries, breaker threshold), the
//! `experiment-start`/`breaker-skip` events name the experiments in
//! execution order, and every `fault` event records its kind, step, and
//! severity. [`reconstruct`] parses that back into a [`ReplaySpec`];
//! [`replay`] re-executes the experiments under exactly the same fault
//! schedule (the [`crate::FaultPlan`] is a pure function of the recovered
//! seed) and diffs the fresh journal's canonical events against the
//! captured ones, reporting the first divergence.
//!
//! Because the canonical journal is shard-invariant (see [`crate::shard`]),
//! a journal captured from a K-shard run replays on a single shard and
//! still matches byte-for-byte. Captures written in completion order
//! (e.g. raw per-worker journals) are handled by sorting both streams with
//! [`spec_ordered`] before diffing: the events' spec-index stamps recover
//! the deterministic spec order, so scheduling order can never register as
//! a false divergence. Journals from runs that hit wall-clock timeouts are
//! the one case replay cannot vouch for: deadlines are not reproducible,
//! so a `timeout` event may legitimately diverge.
//!
//! For finer-grained use, [`RecordedFaults`] is a [`FaultHook`] that plays
//! back an explicit `(step, kind) -> severity` schedule extracted from a
//! journal, letting a single experiment re-run under the exact faults a
//! past run saw without going through the supervisor at all.

use crate::fault::{FaultHook, FaultKind, FaultProfile, HookFork};
use crate::runner::{ExperimentSpec, RunnerConfig, SupervisedRun, Supervisor};
use humnet_telemetry::{spec_ordered, Event};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One fault injection recovered from a captured journal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RecordedFault {
    /// Which fault fired.
    pub kind: FaultKind,
    /// Simulator step it fired at.
    pub step: u64,
    /// Severity in `(0, 1]`.
    pub severity: f64,
}

/// A [`FaultHook`] that replays an explicit recorded schedule: `inject`
/// answers from the `(step, kind)` table instead of drawing from a plan,
/// so a simulator re-executes under exactly the faults a past run saw.
#[derive(Debug, Clone, Default)]
pub struct RecordedFaults {
    schedule: Arc<BTreeMap<(u64, &'static str), f64>>,
    injected: u64,
}

impl RecordedFaults {
    /// Hook replaying `faults` (later duplicates of a `(step, kind)` pair
    /// overwrite earlier ones).
    pub fn new(faults: &[RecordedFault]) -> Self {
        RecordedFaults {
            schedule: faults
                .iter()
                .map(|f| ((f.step, f.kind.label()), f.severity))
                .collect::<BTreeMap<_, _>>()
                .into(),
            injected: 0,
        }
    }

    /// Number of scheduled injections.
    pub fn len(&self) -> usize {
        self.schedule.len()
    }

    /// True when the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }
}

impl FaultHook for RecordedFaults {
    fn inject(&mut self, step: u64, kind: FaultKind) -> Option<f64> {
        let hit = self.schedule.get(&(step, kind.label())).copied();
        if hit.is_some() {
            self.injected += 1;
        }
        hit
    }

    fn faults_injected(&self) -> u64 {
        self.injected
    }

    fn fork(&self) -> HookFork {
        let schedule = Arc::clone(&self.schedule);
        HookFork::new(move |_| {
            Box::new(RecordedFaults {
                schedule,
                injected: 0,
            })
        })
    }

    fn join(&mut self, injected: u64) {
        self.injected += injected;
    }
}

/// Everything a captured journal says about how to re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplaySpec {
    /// Runner configuration recovered from the `run-start` event (the
    /// deadline keeps its default — it is not recorded).
    pub config: RunnerConfig,
    /// Experiment codes in captured execution order (including ones the
    /// breaker skipped).
    pub experiments: Vec<String>,
    /// Recorded fault schedule per experiment code, in journal order.
    pub faults: BTreeMap<String, Vec<RecordedFault>>,
}

/// Why a journal could not be reconstructed or replayed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The journal contains no events at all.
    EmptyJournal,
    /// No `run-start` event to recover the configuration from.
    MissingRunStart,
    /// A `run-start` token did not parse (`field`, `value`).
    MalformedRunStart {
        /// The `key` of the offending `key=value` token.
        field: String,
        /// Its unparseable value.
        value: String,
    },
    /// The journal names an experiment the caller's factory cannot build.
    UnknownExperiment(String),
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::EmptyJournal => write!(f, "journal contains no events"),
            ReplayError::MissingRunStart => {
                write!(
                    f,
                    "journal has no run-start event to recover the config from"
                )
            }
            ReplayError::MalformedRunStart { field, value } => {
                write!(
                    f,
                    "run-start field '{field}' has unparseable value '{value}'"
                )
            }
            ReplayError::UnknownExperiment(code) => {
                write!(f, "journal names unknown experiment '{code}'")
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Parse a captured journal back into a [`ReplaySpec`].
///
/// The `run-start` detail is read as `key=value` tokens; keys a journal
/// predates (older captures lack `intensity`/`retries`/`breaker`) fall
/// back to [`RunnerConfig::default`], so pre-sharding journals replay too.
/// Fault events with an unrecognized kind label are skipped rather than
/// fatal — the full-run replay path regenerates faults from the seed and
/// only uses this schedule for reporting and [`RecordedFaults`].
///
/// Events are first sorted with [`spec_ordered`], so a capture written in
/// completion order (e.g. raw per-worker journals from a sharded run)
/// reconstructs the same experiment order as the run's spec list.
pub fn reconstruct(events: &[Event]) -> Result<ReplaySpec, ReplayError> {
    if events.is_empty() {
        return Err(ReplayError::EmptyJournal);
    }
    let events = spec_ordered(events);
    let start = events
        .iter()
        .find(|e| e.kind == "run-start")
        .ok_or(ReplayError::MissingRunStart)?;

    let mut config = RunnerConfig::default();
    for token in start.detail.split_whitespace() {
        let Some((key, value)) = token.split_once('=') else {
            continue;
        };
        let malformed = || ReplayError::MalformedRunStart {
            field: key.to_owned(),
            value: value.to_owned(),
        };
        match key {
            "profile" => {
                config.profile = FaultProfile::parse(value).ok_or_else(malformed)?;
            }
            "seed" => config.seed = value.parse().map_err(|_| malformed())?,
            "intensity" => config.intensity = value.parse().map_err(|_| malformed())?,
            "retries" => config.retries = value.parse().map_err(|_| malformed())?,
            "breaker" => config.breaker_threshold = value.parse().map_err(|_| malformed())?,
            "cooldown" => config.breaker_cooldown = value.parse().map_err(|_| malformed())?,
            _ => {} // experiments=N and future keys are informational
        }
    }

    let mut experiments = Vec::new();
    let mut faults: BTreeMap<String, Vec<RecordedFault>> = BTreeMap::new();
    for event in events {
        match event.kind.as_str() {
            "experiment-start" | "breaker-skip"
                if !event.experiment.is_empty() && !experiments.contains(&event.experiment) =>
            {
                experiments.push(event.experiment.clone());
            }
            "fault" => {
                let (Some(kind), Some(step), Some(severity)) =
                    (FaultKind::parse(&event.detail), event.step, event.severity)
                else {
                    continue;
                };
                faults
                    .entry(event.experiment.clone())
                    .or_default()
                    .push(RecordedFault {
                        kind,
                        step,
                        severity,
                    });
            }
            _ => {}
        }
    }

    Ok(ReplaySpec {
        config,
        experiments,
        faults,
    })
}

/// The first point where a replayed journal stops matching the captured
/// one, in canonical-event terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Divergence {
    /// 0-based index into the canonical event sequence.
    pub index: usize,
    /// Captured line at that index (`None` when the capture is shorter).
    pub captured: Option<String>,
    /// Replayed line at that index (`None` when the replay is shorter).
    pub replayed: Option<String>,
}

/// Outcome of a full-journal replay.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Configuration the replay ran under (recovered from the journal).
    pub config: RunnerConfig,
    /// Experiment codes replayed, in order.
    pub experiments: Vec<String>,
    /// Canonical events in the captured journal.
    pub captured_events: usize,
    /// Canonical events the replay produced.
    pub replayed_events: usize,
    /// First divergence, or `None` when the replay matches byte-for-byte.
    pub divergence: Option<Divergence>,
    /// The fresh supervised run, for callers that want its outputs.
    pub run: SupervisedRun,
}

impl ReplayReport {
    /// True when the replayed canonical journal matches the captured one.
    pub fn is_clean(&self) -> bool {
        self.divergence.is_none()
    }

    /// Process exit code: 0 on a clean replay, 1 on divergence.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.is_clean())
    }

    /// Human-readable verdict, one paragraph.
    pub fn render(&self) -> String {
        let mut out = format!(
            "replay  profile={}  seed={}  experiments={}\n\
             captured {} canonical events, replayed {}\n",
            self.config.profile.label(),
            self.config.seed,
            self.experiments.len(),
            self.captured_events,
            self.replayed_events,
        );
        match &self.divergence {
            None => out.push_str("verdict: MATCH — replay reproduces the captured journal\n"),
            Some(d) => {
                out.push_str(&format!(
                    "verdict: DIVERGED at canonical event {}\n",
                    d.index
                ));
                let line = |side: &Option<String>| {
                    side.clone()
                        .unwrap_or_else(|| "(journal ends here)".to_owned())
                };
                out.push_str(&format!("  captured: {}\n", line(&d.captured)));
                out.push_str(&format!("  replayed: {}\n", line(&d.replayed)));
            }
        }
        out
    }
}

/// First index where two canonical event sequences differ.
pub fn first_divergence(captured: &[String], replayed: &[String]) -> Option<Divergence> {
    let n = captured.len().max(replayed.len());
    (0..n)
        .find(|&i| captured.get(i) != replayed.get(i))
        .map(|index| Divergence {
            index,
            captured: captured.get(index).cloned(),
            replayed: replayed.get(index).cloned(),
        })
}

/// Replay a captured journal end to end: [`reconstruct`] the spec, build
/// each experiment through `factory` (code → spec; the resilience crate
/// cannot know the experiment registry), re-execute under a single-shard
/// supervisor with the recovered configuration, and diff canonical event
/// streams. The fault schedule regenerates identically because the plan is
/// a pure function of the recovered seed. Both streams are sorted with
/// [`spec_ordered`] before the diff, so a capture in completion order
/// is compared in spec order and scheduling order cannot surface as a
/// false divergence.
pub fn replay(
    captured: &[Event],
    factory: &dyn Fn(&str) -> Option<ExperimentSpec>,
) -> Result<ReplayReport, ReplayError> {
    let spec = reconstruct(captured)?;
    let specs = spec
        .experiments
        .iter()
        .map(|code| factory(code).ok_or_else(|| ReplayError::UnknownExperiment(code.clone())))
        .collect::<Result<Vec<_>, _>>()?;
    let run = Supervisor::builder()
        .config(spec.config)
        .build()
        .run(&specs);
    let captured_canonical: Vec<String> = spec_ordered(captured)
        .iter()
        .map(Event::canonical)
        .collect();
    let replayed_canonical: Vec<String> = spec_ordered(&run.telemetry.events)
        .iter()
        .map(Event::canonical)
        .collect();
    Ok(ReplayReport {
        config: spec.config,
        experiments: spec.experiments,
        captured_events: captured_canonical.len(),
        replayed_events: replayed_canonical.len(),
        divergence: first_divergence(&captured_canonical, &replayed_canonical),
        run,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultPlan, PlanHook};
    use crate::runner::{JobError, JobOutput};
    use std::time::Duration;

    fn fault_spec(code: &str) -> ExperimentSpec {
        let owned = code.to_owned();
        ExperimentSpec::new(code, format!("title {code}"), "fam", move |plan, tel| {
            let mut faults = 0;
            for step in 0..60 {
                if let Some(sev) = plan.draw(step, FaultKind::LinkOutage) {
                    faults += 1;
                    tel.event(
                        Event::new("fault", FaultKind::LinkOutage.label())
                            .with_step(step)
                            .with_severity(sev),
                    );
                }
            }
            Ok::<JobOutput, JobError>(JobOutput {
                rendered: format!("{owned}: faults={faults}"),
                faults_injected: faults,
            })
        })
    }

    fn chaos_config() -> RunnerConfig {
        RunnerConfig {
            retries: 2,
            deadline: Duration::from_secs(10),
            profile: FaultProfile::Chaos,
            seed: 4242,
            ..RunnerConfig::default()
        }
    }

    fn factory(code: &str) -> Option<ExperimentSpec> {
        code.starts_with('e').then(|| fault_spec(code))
    }

    #[test]
    fn reconstruct_recovers_config_and_experiment_order() {
        let specs: Vec<ExperimentSpec> = (0..4).map(|i| fault_spec(&format!("e{i}"))).collect();
        let run = Supervisor::builder()
            .config(chaos_config())
            .build()
            .run(&specs);
        let spec = reconstruct(&run.telemetry.events).unwrap();
        assert_eq!(spec.config.profile, FaultProfile::Chaos);
        assert_eq!(spec.config.seed, 4242);
        assert_eq!(spec.config.retries, 2);
        assert_eq!(spec.experiments, vec!["e0", "e1", "e2", "e3"]);
        // Recorded faults match what the report counted.
        let recorded: u64 = spec.faults.values().map(|v| v.len() as u64).sum();
        assert_eq!(recorded, run.report.total_faults());
    }

    #[test]
    fn replay_of_a_fresh_capture_is_clean() {
        let specs: Vec<ExperimentSpec> = (0..3).map(|i| fault_spec(&format!("e{i}"))).collect();
        let run = Supervisor::builder()
            .config(chaos_config())
            .build()
            .run(&specs);
        let report = replay(&run.telemetry.events, &factory).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.exit_code(), 0);
        assert_eq!(report.captured_events, report.replayed_events);
        assert!(report.render().contains("MATCH"));
    }

    #[test]
    fn replay_detects_a_tampered_journal() {
        let specs = vec![fault_spec("e0"), fault_spec("e1")];
        let run = Supervisor::builder()
            .config(chaos_config())
            .build()
            .run(&specs);
        let mut tampered = run.telemetry.events.clone();
        // Flip one recorded fault's step: replay must flag exactly that line.
        let idx = tampered.iter().position(|e| e.kind == "fault").unwrap();
        tampered[idx].step = Some(9_999);
        let report = replay(&tampered, &factory).unwrap();
        let d = report.divergence.clone().expect("divergence expected");
        assert_eq!(d.index, idx);
        assert_eq!(report.exit_code(), 1);
        assert!(report.render().contains("DIVERGED"));
    }

    #[test]
    fn replay_errors_are_specific() {
        assert_eq!(reconstruct(&[]), Err(ReplayError::EmptyJournal));
        let no_start = vec![Event::new("milestone", "x")];
        assert_eq!(reconstruct(&no_start), Err(ReplayError::MissingRunStart));
        let bad = vec![Event::new("run-start", "profile=warp seed=1")];
        assert!(matches!(
            reconstruct(&bad),
            Err(ReplayError::MalformedRunStart { .. })
        ));
        let specs = vec![fault_spec("e0")];
        let run = Supervisor::builder()
            .config(chaos_config())
            .build()
            .run(&specs);
        let err = replay(&run.telemetry.events, &|_| None).unwrap_err();
        assert_eq!(err, ReplayError::UnknownExperiment("e0".to_owned()));
    }

    #[test]
    fn pre_sharding_run_start_lines_fall_back_to_defaults() {
        // PR-2 era journals carried only profile/seed/experiments.
        let events = vec![
            Event::new("run-start", "profile=churn seed=9 experiments=1"),
            Event::new("experiment-start", "t").in_experiment("e0"),
        ];
        let spec = reconstruct(&events).unwrap();
        assert_eq!(spec.config.profile, FaultProfile::Churn);
        assert_eq!(spec.config.seed, 9);
        assert_eq!(spec.config.retries, RunnerConfig::default().retries);
        assert_eq!(spec.experiments, vec!["e0"]);
    }

    #[test]
    fn recorded_faults_reproduce_a_plan_exactly() {
        let plan = FaultPlan::new(FaultProfile::Chaos, 31);
        let mut live = PlanHook::new(plan);
        let mut recorded = Vec::new();
        for step in 0..200 {
            for kind in FaultKind::ALL {
                if let Some(severity) = live.inject(step, kind) {
                    recorded.push(RecordedFault {
                        kind,
                        step,
                        severity,
                    });
                }
            }
        }
        let mut playback = RecordedFaults::new(&recorded);
        assert_eq!(playback.len(), recorded.len());
        for step in 0..200 {
            for kind in FaultKind::ALL {
                assert_eq!(plan.draw(step, kind), playback.inject(step, kind));
            }
        }
        assert_eq!(playback.faults_injected(), live.faults_injected());
        // Steps the capture never saw stay fault-free.
        assert_eq!(playback.inject(10_000, FaultKind::IxpOutage), None);
    }
}
