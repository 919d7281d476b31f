//! The round-based agenda simulation.
//!
//! Each round, every researcher (a) picks a problem according to the
//! regime's discovery weights, (b) publishes on it with probability equal
//! to the regime's throughput. A publication:
//!
//! * marks the problem surfaced (first time only);
//! * increments its publication count (feeding the data-driven loop);
//! * nudges its funding and visibility upward (success breeds telemetry
//!   and grants — the instrumentation feedback the paper describes).

use crate::model::{ProblemSpace, SpaceConfig, StakeholderClass};
use crate::regime::MethodRegime;
use crate::{AgendaError, Result};
use humnet_resilience::{FaultHook, FaultKind};
use humnet_stats::{CumulativeWeights, Rng};
use humnet_telemetry::{Event, Telemetry};

/// The methods whose weights a `regime` draws from. Under the Mixed
/// regime each researcher-round flips between data-driven and
/// participatory work (a population half of whom work each way), so it
/// keeps both.
fn methods(regime: MethodRegime) -> &'static [MethodRegime] {
    match regime {
        MethodRegime::Mixed => &[MethodRegime::DataDriven, MethodRegime::Par],
        MethodRegime::DataDriven => &[MethodRegime::DataDriven],
        MethodRegime::Par => &[MethodRegime::Par],
        MethodRegime::Ethnographic => &[MethodRegime::Ethnographic],
    }
}

/// Configuration of an agenda run.
#[derive(Debug, Clone, PartialEq)]
pub struct AgendaConfig {
    /// The problem space.
    pub space: SpaceConfig,
    /// Number of researchers.
    pub researchers: usize,
    /// Rounds to simulate (think "publication cycles").
    pub rounds: u32,
    /// Method regime of the researcher population.
    pub regime: MethodRegime,
    /// Per-publication funding boost to the problem.
    pub funding_feedback: f64,
    /// Per-publication visibility boost to the problem (instrumentation
    /// follows attention).
    pub visibility_feedback: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for AgendaConfig {
    fn default() -> Self {
        AgendaConfig {
            space: SpaceConfig::default(),
            researchers: 200,
            rounds: 60,
            regime: MethodRegime::DataDriven,
            funding_feedback: 0.01,
            visibility_feedback: 0.01,
            seed: 1,
        }
    }
}

/// A per-round snapshot of aggregate state.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundSnapshot {
    /// Round index.
    pub round: u32,
    /// Problems surfaced so far.
    pub surfaced: usize,
    /// Marginalized problems surfaced so far.
    pub surfaced_marginalized: usize,
    /// Publications so far.
    pub publications: u64,
}

/// The simulation.
#[derive(Debug, Clone)]
pub struct AgendaSim {
    config: AgendaConfig,
    space: ProblemSpace,
    /// One sampler per method of [`methods`]`(config.regime)`, in that
    /// order, over every problem's current discovery weight. Only
    /// `publish` changes a problem, and each publication refreshes its
    /// entry, so the samplers stay current across rounds.
    samplers: Vec<CumulativeWeights>,
    rng: Rng,
    history: Vec<RoundSnapshot>,
    round: u32,
}

impl AgendaSim {
    /// Create a simulation.
    pub fn new(config: AgendaConfig) -> Result<Self> {
        if config.researchers == 0 {
            return Err(AgendaError::InvalidParameter("researchers must be >= 1"));
        }
        if config.rounds == 0 {
            return Err(AgendaError::InvalidParameter("rounds must be >= 1"));
        }
        if config.funding_feedback < 0.0 || config.visibility_feedback < 0.0 {
            return Err(AgendaError::InvalidParameter("feedback must be >= 0"));
        }
        let mut rng = Rng::new(config.seed);
        let space = ProblemSpace::generate(&config.space, &mut rng)?;
        let samplers = methods(config.regime)
            .iter()
            .map(|&m| {
                CumulativeWeights::new(
                    space
                        .problems
                        .iter()
                        .map(|p| m.discovery_weight(p))
                        .collect(),
                )
            })
            .collect();
        Ok(AgendaSim {
            config,
            space,
            samplers,
            rng,
            history: Vec::new(),
            round: 0,
        })
    }

    /// Run all configured rounds under a fault hook and return the
    /// history. Each round the hook is asked about
    /// [`FaultKind::ReviewerNoShow`] (a slice of the researcher population
    /// skips the round) and [`FaultKind::VolunteerDropout`] (a temporary
    /// funding-attention shock: feedback loops stall this round).
    ///
    /// Telemetry: an `agenda.run` span, a per-round `agenda.step_ns`
    /// histogram, round/publication counters, and a final milestone event.
    /// Telemetry only observes; it never touches the simulated trajectory.
    pub fn run(&mut self, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<&[RoundSnapshot]> {
        let _span = tel.span("agenda.run");
        for _ in 0..self.config.rounds {
            self.step(hook, tel);
        }
        tel.counter("agenda.rounds", u64::from(self.config.rounds));
        if let Some(last) = self.history.last() {
            tel.counter("agenda.publications", last.publications);
            tel.gauge("agenda.surfaced", last.surfaced as f64);
            tel.event(
                Event::new(
                    "milestone",
                    format!(
                        "agenda: {} rounds, {} publications, {} problems surfaced",
                        self.config.rounds, last.publications, last.surfaced
                    ),
                )
                .with_step(u64::from(last.round)),
            );
        }
        Ok(&self.history)
    }

    /// Advance one round under a fault hook, observing its duration into
    /// the `agenda.step_ns` histogram.
    pub fn step(&mut self, hook: &mut dyn FaultHook, tel: &Telemetry) {
        let t0 = tel.start();
        let (active, feedback_scale) = self.round_faults(hook);
        let regime = self.config.regime;
        let methods = methods(regime);
        for _ in 0..active {
            // The Mixed flip is the only extra draw: heads works
            // data-driven (slot 0), tails participatory (slot 1).
            let slot = match regime {
                MethodRegime::Mixed if !self.rng.chance(0.5) => 1,
                _ => 0,
            };
            let pick = self.samplers[slot].sample(&mut self.rng);
            if self.rng.chance(methods[slot].throughput()) {
                self.publish(pick, feedback_scale);
                // A weight is a pure function of its problem's state, so
                // the published problem's entry is the only one to refresh.
                let p = &self.space.problems[pick];
                for (m, w) in methods.iter().zip(&mut self.samplers) {
                    w.set(pick, m.discovery_weight(p));
                }
            }
        }
        self.close_round();
        tel.observe_since("agenda.step_ns", t0);
    }

    /// Ask the hook about this round's faults: the number of active
    /// researchers and the scale applied to publication feedback.
    fn round_faults(&self, hook: &mut dyn FaultHook) -> (usize, f64) {
        let step = u64::from(self.round);
        // Reviewer no-shows thin this round's researcher pool.
        let active = match hook.inject(step, FaultKind::ReviewerNoShow) {
            Some(severity) => {
                let kept = (self.config.researchers as f64 * (1.0 - severity)).ceil() as usize;
                kept.max(1)
            }
            None => self.config.researchers,
        };
        // A volunteer-dropout spike freezes the funding/visibility feedback
        // loops for the round (nobody is around to chase the telemetry).
        let feedback_scale = match hook.inject(step, FaultKind::VolunteerDropout) {
            Some(severity) => 1.0 - severity,
            None => 1.0,
        };
        (active, feedback_scale)
    }

    /// Record a publication on problem `pick`.
    fn publish(&mut self, pick: usize, feedback_scale: f64) {
        let p = &mut self.space.problems[pick];
        if p.surfaced_round.is_none() {
            p.surfaced_round = Some(self.round);
        }
        p.publications += 1;
        p.funding = (p.funding + self.config.funding_feedback * feedback_scale).min(1.0);
        p.visibility = (p.visibility + self.config.visibility_feedback * feedback_scale).min(1.0);
    }

    /// Snapshot the round into the history and advance the round counter.
    fn close_round(&mut self) {
        let surfaced = self
            .space
            .problems
            .iter()
            .filter(|p| p.surfaced_round.is_some())
            .count();
        let surfaced_marginalized = self
            .space
            .problems
            .iter()
            .filter(|p| p.surfaced_round.is_some() && p.stakeholder.is_marginalized())
            .count();
        let publications = self
            .space
            .problems
            .iter()
            .map(|p| p.publications as u64)
            .sum();
        self.history.push(RoundSnapshot {
            round: self.round,
            surfaced,
            surfaced_marginalized,
            publications,
        });
        self.round += 1;
    }

    /// The problem space, as the rounds so far have left it.
    pub fn space(&self) -> &ProblemSpace {
        &self.space
    }

    /// The recorded history.
    pub fn history(&self) -> &[RoundSnapshot] {
        &self.history
    }

    /// Count of marginalized problems in the space.
    pub fn marginalized_total(&self) -> usize {
        self.space
            .problems
            .iter()
            .filter(|p| p.stakeholder.is_marginalized())
            .count()
    }

    /// Publications per stakeholder class, in [`StakeholderClass::ALL`] order.
    pub fn attention(&self) -> Vec<(StakeholderClass, u64)> {
        StakeholderClass::ALL
            .iter()
            .map(|&c| {
                let pubs = self
                    .space
                    .problems
                    .iter()
                    .filter(|p| p.stakeholder == c)
                    .map(|p| p.publications as u64)
                    .sum();
                (c, pubs)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::NoFaults;

    fn run(regime: MethodRegime, seed: u64) -> AgendaSim {
        let mut cfg = AgendaConfig::default();
        cfg.regime = regime;
        cfg.seed = seed;
        let mut sim = AgendaSim::new(cfg).unwrap();
        sim.run(&mut NoFaults, &Telemetry::disabled()).unwrap();
        sim
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = AgendaConfig::default();
        cfg.researchers = 0;
        assert!(AgendaSim::new(cfg).is_err());
        let mut cfg = AgendaConfig::default();
        cfg.rounds = 0;
        assert!(AgendaSim::new(cfg).is_err());
        let mut cfg = AgendaConfig::default();
        cfg.funding_feedback = -0.1;
        assert!(AgendaSim::new(cfg).is_err());
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(MethodRegime::DataDriven, 7);
        let b = run(MethodRegime::DataDriven, 7);
        assert_eq!(a.history(), b.history());
        assert_eq!(a.attention(), b.attention());
    }

    #[test]
    fn history_is_monotone() {
        let sim = run(MethodRegime::DataDriven, 1);
        for w in sim.history().windows(2) {
            assert!(w[1].surfaced >= w[0].surfaced);
            assert!(w[1].publications >= w[0].publications);
            assert!(w[1].surfaced_marginalized >= w[0].surfaced_marginalized);
        }
        assert_eq!(sim.history().len(), 60);
    }

    #[test]
    fn data_driven_concentrates_on_funded_visible_problems() {
        let sim = run(MethodRegime::DataDriven, 3);
        let attention = sim.attention();
        let get =
            |c: StakeholderClass| attention.iter().find(|&&(cl, _)| cl == c).unwrap().1 as f64;
        let hyper = get(StakeholderClass::Hyperscaler);
        let community = get(StakeholderClass::CommunityOperator);
        assert!(
            hyper > 3.0 * community,
            "hyperscaler attention {hyper} should dwarf community {community}"
        );
    }

    #[test]
    fn par_surfaces_marginalized_problems_faster() {
        let dd = run(MethodRegime::DataDriven, 5);
        let par = run(MethodRegime::Par, 5);
        let dd_frac = dd.history().last().unwrap().surfaced_marginalized as f64
            / dd.marginalized_total() as f64;
        let par_frac = par.history().last().unwrap().surfaced_marginalized as f64
            / par.marginalized_total() as f64;
        assert!(
            par_frac > dd_frac,
            "par coverage {par_frac} should beat data-driven {dd_frac}"
        );
    }

    #[test]
    fn data_driven_publishes_more_in_total() {
        let dd = run(MethodRegime::DataDriven, 9);
        let eth = run(MethodRegime::Ethnographic, 9);
        assert!(
            dd.history().last().unwrap().publications > eth.history().last().unwrap().publications
        );
    }

    #[test]
    fn mixed_sits_between_extremes_on_marginalized_coverage() {
        // Average over a few seeds for robustness.
        let frac = |regime| {
            (0..4)
                .map(|s| {
                    let sim = run(regime, s);
                    sim.history().last().unwrap().surfaced_marginalized as f64
                        / sim.marginalized_total() as f64
                })
                .sum::<f64>()
                / 4.0
        };
        let dd = frac(MethodRegime::DataDriven);
        let mixed = frac(MethodRegime::Mixed);
        let par = frac(MethodRegime::Par);
        assert!(
            par >= mixed && mixed >= dd,
            "par {par} mixed {mixed} dd {dd}"
        );
    }

    #[test]
    fn faulted_run_stays_valid_and_deterministic() {
        use humnet_resilience::{FaultPlan, FaultProfile, PlanHook};
        let faulted = |seed| {
            let mut cfg = AgendaConfig::default();
            cfg.seed = 7;
            let mut sim = AgendaSim::new(cfg).unwrap();
            let mut hook = PlanHook::new(FaultPlan::new(FaultProfile::Chaos, seed));
            sim.run(&mut hook, &Telemetry::disabled()).unwrap();
            (sim, hook.faults_injected())
        };
        let (a, faults_a) = faulted(13);
        let (b, faults_b) = faulted(13);
        assert!(faults_a > 0, "chaos profile should inject faults");
        assert_eq!(faults_a, faults_b);
        assert_eq!(a.history(), b.history());
        // Degraded, not corrupted: history invariants still hold.
        for w in a.history().windows(2) {
            assert!(w[1].surfaced >= w[0].surfaced);
            assert!(w[1].publications >= w[0].publications);
        }
        // An inactive plan reproduces the fault-free run exactly.
        let plain = run(MethodRegime::DataDriven, 7);
        let mut cfg = AgendaConfig::default();
        cfg.seed = 7;
        let mut hooked = AgendaSim::new(cfg).unwrap();
        hooked
            .run(
                &mut PlanHook::new(FaultPlan::none()),
                &Telemetry::disabled(),
            )
            .unwrap();
        assert_eq!(plain.history(), hooked.history());
    }

    /// The round as it reads without the weight cache: every researcher
    /// rebuilds the full weight vector before drawing.
    fn reference_step(sim: &mut AgendaSim, hook: &mut dyn FaultHook) {
        let (active, feedback_scale) = sim.round_faults(hook);
        for _ in 0..active {
            let effective = if sim.config.regime == MethodRegime::Mixed {
                if sim.rng.chance(0.5) {
                    MethodRegime::DataDriven
                } else {
                    MethodRegime::Par
                }
            } else {
                sim.config.regime
            };
            let weights: Vec<f64> = sim
                .space
                .problems
                .iter()
                .map(|p| effective.discovery_weight(p))
                .collect();
            let pick = sim.rng.choose_weighted(&weights);
            if sim.rng.chance(effective.throughput()) {
                sim.publish(pick, feedback_scale);
            }
        }
        sim.close_round();
    }

    #[test]
    fn cached_weights_match_per_researcher_rebuild() {
        use humnet_resilience::{FaultPlan, FaultProfile, PlanHook};
        let off = Telemetry::disabled();
        for regime in MethodRegime::ALL {
            for seed in [1, 7, 42] {
                let mut cfg = AgendaConfig::default();
                cfg.regime = regime;
                cfg.seed = seed;
                let hooks = || -> [Box<dyn FaultHook>; 2] {
                    [
                        Box::new(NoFaults),
                        Box::new(PlanHook::new(FaultPlan::new(FaultProfile::Chaos, seed))),
                    ]
                };
                for (mut fast_hook, mut ref_hook) in hooks().into_iter().zip(hooks()) {
                    let mut fast = AgendaSim::new(cfg.clone()).unwrap();
                    fast.run(fast_hook.as_mut(), &off).unwrap();
                    let mut reference = AgendaSim::new(cfg.clone()).unwrap();
                    for _ in 0..cfg.rounds {
                        reference_step(&mut reference, ref_hook.as_mut());
                    }
                    assert_eq!(
                        fast.history(),
                        reference.history(),
                        "{regime:?} seed {seed}"
                    );
                    assert_eq!(fast.space, reference.space, "{regime:?} seed {seed}");
                    assert_eq!(fast_hook.faults_injected(), ref_hook.faults_injected());
                }
            }
        }
    }

    #[test]
    fn feedback_grows_visibility_and_funding() {
        let sim = run(MethodRegime::DataDriven, 11);
        let hot = sim
            .space
            .problems
            .iter()
            .max_by_key(|p| p.publications)
            .unwrap();
        assert!(hot.publications > 0);
        // The most-published problem has had its attributes pushed up.
        assert!(hot.funding >= 0.9 || hot.visibility >= 0.9);
    }
}
