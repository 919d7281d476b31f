//! Simulated coding studies.
//!
//! **Substitution note (DESIGN.md §1).** We have no human coders, so
//! experiment **T2** simulates them: transcripts carry a latent ground-truth
//! code per turn; each simulated coder recovers the true code with a
//! per-coder accuracy that *rises with codebook refinement rounds* (crisper
//! definitions → fewer misreadings), and otherwise errs to a random other
//! code. This reproduces the universally observed dynamic that agreement
//! statistics climb across refinement rounds and saturate below 1.

use crate::reliability::{fleiss_kappa, krippendorff_alpha, percent_agreement};
use crate::{QualError, Result};
use humnet_resilience::{FaultHook, FaultKind};
use humnet_stats::Rng;
use humnet_telemetry::{Event, Telemetry};

/// One simulated coder.
#[derive(Debug, Clone, PartialEq)]
pub struct CoderProfile {
    /// Coder label.
    pub name: String,
    /// Probability of assigning the true code at round 0.
    pub base_accuracy: f64,
    /// Asymptotic accuracy as the codebook is refined.
    pub max_accuracy: f64,
    /// Probability of skipping (not coding) a unit.
    pub skip_rate: f64,
}

impl CoderProfile {
    /// Effective accuracy after `round` refinement rounds: an exponential
    /// approach from base to max with time constant `tau` rounds.
    pub fn accuracy_at(&self, round: u32, tau: f64) -> f64 {
        let f = 1.0 - (-(round as f64) / tau).exp();
        (self.base_accuracy + (self.max_accuracy - self.base_accuracy) * f).clamp(0.0, 1.0)
    }
}

/// Configuration of a simulated coding study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyConfig {
    /// Number of units (turns) to code.
    pub units: usize,
    /// Number of codes in the codebook.
    pub codes: usize,
    /// The coder pool.
    pub coders: Vec<CoderProfile>,
    /// Refinement time-constant (rounds to reach ~63% of the gain).
    pub tau: f64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig {
            units: 200,
            codes: 6,
            coders: vec![
                CoderProfile {
                    name: "coder-A".into(),
                    base_accuracy: 0.55,
                    max_accuracy: 0.93,
                    skip_rate: 0.02,
                },
                CoderProfile {
                    name: "coder-B".into(),
                    base_accuracy: 0.50,
                    max_accuracy: 0.90,
                    skip_rate: 0.03,
                },
                CoderProfile {
                    name: "coder-C".into(),
                    base_accuracy: 0.60,
                    max_accuracy: 0.95,
                    skip_rate: 0.01,
                },
            ],
            tau: 1.5,
        }
    }
}

impl StudyConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.units == 0 {
            return Err(QualError::InvalidParameter("units must be >= 1"));
        }
        if self.codes < 2 {
            return Err(QualError::InvalidParameter("need >= 2 codes"));
        }
        if self.coders.len() < 2 {
            return Err(QualError::InvalidParameter("need >= 2 coders"));
        }
        for c in &self.coders {
            if !(0.0..=1.0).contains(&c.base_accuracy)
                || !(0.0..=1.0).contains(&c.max_accuracy)
                || !(0.0..=1.0).contains(&c.skip_rate)
            {
                return Err(QualError::InvalidParameter(
                    "coder probabilities must be in [0,1]",
                ));
            }
            if c.max_accuracy < c.base_accuracy {
                return Err(QualError::InvalidParameter("max_accuracy < base_accuracy"));
            }
        }
        if self.tau <= 0.0 {
            return Err(QualError::InvalidParameter("tau must be positive"));
        }
        Ok(())
    }
}

/// Reliability metrics for one refinement round.
#[derive(Debug, Clone, PartialEq)]
pub struct RoundReliability {
    /// Refinement round (0 = initial codebook).
    pub round: u32,
    /// Mean pairwise percent agreement (complete-data pairs only).
    pub percent_agreement: f64,
    /// Fleiss' κ (computed on units every coder labelled).
    pub fleiss_kappa: f64,
    /// Krippendorff's α (all units, missing data handled).
    pub krippendorff_alpha: f64,
}

/// A running simulated study with fixed ground truth.
#[derive(Debug, Clone)]
pub struct SimulatedStudy {
    config: StudyConfig,
    ground_truth: Vec<usize>,
    rng: Rng,
}

impl SimulatedStudy {
    /// Create a study: ground-truth codes are drawn uniformly per unit.
    pub fn new(config: StudyConfig, seed: u64) -> Result<Self> {
        config.validate()?;
        let mut rng = Rng::new(seed);
        let ground_truth = (0..config.units)
            .map(|_| rng.range(0, config.codes))
            .collect();
        Ok(SimulatedStudy {
            config,
            ground_truth,
            rng,
        })
    }

    /// Simulate one coding pass at the given refinement round under a
    /// fault hook. Returns one label vector per coder (`None` = skipped
    /// unit). For each coder the hook is asked about
    /// [`FaultKind::CoderAttrition`]: when it fires, that coder is mostly
    /// absent this round — their skip rate is raised toward 1 in
    /// proportion to the severity. Probabilities change but the draw
    /// *pattern* does not.
    pub fn code_round(&mut self, round: u32, hook: &mut dyn FaultHook) -> Vec<Vec<Option<usize>>> {
        let tau = self.config.tau;
        let codes = self.config.codes;
        let truth = self.ground_truth.clone();
        let profiles = self.config.coders.clone();
        let coder_count = profiles.len() as u64;
        profiles
            .iter()
            .enumerate()
            .map(|(coder_idx, coder)| {
                let acc = coder.accuracy_at(round, tau);
                // One attrition decision per (round, coder) pair.
                let step = u64::from(round) * coder_count + coder_idx as u64;
                let skip_rate = match hook.inject(step, FaultKind::CoderAttrition) {
                    Some(severity) => coder.skip_rate + severity * (1.0 - coder.skip_rate),
                    None => coder.skip_rate,
                };
                truth
                    .iter()
                    .map(|&t| {
                        if self.rng.chance(skip_rate) {
                            None
                        } else if self.rng.chance(acc) {
                            Some(t)
                        } else {
                            // Err to a uniformly random *other* code.
                            let mut wrong = self.rng.range(0, codes - 1);
                            if wrong >= t {
                                wrong += 1;
                            }
                            Some(wrong)
                        }
                    })
                    .collect()
            })
            .collect()
    }

    /// Run `rounds` refinement rounds under a fault hook (see
    /// [`SimulatedStudy::code_round`] for the fault semantics), returning
    /// the reliability trajectory.
    ///
    /// Telemetry: a `qual.reliability` span, a per-round `qual.round_ns`
    /// histogram, a round counter, and a milestone event carrying the
    /// final Krippendorff alpha.
    pub fn reliability_trajectory(
        &mut self,
        rounds: u32,
        hook: &mut dyn FaultHook,
        tel: &Telemetry,
    ) -> Result<Vec<RoundReliability>> {
        let _span = tel.span("qual.reliability");
        let mut out = Vec::with_capacity(rounds as usize + 1);
        for round in 0..=rounds {
            let t0 = tel.start();
            let labels = self.code_round(round, hook);
            // Mean pairwise percent agreement on mutually-labelled units.
            let mut pa_sum = 0.0;
            let mut pa_n = 0;
            for i in 0..labels.len() {
                for j in (i + 1)..labels.len() {
                    let (a, b): (Vec<_>, Vec<_>) = labels[i]
                        .iter()
                        .zip(&labels[j])
                        .filter(|(x, y)| x.is_some() && y.is_some())
                        .map(|(&x, &y)| (x, y))
                        .unzip();
                    if !a.is_empty() {
                        pa_sum += percent_agreement(&a, &b)
                            .map_err(|_| QualError::Degenerate("agreement failed"))?;
                        pa_n += 1;
                    }
                }
            }
            // Fleiss on fully-labelled units.
            let full_units: Vec<usize> = (0..self.config.units)
                .filter(|&u| labels.iter().all(|l| l[u].is_some()))
                .collect();
            let fleiss_input: Vec<Vec<Option<usize>>> = labels
                .iter()
                .map(|l| full_units.iter().map(|&u| l[u]).collect())
                .collect();
            let fk = fleiss_kappa(&fleiss_input).unwrap_or(0.0);
            let alpha = krippendorff_alpha(&labels).unwrap_or(0.0);
            out.push(RoundReliability {
                round,
                percent_agreement: if pa_n > 0 { pa_sum / pa_n as f64 } else { 0.0 },
                fleiss_kappa: fk,
                krippendorff_alpha: alpha,
            });
            tel.observe_since("qual.round_ns", t0);
        }
        tel.counter("qual.rounds", u64::from(rounds) + 1);
        if let Some(last) = out.last() {
            tel.gauge("qual.final_alpha", last.krippendorff_alpha);
            tel.event(
                Event::new(
                    "milestone",
                    format!(
                        "qual.reliability: {} rounds, final alpha {:.3}",
                        out.len(),
                        last.krippendorff_alpha
                    ),
                )
                .with_step(u64::from(last.round)),
            );
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::NoFaults;

    #[test]
    fn default_config_valid() {
        StudyConfig::default().validate().unwrap();
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut c = StudyConfig::default();
        c.units = 0;
        assert!(c.validate().is_err());
        let mut c = StudyConfig::default();
        c.codes = 1;
        assert!(c.validate().is_err());
        let mut c = StudyConfig::default();
        c.coders.truncate(1);
        assert!(c.validate().is_err());
        let mut c = StudyConfig::default();
        c.coders[0].max_accuracy = 0.1;
        assert!(c.validate().is_err());
        let mut c = StudyConfig::default();
        c.tau = 0.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn accuracy_rises_and_saturates() {
        let coder = CoderProfile {
            name: "x".into(),
            base_accuracy: 0.5,
            max_accuracy: 0.9,
            skip_rate: 0.0,
        };
        let a0 = coder.accuracy_at(0, 1.5);
        let a2 = coder.accuracy_at(2, 1.5);
        let a10 = coder.accuracy_at(10, 1.5);
        assert!((a0 - 0.5).abs() < 1e-12);
        assert!(a2 > a0);
        assert!(a10 > a2);
        assert!(a10 <= 0.9 + 1e-12);
        assert!((a10 - 0.9).abs() < 0.01, "should saturate near max");
    }

    #[test]
    fn study_is_deterministic() {
        let mut s1 = SimulatedStudy::new(StudyConfig::default(), 42).unwrap();
        let mut s2 = SimulatedStudy::new(StudyConfig::default(), 42).unwrap();
        assert_eq!(s1.ground_truth, s2.ground_truth);
        assert_eq!(
            s1.code_round(0, &mut NoFaults),
            s2.code_round(0, &mut NoFaults)
        );
    }

    #[test]
    fn labels_are_valid_codes_or_skips() {
        let mut s = SimulatedStudy::new(StudyConfig::default(), 7).unwrap();
        let labels = s.code_round(1, &mut NoFaults);
        assert_eq!(labels.len(), 3);
        for coder in &labels {
            assert_eq!(coder.len(), 200);
            for l in coder.iter().flatten() {
                assert!(*l < 6);
            }
        }
    }

    #[test]
    fn reliability_improves_with_rounds() {
        let mut s = SimulatedStudy::new(StudyConfig::default(), 11).unwrap();
        let traj = s
            .reliability_trajectory(6, &mut NoFaults, &Telemetry::disabled())
            .unwrap();
        assert_eq!(traj.len(), 7);
        let first = &traj[0];
        let last = &traj[6];
        assert!(
            last.krippendorff_alpha > first.krippendorff_alpha + 0.15,
            "alpha should climb: {} -> {}",
            first.krippendorff_alpha,
            last.krippendorff_alpha
        );
        assert!(last.fleiss_kappa > first.fleiss_kappa);
        assert!(last.percent_agreement > first.percent_agreement);
        // Saturates below perfection.
        assert!(last.krippendorff_alpha < 0.99);
    }

    #[test]
    fn attrition_degrades_but_never_panics() {
        use humnet_resilience::{FaultPlan, FaultProfile, PlanHook};
        // An inactive plan reproduces the fault-free trajectory exactly.
        let tel = Telemetry::disabled();
        let mut plain = SimulatedStudy::new(StudyConfig::default(), 42).unwrap();
        let baseline = plain
            .reliability_trajectory(4, &mut NoFaults, &tel)
            .unwrap();
        let mut hooked = SimulatedStudy::new(StudyConfig::default(), 42).unwrap();
        let mut none = PlanHook::new(FaultPlan::none());
        assert_eq!(
            hooked.reliability_trajectory(4, &mut none, &tel).unwrap(),
            baseline
        );
        // Chaos attrition: deterministic, metrics stay in their ranges.
        let chaos = |seed| {
            let mut s = SimulatedStudy::new(StudyConfig::default(), 42).unwrap();
            let mut hook = PlanHook::new(FaultPlan::new(FaultProfile::Chaos, seed));
            let traj = s.reliability_trajectory(4, &mut hook, &tel).unwrap();
            (traj, hook.faults_injected())
        };
        let (a, fa) = chaos(8);
        let (b, fb) = chaos(8);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa > 0, "chaos should hit at least one coder-round");
        for r in &a {
            assert!((0.0..=1.0).contains(&r.percent_agreement), "{r:?}");
            assert!(r.krippendorff_alpha <= 1.0 + 1e-9, "{r:?}");
        }
    }

    #[test]
    fn perfect_coders_reach_alpha_one() {
        let mut cfg = StudyConfig::default();
        for c in cfg.coders.iter_mut() {
            c.base_accuracy = 1.0;
            c.max_accuracy = 1.0;
            c.skip_rate = 0.0;
        }
        let mut s = SimulatedStudy::new(cfg, 3).unwrap();
        let traj = s
            .reliability_trajectory(0, &mut NoFaults, &Telemetry::disabled())
            .unwrap();
        assert!((traj[0].krippendorff_alpha - 1.0).abs() < 1e-9);
        assert!((traj[0].percent_agreement - 1.0).abs() < 1e-12);
    }
}
