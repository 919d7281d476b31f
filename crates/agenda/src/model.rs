//! The problem space and its stakeholder strata.

use crate::{AgendaError, Result};
use humnet_stats::Rng;

/// Classes of Internet stakeholder whose problems compete for research
/// attention (mirrors the paper's §1 framing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StakeholderClass {
    /// Hyperscale cloud and content operators.
    Hyperscaler,
    /// Commercial transit/access ISPs.
    TransitIsp,
    /// The research community's own infrastructure.
    ResearchCommunity,
    /// Community / rural / last-mile operators.
    CommunityOperator,
    /// Regulators and policy bodies.
    Regulator,
    /// End users at large.
    EndUsers,
}

impl StakeholderClass {
    /// All classes.
    pub const ALL: [StakeholderClass; 6] = [
        StakeholderClass::Hyperscaler,
        StakeholderClass::TransitIsp,
        StakeholderClass::ResearchCommunity,
        StakeholderClass::CommunityOperator,
        StakeholderClass::Regulator,
        StakeholderClass::EndUsers,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            StakeholderClass::Hyperscaler => "hyperscaler",
            StakeholderClass::TransitIsp => "transit-isp",
            StakeholderClass::ResearchCommunity => "research-community",
            StakeholderClass::CommunityOperator => "community-operator",
            StakeholderClass::Regulator => "regulator",
            StakeholderClass::EndUsers => "end-users",
        }
    }

    /// The paper's marginalized stakeholders.
    pub fn is_marginalized(&self) -> bool {
        matches!(
            self,
            StakeholderClass::CommunityOperator | StakeholderClass::EndUsers
        )
    }

    /// Default per-class generation parameters:
    /// `(count, visibility_mean, impact_mean, funding_mean)`.
    ///
    /// Calibration reflects the paper's framing: hyperscaler problems are
    /// hyper-visible (telemetry everywhere) and lavishly funded but touch
    /// operators more than people; community/end-user problems are high
    /// impact, nearly invisible to measurement, and unfunded.
    pub fn default_profile(&self) -> (usize, f64, f64, f64) {
        match self {
            StakeholderClass::Hyperscaler => (20, 0.90, 0.45, 0.90),
            StakeholderClass::TransitIsp => (20, 0.70, 0.50, 0.60),
            StakeholderClass::ResearchCommunity => (15, 0.80, 0.35, 0.50),
            StakeholderClass::CommunityOperator => (20, 0.15, 0.80, 0.10),
            StakeholderClass::Regulator => (10, 0.35, 0.60, 0.40),
            StakeholderClass::EndUsers => (25, 0.20, 0.85, 0.15),
        }
    }
}

/// One research problem.
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    /// Dense id.
    pub id: usize,
    /// Whose operational reality it reflects.
    pub stakeholder: StakeholderClass,
    /// How readily the problem shows up in measurable data, `[0, 1]`.
    pub visibility: f64,
    /// Human impact if solved, `[0, 1]`.
    pub impact: f64,
    /// Funding behind the problem, `[0, 1]` (grows with publications).
    pub funding: f64,
    /// Round at which the problem first got a publication.
    pub surfaced_round: Option<u32>,
    /// Publications accumulated.
    pub publications: u32,
}

/// Configuration of the problem space.
#[derive(Debug, Clone, PartialEq)]
pub struct SpaceConfig {
    /// Per-class overrides; `None` uses
    /// [`StakeholderClass::default_profile`].
    pub profiles: Vec<(StakeholderClass, usize, f64, f64, f64)>,
    /// Beta-ish jitter applied around the class means.
    pub jitter: f64,
}

impl Default for SpaceConfig {
    fn default() -> Self {
        SpaceConfig {
            profiles: StakeholderClass::ALL
                .iter()
                .map(|&c| {
                    let (n, v, i, f) = c.default_profile();
                    (c, n, v, i, f)
                })
                .collect(),
            jitter: 0.1,
        }
    }
}

/// The population of problems.
#[derive(Debug, Clone, PartialEq)]
pub struct ProblemSpace {
    /// All problems.
    pub problems: Vec<Problem>,
}

impl ProblemSpace {
    /// Generate a problem space deterministically.
    pub fn generate(config: &SpaceConfig, rng: &mut Rng) -> Result<Self> {
        if config.profiles.is_empty() {
            return Err(AgendaError::EmptyInput);
        }
        if config.jitter < 0.0 || config.jitter > 0.5 {
            return Err(AgendaError::InvalidParameter("jitter must be in [0, 0.5]"));
        }
        let mut problems = Vec::new();
        for &(class, count, vis, imp, fund) in &config.profiles {
            for _ in 0..count {
                let j = |mean: f64, rng: &mut Rng| -> f64 {
                    (mean + rng.range_f64(-config.jitter, config.jitter)).clamp(0.0, 1.0)
                };
                problems.push(Problem {
                    id: problems.len(),
                    stakeholder: class,
                    visibility: j(vis, rng),
                    impact: j(imp, rng),
                    funding: j(fund, rng),
                    surfaced_round: None,
                    publications: 0,
                });
            }
        }
        if problems.is_empty() {
            return Err(AgendaError::EmptyInput);
        }
        Ok(ProblemSpace { problems })
    }

    /// Number of problems.
    pub fn len(&self) -> usize {
        self.problems.len()
    }

    /// True when there are no problems.
    pub fn is_empty(&self) -> bool {
        self.problems.is_empty()
    }

    /// Problems of one stakeholder class.
    pub fn of_class(&self, class: StakeholderClass) -> Vec<&Problem> {
        self.problems
            .iter()
            .filter(|p| p.stakeholder == class)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_space_covers_all_classes() {
        let mut rng = Rng::new(1);
        let s = ProblemSpace::generate(&SpaceConfig::default(), &mut rng).unwrap();
        assert_eq!(s.len(), 110);
        for class in StakeholderClass::ALL {
            assert!(!s.of_class(class).is_empty());
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = SpaceConfig::default();
        let a = ProblemSpace::generate(&cfg, &mut Rng::new(5)).unwrap();
        let b = ProblemSpace::generate(&cfg, &mut Rng::new(5)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn attributes_bounded_and_calibrated() {
        let mut rng = Rng::new(2);
        let s = ProblemSpace::generate(&SpaceConfig::default(), &mut rng).unwrap();
        for p in &s.problems {
            assert!((0.0..=1.0).contains(&p.visibility));
            assert!((0.0..=1.0).contains(&p.impact));
            assert!((0.0..=1.0).contains(&p.funding));
            assert_eq!(p.publications, 0);
            assert!(p.surfaced_round.is_none());
        }
        // Calibration: hyperscaler problems more visible than community ones.
        let mean = |class: StakeholderClass, f: fn(&Problem) -> f64| {
            let ps = s.of_class(class);
            ps.iter().map(|p| f(p)).sum::<f64>() / ps.len() as f64
        };
        assert!(
            mean(StakeholderClass::Hyperscaler, |p| p.visibility)
                > mean(StakeholderClass::CommunityOperator, |p| p.visibility) + 0.4
        );
        assert!(
            mean(StakeholderClass::EndUsers, |p| p.impact)
                > mean(StakeholderClass::Hyperscaler, |p| p.impact)
        );
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut rng = Rng::new(1);
        let cfg = SpaceConfig {
            profiles: vec![],
            jitter: 0.1,
        };
        assert!(ProblemSpace::generate(&cfg, &mut rng).is_err());
        let mut cfg = SpaceConfig::default();
        cfg.jitter = 0.9;
        assert!(ProblemSpace::generate(&cfg, &mut rng).is_err());
    }

    #[test]
    fn marginalized_labels() {
        assert!(StakeholderClass::EndUsers.is_marginalized());
        assert!(StakeholderClass::CommunityOperator.is_marginalized());
        assert!(!StakeholderClass::Hyperscaler.is_marginalized());
        assert!(!StakeholderClass::Regulator.is_marginalized());
    }
}
