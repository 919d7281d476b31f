//! Venue gatekeeping: which methods survive review where (experiment **T5**).
//!
//! §6.3.2 of the paper: "work that is grounded in stakeholder engagement,
//! community priorities, or qualitative insight often struggles to find its
//! place in traditional networking venues, which tend to emphasize system
//! performance, measurement scale, or novelty in tooling." And §6.4 asks
//! CFP authors to "explicitly encourage human methods".
//!
//! Model: a submission carries a contribution profile over four dimensions
//! (performance, scale, novelty, human insight); a venue scores it with a
//! weight vector plus reviewer noise and accepts the top fraction. Sweeping
//! the human-insight weight reproduces the gatekeeping claim and quantifies
//! what a CFP change buys.

use crate::{AgendaError, Result};
use humnet_stats::Rng;

/// A submission's strengths per dimension, each in `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ContributionProfile {
    /// System performance wins.
    pub performance: f64,
    /// Measurement / deployment scale.
    pub scale: f64,
    /// Novelty of technique or tooling.
    pub novelty: f64,
    /// Human insight: grounded stakeholder knowledge.
    pub human_insight: f64,
}

impl ContributionProfile {
    /// Typical profile of a systems paper.
    pub fn systems_paper(rng: &mut Rng) -> Self {
        ContributionProfile {
            performance: rng.range_f64(0.6, 1.0),
            scale: rng.range_f64(0.5, 0.9),
            novelty: rng.range_f64(0.4, 0.9),
            human_insight: rng.range_f64(0.0, 0.2),
        }
    }

    /// Typical profile of a human-centered networking paper.
    pub fn human_centered_paper(rng: &mut Rng) -> Self {
        ContributionProfile {
            performance: rng.range_f64(0.0, 0.3),
            scale: rng.range_f64(0.1, 0.4),
            novelty: rng.range_f64(0.3, 0.8),
            human_insight: rng.range_f64(0.6, 1.0),
        }
    }

    /// Validate ranges.
    pub fn validate(&self) -> Result<()> {
        for v in [
            self.performance,
            self.scale,
            self.novelty,
            self.human_insight,
        ] {
            if !(0.0..=1.0).contains(&v) {
                return Err(AgendaError::InvalidParameter(
                    "profile values must be in [0,1]",
                ));
            }
        }
        Ok(())
    }
}

/// A venue's review weight vector (need not be normalized).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VenueWeights {
    /// Weight on performance.
    pub performance: f64,
    /// Weight on scale.
    pub scale: f64,
    /// Weight on novelty.
    pub novelty: f64,
    /// Weight on human insight.
    pub human_insight: f64,
}

impl VenueWeights {
    /// The traditional systems-venue profile the paper criticizes.
    pub fn traditional_systems() -> Self {
        VenueWeights {
            performance: 0.4,
            scale: 0.3,
            novelty: 0.3,
            human_insight: 0.0,
        }
    }

    /// A CFP revised per §6.4: human insight is an explicit criterion.
    pub fn broadened(human_weight: f64) -> Self {
        let rest = (1.0 - human_weight).max(0.0);
        VenueWeights {
            performance: 0.4 * rest,
            scale: 0.3 * rest,
            novelty: 0.3 * rest,
            human_insight: human_weight,
        }
    }

    /// Deterministic score of a profile under these weights.
    pub fn score(&self, p: &ContributionProfile) -> f64 {
        self.performance * p.performance
            + self.scale * p.scale
            + self.novelty * p.novelty
            + self.human_insight * p.human_insight
    }
}

/// Configuration of a review simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct ReviewConfig {
    /// Number of systems-style submissions.
    pub systems_submissions: usize,
    /// Number of human-centered submissions.
    pub human_submissions: usize,
    /// Acceptance rate of the venue, in `(0, 1]`.
    pub acceptance_rate: f64,
    /// Reviewer noise (σ of a Gaussian added to each score).
    pub reviewer_noise: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for ReviewConfig {
    fn default() -> Self {
        ReviewConfig {
            systems_submissions: 150,
            human_submissions: 50,
            acceptance_rate: 0.2,
            reviewer_noise: 0.05,
            seed: 1,
        }
    }
}

/// Outcome of one review cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct ReviewOutcome {
    /// Acceptance rate among systems-style submissions.
    pub systems_acceptance: f64,
    /// Acceptance rate among human-centered submissions.
    pub human_acceptance: f64,
    /// Total papers accepted.
    pub accepted: usize,
}

/// Run one review cycle under the given venue weights.
pub fn run_review(config: &ReviewConfig, weights: &VenueWeights) -> Result<ReviewOutcome> {
    if config.systems_submissions + config.human_submissions == 0 {
        return Err(AgendaError::EmptyInput);
    }
    if !(0.0 < config.acceptance_rate && config.acceptance_rate <= 1.0) {
        return Err(AgendaError::InvalidParameter(
            "acceptance_rate must be in (0,1]",
        ));
    }
    if config.reviewer_noise < 0.0 {
        return Err(AgendaError::InvalidParameter("reviewer_noise must be >= 0"));
    }
    let mut rng = Rng::new(config.seed);
    // Generate submissions: kind 0 = systems, 1 = human-centered.
    let mut submissions: Vec<(u8, f64)> = Vec::new();
    for _ in 0..config.systems_submissions {
        let p = ContributionProfile::systems_paper(&mut rng);
        submissions.push((
            0,
            weights.score(&p) + rng.normal(0.0, config.reviewer_noise),
        ));
    }
    for _ in 0..config.human_submissions {
        let p = ContributionProfile::human_centered_paper(&mut rng);
        submissions.push((
            1,
            weights.score(&p) + rng.normal(0.0, config.reviewer_noise),
        ));
    }
    let total = submissions.len();
    let slots = ((total as f64 * config.acceptance_rate).round() as usize).clamp(1, total);
    submissions.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let accepted = &submissions[..slots];
    let sys_acc = accepted.iter().filter(|&&(k, _)| k == 0).count() as f64
        / config.systems_submissions.max(1) as f64;
    let hum_acc = accepted.iter().filter(|&&(k, _)| k == 1).count() as f64
        / config.human_submissions.max(1) as f64;
    Ok(ReviewOutcome {
        systems_acceptance: sys_acc,
        human_acceptance: hum_acc,
        accepted: slots,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traditional_venue_excludes_human_work() {
        let out = run_review(
            &ReviewConfig::default(),
            &VenueWeights::traditional_systems(),
        )
        .unwrap();
        assert!(
            out.systems_acceptance > 5.0 * out.human_acceptance.max(0.01),
            "systems {} vs human {}",
            out.systems_acceptance,
            out.human_acceptance
        );
    }

    #[test]
    fn broadened_cfp_raises_human_acceptance_monotonically() {
        let mut last = -1.0;
        for w in [0.0, 0.15, 0.3, 0.45] {
            let out = run_review(&ReviewConfig::default(), &VenueWeights::broadened(w)).unwrap();
            assert!(
                out.human_acceptance >= last - 0.02,
                "human acceptance should rise with weight {w}: {} after {last}",
                out.human_acceptance
            );
            last = out.human_acceptance;
        }
        assert!(
            last > 0.3,
            "substantial human-insight weight should admit human work"
        );
    }

    #[test]
    fn zero_noise_is_deterministic() {
        let mut cfg = ReviewConfig::default();
        cfg.reviewer_noise = 0.0;
        let a = run_review(&cfg, &VenueWeights::traditional_systems()).unwrap();
        let b = run_review(&cfg, &VenueWeights::traditional_systems()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn acceptance_counts_add_up() {
        let cfg = ReviewConfig::default();
        let out = run_review(&cfg, &VenueWeights::broadened(0.3)).unwrap();
        let accepted_sys = out.systems_acceptance * cfg.systems_submissions as f64;
        let accepted_hum = out.human_acceptance * cfg.human_submissions as f64;
        assert!(((accepted_sys + accepted_hum) - out.accepted as f64).abs() < 1e-6);
        assert_eq!(out.accepted, 40); // 20% of 200
    }

    #[test]
    fn invalid_configs_rejected() {
        let w = VenueWeights::traditional_systems();
        let mut cfg = ReviewConfig::default();
        cfg.systems_submissions = 0;
        cfg.human_submissions = 0;
        assert!(run_review(&cfg, &w).is_err());
        let mut cfg = ReviewConfig::default();
        cfg.acceptance_rate = 0.0;
        assert!(run_review(&cfg, &w).is_err());
        let mut cfg = ReviewConfig::default();
        cfg.reviewer_noise = -1.0;
        assert!(run_review(&cfg, &w).is_err());
    }

    #[test]
    fn profile_validation() {
        let mut rng = Rng::new(1);
        ContributionProfile::systems_paper(&mut rng)
            .validate()
            .unwrap();
        ContributionProfile::human_centered_paper(&mut rng)
            .validate()
            .unwrap();
        let bad = ContributionProfile {
            performance: 1.5,
            scale: 0.0,
            novelty: 0.0,
            human_insight: 0.0,
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn score_is_linear_in_weights() {
        let p = ContributionProfile {
            performance: 1.0,
            scale: 0.0,
            novelty: 0.0,
            human_insight: 0.5,
        };
        let w = VenueWeights {
            performance: 0.5,
            scale: 0.1,
            novelty: 0.1,
            human_insight: 0.3,
        };
        assert!((w.score(&p) - (0.5 + 0.15)).abs() < 1e-12);
    }
}
