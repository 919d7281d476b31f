//! Method-adoption dynamics under venue gatekeeping (experiment **F9**).
//!
//! §6.4 of the paper asks "the people setting the calls for papers" to
//! explicitly encourage human methods, on the theory that venue incentives
//! shape what researchers do. This module closes that loop with replicator
//! dynamics: each publication cycle, authors submit in proportion to the
//! current population mix, the venue accepts per its weight profile, and
//! the next cycle's mix shifts toward whichever methodology got its people
//! published. A CFP intervention at a chosen round changes the weights;
//! the trajectory shows whether (and how fast) the community follows.

use crate::review::{run_review, ReviewConfig, VenueWeights};
use crate::{AgendaError, Result};

/// Configuration of an adoption-dynamics run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionConfig {
    /// Publication cycles to simulate.
    pub rounds: u32,
    /// Cycle at which the CFP is broadened (`None` = never).
    pub intervention_round: Option<u32>,
    /// Human-insight weight after the intervention.
    pub human_weight_after: f64,
    /// Initial share of authors doing human-centered work, in `(0, 1)`.
    pub initial_human_share: f64,
    /// Total submissions per cycle.
    pub submissions_per_round: usize,
    /// Selection strength in `(0, 1]`: how strongly authors chase
    /// acceptance (1 = full replicator step).
    pub selection_strength: f64,
    /// Floor share (mobility in and out of the community never lets a
    /// methodology vanish entirely).
    pub floor: f64,
    /// Base review configuration (acceptance rate, noise).
    pub review: ReviewConfig,
}

impl Default for AdoptionConfig {
    fn default() -> Self {
        AdoptionConfig {
            rounds: 30,
            intervention_round: Some(15),
            human_weight_after: 0.45,
            initial_human_share: 0.25,
            submissions_per_round: 200,
            selection_strength: 0.5,
            floor: 0.02,
            review: ReviewConfig::default(),
        }
    }
}

impl AdoptionConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.rounds == 0 {
            return Err(AgendaError::InvalidParameter("rounds must be >= 1"));
        }
        if !(0.0..1.0).contains(&self.initial_human_share) || self.initial_human_share <= 0.0 {
            return Err(AgendaError::InvalidParameter(
                "initial_human_share must be in (0,1)",
            ));
        }
        if self.submissions_per_round < 10 {
            return Err(AgendaError::InvalidParameter(
                "need >= 10 submissions per round",
            ));
        }
        if !(0.0..=1.0).contains(&self.selection_strength) || self.selection_strength == 0.0 {
            return Err(AgendaError::InvalidParameter(
                "selection_strength must be in (0,1]",
            ));
        }
        if !(0.0..0.5).contains(&self.floor) {
            return Err(AgendaError::InvalidParameter("floor must be in [0, 0.5)"));
        }
        if !(0.0..=1.0).contains(&self.human_weight_after) {
            return Err(AgendaError::InvalidParameter(
                "human_weight_after must be in [0,1]",
            ));
        }
        Ok(())
    }
}

/// One cycle of the trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct AdoptionSnapshot {
    /// Cycle index.
    pub round: u32,
    /// Share of authors doing human-centered work this cycle.
    pub human_share: f64,
    /// Acceptance rate of human-centered submissions this cycle.
    pub human_acceptance: f64,
    /// Acceptance rate of systems submissions this cycle.
    pub systems_acceptance: f64,
    /// Whether the broadened CFP was in force.
    pub intervened: bool,
}

/// Run the adoption dynamics; returns one snapshot per cycle.
pub fn simulate_adoption(config: &AdoptionConfig) -> Result<Vec<AdoptionSnapshot>> {
    config.validate()?;
    let mut share = config.initial_human_share;
    let mut out = Vec::with_capacity(config.rounds as usize);
    for round in 0..config.rounds {
        let intervened = config
            .intervention_round
            .map(|r| round >= r)
            .unwrap_or(false);
        let weights = if intervened {
            VenueWeights::broadened(config.human_weight_after)
        } else {
            VenueWeights::traditional_systems()
        };
        let mut review = config.review.clone();
        review.human_submissions =
            ((config.submissions_per_round as f64 * share).round() as usize).max(1);
        review.systems_submissions =
            (config.submissions_per_round - review.human_submissions).max(1);
        review.seed = config.review.seed.wrapping_add(round as u64);
        let outcome = run_review(&review, &weights)
            .map_err(|_| AgendaError::InvalidParameter("review failed"))?;
        out.push(AdoptionSnapshot {
            round,
            human_share: share,
            human_acceptance: outcome.human_acceptance,
            systems_acceptance: outcome.systems_acceptance,
            intervened,
        });
        // Replicator step toward the fitter methodology, damped by
        // selection strength, clamped by the mobility floor.
        let eps = 1e-3;
        let fit_h = outcome.human_acceptance + eps;
        let fit_s = outcome.systems_acceptance + eps;
        let target = share * fit_h / (share * fit_h + (1.0 - share) * fit_s);
        share = share + config.selection_strength * (target - share);
        share = share.clamp(config.floor, 1.0 - config.floor);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validation() {
        let mut c = AdoptionConfig::default();
        c.rounds = 0;
        assert!(simulate_adoption(&c).is_err());
        let mut c = AdoptionConfig::default();
        c.initial_human_share = 0.0;
        assert!(simulate_adoption(&c).is_err());
        let mut c = AdoptionConfig::default();
        c.selection_strength = 0.0;
        assert!(simulate_adoption(&c).is_err());
        let mut c = AdoptionConfig::default();
        c.floor = 0.6;
        assert!(simulate_adoption(&c).is_err());
    }

    #[test]
    fn deterministic() {
        let c = AdoptionConfig::default();
        assert_eq!(
            simulate_adoption(&c).unwrap(),
            simulate_adoption(&c).unwrap()
        );
    }

    #[test]
    fn without_intervention_human_work_is_squeezed_out() {
        let mut c = AdoptionConfig::default();
        c.intervention_round = None;
        let traj = simulate_adoption(&c).unwrap();
        let first = traj.first().unwrap().human_share;
        let last = traj.last().unwrap().human_share;
        assert!(
            last < first / 2.0,
            "human share should collapse: {first} -> {last}"
        );
        assert!(last <= c.floor + 0.05, "driven to the floor");
    }

    #[test]
    fn intervention_reverses_the_decline() {
        let c = AdoptionConfig::default();
        let traj = simulate_adoption(&c).unwrap();
        let at_intervention = traj[15].human_share;
        let last = traj.last().unwrap().human_share;
        assert!(
            last > at_intervention + 0.1,
            "share should recover after CFP change: {at_intervention} -> {last}"
        );
        // And the pre-intervention segment was declining.
        assert!(at_intervention < traj[0].human_share);
        // Snapshot flags are set correctly.
        assert!(!traj[14].intervened);
        assert!(traj[15].intervened);
    }

    #[test]
    fn stronger_cfp_weight_recovers_faster() {
        let mut weak = AdoptionConfig::default();
        weak.human_weight_after = 0.40;
        let mut strong = AdoptionConfig::default();
        strong.human_weight_after = 0.55;
        let w = simulate_adoption(&weak)
            .unwrap()
            .last()
            .unwrap()
            .human_share;
        let s = simulate_adoption(&strong)
            .unwrap()
            .last()
            .unwrap()
            .human_share;
        assert!(s > w, "strong {s} vs weak {w}");
    }

    #[test]
    fn share_stays_in_bounds() {
        let c = AdoptionConfig::default();
        for snap in simulate_adoption(&c).unwrap() {
            assert!((c.floor..=1.0 - c.floor).contains(&snap.human_share));
            assert!((0.0..=1.0).contains(&snap.human_acceptance));
            assert!((0.0..=1.0).contains(&snap.systems_acceptance));
        }
    }
}
