//! IXP growth dynamics: how giant exchanges become giant.
//!
//! Rosa's ethnography (§3, [39]) concludes that some IXPs' "main goal is to
//! attract more connections, independent of where they come from" — the
//! founding purpose (keep traffic local) gives way to connectivity
//! maximization, and a few exchanges grow into "giant Internet nodes" that
//! act as alternatives to Tier-1 transit.
//!
//! The mechanism is a network effect: an exchange's value to a prospective
//! member grows with its membership and content presence, so early leads
//! compound. This module models arrival-and-choice dynamics (experiment
//! **F8**): networks arrive over rounds and pick an exchange by utility
//! `α·ln(1+members) + β·content + γ·same-region − fee`, with logit noise.
//! The regional-affinity term `γ` is the knob the paper's narrative turns
//! on: when members stop caring where the exchange is, winner-take-all
//! follows.

use crate::topology::RegionTag;
use crate::{IxpError, Result};
use humnet_stats::Rng;

/// One exchange in the growth model.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowingIxp {
    /// Display name.
    pub name: String,
    /// Region of the exchange.
    pub region: RegionTag,
    /// Current member count.
    pub members: u32,
    /// Content-provider presence weight (0–1).
    pub content: f64,
    /// Port/membership fee in utility units.
    pub fee: f64,
}

/// Configuration of a growth run.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthConfig {
    /// The competing exchanges at round 0.
    pub ixps: Vec<GrowingIxp>,
    /// Networks arriving per round.
    pub arrivals_per_round: usize,
    /// Rounds to simulate.
    pub rounds: u32,
    /// Fraction of arriving networks homed in the Global South.
    pub south_share: f64,
    /// Utility weight on `ln(1 + members)` (the network effect).
    pub alpha_members: f64,
    /// Utility weight on content presence.
    pub beta_content: f64,
    /// Utility weight on regional affinity (the "keep traffic local" pull).
    pub gamma_region: f64,
    /// Logit temperature (0⁺ = deterministic argmax).
    pub temperature: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for GrowthConfig {
    fn default() -> Self {
        GrowthConfig {
            ixps: vec![
                GrowingIxp {
                    name: "GIANT-NORTH".into(),
                    region: RegionTag::new("DE", false),
                    members: 120,
                    content: 0.9,
                    fee: 0.4,
                },
                GrowingIxp {
                    name: "IX-local-1".into(),
                    region: RegionTag::new("BR", true),
                    members: 20,
                    content: 0.2,
                    fee: 0.1,
                },
                GrowingIxp {
                    name: "IX-local-2".into(),
                    region: RegionTag::new("BR", true),
                    members: 15,
                    content: 0.15,
                    fee: 0.1,
                },
            ],
            arrivals_per_round: 10,
            rounds: 40,
            south_share: 0.6,
            alpha_members: 1.0,
            beta_content: 1.5,
            gamma_region: 0.5,
            temperature: 0.4,
            seed: 1,
        }
    }
}

impl GrowthConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.ixps.is_empty() {
            return Err(IxpError::InvalidParameter("need at least one exchange"));
        }
        if self.arrivals_per_round == 0 || self.rounds == 0 {
            return Err(IxpError::InvalidParameter(
                "arrivals and rounds must be >= 1",
            ));
        }
        if !(0.0..=1.0).contains(&self.south_share) {
            return Err(IxpError::InvalidParameter("south_share must be in [0,1]"));
        }
        if self.temperature <= 0.0 {
            return Err(IxpError::InvalidParameter("temperature must be positive"));
        }
        for ixp in &self.ixps {
            if !(0.0..=1.0).contains(&ixp.content) || ixp.fee < 0.0 {
                return Err(IxpError::InvalidParameter("ixp content in [0,1], fee >= 0"));
            }
        }
        Ok(())
    }
}

/// Outcome of a growth run.
#[derive(Debug, Clone, PartialEq)]
pub struct GrowthOutcome {
    /// Final member counts, aligned with the config's exchanges.
    pub final_members: Vec<u32>,
    /// Membership share of the largest exchange.
    pub top_share: f64,
    /// Gini coefficient of final membership.
    pub membership_gini: f64,
    /// Fraction of South-homed arrivals that joined a South exchange.
    pub south_joined_local: f64,
    /// Member counts per round per exchange (for trajectory plots).
    pub trajectory: Vec<Vec<u32>>,
}

/// Run the growth model. Telemetry: an `ixp.growth` span, a per-round
/// `ixp.growth_round_ns` histogram, an arrivals counter, and a milestone
/// event.
pub fn simulate_growth(
    config: &GrowthConfig,
    tel: &humnet_telemetry::Telemetry,
) -> Result<GrowthOutcome> {
    let _span = tel.span("ixp.growth");
    let outcome = simulate_growth_inner(config, tel)?;
    tel.counter(
        "ixp.growth_arrivals",
        u64::from(config.rounds) * config.arrivals_per_round as u64,
    );
    tel.gauge("ixp.growth_top_share", outcome.top_share);
    tel.event(humnet_telemetry::Event::new(
        "milestone",
        format!(
            "ixp.growth: {} rounds, top share {:.3}",
            config.rounds, outcome.top_share
        ),
    ));
    Ok(outcome)
}

fn simulate_growth_inner(
    config: &GrowthConfig,
    tel: &humnet_telemetry::Telemetry,
) -> Result<GrowthOutcome> {
    config.validate()?;
    let mut rng = Rng::new(config.seed);
    let mut members: Vec<f64> = config.ixps.iter().map(|i| i.members as f64).collect();
    let mut trajectory = Vec::with_capacity(config.rounds as usize);
    let mut south_arrivals = 0u64;
    let mut south_local = 0u64;
    for _ in 0..config.rounds {
        let t0 = tel.start();
        for _ in 0..config.arrivals_per_round {
            let is_south = rng.chance(config.south_share);
            // Utilities with logit noise.
            let weights: Vec<f64> = config
                .ixps
                .iter()
                .enumerate()
                .map(|(j, ixp)| {
                    let same_region = ixp.region.global_south == is_south;
                    let u = config.alpha_members * (1.0 + members[j]).ln()
                        + config.beta_content * ixp.content
                        + config.gamma_region * f64::from(same_region)
                        - ixp.fee;
                    (u / config.temperature).exp()
                })
                .collect();
            let choice = rng.choose_weighted(&weights);
            members[choice] += 1.0;
            if is_south {
                south_arrivals += 1;
                if config.ixps[choice].region.global_south {
                    south_local += 1;
                }
            }
        }
        trajectory.push(members.iter().map(|&m| m as u32).collect());
        tel.observe_since("ixp.growth_round_ns", t0);
    }
    let total: f64 = members.iter().sum();
    let top = members.iter().copied().fold(0.0, f64::max);
    let gini = humnet_stats::gini(&members)
        .map_err(|_| IxpError::InvalidParameter("degenerate membership"))?;
    Ok(GrowthOutcome {
        final_members: members.iter().map(|&m| m as u32).collect(),
        top_share: top / total,
        membership_gini: gini,
        south_joined_local: if south_arrivals > 0 {
            south_local as f64 / south_arrivals as f64
        } else {
            0.0
        },
        trajectory,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_telemetry::Telemetry;

    fn simulate(c: &GrowthConfig) -> Result<GrowthOutcome> {
        simulate_growth(c, &Telemetry::disabled())
    }

    #[test]
    fn validation() {
        let mut c = GrowthConfig::default();
        c.ixps.clear();
        assert!(simulate(&c).is_err());
        let mut c = GrowthConfig::default();
        c.temperature = 0.0;
        assert!(simulate(&c).is_err());
        let mut c = GrowthConfig::default();
        c.ixps[0].content = 1.5;
        assert!(simulate(&c).is_err());
    }

    #[test]
    fn deterministic() {
        let c = GrowthConfig::default();
        assert_eq!(simulate(&c).unwrap(), simulate(&c).unwrap());
    }

    #[test]
    fn conservation_of_arrivals() {
        let c = GrowthConfig::default();
        let out = simulate(&c).unwrap();
        let initial: u32 = c.ixps.iter().map(|i| i.members).sum();
        let arrived = c.arrivals_per_round as u32 * c.rounds;
        let final_total: u32 = out.final_members.iter().sum();
        assert_eq!(final_total, initial + arrived);
        assert_eq!(out.trajectory.len(), c.rounds as usize);
    }

    #[test]
    fn network_effects_produce_winner_take_all() {
        // With no regional pull, the giant's head start compounds.
        let mut c = GrowthConfig::default();
        c.gamma_region = 0.0;
        let out = simulate(&c).unwrap();
        assert!(out.top_share > 0.6, "top share = {}", out.top_share);
        assert!(out.south_joined_local < 0.4);
    }

    #[test]
    fn regional_affinity_keeps_local_exchanges_alive() {
        let mut weak = GrowthConfig::default();
        weak.gamma_region = 0.0;
        let mut strong = GrowthConfig::default();
        strong.gamma_region = 3.0;
        let w = simulate(&weak).unwrap();
        let s = simulate(&strong).unwrap();
        assert!(
            s.south_joined_local > w.south_joined_local + 0.3,
            "strong affinity {} vs weak {}",
            s.south_joined_local,
            w.south_joined_local
        );
        assert!(s.top_share < w.top_share);
        assert!(s.membership_gini < w.membership_gini);
    }

    #[test]
    fn membership_is_monotone_over_rounds() {
        let out = simulate(&GrowthConfig::default()).unwrap();
        for j in 0..3 {
            for w in out.trajectory.windows(2) {
                assert!(w[1][j] >= w[0][j]);
            }
        }
    }
}
