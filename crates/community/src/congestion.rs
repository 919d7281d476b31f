//! Common-pool congestion management (experiment **F5**).
//!
//! Johnson et al. 2021 ("Network Capacity as Common Pool Resource") showed
//! a community network governing shared backhaul with community-made
//! allocation rules. This module compares three policies for dividing a
//! fixed backhaul capacity among households with bursty, heavy-tailed
//! demand:
//!
//! * [`AllocationPolicy::FreeForAll`] — no governance: capacity divides in
//!   proportion to offered demand, so heavy users crowd everyone out;
//! * [`AllocationPolicy::StaticCap`] — equal hard caps: perfectly fair but
//!   wastes capacity whenever demand is skewed;
//! * [`AllocationPolicy::CommunityTokens`] — the common-pool scheme:
//!   everyone holds a baseline entitlement plus banked credit from idle
//!   rounds, and capacity left over after entitlements is shared max-min.

use crate::{CommunityError, Result};
use humnet_resilience::{FaultHook, FaultKind};
use humnet_stats::{jain_fairness, Rng};
use humnet_telemetry::{Event, Telemetry};

/// How shared capacity is divided each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// Proportional to offered demand (no governance).
    FreeForAll,
    /// Equal per-household hard cap, unused capacity wasted.
    StaticCap,
    /// Baseline entitlement + banked credit + max-min redistribution.
    CommunityTokens,
}

impl AllocationPolicy {
    /// All policies.
    pub const ALL: [AllocationPolicy; 3] = [
        AllocationPolicy::FreeForAll,
        AllocationPolicy::StaticCap,
        AllocationPolicy::CommunityTokens,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            AllocationPolicy::FreeForAll => "free-for-all",
            AllocationPolicy::StaticCap => "static-cap",
            AllocationPolicy::CommunityTokens => "community-tokens",
        }
    }
}

/// Configuration of a congestion run.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionConfig {
    /// Number of households sharing the backhaul.
    pub households: usize,
    /// Backhaul capacity per round (arbitrary units).
    pub capacity: f64,
    /// Rounds to simulate.
    pub rounds: u32,
    /// Log-normal σ of baseline demand (heavier tail = more skew).
    pub demand_sigma: f64,
    /// Probability a household bursts in a round.
    pub burst_probability: f64,
    /// Demand multiplier during a burst.
    pub burst_multiplier: f64,
    /// Token bank cap, as a multiple of the per-round baseline entitlement
    /// (only used by [`AllocationPolicy::CommunityTokens`]).
    pub bank_cap_rounds: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for CongestionConfig {
    fn default() -> Self {
        CongestionConfig {
            households: 30,
            capacity: 30.0,
            rounds: 500,
            demand_sigma: 1.0,
            burst_probability: 0.08,
            burst_multiplier: 6.0,
            bank_cap_rounds: 3.0,
            seed: 1,
        }
    }
}

impl CongestionConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.households == 0 {
            return Err(CommunityError::InvalidParameter("households must be >= 1"));
        }
        if self.capacity <= 0.0 {
            return Err(CommunityError::InvalidParameter(
                "capacity must be positive",
            ));
        }
        if self.rounds == 0 {
            return Err(CommunityError::InvalidParameter("rounds must be >= 1"));
        }
        if self.demand_sigma < 0.0 {
            return Err(CommunityError::InvalidParameter(
                "demand_sigma must be >= 0",
            ));
        }
        if !(0.0..=1.0).contains(&self.burst_probability) {
            return Err(CommunityError::InvalidParameter(
                "burst_probability must be in [0,1]",
            ));
        }
        if self.burst_multiplier < 1.0 {
            return Err(CommunityError::InvalidParameter(
                "burst_multiplier must be >= 1",
            ));
        }
        if self.bank_cap_rounds < 0.0 {
            return Err(CommunityError::InvalidParameter(
                "bank_cap_rounds must be >= 0",
            ));
        }
        Ok(())
    }
}

/// Aggregate outcome of a congestion run.
#[derive(Debug, Clone, PartialEq)]
pub struct CongestionOutcome {
    /// Policy simulated.
    pub policy: AllocationPolicy,
    /// Mean Jain fairness of the allocations received by *backlogged*
    /// households (offered demand above the equal share) across saturated
    /// rounds — the classical contended-flow fairness measure.
    pub fairness: f64,
    /// Mean fraction of capacity used in saturated rounds.
    pub utilization: f64,
    /// Fraction of *modest* household-rounds (demand at or below the equal
    /// share, in saturated rounds) left under 95% served. Good governance
    /// always serves modest users in full; free-for-all squeezes them
    /// whenever heavy users burst.
    pub starvation: f64,
    /// Number of rounds where offered demand exceeded capacity.
    pub saturated_rounds: u32,
}

/// The congestion simulator.
#[derive(Debug, Clone)]
pub struct CongestionSim {
    config: CongestionConfig,
}

impl CongestionSim {
    /// Create a simulator.
    pub fn new(config: CongestionConfig) -> Result<Self> {
        config.validate()?;
        Ok(CongestionSim { config })
    }

    /// Run one policy to completion under a fault hook, observing its
    /// duration into the `community.policy_ns` histogram. Each round the
    /// hook is asked about [`FaultKind::LinkOutage`]: an active outage
    /// shrinks that round's backhaul capacity by up to 60% at full severity
    /// (the common pool itself degrades).
    pub fn run(
        &self,
        policy: AllocationPolicy,
        hook: &mut dyn FaultHook,
        tel: &Telemetry,
    ) -> CongestionOutcome {
        let t0 = tel.start();
        let cfg = &self.config;
        let mut rng = Rng::new(cfg.seed);
        let n = cfg.households;
        // Baseline demands: log-normal, scaled so the mean offered load is
        // ~80% of capacity before bursts.
        let mut base: Vec<f64> = (0..n)
            .map(|_| rng.log_normal(0.0, cfg.demand_sigma))
            .collect();
        let sum: f64 = base.iter().sum();
        let scale = 0.8 * cfg.capacity / sum;
        for b in base.iter_mut() {
            *b *= scale;
        }
        let entitlement = cfg.capacity / n as f64;
        let bank_cap = cfg.bank_cap_rounds * entitlement;
        let mut banked = vec![0.0f64; n];
        let mut fairness_acc = 0.0;
        let mut util_acc = 0.0;
        let mut starved = 0u64;
        let mut sat_household_rounds = 0u64;
        let mut saturated_rounds = 0u32;
        for round in 0..cfg.rounds {
            // A link outage shrinks this round's shared backhaul by up to
            // 60% at full severity; probabilities and demand draws are
            // untouched so the RNG stream stays aligned with the un-faulted
            // run.
            let round_capacity = match hook.inject(u64::from(round), FaultKind::LinkOutage) {
                Some(severity) => cfg.capacity * (1.0 - 0.6 * severity),
                None => cfg.capacity,
            };
            // Demands this round.
            let demand: Vec<f64> = base
                .iter()
                .map(|&b| {
                    if rng.chance(cfg.burst_probability) {
                        b * cfg.burst_multiplier
                    } else {
                        b
                    }
                })
                .collect();
            let total: f64 = demand.iter().sum();
            let alloc = match policy {
                AllocationPolicy::FreeForAll => {
                    let factor = (round_capacity / total).min(1.0);
                    demand.iter().map(|&d| d * factor).collect::<Vec<f64>>()
                }
                AllocationPolicy::StaticCap => demand
                    .iter()
                    .map(|&d| d.min(entitlement))
                    .collect::<Vec<f64>>(),
                AllocationPolicy::CommunityTokens => {
                    // Pass 1: entitlements plus banked credit.
                    let mut a: Vec<f64> = demand
                        .iter()
                        .zip(&banked)
                        .map(|(&d, &bk)| d.min(entitlement + bk))
                        .collect();
                    // Clamp to capacity if entitlement+bank oversubscribes.
                    let used: f64 = a.iter().sum();
                    if used > round_capacity {
                        let f = round_capacity / used;
                        for x in a.iter_mut() {
                            *x *= f;
                        }
                    } else {
                        // Pass 2: max-min water-fill the leftover capacity
                        // over unmet demand.
                        let mut leftover = round_capacity - used;
                        let mut unmet: Vec<usize> =
                            (0..n).filter(|&h| demand[h] - a[h] > 1e-12).collect();
                        while leftover > 1e-9 && !unmet.is_empty() {
                            let share = leftover / unmet.len() as f64;
                            let mut next_unmet = Vec::new();
                            for &h in &unmet {
                                let need = demand[h] - a[h];
                                let grant = need.min(share);
                                a[h] += grant;
                                leftover -= grant;
                                if demand[h] - a[h] > 1e-12 {
                                    next_unmet.push(h);
                                }
                            }
                            if next_unmet.len() == unmet.len() {
                                // Everyone still unmet got a full share;
                                // continue water-filling.
                            }
                            unmet = next_unmet;
                        }
                    }
                    // Bank bookkeeping: unused entitlement carries over.
                    for h in 0..n {
                        let spent_from_entitlement = a[h].min(entitlement + banked[h]);
                        let new_balance =
                            (entitlement + banked[h] - spent_from_entitlement).min(bank_cap);
                        banked[h] = new_balance.max(0.0);
                    }
                    a
                }
            };
            if total > round_capacity {
                saturated_rounds += 1;
                util_acc += alloc.iter().sum::<f64>() / round_capacity;
                // Fairness among backlogged households.
                let backlogged: Vec<f64> = (0..n)
                    .filter(|&h| demand[h] > entitlement)
                    .map(|h| alloc[h])
                    .collect();
                if !backlogged.is_empty() {
                    fairness_acc += jain_fairness(&backlogged).unwrap_or(0.0);
                }
                // Starvation among modest households.
                for h in 0..n {
                    if demand[h] <= entitlement && demand[h] > 0.0 {
                        sat_household_rounds += 1;
                        if alloc[h] / demand[h] < 0.95 {
                            starved += 1;
                        }
                    }
                }
            }
        }
        let sr = saturated_rounds.max(1) as f64;
        let outcome = CongestionOutcome {
            policy,
            fairness: fairness_acc / sr,
            utilization: util_acc / sr,
            starvation: if sat_household_rounds > 0 {
                starved as f64 / sat_household_rounds as f64
            } else {
                0.0
            },
            saturated_rounds,
        };
        tel.observe_since("community.policy_ns", t0);
        outcome
    }

    /// Run all three policies on identical demand streams (same seed).
    /// Every policy faces the identical outage schedule (fault draws are
    /// pure per step), so the comparison stays apples-to-apples even
    /// mid-chaos.
    ///
    /// Telemetry: a `community.congestion` span, the per-policy
    /// `community.policy_ns` histogram, and a milestone event.
    pub fn compare(&self, hook: &mut dyn FaultHook, tel: &Telemetry) -> Vec<CongestionOutcome> {
        let _span = tel.span("community.congestion");
        let outcomes: Vec<CongestionOutcome> = AllocationPolicy::ALL
            .iter()
            .map(|&p| self.run(p, hook, tel))
            .collect();
        tel.counter("community.policies", outcomes.len() as u64);
        tel.event(Event::new(
            "milestone",
            format!(
                "community.congestion: {} policies over {} rounds",
                outcomes.len(),
                self.config.rounds
            ),
        ));
        outcomes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::NoFaults;

    fn outcomes() -> Vec<CongestionOutcome> {
        CongestionSim::new(CongestionConfig::default())
            .unwrap()
            .compare(&mut NoFaults, &Telemetry::disabled())
    }

    #[test]
    fn config_validation() {
        let mut c = CongestionConfig::default();
        c.households = 0;
        assert!(CongestionSim::new(c).is_err());
        let mut c = CongestionConfig::default();
        c.capacity = 0.0;
        assert!(CongestionSim::new(c).is_err());
        let mut c = CongestionConfig::default();
        c.burst_multiplier = 0.5;
        assert!(CongestionSim::new(c).is_err());
        let mut c = CongestionConfig::default();
        c.burst_probability = 2.0;
        assert!(CongestionSim::new(c).is_err());
    }

    #[test]
    fn runs_are_deterministic() {
        let sim = CongestionSim::new(CongestionConfig::default()).unwrap();
        let run = || {
            sim.run(
                AllocationPolicy::FreeForAll,
                &mut NoFaults,
                &Telemetry::disabled(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn saturation_occurs_with_default_config() {
        for out in outcomes() {
            assert!(out.saturated_rounds > 10, "{out:?}");
        }
    }

    #[test]
    fn community_tokens_beat_free_for_all_on_fairness() {
        let outs = outcomes();
        let get = |p: AllocationPolicy| outs.iter().find(|o| o.policy == p).unwrap().clone();
        let ffa = get(AllocationPolicy::FreeForAll);
        let cpr = get(AllocationPolicy::CommunityTokens);
        assert!(
            cpr.fairness > ffa.fairness + 0.05,
            "tokens fairness {} vs ffa {}",
            cpr.fairness,
            ffa.fairness
        );
        assert!(cpr.starvation < ffa.starvation);
    }

    #[test]
    fn community_tokens_beat_static_cap_on_utilization() {
        let outs = outcomes();
        let get = |p: AllocationPolicy| outs.iter().find(|o| o.policy == p).unwrap().clone();
        let cap = get(AllocationPolicy::StaticCap);
        let cpr = get(AllocationPolicy::CommunityTokens);
        assert!(
            cpr.utilization > cap.utilization + 0.05,
            "tokens utilization {} vs static cap {}",
            cpr.utilization,
            cap.utilization
        );
    }

    #[test]
    fn free_for_all_has_highest_utilization() {
        let outs = outcomes();
        let ffa = outs
            .iter()
            .find(|o| o.policy == AllocationPolicy::FreeForAll)
            .unwrap();
        for o in &outs {
            assert!(ffa.utilization >= o.utilization - 1e-9);
        }
        assert!(
            (ffa.utilization - 1.0).abs() < 1e-9,
            "ffa always fills the pipe"
        );
    }

    #[test]
    fn static_cap_is_fair_but_wasteful() {
        let outs = outcomes();
        let cap = outs
            .iter()
            .find(|o| o.policy == AllocationPolicy::StaticCap)
            .unwrap();
        assert!(cap.utilization < 1.0);
        let ffa = outs
            .iter()
            .find(|o| o.policy == AllocationPolicy::FreeForAll)
            .unwrap();
        assert!(cap.fairness > ffa.fairness);
    }

    #[test]
    fn allocations_never_exceed_capacity() {
        // Indirect check: utilization must never exceed 1.
        for out in outcomes() {
            assert!(out.utilization <= 1.0 + 1e-9, "{out:?}");
        }
    }

    #[test]
    fn outages_shrink_the_pool_but_keep_invariants() {
        use humnet_resilience::{FaultPlan, FaultProfile, PlanHook};
        let sim = CongestionSim::new(CongestionConfig::default()).unwrap();
        for policy in AllocationPolicy::ALL {
            let tel = Telemetry::disabled();
            let plain = sim.run(policy, &mut NoFaults, &tel);
            let mut none = PlanHook::new(FaultPlan::none());
            assert_eq!(sim.run(policy, &mut none, &tel), plain);
            let run_chaos = || {
                let mut hook = PlanHook::new(FaultPlan::new(FaultProfile::Outage, 5));
                let out = sim.run(policy, &mut hook, &tel);
                (out, hook.faults_injected())
            };
            let (a, fa) = run_chaos();
            let (b, fb) = run_chaos();
            assert_eq!(a, b, "faulted runs must be reproducible");
            assert_eq!(fa, fb);
            assert!(fa > 0, "outage profile should fire over 500 rounds");
            assert!((0.0..=1.0 + 1e-9).contains(&a.fairness), "{a:?}");
            assert!((0.0..=1.0).contains(&a.starvation), "{a:?}");
            // Losing capacity can only saturate more rounds, never fewer.
            assert!(
                a.saturated_rounds >= plain.saturated_rounds,
                "{a:?} vs {plain:?}"
            );
        }
    }

    #[test]
    fn no_bursts_no_saturation() {
        let mut cfg = CongestionConfig::default();
        cfg.burst_probability = 0.0;
        cfg.demand_sigma = 0.0;
        // Mean load is 80% of capacity with zero variance: never saturates.
        let sim = CongestionSim::new(cfg).unwrap();
        let out = sim.run(
            AllocationPolicy::FreeForAll,
            &mut NoFaults,
            &Telemetry::disabled(),
        );
        assert_eq!(out.saturated_rounds, 0);
        assert_eq!(out.starvation, 0.0);
    }
}
