//! The sustainability simulation: failures, repair dispatch, burnout.
//!
//! Experiment **T3**: simulate a volunteer-maintained mesh for `days` days.
//! Each day:
//!
//! 1. every up node fails independently with `daily_failure_rate`;
//! 2. each down node is offered to an available volunteer (most skilled
//!    available first under FewCore-style concentration; round-robin under
//!    stewardship); a volunteer repairs one node per day with probability
//!    `skill`;
//! 3. working volunteers accrue burnout, idle ones recover; a volunteer at
//!    full burnout quits permanently;
//! 4. uptime accounting: a node-day counts as served when the node has
//!    service (path to an up gateway).

use crate::mesh::{MeshConfig, MeshNetwork, NodeState, ServiceScratch};
use crate::volunteer::{VolunteerPool, VolunteerRegime};
use crate::Result;
use humnet_resilience::{FaultHook, FaultKind};
use humnet_stats::Rng;
use humnet_telemetry::{Event, Telemetry};

/// Configuration of a sustainability run.
#[derive(Debug, Clone, PartialEq)]
pub struct SustainabilityConfig {
    /// Mesh shape.
    pub mesh: MeshConfig,
    /// Volunteer regime.
    pub regime: VolunteerRegime,
    /// Days to simulate.
    pub days: u32,
    /// Per-node per-day failure probability.
    pub daily_failure_rate: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for SustainabilityConfig {
    fn default() -> Self {
        SustainabilityConfig {
            mesh: MeshConfig::default(),
            regime: VolunteerRegime::DistributedStewardship,
            days: 365,
            daily_failure_rate: 0.01,
            seed: 1,
        }
    }
}

/// Aggregate outcome of a sustainability run.
#[derive(Debug, Clone, PartialEq)]
pub struct SustainabilityOutcome {
    /// Regime simulated.
    pub regime: VolunteerRegime,
    /// Fraction of node-days with service.
    pub uptime: f64,
    /// Mean days from failure to completed repair (completed repairs only).
    pub mttr: f64,
    /// Repairs completed.
    pub repairs_completed: usize,
    /// Failures that occurred.
    pub failures: usize,
    /// Volunteers who quit from burnout.
    pub attrition: usize,
    /// Total staffing cost.
    pub total_cost: f64,
    /// Service fraction on the final day (detects late-run collapse).
    pub final_service: f64,
}

/// A runnable sustainability simulation.
#[derive(Debug, Clone)]
pub struct SustainabilitySim {
    config: SustainabilityConfig,
}

impl SustainabilitySim {
    /// Create a simulation.
    pub fn new(config: SustainabilityConfig) -> Result<Self> {
        if config.days == 0 {
            return Err(crate::CommunityError::InvalidParameter("days must be >= 1"));
        }
        if !(0.0..=1.0).contains(&config.daily_failure_rate) {
            return Err(crate::CommunityError::InvalidParameter(
                "daily_failure_rate must be in [0,1]",
            ));
        }
        Ok(SustainabilitySim { config })
    }

    /// Run to completion under a fault hook. Each day the hook is asked
    /// about [`FaultKind::VolunteerDropout`] (today's volunteer availability
    /// is scaled down by the severity) and [`FaultKind::LinkOutage`] (extra
    /// node failures proportional to the severity).
    ///
    /// Telemetry: a `community.sustainability` span, a per-day
    /// `community.day_ns` histogram, failure/repair counters, and a
    /// milestone event.
    pub fn run(&self, hook: &mut dyn FaultHook, tel: &Telemetry) -> Result<SustainabilityOutcome> {
        let _span = tel.span("community.sustainability");
        let mut rng = Rng::new(self.config.seed);
        let mut mesh = MeshNetwork::deploy(&self.config.mesh, &mut rng)?;
        let mut pool = VolunteerPool::for_regime(self.config.regime);
        pool.validate()?;
        let n = mesh.node_count();
        let mut failed_on: Vec<Option<u32>> = vec![None; n];
        let mut served_node_days = 0u64;
        let mut repair_latencies: Vec<u32> = Vec::new();
        let mut failures = 0usize;
        let mut total_cost = 0.0;
        // Dispatch order: FewCore concentrates on the most skilled;
        // stewardship rotates by one volunteer a day. `skill` never
        // changes, so the (stable) by-skill sort is done once per run.
        let k = pool.members.len();
        let mut order: Vec<usize> = (0..k).collect();
        if self.config.regime != VolunteerRegime::DistributedStewardship {
            order.sort_by(|&a, &b| {
                pool.members[b]
                    .skill
                    .partial_cmp(&pool.members[a].skill)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
        }
        // Per-day buffers, reused across days.
        let mut down: Vec<usize> = Vec::with_capacity(n);
        let mut worked = vec![false; k];
        let mut available = vec![false; k];
        let mut scratch = ServiceScratch::default();
        for day in 0..self.config.days {
            let t0 = tel.start();
            // Fault injection perturbs the day's *probabilities* rather than
            // adding RNG draws, so the base random stream stays aligned with
            // the un-faulted run and `NoFaults` reproduces it exactly.
            let day_failure_rate = match hook.inject(u64::from(day), FaultKind::LinkOutage) {
                // A link outage burst: up to +35 percentage points of
                // per-node failure probability at full severity.
                Some(severity) => (self.config.daily_failure_rate + 0.35 * severity).min(1.0),
                None => self.config.daily_failure_rate,
            };
            let availability_scale = match hook.inject(u64::from(day), FaultKind::VolunteerDropout)
            {
                // A dropout spike: most hands stay home today.
                Some(severity) => 1.0 - severity,
                None => 1.0,
            };
            // 1. Failures; `down` collects every node down afterwards, in
            // id order.
            down.clear();
            for node in 0..n {
                if mesh.state(node)? == NodeState::Up {
                    if rng.chance(day_failure_rate) {
                        mesh.set_state(node, NodeState::Down)?;
                        failed_on[node] = Some(day);
                        failures += 1;
                        down.push(node);
                    }
                } else {
                    down.push(node);
                }
            }
            // 2. Repair dispatch.
            worked.fill(false);
            // Determine today's availability per volunteer.
            for (free, v) in available.iter_mut().zip(&pool.members) {
                *free = rng.chance(v.effective_availability() * availability_scale);
            }
            let mut hands = order.iter().copied().filter(|&v| available[v]);
            for &node in &down {
                let Some(vol_idx) = hands.next() else {
                    break; // no more hands today
                };
                worked[vol_idx] = true;
                if rng.chance(pool.members[vol_idx].skill) {
                    mesh.set_state(node, NodeState::Up)?;
                    if let Some(f) = failed_on[node].take() {
                        repair_latencies.push(day - f + 1);
                    }
                }
            }
            if self.config.regime == VolunteerRegime::DistributedStewardship {
                order.rotate_left(1);
            }
            // 3. Burnout bookkeeping and costs.
            for (i, member) in pool.members.iter_mut().enumerate() {
                if worked[i] {
                    member.work_day();
                } else {
                    member.rest_day();
                }
                if !member.quit {
                    total_cost += member.daily_cost;
                }
            }
            // 4. Uptime accounting.
            served_node_days += mesh.served_count(&mut scratch) as u64;
            tel.observe_since("community.day_ns", t0);
        }
        let uptime = served_node_days as f64 / (n as u64 * self.config.days as u64) as f64;
        let mttr = if repair_latencies.is_empty() {
            f64::NAN
        } else {
            repair_latencies.iter().map(|&l| l as f64).sum::<f64>() / repair_latencies.len() as f64
        };
        tel.counter("community.days", u64::from(self.config.days));
        tel.counter("community.failures", failures as u64);
        tel.counter("community.repairs", repair_latencies.len() as u64);
        tel.gauge("community.uptime", uptime);
        tel.event(
            Event::new(
                "milestone",
                format!(
                    "community.sustainability: {} days, {} failures, {} repairs, uptime {:.3}",
                    self.config.days,
                    failures,
                    repair_latencies.len(),
                    uptime
                ),
            )
            .with_step(u64::from(self.config.days)),
        );
        Ok(SustainabilityOutcome {
            regime: self.config.regime,
            uptime,
            mttr,
            repairs_completed: repair_latencies.len(),
            failures,
            attrition: pool.attrition(),
            total_cost,
            final_service: mesh.service_fraction(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_resilience::NoFaults;

    fn run(
        regime: VolunteerRegime,
        failure_rate: f64,
        days: u32,
        seed: u64,
    ) -> SustainabilityOutcome {
        let mut cfg = SustainabilityConfig::default();
        cfg.regime = regime;
        cfg.daily_failure_rate = failure_rate;
        cfg.days = days;
        cfg.seed = seed;
        SustainabilitySim::new(cfg)
            .unwrap()
            .run(&mut NoFaults, &Telemetry::disabled())
            .unwrap()
    }

    #[test]
    fn config_validation() {
        let mut cfg = SustainabilityConfig::default();
        cfg.days = 0;
        assert!(SustainabilitySim::new(cfg).is_err());
        let mut cfg = SustainabilityConfig::default();
        cfg.daily_failure_rate = 1.5;
        assert!(SustainabilitySim::new(cfg).is_err());
    }

    #[test]
    fn zero_failure_rate_gives_stable_uptime() {
        let out = run(VolunteerRegime::DistributedStewardship, 0.0, 60, 1);
        assert_eq!(out.failures, 0);
        assert_eq!(out.repairs_completed, 0);
        assert!(out.mttr.is_nan());
        // Uptime equals the deployed service fraction (some nodes may be
        // out of radio range of a gateway from day one).
        assert!(out.uptime > 0.0);
        assert!((out.uptime - out.final_service).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(VolunteerRegime::FewCore, 0.02, 120, 9);
        let b = run(VolunteerRegime::FewCore, 0.02, 120, 9);
        assert_eq!(a, b);
    }

    #[test]
    fn few_core_burns_out_under_load() {
        let out = run(VolunteerRegime::FewCore, 0.05, 365, 3);
        assert!(out.attrition >= 1, "core volunteers should quit: {out:?}");
    }

    #[test]
    fn stewardship_outlasts_few_core_under_load() {
        // Average over seeds to keep the comparison robust.
        let mean_uptime = |regime| {
            (0..5)
                .map(|s| run(regime, 0.05, 365, s).uptime)
                .sum::<f64>()
                / 5.0
        };
        let steward = mean_uptime(VolunteerRegime::DistributedStewardship);
        let core = mean_uptime(VolunteerRegime::FewCore);
        assert!(
            steward > core,
            "stewardship uptime {steward} should beat few-core {core}"
        );
    }

    #[test]
    fn paid_staff_costs_money() {
        let out = run(VolunteerRegime::PaidStaff, 0.02, 200, 4);
        assert!(out.total_cost > 0.0);
        assert_eq!(out.attrition, 0);
        let vol = run(VolunteerRegime::DistributedStewardship, 0.02, 200, 4);
        assert_eq!(vol.total_cost, 0.0);
    }

    #[test]
    fn higher_failure_rate_lowers_uptime() {
        let low = run(VolunteerRegime::DistributedStewardship, 0.005, 200, 5);
        let high = run(VolunteerRegime::DistributedStewardship, 0.08, 200, 5);
        assert!(low.uptime > high.uptime);
        assert!(high.failures > low.failures);
    }

    #[test]
    fn faults_degrade_but_never_corrupt() {
        use humnet_resilience::{FaultPlan, FaultProfile, PlanHook};
        let cfg = SustainabilityConfig::default();
        let sim = SustainabilitySim::new(cfg).unwrap();
        let tel = Telemetry::disabled();
        let plain = sim.run(&mut NoFaults, &tel).unwrap();
        // An inactive plan reproduces the fault-free run bit-for-bit.
        let mut none = PlanHook::new(FaultPlan::none());
        assert_eq!(sim.run(&mut none, &tel).unwrap(), plain);
        assert_eq!(none.faults_injected(), 0);
        // Chaos runs are deterministic and stay within valid bounds.
        let chaos = |seed| {
            let mut hook = PlanHook::new(FaultPlan::new(FaultProfile::Chaos, seed));
            let out = sim.run(&mut hook, &tel).unwrap();
            (out, hook.faults_injected())
        };
        let (a, fa) = chaos(21);
        let (b, fb) = chaos(21);
        assert_eq!(a, b);
        assert_eq!(fa, fb);
        assert!(fa > 0);
        assert!((0.0..=1.0).contains(&a.uptime));
        assert!((0.0..=1.0).contains(&a.final_service));
        assert!(a.failures >= plain.failures, "outages should add failures");
    }

    #[test]
    fn mttr_is_positive_when_repairs_happen() {
        let out = run(VolunteerRegime::PaidStaff, 0.03, 200, 6);
        assert!(out.repairs_completed > 0);
        assert!(out.mttr >= 1.0);
    }
}
