//! Volunteers: the humans who keep community networks alive.

use crate::{CommunityError, Result};

/// One volunteer (or staff member).
#[derive(Debug, Clone, PartialEq)]
pub struct Volunteer {
    /// Display name.
    pub name: String,
    /// Skill in `[0, 1]`: probability a repair attempt succeeds in one day.
    pub skill: f64,
    /// Baseline availability in `[0, 1]`: probability of being free to take
    /// a repair on a given day, before burnout.
    pub availability: f64,
    /// Accumulated burnout in `[0, 1]`. Reduces effective availability;
    /// at 1.0 the volunteer quits.
    pub burnout: f64,
    /// Burnout added per repair-day worked.
    pub burnout_per_repair: f64,
    /// Burnout recovered per idle day.
    pub recovery_per_day: f64,
    /// Whether the volunteer has quit.
    pub quit: bool,
    /// Daily cost (0 for volunteers, > 0 for paid staff).
    pub daily_cost: f64,
}

impl Volunteer {
    /// Effective availability after burnout.
    pub fn effective_availability(&self) -> f64 {
        if self.quit {
            0.0
        } else {
            (self.availability * (1.0 - self.burnout)).max(0.0)
        }
    }

    /// Record a day spent on a repair.
    pub fn work_day(&mut self) {
        self.burnout = (self.burnout + self.burnout_per_repair).min(1.0);
        if self.burnout >= 1.0 {
            self.quit = true;
        }
    }

    /// Record an idle day.
    pub fn rest_day(&mut self) {
        if !self.quit {
            self.burnout = (self.burnout - self.recovery_per_day).max(0.0);
        }
    }
}

/// The shape of a maintenance workforce — the independent variable of
/// experiment **T3**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VolunteerRegime {
    /// A couple of heroic core volunteers (the pattern Jang 2024 warns
    /// about): high skill and availability, but the load concentrates and
    /// burns them out.
    FewCore,
    /// Distributed stewardship: many moderately skilled volunteers sharing
    /// the load with rotation.
    DistributedStewardship,
    /// One paid technician: immune to burnout, costs money, limited hours.
    PaidStaff,
}

impl VolunteerRegime {
    /// All regimes.
    pub const ALL: [VolunteerRegime; 3] = [
        VolunteerRegime::FewCore,
        VolunteerRegime::DistributedStewardship,
        VolunteerRegime::PaidStaff,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            VolunteerRegime::FewCore => "few-core",
            VolunteerRegime::DistributedStewardship => "distributed-stewardship",
            VolunteerRegime::PaidStaff => "paid-staff",
        }
    }
}

/// A pool of volunteers under a regime.
#[derive(Debug, Clone, PartialEq)]
pub struct VolunteerPool {
    /// The members.
    pub members: Vec<Volunteer>,
    /// The regime the pool was built for.
    pub regime: VolunteerRegime,
}

impl VolunteerPool {
    /// Build the standard pool for a regime.
    pub fn for_regime(regime: VolunteerRegime) -> Self {
        let members = match regime {
            VolunteerRegime::FewCore => (0..2)
                .map(|i| Volunteer {
                    name: format!("core-{i}"),
                    skill: 0.9,
                    availability: 0.9,
                    burnout: 0.0,
                    burnout_per_repair: 0.06,
                    recovery_per_day: 0.01,
                    quit: false,
                    daily_cost: 0.0,
                })
                .collect(),
            VolunteerRegime::DistributedStewardship => (0..10)
                .map(|i| Volunteer {
                    name: format!("steward-{i}"),
                    skill: 0.6,
                    availability: 0.4,
                    burnout: 0.0,
                    burnout_per_repair: 0.04,
                    recovery_per_day: 0.03,
                    quit: false,
                    daily_cost: 0.0,
                })
                .collect(),
            VolunteerRegime::PaidStaff => vec![Volunteer {
                name: "tech-0".into(),
                skill: 0.95,
                availability: 0.95,
                burnout: 0.0,
                burnout_per_repair: 0.0,
                recovery_per_day: 1.0,
                quit: false,
                daily_cost: 1.0,
            }],
        };
        VolunteerPool { members, regime }
    }

    /// Validate member parameters.
    pub fn validate(&self) -> Result<()> {
        if self.members.is_empty() {
            return Err(CommunityError::EmptyInput);
        }
        for v in &self.members {
            if !(0.0..=1.0).contains(&v.skill)
                || !(0.0..=1.0).contains(&v.availability)
                || !(0.0..=1.0).contains(&v.burnout)
                || v.burnout_per_repair < 0.0
                || v.recovery_per_day < 0.0
                || v.daily_cost < 0.0
            {
                return Err(CommunityError::InvalidParameter(
                    "volunteer parameters out of range",
                ));
            }
        }
        Ok(())
    }

    /// Number of members who have quit.
    pub fn attrition(&self) -> usize {
        self.members.iter().filter(|v| v.quit).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regime_pools_validate() {
        for regime in VolunteerRegime::ALL {
            let pool = VolunteerPool::for_regime(regime);
            pool.validate().unwrap();
            assert!(!pool.members.is_empty());
            assert_eq!(pool.regime, regime);
        }
    }

    #[test]
    fn regime_pool_shapes() {
        assert_eq!(
            VolunteerPool::for_regime(VolunteerRegime::FewCore)
                .members
                .len(),
            2
        );
        assert_eq!(
            VolunteerPool::for_regime(VolunteerRegime::DistributedStewardship)
                .members
                .len(),
            10
        );
        assert_eq!(
            VolunteerPool::for_regime(VolunteerRegime::PaidStaff)
                .members
                .len(),
            1
        );
    }

    #[test]
    fn burnout_accumulates_and_quits() {
        let mut v = VolunteerPool::for_regime(VolunteerRegime::FewCore).members[0].clone();
        let initial = v.effective_availability();
        for _ in 0..10 {
            v.work_day();
        }
        assert!(v.burnout > 0.5);
        assert!(v.effective_availability() < initial);
        for _ in 0..10 {
            v.work_day();
        }
        assert!(v.quit);
        assert_eq!(v.effective_availability(), 0.0);
    }

    #[test]
    fn rest_recovers_burnout() {
        let mut v =
            VolunteerPool::for_regime(VolunteerRegime::DistributedStewardship).members[0].clone();
        v.work_day();
        v.work_day();
        let high = v.burnout;
        v.rest_day();
        assert!(v.burnout < high);
        for _ in 0..100 {
            v.rest_day();
        }
        assert_eq!(v.burnout, 0.0);
    }

    #[test]
    fn paid_staff_never_burns_out() {
        let mut v = VolunteerPool::for_regime(VolunteerRegime::PaidStaff).members[0].clone();
        for _ in 0..1000 {
            v.work_day();
        }
        assert!(!v.quit);
        assert_eq!(v.burnout, 0.0);
        assert!(v.daily_cost > 0.0);
    }

    #[test]
    fn attrition_counts_members_who_quit() {
        let mut pool = VolunteerPool::for_regime(VolunteerRegime::FewCore);
        assert_eq!(pool.attrition(), 0);
        for _ in 0..20 {
            pool.members[0].work_day();
        }
        assert_eq!(pool.attrition(), 1);
    }

    #[test]
    fn validation_rejects_bad_members() {
        let mut pool = VolunteerPool::for_regime(VolunteerRegime::FewCore);
        pool.members[0].skill = 1.5;
        assert!(pool.validate().is_err());
        let empty = VolunteerPool {
            members: vec![],
            regime: VolunteerRegime::FewCore,
        };
        assert!(empty.validate().is_err());
    }
}
