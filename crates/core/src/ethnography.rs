//! Field studies and the insight-saturation model (experiment **F6**).
//!
//! §3 of the paper, citing the patchwork-ethnography manifesto [17] and
//! Marcus's "How short can fieldwork be?" [36], claims that fragmented
//! field engagement can preserve depth — there is "no reason for concluding
//! that the time it takes must in every case be spent in its bulk in a
//! physical fieldsite".
//!
//! **Substitution note (DESIGN.md §1).** We cannot run fieldwork, so we
//! model the one mechanism the debate turns on: *depth of engagement*.
//! A site holds a latent pool of insights. Each field day harvests a
//! fraction of the remaining pool proportional to the ethnographer's
//! current depth. Depth builds over consecutive days and collapses between
//! visits — unless reflexive memo practice (patchwork's core discipline)
//! preserves it. The model then lets experiment **F6** ask: at a fixed
//! budget of field days, how much insight does each schedule yield?

use crate::{CoreError, Result};

/// How field days are laid out in calendar time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Schedule {
    /// One continuous block (classical long-form fieldwork).
    Traditional,
    /// `fragments` equal visits separated by `gap_days` away.
    Patchwork {
        /// Number of visits.
        fragments: usize,
        /// Days away between visits.
        gap_days: u32,
    },
    /// Industry-style rapid ethnography: one short, intense visit using
    /// only part of the budget (the rest of the budget is simply not spent
    /// in the field).
    Rapid {
        /// Days actually spent on site.
        days_on_site: u32,
    },
}

/// The reflexive documentation practice maintained between visits.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MemoPractice {
    /// No systematic memos: depth collapses between visits.
    None,
    /// Patchwork-style continuous reflexive writing: a fraction of depth
    /// (the value, in `[0, 1]`) survives each gap.
    Reflexive(f64),
}

/// Configuration of a field study.
#[derive(Debug, Clone, PartialEq)]
pub struct EthnographyConfig {
    /// Total budget of field days.
    pub budget_days: u32,
    /// The visit schedule.
    pub schedule: Schedule,
    /// Memo practice between visits.
    pub memos: MemoPractice,
    /// Size of the site's latent insight pool (arbitrary units).
    pub insight_pool: f64,
    /// Fraction of remaining pool harvested per day at full depth.
    pub harvest_rate: f64,
    /// Depth on the first day of a visit with no carried depth.
    pub entry_depth: f64,
    /// Depth gained per consecutive field day.
    pub depth_gain: f64,
}

impl Default for EthnographyConfig {
    fn default() -> Self {
        EthnographyConfig {
            budget_days: 60,
            schedule: Schedule::Traditional,
            memos: MemoPractice::None,
            insight_pool: 100.0,
            harvest_rate: 0.02,
            entry_depth: 0.2,
            depth_gain: 0.1,
        }
    }
}

impl EthnographyConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.budget_days == 0 {
            return Err(CoreError::InvalidParameter("budget_days must be >= 1"));
        }
        if self.insight_pool <= 0.0 {
            return Err(CoreError::InvalidParameter("insight_pool must be positive"));
        }
        if !(0.0..=1.0).contains(&self.harvest_rate)
            || !(0.0..=1.0).contains(&self.entry_depth)
            || !(0.0..=1.0).contains(&self.depth_gain)
        {
            return Err(CoreError::InvalidParameter(
                "rates and depths must be in [0,1]",
            ));
        }
        match &self.schedule {
            Schedule::Patchwork { fragments, .. } => {
                if *fragments == 0 {
                    return Err(CoreError::InvalidParameter("fragments must be >= 1"));
                }
                if *fragments as u32 > self.budget_days {
                    return Err(CoreError::InvalidParameter(
                        "more fragments than budget days",
                    ));
                }
            }
            Schedule::Rapid { days_on_site } => {
                if *days_on_site == 0 || days_on_site > &self.budget_days {
                    return Err(CoreError::InvalidParameter(
                        "days_on_site must be in [1, budget]",
                    ));
                }
            }
            Schedule::Traditional => {}
        }
        if let MemoPractice::Reflexive(keep) = self.memos {
            if !(0.0..=1.0).contains(&keep) {
                return Err(CoreError::InvalidParameter(
                    "memo retention must be in [0,1]",
                ));
            }
        }
        Ok(())
    }

    /// Expand the schedule into visit lengths (days on site per visit).
    fn visits(&self) -> Vec<u32> {
        match &self.schedule {
            Schedule::Traditional => vec![self.budget_days],
            Schedule::Patchwork { fragments, .. } => {
                let base = self.budget_days / *fragments as u32;
                let extra = self.budget_days % *fragments as u32;
                (0..*fragments as u32)
                    .map(|i| base + u32::from(i < extra))
                    .filter(|&len| len > 0)
                    .collect()
            }
            Schedule::Rapid { days_on_site } => vec![*days_on_site],
        }
    }
}

/// Outcome of a field study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyOutcome {
    /// Total insight harvested (≤ pool size).
    pub insights: f64,
    /// Fraction of the pool harvested.
    pub saturation: f64,
    /// Field days actually spent on site.
    pub days_on_site: u32,
    /// Mean engagement depth over on-site days.
    pub mean_depth: f64,
}

/// A deterministic field-study simulation.
#[derive(Debug, Clone)]
pub struct FieldStudy {
    config: EthnographyConfig,
}

impl FieldStudy {
    /// Create a study.
    pub fn new(config: EthnographyConfig) -> Result<Self> {
        config.validate()?;
        Ok(FieldStudy { config })
    }

    /// Run the study.
    pub fn run(&self) -> StudyOutcome {
        let cfg = &self.config;
        let mut insights = 0.0;
        let mut depth: f64 = 0.0;
        let mut days = 0u32;
        let mut depth_sum = 0.0;
        for (v, &len) in cfg.visits().iter().enumerate() {
            // Re-entry: depth restored from memos or reset to entry depth.
            if v == 0 {
                depth = cfg.entry_depth;
            } else {
                depth = match cfg.memos {
                    MemoPractice::None => cfg.entry_depth,
                    MemoPractice::Reflexive(keep) => (depth * keep).max(cfg.entry_depth),
                };
            }
            for _ in 0..len {
                let harvest = cfg.harvest_rate * depth * (cfg.insight_pool - insights);
                insights += harvest;
                depth_sum += depth;
                days += 1;
                depth = (depth + cfg.depth_gain).min(1.0);
            }
        }
        StudyOutcome {
            insights,
            saturation: insights / cfg.insight_pool,
            days_on_site: days,
            mean_depth: if days > 0 {
                depth_sum / days as f64
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(schedule: Schedule, memos: MemoPractice) -> StudyOutcome {
        let mut cfg = EthnographyConfig::default();
        cfg.schedule = schedule;
        cfg.memos = memos;
        FieldStudy::new(cfg).unwrap().run()
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = EthnographyConfig::default();
        cfg.budget_days = 0;
        assert!(FieldStudy::new(cfg).is_err());
        let mut cfg = EthnographyConfig::default();
        cfg.schedule = Schedule::Patchwork {
            fragments: 0,
            gap_days: 10,
        };
        assert!(FieldStudy::new(cfg).is_err());
        let mut cfg = EthnographyConfig::default();
        cfg.schedule = Schedule::Rapid { days_on_site: 90 };
        assert!(FieldStudy::new(cfg).is_err());
        let mut cfg = EthnographyConfig::default();
        cfg.memos = MemoPractice::Reflexive(1.5);
        assert!(FieldStudy::new(cfg).is_err());
        let mut cfg = EthnographyConfig::default();
        cfg.harvest_rate = 2.0;
        assert!(FieldStudy::new(cfg).is_err());
    }

    #[test]
    fn traditional_uses_full_budget() {
        let out = run(Schedule::Traditional, MemoPractice::None);
        assert_eq!(out.days_on_site, 60);
        assert!(out.saturation > 0.5, "60 deep days should saturate well");
        assert!(out.saturation < 1.0);
    }

    #[test]
    fn insights_bounded_by_pool() {
        let mut cfg = EthnographyConfig::default();
        cfg.budget_days = 3650;
        cfg.schedule = Schedule::Traditional;
        let out = FieldStudy::new(cfg).unwrap().run();
        assert!(out.insights <= 100.0);
        assert!(out.saturation <= 1.0);
    }

    #[test]
    fn patchwork_without_memos_loses_depth() {
        let trad = run(Schedule::Traditional, MemoPractice::None);
        let patch = run(
            Schedule::Patchwork {
                fragments: 6,
                gap_days: 30,
            },
            MemoPractice::None,
        );
        assert!(patch.days_on_site == trad.days_on_site);
        assert!(
            trad.insights > patch.insights * 1.1,
            "traditional {} should clearly beat memo-less patchwork {}",
            trad.insights,
            patch.insights
        );
        assert!(trad.mean_depth > patch.mean_depth);
    }

    #[test]
    fn reflexive_memos_rescue_patchwork() {
        // The §3 claim: with reflexive practice, fragmented time preserves
        // depth — patchwork comes within 10% of traditional.
        let trad = run(Schedule::Traditional, MemoPractice::None);
        let patch = run(
            Schedule::Patchwork {
                fragments: 6,
                gap_days: 30,
            },
            MemoPractice::Reflexive(0.9),
        );
        assert!(
            patch.insights > trad.insights * 0.9,
            "patchwork-with-memos {} should approach traditional {}",
            patch.insights,
            trad.insights
        );
    }

    #[test]
    fn memo_quality_is_monotone() {
        let mut last = -1.0;
        for keep in [0.0, 0.3, 0.6, 0.9] {
            let out = run(
                Schedule::Patchwork {
                    fragments: 6,
                    gap_days: 30,
                },
                MemoPractice::Reflexive(keep),
            );
            assert!(out.insights >= last, "insights must rise with memo quality");
            last = out.insights;
        }
    }

    #[test]
    fn rapid_is_cheap_and_shallow() {
        let rapid = run(Schedule::Rapid { days_on_site: 10 }, MemoPractice::None);
        let trad = run(Schedule::Traditional, MemoPractice::None);
        assert_eq!(rapid.days_on_site, 10);
        assert!(rapid.insights < trad.insights);
        assert!(rapid.insights > 0.0);
    }

    #[test]
    fn patchwork_fragment_lengths_sum_to_budget() {
        let mut cfg = EthnographyConfig::default();
        cfg.budget_days = 61;
        cfg.schedule = Schedule::Patchwork {
            fragments: 7,
            gap_days: 10,
        };
        let study = FieldStudy::new(cfg).unwrap();
        let out = study.run();
        assert_eq!(out.days_on_site, 61);
    }

    #[test]
    fn deterministic() {
        let a = run(Schedule::Traditional, MemoPractice::None);
        let b = run(Schedule::Traditional, MemoPractice::None);
        assert_eq!(a, b);
    }
}
