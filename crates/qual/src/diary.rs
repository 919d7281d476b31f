//! Diary studies with technology probes (§6.1's "other human-centered
//! methods", after Chidziwisano 2024 [7]).
//!
//! A diary study asks participants to record entries over weeks. Its
//! well-known failure mode is *compliance decay*: entries taper off as
//! novelty fades. Technology probes — devices that ping participants when
//! something interesting happens on the network — counteract the decay by
//! prompting entries. This module models both, deterministically, so the
//! method's design trade-offs (study length, probe rate) can be explored
//! the same way the headline experiments are.

use crate::{QualError, Result};
use humnet_stats::Rng;

/// One diary entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaryEntry {
    /// Participant index.
    pub participant: usize,
    /// Study day (0-based).
    pub day: u32,
    /// Whether a probe prompt triggered the entry.
    pub prompted: bool,
    /// Entry length in words (a proxy for richness).
    pub words: u32,
}

/// Configuration of a diary study simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaryConfig {
    /// Number of participants.
    pub participants: usize,
    /// Study length in days.
    pub days: u32,
    /// Initial per-day probability of a spontaneous entry.
    pub base_compliance: f64,
    /// Multiplicative daily decay of spontaneous compliance (e.g. 0.97).
    pub compliance_decay: f64,
    /// Per-day probability that the technology probe fires for a
    /// participant (0 = plain diary study).
    pub probe_rate: f64,
    /// Probability a probe prompt yields an entry.
    pub probe_response: f64,
    /// Mean words per entry at day 0.
    pub initial_words: f64,
    /// Multiplicative daily decay of entry richness.
    pub richness_decay: f64,
}

impl Default for DiaryConfig {
    fn default() -> Self {
        DiaryConfig {
            participants: 12,
            days: 42,
            base_compliance: 0.8,
            compliance_decay: 0.95,
            probe_rate: 0.0,
            probe_response: 0.75,
            initial_words: 60.0,
            richness_decay: 0.99,
        }
    }
}

impl DiaryConfig {
    /// Validate parameters.
    pub fn validate(&self) -> Result<()> {
        if self.participants == 0 {
            return Err(QualError::InvalidParameter("participants must be >= 1"));
        }
        if self.days == 0 {
            return Err(QualError::InvalidParameter("days must be >= 1"));
        }
        for p in [
            self.base_compliance,
            self.compliance_decay,
            self.probe_rate,
            self.probe_response,
            self.richness_decay,
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(QualError::InvalidParameter(
                    "probabilities must be in [0,1]",
                ));
            }
        }
        if self.initial_words <= 0.0 {
            return Err(QualError::InvalidParameter(
                "initial_words must be positive",
            ));
        }
        Ok(())
    }
}

/// Results of a simulated diary study.
#[derive(Debug, Clone, PartialEq)]
pub struct DiaryOutcome {
    /// All entries, ordered by (day, participant).
    pub entries: Vec<DiaryEntry>,
    /// Per-day compliance: fraction of participants who wrote that day.
    pub compliance_curve: Vec<f64>,
}

impl DiaryOutcome {
    /// Overall compliance: entries ÷ participant-days.
    pub fn overall_compliance(&self, config: &DiaryConfig) -> f64 {
        self.entries.len() as f64 / (config.participants as f64 * config.days as f64)
    }

    /// Compliance in the final week of the study (the retention signal).
    pub fn final_week_compliance(&self) -> f64 {
        let n = self.compliance_curve.len();
        if n == 0 {
            return 0.0;
        }
        let start = n.saturating_sub(7);
        let tail = &self.compliance_curve[start..];
        tail.iter().sum::<f64>() / tail.len() as f64
    }

    /// Fraction of entries that were probe-prompted.
    pub fn prompted_share(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().filter(|e| e.prompted).count() as f64 / self.entries.len() as f64
    }

    /// Mean words per entry.
    pub fn mean_words(&self) -> f64 {
        if self.entries.is_empty() {
            return 0.0;
        }
        self.entries.iter().map(|e| e.words as f64).sum::<f64>() / self.entries.len() as f64
    }
}

/// Run a diary study deterministically. Telemetry: a `qual.diary` span,
/// an entry counter, and a milestone event.
pub fn simulate_diary(
    config: &DiaryConfig,
    seed: u64,
    tel: &humnet_telemetry::Telemetry,
) -> Result<DiaryOutcome> {
    let _span = tel.span("qual.diary");
    let outcome = simulate_diary_inner(config, seed)?;
    tel.counter("qual.diary_entries", outcome.entries.len() as u64);
    tel.gauge("qual.diary_compliance", outcome.overall_compliance(config));
    tel.event(humnet_telemetry::Event::new(
        "milestone",
        format!(
            "qual.diary: {} entries over {} days from {} participants",
            outcome.entries.len(),
            config.days,
            config.participants
        ),
    ));
    Ok(outcome)
}

fn simulate_diary_inner(config: &DiaryConfig, seed: u64) -> Result<DiaryOutcome> {
    config.validate()?;
    let mut rng = Rng::new(seed);
    let mut entries = Vec::new();
    let mut compliance_curve = Vec::with_capacity(config.days as usize);
    for day in 0..config.days {
        let spont_p = config.base_compliance * config.compliance_decay.powi(day as i32);
        let words_mean = config.initial_words * config.richness_decay.powi(day as i32);
        let mut writers = 0usize;
        for participant in 0..config.participants {
            let prompted = rng.chance(config.probe_rate) && rng.chance(config.probe_response);
            let spontaneous = rng.chance(spont_p);
            if prompted || spontaneous {
                writers += 1;
                // Prompted entries are grounded in a concrete event and run
                // a little longer.
                let mean = if prompted {
                    words_mean * 1.3
                } else {
                    words_mean
                };
                let words = rng.normal(mean, mean * 0.25).max(5.0).round() as u32;
                entries.push(DiaryEntry {
                    participant,
                    day,
                    prompted,
                    words,
                });
            }
        }
        compliance_curve.push(writers as f64 / config.participants as f64);
    }
    Ok(DiaryOutcome {
        entries,
        compliance_curve,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simulate(c: &DiaryConfig, seed: u64) -> Result<DiaryOutcome> {
        simulate_diary(c, seed, &humnet_telemetry::Telemetry::disabled())
    }

    #[test]
    fn validation() {
        let mut c = DiaryConfig::default();
        c.participants = 0;
        assert!(simulate(&c, 1).is_err());
        let mut c = DiaryConfig::default();
        c.compliance_decay = 1.5;
        assert!(simulate(&c, 1).is_err());
        let mut c = DiaryConfig::default();
        c.initial_words = 0.0;
        assert!(simulate(&c, 1).is_err());
    }

    #[test]
    fn deterministic() {
        let c = DiaryConfig::default();
        assert_eq!(simulate(&c, 9).unwrap(), simulate(&c, 9).unwrap());
    }

    #[test]
    fn compliance_decays_without_probes() {
        let c = DiaryConfig::default();
        let out = simulate(&c, 3).unwrap();
        let first_week: f64 = out.compliance_curve[..7].iter().sum::<f64>() / 7.0;
        let last_week = out.final_week_compliance();
        assert!(
            first_week > last_week + 0.2,
            "first week {first_week} vs last {last_week}"
        );
        assert_eq!(out.prompted_share(), 0.0);
    }

    #[test]
    fn probes_sustain_compliance() {
        let mut with = DiaryConfig::default();
        with.probe_rate = 0.5;
        let probed = simulate(&with, 5).unwrap();
        let plain = simulate(&DiaryConfig::default(), 5).unwrap();
        assert!(
            probed.final_week_compliance() > plain.final_week_compliance() + 0.1,
            "probed {} vs plain {}",
            probed.final_week_compliance(),
            plain.final_week_compliance()
        );
        assert!(probed.prompted_share() > 0.1);
    }

    #[test]
    fn overall_compliance_bounds() {
        let c = DiaryConfig::default();
        let out = simulate(&c, 7).unwrap();
        let oc = out.overall_compliance(&c);
        assert!((0.0..=1.0).contains(&oc));
        assert!(oc > 0.2, "oc = {oc}");
    }

    #[test]
    fn richness_decays() {
        let mut c = DiaryConfig::default();
        c.richness_decay = 0.95;
        c.days = 60;
        let out = simulate(&c, 11).unwrap();
        let early: Vec<u32> = out
            .entries
            .iter()
            .filter(|e| e.day < 10)
            .map(|e| e.words)
            .collect();
        let late: Vec<u32> = out
            .entries
            .iter()
            .filter(|e| e.day >= 50)
            .map(|e| e.words)
            .collect();
        if !late.is_empty() {
            let em = early.iter().sum::<u32>() as f64 / early.len() as f64;
            let lm = late.iter().sum::<u32>() as f64 / late.len() as f64;
            assert!(em > lm, "early {em} vs late {lm}");
        }
    }

    #[test]
    fn entries_are_well_formed() {
        let c = DiaryConfig::default();
        let out = simulate(&c, 13).unwrap();
        for e in &out.entries {
            assert!(e.participant < c.participants);
            assert!(e.day < c.days);
            assert!(e.words >= 5);
        }
        assert_eq!(out.compliance_curve.len(), c.days as usize);
    }
}
