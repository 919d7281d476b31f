//! Attention and coverage metrics over a finished agenda run.

use crate::model::{ProblemSpace, StakeholderClass};
use crate::{AgendaError, Result};

/// Publications per stakeholder class (order of [`StakeholderClass::ALL`]).
pub fn attention_by_class(space: &ProblemSpace) -> Vec<(StakeholderClass, u64)> {
    StakeholderClass::ALL
        .iter()
        .map(|&c| {
            let pubs = space
                .problems
                .iter()
                .filter(|p| p.stakeholder == c)
                .map(|p| p.publications as u64)
                .sum();
            (c, pubs)
        })
        .collect()
}

/// Gini coefficient of per-problem publication counts — the concentration
/// of research attention (experiment **F1**).
pub fn attention_gini(space: &ProblemSpace) -> Result<f64> {
    if space.is_empty() {
        return Err(AgendaError::EmptyInput);
    }
    let counts: Vec<f64> = space
        .problems
        .iter()
        .map(|p| p.publications as f64)
        .collect();
    humnet_stats::gini(&counts).map_err(|_| AgendaError::InvalidParameter("no publications"))
}

/// Fraction of problems of the given marginalization status that surfaced.
pub fn coverage(space: &ProblemSpace, marginalized: bool) -> Result<f64> {
    let pool: Vec<_> = space
        .problems
        .iter()
        .filter(|p| p.stakeholder.is_marginalized() == marginalized)
        .collect();
    if pool.is_empty() {
        return Err(AgendaError::EmptyInput);
    }
    Ok(pool.iter().filter(|p| p.surfaced_round.is_some()).count() as f64 / pool.len() as f64)
}

/// Mean round at which problems of a class surfaced (surfaced ones only).
/// Returns `None` when no problem of the class surfaced.
pub fn mean_time_to_surface(space: &ProblemSpace, class: StakeholderClass) -> Option<f64> {
    let rounds: Vec<f64> = space
        .problems
        .iter()
        .filter(|p| p.stakeholder == class)
        .filter_map(|p| p.surfaced_round.map(|r| r as f64))
        .collect();
    if rounds.is_empty() {
        None
    } else {
        Some(rounds.iter().sum::<f64>() / rounds.len() as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regime::MethodRegime;
    use crate::sim::{AgendaConfig, AgendaSim};
    use humnet_resilience::NoFaults;
    use humnet_telemetry::Telemetry;

    fn finished(regime: MethodRegime) -> AgendaSim {
        let mut cfg = AgendaConfig::default();
        cfg.regime = regime;
        cfg.seed = 13;
        let mut sim = AgendaSim::new(cfg).unwrap();
        sim.run(&mut NoFaults, &Telemetry::disabled()).unwrap();
        sim
    }

    #[test]
    fn attention_sums_to_total_publications() {
        let sim = finished(MethodRegime::DataDriven);
        let by_class: u64 = attention_by_class(sim.space())
            .iter()
            .map(|&(_, c)| c)
            .sum();
        assert_eq!(by_class, sim.history().last().unwrap().publications);
    }

    #[test]
    fn data_driven_more_concentrated_than_par() {
        let dd = attention_gini(finished(MethodRegime::DataDriven).space()).unwrap();
        let par = attention_gini(finished(MethodRegime::Par).space()).unwrap();
        assert!(dd > par, "data-driven gini {dd} should exceed par {par}");
    }

    #[test]
    fn coverage_bounds_and_gap() {
        let sim = finished(MethodRegime::DataDriven);
        let marg = coverage(sim.space(), true).unwrap();
        let dominant = coverage(sim.space(), false).unwrap();
        assert!((0.0..=1.0).contains(&marg));
        assert!(
            dominant > marg,
            "dominant {dominant} vs marginalized {marg}"
        );
    }

    #[test]
    fn time_to_surface_ordering_under_data_driven() {
        // A small researcher population makes surfacing gradual enough for
        // the ordering to show (with 200 researchers nearly everything
        // surfaces in round 0). Average over seeds for robustness.
        let mut hyper_sum = 0.0;
        let mut comm_sum = 0.0;
        let mut comm_n = 0;
        for seed in 0..5 {
            let mut cfg = AgendaConfig::default();
            cfg.regime = MethodRegime::DataDriven;
            cfg.researchers = 15;
            cfg.seed = seed;
            let mut sim = AgendaSim::new(cfg).unwrap();
            sim.run(&mut NoFaults, &Telemetry::disabled()).unwrap();
            hyper_sum += mean_time_to_surface(sim.space(), StakeholderClass::Hyperscaler).unwrap();
            if let Some(c) = mean_time_to_surface(sim.space(), StakeholderClass::CommunityOperator)
            {
                comm_sum += c;
                comm_n += 1;
            }
        }
        let hyper = hyper_sum / 5.0;
        assert!(hyper < 15.0, "hyperscaler surfaced at mean round {hyper}");
        if comm_n > 0 {
            let comm = comm_sum / comm_n as f64;
            assert!(
                comm > hyper,
                "community problems should surface later: {comm} vs {hyper}"
            );
        }
    }

    #[test]
    fn empty_space_errors() {
        let space = ProblemSpace { problems: vec![] };
        assert!(attention_gini(&space).is_err());
        assert!(coverage(&space, true).is_err());
        assert!(mean_time_to_surface(&space, StakeholderClass::Hyperscaler).is_none());
    }
}
