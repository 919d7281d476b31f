//! Quickstart: a ten-minute tour of the humnet toolkit.
//!
//! ```text
//! cargo run --example quickstart
//! ```
//!
//! Walks through one small use of each layer: statistics, the agenda
//! simulator, the simulated coding study, the IXP scenario builders,
//! and the methods auditor.

use humnet::agenda::{AgendaConfig, AgendaSim, MethodRegime};
use humnet::core::experiments;
use humnet::corpus::CorpusConfig;
use humnet::ixp::{CircumventionStrategy, MexicoConfig, MexicoScenario};
use humnet::qual::{krippendorff_alpha, SimulatedStudy, StudyConfig};
use humnet::resilience::NoFaults;
use humnet::stats::{gini, Rng};
use humnet::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Every simulator takes a fault hook and a telemetry handle; this tour
    // injects no faults and records nothing.
    let off = Telemetry::disabled();

    // 1. Deterministic statistics -------------------------------------
    let mut rng = Rng::new(2025);
    let sample: Vec<f64> = (0..200).map(|_| rng.pareto(1.0, 1.3)).collect();
    println!(
        "1. A Pareto sample of 200 'citation counts' has Gini {:.3}",
        gini(&sample)?
    );

    // 2. The agenda feedback loop -------------------------------------
    let mut cfg = AgendaConfig::default();
    cfg.regime = MethodRegime::DataDriven;
    let mut sim = AgendaSim::new(cfg)?;
    sim.run(&mut NoFaults, &off)?;
    let last = sim.history().last().expect("ran");
    println!(
        "2. Data-driven regime: {} publications, {} of {} marginalized problems surfaced",
        last.publications,
        last.surfaced_marginalized,
        sim.marginalized_total()
    );

    // 3. Qualitative coding --------------------------------------------
    // Simulated coders recover each unit's latent code more often as the
    // codebook is refined (experiment T2).
    let mut study = SimulatedStudy::new(StudyConfig::default(), 11)?;
    let first = krippendorff_alpha(&study.code_round(0, &mut NoFaults))?;
    let refined = krippendorff_alpha(&study.code_round(6, &mut NoFaults))?;
    println!("3. Krippendorff's alpha climbs from {first:.3} to {refined:.3} over six refinements");

    // 4. The Telmex maneuver -------------------------------------------
    let mut mx = MexicoConfig::default();
    mx.strategy = CircumventionStrategy::AsnSplitting;
    let circumvented = MexicoScenario::run(&mx, &mut NoFaults, &off)?;
    mx.strategy = CircumventionStrategy::ComplyFully;
    let complied = MexicoScenario::run(&mx, &mut NoFaults, &off)?;
    println!(
        "4. Competitor traffic exchanged at the IXP: {:.0}% complying vs {:.0}% with ASN splitting",
        100.0 * complied.competitor_ixp_share()?,
        100.0 * circumvented.competitor_ixp_share()?
    );

    // 5. Auditing a corpus against the paper's §5 ----------------------
    let corpus = CorpusConfig::default().generate(7, &off)?;
    let report = humnet::core::MethodsAuditor::new().audit(&corpus, &off)?;
    println!(
        "5. Across {} synthetic papers, {:.1}% fully adopt the paper's §5 recommendations",
        corpus.papers.len(),
        100.0 * report.full_adoption_rate
    );

    // 6. And the whole experiment suite is one call away ---------------
    let f1 = experiments::f1_attention(42, &mut NoFaults, &off)?;
    println!(
        "6. Experiment F1 regenerated: attention gini = {:.3}",
        f1.gini
    );
    println!("\nRun `cargo run --bin experiments` for every table and figure.");
    Ok(())
}
