//! Generate a synthetic publication corpus and audit it against the
//! paper's §5 recommendations (experiments F2/F7 by hand).
//!
//! ```text
//! cargo run --example corpus_audit
//! ```

use humnet::core::MethodsAuditor;
use humnet::corpus::{citation_gini, CorpusConfig};
use humnet::survey::detect_positionality;
use humnet::telemetry::Telemetry;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Ten years of six venues.
    let config = CorpusConfig::default();
    let corpus = config.generate(2025, &Telemetry::disabled())?;
    println!(
        "generated {} papers, {} authors, {} venues ({}–{})",
        corpus.papers.len(),
        corpus.authors.len(),
        corpus.venues.len(),
        corpus.year_range().unwrap().0,
        corpus.year_range().unwrap().1
    );

    // 2. The §5 audit.
    let report = MethodsAuditor::new().audit(&corpus, &Telemetry::disabled())?;
    println!("\n§5 uptake by venue kind:");
    println!(
        "{:<20} {:>8} {:>14} {:>14} {:>14}",
        "venue kind", "papers", "partnerships", "conversations", "positionality"
    );
    for v in &report.venues {
        println!(
            "{:<20} {:>8} {:>14.3} {:>14.3} {:>14.3}",
            v.kind.label(),
            v.papers,
            v.partnership_rate,
            v.conversation_rate,
            v.positionality_rate
        );
    }
    println!(
        "\nfull §5 adoption: {:.1}% of papers; positionality detector recall {:.2}, precision {:.2}",
        100.0 * report.full_adoption_rate,
        report.detector_recall,
        report.detector_precision
    );

    // 3. Text-level spot check: run the detector on one abstract by hand.
    if let Some(paper) = corpus.papers.iter().find(|p| p.has_positionality()) {
        let detected = detect_positionality(&paper.abstract_text);
        println!(
            "\nspot check on \"{}\": detector {} (facets: {:?})",
            paper.title,
            if detected.is_some() {
                "fired"
            } else {
                "missed"
            },
            detected.map(|d| d.facets).unwrap_or_default()
        );
    }

    // 4. Citations concentrate on a few papers (preferential attachment).
    println!("\ncitation gini: {:.3}", citation_gini(&corpus)?);
    Ok(())
}
