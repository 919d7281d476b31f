//! Generate a synthetic publication corpus, audit it against the paper's
//! §5 recommendations, and export the data (experiments F2/F7 by hand).
//!
//! ```text
//! cargo run --example corpus_audit                  # audit only
//! cargo run --example corpus_audit -- --export /tmp # also write JSON + CSV
//! ```

use humnet::core::MethodsAuditor;
use humnet::corpus::{io, CorpusConfig};
use humnet::graph::pagerank;
use humnet::survey::detect_positionality;
use humnet::telemetry::Telemetry;
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let argv: Vec<String> = std::env::args().collect();
    let export_dir: Option<PathBuf> = argv
        .iter()
        .position(|a| a == "--export")
        .and_then(|i| argv.get(i + 1))
        .map(PathBuf::from);

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
            if detected.is_some() { "fired" } else { "missed" },
            detected.map(|d| d.facets).unwrap_or_default()
        );
    }

    // 4. Influence structure of the citation graph.
    let graph = humnet::corpus::citation_graph(&corpus);
    let pr = pagerank(&graph, 0.85, 1e-10, 100)?;
    let mut ranked: Vec<(usize, f64)> = pr.into_iter().enumerate().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
    println!("\nmost influential papers by citation PageRank:");
    for &(id, score) in ranked.iter().take(5) {
        let p = &corpus.papers[id];
        println!(
            "  {:.4}  [{}] {} ({})",
            score,
            corpus.venues[p.venue].name,
            p.title,
            p.year
        );
    }

    // 5. Optional export.
    if let Some(dir) = export_dir {
        std::fs::create_dir_all(&dir)?;
        let json_path = dir.join("corpus.json");
        io::save_json(&corpus, &json_path)?;
        let csv_path = dir.join("papers.csv");
        std::fs::write(&csv_path, io::papers_to_csv(&corpus))?;
        println!(
            "\nexported {} and {}",
            json_path.display(),
            csv_path.display()
        );
    }
    Ok(())
}
