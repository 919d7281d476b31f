//! Integration tests exercising realistic multi-crate pipelines.

use humnet::corpus::{CorpusConfig, VenueKind};
use humnet::survey::detect_positionality;

fn corpus() -> humnet::corpus::Corpus {
    let mut cfg = CorpusConfig::default();
    cfg.years = 6;
    for v in cfg.venues.iter_mut() {
        v.papers_per_year = 15;
    }
    cfg.author_pool = 200;
    cfg.generate(99, &humnet::telemetry::Telemetry::disabled())
        .unwrap()
}

#[test]
fn citation_graph_shows_topic_homophily() {
    // The generator doubles citation weight toward same-topic papers; the
    // graph should therefore show clear topic homophily relative to the
    // null expectation Σ p_t² from the topic mix.
    let c = corpus();
    let mut same = 0usize;
    let mut total = 0usize;
    for p in &c.papers {
        for &cited in &p.citations {
            total += 1;
            if c.papers[cited].topic == p.topic {
                same += 1;
            }
        }
    }
    assert!(total > 100, "corpus should have plenty of citations");
    let observed = same as f64 / total as f64;
    // Null: probability two random papers share a topic.
    let mut counts = std::collections::HashMap::new();
    for p in &c.papers {
        *counts.entry(p.topic).or_insert(0usize) += 1;
    }
    let n = c.papers.len() as f64;
    let null: f64 = counts.values().map(|&k| (k as f64 / n).powi(2)).sum();
    assert!(
        observed > null * 1.3,
        "same-topic citation share {observed:.3} should exceed null {null:.3}"
    );
}

#[test]
fn detector_and_generator_stay_in_sync() {
    // Contract test: every abstract the generator tags with Positionality
    // must trip the survey detector (the audit pipelines rely on this).
    let c = corpus();
    for p in &c.papers {
        let tagged = p.has_positionality();
        let detected = detect_positionality(&p.abstract_text).is_some();
        assert_eq!(tagged, detected, "paper {} out of sync", p.id);
    }
}

#[test]
fn venue_kind_partition_is_total() {
    let c = corpus();
    let by_kind: usize = VenueKind::ALL
        .iter()
        .map(|&k| c.papers_in_kind(k).len())
        .sum();
    assert_eq!(by_kind, c.papers.len());
}
