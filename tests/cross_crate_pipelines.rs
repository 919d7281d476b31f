//! Integration tests exercising realistic multi-crate pipelines.

use humnet::corpus::{CorpusConfig, MethodTag, VenueKind};
use humnet::graph::{connected_components, label_propagation, modularity, pagerank};
use humnet::qual::{krippendorff_alpha, SimulatedStudy, StudyConfig};
use humnet::resilience::NoFaults;
use humnet::stats::{chi_square_independence, mann_whitney_u, pearson, Rng};
use humnet::survey::detect_positionality;
use humnet::text::{extract_keywords, NaiveBayes, TfIdf};

fn corpus() -> humnet::corpus::Corpus {
    let mut cfg = CorpusConfig::default();
    cfg.years = 6;
    for v in cfg.venues.iter_mut() {
        v.papers_per_year = 15;
    }
    cfg.author_pool = 200;
    cfg.generate(99, &humnet::telemetry::Telemetry::disabled()).unwrap()
}

#[test]
fn corpus_text_pipeline_classifies_venue_culture() {
    // Train a naive-Bayes classifier to tell human-centered abstracts from
    // systems abstracts using the generated corpus itself.
    let c = corpus();
    let mut train = Vec::new();
    let mut test = Vec::new();
    for (i, p) in c.papers.iter().enumerate() {
        let label = if p.is_human_centered() { "human" } else { "technical" };
        let tokens = humnet::text::tokenize(&p.abstract_text);
        if i % 5 == 0 {
            test.push((tokens, label.to_string()));
        } else {
            train.push((tokens, label.to_string()));
        }
    }
    let nb = NaiveBayes::fit(&train, 1.0).unwrap();
    let acc = nb.accuracy(&test).unwrap();
    assert!(acc > 0.85, "held-out accuracy = {acc}");
}

#[test]
fn corpus_statistics_pipeline_detects_method_venue_association() {
    // Chi-square independence: venue kind (networking vs not) × human
    // methods (yes/no) must be strongly associated.
    let c = corpus();
    let mut table = vec![vec![0.0; 2]; 2];
    for p in &c.papers {
        let networking = c.venues[p.venue].kind.is_networking();
        let human = p.is_human_centered();
        table[usize::from(networking)][usize::from(human)] += 1.0;
    }
    let result = chi_square_independence(&table).unwrap();
    assert!(result.p_value < 1e-10, "p = {}", result.p_value);
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
    // And the undirected projection still clusters: ensure the machinery
    // runs end to end and yields a valid (possibly coarse) partition.
    let mut g = humnet::graph::Graph::undirected(c.papers.len());
    for p in &c.papers {
        for &cited in &p.citations {
            if !g.has_edge(p.id, cited) {
                g.add_edge(p.id, cited).unwrap();
            }
        }
    }
    let mut rng = Rng::new(5);
    let partition = label_propagation(&g, &mut rng, 50).unwrap();
    assert_eq!(partition.membership.len(), c.papers.len());
    let q = modularity(&g, &partition).unwrap();
    assert!(q >= 0.0, "q = {q}");
    let labels = connected_components(&g);
    assert!(!labels.is_empty());
}

#[test]
fn pagerank_influence_correlates_with_citations() {
    let c = corpus();
    let g = humnet::corpus::citation_graph(&c);
    let pr = pagerank(&g, 0.85, 1e-10, 100).unwrap();
    let cites: Vec<f64> = c.citation_counts().iter().map(|&x| x as f64).collect();
    let r = pearson(&pr, &cites).unwrap();
    assert!(r > 0.7, "pagerank–citation correlation = {r}");
}

#[test]
fn tfidf_retrieval_finds_same_topic_papers() {
    let c = corpus();
    let docs: Vec<Vec<String>> = c
        .papers
        .iter()
        .map(|p| humnet::text::tokenize(&p.abstract_text))
        .collect();
    let model = TfIdf::fit(&docs).unwrap();
    // Query with a community-networks paper; the best other match should
    // more often than not share its topic.
    let query_idx = c
        .papers
        .iter()
        .position(|p| p.topic == humnet::corpus::Topic::CommunityNetworks)
        .expect("corpus has community papers");
    let qv = model.transform(&docs[query_idx]);
    let mut best: Option<(usize, f64)> = None;
    for (i, d) in docs.iter().enumerate() {
        if i == query_idx {
            continue;
        }
        let sim = humnet::text::cosine_similarity(&qv, &model.transform(d));
        if best.map(|(_, s)| sim > s).unwrap_or(true) {
            best = Some((i, sim));
        }
    }
    let (best_idx, score) = best.unwrap();
    assert!(score > 0.2, "best similarity = {score}");
    assert_eq!(
        c.papers[best_idx].topic,
        humnet::corpus::Topic::CommunityNetworks,
        "nearest neighbour should share the topic"
    );
}

#[test]
fn keywords_of_positionality_papers_mention_methods() {
    let c = corpus();
    let blob: String = c
        .papers
        .iter()
        .filter(|p| p.methods.contains(&MethodTag::Ethnography))
        .map(|p| p.abstract_text.clone())
        .collect::<Vec<_>>()
        .join(" ");
    let kws = extract_keywords(&blob, 20);
    assert!(
        kws.iter().any(|k| k.phrase.contains("ethnographic")),
        "keywords: {:?}",
        kws.iter().map(|k| &k.phrase).collect::<Vec<_>>()
    );
}

#[test]
fn qual_reliability_feeds_stats_tests() {
    // Coding rounds improve; a Mann–Whitney test across early vs late
    // per-pair agreements should notice.
    let mut study = SimulatedStudy::new(StudyConfig::default(), 11).unwrap();
    let early = study.code_round(0, &mut NoFaults);
    let late = study.code_round(6, &mut NoFaults);
    let a_early = krippendorff_alpha(&early).unwrap();
    let a_late = krippendorff_alpha(&late).unwrap();
    assert!(a_late > a_early);
    // Per-unit agreement indicator vectors across coders (1 = all agree).
    let agreement = |labels: &Vec<Vec<Option<usize>>>| -> Vec<f64> {
        (0..labels[0].len())
            .map(|u| {
                let vals: Vec<usize> = labels.iter().filter_map(|l| l[u]).collect();
                if vals.len() < 2 {
                    return 0.0;
                }
                f64::from(vals.windows(2).all(|w| w[0] == w[1]))
            })
            .collect()
    };
    let result = mann_whitney_u(&agreement(&early), &agreement(&late)).unwrap();
    assert!(result.p_value < 0.01, "p = {}", result.p_value);
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
