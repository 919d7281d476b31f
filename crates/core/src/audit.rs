//! The methods auditor: the paper's §5 checklist run over a corpus.
//!
//! For every paper in a [`humnet_corpus::Corpus`] the auditor checks:
//!
//! 1. **§5.1** — does it document its partnerships?
//! 2. **§5.2** — does it document its informative conversations?
//! 3. **§5.3** — does it carry a positionality statement? Checked two
//!    ways: the structured method tag, and the text detector from
//!    [`humnet_survey::positionality`] run over the abstract — the audit
//!    reports both so detector recall is itself measurable.
//!
//! Experiments **F2** and **F7** are thin wrappers over this auditor.

use crate::Result;
use humnet_corpus::{Corpus, MethodTag, Paper, VenueKind};
use humnet_survey::has_positionality_statement;

/// Audit results for one venue kind.
#[derive(Debug, Clone, PartialEq)]
pub struct VenueAudit {
    /// Venue kind audited.
    pub kind: VenueKind,
    /// Papers at this venue kind.
    pub papers: usize,
    /// §5.1: fraction documenting partnerships.
    pub partnership_rate: f64,
    /// §5.2: fraction documenting conversations.
    pub conversation_rate: f64,
    /// §5.3: fraction carrying a positionality tag.
    pub positionality_rate: f64,
    /// Fraction whose abstract text the detector flags as containing a
    /// positionality statement.
    pub detected_positionality_rate: f64,
    /// Fraction using any human-centered method.
    pub human_method_rate: f64,
}

/// Whole-corpus audit report.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Per-venue-kind breakdown (order of [`VenueKind::ALL`]).
    pub venues: Vec<VenueAudit>,
    /// Overall §5 adoption: fraction of papers satisfying all three
    /// recommendations at once.
    pub full_adoption_rate: f64,
    /// Detector recall on positionality: of papers with the structured
    /// tag, the fraction whose abstract the detector also flags.
    pub detector_recall: f64,
    /// Detector precision: of papers the detector flags, the fraction that
    /// really carry the tag.
    pub detector_precision: f64,
}

/// The auditor.
#[derive(Debug, Clone, Default)]
pub struct MethodsAuditor;

impl MethodsAuditor {
    /// Create an auditor.
    pub fn new() -> Self {
        MethodsAuditor
    }

    /// Run the §5 checklist over a corpus. Telemetry: a `survey.audit`
    /// span (the positionality detector from `humnet-survey` runs inside
    /// it), paper counters, detector-quality gauges, and a milestone event.
    pub fn audit(&self, corpus: &Corpus, tel: &humnet_telemetry::Telemetry) -> Result<AuditReport> {
        let _span = tel.span("survey.audit");
        let t0 = tel.start();
        let report = self.audit_inner(corpus)?;
        tel.observe_since("survey.audit_ns", t0);
        tel.counter("survey.papers_audited", corpus.papers.len() as u64);
        tel.gauge("survey.detector_recall", report.detector_recall);
        tel.gauge("survey.detector_precision", report.detector_precision);
        tel.event(humnet_telemetry::Event::new(
            "milestone",
            format!(
                "survey.audit: {} papers, full adoption {:.3}",
                corpus.papers.len(),
                report.full_adoption_rate
            ),
        ));
        Ok(report)
    }

    fn audit_inner(&self, corpus: &Corpus) -> Result<AuditReport> {
        if corpus.papers.is_empty() {
            return Err(crate::CoreError::EmptyInput);
        }
        // The audit needs only whether a statement is present, not its
        // triggers or facets. The check lowercases the whole abstract, so
        // it runs once per paper; one pass buckets the papers by venue
        // kind (indexed by `VenueKind as usize`, the `ALL` order).
        let detected: Vec<bool> = corpus
            .papers
            .iter()
            .map(|p| has_positionality_statement(&p.abstract_text))
            .collect();
        let mut by_kind: [Vec<(&Paper, bool)>; VenueKind::ALL.len()] = Default::default();
        for (p, &flag) in corpus.papers.iter().zip(&detected) {
            by_kind[corpus.venues[p.venue].kind as usize].push((p, flag));
        }
        let mut venues = Vec::new();
        for (kind, papers) in VenueKind::ALL.into_iter().zip(&by_kind) {
            let n = papers.len();
            let rate = |count: usize| if n > 0 { count as f64 / n as f64 } else { 0.0 };
            venues.push(VenueAudit {
                kind,
                papers: n,
                partnership_rate: rate(
                    papers
                        .iter()
                        .filter(|(p, _)| p.documents_partnerships)
                        .count(),
                ),
                conversation_rate: rate(
                    papers
                        .iter()
                        .filter(|(p, _)| p.documents_conversations)
                        .count(),
                ),
                positionality_rate: rate(
                    papers.iter().filter(|(p, _)| p.has_positionality()).count(),
                ),
                detected_positionality_rate: rate(papers.iter().filter(|&&(_, flag)| flag).count()),
                human_method_rate: rate(
                    papers.iter().filter(|(p, _)| p.is_human_centered()).count(),
                ),
            });
        }
        let full = corpus
            .papers
            .iter()
            .filter(|p| {
                p.documents_partnerships
                    && p.documents_conversations
                    && p.methods.contains(&MethodTag::Positionality)
            })
            .count();
        let tagged = corpus
            .papers
            .iter()
            .filter(|p| p.has_positionality())
            .count();
        let flagged = detected.iter().filter(|&&flag| flag).count();
        let true_positives = corpus
            .papers
            .iter()
            .zip(&detected)
            .filter(|&(p, &flag)| flag && p.has_positionality())
            .count();
        Ok(AuditReport {
            venues,
            full_adoption_rate: full as f64 / corpus.papers.len() as f64,
            detector_recall: if tagged == 0 {
                1.0
            } else {
                true_positives as f64 / tagged as f64
            },
            detector_precision: if flagged == 0 {
                1.0
            } else {
                true_positives as f64 / flagged as f64
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_corpus::CorpusConfig;
    use humnet_telemetry::Telemetry;

    fn corpus() -> Corpus {
        let mut cfg = CorpusConfig::default();
        cfg.years = 5;
        for v in cfg.venues.iter_mut() {
            v.papers_per_year = 20;
        }
        cfg.author_pool = 150;
        cfg.generate(31, &Telemetry::disabled()).unwrap()
    }

    fn audit(corpus: &Corpus) -> AuditReport {
        MethodsAuditor::new()
            .audit(corpus, &Telemetry::disabled())
            .unwrap()
    }

    #[test]
    fn empty_corpus_errors() {
        assert!(MethodsAuditor::new()
            .audit(&Corpus::default(), &Telemetry::disabled())
            .is_err());
    }

    #[test]
    fn report_covers_all_venue_kinds() {
        let report = audit(&corpus());
        assert_eq!(report.venues.len(), VenueKind::ALL.len());
        let total: usize = report.venues.iter().map(|v| v.papers).sum();
        assert_eq!(total, corpus().papers.len());
    }

    #[test]
    fn rates_are_bounded() {
        let report = audit(&corpus());
        for v in &report.venues {
            for rate in [
                v.partnership_rate,
                v.conversation_rate,
                v.positionality_rate,
                v.detected_positionality_rate,
                v.human_method_rate,
            ] {
                assert!((0.0..=1.0).contains(&rate), "{v:?}");
            }
        }
        assert!((0.0..=1.0).contains(&report.full_adoption_rate));
    }

    #[test]
    fn networking_venues_lag_on_every_recommendation() {
        let report = audit(&corpus());
        let get = |kind: VenueKind| report.venues.iter().find(|v| v.kind == kind).unwrap();
        let sys = get(VenueKind::SystemsNetworking);
        let ictd = get(VenueKind::Ictd);
        assert!(ictd.partnership_rate > sys.partnership_rate);
        assert!(ictd.conversation_rate > sys.conversation_rate);
        assert!(ictd.positionality_rate > sys.positionality_rate);
        assert!(ictd.human_method_rate > sys.human_method_rate);
    }

    #[test]
    fn detector_matches_structured_tags() {
        // The corpus generator embeds the positionality sentence verbatim,
        // so the detector should achieve perfect recall and precision here.
        let report = audit(&corpus());
        assert!(
            report.detector_recall > 0.99,
            "recall = {}",
            report.detector_recall
        );
        assert!(
            report.detector_precision > 0.99,
            "precision = {}",
            report.detector_precision
        );
    }

    #[test]
    fn full_adoption_is_rare_in_default_corpus() {
        let report = audit(&corpus());
        assert!(
            report.full_adoption_rate < 0.2,
            "rate = {}",
            report.full_adoption_rate
        );
        assert!(report.full_adoption_rate > 0.0);
    }
}
