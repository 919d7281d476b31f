//! Corpus analytics: the measurements experiments F2 and F7 are built on.

use crate::model::{Corpus, MethodTag, Region, VenueKind};
use crate::{CorpusError, Result};

/// Prevalence of one method at one venue kind.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodPrevalence {
    /// Venue kind.
    pub kind: VenueKind,
    /// Method tag.
    pub method: MethodTag,
    /// Number of papers at this venue kind carrying the tag.
    pub count: usize,
    /// Total papers at this venue kind.
    pub total: usize,
    /// `count / total` (0 when the venue kind has no papers).
    pub rate: f64,
}

/// Method prevalence table over all `(venue kind, method)` pairs.
pub fn method_prevalence(corpus: &Corpus) -> Vec<MethodPrevalence> {
    let mut out = Vec::new();
    for kind in VenueKind::ALL {
        let papers = corpus.papers_in_kind(kind);
        let total = papers.len();
        for method in MethodTag::ALL {
            let count = papers
                .iter()
                .filter(|p| p.methods.contains(&method))
                .count();
            out.push(MethodPrevalence {
                kind,
                method,
                count,
                total,
                rate: if total > 0 {
                    count as f64 / total as f64
                } else {
                    0.0
                },
            });
        }
    }
    out
}

/// Prevalence of one method at one venue kind for a single year.
pub fn method_rate_by_year(corpus: &Corpus, kind: VenueKind, method: MethodTag, year: u32) -> f64 {
    let papers: Vec<_> = corpus
        .papers_in_kind(kind)
        .into_iter()
        .filter(|p| p.year == year)
        .collect();
    if papers.is_empty() {
        return 0.0;
    }
    papers
        .iter()
        .filter(|p| p.methods.contains(&method))
        .count() as f64
        / papers.len() as f64
}

/// Paper counts per venue name.
pub fn papers_per_venue(corpus: &Corpus) -> Vec<(String, usize)> {
    let mut counts = vec![0usize; corpus.venues.len()];
    for p in &corpus.papers {
        counts[p.venue] += 1;
    }
    corpus
        .venues
        .iter()
        .map(|v| (v.name.clone(), counts[v.id]))
        .collect()
}

/// Share of authorship positions held by Global South-affiliated authors,
/// overall or restricted to one venue kind.
pub fn region_share(corpus: &Corpus, kind: Option<VenueKind>) -> Result<f64> {
    let mut south = 0usize;
    let mut total = 0usize;
    for p in &corpus.papers {
        if let Some(k) = kind {
            if corpus.venues[p.venue].kind != k {
                continue;
            }
        }
        for &a in &p.authors {
            total += 1;
            if corpus.authors[a].region == Region::GlobalSouth {
                south += 1;
            }
        }
    }
    if total == 0 {
        return Err(CorpusError::EmptyCorpus);
    }
    Ok(south as f64 / total as f64)
}

/// Gini coefficient of in-corpus citation counts.
pub fn citation_gini(corpus: &Corpus) -> Result<f64> {
    if corpus.papers.is_empty() {
        return Err(CorpusError::EmptyCorpus);
    }
    let counts: Vec<f64> = corpus
        .citation_counts()
        .into_iter()
        .map(|c| c as f64)
        .collect();
    humnet_stats::gini(&counts)
        .map_err(|_| CorpusError::InvalidParameter("citation counts degenerate"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::CorpusConfig;

    fn corpus() -> Corpus {
        let mut cfg = CorpusConfig::default();
        cfg.years = 4;
        for v in cfg.venues.iter_mut() {
            v.papers_per_year = 10;
        }
        cfg.author_pool = 100;
        cfg.generate(99, &humnet_telemetry::Telemetry::disabled())
            .unwrap()
    }

    #[test]
    fn prevalence_table_covers_all_pairs() {
        let t = method_prevalence(&corpus());
        assert_eq!(t.len(), VenueKind::ALL.len() * MethodTag::ALL.len());
        for row in &t {
            assert!(row.rate >= 0.0 && row.rate <= 1.0);
            assert!(row.count <= row.total);
        }
    }

    #[test]
    fn prevalence_systems_vs_social() {
        let c = corpus();
        let t = method_prevalence(&c);
        let rate = |kind, method| {
            t.iter()
                .find(|r| r.kind == kind && r.method == method)
                .unwrap()
                .rate
        };
        assert!(
            rate(VenueKind::SocialScience, MethodTag::Ethnography)
                > rate(VenueKind::SystemsNetworking, MethodTag::Ethnography)
        );
        assert!(
            rate(VenueKind::SystemsNetworking, MethodTag::SystemBuilding)
                > rate(VenueKind::SocialScience, MethodTag::SystemBuilding)
        );
    }

    #[test]
    fn papers_per_venue_sums_to_total() {
        let c = corpus();
        let per: usize = papers_per_venue(&c).iter().map(|&(_, n)| n).sum();
        assert_eq!(per, c.papers.len());
    }

    #[test]
    fn region_share_bounds_and_ordering() {
        let c = corpus();
        let all = region_share(&c, None).unwrap();
        assert!((0.0..=1.0).contains(&all));
        // ICTD venues should over-represent the Global South relative to
        // systems venues (by construction in the generator).
        let ictd = region_share(&c, Some(VenueKind::Ictd)).unwrap();
        let sys = region_share(&c, Some(VenueKind::SystemsNetworking)).unwrap();
        assert!(ictd > sys, "ictd {ictd} vs systems {sys}");
    }

    #[test]
    fn citation_gini_positive() {
        let g = citation_gini(&corpus()).unwrap();
        assert!(g > 0.0 && g < 1.0);
    }

    #[test]
    fn empty_corpus_errors() {
        let c = Corpus::default();
        assert!(region_share(&c, None).is_err());
        assert!(citation_gini(&c).is_err());
    }

    #[test]
    fn method_rate_by_year_bounds() {
        let c = corpus();
        let (lo, hi) = c.year_range().unwrap();
        for y in lo..=hi {
            let r = method_rate_by_year(&c, VenueKind::HciCscw, MethodTag::Interviews, y);
            assert!((0.0..=1.0).contains(&r));
        }
        assert_eq!(
            method_rate_by_year(&c, VenueKind::HciCscw, MethodTag::Interviews, 1990),
            0.0
        );
    }
}
