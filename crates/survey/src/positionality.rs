//! Positionality statements: a typed model, a detector, a reflexivity score.
//!
//! §4 of the paper defines positionality as "hidden aspects of researchers'
//! perspectives that may affect their research questions, methods, and
//! results" and lists the facets authors disclose: geographic location,
//! socioeconomic status, beliefs, community/institution affiliations.
//! This module encodes those facets, builds well-formed statements, and —
//! for experiment **F2** — detects statements in paper text with a
//! rule-based matcher (exactly what an ACM-DL audit pipeline would run).

use crate::{Result, SurveyError};

/// A facet of researcher positionality (§4's taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PositionalityFacet {
    /// Geographic location (e.g. "located in the Global North").
    Geographic,
    /// Socioeconomic status or class background.
    Socioeconomic,
    /// Political / social / theoretical / religious beliefs.
    Beliefs,
    /// Membership in the researched community.
    CommunityMembership,
    /// Institutional affiliations and industry ties.
    InstitutionalTies,
    /// Disciplinary lens (e.g. "as network engineers").
    Disciplinary,
}

impl PositionalityFacet {
    /// All facets.
    pub const ALL: [PositionalityFacet; 6] = [
        PositionalityFacet::Geographic,
        PositionalityFacet::Socioeconomic,
        PositionalityFacet::Beliefs,
        PositionalityFacet::CommunityMembership,
        PositionalityFacet::InstitutionalTies,
        PositionalityFacet::Disciplinary,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            PositionalityFacet::Geographic => "geographic",
            PositionalityFacet::Socioeconomic => "socioeconomic",
            PositionalityFacet::Beliefs => "beliefs",
            PositionalityFacet::CommunityMembership => "community-membership",
            PositionalityFacet::InstitutionalTies => "institutional-ties",
            PositionalityFacet::Disciplinary => "disciplinary",
        }
    }

    /// Cue phrases whose presence (lowercased substring match) suggests the
    /// facet is being disclosed.
    fn cues(&self) -> &'static [&'static str] {
        match self {
            PositionalityFacet::Geographic => {
                &["located in", "global north", "global south", "based in"]
            }
            PositionalityFacet::Socioeconomic => {
                &["socioeconomic", "class background", "economic position"]
            }
            PositionalityFacet::Beliefs => &[
                "we believe",
                "feminist",
                "political perspective",
                "our values",
            ],
            PositionalityFacet::CommunityMembership => {
                &["member of the", "part of the community", "we are members"]
            }
            PositionalityFacet::InstitutionalTies => &[
                "ties with the industry",
                "industry ties",
                "affiliated with",
                "funded by",
            ],
            PositionalityFacet::Disciplinary => &[
                "as network engineers",
                "as computer scientists",
                "disciplinary lens",
                "engineering perspective",
            ],
        }
    }
}

/// A structured positionality statement.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PositionalityStatement {
    /// Disclosed facets with their free text.
    pub disclosures: Vec<(PositionalityFacet, String)>,
    /// Whether the statement reflects on *how* the position shaped the work
    /// (the step from disclosure to reflexivity).
    pub reflects_on_influence: bool,
}

impl PositionalityStatement {
    /// Start an empty statement.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a disclosure.
    pub fn disclose(mut self, facet: PositionalityFacet, text: impl Into<String>) -> Self {
        self.disclosures.push((facet, text.into()));
        self
    }

    /// Mark that the statement discusses how positionality shaped the work.
    pub fn with_reflection(mut self) -> Self {
        self.reflects_on_influence = true;
        self
    }

    /// Distinct facets disclosed.
    pub fn facets(&self) -> Vec<PositionalityFacet> {
        let mut seen = Vec::new();
        for &(f, _) in &self.disclosures {
            if !seen.contains(&f) {
                seen.push(f);
            }
        }
        seen
    }

    /// Render to prose (one sentence per disclosure), suitable for a
    /// methods section.
    pub fn render(&self) -> String {
        let mut out = String::from("Positionality: ");
        if self.disclosures.is_empty() {
            out.push_str("the authors make no disclosures.");
            return out;
        }
        let parts: Vec<String> = self
            .disclosures
            .iter()
            .map(|(f, text)| format!("{} ({})", text, f.label()))
            .collect();
        out.push_str(&parts.join("; "));
        out.push('.');
        if self.reflects_on_influence {
            out.push_str(" We reflect on how these positions shaped our research questions.");
        }
        out
    }
}

/// Result of running the detector over text.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectedStatement {
    /// Trigger phrases found.
    pub triggers: Vec<String>,
    /// Facets with at least one cue present.
    pub facets: Vec<PositionalityFacet>,
}

/// Phrases whose presence marks a positionality/reflexivity statement.
const TRIGGERS: &[&str] = &[
    "positionality",
    "we situate ourselves",
    "situated knowledge",
    "reflexivity",
    "our own position",
    "the authors acknowledge their",
];

/// Whether free text carries a positionality statement: the presence
/// check of [`detect_positionality`], without collecting what matched.
///
/// The text is lowercased as Unicode, not ASCII-folded, because a
/// non-ASCII character can lowercase to ASCII (the Kelvin sign `K` to
/// `k`).
pub fn has_positionality_statement(text: &str) -> bool {
    has_trigger(&text.to_lowercase())
}

fn has_trigger(lower: &str) -> bool {
    TRIGGERS.iter().any(|t| lower.contains(t))
}

/// Detect a positionality statement in free text. Returns `None` when no
/// trigger phrase is present; otherwise reports the matched triggers and
/// any facet cues found.
pub fn detect_positionality(text: &str) -> Option<DetectedStatement> {
    let lower = text.to_lowercase();
    if !has_trigger(&lower) {
        return None;
    }
    let triggers: Vec<String> = TRIGGERS
        .iter()
        .filter(|t| lower.contains(*t))
        .map(|t| t.to_string())
        .collect();
    let facets: Vec<PositionalityFacet> = PositionalityFacet::ALL
        .into_iter()
        .filter(|f| f.cues().iter().any(|c| lower.contains(c)))
        .collect();
    Some(DetectedStatement { triggers, facets })
}

/// Reflexivity score of a structured statement, in `[0, 1]`:
/// `(facets disclosed / 6) × 0.7 + reflection bonus 0.3`.
pub fn reflexivity_score(statement: &PositionalityStatement) -> Result<f64> {
    if statement.disclosures.is_empty() {
        return Err(SurveyError::EmptyInput);
    }
    let facet_share = statement.facets().len() as f64 / PositionalityFacet::ALL.len() as f64;
    let bonus = if statement.reflects_on_influence {
        0.3
    } else {
        0.0
    };
    Ok(facet_share * 0.7 + bonus)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn full_statement() -> PositionalityStatement {
        PositionalityStatement::new()
            .disclose(
                PositionalityFacet::Geographic,
                "we are researchers located in the Global North",
            )
            .disclose(
                PositionalityFacet::Disciplinary,
                "we write as network engineers",
            )
            .disclose(
                PositionalityFacet::CommunityMembership,
                "one author is a member of the community network she studies",
            )
            .with_reflection()
    }

    #[test]
    fn builder_accumulates_facets() {
        let s = full_statement();
        assert_eq!(s.facets().len(), 3);
        assert!(s.reflects_on_influence);
    }

    #[test]
    fn duplicate_facets_counted_once() {
        let s = PositionalityStatement::new()
            .disclose(PositionalityFacet::Beliefs, "a")
            .disclose(PositionalityFacet::Beliefs, "b");
        assert_eq!(s.facets(), vec![PositionalityFacet::Beliefs]);
    }

    #[test]
    fn render_contains_disclosures_and_reflection() {
        let text = full_statement().render();
        assert!(text.starts_with("Positionality:"));
        assert!(text.contains("Global North"));
        assert!(text.contains("reflect on how"));
        let empty = PositionalityStatement::new().render();
        assert!(empty.contains("no disclosures"));
    }

    #[test]
    fn detector_finds_rendered_statements() {
        // The corpus generator's positionality sentence must be detected.
        let corpus_sentence = "We situate ourselves in this work: the authors \
            acknowledge their positionality and how it shapes the research questions.";
        let d = detect_positionality(corpus_sentence).unwrap();
        assert!(!d.triggers.is_empty());
        assert!(d.triggers.iter().any(|t| t == "positionality"));
    }

    #[test]
    fn detector_ignores_plain_systems_text() {
        let text = "We measure tail latency across the datacenter fabric and \
            propose a load balancing scheme.";
        assert!(detect_positionality(text).is_none());
        assert!(!has_positionality_statement(text));
    }

    #[test]
    fn presence_check_agrees_with_the_detector() {
        for text in [
            "We situate ourselves in this work.",
            "REFLEXIVITY shaped our questions.",
            "Situated knowledge, located in the Global South.",
            "We measure the network.",
            "",
        ] {
            assert_eq!(
                has_positionality_statement(text),
                detect_positionality(text).is_some(),
                "{text}"
            );
        }
    }

    #[test]
    fn presence_check_lowercases_non_ascii_text_as_unicode() {
        // U+212A KELVIN SIGN lowercases to an ASCII `k`, so this carries
        // "the authors acknowledge their"; ASCII case folding alone would
        // miss it.
        let kelvin = "The authors ac\u{212A}nowledge their privilege.";
        assert!(has_positionality_statement(kelvin));
        assert!(detect_positionality(kelvin).is_some());
        // Non-ASCII text without a trigger stays negative.
        assert!(!has_positionality_statement("Mesures du réseau à Zürich."));
        // Non-ASCII text elsewhere does not hide an ASCII trigger.
        assert!(has_positionality_statement(
            "Réflexion: REFLEXIVITY shaped this."
        ));
    }

    #[test]
    fn detector_reports_facets() {
        let text = "Positionality: we are located in the Global North, writing \
            as network engineers with ties with the industry.";
        let d = detect_positionality(text).unwrap();
        assert!(d.facets.contains(&PositionalityFacet::Geographic));
        assert!(d.facets.contains(&PositionalityFacet::Disciplinary));
        assert!(d.facets.contains(&PositionalityFacet::InstitutionalTies));
    }

    #[test]
    fn detector_is_case_insensitive() {
        assert!(detect_positionality("POSITIONALITY matters.").is_some());
        assert!(has_positionality_statement("POSITIONALITY matters."));
    }

    #[test]
    fn reflexivity_score_rewards_breadth_and_reflection() {
        let s = full_statement();
        let score = reflexivity_score(&s).unwrap();
        assert!((score - (0.5 * 0.7 + 0.3)).abs() < 1e-12);
        let shallow = PositionalityStatement::new()
            .disclose(PositionalityFacet::Geographic, "based in the US");
        let shallow_score = reflexivity_score(&shallow).unwrap();
        assert!(score > shallow_score);
        assert!((shallow_score - (1.0 / 6.0) * 0.7).abs() < 1e-12);
    }

    #[test]
    fn reflexivity_requires_disclosures() {
        assert!(reflexivity_score(&PositionalityStatement::new()).is_err());
    }

    #[test]
    fn rendered_statement_round_trips_through_detector() {
        let rendered = full_statement().render();
        let d = detect_positionality(&rendered).unwrap();
        assert!(d.facets.contains(&PositionalityFacet::Geographic));
    }
}
