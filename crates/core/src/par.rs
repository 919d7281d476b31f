//! Participatory action research projects and the participation ladder.
//!
//! §2 of the paper asks for "full and active participation of individuals
//! or communities at all levels, from scoping initial research questions
//! through to the publication of research results", and §5.1 asks authors
//! to *document* those engagements. This module makes both checkable:
//! engagements are typed records attached to research stages, each stage is
//! scored on an Arnstein-style ladder, and the audit verifies the §5.1
//! checklist mechanically (experiment **T4**).

use crate::{CoreError, Result};

/// Stages of a research project (§5.1's "(1) ideate … (2) explore …
/// (3) evaluate", plus dissemination).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ResearchStage {
    /// Problem formation / ideation.
    ProblemFormation,
    /// Designing and exploring solutions.
    SolutionDesign,
    /// Evaluating artifacts in real environments.
    Evaluation,
    /// Publishing and returning results to the community.
    Dissemination,
}

impl ResearchStage {
    /// All stages in order.
    pub const ALL: [ResearchStage; 4] = [
        ResearchStage::ProblemFormation,
        ResearchStage::SolutionDesign,
        ResearchStage::Evaluation,
        ResearchStage::Dissemination,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            ResearchStage::ProblemFormation => "problem-formation",
            ResearchStage::SolutionDesign => "solution-design",
            ResearchStage::Evaluation => "evaluation",
            ResearchStage::Dissemination => "dissemination",
        }
    }
}

/// The depth of partner participation in an engagement, mapped onto the
/// rungs of Arnstein's ladder of citizen participation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EngagementKind {
    /// Partners were told what was happening (rung 3, "informing").
    Informed,
    /// Partners were asked for input (rung 4, "consultation").
    Consulted,
    /// Partners co-designed the work (rung 6, "partnership").
    Collaborated,
    /// Partners held decision power (rung 8, "citizen control").
    CommunityLed,
}

impl EngagementKind {
    /// Ladder rung (out of 8).
    pub fn rung(&self) -> u8 {
        match self {
            EngagementKind::Informed => 3,
            EngagementKind::Consulted => 4,
            EngagementKind::Collaborated => 6,
            EngagementKind::CommunityLed => 8,
        }
    }
}

/// A practitioner or community partner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partner {
    /// Name or pseudonym.
    pub name: String,
    /// Who they are (e.g. "community network operator", "IXP staff").
    pub role: String,
}

/// One documented engagement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngagementRecord {
    /// Stage the engagement belongs to.
    pub stage: ResearchStage,
    /// Index into the project's partner list.
    pub partner: usize,
    /// Depth of participation.
    pub kind: EngagementKind,
    /// What happened (the §5.2 "informative conversation" record).
    pub activity: String,
    /// Whether the engagement is documented in the research artifact.
    pub documented: bool,
}

/// A participatory project: partners plus engagement history.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ParProject {
    /// Project name.
    pub name: String,
    /// Partners.
    pub partners: Vec<Partner>,
    /// Engagement records.
    pub engagements: Vec<EngagementRecord>,
}

impl ParProject {
    /// Create an empty project.
    pub fn new(name: impl Into<String>) -> Self {
        ParProject {
            name: name.into(),
            partners: Vec::new(),
            engagements: Vec::new(),
        }
    }

    /// Register a partner; returns their index.
    pub fn add_partner(&mut self, name: &str, role: &str) -> usize {
        self.partners.push(Partner {
            name: name.to_owned(),
            role: role.to_owned(),
        });
        self.partners.len() - 1
    }

    /// Record an engagement.
    pub fn engage(
        &mut self,
        stage: ResearchStage,
        partner: usize,
        kind: EngagementKind,
        activity: &str,
        documented: bool,
    ) -> Result<()> {
        if partner >= self.partners.len() {
            return Err(CoreError::NotFound("partner"));
        }
        if activity.trim().is_empty() {
            return Err(CoreError::InvalidParameter("activity must be described"));
        }
        self.engagements.push(EngagementRecord {
            stage,
            partner,
            kind,
            activity: activity.to_owned(),
            documented,
        });
        Ok(())
    }

    /// Highest ladder rung achieved at a stage (None = no engagement).
    pub fn stage_rung(&self, stage: ResearchStage) -> Option<u8> {
        self.engagements
            .iter()
            .filter(|e| e.stage == stage)
            .map(|e| e.kind.rung())
            .max()
    }

    /// Participation score in `[0, 1]`: mean over all four stages of
    /// `rung/8`, counting unengaged stages as zero. A project that is
    /// community-led at every stage scores 1.
    pub fn participation_score(&self) -> f64 {
        let total: f64 = ResearchStage::ALL
            .iter()
            .map(|&s| self.stage_rung(s).unwrap_or(0) as f64 / 8.0)
            .sum();
        total / ResearchStage::ALL.len() as f64
    }

    /// The §5.1 audit: partners must be engaged (at consultation depth or
    /// better) in problem formation, solution design, *and* evaluation, and
    /// every engagement must be documented. Returns the list of violations
    /// (empty = compliant).
    pub fn audit_5_1(&self) -> Vec<String> {
        let mut violations = Vec::new();
        if self.partners.is_empty() {
            violations.push("no partners registered".to_owned());
        }
        for stage in [
            ResearchStage::ProblemFormation,
            ResearchStage::SolutionDesign,
            ResearchStage::Evaluation,
        ] {
            match self.stage_rung(stage) {
                None => violations.push(format!("no engagement at stage {}", stage.label())),
                Some(r) if r < EngagementKind::Consulted.rung() => violations.push(format!(
                    "stage {} only reaches rung {r} (informing); consultation or better required",
                    stage.label()
                )),
                Some(_) => {}
            }
        }
        for (i, e) in self.engagements.iter().enumerate() {
            if !e.documented {
                violations.push(format!(
                    "engagement #{i} at {} is not documented in the artifact",
                    e.stage.label()
                ));
            }
        }
        violations
    }

    /// True when the §5.1 audit passes.
    pub fn is_5_1_compliant(&self) -> bool {
        self.audit_5_1().is_empty()
    }

    /// Build one of six project archetypes used by experiment **T4** —
    /// from extractive fly-in/fly-out research to a fully community-led
    /// project.
    pub fn archetype(which: usize) -> ParProject {
        let mut p = ParProject::new(match which {
            0 => "extractive-measurement",
            1 => "consult-at-the-end",
            2 => "advisory-board",
            3 => "co-design",
            4 => "operational-partnership",
            _ => "community-led",
        });
        let partner = p.add_partner("community-org", "local operator collective");
        use EngagementKind::*;
        use ResearchStage::*;
        let plan: Vec<(ResearchStage, EngagementKind, bool)> = match which {
            // Dataset-first research: community never in the room.
            0 => vec![(Dissemination, Informed, false)],
            // Solution built, then community "validated" it.
            1 => vec![
                (Evaluation, Consulted, true),
                (Dissemination, Informed, true),
            ],
            // Advisory board consulted throughout, decisions held by lab.
            2 => ResearchStage::ALL
                .iter()
                .map(|&s| (s, Consulted, true))
                .collect(),
            // Co-design in formation and design.
            3 => vec![
                (ProblemFormation, Collaborated, true),
                (SolutionDesign, Collaborated, true),
                (Evaluation, Consulted, true),
                (Dissemination, Consulted, true),
            ],
            // Partnership in everything.
            4 => ResearchStage::ALL
                .iter()
                .map(|&s| (s, Collaborated, true))
                .collect(),
            // Community holds the pen.
            _ => ResearchStage::ALL
                .iter()
                .map(|&s| (s, CommunityLed, true))
                .collect(),
        };
        for (stage, kind, documented) in plan {
            p.engage(stage, partner, kind, "recorded engagement", documented)
                .expect("partner exists");
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn project() -> ParProject {
        let mut p = ParProject::new("SCN-style deployment");
        let org = p.add_partner("tiny-house village", "host community");
        let ixp = p.add_partner("local ISP", "backhaul partner");
        p.engage(
            ResearchStage::ProblemFormation,
            org,
            EngagementKind::Collaborated,
            "community meetings to scope connectivity needs",
            true,
        )
        .unwrap();
        p.engage(
            ResearchStage::SolutionDesign,
            org,
            EngagementKind::CommunityLed,
            "residents chose node placement",
            true,
        )
        .unwrap();
        p.engage(
            ResearchStage::Evaluation,
            ixp,
            EngagementKind::Consulted,
            "operator feedback on performance",
            true,
        )
        .unwrap();
        p
    }

    #[test]
    fn engagement_validation() {
        let mut p = ParProject::new("x");
        assert!(p
            .engage(
                ResearchStage::Evaluation,
                0,
                EngagementKind::Informed,
                "a",
                true
            )
            .is_err());
        let id = p.add_partner("p", "r");
        assert!(p
            .engage(
                ResearchStage::Evaluation,
                id,
                EngagementKind::Informed,
                "  ",
                true
            )
            .is_err());
        assert!(p
            .engage(
                ResearchStage::Evaluation,
                id,
                EngagementKind::Informed,
                "ok",
                true
            )
            .is_ok());
    }

    #[test]
    fn stage_rung_takes_max() {
        let p = project();
        assert_eq!(p.stage_rung(ResearchStage::SolutionDesign), Some(8));
        assert_eq!(p.stage_rung(ResearchStage::Evaluation), Some(4));
        assert_eq!(p.stage_rung(ResearchStage::Dissemination), None);
    }

    #[test]
    fn participation_score_formula() {
        let p = project();
        // (6 + 8 + 4 + 0) / 8 / 4
        let expected = (6.0 + 8.0 + 4.0) / 8.0 / 4.0;
        assert!((p.participation_score() - expected).abs() < 1e-12);
    }

    #[test]
    fn audit_flags_missing_stage_and_undocumented() {
        let mut p = project();
        // Dissemination missing is fine for 5.1 (only first three stages
        // are mandatory), so this project is compliant.
        assert!(p.is_5_1_compliant());
        // Add an undocumented engagement -> violation.
        p.engage(
            ResearchStage::Evaluation,
            0,
            EngagementKind::Consulted,
            "hallway chat",
            false,
        )
        .unwrap();
        let v = p.audit_5_1();
        assert_eq!(v.len(), 1);
        assert!(v[0].contains("not documented"));
    }

    #[test]
    fn audit_requires_consultation_depth() {
        let mut p = ParProject::new("informing-only");
        let id = p.add_partner("a", "b");
        for stage in [
            ResearchStage::ProblemFormation,
            ResearchStage::SolutionDesign,
            ResearchStage::Evaluation,
        ] {
            p.engage(stage, id, EngagementKind::Informed, "newsletter", true)
                .unwrap();
        }
        let v = p.audit_5_1();
        assert_eq!(v.len(), 3);
        assert!(v.iter().all(|s| s.contains("rung 3")));
    }

    #[test]
    fn audit_flags_empty_project() {
        let p = ParProject::new("empty");
        let v = p.audit_5_1();
        assert!(v.iter().any(|s| s.contains("no partners")));
        assert!(v.iter().any(|s| s.contains("no engagement")));
    }

    #[test]
    fn archetypes_order_on_the_ladder() {
        let scores: Vec<f64> = (0..6)
            .map(|i| ParProject::archetype(i).participation_score())
            .collect();
        for w in scores.windows(2) {
            assert!(w[1] > w[0], "scores must strictly increase: {scores:?}");
        }
        assert!(scores[0] < 0.2);
        assert_eq!(scores[5], 1.0);
    }

    #[test]
    fn archetype_compliance_split() {
        // Extractive and consult-at-the-end fail §5.1; advisory board on up
        // pass.
        assert!(!ParProject::archetype(0).is_5_1_compliant());
        assert!(!ParProject::archetype(1).is_5_1_compliant());
        for i in 2..6 {
            assert!(
                ParProject::archetype(i).is_5_1_compliant(),
                "archetype {i} should comply"
            );
        }
    }

    #[test]
    fn rungs_are_ordered() {
        assert!(EngagementKind::CommunityLed.rung() > EngagementKind::Collaborated.rung());
        assert!(EngagementKind::Collaborated.rung() > EngagementKind::Consulted.rung());
        assert!(EngagementKind::Consulted.rung() > EngagementKind::Informed.rung());
    }
}
