//! The publication data model: papers, authors, venues, and the tag
//! taxonomies the paper's argument turns on.

/// Broad world-region of an institution. The paper's §1 argues that
/// "linguistic and geopolitical marginality" is rendered invisible; the
/// corpus tracks region to let experiments measure that.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Region {
    /// North America, Europe, East Asia research powerhouses.
    GlobalNorth,
    /// Latin America, Africa, South/Southeast Asia, Oceania (ex. AU/NZ).
    GlobalSouth,
}

/// Kinds of publication venue, by methodological culture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum VenueKind {
    /// Top systems/networking venues (SIGCOMM, NSDI style).
    SystemsNetworking,
    /// Measurement venues (IMC style).
    Measurement,
    /// Hot-topics workshops (HotNets style).
    HotTopics,
    /// Human-computer interaction venues (CHI, CSCW style).
    HciCscw,
    /// Information & communication technologies for development (ICTD style).
    Ictd,
    /// Social-science and STS journals.
    SocialScience,
}

impl VenueKind {
    /// All venue kinds, for iteration in tables.
    pub const ALL: [VenueKind; 6] = [
        VenueKind::SystemsNetworking,
        VenueKind::Measurement,
        VenueKind::HotTopics,
        VenueKind::HciCscw,
        VenueKind::Ictd,
        VenueKind::SocialScience,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            VenueKind::SystemsNetworking => "systems-networking",
            VenueKind::Measurement => "measurement",
            VenueKind::HotTopics => "hot-topics",
            VenueKind::HciCscw => "hci-cscw",
            VenueKind::Ictd => "ictd",
            VenueKind::SocialScience => "social-science",
        }
    }
}

/// Research method tags attached to papers. The three the paper advocates
/// ([`MethodTag::ParticipatoryActionResearch`], [`MethodTag::Ethnography`],
/// [`MethodTag::Positionality`]) are the focus of the audit experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodTag {
    /// Large-scale measurement / trace analysis.
    Measurement,
    /// Building and evaluating a system artifact.
    SystemBuilding,
    /// Simulation or emulation.
    Simulation,
    /// Mathematical modelling / theory.
    Theory,
    /// Semi-structured or structured interviews.
    Interviews,
    /// Ethnographic fieldwork (traditional, patchwork, or rapid).
    Ethnography,
    /// Participatory action research / participatory design.
    ParticipatoryActionResearch,
    /// Survey instruments.
    Survey,
    /// The paper includes a positionality/reflexivity statement.
    Positionality,
}

impl MethodTag {
    /// All method tags.
    pub const ALL: [MethodTag; 9] = [
        MethodTag::Measurement,
        MethodTag::SystemBuilding,
        MethodTag::Simulation,
        MethodTag::Theory,
        MethodTag::Interviews,
        MethodTag::Ethnography,
        MethodTag::ParticipatoryActionResearch,
        MethodTag::Survey,
        MethodTag::Positionality,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodTag::Measurement => "measurement",
            MethodTag::SystemBuilding => "system-building",
            MethodTag::Simulation => "simulation",
            MethodTag::Theory => "theory",
            MethodTag::Interviews => "interviews",
            MethodTag::Ethnography => "ethnography",
            MethodTag::ParticipatoryActionResearch => "par",
            MethodTag::Survey => "survey",
            MethodTag::Positionality => "positionality",
        }
    }

    /// True for the qualitative, human-centered methods the paper advocates.
    pub fn is_human_centered(&self) -> bool {
        matches!(
            self,
            MethodTag::Interviews
                | MethodTag::Ethnography
                | MethodTag::ParticipatoryActionResearch
                | MethodTag::Survey
                | MethodTag::Positionality
        )
    }
}

/// Research topics, keyed to the stakeholder whose problems they serve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Topic {
    /// Datacenter performance and fabric design.
    DatacenterPerformance,
    /// Congestion control and transport protocols.
    CongestionControl,
    /// Interdomain routing and BGP.
    InterdomainRouting,
    /// Internet measurement and topology.
    InternetMeasurement,
    /// Network security and privacy.
    SecurityPrivacy,
    /// Community / last-mile / rural networks.
    CommunityNetworks,
    /// Internet governance, policy, and regulation.
    PolicyGovernance,
    /// Access, affordability, and digital equity.
    AccessEquity,
}

impl Topic {
    /// All topics.
    pub const ALL: [Topic; 8] = [
        Topic::DatacenterPerformance,
        Topic::CongestionControl,
        Topic::InterdomainRouting,
        Topic::InternetMeasurement,
        Topic::SecurityPrivacy,
        Topic::CommunityNetworks,
        Topic::PolicyGovernance,
        Topic::AccessEquity,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            Topic::DatacenterPerformance => "datacenter-performance",
            Topic::CongestionControl => "congestion-control",
            Topic::InterdomainRouting => "interdomain-routing",
            Topic::InternetMeasurement => "internet-measurement",
            Topic::SecurityPrivacy => "security-privacy",
            Topic::CommunityNetworks => "community-networks",
            Topic::PolicyGovernance => "policy-governance",
            Topic::AccessEquity => "access-equity",
        }
    }
}

/// Classes of Internet stakeholder, from the paper's §1 framing
/// ("hyperscalers or government agencies" vs "those managing fragile
/// last-mile networks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StakeholderClass {
    /// Hyperscale cloud/content operators.
    Hyperscaler,
    /// Commercial transit and access ISPs.
    TransitIsp,
    /// The research community itself (testbeds, measurement platforms).
    ResearchCommunity,
    /// Community / municipal / rural network operators.
    CommunityOperator,
    /// Regulators and policy bodies.
    Regulator,
    /// End users at large.
    EndUsers,
}

impl StakeholderClass {
    /// All stakeholder classes.
    pub const ALL: [StakeholderClass; 6] = [
        StakeholderClass::Hyperscaler,
        StakeholderClass::TransitIsp,
        StakeholderClass::ResearchCommunity,
        StakeholderClass::CommunityOperator,
        StakeholderClass::Regulator,
        StakeholderClass::EndUsers,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            StakeholderClass::Hyperscaler => "hyperscaler",
            StakeholderClass::TransitIsp => "transit-isp",
            StakeholderClass::ResearchCommunity => "research-community",
            StakeholderClass::CommunityOperator => "community-operator",
            StakeholderClass::Regulator => "regulator",
            StakeholderClass::EndUsers => "end-users",
        }
    }

    /// The paper's "marginalized" stakeholders: those whose problems it
    /// says are rendered invisible.
    pub fn is_marginalized(&self) -> bool {
        matches!(
            self,
            StakeholderClass::CommunityOperator | StakeholderClass::EndUsers
        )
    }
}

/// A publication venue.
#[derive(Debug, Clone, PartialEq)]
pub struct Venue {
    /// Dense id within the corpus.
    pub id: usize,
    /// Display name, e.g. "SYSNET".
    pub name: String,
    /// Methodological culture.
    pub kind: VenueKind,
}

/// An author.
#[derive(Debug, Clone, PartialEq)]
pub struct Author {
    /// Dense id within the corpus.
    pub id: usize,
    /// Display name.
    pub name: String,
    /// Region of the author's institution.
    pub region: Region,
    /// Career start year (first possible publication year).
    pub active_from: u32,
}

/// A paper.
#[derive(Debug, Clone, PartialEq)]
pub struct Paper {
    /// Dense id within the corpus.
    pub id: usize,
    /// Title.
    pub title: String,
    /// Abstract text (synthetic).
    pub abstract_text: String,
    /// Publication year.
    pub year: u32,
    /// Venue id.
    pub venue: usize,
    /// Author ids, in byline order.
    pub authors: Vec<usize>,
    /// Primary topic.
    pub topic: Topic,
    /// Methods used.
    pub methods: Vec<MethodTag>,
    /// Ids of papers this paper cites (within-corpus only).
    pub citations: Vec<usize>,
    /// Whether the paper documents its practitioner partnerships (§5.1).
    pub documents_partnerships: bool,
    /// Whether the paper reports its informative conversations (§5.2).
    pub documents_conversations: bool,
}

impl Paper {
    /// True if the paper carries a positionality statement.
    pub fn has_positionality(&self) -> bool {
        self.methods.contains(&MethodTag::Positionality)
    }

    /// True if any human-centered method is used.
    pub fn is_human_centered(&self) -> bool {
        self.methods.iter().any(MethodTag::is_human_centered)
    }
}

/// A full corpus: venues, authors, papers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Corpus {
    /// All venues.
    pub venues: Vec<Venue>,
    /// All authors.
    pub authors: Vec<Author>,
    /// All papers, sorted by (year, id).
    pub papers: Vec<Paper>,
}

impl Corpus {
    /// Validate internal referential integrity. Returns the first dangling
    /// reference found, if any.
    pub fn validate(&self) -> crate::Result<()> {
        for (i, v) in self.venues.iter().enumerate() {
            if v.id != i {
                return Err(crate::CorpusError::InvalidParameter(
                    "venue ids must be dense",
                ));
            }
        }
        for (i, a) in self.authors.iter().enumerate() {
            if a.id != i {
                return Err(crate::CorpusError::InvalidParameter(
                    "author ids must be dense",
                ));
            }
        }
        for (i, p) in self.papers.iter().enumerate() {
            if p.id != i {
                return Err(crate::CorpusError::InvalidParameter(
                    "paper ids must be dense",
                ));
            }
            if p.venue >= self.venues.len() {
                return Err(crate::CorpusError::DanglingReference("venue", p.venue));
            }
            if p.authors.is_empty() {
                return Err(crate::CorpusError::InvalidParameter(
                    "paper must have authors",
                ));
            }
            for &a in &p.authors {
                if a >= self.authors.len() {
                    return Err(crate::CorpusError::DanglingReference("author", a));
                }
            }
            for &c in &p.citations {
                if c >= self.papers.len() {
                    return Err(crate::CorpusError::DanglingReference("paper", c));
                }
                if c == p.id {
                    return Err(crate::CorpusError::InvalidParameter("self-citation"));
                }
            }
        }
        Ok(())
    }

    /// Papers published at a given venue kind.
    pub fn papers_in_kind(&self, kind: VenueKind) -> Vec<&Paper> {
        self.papers
            .iter()
            .filter(|p| self.venues[p.venue].kind == kind)
            .collect()
    }

    /// Year range `(min, max)` of the corpus, or `None` when empty.
    pub fn year_range(&self) -> Option<(u32, u32)> {
        let min = self.papers.iter().map(|p| p.year).min()?;
        let max = self.papers.iter().map(|p| p.year).max()?;
        Some((min, max))
    }

    /// In-corpus citation counts per paper.
    pub fn citation_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.papers.len()];
        for p in &self.papers {
            for &c in &p.citations {
                counts[c] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        Corpus {
            venues: vec![Venue {
                id: 0,
                name: "SYSNET".into(),
                kind: VenueKind::SystemsNetworking,
            }],
            authors: vec![Author {
                id: 0,
                name: "A. Researcher".into(),
                region: Region::GlobalNorth,
                active_from: 2015,
            }],
            papers: vec![
                Paper {
                    id: 0,
                    title: "Fast Fabrics".into(),
                    abstract_text: "We measure the fabric.".into(),
                    year: 2020,
                    venue: 0,
                    authors: vec![0],
                    topic: Topic::DatacenterPerformance,
                    methods: vec![MethodTag::Measurement],
                    citations: vec![],
                    documents_partnerships: false,
                    documents_conversations: false,
                },
                Paper {
                    id: 1,
                    title: "Faster Fabrics".into(),
                    abstract_text: "We measure the fabric again.".into(),
                    year: 2021,
                    venue: 0,
                    authors: vec![0],
                    topic: Topic::DatacenterPerformance,
                    methods: vec![MethodTag::Measurement, MethodTag::SystemBuilding],
                    citations: vec![0],
                    documents_partnerships: true,
                    documents_conversations: false,
                },
            ],
        }
    }

    #[test]
    fn validate_accepts_consistent_corpus() {
        tiny_corpus().validate().unwrap();
    }

    #[test]
    fn validate_rejects_dangling_venue() {
        let mut c = tiny_corpus();
        c.papers[0].venue = 9;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_dangling_citation() {
        let mut c = tiny_corpus();
        c.papers[1].citations.push(42);
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_self_citation() {
        let mut c = tiny_corpus();
        c.papers[1].citations = vec![1];
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_empty_authors() {
        let mut c = tiny_corpus();
        c.papers[0].authors.clear();
        assert!(c.validate().is_err());
    }

    #[test]
    fn citation_counts() {
        let c = tiny_corpus();
        assert_eq!(c.citation_counts(), vec![1, 0]);
    }

    #[test]
    fn year_range() {
        assert_eq!(tiny_corpus().year_range(), Some((2020, 2021)));
        assert_eq!(Corpus::default().year_range(), None);
    }

    #[test]
    fn every_topic_has_a_label() {
        for t in Topic::ALL {
            assert!(!t.label().is_empty());
        }
    }

    #[test]
    fn human_centered_tags() {
        assert!(MethodTag::Ethnography.is_human_centered());
        assert!(MethodTag::Positionality.is_human_centered());
        assert!(!MethodTag::Measurement.is_human_centered());
        assert!(!MethodTag::Theory.is_human_centered());
    }

    #[test]
    fn marginalized_stakeholders() {
        assert!(StakeholderClass::CommunityOperator.is_marginalized());
        assert!(!StakeholderClass::Hyperscaler.is_marginalized());
    }

    #[test]
    fn paper_flags() {
        let c = tiny_corpus();
        assert!(!c.papers[0].has_positionality());
        assert!(!c.papers[0].is_human_centered());
    }

    #[test]
    fn papers_in_kind_filters() {
        let c = tiny_corpus();
        assert_eq!(c.papers_in_kind(VenueKind::SystemsNetworking).len(), 2);
        assert!(c.papers_in_kind(VenueKind::HciCscw).is_empty());
    }
}
