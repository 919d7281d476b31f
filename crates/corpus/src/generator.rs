//! Synthetic corpus generation.
//!
//! **Substitution note (DESIGN.md §1).** The paper's claims about venue
//! cultures cannot be tested against the real ACM DL offline. This
//! generator produces a corpus whose *distributions* follow the stylized
//! facts the bibliometrics literature agrees on:
//!
//! * citation counts are heavy-tailed (preferential attachment with
//!   tunable strength);
//! * method prevalence depends on venue kind (systems venues are dominated
//!   by measurement/system-building; HCI/ICTD venues by interviews,
//!   ethnography and participatory methods);
//! * positionality statements are common in social-science venues, present
//!   in HCI, and nearly absent in networking venues — the exact gap the
//!   paper's §4 laments — with a slow upward time trend;
//! * author affiliations skew Global North, more strongly at systems
//!   venues.
//!
//! Every knob is a public field of [`CorpusConfig`] so experiments can
//! ablate them.

use crate::model::{Author, Corpus, MethodTag, Paper, Region, Topic, Venue, VenueKind};
use crate::{CorpusError, Result};
use humnet_stats::{CumulativeWeights, FenwickWeights, Rng};
use humnet_text::MarkovModel;

/// Per-venue generation profile.
#[derive(Debug, Clone)]
pub struct VenueProfile {
    /// Venue display name.
    pub name: String,
    /// Methodological culture.
    pub kind: VenueKind,
    /// Papers accepted per year.
    pub papers_per_year: usize,
}

/// Configuration for corpus generation.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// First publication year.
    pub start_year: u32,
    /// Number of years to generate.
    pub years: u32,
    /// Venues to generate.
    pub venues: Vec<VenueProfile>,
    /// Size of the author pool.
    pub author_pool: usize,
    /// Fraction of authors affiliated in the Global South.
    pub global_south_share: f64,
    /// Mean number of authors per paper (Poisson + 1, capped at 8).
    pub mean_authors: f64,
    /// Mean number of within-corpus citations per paper.
    pub mean_citations: f64,
    /// Preferential-attachment strength for citations: probability that a
    /// citation is drawn proportionally to in-degree (vs uniformly).
    pub preferential_strength: f64,
    /// Per-year additive drift in positionality probability (models the
    /// slow cultural shift the paper hopes to accelerate).
    pub positionality_trend_per_year: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            start_year: 2015,
            years: 10,
            venues: vec![
                VenueProfile {
                    name: "SYSNET".into(),
                    kind: VenueKind::SystemsNetworking,
                    papers_per_year: 40,
                },
                VenueProfile {
                    name: "NETMEAS".into(),
                    kind: VenueKind::Measurement,
                    papers_per_year: 30,
                },
                VenueProfile {
                    name: "HOTTOPICS".into(),
                    kind: VenueKind::HotTopics,
                    papers_per_year: 25,
                },
                VenueProfile {
                    name: "HUMANCOMP".into(),
                    kind: VenueKind::HciCscw,
                    papers_per_year: 40,
                },
                VenueProfile {
                    name: "DEVTECH".into(),
                    kind: VenueKind::Ictd,
                    papers_per_year: 15,
                },
                VenueProfile {
                    name: "NETSOC".into(),
                    kind: VenueKind::SocialScience,
                    papers_per_year: 10,
                },
            ],
            author_pool: 600,
            global_south_share: 0.18,
            mean_authors: 3.2,
            mean_citations: 6.0,
            preferential_strength: 0.75,
            positionality_trend_per_year: 0.004,
        }
    }
}

impl CorpusConfig {
    /// Validate the configuration.
    pub fn validate(&self) -> Result<()> {
        if self.years == 0 {
            return Err(CorpusError::InvalidParameter("years must be >= 1"));
        }
        if self.venues.is_empty() {
            return Err(CorpusError::InvalidParameter("need at least one venue"));
        }
        if self.author_pool == 0 {
            return Err(CorpusError::InvalidParameter(
                "author pool must be nonempty",
            ));
        }
        if !(0.0..=1.0).contains(&self.global_south_share) {
            return Err(CorpusError::InvalidParameter(
                "global_south_share must be in [0,1]",
            ));
        }
        if !(0.0..=1.0).contains(&self.preferential_strength) {
            return Err(CorpusError::InvalidParameter(
                "preferential_strength must be in [0,1]",
            ));
        }
        if self.mean_authors < 1.0 {
            return Err(CorpusError::InvalidParameter("mean_authors must be >= 1"));
        }
        if self.mean_citations < 0.0 {
            return Err(CorpusError::InvalidParameter("mean_citations must be >= 0"));
        }
        Ok(())
    }

    /// Generate a corpus deterministically from a seed. Telemetry: a
    /// `corpus.generate` span, a `corpus.generate_ns` observation, a paper
    /// counter, and a milestone event.
    pub fn generate(&self, seed: u64, tel: &humnet_telemetry::Telemetry) -> Result<Corpus> {
        let _span = tel.span("corpus.generate");
        let t0 = tel.start();
        let corpus = self.generate_inner(seed)?;
        tel.observe_since("corpus.generate_ns", t0);
        tel.counter("corpus.papers", corpus.papers.len() as u64);
        tel.counter("corpus.authors", corpus.authors.len() as u64);
        tel.event(humnet_telemetry::Event::new(
            "milestone",
            format!(
                "corpus.generate: {} papers, {} authors across {} venues",
                corpus.papers.len(),
                corpus.authors.len(),
                corpus.venues.len()
            ),
        ));
        Ok(corpus)
    }

    fn generate_inner(&self, seed: u64) -> Result<Corpus> {
        self.validate()?;
        let mut rng = Rng::new(seed);
        let venues: Vec<Venue> = self
            .venues
            .iter()
            .enumerate()
            .map(|(id, p)| Venue {
                id,
                name: p.name.clone(),
                kind: p.kind,
            })
            .collect();
        let authors = self.generate_authors(&mut rng);
        // Indexed by `VenueKind as usize` (declaration order is `ALL` order).
        let author_weights = VenueKind::ALL.map(|kind| author_weights(&authors, kind));
        let markov = topic_markov_models();
        let mut papers: Vec<Paper> = Vec::new();
        let mut cite_weights = CitationWeights::default();
        for year_idx in 0..self.years {
            let year = self.start_year + year_idx;
            for (venue_id, profile) in self.venues.iter().enumerate() {
                for _ in 0..profile.papers_per_year {
                    let paper = self.generate_paper(
                        papers.len(),
                        year,
                        year_idx,
                        venue_id,
                        profile.kind,
                        &author_weights[profile.kind as usize],
                        &cite_weights,
                        &markov,
                        &mut rng,
                    );
                    for &c in &paper.citations {
                        cite_weights.cite(c, papers[c].topic);
                    }
                    cite_weights.push(paper.topic);
                    papers.push(paper);
                }
            }
        }
        let corpus = Corpus {
            venues,
            authors,
            papers,
        };
        corpus.validate()?;
        Ok(corpus)
    }

    fn generate_authors(&self, rng: &mut Rng) -> Vec<Author> {
        (0..self.author_pool)
            .map(|id| {
                let region = if rng.chance(self.global_south_share) {
                    Region::GlobalSouth
                } else {
                    Region::GlobalNorth
                };
                Author {
                    id,
                    name: format!("Author-{id:04}"),
                    region,
                    active_from: self.start_year.saturating_sub(rng.below(15) as u32),
                }
            })
            .collect()
    }

    #[allow(clippy::too_many_arguments)]
    fn generate_paper(
        &self,
        id: usize,
        year: u32,
        year_idx: u32,
        venue_id: usize,
        kind: VenueKind,
        author_weights: &CumulativeWeights,
        cite_weights: &CitationWeights,
        markov: &[MarkovModel; Topic::ALL.len()],
        rng: &mut Rng,
    ) -> Paper {
        let topic = sample_topic(kind, rng);
        let methods = sample_methods(
            kind,
            topic,
            year_idx,
            self.positionality_trend_per_year,
            rng,
        );
        // Authors: 1 + Poisson(mean - 1), capped.
        let n_authors = (1 + rng.poisson(self.mean_authors - 1.0) as usize).min(8);
        let author_ids = sample_authors(author_weights, n_authors, rng);
        let citations = sample_citations(
            cite_weights,
            topic,
            self.mean_citations,
            self.preferential_strength,
            rng,
        );
        let title = make_title(topic, id, rng);
        let abstract_text = make_abstract(&markov[topic as usize], &methods, rng);
        // §5.1/§5.2 documentation behaviour: participatory work documents
        // partners most of the time; other human-centered work sometimes;
        // purely technical work rarely.
        let documents_partnerships = if methods.contains(&MethodTag::ParticipatoryActionResearch) {
            rng.chance(0.85)
        } else if methods.iter().any(MethodTag::is_human_centered) {
            rng.chance(0.45)
        } else {
            rng.chance(0.08)
        };
        let documents_conversations = if methods.contains(&MethodTag::Ethnography)
            || methods.contains(&MethodTag::Interviews)
        {
            rng.chance(0.70)
        } else if documents_partnerships {
            rng.chance(0.30)
        } else {
            rng.chance(0.04)
        };
        Paper {
            id,
            title,
            abstract_text,
            year,
            venue: venue_id,
            authors: author_ids,
            topic,
            methods,
            citations,
            documents_partnerships,
            documents_conversations,
        }
    }
}

/// Topic mixture by venue kind (weights over [`Topic::ALL`]).
fn topic_weights(kind: VenueKind) -> [f64; 8] {
    // Order: DatacenterPerf, CongestionControl, InterdomainRouting,
    //        InternetMeasurement, SecurityPrivacy, CommunityNetworks,
    //        PolicyGovernance, AccessEquity
    match kind {
        VenueKind::SystemsNetworking => [0.30, 0.22, 0.16, 0.12, 0.12, 0.04, 0.02, 0.02],
        VenueKind::Measurement => [0.06, 0.08, 0.22, 0.40, 0.14, 0.04, 0.04, 0.02],
        VenueKind::HotTopics => [0.18, 0.14, 0.16, 0.14, 0.14, 0.10, 0.08, 0.06],
        VenueKind::HciCscw => [0.01, 0.01, 0.02, 0.06, 0.14, 0.30, 0.16, 0.30],
        VenueKind::Ictd => [0.01, 0.02, 0.03, 0.06, 0.06, 0.42, 0.12, 0.28],
        VenueKind::SocialScience => [0.00, 0.00, 0.08, 0.06, 0.08, 0.18, 0.42, 0.18],
    }
}

fn sample_topic(kind: VenueKind, rng: &mut Rng) -> Topic {
    let w = topic_weights(kind);
    Topic::ALL[rng.choose_weighted(&w)]
}

/// Method priors per venue kind: `(tag, probability)` — a paper may carry
/// several tags. Positionality gets the per-year trend added on top.
fn method_priors(kind: VenueKind) -> &'static [(MethodTag, f64)] {
    match kind {
        VenueKind::SystemsNetworking => &[
            (MethodTag::SystemBuilding, 0.70),
            (MethodTag::Measurement, 0.55),
            (MethodTag::Simulation, 0.30),
            (MethodTag::Theory, 0.18),
            (MethodTag::Interviews, 0.03),
            (MethodTag::Ethnography, 0.004),
            (MethodTag::ParticipatoryActionResearch, 0.004),
            (MethodTag::Survey, 0.02),
            (MethodTag::Positionality, 0.002),
        ],
        VenueKind::Measurement => &[
            (MethodTag::Measurement, 0.92),
            (MethodTag::SystemBuilding, 0.25),
            (MethodTag::Simulation, 0.12),
            (MethodTag::Theory, 0.10),
            (MethodTag::Interviews, 0.05),
            (MethodTag::Ethnography, 0.005),
            (MethodTag::ParticipatoryActionResearch, 0.003),
            (MethodTag::Survey, 0.05),
            (MethodTag::Positionality, 0.003),
        ],
        VenueKind::HotTopics => &[
            (MethodTag::Measurement, 0.40),
            (MethodTag::SystemBuilding, 0.35),
            (MethodTag::Simulation, 0.25),
            (MethodTag::Theory, 0.25),
            (MethodTag::Interviews, 0.06),
            (MethodTag::Ethnography, 0.01),
            (MethodTag::ParticipatoryActionResearch, 0.01),
            (MethodTag::Survey, 0.04),
            (MethodTag::Positionality, 0.006),
        ],
        VenueKind::HciCscw => &[
            (MethodTag::Measurement, 0.15),
            (MethodTag::SystemBuilding, 0.25),
            (MethodTag::Simulation, 0.03),
            (MethodTag::Theory, 0.05),
            (MethodTag::Interviews, 0.65),
            (MethodTag::Ethnography, 0.25),
            (MethodTag::ParticipatoryActionResearch, 0.22),
            (MethodTag::Survey, 0.35),
            (MethodTag::Positionality, 0.18),
        ],
        VenueKind::Ictd => &[
            (MethodTag::Measurement, 0.20),
            (MethodTag::SystemBuilding, 0.30),
            (MethodTag::Simulation, 0.05),
            (MethodTag::Theory, 0.03),
            (MethodTag::Interviews, 0.70),
            (MethodTag::Ethnography, 0.35),
            (MethodTag::ParticipatoryActionResearch, 0.40),
            (MethodTag::Survey, 0.30),
            (MethodTag::Positionality, 0.25),
        ],
        VenueKind::SocialScience => &[
            (MethodTag::Measurement, 0.10),
            (MethodTag::SystemBuilding, 0.02),
            (MethodTag::Simulation, 0.02),
            (MethodTag::Theory, 0.30),
            (MethodTag::Interviews, 0.75),
            (MethodTag::Ethnography, 0.55),
            (MethodTag::ParticipatoryActionResearch, 0.20),
            (MethodTag::Survey, 0.25),
            (MethodTag::Positionality, 0.45),
        ],
    }
}

fn sample_methods(
    kind: VenueKind,
    topic: Topic,
    year_idx: u32,
    positionality_trend: f64,
    rng: &mut Rng,
) -> Vec<MethodTag> {
    let mut methods = Vec::new();
    for &(tag, base_p) in method_priors(kind) {
        let mut p = base_p;
        if tag == MethodTag::Positionality {
            p += positionality_trend * year_idx as f64;
        }
        // Community-network topics pull in human methods even at systems
        // venues (the long tradition the paper cites: CoLTE, CCM, SCN).
        if matches!(topic, Topic::CommunityNetworks | Topic::AccessEquity)
            && tag.is_human_centered()
        {
            p = (p * 3.0).min(0.9);
        }
        if rng.chance(p) {
            methods.push(tag);
        }
    }
    if methods.is_empty() {
        // Every paper uses *some* method; default to the venue's modal one.
        methods.push(match kind {
            VenueKind::SystemsNetworking => MethodTag::SystemBuilding,
            VenueKind::Measurement => MethodTag::Measurement,
            VenueKind::HotTopics => MethodTag::Theory,
            VenueKind::HciCscw | VenueKind::Ictd => MethodTag::Interviews,
            VenueKind::SocialScience => MethodTag::Theory,
        });
    }
    methods
}

/// Author draw weights at a venue kind, over the whole author pool.
fn author_weights(authors: &[Author], kind: VenueKind) -> CumulativeWeights {
    // Systems venues under-sample Global South authors relative to the pool
    // (modelling the differential reachability the paper describes).
    let south_penalty = match kind {
        VenueKind::SystemsNetworking | VenueKind::Measurement => 0.35,
        VenueKind::HotTopics => 0.5,
        VenueKind::HciCscw => 0.8,
        VenueKind::Ictd | VenueKind::SocialScience => 1.6,
    };
    CumulativeWeights::new(
        authors
            .iter()
            .map(|a| match a.region {
                Region::GlobalNorth => 1.0,
                Region::GlobalSouth => south_penalty,
            })
            .collect(),
    )
}

fn sample_authors(weights: &CumulativeWeights, n: usize, rng: &mut Rng) -> Vec<usize> {
    let mut chosen: Vec<usize> = Vec::with_capacity(n);
    let mut guard = 0;
    while chosen.len() < n.min(weights.len()) && guard < 10_000 {
        let pick = weights.sample(rng);
        if !chosen.contains(&pick) {
            chosen.push(pick);
        }
        guard += 1;
    }
    chosen
}

/// Preferential-attachment weights over the papers so far. Citing topic
/// `t` weighs paper `j` at `b_j + [topic_j = t]·b_j`, where
/// `b_j = in_degree + 1`: homophily doubles a paper's weight for its own
/// topic. So one tree holds every `b_j` and one tree per topic holds only
/// that topic's papers, zero elsewhere. A citation updates two trees
/// instead of one per topic, and a draw descends the base tree plus the
/// citing topic's, which returns what one tree of the summed weights
/// would.
#[derive(Debug, Default)]
struct CitationWeights {
    base: FenwickWeights,
    /// Indexed by `Topic as usize`.
    own: [FenwickWeights; Topic::ALL.len()],
}

impl CitationWeights {
    /// Number of papers indexed.
    fn len(&self) -> usize {
        self.base.len()
    }

    /// Index a new, uncited paper of `topic`.
    fn push(&mut self, topic: Topic) {
        self.base.push(1);
        for (t, tree) in Topic::ALL.into_iter().zip(&mut self.own) {
            tree.push(u64::from(t == topic));
        }
    }

    /// Record one citation of paper `j`, of `topic`.
    fn cite(&mut self, j: usize, topic: Topic) {
        self.base.add(j, 1);
        self.own[topic as usize].add(j, 1);
    }

    /// Draw a paper for a citing paper of `topic`.
    fn sample(&self, topic: Topic, rng: &mut Rng) -> usize {
        self.base.sample_summed(&self.own[topic as usize], rng)
    }
}

/// Citations from a new paper of `topic` into the papers before it.
fn sample_citations(
    weights: &CitationWeights,
    topic: Topic,
    mean: f64,
    preferential: f64,
    rng: &mut Rng,
) -> Vec<usize> {
    let prior = weights.len();
    if prior == 0 || mean <= 0.0 {
        return Vec::new();
    }
    let want = rng.poisson(mean) as usize;
    let mut cites: Vec<usize> = Vec::new();
    let mut guard = 0;
    while cites.len() < want.min(prior) && guard < 10_000 {
        guard += 1;
        let candidate = if rng.chance(preferential) {
            weights.sample(topic, rng)
        } else {
            rng.range(0, prior)
        };
        if !cites.contains(&candidate) {
            cites.push(candidate);
        }
    }
    cites
}

fn make_title(topic: Topic, id: usize, rng: &mut Rng) -> String {
    const PREFIXES: &[&str] = &[
        "Towards",
        "Rethinking",
        "Understanding",
        "A Study of",
        "Revisiting",
        "On the Practice of",
    ];
    let subject = match topic {
        Topic::DatacenterPerformance => "Datacenter Fabric Performance",
        Topic::CongestionControl => "Congestion Control at Scale",
        Topic::InterdomainRouting => "Interdomain Routing Policy",
        Topic::InternetMeasurement => "Internet-Wide Measurement",
        Topic::SecurityPrivacy => "Network Security and Privacy",
        Topic::CommunityNetworks => "Community-Run Networks",
        Topic::PolicyGovernance => "Internet Governance",
        Topic::AccessEquity => "Equitable Internet Access",
    };
    let prefix = rng.choose(PREFIXES);
    // The decimal digits of `id`, filled from the right.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = id;
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    let digits = std::str::from_utf8(&digits[at..]).expect("ASCII digits");
    let mut title = String::with_capacity(prefix.len() + subject.len() + digits.len() + 4);
    title.push_str(prefix);
    title.push(' ');
    title.push_str(subject);
    title.push_str(" [");
    title.push_str(digits);
    title.push(']');
    title
}

/// Seed text per topic used to train the abstract Markov models. Each seed
/// is written so generated abstracts contain topical vocabulary the
/// text-mining pipelines can pick up.
fn topic_seed(topic: Topic) -> &'static str {
    match topic {
        Topic::DatacenterPerformance => {
            "We design a datacenter fabric that improves tail latency. \
             The fabric balances load across switches. We evaluate throughput \
             under production workloads. Our design reduces flow completion time."
        }
        Topic::CongestionControl => {
            "We propose a congestion control algorithm for wide area transport. \
             The algorithm reacts to delay signals. We evaluate fairness and \
             throughput against deployed schemes. The protocol converges quickly."
        }
        Topic::InterdomainRouting => {
            "We analyze interdomain routing policies between autonomous systems. \
             Peering decisions shape the paths that traffic takes. We study route \
             export rules at exchanges. Business relationships constrain path selection."
        }
        Topic::InternetMeasurement => {
            "We measure the internet from distributed vantage points. \
             Our traces capture topology and performance over time. We infer \
             structure from measurement data. The dataset spans many networks."
        }
        Topic::SecurityPrivacy => {
            "We study attacks against network infrastructure. Our analysis \
             reveals vulnerabilities in deployed protocols. We propose defenses \
             that preserve privacy. The system detects anomalous behavior."
        }
        Topic::CommunityNetworks => {
            "Community networks are built and operated by local residents. \
             Volunteers maintain wireless infrastructure in rural areas. \
             We deploy low-cost equipment with community partners. Local operators \
             sustain the network through shared governance."
        }
        Topic::PolicyGovernance => {
            "Internet governance shapes interconnection between networks. \
             Regulators mandate peering at public exchanges. Policy decisions \
             affect how operators interconnect. Institutional arrangements \
             constrain infrastructure deployment."
        }
        Topic::AccessEquity => {
            "Affordable access remains unevenly distributed across regions. \
             Underserved communities face barriers to connectivity. We examine \
             digital equity programs with local stakeholders. Access gaps \
             reflect economic and geographic marginality."
        }
    }
}

/// Method signal sentences appended to abstracts so that text pipelines can
/// detect methods from the prose itself (not just the structured tags).
fn method_sentence(tag: MethodTag) -> &'static str {
    match tag {
        MethodTag::Measurement => "We analyze large-scale traces collected over months.",
        MethodTag::SystemBuilding => "We implement and deploy a prototype system.",
        MethodTag::Simulation => "We evaluate the design in simulation.",
        MethodTag::Theory => "We prove properties of the model analytically.",
        MethodTag::Interviews => {
            "We conducted semi-structured interviews with operators and users."
        }
        MethodTag::Ethnography => {
            "Our ethnographic fieldwork combined participant observation with site visits."
        }
        MethodTag::ParticipatoryActionResearch => {
            "We worked with community partners through participatory action research \
             to define the problem and iterate on solutions."
        }
        MethodTag::Survey => "We surveyed practitioners about their operational practices.",
        MethodTag::Positionality => {
            "We situate ourselves in this work: the authors acknowledge their \
             positionality and how it shapes the research questions."
        }
    }
}

/// Train one Markov model per topic (done once per corpus generation),
/// indexed by `Topic as usize`.
fn topic_markov_models() -> [MarkovModel; Topic::ALL.len()] {
    Topic::ALL.map(|t| {
        let mut m = MarkovModel::new();
        m.train_text(topic_seed(t));
        m
    })
}

fn make_abstract(model: &MarkovModel, methods: &[MethodTag], rng: &mut Rng) -> String {
    let signals: usize = methods.iter().map(|&m| 1 + method_sentence(m).len()).sum();
    let mut text = String::with_capacity(model.max_paragraph_len(3, 14) + signals);
    model.push_paragraph(&mut text, 3, 14, rng);
    for &m in methods {
        text.push(' ');
        text.push_str(method_sentence(m));
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use humnet_telemetry::Telemetry;

    fn small_config() -> CorpusConfig {
        let mut cfg = CorpusConfig::default();
        cfg.years = 3;
        for v in cfg.venues.iter_mut() {
            v.papers_per_year = 8;
        }
        cfg.author_pool = 80;
        cfg
    }

    #[test]
    fn default_config_is_valid() {
        CorpusConfig::default().validate().unwrap();
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = small_config();
        let a = cfg.generate(42, &Telemetry::disabled()).unwrap();
        let b = cfg.generate(42, &Telemetry::disabled()).unwrap();
        assert_eq!(a, b);
        let c = cfg.generate(43, &Telemetry::disabled()).unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn generated_corpus_validates() {
        let corpus = small_config().generate(1, &Telemetry::disabled()).unwrap();
        corpus.validate().unwrap();
        assert_eq!(corpus.papers.len(), 3 * 6 * 8);
        assert_eq!(corpus.venues.len(), 6);
    }

    #[test]
    fn citations_point_backwards() {
        let corpus = small_config().generate(2, &Telemetry::disabled()).unwrap();
        for p in &corpus.papers {
            for &c in &p.citations {
                assert!(c < p.id, "paper {} cites future paper {}", p.id, c);
            }
        }
    }

    #[test]
    fn positionality_is_rare_at_networking_venues() {
        let corpus = CorpusConfig::default()
            .generate(7, &Telemetry::disabled())
            .unwrap();
        let rate = |kind: VenueKind| {
            let papers = corpus.papers_in_kind(kind);
            papers.iter().filter(|p| p.has_positionality()).count() as f64
                / papers.len().max(1) as f64
        };
        let sys = rate(VenueKind::SystemsNetworking);
        let hci = rate(VenueKind::HciCscw);
        let soc = rate(VenueKind::SocialScience);
        assert!(sys < 0.05, "systems positionality rate {sys}");
        assert!(hci > 0.10, "hci positionality rate {hci}");
        assert!(soc > hci, "social science {soc} should exceed hci {hci}");
    }

    #[test]
    fn human_methods_cluster_at_human_venues() {
        let corpus = CorpusConfig::default()
            .generate(11, &Telemetry::disabled())
            .unwrap();
        let hc_rate = |kind: VenueKind| {
            let papers = corpus.papers_in_kind(kind);
            papers.iter().filter(|p| p.is_human_centered()).count() as f64
                / papers.len().max(1) as f64
        };
        assert!(hc_rate(VenueKind::HciCscw) > 0.6);
        assert!(hc_rate(VenueKind::SystemsNetworking) < 0.35);
    }

    #[test]
    fn citation_distribution_is_heavy_tailed() {
        let corpus = CorpusConfig::default()
            .generate(13, &Telemetry::disabled())
            .unwrap();
        let counts: Vec<f64> = corpus
            .citation_counts()
            .into_iter()
            .map(|c| c as f64)
            .collect();
        let g = humnet_stats::gini(&counts).unwrap();
        assert!(g > 0.5, "citation gini {g} should be high");
    }

    #[test]
    fn abstracts_carry_method_signals() {
        let corpus = small_config().generate(17, &Telemetry::disabled()).unwrap();
        for p in &corpus.papers {
            if p.has_positionality() {
                assert!(
                    p.abstract_text.contains("positionality"),
                    "positionality paper missing signal: {}",
                    p.abstract_text
                );
            }
            if p.methods.contains(&MethodTag::Ethnography) {
                assert!(p.abstract_text.contains("ethnographic"));
            }
        }
    }

    #[test]
    fn every_paper_has_methods_and_authors() {
        let corpus = small_config().generate(19, &Telemetry::disabled()).unwrap();
        for p in &corpus.papers {
            assert!(!p.methods.is_empty());
            assert!(!p.authors.is_empty());
            assert!(p.authors.len() <= 8);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        let mut cfg = CorpusConfig::default();
        cfg.years = 0;
        assert!(cfg.validate().is_err());
        let mut cfg = CorpusConfig::default();
        cfg.venues.clear();
        assert!(cfg.validate().is_err());
        let mut cfg = CorpusConfig::default();
        cfg.preferential_strength = 1.5;
        assert!(cfg.validate().is_err());
        let mut cfg = CorpusConfig::default();
        cfg.mean_authors = 0.5;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn global_south_share_approximates_config() {
        let mut cfg = small_config();
        cfg.author_pool = 2000;
        cfg.global_south_share = 0.3;
        let corpus = cfg.generate(23, &Telemetry::disabled()).unwrap();
        let south = corpus
            .authors
            .iter()
            .filter(|a| a.region == Region::GlobalSouth)
            .count() as f64
            / corpus.authors.len() as f64;
        assert!((south - 0.3).abs() < 0.05, "south share {south}");
    }
}
