//! Method regimes: how researchers discover problems.

use crate::model::Problem;

/// The problem-sourcing methodology of a researcher population — the
/// independent variable of experiment **T1**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MethodRegime {
    /// Projects "begin with datasets" (§2): discovery weight follows what
    /// is visible in measurement data and what funding instruments exist,
    /// and publications feed back into discoverability.
    DataDriven,
    /// Participatory action research: problems are sourced from the
    /// communities experiencing them, weighted by human impact; slower
    /// per-round publication throughput (engagement takes time).
    Par,
    /// Ethnographic: fieldwork surfaces what measurement cannot see —
    /// discovery weight tilts toward *low-visibility* high-impact problems;
    /// slowest throughput.
    Ethnographic,
    /// A mixed portfolio: half data-driven, half participatory.
    Mixed,
}

impl MethodRegime {
    /// All regimes.
    pub const ALL: [MethodRegime; 4] = [
        MethodRegime::DataDriven,
        MethodRegime::Par,
        MethodRegime::Ethnographic,
        MethodRegime::Mixed,
    ];

    /// Short display label.
    pub fn label(&self) -> &'static str {
        match self {
            MethodRegime::DataDriven => "data-driven",
            MethodRegime::Par => "par",
            MethodRegime::Ethnographic => "ethnographic",
            MethodRegime::Mixed => "mixed",
        }
    }

    /// Discovery weight for a problem: the relative probability that a
    /// researcher working under this regime picks it up. The
    /// `0.01` floors keep every problem discoverable in principle (nothing
    /// is truly probability-zero; the loop is a bias, not a ban).
    pub fn discovery_weight(&self, p: &Problem) -> f64 {
        match self {
            MethodRegime::DataDriven => {
                // Visibility × funding, amplified by prior publications
                // (the feedback loop): w = (v·f + 0.01) · (1 + pubs).
                (p.visibility * p.funding + 0.01) * (1.0 + p.publications as f64)
            }
            MethodRegime::Par => {
                // Impact-led; mild preference for problems communities are
                // already organized around (a little funding helps), no
                // publication feedback (each engagement is grounded anew).
                p.impact + 0.2 * p.funding + 0.01
            }
            MethodRegime::Ethnographic => {
                // Fieldwork goes looking precisely where data does not:
                // impact × (1 − visibility).
                p.impact * (1.0 - p.visibility) + 0.01
            }
            MethodRegime::Mixed => {
                0.5 * MethodRegime::DataDriven.discovery_weight(p)
                    + 0.5 * MethodRegime::Par.discovery_weight(p)
            }
        }
    }

    /// Publications produced per researcher-round: qualitative engagement
    /// is slower than running a measurement pipeline (§6.2.1's scale
    /// tension, taken seriously rather than assumed away).
    pub fn throughput(&self) -> f64 {
        match self {
            MethodRegime::DataDriven => 1.0,
            MethodRegime::Par => 0.55,
            MethodRegime::Ethnographic => 0.45,
            MethodRegime::Mixed => 0.75,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::StakeholderClass;

    fn problem(visibility: f64, impact: f64, funding: f64, pubs: u32) -> Problem {
        Problem {
            id: 0,
            stakeholder: StakeholderClass::Hyperscaler,
            visibility,
            impact,
            funding,
            surfaced_round: None,
            publications: pubs,
        }
    }

    #[test]
    fn data_driven_follows_visibility_and_funding() {
        let visible = problem(0.9, 0.3, 0.9, 0);
        let invisible = problem(0.1, 0.9, 0.1, 0);
        let r = MethodRegime::DataDriven;
        assert!(r.discovery_weight(&visible) > 5.0 * r.discovery_weight(&invisible));
    }

    #[test]
    fn data_driven_feedback_amplifies() {
        let fresh = problem(0.5, 0.5, 0.5, 0);
        let hot = problem(0.5, 0.5, 0.5, 10);
        let r = MethodRegime::DataDriven;
        assert!((r.discovery_weight(&hot) / r.discovery_weight(&fresh) - 11.0).abs() < 1e-9);
    }

    #[test]
    fn par_follows_impact() {
        let visible = problem(0.9, 0.3, 0.9, 0);
        let impactful = problem(0.1, 0.9, 0.1, 0);
        let r = MethodRegime::Par;
        assert!(r.discovery_weight(&impactful) > r.discovery_weight(&visible));
    }

    #[test]
    fn ethnography_prefers_the_invisible() {
        let seen = problem(0.9, 0.8, 0.5, 0);
        let unseen = problem(0.1, 0.8, 0.5, 0);
        let r = MethodRegime::Ethnographic;
        assert!(r.discovery_weight(&unseen) > 5.0 * r.discovery_weight(&seen));
    }

    #[test]
    fn par_has_no_publication_feedback() {
        let fresh = problem(0.5, 0.5, 0.5, 0);
        let hot = problem(0.5, 0.5, 0.5, 10);
        let r = MethodRegime::Par;
        assert!((r.discovery_weight(&hot) - r.discovery_weight(&fresh)).abs() < 1e-12);
    }

    #[test]
    fn weights_always_positive() {
        let zero = problem(0.0, 0.0, 0.0, 0);
        for r in MethodRegime::ALL {
            assert!(r.discovery_weight(&zero) > 0.0, "{r:?}");
        }
    }

    #[test]
    fn throughput_ordering() {
        assert!(MethodRegime::DataDriven.throughput() > MethodRegime::Mixed.throughput());
        assert!(MethodRegime::Mixed.throughput() > MethodRegime::Par.throughput());
        assert!(MethodRegime::Par.throughput() > MethodRegime::Ethnographic.throughput());
    }
}
