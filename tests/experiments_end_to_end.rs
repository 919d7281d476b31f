//! End-to-end integration tests: every experiment in the suite runs and
//! reproduces the qualitative shape the paper commits to. These are the
//! assertions behind `EXPERIMENTS.md`.

use humnet::agenda::MethodRegime;
use humnet::core::experiments as exp;
use humnet::resilience::NoFaults;
use humnet::telemetry::Telemetry;

#[test]
fn f1_attention_is_concentrated_under_data_driven_regime() {
    let r = exp::f1_attention(42, &mut NoFaults, &Telemetry::disabled()).unwrap();
    // Paper §1: attention concentrates on dominant players' problems.
    assert!(r.gini > 0.6, "gini = {}", r.gini);
    // Lorenz curve is below the diagonal everywhere.
    for &(x, y) in &r.lorenz.points {
        assert!(y <= x + 1e-9);
    }
    // The hyperscaler row out-publishes the community row.
    let pubs = |label: &str| -> u64 {
        r.by_class.rows.iter().find(|row| row[0] == label).unwrap()[1]
            .parse()
            .unwrap()
    };
    assert!(pubs("hyperscaler") > 3 * pubs("community-operator"));
}

#[test]
fn t1_par_widens_coverage_at_a_publication_cost() {
    let (rows, _) = exp::t1_regimes(&[1, 2, 3], &mut NoFaults, &Telemetry::disabled()).unwrap();
    let get = |r: MethodRegime| rows.iter().find(|x| x.regime == r).unwrap();
    let dd = get(MethodRegime::DataDriven);
    let par = get(MethodRegime::Par);
    let eth = get(MethodRegime::Ethnographic);
    let mixed = get(MethodRegime::Mixed);
    // Paper §2: community-driven inquiry surfaces what data-driven misses.
    assert!(par.marginalized_coverage > dd.marginalized_coverage + 0.1);
    assert!(eth.marginalized_coverage > dd.marginalized_coverage);
    // §6.2.1's cost is real: fewer publications under PAR.
    assert!(dd.publications > par.publications);
    // Mixed interpolates.
    assert!(mixed.marginalized_coverage > dd.marginalized_coverage);
    assert!(mixed.marginalized_coverage < par.marginalized_coverage + 0.05);
    // Attention is flatter under PAR.
    assert!(dd.gini > par.gini);
}

#[test]
fn f2_positionality_gap_between_cultures() {
    let (table, series) = exp::f2_positionality(7, &Telemetry::disabled()).unwrap();
    let rate = |label: &str| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[2]
            .parse()
            .unwrap()
    };
    // Paper §4/§6.4: rare at networking venues, normal in HCI and social
    // science.
    assert!(rate("systems-networking") < 0.05);
    assert!(rate("measurement") < 0.05);
    assert!(rate("hci-cscw") > 0.12);
    assert!(rate("social-science") > rate("hci-cscw"));
    // Detector agrees with the tags.
    for row in &table.rows {
        let tagged: f64 = row[2].parse().unwrap();
        let detected: f64 = row[3].parse().unwrap();
        assert!((tagged - detected).abs() < 0.02, "row {row:?}");
    }
    assert_eq!(series.len(), 2);
}

#[test]
fn t2_reliability_climbs_with_codebook_refinement() {
    let table = exp::t2_irr(5, 6, &mut NoFaults, &Telemetry::disabled()).unwrap();
    let alpha = |row: usize| -> f64 { table.rows[row][3].parse().unwrap() };
    assert!(alpha(6) > alpha(0) + 0.15);
    // Mostly monotone (allow one seed-noise dip).
    let dips = (0..6).filter(|&i| alpha(i + 1) < alpha(i) - 0.02).count();
    assert!(dips <= 1, "too many dips in alpha trajectory");
}

#[test]
fn f3_regulation_defeated_by_asn_splitting() {
    let (comply, split, _) = exp::f3_telmex(5, &mut NoFaults, &Telemetry::disabled()).unwrap();
    // Full compliance localizes competitor traffic at any enforcement.
    for &(_, share) in &comply.points {
        assert!(share > 0.95, "comply share = {share}");
    }
    // Circumvention at zero enforcement keeps the share near the
    // competitors-only baseline...
    assert!(split.points[0].1 < 0.5);
    // ...and enforcement monotonically claws it back.
    for w in split.points.windows(2) {
        assert!(w[1].1 >= w[0].1 - 1e-9);
    }
    assert!(split.points.last().unwrap().1 > 0.9);
}

#[test]
fn f4_content_presence_pulls_exchange_home() {
    let (foreign, local) = exp::f4_gravity(6, &mut NoFaults, &Telemetry::disabled()).unwrap();
    // With no local content, over half of South traffic is exchanged
    // abroad; with full presence it drops to (near) zero.
    assert!(
        foreign.points[0].1 > 0.5,
        "foreign share = {}",
        foreign.points[0].1
    );
    assert!(foreign.points.last().unwrap().1 < 0.1);
    // Local exchange share mirrors it.
    assert!(local.points.last().unwrap().1 > local.points[0].1 + 0.3);
}

#[test]
fn t3_stewardship_beats_hero_volunteers() {
    let table =
        exp::t3_sustainability(&[1, 2, 3, 4, 5], &mut NoFaults, &Telemetry::disabled()).unwrap();
    let uptime = |label: &str| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[1]
            .parse()
            .unwrap()
    };
    let attrition = |label: &str| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[3]
            .parse()
            .unwrap()
    };
    assert!(uptime("distributed-stewardship") > uptime("few-core"));
    assert!(attrition("few-core") > 0.5);
    assert!(attrition("paid-staff") == 0.0);
    let cost = |label: &str| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[4]
            .parse()
            .unwrap()
    };
    assert_eq!(cost("distributed-stewardship"), 0.0);
    assert!(cost("paid-staff") > 0.0);
}

#[test]
fn f5_community_tokens_get_both_fairness_and_utilization() {
    let table = exp::f5_congestion(1, &mut NoFaults, &Telemetry::disabled()).unwrap();
    let get = |label: &str, col: usize| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[col]
            .parse()
            .unwrap()
    };
    // fairness col 1, utilization col 2, starvation col 3.
    assert!(get("community-tokens", 1) > get("free-for-all", 1));
    assert!(get("community-tokens", 2) > get("static-cap", 2));
    assert!(get("community-tokens", 3) < get("free-for-all", 3));
    assert!(get("free-for-all", 2) >= get("community-tokens", 2) - 1e-9);
}

#[test]
fn t4_ladder_orders_archetypes() {
    let table = exp::t4_ladder().unwrap();
    let scores: Vec<f64> = table.rows.iter().map(|r| r[1].parse().unwrap()).collect();
    assert!(scores.windows(2).all(|w| w[1] > w[0]));
    let compliant: Vec<bool> = table.rows.iter().map(|r| r[2] == "true").collect();
    assert_eq!(compliant, vec![false, false, true, true, true, true]);
}

#[test]
fn f6_patchwork_with_memos_matches_traditional() {
    let table = exp::f6_patchwork().unwrap();
    let insights = |label: &str| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[3]
            .parse()
            .unwrap()
    };
    let trad = insights("traditional");
    let patch_memo = insights("patchwork x6 + memos");
    let patch_plain = insights("patchwork x6");
    // §3's claim [17, 36]: fragmented time with reflexive practice keeps
    // depth...
    assert!(patch_memo > trad * 0.9);
    // ...but fragmentation without the discipline loses it.
    assert!(trad > patch_plain * 1.1);
}

#[test]
fn t5_cfp_broadening_admits_human_work_at_modest_systems_cost() {
    let (human, systems, _) = exp::t5_gatekeeping(6).unwrap();
    let h0 = human.points[0].1;
    let h_last = human.points.last().unwrap().1;
    let s0 = systems.points[0].1;
    let s_last = systems.points.last().unwrap().1;
    assert!(h0 < 0.05, "traditional CFP shuts human work out: {h0}");
    assert!(h_last > 0.4);
    // At a *moderate* weight (w = 0.3, index 3 of the 0..0.5 sweep) the
    // venue has not flipped: systems work still gets accepted. At w = 0.5
    // human submissions outscore systems outright, which is the mirror
    // image of the original gatekeeping — the model shows both regimes.
    let s_mid = systems.points[3].1;
    assert!(
        s_mid > 0.05,
        "moderate broadening keeps systems work in: {s_mid}"
    );
    assert!(s0 > s_last, "slots are conserved");
}

#[test]
fn f8_locality_vs_connectivity_maximization() {
    let (top, local, _) = exp::f8_growth(4, &Telemetry::disabled()).unwrap();
    // With no regional pull, the giant Northern exchange wins big.
    assert!(top.points[0].1 > 0.6, "top share = {}", top.points[0].1);
    // Strong regional affinity keeps South arrivals local.
    assert!(local.points.last().unwrap().1 > local.points[0].1 + 0.3);
    assert!(top.points.last().unwrap().1 < top.points[0].1);
}

#[test]
fn f10_internet_scale_concentration() {
    let table = exp::f10_scale(7, &Telemetry::disabled()).unwrap();
    let get =
        |label: &str| -> String { table.rows.iter().find(|r| r[0] == label).unwrap()[1].clone() };
    // The synthetic internet is fully reachable: every sampled demand routes.
    assert_eq!(get("flows served"), get("sampled demands"));
    assert_eq!(get("flows unserved"), "0");
    // Paper §3's concentration shape at scale: a meaningful share of volume
    // crosses peering links, and the single seeded giant IXP carries a
    // disproportionate share of it.
    let peer_share: f64 = get("peer-hop volume share").parse().unwrap();
    let giant_share: f64 = get("giant-IXP volume share").parse().unwrap();
    assert!(peer_share > 0.2, "peer share = {peer_share}");
    assert!(giant_share > 0.2, "giant share = {giant_share}");
    // Internet-plausible path lengths on a 2k-AS topology.
    let hops: f64 = get("mean AS-path hops").parse().unwrap();
    assert!((1.0..10.0).contains(&hops), "mean hops = {hops}");
}

#[test]
fn f9_cfp_intervention_reverses_methodology_collapse() {
    let (series, table) = exp::f9_adoption().unwrap();
    assert_eq!(table.rows.len(), 30);
    let start = series.points[0].1;
    let trough = series.points[15].1;
    let end = series.points.last().unwrap().1;
    assert!(
        trough < start,
        "human share declines under the traditional CFP"
    );
    assert!(end > trough + 0.1, "and recovers after the intervention");
}

#[test]
fn t6_probes_counteract_compliance_decay() {
    let table = exp::t6_diary(5, &Telemetry::disabled()).unwrap();
    let get = |label: &str, col: usize| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[col]
            .parse()
            .unwrap()
    };
    // Final-week compliance (col 2) is the retention signal.
    assert!(get("diary + probes", 2) > get("plain diary", 2) + 0.1);
    // Prompted share is zero without probes.
    assert_eq!(get("plain diary", 3), 0.0);
    assert!(get("diary + probes", 3) > 0.1);
}

#[test]
fn t7_dues_policy_trade_offs() {
    let table = exp::t7_economics(&[1, 2, 3, 4, 5]).unwrap();
    let get = |label: &str, col: usize| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[col]
            .parse()
            .unwrap()
    };
    // Income scaling retains at least as many members as flat dues (col 3),
    // and donations are the least solvent (col 1).
    assert!(get("income-scaled", 3) >= get("flat", 3));
    assert!(get("donation", 1) >= get("income-scaled", 1));
}

#[test]
fn f7_gap_holds_on_every_recommendation() {
    let table = exp::f7_audit(3, &Telemetry::disabled()).unwrap();
    let get = |label: &str, col: usize| -> f64 {
        table.rows.iter().find(|r| r[0] == label).unwrap()[col]
            .parse()
            .unwrap()
    };
    for col in 1..=3 {
        assert!(
            get("ictd", col) > get("systems-networking", col),
            "column {col}"
        );
    }
}

// The numbers EXPERIMENTS.md quotes as "Measured" must be what the binary
// renders today, so the document cannot drift from the code.

const EXPERIMENTS_MD: &str = include_str!("../EXPERIMENTS.md");

/// EXPERIMENTS.md's section for `code`, from its heading to the next one.
fn doc_section(code: &str) -> &'static str {
    let heading = format!("\n## {code} — ");
    let start = EXPERIMENTS_MD
        .find(&heading)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no {code} section"))
        + heading.len();
    let rest = &EXPERIMENTS_MD[start..];
    &rest[..rest.find("\n## ").unwrap_or(rest.len())]
}

/// What the `experiments` binary prints for `code` at its canonical
/// parameters.
fn rendered(code: &str) -> String {
    let id = exp::ExperimentId::parse(code).unwrap();
    id.run_hooked(&mut NoFaults, &Telemetry::disabled())
        .unwrap()
        .rendered
}

/// One markdown cell with bold markers and thousands separators removed.
fn cell(raw: &str) -> String {
    raw.trim().replace("**", "").replace(',', "")
}

/// The first markdown table in `text` whose header starts with `first`,
/// as column `name` mapped from each row's label to its cell.
fn column(text: &str, first: &str, name: &str) -> Vec<(String, String)> {
    let cells = |line: &str| -> Vec<String> {
        line.trim().trim_matches('|').split('|').map(cell).collect()
    };
    let mut lines = text
        .lines()
        .skip_while(|l| !l.starts_with('|') || cells(l).first().map(String::as_str) != Some(first));
    let header = cells(lines.next().unwrap_or_else(|| panic!("no `{first}` table")));
    let col = header
        .iter()
        .position(|h| h == name)
        .unwrap_or_else(|| panic!("no `{name}` column in {header:?}"));
    let mut rows: Vec<(String, String)> = lines
        .skip(1)
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            let row = cells(l);
            (row[0].clone(), row[col].clone())
        })
        .collect();
    rows.sort();
    rows
}

/// The number after `label` in `text`, compared case-insensitively.
fn number_after(text: &str, label: &str) -> String {
    let text = text.replace("**", "").to_lowercase();
    let at = text.find(label).unwrap_or_else(|| panic!("no `{label}`")) + label.len();
    text[at..]
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()
        .unwrap()
        .trim_end_matches('.')
        .to_string()
}

#[test]
fn f1_committed_numbers_match_the_binary() {
    let (doc, out) = (doc_section("F1"), rendered("f1"));
    assert_eq!(
        column(doc, "class", "publications"),
        column(&out, "class", "publications")
    );
    assert_eq!(
        number_after(doc, "attention gini = "),
        number_after(&out, "attention gini = ")
    );
}

#[test]
fn t1_committed_numbers_match_the_binary() {
    let (doc, out) = (doc_section("T1"), rendered("t1"));
    for name in ["marginalized coverage", "attention gini", "publications"] {
        assert_eq!(
            column(doc, "regime", name),
            column(&out, "regime", name),
            "{name}"
        );
    }
}

#[test]
fn f2_committed_numbers_match_the_binary() {
    let (doc, out) = (doc_section("F2"), rendered("f2"));
    let quoted = column(doc, "venue kind", "positionality rate");
    assert_eq!(quoted, column(&out, "venue kind", "tagged rate"));
    // "The detector agrees with the structured tags exactly."
    assert_eq!(quoted, column(&out, "venue kind", "detected rate"));
}

#[test]
fn f7_committed_numbers_match_the_binary() {
    let (doc, out) = (doc_section("F7"), rendered("f7"));
    // The prose quotes percentages, in order: systems-networking's three
    // recommendation rates, ICTD's three, then full adoption.
    let quoted: Vec<String> = doc
        .split_whitespace()
        .map(|w| w.trim_end_matches([',', '.', ';', ':']))
        .filter_map(|w| w.strip_suffix('%'))
        .map(str::to_string)
        .collect();
    let rate = |row: &str, name: &str| -> String {
        let col = column(&out, "venue kind", name);
        let value = &col.iter().find(|(label, _)| label == row).unwrap().1;
        format!("{:.1}", value.parse::<f64>().unwrap() * 100.0)
    };
    let recommendations = [
        "partnerships (§5.1)",
        "conversations (§5.2)",
        "positionality (§5.3)",
    ];
    let mut measured: Vec<String> = ["systems-networking", "ictd"]
        .iter()
        .flat_map(|row| recommendations.iter().map(move |name| rate(row, name)))
        .collect();
    measured.push(rate("full §5 adoption", recommendations[0]));
    assert_eq!(quoted, measured);
}
