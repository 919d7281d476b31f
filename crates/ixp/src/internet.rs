//! Seeded internet-scale topology generation.
//!
//! The case-study scenarios ([`crate::scenario`]) model tens of ASes; the
//! ROADMAP's internet-scale item asks for ~100k. This module grows a
//! synthetic internet with the structural features the routing engine and
//! the F4-style locality metrics care about:
//!
//! * a small clique of **tier-1 transits** in the North (region `R0`),
//!   settlement-free peered with each other at a giant exchange — Rosa's
//!   "giant Internet nodes" acting as alternatives to Tier 1;
//! * per-region **transit providers** buying from the tier-1s, so every
//!   customer cone drains into the clique and the topology is fully
//!   reachable under valley-free export;
//! * a long tail of **access / content / transit** ASes attached by
//!   region-local preferential attachment (rich transits get richer),
//!   yielding the heavy-tailed customer-cone distribution of the real
//!   AS graph;
//! * one **IXP per region** with probabilistic membership, degree-capped
//!   bilateral peering among members (never a full route-server mesh —
//!   that is quadratic), content ASes present at the giant Northern
//!   exchange, and a trickle of Southern access networks remote-peering
//!   there, reproducing the Brazil/Germany pattern.
//!
//! Everything is driven by one [`humnet_stats::Rng`] stream, so a given
//! `(n, seed)` pair always yields the identical topology, and edge counts
//! stay O(n): at most two provider links and a bounded number of peer
//! sessions per AS.

use crate::topology::{AsId, AsKind, AsTopology, IxpId, RegionTag};
use crate::{IxpError, Result};
use humnet_stats::Rng;

/// Shape parameters for [`synthetic_internet_with`]. Start from
/// [`InternetConfig::default`] (which [`synthetic_internet`] uses) and
/// override fields as needed.
#[derive(Debug, Clone, PartialEq)]
pub struct InternetConfig {
    /// Total number of ASes to generate.
    pub ases: usize,
    /// Number of regions; region 0 is the North hosting the giant IXP,
    /// odd-numbered regions are tagged Global South.
    pub regions: usize,
    /// Tier-1 clique size (all in region 0, fully peer-meshed).
    pub tier1s: usize,
    /// Transit providers seeded per region (each buys from the tier-1s).
    pub transits_per_region: usize,
    /// Peer-session cap per AS when it joins an exchange.
    pub peer_sessions_per_as: usize,
    /// Probability that a tail AS joins its regional IXP.
    pub ixp_join_prob: f64,
    /// Probability that a Southern access AS remote-peers at the giant
    /// Northern exchange instead of (only) locally.
    pub remote_join_prob: f64,
    /// Fraction of tail ASes that are content/cloud providers.
    pub content_fraction: f64,
    /// Fraction of tail ASes that are transit providers (and thus enter
    /// the preferential-attachment pool).
    pub transit_fraction: f64,
    /// Probability that a tail AS multihomes to a second provider.
    pub second_provider_prob: f64,
    /// RNG seed; same `(config, seed)` always yields the same topology.
    pub seed: u64,
}

impl Default for InternetConfig {
    fn default() -> Self {
        InternetConfig {
            ases: 1000,
            regions: 8,
            tier1s: 4,
            transits_per_region: 2,
            peer_sessions_per_as: 4,
            ixp_join_prob: 0.3,
            remote_join_prob: 0.05,
            content_fraction: 0.05,
            transit_fraction: 0.10,
            second_provider_prob: 0.2,
            seed: 0,
        }
    }
}

/// Join `asn` to `ixp` and open bilateral sessions with up to `cap`
/// uniformly-sampled existing members, then enlist it as a member for
/// future joiners. Keeping sessions per joiner bounded keeps total edges
/// linear in `n` where a route-server full mesh would be quadratic.
fn join_and_peer(
    t: &mut AsTopology,
    rng: &mut Rng,
    asn: AsId,
    ixp: IxpId,
    members: &mut Vec<AsId>,
    cap: usize,
) -> Result<()> {
    t.join_ixp(asn, ixp)?;
    let picks = cap.min(members.len());
    if picks > 0 {
        for i in rng.sample_indices(members.len(), picks) {
            t.add_peering(asn, members[i], Some(ixp))?;
        }
    }
    members.push(asn);
    Ok(())
}

/// Generate a synthetic internet with `n` ASes from `seed` using the
/// default shape ([`InternetConfig::default`]).
pub fn synthetic_internet(n: usize, seed: u64) -> Result<AsTopology> {
    synthetic_internet_with(&InternetConfig {
        ases: n,
        seed,
        ..InternetConfig::default()
    })
}

/// Generate a synthetic internet from an explicit configuration. See the
/// [module docs](self) for the construction. The provider hierarchy is
/// acyclic by construction (providers always have smaller ids), and every
/// AS can reach every other AS: customer cones drain into the fully
/// peer-meshed tier-1 clique.
pub fn synthetic_internet_with(cfg: &InternetConfig) -> Result<AsTopology> {
    if cfg.ases == 0 {
        return Err(IxpError::InvalidParameter("ases must be positive"));
    }
    if cfg.regions == 0 {
        return Err(IxpError::InvalidParameter("regions must be positive"));
    }
    for p in [
        cfg.ixp_join_prob,
        cfg.remote_join_prob,
        cfg.content_fraction,
        cfg.transit_fraction,
        cfg.second_provider_prob,
    ] {
        if !(0.0..=1.0).contains(&p) {
            return Err(IxpError::InvalidParameter("probability outside [0, 1]"));
        }
    }
    if cfg.content_fraction + cfg.transit_fraction > 1.0 {
        return Err(IxpError::InvalidParameter(
            "content_fraction + transit_fraction must not exceed 1",
        ));
    }
    let mut rng = Rng::new(cfg.seed);
    let mut t = AsTopology::new();

    // Regions and their exchanges. Region 0 is the North; its exchange is
    // the giant one. Odd regions are tagged Global South.
    let region_ids: Vec<_> = (0..cfg.regions)
        .map(|r| t.intern_region(&RegionTag::new(&format!("R{r}"), r % 2 == 1)))
        .collect();
    let mut ixps = Vec::with_capacity(cfg.regions);
    let mut ixp_members: Vec<Vec<AsId>> = vec![Vec::new(); cfg.regions];
    for (r, &rid) in region_ids.iter().enumerate() {
        ixps.push(t.add_ixp_in(format!("IXP-R{r}"), rid)?);
    }
    let giant = ixps[0];

    // Tier-1 clique: full settlement-free mesh at the giant exchange.
    let tier1s = cfg.tier1s.clamp(1, cfg.ases);
    let mut t1_ids = Vec::with_capacity(tier1s);
    for i in 0..tier1s {
        let size = 50.0 + rng.pareto(10.0, 1.1);
        let id = t.add_as_in(format!("T1-{i}"), AsKind::Transit, region_ids[0], size)?;
        t.join_ixp(id, giant)?;
        for &other in &t1_ids {
            t.add_peering(id, other, Some(giant))?;
        }
        t1_ids.push(id);
    }
    ixp_members[0].extend_from_slice(&t1_ids);

    // Per-region preferential-attachment pools of transit-capable ASes.
    // An AS appears once per customer it gains, so heavily-bought transits
    // attract disproportionately many future customers (Barabási–Albert
    // on the customer tree). Providers always precede their customers, so
    // the hierarchy is acyclic by construction.
    let mut attach: Vec<Vec<AsId>> = vec![Vec::new(); cfg.regions];

    // Regional transits buying from the tier-1 clique.
    'seeding: for k in 0..cfg.transits_per_region {
        for r in 0..cfg.regions {
            if t.as_count() >= cfg.ases {
                break 'seeding;
            }
            let size = 5.0 + rng.pareto(2.0, 1.2);
            let id = t.add_as_in(format!("TR-{r}-{k}"), AsKind::Transit, region_ids[r], size)?;
            let p1 = *rng.choose(&t1_ids);
            t.add_provider(id, p1)?;
            if t1_ids.len() > 1 && rng.chance(0.5) {
                let p2 = *rng.choose(&t1_ids);
                if p2 != p1 {
                    t.add_provider(id, p2)?;
                }
            }
            join_and_peer(
                &mut t,
                &mut rng,
                id,
                ixps[r],
                &mut ixp_members[r],
                cfg.peer_sessions_per_as,
            )?;
            attach[r].push(id);
        }
    }

    // The tail: access, content, and small transit ASes.
    while t.as_count() < cfg.ases {
        let i = t.as_count();
        let r = rng.range(0, cfg.regions);
        let roll = rng.next_f64();
        let kind = if roll < cfg.content_fraction {
            AsKind::Content
        } else if roll < cfg.content_fraction + cfg.transit_fraction {
            AsKind::Transit
        } else {
            AsKind::Access
        };
        let size = match kind {
            AsKind::Content => 5.0 + rng.pareto(3.0, 1.1),
            AsKind::Transit => 2.0 + rng.pareto(1.0, 1.2),
            _ => rng.pareto(1.0, 1.4),
        };
        let id = t.add_as_in(format!("AS{i}"), kind, region_ids[r], size)?;
        // Provider(s) from the regional pool; fall back to the tier-1s
        // when the region has no transit yet (tiny configurations).
        let pool: &[AsId] = if attach[r].is_empty() {
            &t1_ids
        } else {
            &attach[r]
        };
        let p1 = *rng.choose(pool);
        t.add_provider(id, p1)?;
        if rng.chance(cfg.second_provider_prob) {
            let p2 = *rng.choose(pool);
            if p2 != p1 {
                t.add_provider(id, p2)?;
            }
        }
        if kind == AsKind::Transit {
            // New transit enters the pool alongside a repeat entry for its
            // provider (degree-proportional growth).
            attach[r].push(id);
        }
        attach[r].push(p1);
        // Exchange membership. Content is present at the giant Northern
        // exchange; everyone joins locally with probability ixp_join_prob;
        // Southern access networks occasionally remote-peer at the giant.
        match kind {
            AsKind::Content => {
                join_and_peer(
                    &mut t,
                    &mut rng,
                    id,
                    giant,
                    &mut ixp_members[0],
                    cfg.peer_sessions_per_as,
                )?;
                if r != 0 && rng.chance(cfg.ixp_join_prob) {
                    join_and_peer(
                        &mut t,
                        &mut rng,
                        id,
                        ixps[r],
                        &mut ixp_members[r],
                        cfg.peer_sessions_per_as,
                    )?;
                }
            }
            _ => {
                if rng.chance(cfg.ixp_join_prob) {
                    join_and_peer(
                        &mut t,
                        &mut rng,
                        id,
                        ixps[r],
                        &mut ixp_members[r],
                        cfg.peer_sessions_per_as,
                    )?;
                }
                if kind == AsKind::Access && r != 0 && rng.chance(cfg.remote_join_prob) {
                    join_and_peer(
                        &mut t,
                        &mut rng,
                        id,
                        giant,
                        &mut ixp_members[0],
                        cfg.peer_sessions_per_as,
                    )?;
                }
            }
        }
    }
    Ok(t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    #[test]
    fn same_seed_is_identical_different_seed_is_not() {
        let a = synthetic_internet(300, 7).unwrap();
        let b = synthetic_internet(300, 7).unwrap();
        let c = synthetic_internet(300, 8).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_count(), 300);
    }

    #[test]
    fn hierarchy_is_acyclic_and_fully_reachable() {
        let t = synthetic_internet(250, 3).unwrap();
        assert!(t.is_hierarchy_acyclic());
        let rt = RoutingTable::compute(&t).unwrap();
        for src in [0, 17, 101, 249] {
            for dst in [0, 5, 88, 200] {
                assert!(rt.reachable(src, dst), "AS{src} cannot reach AS{dst}");
            }
        }
    }

    #[test]
    fn edge_counts_stay_linear() {
        let t = synthetic_internet(2000, 1).unwrap();
        let ft = t.freeze();
        let mut peer_edges = 0usize;
        let mut prov_edges = 0usize;
        for u in 0..ft.as_count() {
            peer_edges += ft.peer_sessions_of(u).0.len();
            prov_edges += ft.providers_of(u).len();
        }
        // Each AS has at most 2 providers and a bounded number of peer
        // sessions (cap per join, at most two joins, plus incoming picks).
        assert!(prov_edges <= 2 * ft.as_count());
        assert!(peer_edges <= 24 * ft.as_count(), "peer edges {peer_edges}");
    }

    #[test]
    fn regions_and_exchanges_are_region_shaped() {
        let cfg = InternetConfig {
            ases: 400,
            seed: 11,
            ..InternetConfig::default()
        };
        let t = synthetic_internet_with(&cfg).unwrap();
        assert_eq!(t.regions().len(), cfg.regions);
        assert_eq!(t.ixp_count(), cfg.regions);
        assert!(!t.region(0).global_south);
        assert!(t.region(1).global_south);
        // The giant exchange has strictly more members than any other.
        let giant_members = t.ixps()[0].members.len();
        for ixp in &t.ixps()[1..] {
            assert!(giant_members > ixp.members.len());
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        assert!(synthetic_internet(0, 1).is_err());
        let bad = InternetConfig {
            regions: 0,
            ..InternetConfig::default()
        };
        assert!(synthetic_internet_with(&bad).is_err());
        let bad = InternetConfig {
            content_fraction: 0.9,
            transit_fraction: 0.5,
            ..InternetConfig::default()
        };
        assert!(synthetic_internet_with(&bad).is_err());
    }
}
