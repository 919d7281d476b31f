//! AS-level topology with business relationships and IXPs.
//!
//! Two representations live here:
//!
//! * [`AsTopology`] — the mutable builder: pointer-y adjacency lists plus
//!   metadata, convenient for scenario construction and regulation edits.
//!   Region labels are *interned*: every AS and IXP stores a [`RegionId`]
//!   index into one shared region table instead of an owned
//!   [`RegionTag`], so building a 100k-AS topology allocates a handful of
//!   region strings instead of 100k clones.
//! * [`FrozenTopology`] — the immutable compute form produced by
//!   [`AsTopology::freeze`]: providers, customers and peers as CSR
//!   (offset + edge) `u32` arrays, cache-friendly and cheap to share
//!   across worker threads. The routing engine runs on this form.

use crate::{IxpError, Result};
use std::sync::Arc;

/// Identifier of an autonomous system (dense index).
pub type AsId = usize;

/// Identifier of an IXP (dense index).
pub type IxpId = usize;

/// Identifier of an interned region (dense index into
/// [`AsTopology::regions`]).
pub type RegionId = u32;

/// Sentinel for "no IXP" in the frozen peer-session arrays.
pub const NO_IXP: u32 = u32::MAX;

/// Coarse role of an AS in the interconnection ecosystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AsKind {
    /// National incumbent operator (large customer cone, market power).
    Incumbent,
    /// Transit provider.
    Transit,
    /// Access/eyeball ISP.
    Access,
    /// Content/cloud provider.
    Content,
    /// Community network.
    Community,
}

/// Region label for locality accounting. The string names a country or
/// macro-region; `global_south` tags the Global South for the F4 metrics.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RegionTag {
    /// Region name (e.g. "MX", "BR", "DE").
    pub name: String,
    /// Whether this region is in the Global South.
    pub global_south: bool,
}

impl RegionTag {
    /// Convenience constructor.
    pub fn new(name: &str, global_south: bool) -> Self {
        RegionTag {
            name: name.to_owned(),
            global_south,
        }
    }
}

/// Metadata for one AS.
#[derive(Debug, Clone, PartialEq)]
pub struct AsInfo {
    /// Dense id.
    pub id: AsId,
    /// Display name.
    pub name: String,
    /// Role.
    pub kind: AsKind,
    /// Home region, interned; resolve with [`AsTopology::region`].
    pub region: RegionId,
    /// Relative size (users or content weight) for the gravity traffic model.
    pub size: f64,
}

/// Metadata for one IXP.
#[derive(Debug, Clone, PartialEq)]
pub struct IxpInfo {
    /// Dense id.
    pub id: IxpId,
    /// Display name.
    pub name: String,
    /// Region where the exchange is located, interned.
    pub region: RegionId,
    /// Member ASes.
    pub members: Vec<AsId>,
}

/// A bilateral peering link, possibly located at an IXP.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeerLink {
    /// One endpoint.
    pub a: AsId,
    /// Other endpoint.
    pub b: AsId,
    /// IXP where the session is established (None = private peering).
    pub ixp: Option<IxpId>,
}

/// The full topology: ASes, provider relationships, peer links, IXPs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AsTopology {
    ases: Vec<AsInfo>,
    /// `providers[c]` = list of providers of AS `c` (c pays them).
    providers: Vec<Vec<AsId>>,
    /// `customers[p]` = list of customers of AS `p`.
    customers: Vec<Vec<AsId>>,
    peers: Vec<PeerLink>,
    /// Per-AS peer sessions in global insertion order, kept in sync with
    /// `peers` so lookup and dedup are O(degree) instead of O(links).
    peer_adj: Vec<Vec<(AsId, Option<IxpId>)>>,
    ixps: Vec<IxpInfo>,
    /// Interned region table; `AsInfo::region`/`IxpInfo::region` index here.
    regions: Vec<RegionTag>,
}

impl AsTopology {
    /// Create an empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.ases.len()
    }

    /// Number of IXPs.
    pub fn ixp_count(&self) -> usize {
        self.ixps.len()
    }

    /// Intern a region, returning the id of an existing identical entry or
    /// appending a new one. The table is tiny (countries/macro-regions),
    /// so a linear scan beats any hashing setup.
    pub fn intern_region(&mut self, tag: &RegionTag) -> RegionId {
        if let Some(i) = self.regions.iter().position(|r| r == tag) {
            return i as RegionId;
        }
        self.regions.push(tag.clone());
        (self.regions.len() - 1) as RegionId
    }

    /// Resolve an interned region id.
    ///
    /// # Panics
    /// Panics if `id` did not come from this topology's region table.
    pub fn region(&self, id: RegionId) -> &RegionTag {
        &self.regions[id as usize]
    }

    /// The interned region table.
    pub fn regions(&self) -> &[RegionTag] {
        &self.regions
    }

    /// Add an AS; returns its id. The region is interned (cloned at most
    /// once per distinct region, not per AS).
    pub fn add_as(&mut self, name: &str, kind: AsKind, region: &RegionTag, size: f64) -> AsId {
        let region = self.intern_region(region);
        self.push_as(name.to_owned(), kind, region, size)
    }

    /// Add an AS homed in an already-interned region — the allocation-free
    /// fast path for bulk generators.
    pub fn add_as_in(
        &mut self,
        name: String,
        kind: AsKind,
        region: RegionId,
        size: f64,
    ) -> Result<AsId> {
        if region as usize >= self.regions.len() {
            return Err(IxpError::InvalidRegion(region));
        }
        Ok(self.push_as(name, kind, region, size))
    }

    fn push_as(&mut self, name: String, kind: AsKind, region: RegionId, size: f64) -> AsId {
        let id = self.ases.len();
        self.ases.push(AsInfo {
            id,
            name,
            kind,
            region,
            size: size.max(0.0),
        });
        self.providers.push(Vec::new());
        self.customers.push(Vec::new());
        self.peer_adj.push(Vec::new());
        id
    }

    /// AS metadata.
    pub fn as_info(&self, id: AsId) -> Result<&AsInfo> {
        self.ases.get(id).ok_or(IxpError::InvalidAs(id))
    }

    /// All AS infos.
    pub fn ases(&self) -> &[AsInfo] {
        &self.ases
    }

    /// All IXP infos.
    pub fn ixps(&self) -> &[IxpInfo] {
        &self.ixps
    }

    /// All bilateral peer links.
    pub fn peer_links(&self) -> &[PeerLink] {
        &self.peers
    }

    /// Record that `customer` buys transit from `provider`.
    pub fn add_provider(&mut self, customer: AsId, provider: AsId) -> Result<()> {
        self.check(customer)?;
        self.check(provider)?;
        if customer == provider {
            return Err(IxpError::InconsistentRelationship("self-provider"));
        }
        if self.providers[provider].contains(&customer) {
            return Err(IxpError::InconsistentRelationship(
                "A provides for B and B provides for A",
            ));
        }
        if !self.providers[customer].contains(&provider) {
            self.providers[customer].push(provider);
            self.customers[provider].push(customer);
        }
        Ok(())
    }

    /// Record a settlement-free bilateral peering, optionally at an IXP.
    pub fn add_peering(&mut self, a: AsId, b: AsId, ixp: Option<IxpId>) -> Result<()> {
        self.check(a)?;
        self.check(b)?;
        if a == b {
            return Err(IxpError::InconsistentRelationship("self-peering"));
        }
        if let Some(x) = ixp {
            if x >= self.ixps.len() {
                return Err(IxpError::InvalidIxp(x));
            }
        }
        let (lo, hi) = (a.min(b), a.max(b));
        // Dedup against the lower endpoint's adjacency: O(degree), where the
        // old scan of the global link list was O(total links) per insert.
        if !self.peer_adj[lo].iter().any(|&(v, x)| v == hi && x == ixp) {
            self.peers.push(PeerLink { a: lo, b: hi, ixp });
            self.peer_adj[lo].push((hi, ixp));
            self.peer_adj[hi].push((lo, ixp));
        }
        Ok(())
    }

    /// Add an IXP; returns its id. The region is interned.
    pub fn add_ixp(&mut self, name: &str, region: &RegionTag) -> IxpId {
        let region = self.intern_region(region);
        let id = self.ixps.len();
        self.ixps.push(IxpInfo {
            id,
            name: name.to_owned(),
            region,
            members: Vec::new(),
        });
        id
    }

    /// Add an IXP in an already-interned region.
    pub fn add_ixp_in(&mut self, name: String, region: RegionId) -> Result<IxpId> {
        if region as usize >= self.regions.len() {
            return Err(IxpError::InvalidRegion(region));
        }
        let id = self.ixps.len();
        self.ixps.push(IxpInfo {
            id,
            name,
            region,
            members: Vec::new(),
        });
        Ok(id)
    }

    /// Join an AS to an IXP (membership only; call
    /// [`AsTopology::multilateral_peering`] to establish route-server
    /// sessions).
    pub fn join_ixp(&mut self, asn: AsId, ixp: IxpId) -> Result<()> {
        self.check(asn)?;
        let info = self.ixps.get_mut(ixp).ok_or(IxpError::InvalidIxp(ixp))?;
        if !info.members.contains(&asn) {
            info.members.push(asn);
        }
        Ok(())
    }

    /// Establish route-server style multilateral peering: every pair of
    /// members of the IXP peers bilaterally at the exchange. Existing
    /// provider relationships between members are left in place (the peer
    /// route will win by local preference anyway).
    ///
    /// This is quadratic in the member count by definition — fine for the
    /// case-study exchanges; internet-scale generators should cap
    /// per-member sessions instead (see `synthetic_internet`).
    pub fn multilateral_peering(&mut self, ixp: IxpId) -> Result<()> {
        let members = self
            .ixps
            .get(ixp)
            .ok_or(IxpError::InvalidIxp(ixp))?
            .members
            .clone();
        for i in 0..members.len() {
            for j in (i + 1)..members.len() {
                self.add_peering(members[i], members[j], Some(ixp))?;
            }
        }
        Ok(())
    }

    /// Providers of an AS.
    pub fn providers_of(&self, id: AsId) -> &[AsId] {
        &self.providers[id]
    }

    /// Customers of an AS.
    pub fn customers_of(&self, id: AsId) -> &[AsId] {
        &self.customers[id]
    }

    /// Peer sessions of an AS with the IXP (if any) of each, in global
    /// link insertion order.
    pub fn peers_of(&self, id: AsId) -> &[(AsId, Option<IxpId>)] {
        &self.peer_adj[id]
    }

    /// Detect provider cycles (A transitively provides for itself), which
    /// would break valley-free routing. Returns true when the
    /// customer→provider graph is acyclic.
    pub fn is_hierarchy_acyclic(&self) -> bool {
        // Kahn's algorithm over customer -> provider edges.
        let n = self.ases.len();
        let mut indeg = vec![0usize; n];
        for provs in &self.providers {
            for &p in provs {
                indeg[p] += 1;
            }
        }
        let mut queue: Vec<AsId> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0;
        while let Some(u) = queue.pop() {
            seen += 1;
            for &p in &self.providers[u] {
                indeg[p] -= 1;
                if indeg[p] == 0 {
                    queue.push(p);
                }
            }
        }
        seen == n
    }

    /// Compact the adjacency into the immutable CSR compute form. O(V+E).
    pub fn freeze(&self) -> FrozenTopology {
        let n = self.ases.len();
        assert!(n < u32::MAX as usize, "topology too large for u32 indices");
        let build = |adj: &dyn Fn(usize) -> usize| -> Vec<u32> {
            let mut off = Vec::with_capacity(n + 1);
            let mut acc = 0u32;
            off.push(0);
            for u in 0..n {
                acc += adj(u) as u32;
                off.push(acc);
            }
            off
        };
        let prov_off = build(&|u| self.providers[u].len());
        let cust_off = build(&|u| self.customers[u].len());
        let mut prov = Vec::with_capacity(prov_off[n] as usize);
        let mut cust = Vec::with_capacity(cust_off[n] as usize);
        for u in 0..n {
            prov.extend(self.providers[u].iter().map(|&p| p as u32));
            cust.extend(self.customers[u].iter().map(|&c| c as u32));
        }
        // Per-node insertion order is preserved: the routing tie-break
        // keeps the *first* candidate among equal (distance, neighbor)
        // pairs, so reordering sessions here would change which IXP a
        // route reports crossing.
        let peers = PeerSessions::build(n, |u| {
            self.peer_adj[u]
                .iter()
                .map(|&(v, ixp)| (v as u32, ixp.map_or(NO_IXP, |x| x as u32)))
        });
        FrozenTopology {
            n,
            hierarchy: Arc::new(Hierarchy {
                prov_off,
                prov,
                cust_off,
                cust,
            }),
            peers: Arc::new(peers),
        }
    }

    fn check(&self, id: AsId) -> Result<()> {
        if id < self.ases.len() {
            Ok(())
        } else {
            Err(IxpError::InvalidAs(id))
        }
    }
}

/// Immutable CSR (offset + edge array) form of an [`AsTopology`], the
/// input of the routing engine: three adjacency structures over dense
/// `u32` ids, contiguous in memory and free of per-node allocations.
/// The arrays sit behind `Arc`s, so a clone is cheap and shares them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrozenTopology {
    n: usize,
    hierarchy: Arc<Hierarchy>,
    /// Shared with every `RoutingTable` computed on this topology, which
    /// derives its peer hops' IXPs from it.
    peers: Arc<PeerSessions>,
}

/// The provider and customer edges of every AS in CSR form.
#[derive(Debug, PartialEq, Eq)]
struct Hierarchy {
    prov_off: Vec<u32>,
    prov: Vec<u32>,
    cust_off: Vec<u32>,
    cust: Vec<u32>,
}

/// Every AS's peer sessions in CSR form: the sessions of `u` are
/// `nbr[off[u]..off[u + 1]]`, in insertion order, and `ixp` is parallel
/// to `nbr` ([`NO_IXP`] marks private peering).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PeerSessions {
    off: Vec<u32>,
    nbr: Vec<u32>,
    ixp: Vec<u32>,
}

impl PeerSessions {
    /// The CSR of `n` ASes whose sessions `sessions_of(u)` lists as
    /// `(neighbour, ixp)` pairs, kept in the order listed.
    pub(crate) fn build<I>(n: usize, sessions_of: impl Fn(usize) -> I) -> Self
    where
        I: Iterator<Item = (u32, u32)>,
    {
        let mut off = Vec::with_capacity(n + 1);
        let (mut nbr, mut ixp) = (Vec::new(), Vec::new());
        off.push(0);
        for u in 0..n {
            for (v, x) in sessions_of(u) {
                nbr.push(v);
                ixp.push(x);
            }
            off.push(nbr.len() as u32);
        }
        PeerSessions { off, nbr, ixp }
    }

    /// Neighbours and IXPs of `u`'s sessions, as parallel slices.
    #[inline]
    pub(crate) fn of(&self, u: usize) -> (&[u32], &[u32]) {
        let (lo, hi) = (self.off[u] as usize, self.off[u + 1] as usize);
        (&self.nbr[lo..hi], &self.ixp[lo..hi])
    }

    /// The IXP of the *first* of `u`'s sessions that reaches `v` — the
    /// one a peer route from `u` via `v` reports crossing.
    pub(crate) fn first_ixp(&self, u: usize, v: u32) -> u32 {
        let (nbrs, ixps) = self.of(u);
        let first = nbrs
            .iter()
            .position(|&w| w == v)
            .expect("a peer hop's next AS is one of its peers");
        ixps[first]
    }
}

impl FrozenTopology {
    /// Number of ASes.
    pub fn as_count(&self) -> usize {
        self.n
    }

    /// Providers of `u`.
    #[inline]
    pub fn providers_of(&self, u: usize) -> &[u32] {
        let h = &*self.hierarchy;
        &h.prov[h.prov_off[u] as usize..h.prov_off[u + 1] as usize]
    }

    /// Customers of `u`.
    #[inline]
    pub fn customers_of(&self, u: usize) -> &[u32] {
        let h = &*self.hierarchy;
        &h.cust[h.cust_off[u] as usize..h.cust_off[u + 1] as usize]
    }

    /// Peer sessions of `u` as parallel slices: neighbors and the IXP of
    /// each session ([`NO_IXP`] = private), in insertion order.
    #[inline]
    pub fn peer_sessions_of(&self, u: usize) -> (&[u32], &[u32]) {
        self.peers.of(u)
    }

    /// The peer sessions of every AS, shared.
    pub(crate) fn peer_sessions(&self) -> &Arc<PeerSessions> {
        &self.peers
    }

    /// Every AS in an order that lists each provider before its
    /// customers, or `None` when the provider hierarchy has a cycle.
    /// Kahn's algorithm over the frozen provider→customer edges; the
    /// returned vector doubles as its queue.
    pub fn providers_first_order(&self) -> Option<Vec<u32>> {
        let n = self.n;
        let mut pending: Vec<u32> = (0..n).map(|u| self.providers_of(u).len() as u32).collect();
        let mut order: Vec<u32> = (0..n as u32)
            .filter(|&u| pending[u as usize] == 0)
            .collect();
        order.reserve(n - order.len());
        let mut head = 0;
        while let Some(&u) = order.get(head) {
            head += 1;
            for &c in self.customers_of(u as usize) {
                pending[c as usize] -= 1;
                if pending[c as usize] == 0 {
                    order.push(c);
                }
            }
        }
        (order.len() == n).then_some(order)
    }

    /// Whether the provider hierarchy is acyclic; mirrors
    /// [`AsTopology::is_hierarchy_acyclic`].
    pub fn is_hierarchy_acyclic(&self) -> bool {
        self.providers_first_order().is_some()
    }
}

#[cfg(test)]
impl FrozenTopology {
    /// A topology that claims `n` ASes but holds no edges, for checks
    /// that refuse a size before reading any adjacency.
    pub(crate) fn hollow(n: usize) -> Self {
        FrozenTopology {
            n,
            hierarchy: Arc::new(Hierarchy {
                prov_off: Vec::new(),
                prov: Vec::new(),
                cust_off: Vec::new(),
                cust: Vec::new(),
            }),
            peers: Arc::new(PeerSessions::build(0, |_| std::iter::empty())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> RegionTag {
        RegionTag::new("MX", true)
    }

    fn small() -> AsTopology {
        let mut t = AsTopology::new();
        let incumbent = t.add_as("Incumbent", AsKind::Incumbent, &region(), 100.0);
        let isp_a = t.add_as("ISP-A", AsKind::Access, &region(), 10.0);
        let isp_b = t.add_as("ISP-B", AsKind::Access, &region(), 8.0);
        t.add_provider(isp_a, incumbent).unwrap();
        t.add_provider(isp_b, incumbent).unwrap();
        t
    }

    #[test]
    fn add_as_assigns_dense_ids() {
        let t = small();
        assert_eq!(t.as_count(), 3);
        assert_eq!(t.as_info(1).unwrap().name, "ISP-A");
        assert!(t.as_info(9).is_err());
    }

    #[test]
    fn regions_are_interned_once() {
        let t = small();
        assert_eq!(t.regions().len(), 1);
        assert_eq!(t.region(t.as_info(0).unwrap().region), &region());
    }

    #[test]
    fn add_as_in_validates_region() {
        let mut t = small();
        let mx = t.as_info(0).unwrap().region;
        let id = t
            .add_as_in("Fast".to_owned(), AsKind::Access, mx, 1.0)
            .unwrap();
        assert_eq!(t.as_info(id).unwrap().region, mx);
        assert_eq!(
            t.add_as_in("Bad".to_owned(), AsKind::Access, 7, 1.0),
            Err(IxpError::InvalidRegion(7))
        );
        assert!(t.add_ixp_in("IX".to_owned(), mx).is_ok());
        assert!(t.add_ixp_in("IX-bad".to_owned(), 9).is_err());
    }

    #[test]
    fn provider_relationships_recorded_both_ways() {
        let t = small();
        assert_eq!(t.providers_of(1), &[0]);
        assert_eq!(t.customers_of(0), &[1, 2]);
        assert!(t.providers_of(0).is_empty());
    }

    #[test]
    fn self_and_mutual_provider_rejected() {
        let mut t = small();
        assert!(t.add_provider(0, 0).is_err());
        assert!(t.add_provider(0, 1).is_err(), "1 already buys from 0");
    }

    #[test]
    fn duplicate_provider_is_idempotent() {
        let mut t = small();
        t.add_provider(1, 0).unwrap();
        assert_eq!(t.providers_of(1), &[0]);
    }

    #[test]
    fn peering_dedup_and_lookup() {
        let mut t = small();
        t.add_peering(1, 2, None).unwrap();
        t.add_peering(2, 1, None).unwrap();
        assert_eq!(t.peer_links().len(), 1);
        assert_eq!(t.peers_of(1), vec![(2, None)]);
        assert!(t.add_peering(1, 1, None).is_err());
    }

    #[test]
    fn ixp_membership_and_multilateral_peering() {
        let mut t = small();
        let ixp = t.add_ixp("IXP-MX", &region());
        t.join_ixp(1, ixp).unwrap();
        t.join_ixp(2, ixp).unwrap();
        t.join_ixp(1, ixp).unwrap(); // idempotent
        assert_eq!(t.ixps()[0].members, vec![1, 2]);
        t.multilateral_peering(ixp).unwrap();
        assert_eq!(t.peers_of(1), vec![(2, Some(ixp))]);
    }

    #[test]
    fn invalid_ixp_references_rejected() {
        let mut t = small();
        assert!(t.join_ixp(0, 5).is_err());
        assert!(t.add_peering(1, 2, Some(9)).is_err());
        assert!(t.multilateral_peering(3).is_err());
    }

    #[test]
    fn acyclic_hierarchy_detected() {
        let t = small();
        assert!(t.is_hierarchy_acyclic());
        // Build a 3-cycle: 0 -> 1 -> 2 -> 0 (providers).
        let mut c = AsTopology::new();
        let a = c.add_as("a", AsKind::Transit, &region(), 1.0);
        let b = c.add_as("b", AsKind::Transit, &region(), 1.0);
        let d = c.add_as("c", AsKind::Transit, &region(), 1.0);
        c.add_provider(a, b).unwrap();
        c.add_provider(b, d).unwrap();
        c.add_provider(d, a).unwrap();
        assert!(!c.is_hierarchy_acyclic());
        assert!(t.freeze().is_hierarchy_acyclic());
        assert!(!c.freeze().is_hierarchy_acyclic());
    }

    #[test]
    fn negative_size_clamped() {
        let mut t = AsTopology::new();
        let id = t.add_as("x", AsKind::Access, &region(), -5.0);
        assert_eq!(t.as_info(id).unwrap().size, 0.0);
    }

    #[test]
    fn freeze_mirrors_adjacency() {
        let mut t = small();
        let ixp = t.add_ixp("IXP-MX", &region());
        t.join_ixp(1, ixp).unwrap();
        t.join_ixp(2, ixp).unwrap();
        t.multilateral_peering(ixp).unwrap();
        t.add_peering(0, 2, None).unwrap();
        let f = t.freeze();
        assert_eq!(f.as_count(), t.as_count());
        for u in 0..t.as_count() {
            let provs: Vec<u32> = t.providers_of(u).iter().map(|&p| p as u32).collect();
            assert_eq!(f.providers_of(u), &provs[..]);
            let custs: Vec<u32> = t.customers_of(u).iter().map(|&c| c as u32).collect();
            assert_eq!(f.customers_of(u), &custs[..]);
            let (nbrs, ixps) = f.peer_sessions_of(u);
            let want: Vec<(u32, u32)> = t
                .peers_of(u)
                .iter()
                .map(|&(v, x)| (v as u32, x.map_or(NO_IXP, |x| x as u32)))
                .collect();
            let got: Vec<(u32, u32)> = nbrs.iter().copied().zip(ixps.iter().copied()).collect();
            assert_eq!(got, want);
        }
    }

    #[test]
    fn providers_first_order_puts_providers_before_customers() {
        // Provider ids larger than their customers' ids, as after an ASN
        // split: id order is not a valid order here.
        let mut t = AsTopology::new();
        let c = t.add_as("C", AsKind::Access, &region(), 1.0);
        let a = t.add_as("A", AsKind::Access, &region(), 1.0);
        let top = t.add_as("Top", AsKind::Transit, &region(), 1.0);
        t.add_provider(c, a).unwrap();
        t.add_provider(a, top).unwrap();
        t.add_provider(c, top).unwrap();
        let order = t.freeze().providers_first_order().unwrap();
        assert_eq!(order, vec![top as u32, a as u32, c as u32]);
        // Top -> C -> A -> Top closes a three-AS provider cycle.
        let mut cyclic = AsTopology::new();
        for name in ["C", "A", "Top"] {
            cyclic.add_as(name, AsKind::Access, &region(), 1.0);
        }
        cyclic.add_provider(c, a).unwrap();
        cyclic.add_provider(a, top).unwrap();
        cyclic.add_provider(top, c).unwrap();
        assert!(cyclic.freeze().providers_first_order().is_none());
    }
}
