//! Valley-free (Gao–Rexford) policy routing.
//!
//! The standard model of interdomain routing economics:
//!
//! * **Selection.** An AS prefers routes learned from customers over routes
//!   learned from peers over routes learned from providers — revenue beats
//!   settlement-free beats cost — and breaks ties by AS-path length, then
//!   by lowest next-hop id (determinism).
//! * **Export.** Routes learned from customers are announced to everyone;
//!   routes learned from peers or providers are announced only to
//!   customers.
//!
//! Together these yield *valley-free* paths: zero or more customer→provider
//! ("up") hops, at most one peer hop, then zero or more provider→customer
//! ("down") hops. Each destination's routes come from three phases, each
//! linear in the edges it touches:
//!
//! 1. **Customer routes** climb provider edges from the destination by
//!    BFS; the ASes it reaches are the destination's provider cone.
//! 2. **Peer routes** are one peer hop off that cone: each cone AS offers
//!    `(dist + 1, itself)` across its peer sessions, and every AS keeps
//!    the least offer. The session reported as the hop's IXP is the
//!    *first* one in the AS's own session list that reaches the winner.
//! 3. **Provider routes** descend customer edges in one pass over a
//!    providers-first topological order of the (acyclic) hierarchy. An AS
//!    with neither of the above takes the provider `p` with the least
//!    `(selected length of p, p)`; the pass also writes every AS's output
//!    cell.
//!
//! ## Representation
//!
//! The engine runs on [`FrozenTopology`] CSR adjacency and stores its
//! result as structure-of-arrays: per computed destination, one `u8`
//! *class* row (none/customer/peer/provider) and one `u32` *next-hop* row,
//! each `n` wide, packed contiguously with `u32::MAX` as the "none"
//! sentinel. That is 5 bytes per (AS, destination) pair instead of the
//! seven pointer-carrying `Vec`s per destination the original
//! implementation kept (retained verbatim in `reference`, behind the
//! `reference` feature, for differential testing). The IXP a peer hop
//! crosses is not stored: it is the first of the AS's own sessions that
//! reaches the hop's next AS, so the table shares the topology's peer
//! sessions and derives it on read. Paths are reconstructed on request by
//! walking next-hop rows, never stored.
//!
//! ## Parallelism and determinism
//!
//! Per-destination propagation is embarrassingly parallel.
//! [`RoutingTable::compute_frozen`] allocates the two tables once and
//! hands the sorted destination list to the runner's pooled fan-out
//! ([`fan_out`]): the calling thread and up to `workers − 1` warm pooled
//! threads claim one destination at a time, route it into their own
//! one-row buffers, and copy the finished rows into the destination's
//! row of the tables under a lock. Each row depends only on its
//! destination and lands at its index in the sorted list, so the table is
//! byte-identical whatever the worker count or claim order.

use crate::topology::{AsId, AsTopology, FrozenTopology, IxpId, PeerSessions, NO_IXP};
use crate::{IxpError, Result};
use humnet_resilience::fan_out;
use std::ops::ControlFlow;
use std::sync::{Arc, Mutex};

const INF: u32 = u32::MAX;
/// Sentinel for "no next hop" in the packed next-hop rows.
const NO_NEXT: u32 = u32::MAX;
/// Sentinel slot for "destination not computed".
const NO_SLOT: u32 = u32::MAX;

/// Route class codes of the packed `class` rows.
const CLASS_NONE: u8 = 0;
const CLASS_CUST: u8 = 1;
const CLASS_PEER: u8 = 2;
const CLASS_PROV: u8 = 3;

/// How the first hop of a route was learned — equivalently, the economic
/// class of the selected route at the source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteKind {
    /// Destination is the source itself.
    SelfRoute,
    /// Route learned from a customer (revenue route).
    Customer,
    /// Route learned from a settlement-free peer.
    Peer,
    /// Route learned from a provider (paid transit).
    Provider,
}

/// A resolved route from one AS to another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Economic class of the route at the source.
    pub kind: RouteKind,
    /// Full AS path, source first, destination last.
    pub path: Vec<AsId>,
    /// IXP at which the path's peer hop occurs, if the path has a peer hop
    /// established at an exchange.
    pub crossed_ixp: Option<IxpId>,
    /// Whether the path includes a settlement-free peer hop at all.
    pub has_peer_hop: bool,
}

impl Route {
    /// Number of AS-level hops.
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Number of *paid* hops: every hop except a settlement-free peer hop
    /// crosses a customer/provider link that someone pays for.
    pub fn transit_hops(&self) -> usize {
        self.hops() - usize::from(self.has_peer_hop)
    }
}

/// Reusable per-worker state of the three propagation phases, reset
/// between destinations instead of reallocated, and the one-row buffers
/// the last phase writes. Next-hop entries are only meaningful where the
/// matching distance is finite.
struct Scratch {
    dist_cust: Vec<u32>,
    next_cust: Vec<u32>,
    dist_peer: Vec<u32>,
    next_peer: Vec<u32>,
    /// Length of each AS's selected route, set by phase 3's pass.
    selected_len: Vec<u32>,
    /// Phase 1's BFS queue; afterwards, the provider cone in BFS order.
    cone: Vec<u32>,
    /// The destination's finished `class` and `next` rows.
    class: Vec<u8>,
    next: Vec<u32>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            dist_cust: vec![INF; n],
            next_cust: vec![NO_NEXT; n],
            dist_peer: vec![INF; n],
            next_peer: vec![NO_NEXT; n],
            selected_len: vec![INF; n],
            cone: Vec::new(),
            class: vec![CLASS_NONE; n],
            next: vec![NO_NEXT; n],
        }
    }
}

/// One destination's propagation, written into `s.class` and `s.next`.
/// `order` lists every AS providers-first.
fn route_rows(ft: &FrozenTopology, order: &[u32], dst: usize, s: &mut Scratch) {
    s.dist_cust.fill(INF);
    s.dist_peer.fill(INF);
    // Phase 1: customer routes propagate upward (customer -> provider)
    // by BFS on uniform weights.
    s.dist_cust[dst] = 0;
    s.cone.clear();
    s.cone.push(dst as u32);
    let mut head = 0;
    while let Some(&u) = s.cone.get(head) {
        head += 1;
        let du = s.dist_cust[u as usize];
        for &p in ft.providers_of(u as usize) {
            if s.dist_cust[p as usize] == INF {
                s.dist_cust[p as usize] = du + 1;
                s.next_cust[p as usize] = u;
                s.cone.push(p);
            }
        }
    }
    // Phase 2: peer routes — one peer hop extending a customer route (or
    // the destination itself). Sessions are symmetric, so pushing each
    // cone AS's offer to its peers finds every AS's least (length,
    // neighbour) offer.
    for &v in &s.cone {
        let cand = s.dist_cust[v as usize] + 1;
        for &u in ft.peer_sessions_of(v as usize).0 {
            let u = u as usize;
            if cand < s.dist_peer[u] || (cand == s.dist_peer[u] && v < s.next_peer[u]) {
                s.dist_peer[u] = cand;
                s.next_peer[u] = v;
            }
        }
    }
    // Phase 3: provider routes propagate downward; a provider exports the
    // length of its selected route. Visiting providers first makes every
    // provider's selected length final before its customers read it. The
    // same pass derives the packed rows.
    for &u in order {
        let u = u as usize;
        let (class, next, len) = if s.dist_cust[u] != INF {
            let next = if u == dst { NO_NEXT } else { s.next_cust[u] };
            (CLASS_CUST, next, s.dist_cust[u])
        } else if s.dist_peer[u] != INF {
            (CLASS_PEER, s.next_peer[u], s.dist_peer[u])
        } else {
            let mut best_len = INF;
            let mut best_p = NO_NEXT;
            for &p in ft.providers_of(u) {
                let len = s.selected_len[p as usize];
                if len < best_len || (len == best_len && p < best_p) {
                    best_len = len;
                    best_p = p;
                }
            }
            if best_len == INF {
                (CLASS_NONE, NO_NEXT, INF)
            } else {
                (CLASS_PROV, best_p, best_len + 1)
            }
        };
        s.selected_len[u] = len;
        s.class[u] = class;
        s.next[u] = next;
    }
}

/// The `class` and `next` tables of `dests`: row `k` of each holds the
/// `n`-wide rows `route(dests[k], scratch)` leaves in its scratch. Up to
/// `workers` threads of the pooled fan-out claim one destination at a
/// time, each routing into its own [`Scratch`], and copy each finished
/// row into the shared tables under their lock, never holding it while
/// routing.
fn fill_table<R>(n: usize, dests: &[AsId], workers: usize, route: R) -> (Vec<u8>, Vec<u32>)
where
    R: Fn(AsId, &mut Scratch) + Send + Sync + 'static,
{
    let rows = dests.len();
    // Every row is overwritten whole, so zeroed memory will do.
    let table = Arc::new(Mutex::new((vec![0u8; rows * n], vec![0u32; rows * n])));
    // `fan_out` numbers its workers from 0 to one less than this.
    let scratch: Arc<[Mutex<Scratch>]> = (0..workers.max(1).min(rows))
        .map(|_| Mutex::new(Scratch::new(n)))
        .collect();
    let filled = Arc::clone(&table);
    fan_out(dests.to_vec(), workers, move |row, dst, worker| {
        let mut s = scratch[worker].lock().expect("one worker per scratch");
        route(dst, &mut s);
        let (class, next) = &mut *filled.lock().expect("a row copy never panics");
        class[row * n..][..n].copy_from_slice(&s.class);
        next[row * n..][..n].copy_from_slice(&s.next);
        ControlFlow::Continue(())
    });
    let mut table = table.lock().expect("a row copy never panics");
    std::mem::take(&mut *table)
}

/// Policy routes for a topology, covering all destinations
/// ([`RoutingTable::compute`]) or an explicit sample
/// ([`RoutingTable::compute_for_destinations`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoutingTable {
    n: usize,
    /// Computed destinations, sorted ascending; row order of the tables.
    dests: Vec<AsId>,
    /// `dest_slot[dst]` = row index of `dst`, or `u32::MAX` if uncomputed.
    dest_slot: Vec<u32>,
    class: Vec<u8>,
    next: Vec<u32>,
    /// The topology's peer sessions, from which a peer cell's IXP is
    /// derived ([`PeerSessions::first_ixp`]).
    peers: Arc<PeerSessions>,
}

impl RoutingTable {
    /// Compute routes for every destination, serially. Errors if the
    /// provider hierarchy contains a cycle (valley-free routing is
    /// undefined then).
    pub fn compute(topology: &AsTopology) -> Result<Self> {
        let dests: Vec<AsId> = (0..topology.as_count()).collect();
        Self::compute_frozen(&topology.freeze(), &dests, 1)
    }

    /// Compute routes *toward the given destinations only* — the
    /// demand-driven path for sampled traffic at internet scale, where
    /// all-pairs materialization is pointless. Destinations may be
    /// unsorted and contain duplicates; rows are stored in sorted order.
    pub fn compute_for_destinations(topology: &AsTopology, dests: &[AsId]) -> Result<Self> {
        Self::compute_frozen(&topology.freeze(), dests, 1)
    }

    /// The general entry point: compute routes toward `dests` on an
    /// already-frozen topology, on the calling thread and up to
    /// `workers − 1` pooled threads (see the [module docs](self)). Rows
    /// follow the sorted, deduplicated destination list, so the table is
    /// byte-identical for every `workers` value. Freezing once and
    /// calling this repeatedly amortizes the CSR build across samples.
    pub fn compute_frozen(ft: &FrozenTopology, dests: &[AsId], workers: usize) -> Result<Self> {
        let n = ft.as_count();
        // Phase 3's order; valley-free routing is undefined on a cycle.
        let order = ft
            .providers_first_order()
            .ok_or(IxpError::InconsistentRelationship(
                "provider hierarchy contains a cycle",
            ))?;
        let mut dests = dests.to_vec();
        dests.sort_unstable();
        dests.dedup();
        if let Some(&bad) = dests.iter().find(|&&d| d >= n) {
            return Err(IxpError::InvalidAs(bad));
        }
        let peers = Arc::clone(ft.peer_sessions());
        let ft = ft.clone();
        let (class, next) = fill_table(n, &dests, workers, move |dst, s| {
            route_rows(&ft, &order, dst, s);
        });
        let mut dest_slot = vec![NO_SLOT; n];
        for (row, &d) in dests.iter().enumerate() {
            dest_slot[d] = row as u32;
        }
        Ok(RoutingTable {
            n,
            dests,
            dest_slot,
            class,
            next,
            peers,
        })
    }

    /// Resolve a single route without materializing a table: one
    /// destination propagation on the frozen topology, path reconstructed
    /// and discarded. Use this for ad-hoc queries; for many sources
    /// sharing destinations, batch with
    /// [`RoutingTable::compute_for_destinations`] instead.
    pub fn route_on_demand(ft: &FrozenTopology, src: AsId, dst: AsId) -> Result<Route> {
        let n = ft.as_count();
        if src >= n {
            return Err(IxpError::InvalidAs(src));
        }
        if dst >= n {
            return Err(IxpError::InvalidAs(dst));
        }
        Self::compute_frozen(ft, &[dst], 1)?.route(src, dst)
    }

    /// Number of ASes covered.
    pub fn as_count(&self) -> usize {
        self.n
    }

    /// The computed destinations, sorted ascending.
    pub fn destinations(&self) -> &[AsId] {
        &self.dests
    }

    /// Whether routes toward `dst` were computed.
    pub fn covers(&self, dst: AsId) -> bool {
        dst < self.n && self.dest_slot[dst] != NO_SLOT
    }

    /// FNV-1a digest over the packed route arrays — a cheap fingerprint
    /// for byte-identity assertions across worker counts.
    ///
    /// The value is the byte-serial FNV-1a of `dests` (8 little-endian
    /// bytes each), then `class`, then `next` and the dense peer-IXP
    /// column (4 each): per cell, the IXP its peer hop crosses, or
    /// [`NO_IXP`] for private peering and every cell that is not a peer
    /// route. Runs of known bytes are folded rather than hashed one by one
    /// ([`Fnv1a`]): the zero bytes above a value's highest nonzero byte
    /// cost one multiply, a run of `u32::MAX` entries one table step per
    /// set bit of its byte count, and an 8-byte `class` word of one route
    /// class one table step. The class pass notes the peer cells, so the
    /// IXP column costs one derivation per peer cell and one fold per run
    /// of `NO_IXP` between them.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::new();
        for &d in &self.dests {
            h.word(d as u64, 8);
        }
        let mut peer_cells = Vec::new();
        let mut words = self.class.chunks_exact(8);
        for (k, w) in (0..).step_by(8).zip(&mut words) {
            if w.iter().all(|&c| c == w[0]) {
                h.repeat(w[0], 8);
                if w[0] == CLASS_PEER {
                    peer_cells.extend(k..k + 8);
                }
            } else {
                for (k, &c) in (k..).zip(w) {
                    h.byte(c);
                    if c == CLASS_PEER {
                        peer_cells.push(k);
                    }
                }
            }
        }
        let tail = self.class.len() - words.remainder().len();
        for (k, &c) in (tail..).zip(words.remainder()) {
            h.byte(c);
            if c == CLASS_PEER {
                peer_cells.push(k);
            }
        }
        for &x in &self.next {
            h.word(u64::from(x), 4);
        }
        // `unhashed` counts the NO_IXP entries since the last one hashed.
        let (mut unhashed, mut from) = (0, 0);
        for k in peer_cells {
            unhashed += k - from;
            from = k + 1;
            let ixp = self.peers.first_ixp(k % self.n, self.next[k]);
            if ixp == NO_IXP {
                unhashed += 1;
            } else {
                h.repeat(0xff, 4 * unhashed);
                h.word(u64::from(ixp), 4);
                unhashed = 0;
            }
        }
        h.repeat(0xff, 4 * (unhashed + self.class.len() - from));
        h.finish()
    }

    /// The selected route from `src` to `dst`, or an error when none exists
    /// under valley-free export rules.
    pub fn route(&self, src: AsId, dst: AsId) -> Result<Route> {
        if src >= self.n {
            return Err(IxpError::InvalidAs(src));
        }
        if dst >= self.n {
            return Err(IxpError::InvalidAs(dst));
        }
        if src == dst {
            return Ok(Route {
                kind: RouteKind::SelfRoute,
                path: vec![src],
                crossed_ixp: None,
                has_peer_hop: false,
            });
        }
        let row = self.dest_slot[dst];
        if row == NO_SLOT {
            return Err(IxpError::DestinationNotComputed(dst));
        }
        let base = row as usize * self.n;
        let kind = match self.class[base + src] {
            CLASS_CUST => RouteKind::Customer,
            CLASS_PEER => RouteKind::Peer,
            CLASS_PROV => RouteKind::Provider,
            _ => return Err(IxpError::NoRoute { from: src, to: dst }),
        };
        // Reconstruct the path by following selected next hops: provider
        // hops down the selection chain, then at most one peer hop, then
        // customer-route hops.
        let mut path = vec![src];
        let mut crossed_ixp = None;
        let mut has_peer_hop = false;
        let mut current = src;
        while self.class[base + current] == CLASS_PROV {
            let next = self.next[base + current] as usize;
            path.push(next);
            current = next;
        }
        if self.class[base + current] == CLASS_PEER {
            has_peer_hop = true;
            let next = self.next[base + current];
            let ixp = self.peers.first_ixp(current, next);
            if ixp != NO_IXP {
                crossed_ixp = Some(ixp as usize);
            }
            path.push(next as usize);
            current = next as usize;
        }
        while current != dst {
            let next = self.next[base + current] as usize;
            path.push(next);
            current = next;
        }
        Ok(Route {
            kind,
            path,
            crossed_ixp,
            has_peer_hop,
        })
    }

    /// True when `src` can reach `dst`.
    pub fn reachable(&self, src: AsId, dst: AsId) -> bool {
        self.route(src, dst).is_ok()
    }
}

#[cfg(feature = "reference")]
pub mod reference {
    //! The original array-of-structs routing implementation, retained
    //! verbatim as the differential-testing oracle for the SoA engine and
    //! as the baseline of the `bench_substrates` scaling benches. Route
    //! selection is identical by construction; only the storage layout
    //! and compute strategy differ. Compiled only with the `reference`
    //! feature, which the test and bench builds enable.

    use super::{Route, RouteKind, INF};
    use crate::topology::{AsId, AsTopology, IxpId};
    use crate::{IxpError, Result};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// The seed implementation's peer lookup: a filtering scan of the
    /// global link list per queried AS (O(links) + an allocation), kept
    /// so the benches compare the new engine against the true original
    /// access pattern rather than the O(degree) adjacency it replaced.
    /// Yields sessions in the same order as `AsTopology::peers_of`.
    fn peers_of_scan(topology: &AsTopology, id: AsId) -> Vec<(AsId, Option<IxpId>)> {
        topology
            .peer_links()
            .iter()
            .filter_map(|l| {
                if l.a == id {
                    Some((l.b, l.ixp))
                } else if l.b == id {
                    Some((l.a, l.ixp))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Per-destination routing state.
    #[derive(Debug, Clone)]
    struct DestTable {
        dist_cust: Vec<u32>,
        next_cust: Vec<Option<AsId>>,
        dist_peer: Vec<u32>,
        next_peer: Vec<Option<AsId>>,
        peer_ixp: Vec<Option<IxpId>>,
        dist_down: Vec<u32>,
        next_down: Vec<Option<AsId>>,
    }

    /// All-pairs policy routes, one boxed table of seven `Vec`s per
    /// destination.
    #[derive(Debug, Clone)]
    pub struct ReferenceTable {
        n: usize,
        tables: Vec<DestTable>,
    }

    impl ReferenceTable {
        /// Compute routes for every destination.
        pub fn compute(topology: &AsTopology) -> Result<Self> {
            if !topology.is_hierarchy_acyclic() {
                return Err(IxpError::InconsistentRelationship(
                    "provider hierarchy contains a cycle",
                ));
            }
            let n = topology.as_count();
            let mut tables = Vec::with_capacity(n);
            for dst in 0..n {
                tables.push(Self::compute_destination(topology, dst));
            }
            Ok(ReferenceTable { n, tables })
        }

        fn compute_destination(topology: &AsTopology, dst: AsId) -> DestTable {
            let n = topology.as_count();
            let mut t = DestTable {
                dist_cust: vec![INF; n],
                next_cust: vec![None; n],
                dist_peer: vec![INF; n],
                next_peer: vec![None; n],
                peer_ixp: vec![None; n],
                dist_down: vec![INF; n],
                next_down: vec![None; n],
            };
            t.dist_cust[dst] = 0;
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(dst);
            while let Some(u) = queue.pop_front() {
                for &p in topology.providers_of(u) {
                    if t.dist_cust[p] == INF {
                        t.dist_cust[p] = t.dist_cust[u] + 1;
                        t.next_cust[p] = Some(u);
                        queue.push_back(p);
                    }
                }
            }
            for u in 0..n {
                let mut best: Option<(u32, AsId, Option<IxpId>)> = None;
                for (v, ixp) in peers_of_scan(topology, u) {
                    if t.dist_cust[v] != INF {
                        let cand = (t.dist_cust[v] + 1, v, ixp);
                        let better = match best {
                            None => true,
                            Some((bd, bv, _)) => cand.0 < bd || (cand.0 == bd && v < bv),
                        };
                        if better {
                            best = Some(cand);
                        }
                    }
                }
                if let Some((d, v, ixp)) = best {
                    t.dist_peer[u] = d;
                    t.next_peer[u] = Some(v);
                    t.peer_ixp[u] = ixp;
                }
            }
            let selected_len = |t: &DestTable, u: AsId| -> u32 {
                if t.dist_cust[u] != INF {
                    t.dist_cust[u]
                } else if t.dist_peer[u] != INF {
                    t.dist_peer[u]
                } else {
                    t.dist_down[u]
                }
            };
            let mut heap: BinaryHeap<Reverse<(u32, AsId)>> = BinaryHeap::new();
            for u in 0..n {
                let len = selected_len(&t, u);
                if len != INF {
                    heap.push(Reverse((len, u)));
                }
            }
            while let Some(Reverse((len, u))) = heap.pop() {
                if len > selected_len(&t, u) {
                    continue; // stale entry
                }
                for &c in topology.customers_of(u) {
                    let cand = len + 1;
                    if cand < t.dist_down[c] {
                        let before = selected_len(&t, c);
                        t.dist_down[c] = cand;
                        t.next_down[c] = Some(u);
                        let after = selected_len(&t, c);
                        if after < before {
                            heap.push(Reverse((after, c)));
                        }
                    }
                }
            }
            t
        }

        /// Number of ASes covered.
        pub fn as_count(&self) -> usize {
            self.n
        }

        /// The selected route from `src` to `dst`.
        pub fn route(&self, src: AsId, dst: AsId) -> Result<Route> {
            if src >= self.n {
                return Err(IxpError::InvalidAs(src));
            }
            if dst >= self.n {
                return Err(IxpError::InvalidAs(dst));
            }
            if src == dst {
                return Ok(Route {
                    kind: RouteKind::SelfRoute,
                    path: vec![src],
                    crossed_ixp: None,
                    has_peer_hop: false,
                });
            }
            let t = &self.tables[dst];
            let kind = if t.dist_cust[src] != INF {
                RouteKind::Customer
            } else if t.dist_peer[src] != INF {
                RouteKind::Peer
            } else if t.dist_down[src] != INF {
                RouteKind::Provider
            } else {
                return Err(IxpError::NoRoute { from: src, to: dst });
            };
            let mut path = vec![src];
            let mut crossed_ixp = None;
            let mut has_peer_hop = false;
            let mut current = src;
            while t.dist_cust[current] == INF && t.dist_peer[current] == INF {
                let next = t.next_down[current].expect("provider route has next hop");
                path.push(next);
                current = next;
            }
            if t.dist_cust[current] == INF {
                has_peer_hop = true;
                crossed_ixp = t.peer_ixp[current];
                let next = t.next_peer[current].expect("peer route has next hop");
                path.push(next);
                current = next;
            }
            while current != dst {
                let next = t.next_cust[current].expect("customer route has next hop");
                path.push(next);
                current = next;
            }
            Ok(Route {
                kind,
                path,
                crossed_ixp,
                has_peer_hop,
            })
        }

        /// True when `src` can reach `dst`.
        pub fn reachable(&self, src: AsId, dst: AsId) -> bool {
            self.route(src, dst).is_ok()
        }
    }
}

/// FNV-1a's 64-bit prime.
const FNV_PRIME: u64 = 0x100000001b3;

/// `FNV_PRIME^k` for `k` in `0..=8`, wrapping.
const FNV_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// Byte-serial FNV-1a, `h = (h ^ b) · P` per byte, with two shortcuts that
/// give the same state as feeding every byte:
///
/// * XOR with a zero byte changes nothing, so `k` zero bytes are one
///   multiply by `P^k`.
/// * XOR with a byte touches only the low byte of `h`, and the low byte of
///   a sum or product mod 2^64 depends only on the operands' low bytes.
///   So hashing a fixed string of `m` bytes from state `h` gives
///   `P^m·h + D[h & 0xff]` ([`Fold`]), where the 256-entry table `D`
///   depends only on the string. Composing two such maps gives another,
///   so `2^j` copies of a byte take one table, built from the table for
///   `2^(j-1)` in 256 steps.
struct Fnv1a {
    h: u64,
    /// `folds[b][j]` hashes `2^j` copies of byte `b`; built on first use.
    folds: Vec<Vec<Fold>>,
}

impl Fnv1a {
    fn new() -> Self {
        Fnv1a {
            h: 0xcbf29ce484222325,
            folds: vec![Vec::new(); 256],
        }
    }

    fn byte(&mut self, b: u8) {
        self.h = (self.h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    /// The low `width` bytes of `x`, little-endian: the bytes up to the
    /// highest nonzero one, then one multiply for the zero bytes above it.
    /// One- and two-byte values, most of a table's `next` entries, take a
    /// path of their own with no loop.
    fn word(&mut self, x: u64, width: usize) {
        if x < 1 << 8 {
            self.h = (self.h ^ x).wrapping_mul(FNV_POW[width]);
        } else if x < 1 << 16 {
            let low = (self.h ^ (x & 0xff)).wrapping_mul(FNV_PRIME);
            self.h = (low ^ (x >> 8)).wrapping_mul(FNV_POW[width - 1]);
        } else {
            let len = (8 - x.leading_zeros() as usize / 8).min(width);
            for i in 0..len {
                self.byte((x >> (8 * i)) as u8);
            }
            self.h = self.h.wrapping_mul(FNV_POW[width - len]);
        }
    }

    /// `count` copies of byte `b`: one fold per set bit of `count`, the
    /// fold for `2^j` copies being the one for `2^(j-1)` applied twice.
    fn repeat(&mut self, b: u8, count: usize) {
        if count == 0 {
            return;
        }
        let ladder = &mut self.folds[usize::from(b)];
        while ladder.len() <= count.ilog2() as usize {
            let next = match ladder.last() {
                Some(fold) => fold.twice(),
                None => Fold::byte(b),
            };
            ladder.push(next);
        }
        let mut bits = count;
        while bits != 0 {
            self.h = ladder[bits.trailing_zeros() as usize].apply(self.h);
            bits &= bits - 1;
        }
    }

    fn finish(&self) -> u64 {
        self.h
    }
}

/// FNV-1a over one fixed byte string as a map of the state:
/// `h ↦ mul·h + add[h & 0xff]`, all wrapping.
#[derive(Clone)]
struct Fold {
    mul: u64,
    add: Box<[u64; 256]>,
}

impl Fold {
    /// The fold of the single byte `b`: `(h ^ b)·P = P·h + P·((h ^ b) − h)`,
    /// and `(h ^ b) − h` depends only on the low byte of `h`.
    fn byte(b: u8) -> Self {
        let mut add = Box::new([0u64; 256]);
        for (lo, a) in (0u64..).zip(add.iter_mut()) {
            *a = ((lo ^ u64::from(b)).wrapping_sub(lo)).wrapping_mul(FNV_PRIME);
        }
        Fold {
            mul: FNV_PRIME,
            add,
        }
    }

    fn apply(&self, h: u64) -> u64 {
        h.wrapping_mul(self.mul)
            .wrapping_add(self.add[(h & 0xff) as usize])
    }

    /// This fold applied twice: `mul²·h + mul·add[lo] + add[lo']`, where
    /// `lo'`, the low byte after the first application, is the low byte of
    /// `mul·lo + add[lo]`.
    fn twice(&self) -> Self {
        let mut add = Box::new([0u64; 256]);
        for (lo, a) in (0u64..).zip(add.iter_mut()) {
            let once = self.apply(lo);
            *a = self
                .mul
                .wrapping_mul(self.add[lo as usize])
                .wrapping_add(self.add[(once & 0xff) as usize]);
        }
        Fold {
            mul: self.mul.wrapping_mul(self.mul),
            add,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{AsKind, AsTopology, RegionTag};
    use std::sync::Condvar;
    use std::thread;
    use std::time::Duration;

    fn r() -> RegionTag {
        RegionTag::new("X", false)
    }

    /// Classic small topology:
    ///
    /// ```text
    ///        T (transit)
    ///       / \
    ///      A   B        A -- B are NOT peers initially
    ///     /     \
    ///    C       D
    /// ```
    fn diamond() -> (AsTopology, [AsId; 5]) {
        let mut t = AsTopology::new();
        let tr = t.add_as("T", AsKind::Transit, &r(), 1.0);
        let a = t.add_as("A", AsKind::Access, &r(), 1.0);
        let b = t.add_as("B", AsKind::Access, &r(), 1.0);
        let c = t.add_as("C", AsKind::Access, &r(), 1.0);
        let d = t.add_as("D", AsKind::Access, &r(), 1.0);
        t.add_provider(a, tr).unwrap();
        t.add_provider(b, tr).unwrap();
        t.add_provider(c, a).unwrap();
        t.add_provider(d, b).unwrap();
        (t, [tr, a, b, c, d])
    }

    #[test]
    fn self_route() {
        let (t, ids) = diamond();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(ids[1], ids[1]).unwrap();
        assert_eq!(route.kind, RouteKind::SelfRoute);
        assert_eq!(route.path, vec![ids[1]]);
        assert_eq!(route.hops(), 0);
    }

    #[test]
    fn provider_route_up_and_down() {
        let (t, [tr, a, b, c, d]) = diamond();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(c, d).unwrap();
        assert_eq!(route.kind, RouteKind::Provider);
        assert_eq!(route.path, vec![c, a, tr, b, d]);
        assert!(!route.has_peer_hop);
        assert_eq!(route.transit_hops(), 4);
    }

    #[test]
    fn customer_route_preferred() {
        let (t, [tr, a, _b, c, _d]) = diamond();
        let rt = RoutingTable::compute(&t).unwrap();
        // T reaches C through its customer chain.
        let route = rt.route(tr, c).unwrap();
        assert_eq!(route.kind, RouteKind::Customer);
        assert_eq!(route.path, vec![tr, a, c]);
    }

    #[test]
    fn peer_route_beats_provider_route() {
        let (mut t, [_tr, a, b, c, d]) = diamond();
        t.add_peering(a, b, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(c, d).unwrap();
        // Now C -> A -peer-> B -> D, avoiding the transit tier.
        assert_eq!(route.path, vec![c, a, b, d]);
        assert!(route.has_peer_hop);
        assert_eq!(
            route.kind,
            RouteKind::Provider,
            "C still reaches via its provider A"
        );
        assert_eq!(route.transit_hops(), 2);
    }

    #[test]
    fn peer_hop_records_ixp() {
        let (mut t, [_tr, a, b, c, d]) = diamond();
        let ixp = t.add_ixp("IXP", &r());
        t.join_ixp(a, ixp).unwrap();
        t.join_ixp(b, ixp).unwrap();
        t.multilateral_peering(ixp).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(c, d).unwrap();
        assert_eq!(route.crossed_ixp, Some(ixp));
    }

    #[test]
    fn valley_free_export_blocks_peer_to_peer_transit() {
        // A - B peers, B - C peers: A must NOT reach C through B
        // (B would be giving free transit between two peers).
        let mut t = AsTopology::new();
        let a = t.add_as("A", AsKind::Access, &r(), 1.0);
        let b = t.add_as("B", AsKind::Access, &r(), 1.0);
        let c = t.add_as("C", AsKind::Access, &r(), 1.0);
        t.add_peering(a, b, None).unwrap();
        t.add_peering(b, c, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        assert!(rt.route(a, b).is_ok());
        assert_eq!(
            rt.route(a, c).unwrap_err(),
            IxpError::NoRoute { from: a, to: c }
        );
    }

    #[test]
    fn peer_route_not_exported_upward() {
        // C buys from A; A peers with B. C can reach B through A (provider
        // route extends A's peer route downward). But B's provider T must
        // not route to A's peer... construct: does T reach C? via customer
        // chain only.
        let mut t = AsTopology::new();
        let a = t.add_as("A", AsKind::Access, &r(), 1.0);
        let b = t.add_as("B", AsKind::Access, &r(), 1.0);
        let c = t.add_as("C", AsKind::Access, &r(), 1.0);
        t.add_provider(c, a).unwrap();
        t.add_peering(a, b, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        // Down-export of peer routes: C -> A -peer-> B is valid.
        let route = rt.route(c, b).unwrap();
        assert_eq!(route.path, vec![c, a, b]);
        // But B cannot reach C: B's only neighbor is peer A, and A's route
        // to C is a customer route — exported to peers! So B -> A -> C valid.
        let back = rt.route(b, c).unwrap();
        assert_eq!(back.kind, RouteKind::Peer);
        assert_eq!(back.path, vec![b, a, c]);
    }

    #[test]
    fn customer_preference_overrides_length() {
        // D can reach X via a 1-hop peer route or a 3-hop customer
        // route; Gao–Rexford picks the customer route despite length.
        let mut t = AsTopology::new();
        let d = t.add_as("D", AsKind::Transit, &r(), 1.0);
        let x = t.add_as("X", AsKind::Access, &r(), 1.0);
        let m1 = t.add_as("M1", AsKind::Access, &r(), 1.0);
        let m2 = t.add_as("M2", AsKind::Access, &r(), 1.0);
        // customer chain: d <- m1 <- m2 <- x  (x buys from m2, etc.)
        t.add_provider(m1, d).unwrap();
        t.add_provider(m2, m1).unwrap();
        t.add_provider(x, m2).unwrap();
        // and D also peers directly with X (1-hop peer route).
        t.add_peering(d, x, None).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(d, x).unwrap();
        assert_eq!(route.kind, RouteKind::Customer);
        assert_eq!(route.path, vec![d, m1, m2, x]);
    }

    #[test]
    fn unreachable_when_no_common_hierarchy() {
        let mut t = AsTopology::new();
        let a = t.add_as("A", AsKind::Access, &r(), 1.0);
        let b = t.add_as("B", AsKind::Access, &r(), 1.0);
        let rt = RoutingTable::compute(&t).unwrap();
        assert!(!rt.reachable(a, b));
        assert!(rt.reachable(a, a));
    }

    #[test]
    fn cyclic_hierarchy_rejected() {
        let mut t = AsTopology::new();
        let a = t.add_as("A", AsKind::Transit, &r(), 1.0);
        let b = t.add_as("B", AsKind::Transit, &r(), 1.0);
        let c = t.add_as("C", AsKind::Transit, &r(), 1.0);
        t.add_provider(a, b).unwrap();
        t.add_provider(b, c).unwrap();
        t.add_provider(c, a).unwrap();
        assert!(RoutingTable::compute(&t).is_err());
        assert!(RoutingTable::route_on_demand(&t.freeze(), a, b).is_err());
    }

    #[test]
    fn invalid_ids_rejected() {
        let (t, _) = diamond();
        let rt = RoutingTable::compute(&t).unwrap();
        assert!(rt.route(99, 0).is_err());
        assert!(rt.route(0, 99).is_err());
    }

    #[test]
    fn shortest_path_tiebreak_is_deterministic() {
        // Two equal-length peer options: lowest id wins.
        let mut t = AsTopology::new();
        let s = t.add_as("S", AsKind::Access, &r(), 1.0);
        let p1 = t.add_as("P1", AsKind::Access, &r(), 1.0);
        let p2 = t.add_as("P2", AsKind::Access, &r(), 1.0);
        let d = t.add_as("D", AsKind::Access, &r(), 1.0);
        t.add_peering(s, p1, None).unwrap();
        t.add_peering(s, p2, None).unwrap();
        t.add_provider(d, p1).unwrap();
        t.add_provider(d, p2).unwrap();
        let rt = RoutingTable::compute(&t).unwrap();
        let route = rt.route(s, d).unwrap();
        assert_eq!(route.path, vec![s, p1, d]);
    }

    #[test]
    fn sampled_destinations_cover_only_their_rows() {
        let (t, [tr, a, _b, _c, d]) = diamond();
        let rt = RoutingTable::compute_for_destinations(&t, &[d, a, d]).unwrap();
        assert_eq!(rt.destinations(), &[a, d]);
        assert!(rt.covers(d) && rt.covers(a) && !rt.covers(tr));
        let full = RoutingTable::compute(&t).unwrap();
        assert_eq!(rt.route(tr, d).unwrap(), full.route(tr, d).unwrap());
        assert_eq!(
            rt.route(a, tr).unwrap_err(),
            IxpError::DestinationNotComputed(tr)
        );
        // Self routes never need a computed row.
        assert_eq!(rt.route(tr, tr).unwrap().kind, RouteKind::SelfRoute);
    }

    #[test]
    fn parallel_compute_is_byte_identical() {
        let (mut t, [_tr, a, b, _c, d]) = diamond();
        t.add_peering(a, b, None).unwrap();
        let ft = t.freeze();
        let all: Vec<AsId> = (0..t.as_count()).collect();
        // Every destination on 0, 2, 3 and 8 workers (more workers than
        // destinations), a sample on 8, and no destination at all.
        let cases: [(&[AsId], usize); 6] = [
            (&all, 0),
            (&all, 2),
            (&all, 3),
            (&all, 8),
            (&[d, a], 8),
            (&[], 2),
        ];
        for (dests, workers) in cases {
            let serial = RoutingTable::compute_for_destinations(&t, dests).unwrap();
            let par = RoutingTable::compute_frozen(&ft, dests, workers).unwrap();
            assert_eq!(par, serial, "{dests:?} on {workers} workers");
            assert_eq!(par.digest(), serial.digest());
        }
    }

    #[test]
    fn a_row_off_the_calling_thread_is_routed_on_a_pooled_worker() {
        // A row the calling thread claims waits until another row has
        // been routed, so a helper must route one (or, after a timeout,
        // the test fails instead of hanging).
        let (mut t, [_tr, a, b, _c, _d]) = diamond();
        t.add_peering(a, b, None).unwrap();
        let ft = t.freeze();
        let order = ft.providers_first_order().unwrap();
        let caller = thread::current().id();
        let latch = Arc::new((Mutex::new(false), Condvar::new()));
        let helpers = Arc::new(Mutex::new(Vec::new()));
        let seen = Arc::clone(&helpers);
        let routed = ft.clone();
        let (class, next) = fill_table(ft.as_count(), &[a, b], 2, move |dst, s| {
            let me = thread::current();
            let (open, opened) = &*latch;
            if me.id() == caller {
                let wait = Duration::from_secs(10);
                drop(opened.wait_timeout_while(open.lock().unwrap(), wait, |o| !*o));
            } else {
                *open.lock().unwrap() = true;
                opened.notify_all();
                let name = me.name().unwrap_or_default().to_owned();
                seen.lock().unwrap().push(name);
            }
            route_rows(&routed, &order, dst, s);
        });
        let want = RoutingTable::compute_frozen(&ft, &[a, b], 1).unwrap();
        assert_eq!((class, next), (want.class, want.next));
        let helpers = helpers.lock().unwrap();
        assert!(
            !helpers.is_empty(),
            "no row was routed off the calling thread"
        );
        for name in helpers.iter() {
            assert!(name.starts_with("humnet-exp-pool-"), "{name:?}");
        }
    }

    #[test]
    fn route_on_demand_matches_table() {
        let (mut t, [tr, a, b, c, d]) = diamond();
        t.add_peering(a, b, None).unwrap();
        let ft = t.freeze();
        let full = RoutingTable::compute(&t).unwrap();
        for src in [tr, a, c] {
            for dst in [b, d, src] {
                assert_eq!(
                    RoutingTable::route_on_demand(&ft, src, dst).unwrap(),
                    full.route(src, dst).unwrap()
                );
            }
        }
    }

    #[cfg(feature = "reference")]
    #[test]
    fn reference_implementation_agrees_on_diamond() {
        let (mut t, [tr, a, b, c, d]) = diamond();
        let ixp = t.add_ixp("IXP", &r());
        t.join_ixp(a, ixp).unwrap();
        t.join_ixp(b, ixp).unwrap();
        t.multilateral_peering(ixp).unwrap();
        let soa = RoutingTable::compute(&t).unwrap();
        let naive = reference::ReferenceTable::compute(&t).unwrap();
        for src in [tr, a, b, c, d] {
            for dst in [tr, a, b, c, d] {
                assert_eq!(soa.route(src, dst).ok(), naive.route(src, dst).ok());
            }
        }
    }

    /// A and C each have two sessions to B, one private and one at an
    /// exchange, in opposite orders: A's private one first, C's at `y`
    /// first. D is B's customer.
    fn twice_peered() -> (AsTopology, [AsId; 4], [IxpId; 2]) {
        let mut t = AsTopology::new();
        let a = t.add_as("A", AsKind::Access, &r(), 1.0);
        let b = t.add_as("B", AsKind::Transit, &r(), 1.0);
        let c = t.add_as("C", AsKind::Access, &r(), 1.0);
        let d = t.add_as("D", AsKind::Access, &r(), 1.0);
        let x = t.add_ixp("X", &r());
        let y = t.add_ixp("Y", &r());
        t.add_provider(d, b).unwrap();
        t.add_peering(a, b, None).unwrap();
        t.add_peering(a, b, Some(x)).unwrap();
        t.add_peering(c, b, Some(y)).unwrap();
        t.add_peering(c, b, None).unwrap();
        (t, [a, b, c, d], [x, y])
    }

    #[test]
    fn a_peer_hop_crosses_the_first_session_to_its_next_as() {
        let (t, [a, b, c, d], [_x, y]) = twice_peered();
        let rt = RoutingTable::compute(&t).unwrap();
        let crossed = |src, dst| {
            let route = rt.route(src, dst).unwrap();
            assert!(route.has_peer_hop, "{src} -> {dst}: {route:?}");
            route.crossed_ixp
        };
        for dst in [b, d] {
            assert_eq!(crossed(a, dst), None, "A's first session to B is private");
            assert_eq!(crossed(c, dst), Some(y), "C's first session to B is at Y");
        }
        // B lists A's sessions first (private, then X), then C's (Y, then
        // private); D's routes take B's peer hop.
        for src in [b, d] {
            assert_eq!(crossed(src, a), None);
            assert_eq!(crossed(src, c), Some(y));
        }
        assert_eq!(rt.digest(), byte_serial_fnv1a(&rt));
    }

    #[cfg(feature = "reference")]
    #[test]
    fn reference_implementation_agrees_on_twice_peered_ases() {
        let (t, ids, _) = twice_peered();
        let soa = RoutingTable::compute(&t).unwrap();
        let naive = reference::ReferenceTable::compute(&t).unwrap();
        for src in ids {
            for dst in ids {
                assert_eq!(soa.route(src, dst).ok(), naive.route(src, dst).ok());
            }
        }
    }

    /// The IXP column `digest` hashes, written out cell by cell: a peer
    /// cell's first session to its next AS, [`NO_IXP`] everywhere else.
    fn dense_peer_ixp(t: &RoutingTable) -> Vec<u32> {
        (0..t.class.len())
            .map(|k| {
                if t.class[k] != CLASS_PEER {
                    return NO_IXP;
                }
                let (nbrs, ixps) = t.peers.of(k % t.n);
                let first = nbrs.iter().zip(ixps).find(|&(&v, _)| v == t.next[k]);
                *first.expect("a peer cell's next AS is a peer").1
            })
            .collect()
    }

    /// FNV-1a fed one byte at a time over `digest`'s byte order.
    fn byte_serial_fnv1a(t: &RoutingTable) -> u64 {
        t.dests
            .iter()
            .flat_map(|&d| (d as u64).to_le_bytes())
            .chain(t.class.iter().copied())
            .chain(t.next.iter().flat_map(|x| x.to_le_bytes()))
            .chain(dense_peer_ixp(t).iter().flat_map(|x| x.to_le_bytes()))
            .fold(0xcbf29ce484222325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100000001b3)
            })
    }

    /// A `u32` from each class `digest` folds differently: below 2^8,
    /// below 2^16, at or above 2^16, and `u32::MAX`.
    fn entry(code: u64) -> u32 {
        let bits = (code >> 8) as u32;
        match code % 4 {
            0 => bits & 0xff,
            1 => bits & 0xffff,
            2 => bits | 1 << 16,
            _ => u32::MAX,
        }
    }

    /// Expand codes into runs: a third of the codes are each a run of
    /// `fill` whose length (odd or even, up to a few hundred) comes from
    /// the code's high bits; any other code is one value from `single`.
    fn with_runs<T: Copy>(
        codes: &[u64],
        fill: impl Fn(u64) -> T,
        single: impl Fn(u64) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        for &c in codes {
            if c % 3 == 0 {
                let len = (c >> 40) as usize % 300;
                out.extend(std::iter::repeat_n(fill(c), len));
            } else {
                out.push(single(c));
            }
        }
        out
    }

    /// A table `digest` can read, drawn from codes. `n` ASes (at most 8)
    /// peer along `sessions`, each code naming two ASes in its low six
    /// bits and, above them, a private session or an IXP of any size
    /// `digest` folds differently; a session is listed at both ends, as
    /// `AsTopology::add_peering` does, and pairs may peer more than once. `class` comes in runs
    /// of every class and in single bytes, peer routes among them, cut to
    /// whole rows of `n`, which need not fill whole 8-byte words. A peer
    /// cell's next AS is one of its peers (an AS without sessions gets no
    /// route instead); any other cell's next hop is any entry.
    fn drawn_table(
        n: usize,
        sessions: &[u64],
        dests: &[u64],
        class: &[u64],
        seed: u64,
    ) -> RoutingTable {
        let mut lists = vec![Vec::new(); n];
        for &code in sessions {
            let (a, b) = ((code & 7) as usize % n, (code >> 3 & 7) as usize % n);
            if a != b {
                lists[a].push((b as u32, entry(code >> 6)));
                lists[b].push((a as u32, entry(code >> 6)));
            }
        }
        let peers = PeerSessions::build(n, |u| lists[u].iter().copied());
        let mut class = with_runs(
            class,
            |c| (c >> 8) as u8 % 4,
            |c| match c % 3 {
                1 => CLASS_PEER,
                _ => (c >> 8) as u8,
            },
        );
        class.truncate(class.len() / n * n);
        let mut rng = humnet_stats::Rng::new(seed);
        let mut next = Vec::with_capacity(class.len());
        for (k, c) in class.iter_mut().enumerate() {
            let code = rng.next_u64();
            let nbrs = peers.of(k % n).0;
            next.push(match *c {
                CLASS_PEER if nbrs.is_empty() => {
                    *c = CLASS_NONE;
                    entry(code)
                }
                CLASS_PEER => nbrs[code as usize % nbrs.len()],
                _ => entry(code),
            });
        }
        let rows = class.len() / n;
        RoutingTable {
            n,
            dests: (0..rows)
                .map(|i| dests[i % dests.len()] >> (i * 7 % 64))
                .map(|d| d as usize)
                .collect(),
            dest_slot: Vec::new(),
            class,
            next,
            peers: Arc::new(peers),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]
        #[test]
        fn digest_matches_byte_serial_fnv1a(
            n in 1usize..8,
            sessions in proptest::collection::vec(0u64..u64::MAX, 0..12),
            dests in proptest::collection::vec(0u64..u64::MAX, 1..6),
            class in proptest::collection::vec(0u64..u64::MAX, 0..40),
            seed in 0u64..u64::MAX,
        ) {
            let table = drawn_table(n, &sessions, &dests, &class, seed);
            proptest::prop_assert_eq!(table.digest(), byte_serial_fnv1a(&table));
        }
    }

    #[test]
    fn digest_matches_byte_serial_fnv1a_on_a_computed_table() {
        let t = crate::synthetic_internet(300, 3).unwrap();
        let table = RoutingTable::compute(&t).unwrap();
        assert_eq!(table.digest(), byte_serial_fnv1a(&table));
    }
}
