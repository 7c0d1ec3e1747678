//! The distributed Euler-tour forest and its single-edge operations.

use mpc_graph::ids::{Edge, VertexId};
use mpc_sim::MpcContext;
use std::collections::{BTreeMap, BTreeSet};

/// One tour's edge shard: a flat array sorted by edge. Batch plans
/// remap the records in place (keys never change), and tour-id
/// reassignment moves whole shards by splice instead of per-edge
/// rewrites.
pub(crate) type Shard = Vec<(Edge, EdgeRec)>;

fn shard_get(shard: &Shard, e: Edge) -> Option<&EdgeRec> {
    shard
        .binary_search_by_key(&e, |&(k, _)| k)
        .ok()
        .map(|i| &shard[i].1)
}

/// Merges two sorted runs into one sorted vector in a single linear
/// pass — the shared splice primitive of the batch operations (edge
/// shards and member lists alike).
pub(crate) fn merge_sorted_runs<T: Copy, K: Ord>(
    a: &[T],
    b: &[T],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        if key(&a[i]) <= key(&b[j]) {
            out.push(a[i]);
            i += 1;
        } else {
            out.push(b[j]);
            j += 1;
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Identifier of one Euler tour (one tree of the forest). Tour ids
/// `0..n` are the initial singleton tours; fresh ids are allocated
/// monotonically after splits and joins.
pub type TourId = u64;

/// One of the two traversals of a tree edge inside its tour: the
/// traversal occupies entries `pos` (the `from` endpoint) and
/// `pos + 1` (the other endpoint). `pos` is always odd — traversals
/// start on odd positions in a well-formed tour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Traversal {
    /// Position (1-based) of the `from` endpoint's entry.
    pub pos: u64,
    /// The endpoint the traversal leaves from.
    pub from: VertexId,
}

/// Per-edge tour bookkeeping: which tour the edge belongs to and the
/// positions of its two traversals (`first.pos < second.pos`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeRec {
    /// The tour (tree) this edge belongs to.
    pub tour: TourId,
    /// Earlier traversal.
    pub first: Traversal,
    /// Later traversal (opposite direction).
    pub second: Traversal,
}

impl EdgeRec {
    /// Entries `first.pos + 1 .. = second.pos` are exactly the
    /// subtree below this edge (the side of its far endpoint). Used
    /// by [`EdgeRec::on_path`] and the split operations.
    pub fn subtree_interval(&self) -> (u64, u64) {
        (self.first.pos + 1, self.second.pos)
    }

    /// Whether this edge lies on the tree path between two vertices
    /// of its tour, given their first and last occurrences
    /// ([`DistEtf::f_l`]) — the local test of Lemma 7.2: the path
    /// crosses the edge iff exactly one endpoint lies in the subtree
    /// below it. Each machine evaluates it on its own edges after one
    /// broadcast of `f/ℓ`; a vertex with itself has the empty path.
    pub fn on_path(&self, (fu, lu): (u64, u64), (fv, lv): (u64, u64)) -> bool {
        // The subtree's entries are (first.pos, second.pos].
        let below = |f: u64, l: u64| f > self.first.pos && l <= self.second.pos;
        below(fu, lu) != below(fv, lv)
    }

    fn normalize(&mut self) {
        if self.first.pos > self.second.pos {
            std::mem::swap(&mut self.first, &mut self.second);
        }
    }
}

mpc_snapshot::persist_struct!(Traversal { pos, from });

mpc_snapshot::persist_struct!(EdgeRec { tour, first, second } check |rec| {
    if rec.first.pos >= rec.second.pos {
        return Err(format!(
            "edge record traversals out of order: {} >= {}",
            rec.first.pos, rec.second.pos
        ));
    }
    Ok(())
});

/// A forest of Euler tours in the paper's distributed representation.
///
/// State is *vertex- and edge-sharded*: each vertex carries only its
/// tour id; each forest edge carries its four tour positions, and the
/// edge records are stored in **per-tour shards** (`tour → edges`) so
/// every operation touches only the affected tours' records —
/// `O(|tour|)` work instead of `O(|forest|)`, mirroring the paper's
/// protocol in which each machine remaps its own shard from an
/// `O(k)`-word broadcast plan. All operations mutate this state
/// through broadcast-size instructions — the [`MpcContext`] parameter
/// charges exactly those broadcasts and gathers.
///
/// # Examples
///
/// ```
/// use mpc_etf::DistEtf;
/// use mpc_graph::ids::Edge;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// let mut ctx = MpcContext::new(MpcConfig::builder(8, 0.5).build());
/// let mut etf = DistEtf::new(8);
/// etf.join(Edge::new(0, 1), &mut ctx);
/// etf.join(Edge::new(1, 2), &mut ctx);
/// assert_eq!(etf.tour_of(0), etf.tour_of(2));
/// let (f0, f2) = (etf.f_l(0), etf.f_l(2));
/// let path = etf.tour_edges(etf.tour_of(0)).filter(|(_, r)| r.on_path(f0, f2));
/// assert_eq!(path.count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct DistEtf {
    n: usize,
    vertex_tour: Vec<TourId>,
    adj: Vec<BTreeSet<VertexId>>,
    /// Per-tour edge shards, each a flat array sorted by edge (the
    /// machine-local segment the paper's protocol remaps in place).
    /// Tours without edges (singletons) carry no entry. Invariant:
    /// every record in `shards[t]` has `rec.tour == t`, and both
    /// endpoints carry tour id `t`.
    shards: BTreeMap<TourId, Shard>,
    edge_count: usize,
    tour_len: BTreeMap<TourId, u64>,
    /// Per-tour member lists, sorted ascending (spliced and
    /// partitioned alongside the edge shards).
    members: BTreeMap<TourId, Vec<VertexId>>,
    next_id: TourId,
}

impl DistEtf {
    /// Creates the forest of `n` singleton tours.
    pub fn new(n: usize) -> Self {
        let mut tour_len = BTreeMap::new();
        let mut members = BTreeMap::new();
        for v in 0..n as u64 {
            tour_len.insert(v, 0);
            members.insert(v, vec![v as VertexId]);
        }
        DistEtf {
            n,
            vertex_tour: (0..n as u64).collect(),
            adj: vec![BTreeSet::new(); n],
            shards: BTreeMap::new(),
            edge_count: 0,
            tour_len,
            members,
            next_id: n as TourId,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of forest edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The tour (tree) a vertex belongs to.
    pub fn tour_of(&self, v: VertexId) -> TourId {
        self.vertex_tour[v as usize]
    }

    /// Length of a tour (`4·(|T|-1)`; 0 for singletons).
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id.
    pub fn tour_len(&self, t: TourId) -> u64 {
        self.tour_len[&t]
    }

    /// The vertices of a tour, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id.
    pub fn tour_members(&self, t: TourId) -> &[VertexId] {
        &self.members[&t]
    }

    /// The label of tour `t`'s component: its smallest member, the
    /// first entry of its sorted member list.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id.
    pub fn tour_label(&self, t: TourId) -> VertexId {
        self.members[&t][0]
    }

    /// Writes [`DistEtf::tour_label`] into `labels` at every member of
    /// each of `tours` (a repeated tour is visited once). Only those
    /// tours' members are touched.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id or a member outside `labels`.
    pub fn label_tours(&self, tours: impl IntoIterator<Item = TourId>, labels: &mut [VertexId]) {
        let mut tours: Vec<TourId> = tours.into_iter().collect();
        tours.sort_unstable();
        tours.dedup();
        for t in tours {
            let label = self.tour_label(t);
            for &v in self.tour_members(t) {
                labels[v as usize] = label;
            }
        }
    }

    /// All live tour ids.
    pub fn tours(&self) -> impl Iterator<Item = TourId> + '_ {
        self.tour_len.keys().copied()
    }

    /// Whether `e` is a forest (tree) edge.
    pub fn contains_edge(&self, e: Edge) -> bool {
        self.edge_rec(e).is_some()
    }

    /// The record of a forest edge. A forest edge always lives in the
    /// shard of its endpoints' tour, so the lookup is local to that
    /// shard.
    pub fn edge_rec(&self, e: Edge) -> Option<&EdgeRec> {
        if (e.v() as usize) >= self.n {
            return None;
        }
        shard_get(self.shards.get(&self.vertex_tour[e.u() as usize])?, e)
    }

    /// Iterates over the forest edges (all shards).
    pub fn forest_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.shards.values().flat_map(|s| s.iter().map(|&(e, _)| e))
    }

    /// Iterates over one tour's edge shard — the unit of locality of
    /// every tour operation. Yields nothing for singleton or unknown
    /// tours.
    pub fn tour_edges(&self, t: TourId) -> impl Iterator<Item = (Edge, &EdgeRec)> + '_ {
        self.shards
            .get(&t)
            .into_iter()
            .flat_map(|s| s.iter().map(|(e, r)| (*e, r)))
    }

    /// The tree neighbors of `v`.
    pub fn neighbors(&self, v: VertexId) -> &BTreeSet<VertexId> {
        &self.adj[v as usize]
    }

    /// Memory footprint in words: one word per vertex (tour id) plus
    /// six words per forest edge (tour id, two traversals of
    /// (pos, from), normalized endpoints are implicit in placement).
    pub fn words(&self) -> u64 {
        self.n as u64 + 6 * self.edge_count as u64
    }

    pub(crate) fn fresh_id(&mut self) -> TourId {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    // ----- crate-private state surgery for the batch operations ----

    /// The tour ids that currently own an edge shard (used by the
    /// intrinsic validator to check shard ↔ bookkeeping consistency).
    pub(crate) fn shard_tour_ids(&self) -> impl Iterator<Item = TourId> + '_ {
        self.shards.keys().copied()
    }

    /// Mutable view of one tour's shard, if it has edges.
    pub(crate) fn shard_mut(&mut self, t: TourId) -> Option<&mut Shard> {
        self.shards.get_mut(&t)
    }

    /// Detaches a tour's whole edge shard (empty for singletons). The
    /// caller must re-home every record via
    /// [`DistEtf::splice_shard_entries`] or [`DistEtf::put_shard`].
    pub(crate) fn take_shard(&mut self, t: TourId) -> Shard {
        let shard = self.shards.remove(&t).unwrap_or_default();
        self.edge_count -= shard.len();
        shard
    }

    /// Installs a whole shard — sorted by edge, every record labelled
    /// `t` — for a tour that holds none: the inverse of
    /// [`DistEtf::take_shard`]. An empty shard installs nothing.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn put_shard(&mut self, t: TourId, shard: Shard) {
        debug_assert!(shard.is_sorted_by(|a, b| a.0 < b.0), "unsorted shard");
        debug_assert!(shard.iter().all(|(_, r)| r.tour == t), "mislabelled shard");
        if !shard.is_empty() {
            self.edge_count += shard.len();
            self.shards.insert(t, shard);
        }
    }

    /// Splices an entry list into tour `t`'s shard — the map-splice
    /// counterpart of a per-edge rewrite loop. The batch operations
    /// produce concatenations of already-sorted runs, so the stable
    /// sort here is a linear-time run merge; splicing into a live
    /// shard then merges the two sorted arrays in one linear pass
    /// (or, for a constant-size run, a few sorted inserts). Records
    /// must already carry tour id `t`.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn splice_shard_entries(&mut self, t: TourId, mut entries: Shard) {
        if entries.is_empty() {
            return;
        }
        debug_assert!(
            entries.iter().all(|(_, r)| r.tour == t),
            "mislabelled splice"
        );
        self.edge_count += entries.len();
        entries.sort_by_key(|&(e, _)| e);
        match self.shards.entry(t) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(entries);
            }
            std::collections::btree_map::Entry::Occupied(mut slot) => {
                let shard = slot.get_mut();
                if entries.len() <= 8 && entries.len() * 8 <= shard.len() {
                    // A constant-size run into a big shard: per-entry
                    // sorted inserts beat rebuilding the shard. A
                    // duplicate key (a caller bug) is inserted anyway
                    // so `edge_count` stays consistent and the shard
                    // validator reports it, as the rebuild path would.
                    for (e, rec) in entries {
                        let i = match shard.binary_search_by_key(&e, |&(k, _)| k) {
                            Ok(i) => {
                                debug_assert!(false, "edge {e} spliced twice");
                                i
                            }
                            Err(i) => i,
                        };
                        shard.insert(i, (e, rec));
                    }
                } else {
                    *shard = merge_sorted_runs(shard, &entries, |&(e, _)| e);
                }
            }
        }
    }

    /// Registers `e` in the tree adjacency only (for callers that
    /// splice the record itself in bulk).
    pub(crate) fn add_adjacency(&mut self, e: Edge) {
        self.adj[e.u() as usize].insert(e.v());
        self.adj[e.v() as usize].insert(e.u());
    }

    /// Drops `e` from the tree adjacency only (for callers that cut
    /// the record itself out of its shard in bulk).
    pub(crate) fn remove_adjacency(&mut self, e: Edge) {
        self.adj[e.u() as usize].remove(&e.v());
        self.adj[e.v() as usize].remove(&e.u());
    }

    /// Drops a tour's membership and length records, returning its
    /// former members (sorted). The caller must re-home every member.
    pub(crate) fn remove_tour_bookkeeping(&mut self, t: TourId) -> Vec<VertexId> {
        self.tour_len.remove(&t);
        self.members.remove(&t).unwrap_or_default()
    }

    pub(crate) fn set_vertex_tour(&mut self, v: VertexId, t: TourId) {
        self.vertex_tour[v as usize] = t;
    }

    /// Installs a tour's bookkeeping; `members` must be sorted.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn install_tour(&mut self, t: TourId, len: u64, members: Vec<VertexId>) {
        debug_assert!(members.is_sorted(), "tour members must stay sorted");
        self.tour_len.insert(t, len);
        self.members.insert(t, members);
    }

    /// Replaces a live tour's length without touching its members.
    pub(crate) fn set_tour_len(&mut self, t: TourId, len: u64) {
        self.tour_len.insert(t, len);
    }

    /// Merges a sorted member run into a live tour's member list
    /// (per-entry sorted inserts for a constant-size run, one linear
    /// run merge otherwise).
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn merge_members_into(&mut self, t: TourId, extra: Vec<VertexId>) {
        debug_assert!(extra.is_sorted(), "member runs stay sorted");
        let members = self.members.entry(t).or_default();
        if extra.len() <= 8 && extra.len() * 8 <= members.len() {
            // A duplicate member (a caller bug) is kept so the
            // bookkeeping validator reports it, as the sort path
            // would.
            for v in extra {
                let i = match members.binary_search(&v) {
                    Ok(i) => {
                        debug_assert!(false, "member {v} merged twice");
                        i
                    }
                    Err(i) => i,
                };
                members.insert(i, v);
            }
        } else {
            *members = merge_sorted_runs(members, &extra, |&v| v);
        }
    }

    // ----- occurrence bookkeeping ---------------------------------

    /// All positions at which `v` occurs in its tour (2·deg entries).
    pub fn occurrences(&self, v: VertexId) -> Vec<u64> {
        let adj = &self.adj[v as usize];
        let mut out = Vec::with_capacity(2 * adj.len());
        if adj.is_empty() {
            return out;
        }
        let shard = &self.shards[&self.vertex_tour[v as usize]];
        for &w in adj {
            #[expect(
                clippy::expect_used,
                reason = "adjacency and tour shards are mutated in lockstep — a missing edge is corruption"
            )]
            let rec = *shard_get(shard, Edge::new(v, w)).expect("adjacent edge in shard");
            for t in [rec.first, rec.second] {
                if t.from == v {
                    out.push(t.pos);
                } else {
                    out.push(t.pos + 1);
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// First and last occurrence `(f(v), ℓ(v))`; `(0, 0)` for a
    /// singleton.
    pub fn f_l(&self, v: VertexId) -> (u64, u64) {
        let occ = self.occurrences(v);
        match (occ.first(), occ.last()) {
            (Some(&f), Some(&l)) => (f, l),
            _ => (0, 0),
        }
    }

    // ----- rooting -------------------------------------------------

    /// The rotation cut position for rerooting at `v`: the start of
    /// the first traversal leaving `v`. `f(v)` is odd exactly when
    /// `v` is already the root (then this is 1 and the rotation is the
    /// identity); otherwise `f(v)` is `v`'s arrival entry and
    /// `f(v) + 1` begins the next traversal, which leaves from `v`.
    fn cut_position(&self, v: VertexId) -> u64 {
        let (f, _) = self.f_l(v);
        if f % 2 == 1 {
            f
        } else {
            f + 1
        }
    }

    pub(crate) fn reroot_uncharged(&mut self, v: VertexId) {
        let t = self.tour_of(v);
        let len = self.tour_len[&t];
        if len == 0 {
            return;
        }
        let cut = self.cut_position(v);
        if cut == 1 {
            return;
        }
        // Only the rerooted tour's shard is touched.
        #[expect(
            clippy::expect_used,
            reason = "shard invariant — every nonempty tour owns exactly one shard"
        )]
        let shard = self.shards.get_mut(&t).expect("nonempty tour has a shard");
        for (_, rec) in shard.iter_mut() {
            for trav in [&mut rec.first, &mut rec.second] {
                trav.pos = (trav.pos + len - cut) % len + 1;
            }
            rec.normalize();
        }
    }

    /// Rotates the tour containing `v` so it starts (and ends) at
    /// `v`. `O(1)` rounds: gather `f(v)`, broadcast the rotation
    /// `(tour, L, cut)`, apply locally.
    pub fn reroot(&mut self, v: VertexId, ctx: &mut MpcContext) {
        ctx.exchange(2); // fetch f(v) from v's shard
        ctx.broadcast(3); // (tour id, L, cut)
        self.reroot_uncharged(v);
    }

    // ----- single-edge join / split -------------------------------

    /// Links the tree edge `{root_end, child_end}` between two tours:
    /// `root_end`'s tour anchors in place (only its tail past the
    /// attach point shifts), `child_end`'s tour is rerooted at
    /// `child_end` and spliced into the gap. The one single-edge splice
    /// of [`DistEtf::join`] and `batch_join`.
    pub(crate) fn link(&mut self, root_end: VertexId, child_end: VertexId) {
        let (root, child) = (self.tour_of(root_end), self.tour_of(child_end));
        self.reroot_uncharged(child_end);
        let root_len = self.tour_len(root);
        let w = self.tour_len(child);
        let (f_u, _) = self.f_l(root_end);
        let c = if f_u % 2 == 1 { f_u - 1 } else { f_u };
        // Root tail shift: positions strictly above the attach point
        // make room for the child block of w + 4 entries.
        if let Some(shard) = self.shard_mut(root) {
            for (_, rec) in shard.iter_mut() {
                for trav in [&mut rec.first, &mut rec.second] {
                    if trav.pos > c {
                        trav.pos += w + 4;
                    }
                }
            }
        }
        // Child block: old position x lands at c + 2 + x.
        let mut merged = self.take_shard(child);
        for (_, rec) in merged.iter_mut() {
            rec.tour = root;
            rec.first.pos += c + 2;
            rec.second.pos += c + 2;
        }
        let e = Edge::new(root_end, child_end);
        self.add_adjacency(e);
        merged.push((
            e,
            EdgeRec {
                tour: root,
                first: Traversal {
                    pos: c + 1,
                    from: root_end,
                },
                second: Traversal {
                    pos: c + w + 3,
                    from: child_end,
                },
            },
        ));
        self.splice_shard_entries(root, merged);
        // Membership: only the child's members change tour; its
        // sorted run merges into the root's list in place.
        let extra = self.remove_tour_bookkeeping(child);
        for &x in &extra {
            self.set_vertex_tour(x, root);
        }
        self.merge_members_into(root, extra);
        self.set_tour_len(root, root_len + w + 4);
    }

    /// Links `e`, merging two tours (paper Lemma 5.1 "Join"); `u`'s
    /// tour is the root. `O(1)` rounds.
    ///
    /// # Panics
    ///
    /// Panics if the endpoints are already connected (an edge already
    /// in the forest included).
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — joining two vertices of one tour would close a cycle"
    )]
    pub fn join(&mut self, e: Edge, ctx: &mut MpcContext) {
        ctx.exchange(4); // fetch f/ℓ of both endpoints
        ctx.broadcast(6); // rotation + splice instruction
        let (u, v) = e.endpoints();
        assert_ne!(
            self.tour_of(u),
            self.tour_of(v),
            "join would create a cycle: {e}"
        );
        self.link(u, v);
    }

    /// Builds a sorted member list from a region's edge endpoints.
    pub(crate) fn members_of_entries(entries: &[(Edge, EdgeRec)]) -> Vec<VertexId> {
        let mut vs: Vec<VertexId> = Vec::with_capacity(2 * entries.len());
        for (e, _) in entries {
            vs.push(e.u());
            vs.push(e.v());
        }
        vs.sort_unstable();
        vs.dedup();
        vs
    }

    /// Cuts tree edge `e`, splitting one tour into two (paper
    /// Lemma 5.1 "Split"). Returns the two resulting tour ids (root
    /// side, detached side) — for endpoints that become singletons
    /// the returned id is superseded by their fresh singleton tour,
    /// query [`DistEtf::tour_of`] for the authoritative id. `O(1)`
    /// rounds.
    ///
    /// # Panics
    ///
    /// Panics if `e` is not a forest edge.
    pub fn split(&mut self, e: Edge, ctx: &mut MpcContext) -> (TourId, TourId) {
        ctx.exchange(4); // fetch the edge's traversal positions
        ctx.broadcast(6); // interval + new tour ids
        #[expect(
            clippy::expect_used,
            reason = "documented \"# Panics\" precondition — splitting a non-forest edge is a caller bug"
        )]
        let rec = *self.edge_rec(e).expect("split of non-tree edge");
        // A one-cut split: the detached side is the cut's region,
        // which takes the first id `split_tour` allocates.
        let child = self.next_id;
        self.split_tour(rec.tour, &[(rec.first.pos, rec.second.pos, e)]);
        (rec.tour, child)
    }
}

// The whole sharded representation is plain data — tour ids, sorted
// shards, member lists — so it travels verbatim. Loading re-checks the
// cross-structure invariants (lengths, key agreement, edge counts) the
// mutation paths maintain.
mpc_snapshot::persist_struct!(DistEtf {
    n,
    vertex_tour,
    adj,
    shards,
    edge_count,
    tour_len,
    members,
    next_id,
} check |etf| {
    let n = etf.n;
    if etf.vertex_tour.len() != n || etf.adj.len() != n {
        return Err(format!(
            "forest over {n} vertices has {} tour ids and {} adjacency rows",
            etf.vertex_tour.len(),
            etf.adj.len()
        ));
    }
    if etf.shards.values().map(Vec::len).sum::<usize>() != etf.edge_count {
        return Err(format!("shards disagree with edge count {}", etf.edge_count));
    }
    // Every shard lookup is a binary search by edge in the shard of
    // the endpoints' tour, and splits subtract sorted member runs.
    for (t, shard) in &etf.shards {
        if shard.iter().any(|(_, rec)| rec.tour != *t) {
            return Err(format!("tour {t}: shard holds another tour's record"));
        }
        if !shard.is_sorted_by(|a, b| a.0 < b.0) {
            return Err(format!("tour {t}: shard not strictly ascending by edge"));
        }
    }
    if let Some((t, _)) = etf.members.iter().find(|(_, m)| !m.is_sorted_by(|a, b| a < b)) {
        return Err(format!("tour {t}: member list not strictly ascending"));
    }
    if !etf.tour_len.keys().eq(etf.members.keys()) {
        return Err("tour-length and member tables disagree on live tours".into());
    }
    if etf.vertex_tour.iter().any(|t| !etf.tour_len.contains_key(t)) {
        return Err("a vertex points at a dead tour".into());
    }
    if etf.next_id < n as TourId {
        return Err(format!(
            "tour id allocator {} behind the range 0..{n}",
            etf.next_id
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::validate;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(64, 0.5).build())
    }

    #[test]
    fn new_forest_is_singletons() {
        let etf = DistEtf::new(4);
        assert_eq!(etf.edge_count(), 0);
        for v in 0..4 {
            assert_eq!(etf.tour_of(v), v as u64);
            assert_eq!(etf.tour_len(v as u64), 0);
            assert_eq!(etf.f_l(v), (0, 0));
        }
        validate(&etf).expect("valid");
    }

    #[test]
    fn join_two_singletons() {
        let mut c = ctx();
        let mut etf = DistEtf::new(4);
        etf.join(Edge::new(0, 1), &mut c);
        assert_eq!(etf.tour_of(0), etf.tour_of(1));
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4);
        let rec = etf.edge_rec(Edge::new(0, 1)).expect("present");
        assert_eq!(rec.first.pos, 1);
        assert_eq!(rec.second.pos, 3);
        validate(&etf).expect("valid");
    }

    #[test]
    fn join_builds_path_and_star() {
        let mut c = ctx();
        // Path.
        let mut etf = DistEtf::new(8);
        for i in 0..7u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
            validate(&etf).expect("valid after path join");
        }
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4 * 7);
        // Star.
        let mut etf = DistEtf::new(8);
        for i in 1..8u32 {
            etf.join(Edge::new(0, i), &mut c);
            validate(&etf).expect("valid after star join");
        }
        assert_eq!(etf.occurrences(0).len(), 14);
    }

    #[test]
    fn join_two_paths_at_interior_vertices() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        for i in 0..3u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        for i in 4..7u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        // Join interior vertex 1 to interior vertex 5.
        etf.join(Edge::new(1, 5), &mut c);
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_of(0), etf.tour_of(7));
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4 * 7);
    }

    #[test]
    fn reroot_keeps_tour_valid() {
        let mut c = ctx();
        let mut etf = DistEtf::new(6);
        for i in 0..5u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        for v in 0..6u32 {
            etf.reroot(v, &mut c);
            validate(&etf).expect("valid after reroot");
            let (f, _) = etf.f_l(v);
            assert_eq!(f, 1, "tour must start at the new root {v}");
        }
    }

    #[test]
    fn split_leaf_makes_singleton() {
        let mut c = ctx();
        let mut etf = DistEtf::new(4);
        etf.join(Edge::new(0, 1), &mut c);
        etf.join(Edge::new(1, 2), &mut c);
        etf.split(Edge::new(1, 2), &mut c);
        validate(&etf).expect("valid");
        assert_ne!(etf.tour_of(2), etf.tour_of(1));
        assert_eq!(etf.tour_len(etf.tour_of(2)), 0);
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4);
    }

    #[test]
    fn split_middle_of_path() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        for i in 0..7u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        etf.split(Edge::new(3, 4), &mut c);
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_of(0), etf.tour_of(3));
        assert_eq!(etf.tour_of(4), etf.tour_of(7));
        assert_ne!(etf.tour_of(3), etf.tour_of(4));
        assert_eq!(etf.tour_len(etf.tour_of(0)), 12);
        assert_eq!(etf.tour_len(etf.tour_of(4)), 12);
    }

    #[test]
    fn split_then_rejoin_roundtrip() {
        let mut c = ctx();
        let mut etf = DistEtf::new(10);
        for i in 0..9u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        for mid in [2u32, 5, 7] {
            etf.split(Edge::new(mid, mid + 1), &mut c);
            validate(&etf).expect("valid after split");
            etf.join(Edge::new(mid, mid + 1), &mut c);
            validate(&etf).expect("valid after rejoin");
        }
        assert_eq!(etf.tour_len(etf.tour_of(0)), 36);
    }

    /// The tree edges on the path between `u` and `v`, by
    /// [`EdgeRec::on_path`] over their tour's shard.
    fn path(etf: &DistEtf, u: VertexId, v: VertexId) -> Vec<Edge> {
        let (fu, fv) = (etf.f_l(u), etf.f_l(v));
        etf.tour_edges(etf.tour_of(u))
            .filter(|(_, r)| r.on_path(fu, fv))
            .map(|(e, _)| e)
            .collect()
    }

    #[test]
    fn path_on_path_graph() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        for i in 0..7u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        // A shard iterates in edge order, so the path comes sorted.
        assert_eq!(
            path(&etf, 2, 6),
            vec![
                Edge::new(2, 3),
                Edge::new(3, 4),
                Edge::new(4, 5),
                Edge::new(5, 6)
            ]
        );
        assert!(path(&etf, 3, 3).is_empty());
    }

    #[test]
    fn path_through_branching() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        // Star with center 0 plus a tail 1-5-6.
        for i in 1..5u32 {
            etf.join(Edge::new(0, i), &mut c);
        }
        etf.join(Edge::new(1, 5), &mut c);
        etf.join(Edge::new(5, 6), &mut c);
        assert_eq!(
            path(&etf, 6, 3),
            vec![
                Edge::new(0, 1),
                Edge::new(0, 3),
                Edge::new(1, 5),
                Edge::new(5, 6)
            ]
        );
    }

    #[test]
    #[should_panic(expected = "create a cycle")]
    fn join_cycle_panics() {
        let mut c = ctx();
        let mut etf = DistEtf::new(3);
        etf.join(Edge::new(0, 1), &mut c);
        etf.join(Edge::new(1, 2), &mut c);
        etf.join(Edge::new(0, 2), &mut c);
    }

    #[test]
    fn words_track_edges() {
        let mut c = ctx();
        let mut etf = DistEtf::new(10);
        let w0 = etf.words();
        etf.join(Edge::new(0, 1), &mut c);
        assert_eq!(etf.words(), w0 + 6);
    }

    #[test]
    fn occurrences_count_is_twice_degree() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        etf.join(Edge::new(0, 1), &mut c);
        etf.join(Edge::new(1, 2), &mut c);
        etf.join(Edge::new(1, 3), &mut c);
        // Degree 3 vertex occurs 6 times; leaves occur twice.
        assert_eq!(etf.occurrences(1).len(), 6);
        assert_eq!(etf.occurrences(0).len(), 2);
        assert_eq!(etf.occurrences(3).len(), 2);
        // f/ℓ bracket every occurrence.
        let occ = etf.occurrences(1);
        let (f, l) = etf.f_l(1);
        assert_eq!(f, occ[0]);
        assert_eq!(l, *occ.last().unwrap());
    }

    #[test]
    fn subtree_interval_brackets_descendants() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        // 0 - 1 - 2 - 3 rooted wherever the ops left it; pick the
        // edge {1,2} and check its far side's occurrences sit inside
        // the subtree interval.
        for i in 0..3u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        etf.reroot(0, &mut c);
        let rec = *etf.edge_rec(Edge::new(1, 2)).unwrap();
        let (lo, hi) = rec.subtree_interval();
        for v in [2u32, 3] {
            let (f, l) = etf.f_l(v);
            assert!(f >= lo && l <= hi, "vertex {v} escapes subtree interval");
        }
        for v in [0u32, 1] {
            let (f, l) = etf.f_l(v);
            assert!(f < lo || l > hi, "vertex {v} must have occurrences outside");
        }
    }

    #[test]
    fn tour_members_and_lengths_consistent() {
        let mut c = ctx();
        let mut etf = DistEtf::new(10);
        for i in 0..4u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        etf.join(Edge::new(6, 7), &mut c);
        let big = etf.tour_of(0);
        let small = etf.tour_of(6);
        assert_eq!(etf.tour_members(big).len(), 5);
        assert_eq!(etf.tour_members(small).len(), 2);
        assert_eq!(etf.tour_len(big), 16);
        assert_eq!(etf.tour_len(small), 4);
        // Tours partition the vertex set.
        let total: usize = etf.tours().map(|t| etf.tour_members(t).len()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn reroot_singleton_is_noop() {
        let mut c = ctx();
        let mut etf = DistEtf::new(3);
        etf.reroot(1, &mut c);
        assert_eq!(etf.tour_len(etf.tour_of(1)), 0);
        validate(&etf).expect("valid");
    }

    /// Saves `etf` and loads it back, as a checkpoint cycle would.
    fn reload(etf: &DistEtf) -> Result<DistEtf, mpc_snapshot::SnapshotError> {
        let mut w = mpc_snapshot::SnapshotWriter::new(0);
        mpc_snapshot::save_section(&mut w, "etf", etf);
        let snap = mpc_snapshot::Snapshot::from_bytes(&w.finish())?;
        mpc_snapshot::load_section(&snap, "etf")
    }

    /// A path 0-1-2-3-4 (one tour, four records) and the tour's id.
    fn path_forest() -> (DistEtf, TourId) {
        let mut c = ctx();
        let mut etf = DistEtf::new(6);
        for i in 0..4u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        let t = etf.tour_of(0);
        assert_eq!(
            reload(&etf).expect("a valid forest loads").words(),
            etf.words()
        );
        (etf, t)
    }

    fn assert_corrupt(etf: &DistEtf, needle: &str) {
        match reload(etf) {
            Err(mpc_snapshot::SnapshotError::Corrupt(what)) => {
                assert!(what.contains(needle), "{what:?} lacks {needle:?}")
            }
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_a_shard_out_of_edge_order() {
        let (mut etf, t) = path_forest();
        etf.shards.get_mut(&t).unwrap().swap(1, 2);
        assert_corrupt(&etf, &format!("tour {t}: shard not strictly ascending"));
    }

    #[test]
    fn load_rejects_a_record_labelled_with_another_tour() {
        let (mut etf, t) = path_forest();
        etf.shards.get_mut(&t).unwrap()[3].1.tour = 5;
        assert_corrupt(
            &etf,
            &format!("tour {t}: shard holds another tour's record"),
        );
    }

    #[test]
    fn load_rejects_an_unsorted_member_list() {
        let (mut etf, t) = path_forest();
        etf.members.get_mut(&t).unwrap().swap(0, 4);
        assert_corrupt(
            &etf,
            &format!("tour {t}: member list not strictly ascending"),
        );
    }

    #[test]
    fn ops_charge_constant_rounds() {
        let mut c = ctx();
        let mut etf = DistEtf::new(64);
        let budget = 3 * c.config().round_budget_per_primitive();
        for i in 0..10u32 {
            c.begin_phase("join");
            etf.join(Edge::new(i, i + 1), &mut c);
            let r = c.end_phase();
            assert!(r.rounds <= budget, "join rounds {} > {budget}", r.rounds);
        }
        c.begin_phase("split");
        etf.split(Edge::new(5, 6), &mut c);
        let r = c.end_phase();
        assert!(r.rounds <= budget);
    }
}
