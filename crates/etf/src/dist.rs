//! The distributed Euler-tour forest and its single-edge operations.

use mpc_graph::ids::{Edge, VertexId};
use mpc_sim::MpcContext;
use std::collections::BTreeMap;

/// One tour's edge records in edge order: the form a snapshot stores a
/// tour in.
pub(crate) type Shard = Vec<(Edge, EdgeRec)>;

/// Block capacity: a block holds at most `B` consecutive traversals of
/// one tour, and a splice merges a block below `B / 4` into its
/// neighbour. A splice costs `O(B + blocks)`: it splits at most one
/// block per cut point and renumbers the block starts of the tours it
/// touches. Smaller blocks make a block split cheaper and the
/// renumbering dearer: 64 read `churn` faster but a join or split on a
/// 16k-edge tour 1.6–1.9× its cost on a 1k-edge one, while 128, 192 and
/// 256 read the same on `churn` and `grow` and only 256 keeps that
/// ratio well under 1.5 (Standing lessons "ETF" in the roadmap).
const B: usize = 256;

/// Where a traversal is stored: its block and its slot in that block.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct Handle {
    block: u32,
    slot: u32,
}

/// A run of consecutive traversals of one tour, each `(from, to)`.
#[derive(Debug, Clone, Default)]
pub(crate) struct Block {
    /// The tour index of the block's first traversal.
    pub(crate) start: usize,
    pub(crate) trav: Vec<(VertexId, VertexId)>,
}

/// One Euler tour: its blocks in tour order (none for a singleton) and
/// its members, sorted ascending. Traversal `i` of the tour sits at
/// positions `2i + 1` (its `from`) and `2i + 2` (its `to`), so the
/// tour's length `2·|traversals|` is stored nowhere.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tour {
    pub(crate) blocks: Vec<u32>,
    pub(crate) members: Vec<VertexId>,
}

impl Tour {
    pub(crate) fn singleton(v: VertexId) -> Self {
        Tour {
            members: vec![v],
            ..Tour::default()
        }
    }
}

/// A tour spliced into another over a new forest edge `{u, v}`: the
/// tour of node `child`, rerooted at `v`, enters the sequence of node
/// `parent` in front of its traversal `x` (the first one leaving `u`),
/// between the edge's traversals `u → v` and `v → u`.
pub(crate) struct Graft {
    pub(crate) parent: usize,
    pub(crate) x: usize,
    pub(crate) child: usize,
    pub(crate) u: VertexId,
    pub(crate) v: VertexId,
}

/// Splices a run into a sorted vector — a member list — in place, from
/// the back: only the entries above the run's smallest key move, one
/// block per run entry. Each run entry finds its block by a galloping
/// search down from the one before, so the probes move backward through
/// the vector and stay near each other.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn splice_sorted<T: Copy + Ord>(into: &mut Vec<T>, mut run: Vec<T>) {
    run.sort_unstable();
    if into.is_empty() {
        *into = run;
        return;
    }
    let mut end = into.len();
    into.extend_from_slice(&run);
    let mut out = into.len();
    for x in run.into_iter().rev() {
        // Every entry in `hi..end` is at least `x`; the first one of
        // them lies in `lo..=hi` once `into[lo]` is below `x`.
        let (mut lo, mut hi, mut step) = (end, end, 1);
        while lo > 0 && into[lo - 1] >= x {
            hi = lo - 1;
            lo = hi.saturating_sub(step);
            step *= 2;
        }
        let at = lo + into[lo..hi].partition_point(|y| *y < x);
        debug_assert!(into[..end].get(at) != Some(&x), "key spliced twice");
        into.copy_within(at..end, out - (end - at));
        out -= end - at + 1;
        into[out] = x;
        end = at;
    }
}

/// Takes the entries `gone` lists (sorted; one the vector does not hold
/// is skipped) out of a sorted vector — a member list — in place from
/// the front, the mirror of [`splice_sorted`]: each is found by a
/// galloping search from the one before, and only the entries above the
/// first one taken move, one block per entry taken.
pub(crate) fn extract_sorted<T: Copy + Ord>(from: &mut Vec<T>, gone: &[T]) {
    // `from[..write]` is final, `from[read..]` still in place, and no
    // entry below `scan` holds a key still to come.
    let (mut read, mut write, mut scan) = (0, 0, 0);
    for k in gone {
        if scan == from.len() {
            break;
        }
        // Every entry below `lo` is smaller than `k`; the first one at
        // least `k` lies in `lo..=hi`.
        let (mut lo, mut hi, mut step) = (scan, scan, 1);
        while from.get(hi).is_some_and(|y| y < k) {
            lo = hi + 1;
            hi = (hi + step).min(from.len());
            step *= 2;
        }
        let at = lo + from[lo..hi].partition_point(|y| y < k);
        scan = at;
        if from.get(at) != Some(k) {
            continue;
        }
        if write != read {
            from.copy_within(read..at, write);
        }
        write += at - read;
        read = at + 1;
        scan = read;
    }
    if write != read {
        from.copy_within(read.., write);
        from.truncate(from.len() - (read - write));
    }
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
    /// Whether this edge lies on the tree path between two vertices
    /// of its tour, given their first and last occurrences
    /// ([`DistEtf::f_l`]) — the local test of Lemma 7.2: the path
    /// crosses the edge iff exactly one endpoint lies in the subtree
    /// below it, whose entries are `first.pos + 1 ..= second.pos`.
    /// Each machine evaluates it on its own edges after one broadcast
    /// of `f/ℓ`; a vertex with itself has the empty path.
    pub fn on_path(&self, (fu, lu): (u64, u64), (fv, lv): (u64, u64)) -> bool {
        let below = |f: u64, l: u64| f > self.first.pos && l <= self.second.pos;
        below(fu, lu) != below(fv, lv)
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
/// State is *vertex- and edge-sharded*: each vertex carries its tour
/// id and, per forest edge, the handle of the traversal that leaves it;
/// each tour is a sequence of blocks of at most `B` traversals, and
/// each block stores the tour index of its first one. A traversal's
/// position is `2·(start + slot) + 1`, read off its handle: positions
/// are exact and gap-free, and no operation renumbers a region. A join,
/// split or reroot splits at most one block per cut point, relinks the
/// block lists, merges blocks that fell below `B / 4` and recomputes
/// the starts of the tours it touched — `O(B + blocks)` work, mirroring
/// the paper's protocol in which each machine updates its own shard
/// from an `O(k)`-word broadcast plan. All operations mutate this state
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
    /// Each vertex's tour id; `tours[vertex_tour[v]]` lists `v`.
    vertex_tour: Vec<TourId>,
    /// Tree neighbors, one strictly ascending row per vertex; `w ∈
    /// adj[v]` exactly when `{v, w}` is a forest edge. A row is the
    /// forest-edge index: membership tests ([`DistEtf::contains_edge`])
    /// read it by binary search, without touching a tour.
    adj: Vec<Vec<VertexId>>,
    /// Beside each row entry `adj[v][i] = w`, the handle of the
    /// traversal `v → w`.
    at: Vec<Vec<Handle>>,
    /// The live tours, one record each (see [`Tour`]). Invariants: the
    /// blocks of `tours[t]` hold every traversal of an edge whose
    /// endpoints are labelled `t`, with starts counting from 0 without a
    /// gap; no block is empty; a tour has one member more than it has
    /// edges; the member lists partition the vertices.
    tours: BTreeMap<TourId, Tour>,
    /// The blocks of every tour, by id; `free` lists the unused ones.
    pub(crate) slab: Vec<Block>,
    free: Vec<u32>,
    /// The block capacity: `B`, except in tests.
    cap: usize,
    /// The number of forest edges, kept so that [`DistEtf::words`] is
    /// `O(1)`.
    pub(crate) edge_count: usize,
    /// The next fresh tour id, above every live one.
    next_id: TourId,
    /// Blocks merged into a neighbour so far.
    #[cfg(test)]
    pub(crate) merges: usize,
}

impl DistEtf {
    /// Creates the forest of `n` singleton tours.
    pub fn new(n: usize) -> Self {
        let tours = (0..n as VertexId)
            .map(|v| (TourId::from(v), Tour::singleton(v)))
            .collect();
        DistEtf {
            n,
            vertex_tour: (0..n as u64).collect(),
            adj: vec![Vec::new(); n],
            at: vec![Vec::new(); n],
            tours,
            slab: Vec::new(),
            free: Vec::new(),
            cap: B,
            edge_count: 0,
            next_id: n as TourId,
            #[cfg(test)]
            merges: 0,
        }
    }

    /// The forest of `n` singletons with blocks of at most `cap`
    /// traversals.
    #[cfg(test)]
    pub(crate) fn with_block_capacity(n: usize, cap: usize) -> Self {
        DistEtf {
            cap,
            ..DistEtf::new(n)
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
        2 * self.traversals(&self.tours[&t].blocks) as u64
    }

    /// The vertices of a tour, sorted ascending.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id.
    pub fn tour_members(&self, t: TourId) -> &[VertexId] {
        &self.tours[&t].members
    }

    /// The label of tour `t`'s component: its smallest member, the
    /// first entry of its sorted member list.
    ///
    /// # Panics
    ///
    /// Panics on an unknown tour id.
    pub fn tour_label(&self, t: TourId) -> VertexId {
        self.tours[&t].members[0]
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
        self.tours.keys().copied()
    }

    /// Whether `e` is a forest (tree) edge: a binary search of `e.u()`'s
    /// adjacency row for `e.v()`, which the adjacency invariant makes
    /// equal to `edge_rec(e).is_some()` without reading a tour.
    pub fn contains_edge(&self, e: Edge) -> bool {
        (e.v() as usize) < self.n && self.adj[e.u() as usize].binary_search(&e.v()).is_ok()
    }

    /// The record of a forest edge: its tour is its endpoints' label,
    /// and each traversal's position is read off its handle.
    pub fn edge_rec(&self, e: Edge) -> Option<EdgeRec> {
        let (u, v) = e.endpoints();
        let there = (self.index(self.handle(u, v)?), u);
        let back = (self.index(self.handle(v, u)?), v);
        Some(self.record(self.vertex_tour[u as usize], there, back))
    }

    /// Iterates over the forest edges, tour by tour and each tour's in
    /// edge order.
    pub fn forest_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.tours.values().flat_map(move |tour| {
            tour.members.iter().flat_map(move |&v| {
                self.adj[v as usize]
                    .iter()
                    .filter(move |&&w| w > v)
                    .map(move |&w| Edge::new(v, w))
            })
        })
    }

    /// Iterates over one tour's edges in edge order, each with its
    /// record — the unit of locality of every tour operation. Its sorted
    /// members, each with its row entries above it, are that order.
    /// Yields nothing for singleton or unknown tours.
    pub fn tour_edges(&self, t: TourId) -> impl Iterator<Item = (Edge, EdgeRec)> + '_ {
        let members = self.tours.get(&t).map_or(&[][..], |tour| &tour.members);
        members.iter().flat_map(move |&v| {
            let row = &self.adj[v as usize];
            row.iter()
                .zip(&self.at[v as usize])
                .filter(move |&(&w, _)| w > v)
                .filter_map(move |(&w, &h)| {
                    let back = (self.index(self.handle(w, v)?), w);
                    Some((Edge::new(v, w), self.record(t, (self.index(h), v), back)))
                })
        })
    }

    /// The tree neighbors of `v`, strictly ascending.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
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

    pub(crate) fn set_vertex_tour(&mut self, v: VertexId, t: TourId) {
        self.vertex_tour[v as usize] = t;
    }

    // ----- traversals and their handles ---------------------------

    /// The tour index of the traversal at `h`.
    fn index(&self, h: Handle) -> usize {
        self.slab[h.block as usize].start + h.slot as usize
    }

    /// The handle of the traversal `from → to`, if `{from, to}` is a
    /// forest edge.
    fn handle(&self, from: VertexId, to: VertexId) -> Option<Handle> {
        let i = self.adj.get(from as usize)?.binary_search(&to).ok()?;
        self.at[from as usize].get(i).copied()
    }

    /// The record of an edge of tour `t` from its two traversals, each
    /// `(tour index, from)`.
    fn record(&self, t: TourId, a: (usize, VertexId), b: (usize, VertexId)) -> EdgeRec {
        let (a, b) = if a.0 < b.0 { (a, b) } else { (b, a) };
        let trav = |(i, from): (usize, VertexId)| Traversal {
            pos: 2 * i as u64 + 1,
            from,
        };
        EdgeRec {
            tour: t,
            first: trav(a),
            second: trav(b),
        }
    }

    /// The tour index of the first traversal leaving `v` (0 for a
    /// singleton): `v`'s tour, rotated there, starts at `v`.
    pub(crate) fn first_out(&self, v: VertexId) -> usize {
        self.at[v as usize]
            .iter()
            .map(|&h| self.index(h))
            .min()
            .unwrap_or(0)
    }

    /// The number of traversals in a tour's blocks.
    pub(crate) fn traversals(&self, blocks: &[u32]) -> usize {
        blocks.last().map_or(0, |&b| {
            let block = &self.slab[b as usize];
            block.start + block.trav.len()
        })
    }

    /// Every traversal of tour `t` in tour order, as `(position, from,
    /// to)`: what the blocks hold, for the validator to hold against
    /// the records the handles give.
    pub(crate) fn walk(&self, t: TourId) -> impl Iterator<Item = (u64, VertexId, VertexId)> + '_ {
        let blocks = self.tours.get(&t).map_or(&[][..], |tour| &tour.blocks);
        blocks.iter().flat_map(move |&b| {
            let block = &self.slab[b as usize];
            (block.start..)
                .zip(&block.trav)
                .map(|(i, &(from, to))| (2 * i as u64 + 1, from, to))
        })
    }

    // ----- block surgery -------------------------------------------

    /// Points the row entry of `from → to` at `h`.
    fn aim(&mut self, from: VertexId, to: VertexId, h: Handle) {
        if let Ok(i) = self.adj[from as usize].binary_search(&to) {
            self.at[from as usize][i] = h;
        }
    }

    /// Re-aims the traversals of block `b` from slot `from` on, after
    /// they moved into it.
    fn rehome(&mut self, b: u32, from: usize) {
        for slot in from..self.slab[b as usize].trav.len() {
            let (v, w) = self.slab[b as usize].trav[slot];
            let slot = slot as u32;
            self.aim(v, w, Handle { block: b, slot });
        }
    }

    /// An empty block, recycled if one is free.
    fn alloc(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            self.slab.push(Block::default());
            (self.slab.len() - 1) as u32
        })
    }

    fn release(&mut self, b: u32) {
        self.slab[b as usize].trav.clear();
        self.free.push(b);
    }

    /// Makes traversal `x` of the tour whose blocks are `list` (starts
    /// current) begin a block, splitting the block that holds it, and
    /// returns that block's place in `list` (`list.len()` at the end).
    /// Only the traversals moved into the new block are re-aimed.
    pub(crate) fn cut(&mut self, list: &mut Vec<u32>, x: usize) -> usize {
        let j = list.partition_point(|&b| self.slab[b as usize].start <= x);
        let Some(&b) = j.checked_sub(1).and_then(|i| list.get(i)) else {
            return 0;
        };
        let block = &self.slab[b as usize];
        let s = x - block.start;
        if s == 0 {
            return j - 1;
        }
        if s >= block.trav.len() {
            return j;
        }
        let nb = self.alloc();
        let mut moved = std::mem::take(&mut self.slab[nb as usize].trav);
        moved.extend_from_slice(&self.slab[b as usize].trav[s..]);
        self.slab[b as usize].trav.truncate(s);
        self.slab[nb as usize] = Block {
            start: x,
            trav: moved,
        };
        self.rehome(nb, 0);
        list.insert(j, nb);
        j
    }

    /// Appends traversal `from → to` to the blocks `list`, in its last
    /// block while that has room, and aims the edge's row entry at it.
    pub(crate) fn push_trav(&mut self, list: &mut Vec<u32>, from: VertexId, to: VertexId) {
        let b = match list.last() {
            Some(&b) if self.slab[b as usize].trav.len() < self.cap => b,
            _ => {
                let b = self.alloc();
                list.push(b);
                b
            }
        };
        let slot = self.slab[b as usize].trav.len();
        self.slab[b as usize].trav.push((from, to));
        let slot = slot as u32;
        self.aim(from, to, Handle { block: b, slot });
    }

    /// Finishes a splice of `list`, whose blocks in front of `from` it
    /// left as they were: from there on, drops empty blocks, merges a
    /// block into its predecessor when either holds fewer than `cap / 4`
    /// traversals and the two fit one block, and recomputes the starts.
    pub(crate) fn settle(&mut self, list: &mut Vec<u32>, from: usize) {
        let (low, cap) = (self.cap / 4, self.cap);
        // Where the next block starts, and the length of the one in
        // front of it (`low` when there is none, which merges with
        // nothing).
        let mut i = from;
        let (mut start, mut have) = match i.checked_sub(1) {
            Some(j) => {
                let block = &self.slab[list[j] as usize];
                (block.start + block.trav.len(), block.trav.len())
            }
            None => (0, low),
        };
        while i < list.len() {
            // The common case: a block that neither is small nor follows
            // a small one only takes its start.
            for &b in &list[i..] {
                let block = &mut self.slab[b as usize];
                let len = block.trav.len();
                if len < low || have < low || len == 0 {
                    break;
                }
                block.start = start;
                start += len;
                have = len;
                i += 1;
            }
            let Some(&b) = list.get(i) else {
                break;
            };
            let len = self.slab[b as usize].trav.len();
            match i.checked_sub(1).map(|j| list[j]) {
                _ if len == 0 => {}
                Some(into) if (have < low || len < low) && have + len <= cap => {
                    let moved = std::mem::take(&mut self.slab[b as usize].trav);
                    self.slab[into as usize].trav.extend_from_slice(&moved);
                    self.slab[b as usize].trav = moved;
                    self.rehome(into, have);
                    start += len;
                    have += len;
                    #[cfg(test)]
                    {
                        self.merges += 1;
                    }
                }
                _ => {
                    self.slab[b as usize].start = start;
                    start += len;
                    have = len;
                    i += 1;
                    continue;
                }
            }
            self.release(b);
            list.remove(i);
        }
    }

    /// Registers `e` in the tree adjacency: each endpoint's row takes
    /// the other at its sorted place, with a handle the caller aims.
    fn add_adjacency(&mut self, e: Edge) {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            let row = &mut self.adj[v as usize];
            if let Err(i) = row.binary_search(&w) {
                row.insert(i, w);
                self.at[v as usize].insert(i, Handle::default());
            }
        }
    }

    /// Drops `e` from the tree adjacency, handles included.
    pub(crate) fn remove_adjacency(&mut self, e: Edge) {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            let row = &mut self.adj[v as usize];
            if let Ok(i) = row.binary_search(&w) {
                row.remove(i);
                self.at[v as usize].remove(i);
            }
        }
    }

    /// Takes tour `t`'s record out of the tour table (an empty one if
    /// `t` is not live).
    pub(crate) fn take_tour(&mut self, t: TourId) -> Tour {
        self.tours.remove(&t).unwrap_or_default()
    }

    /// Installs a tour record under `t`.
    pub(crate) fn put_tour(&mut self, t: TourId, tour: Tour) {
        self.tours.insert(t, tour);
    }

    /// Splices tours together along new forest edges (the [`Graft`]s,
    /// each child already rerooted at its `v`): the merged tour is
    /// `nodes[root]`'s sequence with each child's expanded one inserted
    /// in front of its traversal `x`, children at one `x` in `child`
    /// order. It keeps `nodes[root]`'s id; each child's members take it.
    /// The root's blocks are split at most once per graft, the
    /// children's move whole, and the new traversals fill the block in
    /// front of them or a fresh one.
    pub(crate) fn graft(&mut self, nodes: &[TourId], root: usize, grafts: &mut [Graft]) {
        grafts.sort_unstable_by_key(|g| (g.parent, g.x, g.child));
        let mut parts: Vec<Tour> = nodes.iter().map(|&t| self.take_tour(t)).collect();
        // Each graft's place in its parent's block list.
        let mut place = Vec::with_capacity(grafts.len());
        for g in grafts.iter() {
            place.push(self.cut(&mut parts[g.parent].blocks, g.x));
            self.add_adjacency(Edge::new(g.u, g.v));
        }
        let first = |node: usize| grafts.partition_point(|g| g.parent < node);
        let mut out = Vec::with_capacity(parts.iter().map(|p| p.blocks.len()).sum::<usize>() + 1);
        // Depth first: (node, its next graft, its next block, the
        // traversal back up into its parent).
        let mut stack = vec![(root, first(root), 0, None)];
        while let Some(&(node, next, from, up)) = stack.last() {
            let blocks = &parts[node].blocks;
            match grafts.get(next).filter(|g| g.parent == node) {
                Some(g) => {
                    out.extend_from_slice(&blocks[from..place[next]]);
                    let top = stack.len() - 1;
                    stack[top] = (node, next + 1, place[next], up);
                    self.push_trav(&mut out, g.u, g.v);
                    stack.push((g.child, first(g.child), 0, Some((g.v, g.u))));
                }
                None => {
                    out.extend_from_slice(&blocks[from..]);
                    stack.pop();
                    if let Some((v, u)) = up {
                        self.push_trav(&mut out, v, u);
                    }
                }
            }
        }
        // The root's blocks in front of its first graft are as they were.
        let from = grafts
            .iter()
            .position(|g| g.parent == root)
            .map_or(0, |i| place[i]);
        self.settle(&mut out, from.saturating_sub(1));
        let id = nodes[root];
        let mut tour = std::mem::take(&mut parts[root]);
        let extra: Vec<VertexId> = parts.into_iter().flat_map(|p| p.members).collect();
        for &w in &extra {
            self.set_vertex_tour(w, id);
        }
        splice_sorted(&mut tour.members, extra);
        tour.blocks = out;
        self.edge_count += grafts.len();
        self.put_tour(id, tour);
    }

    // ----- occurrence bookkeeping ---------------------------------

    /// All positions at which `v` occurs in its tour (2·deg entries),
    /// ascending. A traversal `i` leaving `v` puts `v` at `2i + 1`, and
    /// the traversal before it arrives at `v`, at `2i` (the tour's last
    /// entry for `i = 0`).
    pub fn occurrences(&self, v: VertexId) -> Vec<u64> {
        let len = || self.tour_len(self.vertex_tour[v as usize]);
        let mut out: Vec<u64> = self.at[v as usize]
            .iter()
            .flat_map(|&h| {
                let i = self.index(h) as u64;
                [if i == 0 { len() } else { 2 * i }, 2 * i + 1]
            })
            .collect();
        out.sort_unstable();
        out
    }

    /// First and last occurrence `(f(v), ℓ(v))`; `(0, 0)` for a
    /// singleton. One pass over `v`'s handles: the first occurrence is
    /// the arrival in front of the first traversal leaving `v`, and the
    /// last the departure of the last one — or, when `v` is the root,
    /// entry 1 and the tour's last entry.
    pub fn f_l(&self, v: VertexId) -> (u64, u64) {
        let mut at = self.at[v as usize].iter().map(|&h| self.index(h) as u64);
        let Some(i) = at.next() else {
            return (0, 0);
        };
        let (lo, hi) = at.fold((i, i), |(lo, hi), i| (lo.min(i), hi.max(i)));
        if lo == 0 {
            (1, self.tour_len(self.vertex_tour[v as usize]))
        } else {
            (2 * lo, 2 * hi + 1)
        }
    }

    // ----- rooting -------------------------------------------------

    /// Rotates `v`'s tour to start at the first traversal leaving `v`:
    /// the block holding it is split there and the block list rotated.
    #[expect(
        clippy::expect_used,
        reason = "tour invariant — every vertex's tour is live"
    )]
    pub(crate) fn reroot_uncharged(&mut self, v: VertexId) {
        let x = self.first_out(v);
        if x == 0 {
            return;
        }
        let t = self.vertex_tour[v as usize];
        let mut list = std::mem::take(&mut self.tours.get_mut(&t).expect("live tour").blocks);
        let k = self.cut(&mut list, x);
        list.rotate_left(k);
        self.settle(&mut list, 0);
        self.tours.get_mut(&t).expect("live tour").blocks = list;
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
    /// `root_end`'s tour anchors in place, `child_end`'s tour is
    /// rerooted at `child_end` and spliced in front of the first
    /// traversal leaving `root_end`. The one single-edge splice of
    /// [`DistEtf::join`] and `batch_join`.
    pub(crate) fn link(&mut self, root_end: VertexId, child_end: VertexId) {
        let nodes = [self.tour_of(root_end), self.tour_of(child_end)];
        self.reroot_uncharged(child_end);
        let x = self.first_out(root_end);
        self.graft(
            &nodes,
            0,
            &mut [Graft {
                parent: 0,
                x,
                child: 1,
                u: root_end,
                v: child_end,
            }],
        );
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

    /// The tour of forest edge `e` and the tour indices of its two
    /// traversals, ascending: the cut a split of `e` makes.
    pub(crate) fn cut_of(&self, e: Edge) -> Option<(TourId, (usize, usize, Edge))> {
        let (u, v) = e.endpoints();
        let (a, b) = (
            self.index(self.handle(u, v)?),
            self.index(self.handle(v, u)?),
        );
        Some((self.vertex_tour[u as usize], (a.min(b), a.max(b), e)))
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
        let (t, cut) = self.cut_of(e).expect("split of non-tree edge");
        // A one-cut split: the detached side is the cut's region,
        // which takes the first id `split_tour` allocates.
        let child = self.next_id;
        self.split_tour(t, &[cut]);
        (t, child)
    }
}

// The section holds one table per kind of per-tour fact — edge shards
// of the tours that have edges, the edge count, a length per live
// tour, member lists, the id allocator — the layout that existing
// snapshot files and the byte pins (`crates/etf/tests/state_digest.rs`,
// `tests/session_checkpoint.rs`) hold. A shard is written in edge order
// by walking the tour's sorted members and each one's row entries above
// it, each record's positions read off its handles; a length is written
// as `4·|edges|` and a load refuses any other. A load decodes the
// tables, checks them against the invariants the mutation paths
// maintain, and lays each tour out in blocks, refusing two traversals
// at one position: with every position odd and inside its tour, that
// also rules out a gap. The rest of tour-walk validity (the seams) is
// `tour::validate`'s to check.
impl mpc_snapshot::Persist for DistEtf {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        self.n.save(w);
        self.vertex_tour.save(w);
        self.adj.save(w);
        let edges = |tour: &Tour| self.traversals(&tour.blocks) as u64 / 2;
        let with_edges = || {
            self.tours
                .iter()
                .filter(|(_, tour)| !tour.blocks.is_empty())
        };
        w.put_usize(with_edges().count());
        for (&t, tour) in with_edges() {
            t.save(w);
            w.put_u64(edges(tour));
            for record in self.tour_edges(t) {
                record.save(w);
            }
        }
        self.edge_count.save(w);
        w.put_usize(self.tours.len());
        for (&t, tour) in &self.tours {
            t.save(w);
            w.put_u64(4 * edges(tour));
        }
        w.put_usize(self.tours.len());
        for (t, tour) in &self.tours {
            t.save(w);
            tour.members.save(w);
        }
        self.next_id.save(w);
    }

    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let corrupt = |what: String| Err(mpc_snapshot::SnapshotError::Corrupt(what));
        let n = usize::load(r)?;
        let vertex_tour = Vec::<TourId>::load(r)?;
        // Each row decodes straight into its `Vec`; `check` refuses one
        // that is not strictly ascending.
        let adj = Vec::<Vec<VertexId>>::load(r)?;
        let mut tours: BTreeMap<TourId, (Shard, Vec<VertexId>)> = BTreeMap::new();
        for _ in 0..r.take_usize()? {
            let t = TourId::load(r)?;
            let edges = Shard::load(r)?;
            if edges.is_empty() || tours.last_key_value().is_some_and(|(&last, _)| last >= t) {
                return corrupt(format!("tour {t}: empty or out-of-order edge shard"));
            }
            tours.entry(t).or_default().0 = edges;
        }
        let edge_count = usize::load(r)?;
        let live = r.take_usize()?;
        let mut last = None;
        for _ in 0..live {
            let t = TourId::load(r)?;
            let len = u64::load(r)?;
            let edges = tours.entry(t).or_default().0.len();
            if last.replace(t).is_some_and(|last| last >= t) || len != 4 * edges as u64 {
                return corrupt(format!(
                    "tour {t}: stored length {len} out of order or != 4 × {edges} edges"
                ));
            }
        }
        if tours.len() != live || r.take_usize()? != live {
            return corrupt(
                "edge shard, length and member tables disagree on the live tours".into(),
            );
        }
        for (&t, (_, members)) in &mut tours {
            if TourId::load(r)? != t {
                return corrupt(format!("tour {t} has no member list"));
            }
            *members = Vec::load(r)?;
        }
        let loaded = Loaded {
            n,
            vertex_tour,
            adj,
            tours,
            edge_count,
            next_id: TourId::load(r)?,
        };
        loaded.build().map_err(mpc_snapshot::SnapshotError::Corrupt)
    }
}

/// A decoded section, checked as it is laid out in blocks.
struct Loaded {
    n: usize,
    vertex_tour: Vec<TourId>,
    adj: Vec<Vec<VertexId>>,
    tours: BTreeMap<TourId, (Shard, Vec<VertexId>)>,
    edge_count: usize,
    next_id: TourId,
}

impl Loaded {
    /// Checks the cross-structure invariants a loaded forest must meet
    /// while it lays each tour out in full blocks, traversal by
    /// traversal at its position, and aims every row entry at its
    /// traversal: the row probe that finds the entry is the adjacency
    /// check, and a slot already filled is two traversals at one
    /// position.
    fn build(self) -> Result<DistEtf, String> {
        let Loaded {
            n,
            vertex_tour,
            adj,
            tours,
            edge_count,
            next_id,
        } = self;
        let (ids, rows) = (vertex_tour.len(), adj.len());
        if ids != n || rows != n {
            return Err(format!(
                "forest over {n} vertices has {ids} tour ids and {rows} adjacency rows"
            ));
        }
        // Every probe below is a binary search of a row.
        if let Some(v) = adj.iter().position(|row| !row.is_sorted_by(|a, b| a < b)) {
            return Err(format!("vertex {v}: adjacency row not strictly ascending"));
        }
        let mut at: Vec<Vec<Handle>> = adj
            .iter()
            .map(|row| vec![Handle::default(); row.len()])
            .collect();
        let (mut slab, mut laid): (Vec<Block>, BTreeMap<TourId, Tour>) = Default::default();
        // The member lists partition the vertices, each member labelled
        // with its own tour (so every vertex's tour is live). A shard is
        // written in edge order, and splits subtract sorted member runs.
        let (mut covered, mut edges) = (0, 0);
        let live = tours.last_key_value().map(|(&t, _)| t);
        for (t, (shard, members)) in tours {
            let inside = |v: VertexId| vertex_tour.get(v as usize) == Some(&t);
            if !members.is_sorted_by(|a, b| a < b) {
                return Err(format!("tour {t}: member list not strictly ascending"));
            }
            if let Some(v) = members.iter().find(|&&v| !inside(v)) {
                return Err(format!("tour {t}: member {v} is not labelled with it"));
            }
            if !shard.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(format!("tour {t}: shard not strictly ascending by edge"));
            }
            let first = slab.len();
            for start in (0..2 * shard.len()).step_by(B) {
                let len = B.min(2 * shard.len() - start);
                let trav = vec![(VertexId::MAX, VertexId::MAX); len];
                slab.push(Block { start, trav });
            }
            // A traversal occupies positions `pos` and `pos + 1` of a
            // tour of length `4·|edges|` and starts at an odd one.
            let len = 4 * shard.len() as u64;
            let misplaced = |pos: u64| pos.is_multiple_of(2) || pos >= len;
            for (e, rec) in &shard {
                let froms = (rec.first.from, rec.second.from);
                let lie = if rec.tour != t {
                    "another tour's record"
                } else if !inside(e.u()) || !inside(e.v()) {
                    "a record with an endpoint outside it"
                } else if froms != (e.u(), e.v()) && froms != (e.v(), e.u()) {
                    "a record that does not cross its edge both ways"
                } else if misplaced(rec.first.pos) || misplaced(rec.second.pos) {
                    "a traversal at an even position or past the tour's end"
                } else {
                    let mut lie = None;
                    for Traversal { pos, from } in [rec.first, rec.second] {
                        let to = e.other(from);
                        let Ok(i) = adj[from as usize].binary_search(&to) else {
                            lie = Some("a record missing from the adjacency");
                            break;
                        };
                        let x = (pos / 2) as usize;
                        let (block, slot) = (first + x / B, x % B);
                        let entry = &mut slab[block].trav[slot];
                        if entry.0 != VertexId::MAX {
                            return Err(format!("tour {t}: two traversals at position {pos}"));
                        }
                        *entry = (from, to);
                        let (block, slot) = (block as u32, slot as u32);
                        at[from as usize][i] = Handle { block, slot };
                    }
                    match lie {
                        Some(lie) => lie,
                        None => continue,
                    }
                };
                return Err(format!("tour {t}: shard holds {lie}: {e}"));
            }
            let (m, k) = (members.len(), shard.len());
            if m != k + 1 {
                return Err(format!("tour {t}: {m} members for {k} edges"));
            }
            (covered, edges) = (covered + m, edges + k);
            let blocks = (first as u32..slab.len() as u32).collect();
            laid.insert(t, Tour { blocks, members });
        }
        // With every record's two entries present, equal counts leave
        // no adjacency entry without a record.
        let entries: usize = adj.iter().map(Vec::len).sum();
        if covered != n || edges != edge_count || entries != 2 * edge_count {
            return Err(format!(
                "{n} vertices, {edge_count} edges: members cover {covered}, shards hold {edges}, \
                 adjacency has {entries} entries"
            ));
        }
        if next_id < n as TourId || live.is_some_and(|t| next_id <= t) {
            return Err(format!(
                "tour id allocator {next_id} not above the live ids and 0..{n}"
            ));
        }
        Ok(DistEtf {
            n,
            vertex_tour,
            adj,
            at,
            tours: laid,
            slab,
            free: Vec::new(),
            cap: B,
            edge_count,
            next_id,
            #[cfg(test)]
            merges: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::validate;
    use mpc_sim::MpcConfig;
    use mpc_snapshot::{Persist, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};
    use std::collections::BTreeSet;

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
        // Rooted at 0, the subtree below {3,4} is {4..7}: the edge lies
        // on a path exactly when one end of it is down there.
        etf.reroot(0, &mut c);
        let rec = etf.edge_rec(Edge::new(3, 4)).unwrap();
        for (a, b) in (0..8u32).flat_map(|a| (0..8u32).map(move |b| (a, b))) {
            let crosses = (a >= 4) != (b >= 4);
            assert_eq!(rec.on_path(etf.f_l(a), etf.f_l(b)), crosses, "{a}-{b}");
        }
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

    /// Fault injection and block inspection for the validator's and the
    /// twin run's tests.
    impl DistEtf {
        /// Aims the row entry of `from → to` at the traversal `like`'s
        /// entry points at.
        pub(crate) fn aim_like(
            &mut self,
            (from, to): (VertexId, VertexId),
            like: (VertexId, VertexId),
        ) {
            let h = self.handle(like.0, like.1).unwrap();
            self.aim(from, to, h);
        }

        /// The block of tour `t` holding traversal `x`, and `x`'s slot.
        fn locate(&self, t: TourId, x: usize) -> (u32, usize) {
            let blocks = &self.tours[&t].blocks;
            let j = blocks.partition_point(|&b| self.slab[b as usize].start <= x) - 1;
            (blocks[j], x - self.slab[blocks[j] as usize].start)
        }

        /// Swaps traversals `x` and `y` of tour `t` in its blocks,
        /// leaving every handle where it was.
        pub(crate) fn swap_traversals(&mut self, t: TourId, x: usize, y: usize) {
            let ((bx, sx), (by, sy)) = (self.locate(t, x), self.locate(t, y));
            let a = self.slab[bx as usize].trav[sx];
            let b = std::mem::replace(&mut self.slab[by as usize].trav[sy], a);
            self.slab[bx as usize].trav[sx] = b;
        }

        /// Traversal `x` of tour `t`'s slot and its block's length.
        pub(crate) fn place(&self, t: TourId, x: usize) -> (usize, usize) {
            let (b, slot) = self.locate(t, x);
            (slot, self.slab[b as usize].trav.len())
        }
    }

    /// The section bytes of `value`, as a checkpoint writes them.
    fn payload(value: &impl Persist) -> Vec<u8> {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("etf");
        value.save(&mut w);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let mut r = snap.section("etf").unwrap();
        r.take_bytes(r.remaining()).unwrap().to_vec()
    }

    /// Decodes section bytes, requiring them to be consumed exactly.
    fn decode<T: Persist>(bytes: &[u8]) -> Result<T, SnapshotError> {
        let mut r = SnapshotReader::over("etf", bytes);
        let value = T::load(&mut r)?;
        r.expect_end()?;
        Ok(value)
    }

    /// The section's tables one by one, in the order they are written:
    /// a forger for states the forest itself cannot hold.
    struct Tables {
        n: usize,
        vertex_tour: Vec<TourId>,
        adj: Vec<BTreeSet<VertexId>>,
        shards: BTreeMap<TourId, Shard>,
        edge_count: usize,
        tour_len: BTreeMap<TourId, u64>,
        members: BTreeMap<TourId, Vec<VertexId>>,
        next_id: TourId,
    }

    mpc_snapshot::persist_struct!(Tables {
        n,
        vertex_tour,
        adj,
        shards,
        edge_count,
        tour_len,
        members,
        next_id,
    });

    /// Saves `etf`, lets `lie` edit its tables, and loads the result.
    fn forged(etf: &DistEtf, lie: impl FnOnce(&mut Tables)) -> Result<DistEtf, SnapshotError> {
        let mut tables: Tables = decode(&payload(etf)).unwrap();
        lie(&mut tables);
        decode(&payload(&tables))
    }

    /// A path 0-1-2-3-4 (tour 0, four records) beside the singleton 5.
    fn path_forest() -> DistEtf {
        let mut c = ctx();
        let mut etf = DistEtf::new(6);
        for i in 0..4u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        assert_eq!(etf.tours().collect::<Vec<_>>(), [0, 5]);
        let reloaded = forged(&etf, |_| {}).expect("a valid forest loads");
        assert_eq!(payload(&reloaded), payload(&etf));
        etf
    }

    fn assert_corrupt(etf: &DistEtf, needle: &str, lie: impl FnOnce(&mut Tables)) {
        match forged(etf, lie) {
            Err(SnapshotError::Corrupt(what)) => {
                assert!(what.contains(needle), "{what:?} lacks {needle:?}")
            }
            other => panic!("expected Corrupt({needle}), got {other:?}"),
        }
    }

    #[test]
    fn load_rejects_a_shard_out_of_edge_order() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard not strictly ascending",
            |s| s.shards.get_mut(&0).unwrap().swap(1, 2),
        );
    }

    #[test]
    fn load_rejects_a_record_labelled_with_another_tour() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard holds another tour's record",
            |s| s.shards.get_mut(&0).unwrap()[3].1.tour = 5,
        );
    }

    #[test]
    fn load_rejects_an_unsorted_member_list() {
        assert_corrupt(
            &path_forest(),
            "tour 0: member list not strictly ascending",
            |s| s.members.get_mut(&0).unwrap().swap(0, 4),
        );
    }

    #[test]
    fn load_rejects_a_stored_length_other_than_four_per_edge() {
        assert_corrupt(
            &path_forest(),
            "tour 0: stored length 20 out of order or != 4 × 4 edges",
            |s| *s.tour_len.get_mut(&0).unwrap() += 4,
        );
    }

    #[test]
    fn load_rejects_an_edge_shard_whose_tour_has_no_member_list() {
        assert_corrupt(&path_forest(), "tables disagree on the live tours", |s| {
            let mut shard = s.shards.remove(&0).unwrap();
            for (_, rec) in &mut shard {
                rec.tour = 9;
            }
            s.shards.insert(9, shard);
            s.tour_len.insert(0, 0);
        });
    }

    #[test]
    fn load_rejects_a_member_labelled_with_another_tour() {
        assert_corrupt(
            &path_forest(),
            "tour 5: member 5 is not labelled with it",
            |s| s.vertex_tour[5] = 0,
        );
    }

    #[test]
    fn load_rejects_member_lists_that_miss_a_vertex() {
        assert_corrupt(&path_forest(), "members cover 5,", |s| {
            s.vertex_tour[5] = 0;
            s.members.remove(&5);
            s.tour_len.remove(&5);
        });
    }

    #[test]
    fn load_rejects_a_record_with_an_endpoint_outside_its_tour() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard holds a record with an endpoint outside it: {3,5}",
            |s| s.shards.get_mut(&0).unwrap()[3].0 = Edge::new(3, 5),
        );
    }

    #[test]
    fn load_rejects_a_record_whose_traversals_leave_one_endpoint() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard holds a record that does not cross its edge both ways: {0,1}",
            |s| {
                let rec = &mut s.shards.get_mut(&0).unwrap()[0].1;
                rec.second.from = rec.first.from;
            },
        );
    }

    #[test]
    fn load_rejects_an_adjacency_entry_without_a_record() {
        assert_corrupt(&path_forest(), "adjacency has 10 entries", |s| {
            s.adj[0].insert(5);
            s.adj[5].insert(0);
        });
    }

    #[test]
    fn load_rejects_a_record_missing_from_the_adjacency() {
        assert_corrupt(
            &path_forest(),
            "shard holds a record missing from the adjacency: {3,4}",
            |s| {
                s.adj[4].remove(&3);
            },
        );
    }

    /// A row is decoded as written, so a forged row with a repeated or
    /// descending entry must be refused before any probe reads it.
    #[test]
    fn load_rejects_an_unsorted_adjacency_row() {
        for (lie, row) in [("duplicate", vec![0, 2, 2]), ("descending", vec![2, 0])] {
            let mut etf = path_forest();
            etf.adj[1] = row;
            match decode::<DistEtf>(&payload(&etf)) {
                Err(SnapshotError::Corrupt(what)) => assert!(
                    what.contains("vertex 1: adjacency row not strictly ascending"),
                    "{lie}: {what:?}"
                ),
                other => panic!("{lie}: expected Corrupt, got {other:?}"),
            }
        }
    }

    #[test]
    fn load_rejects_a_tour_with_more_members_than_edges_plus_one() {
        assert_corrupt(&path_forest(), "tour 0: 6 members for 4 edges", |s| {
            s.vertex_tour[5] = 0;
            s.members.get_mut(&0).unwrap().push(5);
            s.members.remove(&5);
            s.tour_len.remove(&5);
        });
    }

    #[test]
    fn load_rejects_a_traversal_at_an_even_position() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard holds a traversal at an even position or past the tour's end: {2,3}",
            |s| {
                let rec = &mut s.shards.get_mut(&0).unwrap()[2].1;
                rec.second.pos = rec.first.pos + 1;
            },
        );
    }

    #[test]
    fn load_rejects_a_traversal_past_the_tours_end() {
        assert_corrupt(
            &path_forest(),
            "tour 0: shard holds a traversal at an even position or past the tour's end: {0,1}",
            |s| s.shards.get_mut(&0).unwrap()[0].1.second.pos = 17,
        );
    }

    /// A block sequence holds one traversal per position, so a file in
    /// which two traversals share one is refused while it is laid out.
    #[test]
    fn load_rejects_two_traversals_at_one_position() {
        assert_corrupt(
            &path_forest(),
            "tour 0: two traversals at position 1",
            |s| {
                let shard = s.shards.get_mut(&0).unwrap();
                assert_eq!(shard[0].1.first.pos, 1);
                shard[1].1.first.pos = 1;
            },
        );
    }

    #[test]
    fn load_rejects_a_next_id_at_or_below_a_live_tour() {
        let mut etf = path_forest();
        etf.split(Edge::new(2, 3), &mut ctx());
        assert!(etf.tours().any(|t| t >= 6));
        assert_corrupt(&etf, "tour id allocator 6 not above the live ids", |s| {
            s.next_id = 6
        });
    }

    /// The sweep: every single-bit flip and every whole-byte flip of a
    /// small section either fails typed or loads a forest that re-saves
    /// to exactly the flipped bytes — never a panic, never a stored
    /// length or table the forest does not hold. A flipped position
    /// that stays odd and inside its tour loads; the clash or gap it
    /// leaves is `validate`'s to find, without panicking.
    #[test]
    fn byte_sweep_never_panics_or_decodes_a_lie() {
        let mut c = ctx();
        let mut etf = DistEtf::new(5);
        for (u, v) in [(0, 1), (1, 2), (3, 4)] {
            etf.join(Edge::new(u, v), &mut c);
        }
        etf.split(Edge::new(1, 2), &mut c);
        let pristine = payload(&etf);
        let (mut loaded, mut refused) = (0usize, 0usize);
        for at in 0..pristine.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bytes = pristine.clone();
                bytes[at] ^= flip;
                match decode::<DistEtf>(&bytes) {
                    Ok(etf) => {
                        assert_eq!(payload(&etf), bytes, "byte {at} ^ {flip:#x}");
                        let _ = validate(&etf);
                        loaded += 1;
                    }
                    Err(SnapshotError::Corrupt(_)) => refused += 1,
                    Err(other) => panic!("byte {at} ^ {flip:#x}: {other:?}"),
                }
            }
        }
        assert!(
            loaded > 0 && refused > 0,
            "{loaded} loaded, {refused} refused"
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
