//! The distributed Euler-tour forest and its single-edge operations.

use mpc_graph::ids::{Edge, VertexId};
use mpc_sim::MpcContext;
use std::collections::BTreeMap;

/// One tour's edge shard: a flat array sorted by edge. Batch plans
/// remap the records (keys never change), and tour-id reassignment
/// moves whole shards by splice instead of per-edge rewrites.
pub(crate) type Shard = Vec<(Edge, EdgeRec)>;

/// The pending work (fresh records plus map pieces) a tour may carry is
/// `1/LAZY_SHARE` of its base records; the join or split that crosses
/// it applies all of it. A join remaps the fresh run and a split
/// renumbers it, so the bound caps that per-record work at a share of
/// the full pass it replaces (with joins alone deferred, 8 and 32
/// measured the same as 16 on the benchmark's `churn` and `grow`).
/// The same work summed over the operations since the last full pass
/// is bounded too: once the fresh records renumbered exceed the base,
/// the pass they stand in for is applied, so a fresh run that outlives
/// many operations costs them at most about one pass.
const LAZY_SHARE: usize = 16;

/// An end beyond every tour position: the last piece of a map defined
/// on all positions above its start.
pub(crate) const UNBOUNDED: u64 = u64::MAX >> 2;

/// A monotone piecewise translation of tour positions, the closed form
/// of the plans a tour's base run has not been remapped by. Piece
/// `(start, end, offset)` moves positions `start..=end` by `offset`,
/// added modulo 2^64 so that a split's offsets move positions down.
/// The pieces are sorted and disjoint and their images strictly
/// ascending, so the map is strictly increasing where it is defined. A
/// join's plan is defined on every position; a split's only on the
/// region that keeps the tour, so a map that has composed a split is
/// defined on the positions that still hold base records, and the
/// positions of the records the split cut off have no image. Composing
/// two such maps gives another, so a tour can defer any number of
/// joins' and splits' remaps as one map. No pieces is the identity.
#[derive(Debug, Clone, Default)]
pub(crate) struct PosMap {
    pieces: Vec<(u64, u64, u64)>,
}

impl PosMap {
    /// The map that shifts every position above `c` by `w`.
    pub(crate) fn step(c: u64, w: u64) -> Self {
        let mut map = PosMap::default();
        map.push(c, w);
        map
    }

    /// Adds a step of weight `w` above `c` to a map defined on every
    /// position, at or above its last step (a repeated `c` adds to that
    /// step).
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn push(&mut self, c: u64, w: u64) {
        match self.pieces.last_mut() {
            None => self.pieces.extend([(0, c, 0), (c + 1, UNBOUNDED, w)]),
            Some(last) if last.0 == c + 1 => last.2 += w,
            Some(last) => {
                debug_assert!(last.0 <= c && last.1 == UNBOUNDED, "unsorted step");
                last.1 = c;
                let total = last.2 + w;
                self.pieces.push((c + 1, UNBOUNDED, total));
            }
        }
    }

    /// Appends the piece that moves `start..=end` by `offset`, above
    /// every piece so far; a piece that continues the last one with
    /// the same offset extends it.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn push_piece(&mut self, start: u64, end: u64, offset: u64) {
        debug_assert!(start <= end, "empty piece");
        match self.pieces.last_mut() {
            Some(last) if last.1 + 1 == start && last.2 == offset => last.1 = end,
            last => {
                debug_assert!(last.is_none_or(|last| last.1 < start), "unsorted piece");
                self.pieces.push((start, end, offset));
            }
        }
    }

    /// Number of pieces: the map's share of a tour's deferred work.
    pub(crate) fn len(&self) -> usize {
        self.pieces.len()
    }

    /// Whether every record position stays where it is.
    fn is_identity(&self) -> bool {
        self.pieces.iter().all(|&(_, _, offset)| offset == 0)
    }

    /// The image of `x`, a position the map is defined on.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn map(&self, x: u64) -> u64 {
        match self.pieces.partition_point(|&(start, _, _)| start <= x) {
            0 => x,
            i => {
                let (_, end, offset) = self.pieces[i - 1];
                debug_assert!(x <= end, "position {x} has no image");
                x.wrapping_add(offset)
            }
        }
    }

    fn apply(&self, rec: EdgeRec) -> EdgeRec {
        let mut rec = rec;
        rec.first.pos = self.map(rec.first.pos);
        rec.second.pos = self.map(rec.second.pos);
        rec
    }

    /// The map prepared for a pass over a whole run: a table of how many
    /// pieces start at or before each block of `2^shift` positions
    /// replaces the binary search per position by a step or two. The
    /// block size gives the table about one entry per piece.
    fn jumps(&self) -> Jumps<'_> {
        let last = self.pieces.last().map_or(0, |&(start, _, _)| start);
        let shift = (last / self.pieces.len().max(1) as u64).max(1).ilog2();
        let mut below = 0;
        let first = (0..=last >> shift)
            .map(|block| {
                while self
                    .pieces
                    .get(below)
                    .is_some_and(|p| p.0 <= block << shift)
                {
                    below += 1;
                }
                below
            })
            .collect();
        Jumps {
            pieces: &self.pieces,
            shift,
            first,
        }
    }

    /// Composes `next` after this map: afterwards `self.map(x)` is
    /// `next.map` of the old `self.map(x)`, defined where both are.
    /// The old pieces' images ascend, so one merge walk intersects
    /// each with the pieces of `next` it overlaps, in
    /// `O(|self| + |next|)`.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn then(&mut self, next: &PosMap) {
        if next.is_identity() {
            return;
        }
        if self.is_identity() {
            self.pieces.clone_from(&next.pieces);
            return;
        }
        let old = std::mem::take(self);
        let mut j = 0;
        for &(start, end, offset) in &old.pieces {
            let (lo, hi) = (start.wrapping_add(offset), end.wrapping_add(offset));
            while next.pieces.get(j).is_some_and(|&(_, e, _)| e < lo) {
                j += 1;
            }
            for &(s, e, o) in next.pieces[j..].iter().take_while(|&&(s, _, _)| s <= hi) {
                let (a, b) = (s.max(lo), e.min(hi));
                self.push_piece(
                    a.wrapping_sub(offset),
                    b.wrapping_sub(offset),
                    offset.wrapping_add(o),
                );
            }
        }
        debug_assert!(
            self.pieces
                .iter()
                .flat_map(|&(start, end, _)| [start, end])
                .all(|x| self.map(x) == next.map(old.map(x))),
            "composed map disagrees with its parts"
        );
    }
}

/// A [`PosMap`] with its jump table (see [`PosMap::jumps`]).
struct Jumps<'a> {
    pieces: &'a [(u64, u64, u64)],
    shift: u32,
    /// Per block, the number of pieces starting at or before its start.
    first: Vec<usize>,
}

impl Jumps<'_> {
    fn map(&self, x: u64) -> u64 {
        let block = usize::try_from(x >> self.shift).unwrap_or(usize::MAX);
        let mut i = self.first.get(block).copied().unwrap_or(self.pieces.len());
        while self.pieces.get(i).is_some_and(|p| p.0 <= x) {
            i += 1;
        }
        match i {
            0 => x,
            i => x.wrapping_add(self.pieces[i - 1].2),
        }
    }
}

/// One Euler tour: its edge records (none for a singleton) and its
/// members, sorted ascending. Its length is `4·|records|`, stored
/// nowhere.
///
/// The records live in two runs, each sorted by edge and disjoint. The
/// *base* run (`edges`) holds positions in the tour's coordinates
/// before the joins it has anchored and the splits it has survived
/// since its last full pass; the [`Deferred`] state of those operations
/// maps a base position to the current one and holds what the joins
/// attached. A join that anchors the tour composes its plan onto the
/// pending map and remaps only the fresh run and the records it
/// attaches; a split that leaves the tour its longest region drops the
/// records it cuts off from both runs, renumbers the fresh run, and
/// composes the kept region's renumbering onto the pending map. Neither
/// touches the rest of the base. The deferred work is applied, and the
/// fresh run merged into the base, by the next full pass over the tour
/// (a reroot, or a join in which the tour is a child), or by the join
/// or split after which fresh records plus map pieces exceed
/// `1/LAZY_SHARE` of the base, or the fresh records renumbered since
/// the last full pass outnumber it. Point reads read through the map, so
/// every observable position, tour id, snapshot byte and model charge
/// is the one an eager remap would give.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tour {
    /// The base run; positions are mapped through the pending map.
    pub(crate) edges: Shard,
    /// `None` while the base is exact: every singleton, and every tour
    /// that anchored no join and survived no split since its last full
    /// pass. Boxed, so an exact tour costs one word over its two
    /// vectors.
    pub(crate) deferred: Option<Box<Deferred>>,
    pub(crate) members: Vec<VertexId>,
}

/// The joins a tour anchored and the splits it survived since its last
/// full pass.
#[derive(Debug, Clone, Default)]
pub(crate) struct Deferred {
    /// Base position → current position: the composed plans, defined
    /// on the positions of the base run's records.
    pub(crate) pending: PosMap,
    /// The records the joins attached, at exact positions.
    pub(crate) fresh: Shard,
    /// Fresh records remapped or renumbered since the last full pass.
    renumbered: usize,
}

impl Deferred {
    /// A base record at its current position.
    fn read(&self, rec: EdgeRec) -> EdgeRec {
        self.pending.apply(rec)
    }

    /// [`Deferred::read`] for a pass over the whole base run, through
    /// the pending map's jump table.
    fn reader(&self) -> impl Fn(EdgeRec) -> EdgeRec + '_ {
        let jumps = self.pending.jumps();
        move |mut rec: EdgeRec| {
            rec.first.pos = jumps.map(rec.first.pos);
            rec.second.pos = jumps.map(rec.second.pos);
            rec
        }
    }
}

/// The records of a tour in edge order: the base run alone when the
/// tour is exact, else both runs merged.
enum Runs<A, B> {
    Exact(A),
    Merged(B),
}

impl<T, A: Iterator<Item = T>, B: Iterator<Item = T>> Iterator for Runs<A, B> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        match self {
            Runs::Exact(a) => a.next(),
            Runs::Merged(b) => b.next(),
        }
    }
}

impl Tour {
    pub(crate) fn singleton(v: VertexId) -> Self {
        Tour {
            members: vec![v],
            ..Tour::default()
        }
    }

    /// The fresh run (empty when exact).
    fn fresh(&self) -> &[(Edge, EdgeRec)] {
        self.deferred.as_ref().map_or(&[], |d| &d.fresh)
    }

    /// Number of edge records (both runs).
    pub(crate) fn len(&self) -> usize {
        self.edges.len() + self.fresh().len()
    }

    /// The current record of `e`, if it is one of this tour's edges.
    fn get(&self, e: Edge) -> Option<EdgeRec> {
        let find = |run: &[(Edge, EdgeRec)]| {
            run.binary_search_by_key(&e, |&(k, _)| k)
                .ok()
                .map(|i| run[i].1)
        };
        match &self.deferred {
            None => find(&self.edges),
            Some(d) => find(&d.fresh).or_else(|| find(&self.edges).map(|rec| d.read(rec))),
        }
    }

    /// Every record at its current position, in edge order.
    pub(crate) fn records(&self) -> impl Iterator<Item = (Edge, EdgeRec)> + '_ {
        match &self.deferred {
            None => Runs::Exact(self.edges.iter().copied()),
            Some(d) => Runs::Merged(merge_by_key(
                self.edges.iter().map({
                    let read = d.reader();
                    move |&(e, rec)| (e, read(rec))
                }),
                d.fresh.iter().copied(),
                |&(e, _)| e,
            )),
        }
    }

    /// Every edge, in edge order.
    fn edge_keys(&self) -> impl Iterator<Item = Edge> + '_ {
        let key = |&(e, _): &(Edge, EdgeRec)| e;
        match &self.deferred {
            None => Runs::Exact(self.edges.iter().map(key)),
            Some(d) => Runs::Merged(merge_by_key(
                self.edges.iter().map(key),
                d.fresh.iter().map(key),
                |&e| e,
            )),
        }
    }

    /// Applies the pending map to the base and merges the fresh run
    /// into it: one full pass, after which the base is exact.
    pub(crate) fn materialize(&mut self) {
        let Some(deferred) = self.deferred.take() else {
            return;
        };
        if !deferred.pending.is_identity() {
            let read = deferred.reader();
            for (_, rec) in &mut self.edges {
                *rec = read(*rec);
            }
        }
        splice_sorted(&mut self.edges, deferred.fresh, |&(e, _)| e);
    }

    /// Applies the deferred work once it crosses the bound, and drops
    /// deferred state that defers nothing.
    fn settle(&mut self) {
        let Some(d) = &self.deferred else {
            return;
        };
        let base = self.edges.len();
        if (d.fresh.len() + d.pending.len()) * LAZY_SHARE > base || d.renumbered > base {
            self.materialize();
        } else if d.fresh.is_empty() && d.pending.is_identity() {
            self.deferred = None;
        }
    }

    /// Moves every current position `x` to `map.map(x)`: composed onto
    /// the pending map for the base, applied to the fresh run.
    pub(crate) fn remap(&mut self, map: &PosMap) {
        let deferred = self.deferred.get_or_insert_default();
        for (_, rec) in &mut deferred.fresh {
            *rec = map.apply(*rec);
        }
        deferred.renumbered += deferred.fresh.len();
        deferred.pending.then(map);
    }

    /// Splices records at exact positions into the tour. A run at
    /// least as long as the base is merged into it after a full pass;
    /// a shorter one waits in the fresh run until the deferred work
    /// crosses the bound, which applies it all.
    pub(crate) fn attach(&mut self, run: Shard) {
        if run.len() >= self.edges.len() {
            self.materialize();
            splice_sorted(&mut self.edges, run, |&(e, _)| e);
            return;
        }
        let deferred = self.deferred.get_or_insert_default();
        splice_sorted(&mut deferred.fresh, run, |&(e, _)| e);
        self.settle();
    }

    /// The kept side of a split: takes the records of `gone` (sorted
    /// edges, each in one of the runs) out of both runs and returns
    /// them in edge order at their current positions, then moves every
    /// remaining position `x` to `kept.map(x)` — applied to the fresh
    /// run, composed onto the pending map for the base — and, when the
    /// kept region takes a fresh id, relabels the records with it, the
    /// base's in place (the split rewrites every kept member's tour
    /// then anyway). Otherwise, of the base, only the entries above the
    /// first one taken move.
    pub(crate) fn keep_region(
        &mut self,
        gone: &[Edge],
        kept: &PosMap,
        rename: Option<TourId>,
    ) -> Shard {
        let key = |&(e, _): &(Edge, EdgeRec)| e;
        let deferred = self.deferred.get_or_insert_default();
        let mut taken = extract_sorted(&mut self.edges, gone, key);
        for (_, rec) in &mut taken {
            *rec = deferred.read(*rec);
        }
        let fresh = extract_sorted(&mut deferred.fresh, gone, key);
        if !fresh.is_empty() {
            taken = merge_by_key(taken.into_iter(), fresh.into_iter(), key).collect();
        }
        for (_, rec) in &mut deferred.fresh {
            *rec = kept.apply(*rec);
            if let Some(t) = rename {
                rec.tour = t;
            }
        }
        deferred.renumbered += deferred.fresh.len();
        deferred.pending.then(kept);
        if let Some(t) = rename {
            for (_, rec) in &mut self.edges {
                rec.tour = t;
            }
        }
        self.settle();
        taken
    }
}

/// Merges two iterators, each sorted by `key`, into one sorted stream
/// (ties take `a` first).
fn merge_by_key<T, K: Ord>(
    a: impl Iterator<Item = T>,
    b: impl Iterator<Item = T>,
    key: impl Fn(&T) -> K,
) -> impl Iterator<Item = T> {
    let (mut a, mut b) = (a.peekable(), b.peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(x), Some(y)) if key(y) < key(x) => b.next(),
        (Some(_), _) => a.next(),
        _ => b.next(),
    })
}

/// Splices a run into a sorted vector — an edge run or a member list —
/// in place, from the back: only the entries above the run's smallest
/// key move, one block per run entry. Each run entry finds its block
/// by a galloping search down from the one before, so the probes move
/// backward through the vector and stay near each other.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn splice_sorted<T: Copy, K: Ord>(
    into: &mut Vec<T>,
    mut run: Vec<T>,
    key: impl Fn(&T) -> K,
) {
    run.sort_by_key(&key);
    if into.is_empty() {
        *into = run;
        return;
    }
    let mut end = into.len();
    into.extend_from_slice(&run);
    let mut out = into.len();
    for x in run.into_iter().rev() {
        let k = key(&x);
        // Every entry in `hi..end` is at least `k`; the first one of
        // them lies in `lo..=hi` once `into[lo]` is below `k`.
        let (mut lo, mut hi, mut step) = (end, end, 1);
        while lo > 0 && key(&into[lo - 1]) >= k {
            hi = lo - 1;
            lo = hi.saturating_sub(step);
            step *= 2;
        }
        let at = lo + into[lo..hi].partition_point(|y| key(y) < k);
        // A duplicate key (a caller bug) is spliced anyway, so the
        // validator reports it.
        debug_assert!(
            into[..end].get(at).is_none_or(|y| key(y) != k),
            "key spliced twice"
        );
        into.copy_within(at..end, out - (end - at));
        out -= end - at + 1;
        into[out] = x;
        end = at;
    }
}

/// Takes the entries whose keys `gone` lists (sorted; a key the vector
/// does not hold is skipped) out of a sorted vector — an edge run or a
/// member list — and returns them in order. It works in place from the
/// front, the mirror of [`splice_sorted`]: each key is found by a
/// galloping search from the one before, so the probes move forward
/// through the vector and stop at its end, and only the entries above
/// the first one taken move, one block per entry taken.
pub(crate) fn extract_sorted<T: Copy, K: Ord>(
    from: &mut Vec<T>,
    gone: &[K],
    key: impl Fn(&T) -> K,
) -> Vec<T> {
    let mut taken = Vec::with_capacity(gone.len());
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
        while from.get(hi).is_some_and(|y| key(y) < *k) {
            lo = hi + 1;
            hi = (hi + step).min(from.len());
            step *= 2;
        }
        let at = lo + from[lo..hi].partition_point(|y| key(y) < *k);
        scan = at;
        if from.get(at).is_none_or(|y| key(y) != *k) {
            continue;
        }
        taken.push(from[at]);
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
    taken
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
/// edge records are stored in **per-tour shards** (one tour record per
/// tour: its edges and its members) so every operation touches only
/// the affected tours' records —
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
    /// Each vertex's tour id; `tours[vertex_tour[v]]` lists `v`.
    vertex_tour: Vec<TourId>,
    /// Tree neighbors, one strictly ascending row per vertex; `w ∈
    /// adj[v]` exactly when edge `{v, w}` has a record in the shard of
    /// `v`'s tour. A row is the forest-edge index: membership tests
    /// ([`DistEtf::contains_edge`]) and the split's region walk read it
    /// by binary search and in order, without touching a shard.
    adj: Vec<Vec<VertexId>>,
    /// The live tours, one record each: the edge shard (the
    /// machine-local segment the paper's protocol remaps), held as a
    /// base run read through a pending position map plus a fresh run
    /// at exact positions (see [`Tour`]), and the sorted members
    /// (spliced and partitioned alongside it). Invariants: every record
    /// in either run of `tours[t]` has `rec.tour == t` and both
    /// endpoints in `tours[t].members`; the two runs are disjoint; a
    /// tour has one member more than it has edges; the member lists
    /// partition the vertices.
    tours: BTreeMap<TourId, Tour>,
    /// `Σ` records of every tour (both runs), kept so that
    /// [`DistEtf::words`] is `O(1)`.
    edge_count: usize,
    /// The next fresh tour id, above every live one.
    next_id: TourId,
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
            tours,
            edge_count: 0,
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
        4 * self.tours[&t].len() as u64
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
    /// equal to `edge_rec(e).is_some()` without reading a shard.
    pub fn contains_edge(&self, e: Edge) -> bool {
        (e.v() as usize) < self.n && self.adj[e.u() as usize].binary_search(&e.v()).is_ok()
    }

    /// The record of a forest edge, at its current positions. A forest
    /// edge always lives in the shard of its endpoints' tour, so the
    /// lookup is local to that shard (and reads through its pending
    /// map).
    pub fn edge_rec(&self, e: Edge) -> Option<EdgeRec> {
        if (e.v() as usize) >= self.n {
            return None;
        }
        self.tours.get(&self.vertex_tour[e.u() as usize])?.get(e)
    }

    /// Iterates over the forest edges (all shards), each tour's in edge
    /// order.
    pub fn forest_edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.tours.values().flat_map(Tour::edge_keys)
    }

    /// Iterates over one tour's edge shard in edge order, each record
    /// at its current positions — the unit of locality of every tour
    /// operation. Yields nothing for singleton or unknown tours.
    pub fn tour_edges(&self, t: TourId) -> impl Iterator<Item = (Edge, EdgeRec)> + '_ {
        self.tours.get(&t).into_iter().flat_map(Tour::records)
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

    // ----- crate-private state surgery for the batch operations ----

    /// Detaches a whole tour (an empty one if `t` is not live). The
    /// caller must re-home its members and records via
    /// [`DistEtf::put_tour`] or by splicing them into another tour.
    pub(crate) fn take_tour(&mut self, t: TourId) -> Tour {
        let tour = self.tours.remove(&t).unwrap_or_default();
        self.edge_count -= tour.len();
        tour
    }

    /// Installs a whole tour — both runs sorted and labelled `t`,
    /// members sorted — under an id that holds none: the inverse of
    /// [`DistEtf::take_tour`].
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn put_tour(&mut self, t: TourId, tour: Tour) {
        for run in [&tour.edges[..], tour.fresh()] {
            debug_assert!(run.is_sorted_by(|a, b| a.0 < b.0), "unsorted shard");
        }
        debug_assert!(
            tour.records().all(|(_, r)| r.tour == t),
            "mislabelled shard"
        );
        debug_assert!(tour.members.is_sorted(), "tour members must stay sorted");
        self.edge_count += tour.len();
        self.tours.insert(t, tour);
    }

    /// Registers `e` in the tree adjacency only (for callers that
    /// splice the record itself in bulk): each endpoint's row takes the
    /// other at its sorted place.
    pub(crate) fn add_adjacency(&mut self, e: Edge) {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            let row = &mut self.adj[v as usize];
            if let Err(at) = row.binary_search(&w) {
                row.insert(at, w);
            }
        }
    }

    /// Drops `e` from the tree adjacency only (for callers that cut
    /// the record itself out of its shard in bulk).
    pub(crate) fn remove_adjacency(&mut self, e: Edge) {
        for (v, w) in [(e.u(), e.v()), (e.v(), e.u())] {
            let row = &mut self.adj[v as usize];
            if let Ok(at) = row.binary_search(&w) {
                row.remove(at);
            }
        }
    }

    pub(crate) fn set_vertex_tour(&mut self, v: VertexId, t: TourId) {
        self.vertex_tour[v as usize] = t;
    }

    // ----- occurrence bookkeeping ---------------------------------

    /// The two positions at which `v` occurs on each of its tree
    /// edges, in adjacency order: per edge, the earlier traversal's
    /// entry, then the later one's.
    fn edge_occurrences(&self, v: VertexId) -> impl Iterator<Item = [u64; 2]> + '_ {
        let adj = &self.adj[v as usize];
        // A vertex with no edges reads no tour.
        let tour = (!adj.is_empty()).then(|| &self.tours[&self.vertex_tour[v as usize]]);
        adj.iter().map(move |&w| {
            #[expect(
                clippy::expect_used,
                reason = "adjacency and tour shards are mutated in lockstep — a missing edge is corruption"
            )]
            let rec = tour
                .and_then(|tour| tour.get(Edge::new(v, w)))
                .expect("adjacent edge in shard");
            let at = |t: Traversal| if t.from == v { t.pos } else { t.pos + 1 };
            [at(rec.first), at(rec.second)]
        })
    }

    /// All positions at which `v` occurs in its tour (2·deg entries),
    /// ascending.
    pub fn occurrences(&self, v: VertexId) -> Vec<u64> {
        let mut out: Vec<u64> = self.edge_occurrences(v).flatten().collect();
        out.sort_unstable();
        out
    }

    /// First and last occurrence `(f(v), ℓ(v))`; `(0, 0)` for a
    /// singleton. One pass over `v`'s edges: on each, the earlier
    /// traversal's entry precedes the later one's, so the first
    /// occurrence is the least earlier entry and the last the greatest
    /// later one.
    pub fn f_l(&self, v: VertexId) -> (u64, u64) {
        let mut edges = self.edge_occurrences(v);
        let Some(first) = edges.next() else {
            return (0, 0);
        };
        let [f, l] = edges.fold(first, |[f, l], [a, b]| [f.min(a), l.max(b)]);
        (f, l)
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

    /// Rotates `v`'s tour to start at `v`, after applying its pending
    /// work: a rotation is a full pass, and a tour about to be spliced
    /// in as a join's child must be exact.
    pub(crate) fn reroot_uncharged(&mut self, v: VertexId) {
        // A singleton has no occurrences, so its cut is 1 as well.
        let cut = self.cut_position(v);
        // Only the rerooted tour's shard is touched.
        #[expect(
            clippy::expect_used,
            reason = "tour invariant — every vertex's tour is live"
        )]
        let tour = self
            .tours
            .get_mut(&self.vertex_tour[v as usize])
            .expect("live tour");
        tour.materialize();
        if cut == 1 {
            return;
        }
        let len = 4 * tour.edges.len() as u64;
        for (_, rec) in tour.edges.iter_mut() {
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
    /// attach point shifts, by a one-step map its base defers),
    /// `child_end`'s tour is rerooted at `child_end` and spliced into
    /// the gap. The one single-edge splice of [`DistEtf::join`] and
    /// `batch_join`.
    pub(crate) fn link(&mut self, root_end: VertexId, child_end: VertexId) {
        let (root, child) = (self.tour_of(root_end), self.tour_of(child_end));
        self.reroot_uncharged(child_end);
        let (f_u, _) = self.f_l(root_end);
        let c = if f_u % 2 == 1 { f_u - 1 } else { f_u };
        let Tour {
            edges: mut merged,
            members: extra,
            ..
        } = self.take_tour(child);
        let mut tour = self.take_tour(root);
        let w = 4 * merged.len() as u64;
        // Root tail shift: positions strictly above the attach point
        // make room for the child block of w + 4 entries.
        tour.remap(&PosMap::step(c, w + 4));
        // Child block: old position x lands at c + 2 + x.
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
        tour.attach(merged);
        // Membership: only the child's members change tour; its
        // sorted run merges into the root's list in place.
        for &x in &extra {
            self.set_vertex_tour(x, root);
        }
        splice_sorted(&mut tour.members, extra, |&v| v);
        self.put_tour(root, tour);
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
        let rec = self.edge_rec(e).expect("split of non-tree edge");
        // A one-cut split: the detached side is the cut's region,
        // which takes the first id `split_tour` allocates.
        let child = self.next_id;
        self.split_tour(
            rec.tour,
            &[(rec.first.pos, rec.second.pos, e, rec.first.from)],
        );
        (rec.tour, child)
    }
}

// The section holds one table per kind of per-tour fact — edge shards
// of the tours that have edges, the edge count, a length per live
// tour, member lists, the id allocator — the layout that existing
// snapshot files and the byte pins (`crates/etf/tests/state_digest.rs`,
// `tests/session_checkpoint.rs`) hold. A length is written as `4·|edges|` and a
// load refuses any other; everything else decodes straight into the
// one tour table and is then checked against the invariants the
// mutation paths maintain. Each traversal's position must be odd and
// inside its tour; the rest of tour-walk validity (clashes, coverage,
// seams) is `tour::validate`'s to check.
impl mpc_snapshot::Persist for DistEtf {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        self.n.save(w);
        self.vertex_tour.save(w);
        self.adj.save(w);
        // A shard is written as the `Vec` of its current records.
        let with_edges = || self.tours.iter().filter(|(_, tour)| tour.len() > 0);
        w.put_usize(with_edges().count());
        for (t, tour) in with_edges() {
            t.save(w);
            w.put_u64(tour.len() as u64);
            for record in tour.records() {
                record.save(w);
            }
        }
        self.edge_count.save(w);
        w.put_usize(self.tours.len());
        for (&t, tour) in &self.tours {
            t.save(w);
            w.put_u64(4 * tour.len() as u64);
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
        let mut tours: BTreeMap<TourId, Tour> = BTreeMap::new();
        for _ in 0..r.take_usize()? {
            let t = TourId::load(r)?;
            let edges = Shard::load(r)?;
            if edges.is_empty() || tours.last_key_value().is_some_and(|(&last, _)| last >= t) {
                return corrupt(format!("tour {t}: empty or out-of-order edge shard"));
            }
            // A loaded tour is exact: its whole shard is the base run.
            tours.entry(t).or_default().edges = edges;
        }
        let edge_count = usize::load(r)?;
        let live = r.take_usize()?;
        let mut last = None;
        for _ in 0..live {
            let t = TourId::load(r)?;
            let len = u64::load(r)?;
            let edges = tours.entry(t).or_default().edges.len();
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
        for (&t, tour) in &mut tours {
            if TourId::load(r)? != t {
                return corrupt(format!("tour {t} has no member list"));
            }
            tour.members = Vec::load(r)?;
        }
        let etf = DistEtf {
            n,
            vertex_tour,
            adj,
            tours,
            edge_count,
            next_id: TourId::load(r)?,
        };
        etf.check().map_err(mpc_snapshot::SnapshotError::Corrupt)?;
        Ok(etf)
    }
}

impl DistEtf {
    /// The cross-structure invariants a loaded forest must meet.
    fn check(&self) -> Result<(), String> {
        let (n, edge_count, adj) = (self.n, self.edge_count, &self.adj);
        let (ids, rows) = (self.vertex_tour.len(), adj.len());
        if ids != n || rows != n {
            return Err(format!(
                "forest over {n} vertices has {ids} tour ids and {rows} adjacency rows"
            ));
        }
        // Every probe below is a binary search of a row.
        if let Some(v) = adj.iter().position(|row| !row.is_sorted_by(|a, b| a < b)) {
            return Err(format!("vertex {v}: adjacency row not strictly ascending"));
        }
        // The member lists partition the vertices, each member labelled
        // with its own tour (so every vertex's tour is live). Every shard
        // lookup is a binary search by edge in the shard of the
        // endpoints' tour, and splits subtract sorted member runs.
        let (mut covered, mut edges) = (0, 0);
        for (&t, tour) in &self.tours {
            let inside = |v: VertexId| self.vertex_tour.get(v as usize) == Some(&t);
            if !tour.members.is_sorted_by(|a, b| a < b) {
                return Err(format!("tour {t}: member list not strictly ascending"));
            }
            if let Some(v) = tour.members.iter().find(|&&v| !inside(v)) {
                return Err(format!("tour {t}: member {v} is not labelled with it"));
            }
            if !tour.edges.is_sorted_by(|a, b| a.0 < b.0) {
                return Err(format!("tour {t}: shard not strictly ascending by edge"));
            }
            // A traversal occupies positions `pos` and `pos + 1` of a
            // tour of length `4·|edges|` and starts at an odd one; a
            // split computes spans from these without a bounds check.
            let len = 4 * tour.edges.len() as u64;
            let misplaced = |pos: u64| pos.is_multiple_of(2) || pos >= len;
            for (e, rec) in &tour.edges {
                let froms = (rec.first.from, rec.second.from);
                let lie = if rec.tour != t {
                    "another tour's record"
                } else if !inside(e.u()) || !inside(e.v()) {
                    "a record with an endpoint outside it"
                } else if froms != (e.u(), e.v()) && froms != (e.v(), e.u()) {
                    "a record that does not cross its edge both ways"
                } else if misplaced(rec.first.pos) || misplaced(rec.second.pos) {
                    "a traversal at an even position or past the tour's end"
                } else if adj[e.u() as usize].binary_search(&e.v()).is_err()
                    || adj[e.v() as usize].binary_search(&e.u()).is_err()
                {
                    "a record missing from the adjacency"
                } else {
                    continue;
                };
                return Err(format!("tour {t}: shard holds {lie}: {e}"));
            }
            let (m, k) = (tour.members.len(), tour.edges.len());
            if m != k + 1 {
                return Err(format!("tour {t}: {m} members for {k} edges"));
            }
            (covered, edges) = (covered + m, edges + k);
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
        let next = self.next_id;
        if next < n as TourId || self.tours.last_key_value().is_some_and(|(&t, _)| next <= t) {
            return Err(format!(
                "tour id allocator {next} not above the live ids and 0..{n}"
            ));
        }
        Ok(())
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
        let rec = etf.edge_rec(Edge::new(1, 2)).unwrap();
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

    /// One live tour, applied so its base run holds every record, for
    /// the validator's fault-injection tests.
    impl DistEtf {
        pub(crate) fn tour_mut(&mut self, t: TourId) -> &mut Tour {
            let tour = self.tours.get_mut(&t).unwrap();
            tour.materialize();
            tour
        }

        /// Applies every tour's pending work: the eager twin of the
        /// lazy/eager equivalence test.
        pub(crate) fn materialize_all(&mut self) {
            self.tours.values_mut().for_each(Tour::materialize);
        }

        /// A tour's base and fresh run lengths and pending map pieces.
        pub(crate) fn lazy_state(&self, t: TourId) -> (usize, usize, usize) {
            let tour = &self.tours[&t];
            match &tour.deferred {
                None => (tour.edges.len(), 0, 0),
                Some(d) => (tour.edges.len(), d.fresh.len(), d.pending.len()),
            }
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
