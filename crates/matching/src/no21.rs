//! Batch-dynamic **maximal** matching — the substrate standing in for
//! Nowicki–Onak \[NO21\] (paper Proposition 8.4).
//!
//! The paper uses \[NO21\] as a black box: a structure over an
//! explicitly stored graph `H` that processes a batch of `O(s^{1-κ})`
//! insertions/deletions in `O(log 1/κ)` rounds and maintains a
//! maximal matching in `Õ(|E(H)|)` total memory. We provide the same
//! contract with a simpler mechanism, a substitution this module
//! documents: after applying the batch, free vertices are
//! re-matched by synchronized rounds of greedy proposals — every free
//! vertex with a free neighbor proposes to its smallest free
//! neighbor, and proposals are accepted in `(target, proposer)`
//! order. Each round matches at least the lexicographically smallest
//! free–free edge, and empirically the loop ends in a handful of
//! rounds (measured and reported by
//! [`MaximalMatching::last_rematch_rounds`]).
//!
//! **Batch-proportional rematch.** The proposal rounds never scan
//! all `n` vertices. The batch's edits report the vertices they
//! touch: both endpoints of an edge actually inserted, and both
//! endpoints of a *matched* edge deleted (a duplicate insert or a
//! missing delete touches nothing). The matching is maximal on entry,
//! so after the edits every free–free edge is either new or has an
//! endpoint the batch freed: round 1's proposers are all among the
//! touched vertices and the free neighbors of the free ones. The free
//! set only shrinks inside the rematch, so round `r + 1`'s proposers
//! are a subset of round `r`'s, and each later round scans only the
//! previous round's proposers. The proposal lists, and with them the
//! matches, the round count and both per-round exchange charges, are
//! exactly those of a full scan. A restored snapshot is checked for
//! the maximality this argument starts from.
//!
//! The only property the downstream analyses need (Lemma 8.3 /
//! \[AKL'17\]) is **maximality**, which holds exactly on exit and is
//! property-tested.

use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Batch;
use mpc_sim::{MpcContext, MpcStreamError};
use std::collections::BTreeSet;

/// A maximal matching over an explicitly stored dynamic graph.
///
/// # Examples
///
/// ```
/// use mpc_matching::MaximalMatching;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 12).build(),
/// );
/// let mut mm = MaximalMatching::new(8);
/// mm.apply_batch(&Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]), &mut ctx)?;
/// assert_eq!(mm.matching().len(), 1);
/// // Deleting the matched edge re-matches through the other.
/// let matched = mm.matching()[0];
/// mm.apply_batch(&Batch::deleting([matched]), &mut ctx)?;
/// assert_eq!(mm.matching().len(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaximalMatching {
    n: usize,
    adj: Vec<BTreeSet<VertexId>>,
    mate: Vec<Option<VertexId>>,
    edge_count: usize,
    last_rematch_rounds: u64,
}

impl MaximalMatching {
    /// Creates an empty graph and matching on `n` vertices.
    pub fn new(n: usize) -> Self {
        MaximalMatching {
            n,
            adj: vec![BTreeSet::new(); n],
            mate: vec![None; n],
            edge_count: 0,
            last_rematch_rounds: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of live edges in the stored graph `H`.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// The matching as a list of edges.
    pub fn matching(&self) -> Vec<Edge> {
        (0..self.n as u32)
            .filter_map(|v| {
                self.mate[v as usize]
                    .filter(|&w| v < w)
                    .map(|w| Edge::new(v, w))
            })
            .collect()
    }

    /// Current matching size.
    pub fn matching_size(&self) -> usize {
        self.mate.iter().flatten().count() / 2
    }

    /// The mate of `v`, if matched.
    pub fn mate_of(&self, v: VertexId) -> Option<VertexId> {
        self.mate[v as usize]
    }

    /// Proposal rounds the last batch needed to restore maximality
    /// (the measured stand-in for \[NO21\]'s `O(log 1/κ)`).
    pub fn last_rematch_rounds(&self) -> u64 {
        self.last_rematch_rounds
    }

    /// Memory footprint in words (`Õ(|E(H)| + n)`, the
    /// Proposition 8.4 budget for the sparsifier it runs on).
    pub fn words(&self) -> u64 {
        self.n as u64 + 2 * self.edge_count as u64
    }

    /// Whether the matching is maximal (no live edge joins two free
    /// vertices). `O(m)` scan — test/diagnostic use.
    pub fn is_maximal(&self) -> bool {
        (0..self.n as u32).all(|v| {
            self.mate[v as usize].is_some()
                || self.adj[v as usize]
                    .iter()
                    .all(|&w| self.mate[w as usize].is_some())
        })
    }

    /// Applies one update batch **in arrival order**, then restores
    /// maximality once.
    ///
    /// Duplicate insertions and missing deletions are ignored: the
    /// stored graph `H` is usually a sparsifier whose layers replay
    /// sampler outcomes, so the stream is *set*-semantic here, unlike
    /// the simple-graph contract of the connectivity maintainers.
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::InvalidBatch`] on an endpoint outside
    ///   `[0, n)` (state unchanged).
    /// * [`MpcStreamError::Capacity`] when the batch cannot fit one
    ///   machine.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        mpc_stream_core::route_batch(batch, self.n, ctx)?;
        let mut touched = Vec::with_capacity(2 * batch.len());
        for u in batch.iter() {
            if u.is_insert() {
                self.insert_edge_inner(u.edge(), &mut touched);
            } else {
                self.delete_edge_inner(u.edge(), &mut touched);
            }
        }
        self.rematch(touched, ctx);
        Ok(())
    }

    /// Raw edge-list application for the sparsifier layers: deletions
    /// (the retracted old sampler outcomes) first, then insertions
    /// (the new outcomes). Outcomes are sets, so no arrival order
    /// exists to preserve, and an unchanged outcome is a harmless
    /// delete+insert pair only under this order.
    pub(crate) fn apply_edge_lists(
        &mut self,
        insertions: &[Edge],
        deletions: &[Edge],
        ctx: &mut MpcContext,
    ) {
        let k = (insertions.len() + deletions.len()) as u64;
        ctx.exchange(2 * k + 1);
        ctx.broadcast(2);
        let mut touched = Vec::with_capacity(2 * (insertions.len() + deletions.len()));
        for &e in deletions {
            self.delete_edge_inner(e, &mut touched);
        }
        for &e in insertions {
            self.insert_edge_inner(e, &mut touched);
        }
        self.rematch(touched, ctx);
    }

    /// Inserts `e` into `H`; a new edge reports both endpoints to
    /// `touched`, a duplicate reports nothing.
    fn insert_edge_inner(&mut self, e: Edge, touched: &mut Vec<VertexId>) {
        let (u, v) = e.endpoints();
        if self.adj[u as usize].insert(v) {
            self.adj[v as usize].insert(u);
            self.edge_count += 1;
            touched.extend([u, v]);
        }
    }

    /// Deletes `e` from `H`; deleting a matched edge frees both
    /// endpoints and reports them to `touched`. An unmatched or
    /// missing edge reports nothing: removing it creates no free–free
    /// edge.
    fn delete_edge_inner(&mut self, e: Edge, touched: &mut Vec<VertexId>) {
        let (u, v) = e.endpoints();
        if self.adj[u as usize].remove(&v) {
            self.adj[v as usize].remove(&u);
            self.edge_count -= 1;
            if self.mate[u as usize] == Some(v) {
                self.mate[u as usize] = None;
                self.mate[v as usize] = None;
                touched.extend([u, v]);
            }
        }
    }

    fn is_free(&self, v: VertexId) -> bool {
        self.mate[v as usize].is_none()
    }

    /// The smallest free neighbor of `v`, the target of its proposal.
    fn smallest_free_neighbor(&self, v: VertexId) -> Option<VertexId> {
        self.adj[v as usize]
            .iter()
            .copied()
            .find(|&w| self.is_free(w))
    }

    /// Synchronized greedy proposal rounds until maximal, scanning
    /// only candidates derived from the batch's `touched` vertices
    /// (the module docs give the exactness argument).
    fn rematch(&mut self, touched: Vec<VertexId>, ctx: &mut MpcContext) {
        self.last_rematch_rounds = 0;
        // Round 1's candidates: the touched vertices and the free
        // neighbors of the free ones — every endpoint of a free–free
        // edge is among them.
        let mut proposers = touched;
        for i in 0..proposers.len() {
            let t = proposers[i];
            if self.is_free(t) {
                proposers.extend(self.adj[t as usize].iter().filter(|&&w| self.is_free(w)));
            }
        }
        proposers.sort_unstable();
        proposers.dedup();
        loop {
            // Proposal phase: every free candidate with a free
            // neighbor proposes to its smallest free neighbor; the
            // proposers are next round's candidates.
            let mut proposals = Vec::with_capacity(proposers.len());
            proposers.retain(|&v| {
                let target = if self.is_free(v) {
                    self.smallest_free_neighbor(v)
                } else {
                    None
                };
                proposals.extend(target.map(|w| (w, v)));
                target.is_some()
            });
            if proposals.is_empty() {
                break;
            }
            self.accept(proposals, ctx);
        }
    }

    /// One round's charges and acceptance phase: every free vertex
    /// accepts its smallest proposer; both sides re-check freeness as
    /// matches are committed in `(target, proposer)` order.
    fn accept(&mut self, mut proposals: Vec<(VertexId, VertexId)>, ctx: &mut MpcContext) {
        self.last_rematch_rounds += 1;
        ctx.exchange(2 * proposals.len() as u64);
        ctx.exchange(proposals.len() as u64);
        proposals.sort_unstable();
        for (target, proposer) in proposals {
            if self.is_free(target) && self.is_free(proposer) {
                self.mate[target as usize] = Some(proposer);
                self.mate[proposer as usize] = Some(target);
            }
        }
    }
}

impl mpc_stream_core::Maintain for MaximalMatching {
    fn name(&self) -> &'static str {
        "matching-maximal"
    }

    /// `O(1)`: the vertex and edge counts.
    fn words(&self) -> u64 {
        MaximalMatching::words(self)
    }

    fn validate(&self) -> Result<(), MpcStreamError> {
        if self.is_maximal() {
            Ok(())
        } else {
            Err(MpcStreamError::Internal("matching lost maximality".into()))
        }
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The matching is maintained explicitly: its size is one
    /// converge-cast of per-shard matched counts, the edge list is
    /// the model's output sort.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::MatchingSize => {
                ctx.converge_cast(self.n as u64, 1);
                Ok(QueryResponse::Count(self.matching_size() as u64))
            }
            QueryRequest::MatchingEdges => {
                let matching = self.matching();
                ctx.sort(2 * matching.len() as u64 + 1);
                Ok(QueryResponse::Edges(matching))
            }
            _ => return None,
        })
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(MaximalMatching {
    n,
    adj,
    mate,
    edge_count,
    last_rematch_rounds,
} check |m| m.check_restored());

impl MaximalMatching {
    /// The restore check: the tables cover `n` vertices, `H` is a
    /// symmetric loop-free graph whose degree sum matches the edge
    /// count, and the matching is a symmetric set of `H`'s edges that
    /// leaves no free–free edge — the maximality the touched-set
    /// rematch starts from. `O(n + m log Δ)`.
    fn check_restored(&self) -> Result<(), String> {
        if self.adj.len() != self.n || self.mate.len() != self.n {
            return Err(format!(
                "maximal matching tables cover {}/{} of {} vertices",
                self.adj.len(),
                self.mate.len(),
                self.n
            ));
        }
        let degree_sum: usize = self.adj.iter().map(BTreeSet::len).sum();
        if degree_sum != 2 * self.edge_count {
            return Err(format!(
                "maximal matching edge count {} disagrees with degree sum {degree_sum}",
                self.edge_count
            ));
        }
        for (v, (neighbors, mate)) in (0..).zip(self.adj.iter().zip(&self.mate)) {
            if let Some(&w) = neighbors
                .iter()
                .find(|&&w| w == v || self.adj.get(w as usize).is_none_or(|a| !a.contains(&v)))
            {
                return Err(format!(
                    "maximal matching stores {v}–{w} without its reverse"
                ));
            }
            match *mate {
                Some(w) if !neighbors.contains(&w) => {
                    return Err(format!(
                        "maximal matching mate {w} of {v} is not a neighbor"
                    ));
                }
                Some(w) if self.mate[w as usize] != Some(v) => {
                    return Err(format!(
                        "maximal matching mate table is asymmetric at {v}–{w}"
                    ));
                }
                Some(_) => {}
                None => {
                    if let Some(w) = self.smallest_free_neighbor(v) {
                        return Err(format!(
                            "maximal matching leaves the free–free edge {v}–{w}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_graph::update::Update;
    use mpc_hashing::rng::StdRng;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(256, 0.5).local_capacity(1 << 14).build())
    }

    /// The full-scan rematch the touched-set version replaced: every
    /// round scans all `n` vertices. Kept as the exactness reference.
    fn rematch_full_scan(mm: &mut MaximalMatching, ctx: &mut MpcContext) {
        mm.last_rematch_rounds = 0;
        loop {
            let mut proposals: Vec<(VertexId, VertexId)> = Vec::new();
            for v in 0..mm.n as u32 {
                if mm.mate[v as usize].is_some() {
                    continue;
                }
                if let Some(&w) = mm.adj[v as usize]
                    .iter()
                    .find(|&&w| mm.mate[w as usize].is_none())
                {
                    proposals.push((w, v));
                }
            }
            if proposals.is_empty() {
                break;
            }
            mm.last_rematch_rounds += 1;
            ctx.exchange(2 * proposals.len() as u64);
            ctx.exchange(proposals.len() as u64);
            proposals.sort_unstable();
            for (target, proposer) in proposals {
                if mm.mate[target as usize].is_none() && mm.mate[proposer as usize].is_none() {
                    mm.mate[target as usize] = Some(proposer);
                    mm.mate[proposer as usize] = Some(target);
                }
            }
        }
    }

    /// `apply_batch` with the full-scan rematch.
    fn reference_apply_batch(mm: &mut MaximalMatching, batch: &Batch, ctx: &mut MpcContext) {
        mpc_stream_core::route_batch(batch, mm.n, ctx).expect("in-range batch");
        let mut ignored = Vec::new();
        for u in batch.iter() {
            if u.is_insert() {
                mm.insert_edge_inner(u.edge(), &mut ignored);
            } else {
                mm.delete_edge_inner(u.edge(), &mut ignored);
            }
        }
        rematch_full_scan(mm, ctx);
    }

    /// `apply_edge_lists` with the full-scan rematch.
    fn reference_apply_edge_lists(
        mm: &mut MaximalMatching,
        insertions: &[Edge],
        deletions: &[Edge],
        ctx: &mut MpcContext,
    ) {
        let k = (insertions.len() + deletions.len()) as u64;
        ctx.exchange(2 * k + 1);
        ctx.broadcast(2);
        let mut ignored = Vec::new();
        for &e in deletions {
            mm.delete_edge_inner(e, &mut ignored);
        }
        for &e in insertions {
            mm.insert_edge_inner(e, &mut ignored);
        }
        rematch_full_scan(mm, ctx);
    }

    fn save_load(mm: &MaximalMatching) -> MaximalMatching {
        use mpc_snapshot::{load_section, save_section, Snapshot, SnapshotWriter};
        let mut w = SnapshotWriter::new(0);
        save_section(&mut w, "mm", mm);
        let bytes = w.finish();
        let loaded: MaximalMatching =
            load_section(&Snapshot::from_bytes(&bytes).expect("container"), "mm").expect("valid");
        let mut again = SnapshotWriter::new(0);
        save_section(&mut again, "mm", &loaded);
        assert_eq!(again.finish(), bytes, "save → load → save is byte-stable");
        loaded
    }

    /// A random edge of `0..n`, `u < v`.
    fn random_edge(rng: &mut StdRng, n: u32) -> Edge {
        let a = rng.gen_range(0..n);
        let b = (a + rng.gen_range(1..n)) % n;
        Edge::new(a, b)
    }

    /// A random set-semantic batch over `mm`'s graph: fresh and
    /// duplicate inserts, deletes of matched, unmatched and missing
    /// edges, and insert+delete pairs of one edge.
    fn random_updates(rng: &mut StdRng, mm: &MaximalMatching) -> Vec<Update> {
        let n = mm.n as u32;
        let matched = mm.matching();
        let mut out = Vec::new();
        for _ in 0..rng.gen_range(0..12) {
            match rng.gen_range(0..6) {
                0 | 1 => out.push(Update::Insert(random_edge(rng, n))),
                2 if !matched.is_empty() => {
                    out.push(Update::Delete(matched[rng.gen_range(0..matched.len())]));
                }
                3 => {
                    // Duplicate insert (live edge or repeated in batch).
                    let v = rng.gen_range(0..n);
                    let e = mm.adj[v as usize]
                        .iter()
                        .next()
                        .map_or_else(|| random_edge(rng, n), |&w| Edge::new(v, w));
                    out.extend([Update::Insert(e), Update::Insert(e)]);
                }
                4 => {
                    let e = random_edge(rng, n);
                    if rng.gen_bool(0.5) {
                        out.extend([Update::Insert(e), Update::Delete(e)]);
                    } else {
                        out.extend([Update::Delete(e), Update::Insert(e)]);
                    }
                }
                _ => out.push(Update::Delete(random_edge(rng, n))),
            }
        }
        out
    }

    fn assert_same(
        fast: &MaximalMatching,
        slow: &MaximalMatching,
        cf: &MpcContext,
        cs: &MpcContext,
    ) {
        assert_eq!(fast.mate, slow.mate, "matchings diverged");
        assert_eq!(fast.adj, slow.adj);
        assert_eq!(fast.edge_count, slow.edge_count);
        assert_eq!(fast.last_rematch_rounds, slow.last_rematch_rounds);
        assert_eq!(cf.rounds(), cs.rounds());
        assert_eq!(cf.stats(), cs.stats(), "rounds and words diverged");
        assert!(fast.is_maximal());
    }

    #[test]
    fn touched_set_rematch_matches_the_full_scan_reference() {
        let mut rng = StdRng::seed_from_u64(0x7e57);
        for trial in 0..24 {
            let n = [2, 5, 16, 40][trial % 4];
            let (mut cf, mut cs) = (ctx(), ctx());
            let mut fast = MaximalMatching::new(n);
            let mut slow = MaximalMatching::new(n);
            for step in 0..40 {
                if step % 13 == 12 {
                    fast = save_load(&fast);
                    slow = save_load(&slow);
                }
                let updates = random_updates(&mut rng, &fast);
                if step % 2 == 0 {
                    let batch = Batch::from_updates(updates);
                    fast.apply_batch(&batch, &mut cf).expect("in-range batch");
                    reference_apply_batch(&mut slow, &batch, &mut cs);
                } else {
                    let (ins, del): (Vec<Update>, Vec<Update>) =
                        updates.into_iter().partition(|u| u.is_insert());
                    let ins: Vec<Edge> = ins.into_iter().map(Update::edge).collect();
                    let del: Vec<Edge> = del.into_iter().map(Update::edge).collect();
                    fast.apply_edge_lists(&ins, &del, &mut cf);
                    reference_apply_edge_lists(&mut slow, &ins, &del, &mut cs);
                }
                assert_same(&fast, &slow, &cf, &cs);
            }
        }
    }

    fn corrupt_load(mm: &MaximalMatching) -> Result<MaximalMatching, mpc_snapshot::SnapshotError> {
        use mpc_snapshot::{load_section, save_section, Snapshot, SnapshotWriter};
        let mut w = SnapshotWriter::new(0);
        save_section(&mut w, "mm", mm);
        let bytes = w.finish();
        load_section(&Snapshot::from_bytes(&bytes).expect("container"), "mm")
    }

    #[test]
    fn restore_rejects_what_the_rematch_cannot_start_from() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(6);
        mm.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(1, 2), Edge::new(3, 4)]),
            &mut c,
        )
        .expect("valid");
        assert!(corrupt_load(&mm).is_ok());
        let rejected = |bad: &MaximalMatching, what: &str| {
            assert!(
                matches!(
                    corrupt_load(bad),
                    Err(mpc_snapshot::SnapshotError::Corrupt(_))
                ),
                "{what} must not load"
            );
        };
        // Asymmetric mate: 2 claims its neighbor 1, which is matched
        // to 0.
        assert_eq!(mm.mate_of(1), Some(0));
        let mut bad = mm.clone();
        bad.mate[2] = Some(1);
        rejected(&bad, "an asymmetric mate");
        // A mate that is not a neighbor: 2 and 5 share no edge.
        let mut bad = mm.clone();
        bad.mate[2] = Some(5);
        bad.mate[5] = Some(2);
        rejected(&bad, "a non-neighbor mate");
        // A free–free edge: unmatch 3–4.
        let mut bad = mm.clone();
        bad.mate[3] = None;
        bad.mate[4] = None;
        rejected(&bad, "a free–free edge");
        // A one-sided adjacency entry.
        let mut bad = mm.clone();
        bad.adj[5].insert(2);
        bad.adj[2].remove(&1);
        rejected(&bad, "an asymmetric adjacency");
        // An out-of-range neighbor.
        let mut bad = mm.clone();
        bad.adj[5].insert(9);
        bad.adj[2].remove(&1);
        rejected(&bad, "an out-of-range neighbor");
    }

    #[test]
    fn empty_graph_is_trivially_maximal() {
        let mm = MaximalMatching::new(4);
        assert!(mm.is_maximal());
        assert_eq!(mm.matching_size(), 0);
    }

    #[test]
    fn path_matches_alternately() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(6);
        let path: Vec<Edge> = (0..5u32).map(|i| Edge::new(i, i + 1)).collect();
        mm.apply_batch(&Batch::inserting(path), &mut c)
            .expect("valid");
        assert!(mm.is_maximal());
        assert!(mm.matching_size() >= 2);
    }

    #[test]
    fn deletion_of_matched_edge_rematches() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(4);
        mm.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 3)]),
            &mut c,
        )
        .expect("valid");
        assert!(mm.is_maximal());
        let m0 = mm.matching();
        mm.apply_batch(&Batch::deleting(m0), &mut c).expect("valid");
        assert!(mm.is_maximal());
        // 0-2 and 1-3 still present: both must be matched now.
        assert_eq!(mm.matching_size(), 2);
    }

    #[test]
    fn random_churn_stays_maximal_and_half_approx() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..10 {
            let n = 40;
            let mut c = ctx();
            let mut mm = MaximalMatching::new(n);
            let mut live: Vec<Edge> = Vec::new();
            for _ in 0..12 {
                let mut ins = Vec::new();
                let mut del = Vec::new();
                for _ in 0..8 {
                    if rng.gen_bool(0.6) || live.is_empty() {
                        let a = rng.gen_range(0..n as u32);
                        let b = rng.gen_range(0..n as u32);
                        if a != b {
                            let e = Edge::new(a, b);
                            if !live.contains(&e) && !ins.contains(&e) {
                                ins.push(e);
                            }
                        }
                    } else {
                        rng.shuffle(&mut live);
                        if let Some(e) = live.pop() {
                            del.push(e);
                        }
                    }
                }
                live.extend(&ins);
                let updates: Batch = ins
                    .iter()
                    .map(|&e| Update::Insert(e))
                    .chain(del.iter().map(|&e| Update::Delete(e)))
                    .collect();
                mm.apply_batch(&updates, &mut c).expect("valid");
                assert!(mm.is_maximal(), "trial {trial} lost maximality");
                // Matching edges are live and disjoint.
                let m = mm.matching();
                let mut used = BTreeSet::new();
                for e in &m {
                    assert!(live.contains(e), "matched edge {e} not live");
                    assert!(used.insert(e.u()) && used.insert(e.v()));
                }
                let opt = oracle::maximum_matching_size(n, &live);
                assert!(2 * m.len() >= opt, "trial {trial}: not a 2-approx");
            }
        }
    }

    #[test]
    fn rematch_rounds_stay_small() {
        let n = 256;
        let mut c = ctx();
        let mut mm = MaximalMatching::new(n);
        let stream = gen::random_insert_stream(n, 6, 32, 13);
        let mut max_rounds = 0;
        for batch in &stream.batches {
            mm.apply_batch(batch, &mut c).expect("valid");
            max_rounds = max_rounds.max(mm.last_rematch_rounds());
        }
        // The paper's budget is O(log 1/κ); our substitute should be
        // in the same ballpark, far below the batch size.
        assert!(max_rounds <= 8, "rematch took {max_rounds} rounds");
        assert!(mm.is_maximal());
    }

    #[test]
    fn duplicate_and_missing_updates_ignored() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(4);
        mm.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(0, 1)]),
            &mut c,
        )
        .expect("duplicates are set-semantic here");
        assert_eq!(mm.edge_count(), 1);
        mm.apply_batch(&Batch::deleting([Edge::new(2, 3)]), &mut c)
            .expect("missing deletions ignored");
        assert_eq!(mm.edge_count(), 1);
        assert!(mm.words() > 0);
    }

    #[test]
    fn out_of_range_endpoint_is_invalid_batch() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(4);
        let err = mm
            .apply_batch(&Batch::inserting([Edge::new(0, 9)]), &mut c)
            .expect_err("endpoint outside [0, 4)");
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
        assert_eq!(mm.edge_count(), 0, "state unchanged on error");
    }

    #[test]
    fn oversized_batch_is_capacity_error() {
        let mut c = MpcContext::new(
            MpcConfig::builder(64, 0.5)
                .local_capacity(4)
                .machines(2)
                .build(),
        );
        let mut mm = MaximalMatching::new(64);
        let big = Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 8)));
        let err = mm.apply_batch(&big, &mut c).expect_err("cannot fit");
        assert!(matches!(err, MpcStreamError::Capacity(_)));
    }

    #[test]
    fn batch_applies_in_arrival_order() {
        let mut c = ctx();
        let mut mm = MaximalMatching::new(4);
        let e = Edge::new(0, 1);
        // Insert then delete of an absent edge nets to absent…
        mm.apply_batch(
            &Batch::from_updates(vec![Update::Insert(e), Update::Delete(e)]),
            &mut c,
        )
        .expect("valid");
        assert_eq!(mm.edge_count(), 0);
        // …and delete then insert of a live edge nets to present.
        mm.apply_batch(&Batch::inserting([e]), &mut c)
            .expect("valid");
        mm.apply_batch(
            &Batch::from_updates(vec![Update::Delete(e), Update::Insert(e)]),
            &mut c,
        )
        .expect("valid");
        assert_eq!(mm.edge_count(), 1);
        assert_eq!(mm.matching_size(), 1);
    }
}
