//! Batch-dynamic **maximal** matching — the substrate standing in for
//! Nowicki–Onak \[NO21\] (paper Proposition 8.4).
//!
//! The paper uses \[NO21\] as a black box: a structure over an
//! explicitly stored graph `H` that processes a batch of `O(s^{1-κ})`
//! insertions/deletions in `O(log 1/κ)` rounds and maintains a
//! maximal matching in `Õ(|E(H)|)` total memory. We provide the same
//! contract with a simpler mechanism (a documented substitution, see
//! DESIGN.md): after applying the batch, free vertices are re-matched
//! by synchronized rounds of greedy proposals — every free vertex
//! proposes to its smallest free neighbor, every free vertex accepts
//! its smallest proposer. Each round matches at least the
//! lexicographically smallest free–free edge, and empirically the
//! loop ends in a handful of rounds (measured and reported by
//! [`MaximalMatching::last_rematch_rounds`]).
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
        for u in batch.iter() {
            if u.is_insert() {
                self.insert_edge_inner(u.edge());
            } else {
                self.delete_edge_inner(u.edge());
            }
        }
        self.rematch(ctx);
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
        for &e in deletions {
            self.delete_edge_inner(e);
        }
        for &e in insertions {
            self.insert_edge_inner(e);
        }
        self.rematch(ctx);
    }

    fn insert_edge_inner(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        if self.adj[u as usize].insert(v) {
            self.adj[v as usize].insert(u);
            self.edge_count += 1;
        }
    }

    fn delete_edge_inner(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        if self.adj[u as usize].remove(&v) {
            self.adj[v as usize].remove(&u);
            self.edge_count -= 1;
            if self.mate[u as usize] == Some(v) {
                self.mate[u as usize] = None;
                self.mate[v as usize] = None;
            }
        }
    }

    /// Synchronized greedy proposal rounds until maximal.
    fn rematch(&mut self, ctx: &mut MpcContext) {
        self.last_rematch_rounds = 0;
        loop {
            // Proposal phase: every free vertex with a free neighbor
            // proposes to its smallest free neighbor.
            let mut proposals: Vec<(VertexId, VertexId)> = Vec::new(); // (target, proposer)
            for v in 0..self.n as u32 {
                if self.mate[v as usize].is_some() {
                    continue;
                }
                if let Some(&w) = self.adj[v as usize]
                    .iter()
                    .find(|&&w| self.mate[w as usize].is_none())
                {
                    proposals.push((w, v));
                }
            }
            if proposals.is_empty() {
                break;
            }
            self.last_rematch_rounds += 1;
            ctx.exchange(2 * proposals.len() as u64);
            ctx.exchange(proposals.len() as u64);
            // Acceptance phase: every free vertex accepts its
            // smallest proposer; both sides re-check freeness as
            // matches are committed in id order.
            proposals.sort_unstable();
            for (target, proposer) in proposals {
                if self.mate[target as usize].is_none() && self.mate[proposer as usize].is_none() {
                    self.mate[target as usize] = Some(proposer);
                    self.mate[proposer as usize] = Some(target);
                }
            }
        }
    }
}

impl mpc_stream_core::Maintain for MaximalMatching {
    fn save_state(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        mpc_snapshot::Persist::save(self, w);
    }

    fn name(&self) -> &'static str {
        "matching-maximal"
    }

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

    fn supports(&self, query: &mpc_stream_core::QueryRequest) -> bool {
        use mpc_stream_core::QueryRequest;
        matches!(
            query,
            QueryRequest::MatchingSize | QueryRequest::MatchingEdges
        )
    }

    /// The matching is maintained explicitly: its size is one
    /// converge-cast of per-shard matched counts, the edge list is
    /// the model's output sort.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Result<mpc_stream_core::QueryResponse, MpcStreamError> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        match *query {
            QueryRequest::MatchingSize => {
                ctx.converge_cast(self.n as u64, 1);
                Ok(QueryResponse::Count(self.matching_size() as u64))
            }
            QueryRequest::MatchingEdges => {
                let matching = self.matching();
                ctx.sort(2 * matching.len() as u64 + 1);
                Ok(QueryResponse::Edges(matching))
            }
            _ => Err(mpc_stream_core::unsupported_query(
                "matching-maximal",
                query,
            )),
        }
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(MaximalMatching {
    n,
    adj,
    mate,
    edge_count,
    last_rematch_rounds,
} check |m| {
    if m.adj.len() != m.n || m.mate.len() != m.n {
        return Err(format!(
            "maximal matching tables cover {}/{} of {} vertices",
            m.adj.len(),
            m.mate.len(),
            m.n
        ));
    }
    let degree_sum: usize = m.adj.iter().map(BTreeSet::len).sum();
    if degree_sum != 2 * m.edge_count {
        return Err(format!(
            "maximal matching edge count {} disagrees with degree sum {degree_sum}",
            m.edge_count
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_graph::update::Update;
    use mpc_sim::MpcConfig;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(256, 0.5).local_capacity(1 << 14).build())
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
                        live.shuffle(&mut rng);
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
