//! Exact minimum spanning forest in insertion-only streams
//! (paper Section 7.1, Theorem 7.1(i)).
//!
//! The forest is maintained as distributed Euler tours. A batch of
//! `k` weighted insertions is processed in a constant number of
//! per-iteration rounds:
//!
//! 1. **Cross-component edges** (Case 1 of Section 7.1.2): Section
//!    6.1's join step in Kruskal order. The coordinator gathers the
//!    `O(k)` candidate edges and hands them, sorted by `(weight,
//!    edge)`, to one `batch_join`, which keeps and splices each that
//!    joins two components not yet joined — Kruskal on the component
//!    quotient (the view of Jurdziński–Nowicki, arXiv:1707.08484).
//!    Every merged tour's members take its smallest member as label.
//! 2. **Intra-component edges** (Case 2): all remaining candidates
//!    run `Identify-Path` *in parallel* (one broadcast of all
//!    endpoints' `f/ℓ` values; every machine tests its own edges);
//!    each candidate learns the heaviest edge `e'` on its tree path.
//!    Candidates not lighter than their path maximum are discarded by
//!    the cycle rule. The heaviest edges are cut in one
//!    `batch_split`, and the displaced edges re-enter as candidates.
//!
//! Steps 1–2 repeat until no candidate survives. The paper sketches a
//! single pass; when several candidates share path edges a single
//! pass can miss a beneficial second swap, so we iterate to a
//! fixpoint — each iteration strictly decreases the forest weight, so
//! the loop terminates, and measured iteration counts (experiment
//! E4's "max swap iters" column) are 1–2 on the evaluation
//! workloads. Exactness is asserted against Kruskal in the tests.

use mpc_etf::DistEtf;
use mpc_graph::ids::{Edge, VertexId, WeightedEdge};
use mpc_graph::update::WeightedBatch;
use mpc_sim::{MpcContext, MpcStreamError};
use std::collections::{BTreeMap, BTreeSet};

/// The swap machinery violated an internal invariant — the loop
/// failed to converge, or the forest bookkeeping lost an edge.
fn no_convergence() -> MpcStreamError {
    MpcStreamError::Internal("swap loop failed to converge".into())
}

impl mpc_stream_core::Maintain for ExactMsf {
    fn name(&self) -> &'static str {
        "msf-exact"
    }

    /// `O(1)`: the vertex, ETF and weight-map counts.
    fn words(&self) -> u64 {
        ExactMsf::words(self)
    }

    /// Unweighted batches are interpreted with unit weights (the MSF
    /// then coincides with any spanning forest, which the weight and
    /// swap machinery handles as the all-ties case).
    fn ingest(
        &mut self,
        batch: &mpc_graph::update::Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.ingest_weighted(&crate::approx::unit_weighted(batch), ctx)
    }

    fn ingest_weighted(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Maintained forest ⇒ `O(1)`-round answers: the weight is one
    /// converge-cast of per-shard partial sums, and the connectivity
    /// questions are read off the maintained labels and forest
    /// ([`mpc_stream_core::answer_maintained`]).
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{answer_maintained, QueryRequest, QueryResponse};
        if *query == QueryRequest::ForestWeight {
            ctx.converge_cast(self.n as u64, 1);
            return Some(Ok(QueryResponse::Weight(self.weight() as f64)));
        }
        let forest = || self.etf.forest_edges().collect();
        answer_maintained(query, &self.comp, forest, ctx)
    }
}

/// Exact MSF under insertion-only batches.
///
/// # Examples
///
/// ```
/// use mpc_msf::ExactMsf;
/// use mpc_graph::ids::WeightedEdge;
/// use mpc_graph::update::WeightedBatch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 12).build(),
/// );
/// let mut msf = ExactMsf::new(8);
/// msf.apply_batch(
///     &WeightedBatch::inserting([
///         WeightedEdge::new(0, 1, 5),
///         WeightedEdge::new(1, 2, 3),
///         WeightedEdge::new(0, 2, 4), // closes a cycle; 5 is evicted
///     ]),
///     &mut ctx,
/// )?;
/// assert_eq!(msf.weight(), 7);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ExactMsf {
    n: usize,
    comp: Vec<VertexId>,
    etf: DistEtf,
    weights: BTreeMap<Edge, u64>,
    /// Iterations used by the most recent batch (for the ablation
    /// experiment).
    last_iterations: usize,
    seen: BTreeSet<Edge>,
}

impl ExactMsf {
    /// Creates the structure for an empty graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        ExactMsf {
            n,
            comp: (0..n as u32).collect(),
            etf: DistEtf::new(n),
            weights: BTreeMap::new(),
            last_iterations: 0,
            seen: BTreeSet::new(),
        }
    }

    /// Bootstraps the structure from an arbitrary pre-existing
    /// weighted simple graph (the paper's "pre-computation phase"
    /// remark, end of Section 1.1): the edges stream through the
    /// normal insertion path in machine-sized chunks, costing
    /// `O((m/s)·(1/φ))` rounds once.
    ///
    /// # Errors
    ///
    /// Same contract as [`ExactMsf::apply_batch`].
    pub fn from_graph(
        n: usize,
        edges: impl IntoIterator<Item = WeightedEdge>,
        ctx: &mut MpcContext,
    ) -> Result<Self, MpcStreamError> {
        let mut msf = ExactMsf::new(n);
        let chunk = (ctx.config().local_capacity() / 4).max(1) as usize;
        let all: Vec<WeightedEdge> = edges.into_iter().collect();
        for ch in all.chunks(chunk) {
            msf.apply_batch(&WeightedBatch::inserting(ch.iter().copied()), ctx)?;
        }
        Ok(msf)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The current minimum spanning forest with weights.
    pub fn forest(&self) -> Vec<WeightedEdge> {
        self.etf
            .forest_edges()
            .map(|e| WeightedEdge {
                edge: e,
                weight: self.weights[&e],
            })
            .collect()
    }

    /// Total weight of the current MSF.
    pub fn weight(&self) -> u64 {
        self.weights.values().sum()
    }

    /// Component id of `v` (smallest member id).
    pub fn component_of(&self, v: VertexId) -> VertexId {
        self.comp[v as usize]
    }

    /// Whether two vertices are connected.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// Swap-loop iterations consumed by the last batch.
    pub fn last_iterations(&self) -> usize {
        self.last_iterations
    }

    /// Memory footprint in words (component ids + tours + weights).
    pub fn words(&self) -> u64 {
        self.n as u64 + self.etf.words() + 2 * self.weights.len() as u64
    }

    /// Processes a batch of weighted insertions.
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::Unsupported`] if the batch deletes.
    /// * [`MpcStreamError::InvalidBatch`] on re-insertion of a live or
    ///   previously dominated edge, or an endpoint outside `[0, n)`.
    /// * [`MpcStreamError::Capacity`] on resource violations.
    pub fn apply_batch(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        if let Some(d) = batch.deletions().next() {
            return Err(MpcStreamError::Unsupported(format!(
                "deletion of {} in insertion-only MSF stream",
                d.edge
            )));
        }
        // Validate the whole batch before any mutation, so an error
        // leaves the structure (including `seen`) untouched.
        for we in batch.insertions() {
            if we.edge.v() as usize >= self.n {
                return Err(MpcStreamError::InvalidBatch(format!(
                    "edge {} has an endpoint outside [0, {})",
                    we.edge, self.n
                )));
            }
        }
        let mut cand: Vec<WeightedEdge> = Vec::new();
        for we in batch.insertions() {
            if !self.seen.insert(we.edge) {
                return Err(MpcStreamError::InvalidBatch(format!(
                    "duplicate insertion of {}",
                    we.edge
                )));
            }
            cand.push(we);
        }
        self.last_iterations = 0;
        // Fixpoint loop; each iteration is O(1) rounds. 2k+2 bounds
        // the number of candidate re-activations.
        let max_iter = 2 * cand.len() + 2;
        while !cand.is_empty() {
            self.last_iterations += 1;
            if self.last_iterations > max_iter {
                return Err(no_convergence());
            }
            cand = self.one_iteration(cand, ctx)?;
        }
        Ok(())
    }

    /// One Case-1 + Case-2 pass; returns the reactivated candidates.
    fn one_iteration(
        &mut self,
        mut cand: Vec<WeightedEdge>,
        ctx: &mut MpcContext,
    ) -> Result<Vec<WeightedEdge>, MpcStreamError> {
        let k = cand.len() as u64;
        // --- Case 1: cross-component candidates -------------------
        // Kruskal on the component quotient: in `(weight, edge)` order,
        // `batch_join` keeps each candidate that joins two components
        // not yet joined (Section 6.1's join step).
        ctx.gather(3 * k)?;
        cand.sort_by_key(|we| (we.weight, we.edge));
        let edges: Vec<Edge> = cand.iter().map(|we| we.edge).collect();
        let joined = self.etf.batch_join(&edges, ctx)?;
        let mut rest: Vec<WeightedEdge> = Vec::with_capacity(cand.len() - joined.len());
        let mut next_joined = joined.iter().peekable();
        for we in cand {
            if next_joined.next_if_eq(&&we.edge).is_some() {
                self.weights.insert(we.edge, we.weight);
            } else {
                rest.push(we);
            }
        }
        if !joined.is_empty() {
            // Each merged group takes its tour's label: g components
            // merged relabel g − 1, one per joined edge. Only the
            // merged tours' members are visited, not all n.
            ctx.sort(2 * joined.len() as u64 + 1);
            ctx.broadcast(2);
            self.etf.label_tours(
                joined.iter().map(|e| self.etf.tour_of(e.u())),
                &mut self.comp,
            );
        }
        // --- Case 2: intra-component candidates -------------------
        if rest.is_empty() {
            return Ok(Vec::new());
        }
        // One broadcast of all endpoints' f/ℓ values; each machine
        // evaluates the path test for its own edges (Lemma 7.2).
        ctx.exchange(4 * rest.len() as u64);
        ctx.sort(4 * rest.len() as u64);
        ctx.broadcast(2);
        // Path maxima, one shard pass per affected tour: candidates
        // sharing a tour are tested against each shard edge in shard
        // order, so the tour's edge array is scanned once for all of
        // them (not once per candidate) and each edge's weight is
        // looked up at most once per pass — the membership test is
        // Lemma 7.2's `EdgeRec::on_path`, evaluated per candidate.
        let mut by_tour: BTreeMap<mpc_etf::TourId, Vec<usize>> = BTreeMap::new();
        for (i, we) in rest.iter().enumerate() {
            by_tour
                .entry(self.etf.tour_of(we.edge.u()))
                .or_default()
                .push(i);
        }
        let mut heaviest: Vec<Option<WeightedEdge>> = vec![None; rest.len()];
        for (tour, cands) in by_tour {
            let spans: Vec<((u64, u64), (u64, u64))> = cands
                .iter()
                .map(|&i| {
                    let e = rest[i].edge;
                    (self.etf.f_l(e.u()), self.etf.f_l(e.v()))
                })
                .collect();
            for (pe, rec) in self.etf.tour_edges(tour) {
                let mut weighted: Option<WeightedEdge> = None;
                for (&i, &(u, v)) in cands.iter().zip(&spans) {
                    if !rec.on_path(u, v) {
                        continue;
                    }
                    let path_edge = *weighted.get_or_insert_with(|| WeightedEdge {
                        edge: pe,
                        weight: self.weights[&pe],
                    });
                    if heaviest[i]
                        .is_none_or(|h| (path_edge.weight, path_edge.edge) > (h.weight, h.edge))
                    {
                        heaviest[i] = Some(path_edge);
                    }
                }
            }
        }
        let mut cuts: BTreeSet<Edge> = BTreeSet::new();
        let mut swappers: Vec<WeightedEdge> = Vec::new();
        for (we, heaviest) in rest.into_iter().zip(heaviest) {
            // Intra-component candidates always close a cycle, so the
            // tree path between their endpoints is nonempty; a missing
            // heaviest edge means the swap machinery lost track of the
            // forest — surfaced as an error, never an abort.
            let heaviest = heaviest.ok_or_else(no_convergence)?;
            if heaviest.weight > we.weight {
                cuts.insert(heaviest.edge);
                swappers.push(we);
            }
            // else: `we` is a maximum-weight edge on its cycle —
            // discard permanently (cycle rule).
        }
        if cuts.is_empty() {
            return Ok(Vec::new());
        }
        let cut_list: Vec<Edge> = cuts.iter().copied().collect();
        let mut reactivated: Vec<WeightedEdge> = Vec::with_capacity(cut_list.len());
        for &e in &cut_list {
            // Every cut edge was just read out of the forest; losing
            // its weight entry is the same lost-forest invariant.
            let weight = self.weights.remove(&e).ok_or_else(no_convergence)?;
            reactivated.push(WeightedEdge { edge: e, weight });
        }
        // Temporary component ids for the pieces: their tours' labels.
        let pieces = self.etf.try_batch_split(&cut_list, ctx)?;
        ctx.sort(2 * pieces.len() as u64);
        ctx.broadcast(2);
        self.etf.label_tours(pieces, &mut self.comp);
        reactivated.extend(swappers);
        Ok(reactivated)
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(ExactMsf {
    n,
    comp,
    etf,
    weights,
    last_iterations,
    seen,
} check |m| {
    // A forest on n vertices has at most n-1 edges.
    if m.comp.len() != m.n || m.weights.len() >= m.n.max(1) {
        return Err(format!(
            "exact-msf holds {} labels and {} forest edges for n = {}",
            m.comp.len(),
            m.weights.len(),
            m.n
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_etf::tour::validate;
    use mpc_graph::gen;
    use mpc_graph::oracle::{self, UnionFind};
    use mpc_sim::MpcConfig;

    fn ctx_for(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
    }

    fn check_exact(msf: &ExactMsf, all: &[WeightedEdge], n: usize) {
        let expect = oracle::msf_weight(n, all.iter().copied());
        assert_eq!(msf.weight(), expect, "MSF weight must match Kruskal");
        // Forest validity.
        let forest = msf.forest();
        let mut uf = UnionFind::new(n);
        for we in &forest {
            assert!(all.contains(we), "forest edge {we} never inserted");
            assert!(uf.union(we.edge.u(), we.edge.v()), "cycle at {we}");
        }
        assert_eq!(
            uf.component_count(),
            oracle::component_count(n, all.iter().map(|we| we.edge)),
            "forest must span"
        );
        validate(msf.etf_ref()).expect("tours valid");
        // Every label is its tour's smallest member.
        for v in 0..n as u32 {
            let etf = msf.etf_ref();
            assert_eq!(
                msf.component_of(v),
                etf.tour_members(etf.tour_of(v))[0],
                "label of {v}"
            );
        }
    }

    impl ExactMsf {
        fn etf_ref(&self) -> &DistEtf {
            &self.etf
        }
    }

    #[test]
    fn triangle_swap() {
        let n = 4;
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        let all = [
            WeightedEdge::new(0, 1, 10),
            WeightedEdge::new(1, 2, 1),
            WeightedEdge::new(0, 2, 2),
        ];
        msf.apply_batch(&WeightedBatch::inserting(all), &mut ctx)
            .unwrap();
        check_exact(&msf, &all, n);
        assert_eq!(msf.weight(), 3);
    }

    #[test]
    fn shared_path_max_double_swap() {
        // The counterexample to a single-pass Case-2: two candidates
        // whose tree paths share the same heaviest edge; an exact MSF
        // requires swapping twice (second-heaviest too).
        let n = 6;
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        // Path 0-1-2-3 with weights 1, 100, 50.
        let base = [
            WeightedEdge::new(0, 1, 1),
            WeightedEdge::new(1, 2, 100),
            WeightedEdge::new(2, 3, 50),
        ];
        msf.apply_batch(&WeightedBatch::inserting(base), &mut ctx)
            .unwrap();
        // Candidates {0,2} w=2 and {1,3} w=3: both paths contain the
        // 100-edge; true MSF keeps {0,1},{0,2},{1,3} = 6.
        let extra = [WeightedEdge::new(0, 2, 2), WeightedEdge::new(1, 3, 3)];
        msf.apply_batch(&WeightedBatch::inserting(extra), &mut ctx)
            .unwrap();
        let all: Vec<WeightedEdge> = base.iter().chain(&extra).copied().collect();
        check_exact(&msf, &all, n);
        assert_eq!(msf.weight(), 6);
        assert!(msf.last_iterations() >= 2, "needs a second swap pass");
    }

    #[test]
    fn random_streams_match_kruskal() {
        for seed in 0..8 {
            let n = 32;
            let stream = gen::random_weighted_insert_stream(n, 6, 8, 50, seed);
            let mut ctx = ctx_for(n);
            let mut msf = ExactMsf::new(n);
            let mut all: Vec<WeightedEdge> = Vec::new();
            for batch in &stream.batches {
                msf.apply_batch(batch, &mut ctx).unwrap();
                all.extend(batch.insertions());
                check_exact(&msf, &all, n);
            }
        }
    }

    #[test]
    fn equal_weights_no_spurious_swaps() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        let all: Vec<WeightedEdge> = (0..7u32)
            .map(|i| WeightedEdge::new(i, i + 1, 5))
            .chain([WeightedEdge::new(0, 7, 5)])
            .collect();
        msf.apply_batch(&WeightedBatch::inserting(all.clone()), &mut ctx)
            .unwrap();
        check_exact(&msf, &all, n);
        assert_eq!(msf.weight(), 35);
    }

    #[test]
    fn deletions_rejected() {
        let n = 4;
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        let mut batch = WeightedBatch::new();
        batch.push(mpc_graph::update::WeightedUpdate::Delete(
            WeightedEdge::new(0, 1, 1),
        ));
        assert!(matches!(
            msf.apply_batch(&batch, &mut ctx),
            Err(MpcStreamError::Unsupported(_))
        ));
    }

    #[test]
    fn duplicates_rejected() {
        let n = 4;
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        msf.apply_batch(
            &WeightedBatch::inserting([WeightedEdge::new(0, 1, 1)]),
            &mut ctx,
        )
        .unwrap();
        assert!(matches!(
            msf.apply_batch(
                &WeightedBatch::inserting([WeightedEdge::new(0, 1, 2)]),
                &mut ctx,
            ),
            Err(MpcStreamError::InvalidBatch(_))
        ));
    }

    #[test]
    fn rounds_per_batch_bounded() {
        let n = 128;
        let stream = gen::random_weighted_insert_stream(n, 6, 12, 40, 3);
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        for batch in &stream.batches {
            ctx.begin_phase("msf-batch");
            msf.apply_batch(batch, &mut ctx).unwrap();
            let r = ctx.end_phase();
            // O(iterations / φ) rounds; iterations observed small.
            let budget = (6 * msf.last_iterations().max(1) as u64 + 6)
                * ctx.config().round_budget_per_primitive();
            assert!(r.rounds <= budget, "{} > {budget}", r.rounds);
        }
    }
    #[test]
    fn from_graph_equals_kruskal_and_continues_dynamically() {
        use mpc_graph::gen;
        let n = 32;
        let stream = gen::random_weighted_insert_stream(n, 4, 10, 50, 77);
        let mut edges: Vec<WeightedEdge> = Vec::new();
        for b in &stream.batches {
            edges.extend(b.insertions());
        }
        let mut ctx = MpcContext::new(
            mpc_sim::MpcConfig::builder(n, 0.5)
                .local_capacity(1 << 14)
                .build(),
        );
        let mut msf =
            ExactMsf::from_graph(n, edges.iter().copied(), &mut ctx).expect("valid stream");
        check_exact(&msf, &edges, n);
        // Dynamic continuation from the bootstrapped state.
        let extra = WeightedEdge::new(0, 31, 1);
        if !edges.iter().any(|w| w.edge == extra.edge) {
            msf.apply_batch(&WeightedBatch::inserting([extra]), &mut ctx)
                .expect("insert");
            edges.push(extra);
            check_exact(&msf, &edges, n);
        }
    }
}
