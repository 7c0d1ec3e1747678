//! `(1+ε)`-approximate minimum spanning forest under arbitrary
//! batches (paper Section 7.2, Theorem 7.1(ii)).
//!
//! The \[CRT'05\] threshold reduction: maintain connectivity in the
//! `t+1` subgraphs `G_i` (edges of weight `≤ (1+ε)^i`,
//! `t = ⌈log_{1+ε} W⌉`). The MSF weight satisfies
//!
//! ```text
//! w ≈ (n − cc(G_t)) + Σ_{i=0}^{t-1} λ_i · (cc(G_i) − cc(G_t)),
//!     λ_i = (1+ε)^{i+1} − (1+ε)^i,
//! ```
//!
//! which over-counts by at most a `(1+ε)` factor (the disconnected-
//! graph generalization of the paper's Equation (1)). The forest
//! variant (Section 7.2.2) additionally reports the edge set
//! `{e ∈ F_i : comp_{i-1}(u) ≠ comp_{i-1}(v)}`.

use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::{Batch, Update, WeightedBatch};
use mpc_sim::{MpcContext, MpcStreamError};
use mpc_stream_core::{Connectivity, ConnectivityConfig};

/// Shared threshold machinery for the weight and forest variants.
#[derive(Debug, Clone)]
struct ThresholdStack {
    n: usize,
    eps: f64,
    /// `thresholds[i] = (1+ε)^i`, so instance `i` holds edges of
    /// weight `≤ thresholds[i]`.
    thresholds: Vec<f64>,
    instances: Vec<Connectivity>,
}

impl ThresholdStack {
    #[expect(
        clippy::disallowed_macros,
        reason = "ε and W are construction parameters of the public constructors"
    )]
    fn new(n: usize, eps: f64, max_weight: u64, seed: u64) -> Self {
        assert!(eps > 0.0, "ε must be positive, got {eps}");
        assert!(max_weight >= 1, "weights live in [1, W] with W ≥ 1");
        let mut top = 1.0;
        let mut thresholds = vec![top];
        while top < max_weight as f64 {
            top *= 1.0 + eps;
            thresholds.push(top);
        }
        let instances = (0..thresholds.len())
            .map(|i| {
                Connectivity::new(
                    n,
                    ConnectivityConfig::default(),
                    seed.wrapping_add(1 + i as u64),
                )
            })
            .collect();
        ThresholdStack {
            n,
            eps,
            thresholds,
            instances,
        }
    }

    fn apply_batch(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        // The t+1 threshold instances are independent and run in
        // parallel (the paper's Section 7.2 construction): the batch
        // costs the maximum instance's rounds, not the sum.
        ctx.parallel(
            self.instances.iter_mut().zip(&self.thresholds),
            |(conn, &w_i), ctx| {
                let sub: Batch = batch
                    .iter()
                    .filter(|u| (u.weighted_edge().weight as f64) <= w_i)
                    .map(|u| u.unweighted())
                    .collect();
                if sub.is_empty() {
                    return Ok(());
                }
                conn.apply_batch(&sub, ctx)
            },
        )
    }

    fn weight_estimate(&self) -> f64 {
        let t = self.thresholds.len() - 1;
        let cc_top = self.instances[t].component_count() as f64;
        let mut w = self.n as f64 - cc_top;
        for i in 0..t {
            let lambda = self.thresholds[i] * self.eps;
            let cc_i = self.instances[i].component_count() as f64;
            w += lambda * (cc_i - cc_top);
        }
        w
    }

    fn words(&self) -> u64 {
        self.instances.iter().map(Connectivity::words).sum()
    }

    fn sampler_failure_count(&self) -> u64 {
        self.instances
            .iter()
            .map(Connectivity::sampler_failure_count)
            .sum()
    }
}

/// `(1+ε)`-approximation to the MSF **weight** under arbitrary
/// batches (Section 7.2.1).
///
/// # Examples
///
/// ```
/// use mpc_msf::ApproxMsfWeight;
/// use mpc_graph::ids::WeightedEdge;
/// use mpc_graph::update::WeightedBatch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut aw = ApproxMsfWeight::new(8, 0.25, 16, 42);
/// aw.apply_batch(
///     &WeightedBatch::inserting([
///         WeightedEdge::new(0, 1, 4),
///         WeightedEdge::new(1, 2, 2),
///     ]),
///     &mut ctx,
/// )?;
/// let est = aw.weight_estimate();
/// assert!(est >= 6.0 && est <= 6.0 * 1.25);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ApproxMsfWeight {
    stack: ThresholdStack,
}

impl ApproxMsfWeight {
    /// Creates the estimator for weights in `[1, max_weight]`.
    ///
    /// # Panics
    ///
    /// Panics if `eps ≤ 0` or `max_weight == 0`.
    pub fn new(n: usize, eps: f64, max_weight: u64, seed: u64) -> Self {
        ApproxMsfWeight {
            stack: ThresholdStack::new(n, eps, max_weight, seed),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.stack.n
    }

    /// Number of threshold instances (`t + 1`).
    pub fn instance_count(&self) -> usize {
        self.stack.instances.len()
    }

    /// Cumulative `ℓ0`-sampler failures across all threshold
    /// instances.
    pub fn sampler_failure_count(&self) -> u64 {
        self.stack.sampler_failure_count()
    }

    /// Processes a weighted batch, routing each update to every
    /// threshold instance whose cutoff admits it.
    ///
    /// # Errors
    ///
    /// Propagates connectivity errors from the instances.
    pub fn apply_batch(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.stack.apply_batch(batch, ctx)
    }

    /// The current `(1+ε)`-approximate MSF weight.
    pub fn weight_estimate(&self) -> f64 {
        self.stack.weight_estimate()
    }

    /// Total memory in words across all instances.
    pub fn words(&self) -> u64 {
        self.stack.words()
    }
}

/// `(1+ε)`-approximate MSF **forest** under arbitrary batches
/// (Section 7.2.2): reports an explicit spanning forest whose true
/// weight is within `(1+ε)` of optimal.
#[derive(Debug, Clone)]
pub struct ApproxMsfForest {
    stack: ThresholdStack,
}

impl ApproxMsfForest {
    /// Creates the structure for weights in `[1, max_weight]`.
    ///
    /// # Panics
    ///
    /// Panics if `eps ≤ 0` or `max_weight == 0`.
    pub fn new(n: usize, eps: f64, max_weight: u64, seed: u64) -> Self {
        ApproxMsfForest {
            stack: ThresholdStack::new(n, eps, max_weight, seed),
        }
    }

    /// Processes a weighted batch.
    ///
    /// # Errors
    ///
    /// Propagates connectivity errors from the instances.
    pub fn apply_batch(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.stack.apply_batch(batch, ctx)
    }

    /// The approximate MSF: a level-by-level sweep adds each level's
    /// forest edges that still connect new components, tagging each
    /// edge with the level's weight cutoff (an upper bound on its
    /// true weight, used by the analysis).
    ///
    /// The paper's one-shot per-edge test (`C_{i-1}[u] ≠ C_{i-1}[v]`)
    /// can select two level-`i` forest edges crossing the *same*
    /// level-`i-1` cut (the level forests are maintained
    /// independently), which closes a cycle. The sweep below is the
    /// standard repair: it keeps exactly `cc(G_{i-1}) − cc(G_i)`
    /// edges per level — the count the weight analysis relies on —
    /// while guaranteeing a forest. Cost: `t` dependent rounds per
    /// query instead of one (a deviation from the paper's one-shot
    /// test).
    pub fn forest(&self) -> Vec<(Edge, f64)> {
        let mut out: Vec<(Edge, f64)> = Vec::new();
        let mut uf = mpc_graph::oracle::UnionFind::new(self.stack.n);
        for (i, conn) in self.stack.instances.iter().enumerate() {
            for e in conn.spanning_forest() {
                if uf.union(e.u(), e.v()) {
                    out.push((e, self.stack.thresholds[i]));
                }
            }
        }
        out
    }

    /// Component id in the top (full) graph.
    #[expect(
        clippy::expect_used,
        reason = "ThresholdStack construction always materializes at least one instance"
    )]
    pub fn component_of(&self, v: VertexId) -> VertexId {
        self.stack
            .instances
            .last()
            .expect("at least one instance")
            .component_of(v)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.stack.n
    }

    /// Cumulative `ℓ0`-sampler failures across all threshold
    /// instances.
    pub fn sampler_failure_count(&self) -> u64 {
        self.stack.sampler_failure_count()
    }

    /// Total memory in words across all instances.
    pub fn words(&self) -> u64 {
        self.stack.words()
    }
}

impl mpc_stream_core::Maintain for ApproxMsfWeight {
    fn name(&self) -> &'static str {
        "msf-approx-weight"
    }

    /// `O(log_{1+ε} W)`: one O(1) count per weight threshold.
    fn words(&self) -> u64 {
        ApproxMsfWeight::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    /// Unweighted batches are interpreted with unit weights.
    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.ingest_weighted(&unit_weighted(batch), ctx)
    }

    fn ingest_weighted(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The estimate reads every threshold instance's component count:
    /// the label sorts run in parallel across the `t + 1` instances
    /// (one sort's rounds), and the `t + 1` counts converge-cast to
    /// the coordinator for the weighted sum of Equation (1).
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::ForestWeight => {
                ctx.sort(self.stack.n as u64);
                ctx.converge_cast(self.instance_count() as u64, 1);
                Ok(QueryResponse::Weight(self.weight_estimate()))
            }
            _ => return None,
        })
    }
}

impl mpc_stream_core::Maintain for ApproxMsfForest {
    fn name(&self) -> &'static str {
        "msf-approx-forest"
    }

    /// `O(log_{1+ε} W)`: one O(1) count per weight threshold.
    fn words(&self) -> u64 {
        ApproxMsfForest::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    /// Unweighted batches are interpreted with unit weights.
    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.ingest_weighted(&unit_weighted(batch), ctx)
    }

    fn ingest_weighted(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The forest report pays the documented `t` dependent rounds of
    /// the level-by-level sweep (one broadcast per level) plus the
    /// output sort; the weight estimate and point queries charge like
    /// the weight variant.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{ensure_vertex_in, QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::SpanningForest => {
                for _ in 0..self.stack.instances.len() {
                    ctx.broadcast(1);
                }
                let forest: Vec<Edge> = self.forest().into_iter().map(|(e, _)| e).collect();
                ctx.sort(2 * forest.len() as u64);
                Ok(QueryResponse::Edges(forest))
            }
            QueryRequest::ForestWeight => {
                ctx.sort(self.stack.n as u64);
                ctx.converge_cast(self.stack.instances.len() as u64, 1);
                Ok(QueryResponse::Weight(self.stack.weight_estimate()))
            }
            QueryRequest::ComponentOf(v) => ensure_vertex_in(v, self.stack.n).map(|()| {
                ctx.exchange(2);
                QueryResponse::Vertex(self.component_of(v))
            }),
            _ => return None,
        })
    }
}

/// Convenience: lift an unweighted batch into a weighted one with
/// unit weights (useful when mixing with connectivity workloads).
pub fn unit_weighted(batch: &Batch) -> WeightedBatch {
    batch
        .iter()
        .map(|u| match u {
            Update::Insert(e) => {
                mpc_graph::update::WeightedUpdate::Insert(mpc_graph::ids::WeightedEdge {
                    edge: e,
                    weight: 1,
                })
            }
            Update::Delete(e) => {
                mpc_graph::update::WeightedUpdate::Delete(mpc_graph::ids::WeightedEdge {
                    edge: e,
                    weight: 1,
                })
            }
        })
        .collect()
}

// ----- snapshot persistence ---------------------------------------

// The threshold ladder is saved verbatim (not recomputed from ε) so the
// restored instance compares weights against bit-identical floats.
mpc_snapshot::persist_struct!(ThresholdStack { n, eps, thresholds, instances } check |st| {
    if !st.eps.is_finite()
        || st.eps <= 0.0
        || st.thresholds.is_empty()
        || st.thresholds.len() != st.instances.len()
    {
        return Err(format!(
            "threshold stack holds {} thresholds / {} instances at eps {}",
            st.thresholds.len(),
            st.instances.len(),
            st.eps
        ));
    }
    Ok(())
});

mpc_snapshot::persist_struct!(ApproxMsfWeight { stack });

mpc_snapshot::persist_struct!(ApproxMsfForest { stack });

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::ids::WeightedEdge;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;
    use std::collections::BTreeMap;

    fn ctx_for(n: usize) -> MpcContext {
        MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
    }

    #[test]
    fn weight_estimate_within_eps_on_random_graphs() {
        for (seed, eps) in [(1u64, 0.25f64), (2, 0.5), (3, 0.1)] {
            let n = 24;
            let max_w = 32;
            let stream = gen::random_weighted_insert_stream(n, 4, 10, max_w, seed);
            let mut ctx = ctx_for(n);
            let mut aw = ApproxMsfWeight::new(n, eps, max_w, seed);
            let mut all: Vec<WeightedEdge> = Vec::new();
            for batch in &stream.batches {
                aw.apply_batch(batch, &mut ctx).unwrap();
                all.extend(batch.insertions());
                let exact = oracle::msf_weight(n, all.iter().copied()) as f64;
                let est = aw.weight_estimate();
                assert!(
                    est >= exact - 1e-6 && est <= exact * (1.0 + eps) + 1e-6,
                    "seed {seed} eps {eps}: est {est} vs exact {exact}"
                );
            }
        }
    }

    #[test]
    fn weight_estimate_tracks_deletions() {
        let n = 16;
        let max_w = 16;
        let stream = gen::random_weighted_stream(n, 8, 6, 0.6, max_w, 7);
        let mut ctx = ctx_for(n);
        let mut aw = ApproxMsfWeight::new(n, 0.25, max_w, 7);
        let mut live: BTreeMap<Edge, u64> = BTreeMap::new();
        for batch in &stream.batches {
            aw.apply_batch(batch, &mut ctx).unwrap();
            for u in batch.iter() {
                let we = u.weighted_edge();
                if u.is_insert() {
                    live.insert(we.edge, we.weight);
                } else {
                    live.remove(&we.edge);
                }
            }
            let all: Vec<WeightedEdge> = live
                .iter()
                .map(|(&edge, &weight)| WeightedEdge { edge, weight })
                .collect();
            let exact = oracle::msf_weight(n, all.iter().copied()) as f64;
            let est = aw.weight_estimate();
            assert!(
                est >= exact - 1e-6 && est <= exact * 1.25 + 1e-6,
                "est {est} vs exact {exact}"
            );
        }
    }

    #[test]
    fn forest_variant_reports_near_optimal_forest() {
        let n = 20;
        let max_w = 20;
        let stream = gen::random_weighted_insert_stream(n, 4, 8, max_w, 11);
        let mut ctx = ctx_for(n);
        let mut af = ApproxMsfForest::new(n, 0.25, max_w, 11);
        let mut live: BTreeMap<Edge, u64> = BTreeMap::new();
        for batch in &stream.batches {
            af.apply_batch(batch, &mut ctx).unwrap();
            for we in batch.insertions() {
                live.insert(we.edge, we.weight);
            }
        }
        let all: Vec<WeightedEdge> = live
            .iter()
            .map(|(&edge, &weight)| WeightedEdge { edge, weight })
            .collect();
        let forest = af.forest();
        // Structure: spanning forest of the live graph.
        let mut uf = oracle::UnionFind::new(n);
        for (e, _) in &forest {
            assert!(live.contains_key(e), "forest edge {e} not live");
            assert!(uf.union(e.u(), e.v()), "cycle at {e}");
        }
        assert_eq!(
            uf.component_count(),
            oracle::component_count(n, live.keys().copied()),
            "forest spans"
        );
        // True weight within (1+ε) of Kruskal.
        let true_weight: u64 = forest.iter().map(|(e, _)| live[e]).sum();
        let exact = oracle::msf_weight(n, all.iter().copied());
        assert!(
            true_weight as f64 <= exact as f64 * 1.25 + 1e-6,
            "forest weight {true_weight} vs exact {exact}"
        );
        assert!(true_weight >= exact);
    }

    #[test]
    fn instance_count_scales_with_eps() {
        let coarse = ApproxMsfWeight::new(8, 1.0, 1000, 1);
        let fine = ApproxMsfWeight::new(8, 0.1, 1000, 1);
        assert!(fine.instance_count() > coarse.instance_count());
        assert!(fine.words() > 0);
    }

    #[test]
    #[should_panic(expected = "ε must be positive")]
    fn zero_eps_panics() {
        let _ = ApproxMsfWeight::new(8, 0.0, 10, 1);
    }

    #[test]
    fn empty_graph_estimates_zero() {
        let aw = ApproxMsfWeight::new(8, 0.5, 10, 1);
        assert_eq!(aw.weight_estimate(), 0.0);
    }
}
