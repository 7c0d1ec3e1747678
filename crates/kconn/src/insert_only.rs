//! Explicitly maintained `k`-edge-connectivity certificate for
//! insertion-only streams.
//!
//! Each inserted edge **cascades** through the forest layers: it is
//! absorbed by the first layer `F_i` in which its endpoints are in
//! different components, and discarded if every layer already
//! connects them (such an edge crosses no cut of size ≤ `k` that the
//! certificate does not already cover — the classical sparse-
//! certificate argument, see the crate docs).
//!
//! MPC cost per batch of `b ≤ Õ(n^φ)` updates: the batch is sorted to
//! the coordinator (`O(1/φ)` rounds), the cascade runs coordinator-
//! local against the layer component labels (each layer's labels are
//! `n` words, vertex-sharded; the ≤ `2b` touched labels are gathered
//! — legal since `b` fits one machine, the paper's Claim 6.1
//! argument), and the ≤ `b` accepted edges are routed to their
//! layers' shards — `O(1/φ)` rounds and `O(k·b)` communication in
//! total. Total memory is `O(k·n)` words.

use crate::certificate::Certificate;
use mpc_graph::ids::Edge;
use mpc_graph::oracle::UnionFind;
use mpc_graph::update::Batch;
use mpc_sim::{MpcContext, MpcStreamError};

/// Insertion-only batch-dynamic `k`-edge-connectivity certificate.
///
/// # Examples
///
/// ```
/// use mpc_kconn::InsertOnlyKConn;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(6, 0.5).local_capacity(1 << 12).build(),
/// );
/// let mut kc = InsertOnlyKConn::new(6, 2);
/// kc.apply_batch(&Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]), &mut ctx)?;
/// // A path is 1- but not 2-edge-connected (once its vertices are
/// // linked at all; isolated vertices keep connectivity at 0).
/// assert_eq!(kc.certificate().min_cut(), mpc_kconn::MinCut::Exact(0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct InsertOnlyKConn {
    n: usize,
    k: usize,
    /// One union-find per layer, kept incrementally (insertion-only).
    layer_uf: Vec<UnionFind>,
    /// The forest edges per layer.
    layers: Vec<Vec<Edge>>,
    /// Live edges, to reject duplicate insertions.
    live: std::collections::BTreeSet<Edge>,
    /// Edges discarded by the cascade (count only; they are *not*
    /// stored — that is the certificate's point).
    discarded: u64,
}

impl InsertOnlyKConn {
    /// Creates the empty certificate maintainer for an `n`-vertex
    /// graph with resolution `k ≥ 1`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — k is a construction parameter"
    )]
    pub fn new(n: usize, k: usize) -> Self {
        assert!(k >= 1, "k must be at least 1");
        InsertOnlyKConn {
            n,
            k,
            layer_uf: (0..k).map(|_| UnionFind::new(n)).collect(),
            layers: vec![Vec::new(); k],
            live: std::collections::BTreeSet::new(),
            discarded: 0,
        }
    }

    /// Bootstraps the certificate from an arbitrary pre-existing
    /// simple graph (the paper's "pre-computation phase" remark,
    /// Section 1.1): the edges stream through the cascade in
    /// machine-sized chunks, costing `O((m/s)·(1/φ))` rounds once,
    /// after which updates proceed batch-dynamically.
    ///
    /// # Errors
    ///
    /// Same contract as [`InsertOnlyKConn::apply_batch`] (duplicate or
    /// out-of-range edges are rejected).
    pub fn from_graph(
        n: usize,
        k: usize,
        edges: impl IntoIterator<Item = Edge>,
        ctx: &mut MpcContext,
    ) -> Result<Self, MpcStreamError> {
        let mut kc = InsertOnlyKConn::new(n, k);
        let chunk = (ctx.config().local_capacity() / 4).max(1) as usize;
        let all: Vec<Edge> = edges.into_iter().collect();
        for ch in all.chunks(chunk) {
            kc.apply_batch(&Batch::inserting(ch.iter().copied()), ctx)?;
        }
        Ok(kc)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The certificate resolution.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Total certificate edges currently stored.
    pub fn edge_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Edges the cascade discarded so far (inserted but not stored).
    pub fn discarded_count(&self) -> u64 {
        self.discarded
    }

    /// Memory footprint in words: `k` component-label arrays plus the
    /// stored forests plus the live-edge membership (the latter is
    /// `O(m)` in this simple implementation — see
    /// [`InsertOnlyKConn::words_model`] for the model-relevant
    /// number).
    pub fn words(&self) -> u64 {
        self.words_model() + 2 * self.live.len() as u64
    }

    /// Memory footprint in words of the *model-relevant* state: the
    /// `k` label arrays and the certificate edges — `O(k·n)`. The
    /// duplicate-insert guard (`live`) exists only to validate the
    /// simple-graph assumption and is excluded, matching the paper's
    /// convention that input validation is the stream's contract.
    pub fn words_model(&self) -> u64 {
        (self.k * self.n) as u64 + 2 * self.edge_count() as u64
    }

    /// The maintained certificate (clones the layers).
    pub fn certificate(&self) -> Certificate {
        Certificate::from_layers(self.n, self.layers.clone())
    }

    /// The first layer `F_1` — a maximal spanning forest of the
    /// current graph (so `k = 1` reproduces exactly the paper's
    /// insertion-only spanning-forest maintenance).
    pub fn spanning_forest(&self) -> &[Edge] {
        &self.layers[0]
    }

    /// Processes a batch of edge insertions in `O(1/φ)` rounds.
    ///
    /// # Errors
    ///
    /// Rejects deletions, duplicate or out-of-range insertions, and
    /// batches the simulator cannot gather to one machine. On error
    /// the state is unchanged (validation happens before mutation).
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        // Validate before mutating.
        let mut fresh = std::collections::BTreeSet::new();
        for u in batch.iter() {
            if !u.is_insert() {
                return Err(MpcStreamError::Unsupported(format!(
                    "deletion of {} in an insertion-only stream",
                    u.edge()
                )));
            }
            let e = u.edge();
            if e.u() as usize >= self.n || e.v() as usize >= self.n {
                return Err(MpcStreamError::InvalidBatch(format!(
                    "edge {e} has an endpoint outside [0, {})",
                    self.n
                )));
            }
            if self.live.contains(&e) || !fresh.insert(e) {
                return Err(MpcStreamError::InvalidBatch(format!(
                    "insertion of already-live edge {e}"
                )));
            }
        }
        let b = batch.len() as u64;
        // Route the update batch to the coordinator (sort-based,
        // O(1/φ) rounds) and gather it — the hard `s`-word gate.
        ctx.sort(2 * b + 1);
        ctx.gather(2 * b)?;
        // Gather the ≤ 2b touched component labels per layer.
        ctx.exchange(2 * b * self.k as u64);
        // Cascade at the coordinator.
        let mut accepted: u64 = 0;
        for u in batch.iter() {
            let e = u.edge();
            self.live.insert(e);
            let mut placed = false;
            for i in 0..self.k {
                if self.layer_uf[i].union(e.u(), e.v()) {
                    self.layers[i].push(e);
                    placed = true;
                    break;
                }
            }
            if !placed {
                self.discarded += 1;
            } else {
                accepted += 1;
            }
        }
        // Route accepted edges to their layer shards and refresh the
        // affected component labels.
        ctx.sort(2 * accepted + 1);
        ctx.broadcast(2);
        Ok(())
    }
}

impl mpc_stream_core::Maintain for InsertOnlyKConn {
    fn name(&self) -> &'static str {
        "kconn-insert-only"
    }

    /// `O(k)`: one length per forest layer plus the live-set size.
    fn words(&self) -> u64 {
        InsertOnlyKConn::words(self)
    }

    fn validate(&self) -> Result<(), MpcStreamError> {
        self.certificate()
            .validate()
            .map_err(MpcStreamError::Internal)
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The certificate is maintained by the cascade, so cut answers
    /// cost only gathering the `O(k·n)`-edge certificate to read off
    /// the bound — constant rounds, against the dynamic peeler's
    /// `Θ(k log n)` (the measured shape of the Section 9 open
    /// problem).
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::MinCutLowerBound => {
                let cert = self.certificate();
                ctx.sort(2 * cert.edge_count() as u64 + 1);
                ctx.broadcast(1);
                let (lower, exact) = match cert.min_cut() {
                    crate::MinCut::Exact(v) => (v, true),
                    crate::MinCut::AtLeast(v) => (v, false),
                };
                Ok(QueryResponse::MinCut { lower, exact })
            }
            QueryRequest::SpanningForest => {
                let forest = self.spanning_forest().to_vec();
                ctx.sort(2 * forest.len() as u64 + 1);
                Ok(QueryResponse::Edges(forest))
            }
            _ => return None,
        })
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(InsertOnlyKConn {
    n,
    k,
    layer_uf,
    layers,
    live,
    discarded,
} check |kc| {
    if kc.k == 0 || kc.layer_uf.len() != kc.k || kc.layers.len() != kc.k {
        return Err(format!(
            "insert-only k-connectivity holds {}/{} layers for k = {}",
            kc.layer_uf.len(),
            kc.layers.len(),
            kc.k
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::cuts;
    use mpc_graph::update::Update;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(32, 0.5).local_capacity(1 << 14).build())
    }

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn cascade_places_edges_in_first_open_layer() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(3, 2);
        kc.apply_batch(&Batch::inserting([e(0, 1), e(1, 2), e(0, 2)]), &mut c)
            .unwrap();
        let cert = kc.certificate();
        assert_eq!(cert.layers()[0], vec![e(0, 1), e(1, 2)]);
        assert_eq!(cert.layers()[1], vec![e(0, 2)]);
        assert_eq!(kc.discarded_count(), 0);
        assert_eq!(cert.validate(), Ok(()));
    }

    #[test]
    fn saturated_layers_discard() {
        // K4 has 6 edges; with k = 1 only a spanning tree (3) stays.
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(4, 1);
        let mut all = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                all.push(e(a, b));
            }
        }
        kc.apply_batch(&Batch::inserting(all), &mut c).unwrap();
        assert_eq!(kc.edge_count(), 3);
        assert_eq!(kc.discarded_count(), 3);
    }

    #[test]
    fn certificate_decides_connectivity_of_cycle() {
        let n = 10u32;
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(n as usize, 3);
        kc.apply_batch(&Batch::inserting((0..n).map(|i| e(i, (i + 1) % n))), &mut c)
            .unwrap();
        let cert = kc.certificate();
        assert_eq!(cert.is_k_edge_connected(1), Some(true));
        assert_eq!(cert.is_k_edge_connected(2), Some(true));
        assert_eq!(cert.is_k_edge_connected(3), Some(false));
        assert_eq!(cert.min_cut(), crate::MinCut::Exact(2));
    }

    #[test]
    fn certificate_cut_matches_oracle_on_random_graphs() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..25 {
            let n = rng.gen_range(4..16usize);
            let k = rng.gen_range(1..5usize);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.45) {
                        edges.push(e(a, b));
                    }
                }
            }
            let mut c = ctx();
            let mut kc = InsertOnlyKConn::new(n, k);
            // Feed in a few batches to exercise incrementality.
            for chunk in edges.chunks(3) {
                kc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut c)
                    .unwrap();
            }
            let cert = kc.certificate();
            assert_eq!(cert.validate(), Ok(()), "trial {trial}");
            let lambda_g = cuts::edge_connectivity(n, &edges);
            let lambda_c = cuts::edge_connectivity(n, &cert.edges());
            assert_eq!(
                lambda_g.min(k as u64),
                lambda_c.min(k as u64),
                "trial {trial}: n={n} k={k} λ_G={lambda_g} λ_cert={lambda_c}"
            );
            // Bridges agree whenever the certificate can answer.
            if k >= 2 {
                assert_eq!(
                    cert.bridges().unwrap(),
                    cuts::bridges(n, &edges),
                    "trial {trial}"
                );
            }
        }
    }

    #[test]
    fn deletion_is_rejected_without_state_change() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(4, 2);
        kc.apply_batch(&Batch::inserting([e(0, 1)]), &mut c)
            .unwrap();
        let err = kc
            .apply_batch(
                &Batch::from_updates(vec![Update::Insert(e(1, 2)), Update::Delete(e(0, 1))]),
                &mut c,
            )
            .unwrap_err();
        assert_eq!(
            err,
            MpcStreamError::Unsupported("deletion of {0,1} in an insertion-only stream".into())
        );
        // The valid prefix of the failed batch was not applied.
        assert_eq!(kc.edge_count(), 1);
    }

    #[test]
    fn duplicate_insert_is_rejected() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(4, 2);
        kc.apply_batch(&Batch::inserting([e(0, 1)]), &mut c)
            .unwrap();
        assert_eq!(
            kc.apply_batch(&Batch::inserting([e(0, 1)]), &mut c),
            Err(MpcStreamError::InvalidBatch(
                "insertion of already-live edge {0,1}".into()
            ))
        );
        // Duplicate within one batch is also caught.
        assert_eq!(
            kc.apply_batch(&Batch::inserting([e(1, 2), e(1, 2)]), &mut c),
            Err(MpcStreamError::InvalidBatch(
                "insertion of already-live edge {1,2}".into()
            ))
        );
    }

    #[test]
    fn out_of_range_vertex_is_rejected() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(4, 1);
        assert_eq!(
            kc.apply_batch(&Batch::inserting([e(0, 7)]), &mut c),
            Err(MpcStreamError::InvalidBatch(
                "edge {0,7} has an endpoint outside [0, 4)".into()
            ))
        );
    }

    #[test]
    fn oversized_batch_hits_the_memory_gate() {
        // Tiny local capacity: the gather must fail.
        let mut c = MpcContext::new(MpcConfig::builder(64, 0.3).local_capacity(8).build());
        let mut kc = InsertOnlyKConn::new(64, 2);
        let batch = Batch::inserting((0..32u32).map(|i| e(i, i + 32)));
        let err = kc.apply_batch(&batch, &mut c).unwrap_err();
        assert!(matches!(err, MpcStreamError::Capacity(_)));
    }

    #[test]
    fn spanning_forest_is_first_layer() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(4, 2);
        kc.apply_batch(&Batch::inserting([e(0, 1), e(1, 2), e(0, 2)]), &mut c)
            .unwrap();
        assert_eq!(kc.spanning_forest(), &[e(0, 1), e(1, 2)]);
        use mpc_graph::oracle;
        let labels = oracle::components(4, kc.spanning_forest().iter().copied());
        assert_eq!(labels, vec![0, 0, 0, 3]);
    }

    #[test]
    fn words_scale_with_k_times_n() {
        let mut c = ctx();
        let mut kc = InsertOnlyKConn::new(100, 4);
        kc.apply_batch(&Batch::inserting([e(0, 1)]), &mut c)
            .unwrap();
        assert_eq!(kc.words_model(), 400 + 2);
        assert!(kc.words() >= kc.words_model());
    }

    #[test]
    fn from_graph_bootstrap_equals_incremental() {
        let n = 24;
        let edges: Vec<Edge> = (0..n as u32)
            .flat_map(|i| [e(i, (i + 1) % n as u32), e(i, (i + 3) % n as u32)])
            .collect();
        let mut dedup: Vec<Edge> = Vec::new();
        for ed in edges {
            if !dedup.contains(&ed) {
                dedup.push(ed);
            }
        }
        let mut c = ctx();
        let boot =
            InsertOnlyKConn::from_graph(n, 2, dedup.iter().copied(), &mut c).expect("simple graph");
        let mut inc = InsertOnlyKConn::new(n, 2);
        for ch in dedup.chunks(4) {
            inc.apply_batch(&Batch::inserting(ch.iter().copied()), &mut c)
                .unwrap();
        }
        // Chunking differs, so the layerings may differ — but both
        // certificates preserve the same truncated cut.
        let b = boot.certificate();
        let i = inc.certificate();
        assert_eq!(b.validate(), Ok(()));
        assert_eq!(i.validate(), Ok(()));
        assert_eq!(
            cuts::edge_connectivity(n, &b.edges()).min(2),
            cuts::edge_connectivity(n, &i.edges()).min(2)
        );
    }

    #[test]
    fn from_graph_rejects_invalid_input() {
        let mut c = ctx();
        assert!(InsertOnlyKConn::from_graph(4, 1, [e(0, 9)], &mut c).is_err());
        assert!(InsertOnlyKConn::from_graph(4, 1, [e(0, 1), e(0, 1)], &mut c).is_err());
    }
}
