//! Dynamic bipartiteness testing (paper Section 7.3, Theorem 7.3).
//!
//! Uses the bipartite double cover `G'`: every vertex `v` becomes
//! `v₁ = v` and `v₂ = v + n`, every edge `{u, v}` becomes
//! `{u₁, v₂}` and `{u₂, v₁}`. By [AGM12, Lemma 3.3] (the paper's
//! Lemma 7.4), `G` is bipartite iff `cc(G') = 2·cc(G)`. Maintaining
//! connectivity of both graphs answers bipartiteness in constant
//! time per query.

use mpc_graph::ids::Edge;
use mpc_graph::update::{Batch, Update};
use mpc_sim::{MpcContext, MpcStreamError};
use mpc_stream_core::{Connectivity, ConnectivityConfig};

/// Batch-dynamic bipartiteness.
///
/// # Examples
///
/// ```
/// use mpc_msf::Bipartiteness;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::{Batch, Update};
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(16, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut bip = Bipartiteness::new(8, 42);
/// // A 4-cycle is bipartite…
/// bip.apply_batch(
///     &Batch::inserting([
///         Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 0),
///     ]),
///     &mut ctx,
/// )?;
/// assert!(bip.is_bipartite());
/// // …until a chord closes an odd cycle.
/// bip.apply_batch(&Batch::inserting([Edge::new(0, 2)]), &mut ctx)?;
/// assert!(!bip.is_bipartite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Bipartiteness {
    n: usize,
    graph: Connectivity,
    cover: Connectivity,
}

impl Bipartiteness {
    /// Creates the tester for an empty graph on `n` vertices. The
    /// double cover uses `2n` vertices internally.
    pub fn new(n: usize, seed: u64) -> Self {
        Bipartiteness {
            n,
            graph: Connectivity::new(n, ConnectivityConfig::default(), seed),
            cover: Connectivity::new(2 * n, ConnectivityConfig::default(), seed ^ 0xb1b1),
        }
    }

    /// Processes a batch: each update is applied to `G` and its two
    /// lifted copies to `G'` (Section 7.3: one update in `G` becomes
    /// exactly two in `G'`).
    ///
    /// # Errors
    ///
    /// Propagates connectivity errors.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        let n = self.n as u32;
        let lift = |u: Update| -> [Update; 2] {
            let e = u.edge();
            let (a, b) = e.endpoints();
            let e1 = Edge::new(a, b + n);
            let e2 = Edge::new(a + n, b);
            match u {
                Update::Insert(_) => [Update::Insert(e1), Update::Insert(e2)],
                Update::Delete(_) => [Update::Delete(e1), Update::Delete(e2)],
            }
        };
        let cover_batch: Batch = batch.iter().flat_map(lift).collect();
        // G and its double cover are maintained in parallel.
        ctx.parallel(
            [(&mut self.graph, batch), (&mut self.cover, &cover_batch)],
            |(conn, batch), ctx| conn.apply_batch(batch, ctx),
        )
    }

    /// Whether the current graph is bipartite (constant query time).
    pub fn is_bipartite(&self) -> bool {
        self.cover.component_count() == 2 * self.graph.component_count()
    }

    /// Number of components of the underlying graph.
    pub fn component_count(&self) -> usize {
        self.graph.component_count()
    }

    /// Number of vertices of the underlying graph (the double cover
    /// internally uses `2n`).
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Cumulative `ℓ0`-sampler failures in `G` and its double cover.
    pub fn sampler_failure_count(&self) -> u64 {
        self.graph.sampler_failure_count() + self.cover.sampler_failure_count()
    }

    /// Total memory in words (both connectivity instances).
    pub fn words(&self) -> u64 {
        self.graph.words() + self.cover.words()
    }
}

impl mpc_stream_core::Maintain for Bipartiteness {
    fn name(&self) -> &'static str {
        "bipartiteness"
    }

    /// `O(1)`: two connectivity counts.
    fn words(&self) -> u64 {
        Bipartiteness::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Bipartiteness compares the component counts of `G` and the
    /// double cover `G'` (Lemma 7.4): two label sorts (parallel, but
    /// charged as one phase here) plus the two-count gather. The
    /// component count is `G`'s own maintained answer.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::IsBipartite => {
                ctx.sort(2 * self.n as u64); // the cover's labels dominate
                ctx.converge_cast(2, 1);
                Ok(QueryResponse::Bool(self.is_bipartite()))
            }
            QueryRequest::ComponentCount => return self.graph.answer(query, ctx),
            _ => return None,
        })
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(Bipartiteness { n, graph, cover } check |b| {
    if b.graph.vertex_count() != b.n || b.cover.vertex_count() != 2 * b.n {
        return Err(format!(
            "bipartiteness tester holds a {}-vertex graph and {}-vertex cover for n = {}",
            b.graph.vertex_count(),
            b.cover.vertex_count(),
            b.n
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;

    fn ctx_for(n: usize) -> MpcContext {
        MpcContext::new(
            MpcConfig::builder(2 * n, 0.5)
                .local_capacity(1 << 16)
                .build(),
        )
    }

    #[test]
    fn odd_cycle_detected_and_recovers() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut bip = Bipartiteness::new(n, 1);
        bip.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]),
            &mut ctx,
        )
        .unwrap();
        assert!(bip.is_bipartite());
        bip.apply_batch(&Batch::inserting([Edge::new(0, 2)]), &mut ctx)
            .unwrap();
        assert!(!bip.is_bipartite());
        // Deleting any odd-cycle edge restores bipartiteness.
        bip.apply_batch(&Batch::deleting([Edge::new(1, 2)]), &mut ctx)
            .unwrap();
        assert!(bip.is_bipartite());
    }

    #[test]
    fn even_cycles_stay_bipartite() {
        let n = 8;
        let mut ctx = ctx_for(n);
        let mut bip = Bipartiteness::new(n, 2);
        bip.apply_batch(
            &Batch::inserting((0..8u32).map(|i| Edge::new(i, (i + 1) % 8))),
            &mut ctx,
        )
        .unwrap();
        assert!(bip.is_bipartite());
    }

    #[test]
    fn generated_violation_window_is_tracked() {
        let (stream, window) = gen::bipartite_stream_with_violation(12, 8, 4, Some(3), 9);
        let (start, end) = window.expect("violation injected");
        let mut ctx = ctx_for(stream.n);
        let mut bip = Bipartiteness::new(stream.n, 3);
        let snaps = stream.replay();
        for (i, (batch, snap)) in stream.batches.iter().zip(&snaps).enumerate() {
            bip.apply_batch(batch, &mut ctx).unwrap();
            let edges: Vec<Edge> = snap.edges().collect();
            let expect = oracle::is_bipartite(stream.n, &edges);
            assert_eq!(bip.is_bipartite(), expect, "batch {i}");
            if i >= start && i < end {
                assert!(!bip.is_bipartite());
            }
        }
    }

    #[test]
    fn component_counts_match() {
        let n = 10;
        let mut ctx = ctx_for(n);
        let mut bip = Bipartiteness::new(n, 4);
        bip.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(3, 4)]),
            &mut ctx,
        )
        .unwrap();
        assert_eq!(bip.component_count(), n - 2);
        assert!(bip.words() > 0);
    }
}
