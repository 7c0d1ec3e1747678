//! The AGM'12 sketch-recompute baseline (paper Section 2.1 / 4.1).
//!
//! Like the paper's algorithm it keeps `t = Θ(log n)` linear sketches
//! per vertex, updated in `O(1)` rounds per batch. Unlike the paper's
//! algorithm it maintains **no** spanning forest or component ids: a
//! query runs the full Borůvka cascade over all `n` vertices, one
//! sketch level per Borůvka level — `Θ(log n)` MPC rounds per query.
//! This is exactly the comparison of Section 2.1: same total memory,
//! logarithmically slower queries.

use mpc_graph::ids::VertexId;
use mpc_graph::oracle::UnionFind;
use mpc_graph::update::{Batch, Update};
use mpc_sim::{MpcContext, MpcStreamError};
use mpc_sketch::cascade::{self, Untouched};
use mpc_sketch::SketchBank;

/// The sketch-only baseline.
///
/// # Examples
///
/// ```
/// use mpc_baselines::AgmBaseline;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(16, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut agm = AgmBaseline::new(16, 42);
/// agm.apply_batch(
///     &Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]),
///     &mut ctx,
/// )?;
/// let labels = agm.query_components(&mut ctx);
/// assert_eq!(labels[0], labels[2]);
/// # Ok::<(), mpc_sim::MpcStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct AgmBaseline {
    n: usize,
    bank: SketchBank,
    /// Rounds the most recent query consumed (`Θ(log n)`).
    last_query_rounds: u64,
    /// Cumulative `ℓ0`-sampler failures across all queries.
    sampler_failures: u64,
}

impl AgmBaseline {
    /// Creates the baseline for an empty `n`-vertex graph.
    pub fn new(n: usize, seed: u64) -> Self {
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1) as usize;
        AgmBaseline {
            n,
            bank: SketchBank::new(n, log_n + 6, seed),
            last_query_rounds: 0,
            sampler_failures: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Routes the batch and updates the sketches — `O(1)` rounds,
    /// identical to the paper's update path.
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
        self.bank.update_edges(batch.iter().map(Update::signed));
        Ok(())
    }

    /// Rounds consumed by the last [`AgmBaseline::query_components`].
    pub fn last_query_rounds(&self) -> u64 {
        self.last_query_rounds
    }

    /// Cumulative `ℓ0`-sampler failures observed across all queries
    /// (absorbed by later Borůvka levels' independent copies).
    pub fn sampler_failure_count(&self) -> u64 {
        self.sampler_failures
    }

    /// Memory footprint in words (sketches only).
    pub fn words(&self) -> u64 {
        self.bank.words()
    }

    /// Recomputes component labels from scratch with the
    /// [`mpc_sketch::cascade`] Borůvka: one level per sketch copy,
    /// each costing a converge-cast plus a broadcast — `Θ(log n)` MPC
    /// rounds in total. A never-touched vertex keeps the cascade
    /// running to its last copy ([`Untouched::Unresolved`], this
    /// baseline's rule until ROADMAP 2(b) re-records the benchmark
    /// baselines).
    pub fn query_components(&mut self, ctx: &mut MpcContext) -> Vec<VertexId> {
        let rounds_before = ctx.rounds();
        let mut uf = UnionFind::new(self.n);
        let (n, bank) = (self.n as u64, &self.bank);
        self.sampler_failures += cascade::run(
            bank,
            &mut uf,
            Untouched::Unresolved,
            |members, _, s| {
                bank.merge_copy_into(members, s);
            },
            |e| Some((e.u(), e.v())),
            |found, _| {
                ctx.converge_cast(n, bank.words_per_copy());
                ctx.sort(2 * found as u64 + 1);
                ctx.broadcast(2);
            },
        );
        self.last_query_rounds = ctx.rounds() - rounds_before;
        uf.min_labels()
    }
}

impl mpc_stream_core::Maintain for AgmBaseline {
    fn name(&self) -> &'static str {
        "agm-baseline"
    }

    /// `O(1)`: the bank counter.
    fn words(&self) -> u64 {
        AgmBaseline::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The Section 2.1 comparison point, now measurable per query:
    /// the baseline maintains no labels, so *every* connectivity
    /// answer reruns the full Borůvka cascade — `Θ(log n)` charged
    /// rounds where the paper's maintained labelling answers in
    /// `O(1)`.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        let n = self.n;
        crate::answer_recomputed(query, n, ctx, |ctx| self.query_components(ctx))
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(AgmBaseline {
    n,
    bank,
    last_query_rounds,
    sampler_failures
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::ids::Edge;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(64, 0.5).local_capacity(1 << 15).build())
    }

    #[test]
    fn recompute_matches_oracle_on_mixed_stream() {
        let n = 48;
        let stream = gen::random_mixed_stream(n, 6, 10, 0.7, 3);
        let snaps = stream.replay();
        let mut c = ctx();
        let mut agm = AgmBaseline::new(n, 17);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            agm.apply_batch(batch, &mut c).expect("valid stream");
            let labels = agm.query_components(&mut c);
            let expect = oracle::components(n, snap.edges());
            assert_eq!(labels, expect);
        }
    }

    #[test]
    fn query_rounds_grow_with_diameter() {
        // A path needs many Borůvka levels; a star needs few.
        let n = 64;
        let mut c = ctx();
        let mut agm = AgmBaseline::new(n, 5);
        agm.apply_batch(
            &Batch::inserting((0..n as u32 - 1).map(|i| Edge::new(i, i + 1))),
            &mut c,
        )
        .expect("valid stream");
        let _ = agm.query_components(&mut c);
        let path_rounds = agm.last_query_rounds();
        // Queries must cost at least a couple of levels (vs O(1) for
        // the paper's maintained labelling).
        assert!(path_rounds >= 2 * c.config().round_budget_per_primitive() / 2);
        assert!(agm.words() > 0);
    }

    /// The inherent write path is the gated one: an endpoint outside
    /// `[0, n)` or a batch too big for one machine is refused before
    /// any sketch or counter moves.
    #[test]
    fn apply_batch_gates_its_input() {
        let n = 8;
        let mut c = MpcContext::new(
            MpcConfig::builder(64, 0.5)
                .local_capacity(16)
                .machines(8)
                .build(),
        );
        let mut agm = AgmBaseline::new(n, 3);
        agm.apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut c)
            .expect("in range");
        let (mut before, rounds) = (agm.clone(), c.rounds());
        let err = agm
            .apply_batch(&Batch::inserting([Edge::new(2, n as u32)]), &mut c)
            .expect_err("endpoint out of range");
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)), "{err}");
        let big = Batch::inserting((0..8u32).map(|i| Edge::new(i, (i + 1) % 8)));
        let err = agm.apply_batch(&big, &mut c).expect_err("cannot fit");
        assert!(matches!(err, MpcStreamError::Capacity(_)), "{err}");
        assert_eq!(c.rounds(), rounds, "a refused batch charges nothing");
        assert_eq!(
            agm.query_components(&mut c),
            before.query_components(&mut c)
        );
    }
}
