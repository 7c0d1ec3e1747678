//! The `Θ(n+m)` total-memory dynamic baseline (ILMP'19 / NO'21
//! regime, paper Section 1.3.1).
//!
//! The entire edge set is stored, sharded across machines. Updates
//! are constant-round appends/removals; connectivity queries
//! recompute labels by hash-to-min label propagation, charged
//! `O(log n)` rounds. The interesting column against the paper's
//! algorithm is **total memory**: this baseline grows linearly with
//! `m`, the paper's stays `Õ(n)` (experiment E3).

use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Batch;
use mpc_sim::{MpcContext, MpcStreamError};
use std::collections::BTreeSet;

/// The store-everything baseline.
///
/// # Examples
///
/// ```
/// use mpc_baselines::FullMemoryBaseline;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 12).build(),
/// );
/// let mut fm = FullMemoryBaseline::new(8);
/// fm.apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut ctx)?;
/// assert_eq!(fm.words(), 8 + 2);
/// # Ok::<(), mpc_sim::MpcStreamError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FullMemoryBaseline {
    n: usize,
    edges: BTreeSet<Edge>,
    /// Incrementally maintained per-shard word counts (1 per vertex
    /// label + 2 per edge at its smaller endpoint's shard).
    loads: Vec<u64>,
    last_query_rounds: u64,
}

impl FullMemoryBaseline {
    /// Creates the baseline for an empty `n`-vertex graph.
    pub fn new(n: usize) -> Self {
        FullMemoryBaseline {
            n,
            edges: BTreeSet::new(),
            loads: Vec::new(),
            last_query_rounds: 0,
        }
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Applies a batch (`O(1)` rounds: route each update to its
    /// shard). Memory is accounted incrementally — one label word per
    /// vertex plus two words per edge at its smaller endpoint's
    /// shard; this is the `Θ(n+m)` footprint the paper improves on.
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
        mpc_stream_core::ensure_endpoints_in(batch, self.n)?;
        ctx.ensure_batch_fits(2 * batch.len() as u64 + 1)?;
        ctx.exchange(2 * batch.len() as u64);
        let machines = ctx.config().machines().min(self.n);
        if self.loads.len() != machines {
            // First batch: seed and register the per-vertex label
            // words on every shard machine.
            self.loads = vec![0; machines];
            for v in 0..self.n as u32 {
                self.loads[ctx.config().machine_of_vertex(v)] += 1;
            }
            for m in 0..machines {
                let _ = ctx.set_load(m, self.loads[m]);
            }
        }
        let mut touched = std::collections::BTreeSet::new();
        for u in batch.iter() {
            let e = u.edge();
            let m = ctx.config().machine_of_vertex(e.u());
            if u.is_insert() {
                if self.edges.insert(e) {
                    self.loads[m] += 2;
                    touched.insert(m);
                }
            } else if self.edges.remove(&e) {
                self.loads[m] -= 2;
                touched.insert(m);
            }
        }
        for m in touched {
            // Permissive accounting: the point is the measured total.
            let _ = ctx.set_load(m, self.loads[m]);
        }
        Ok(())
    }

    /// Total memory in words (`n + 2m`).
    pub fn words(&self) -> u64 {
        self.n as u64 + 2 * self.edges.len() as u64
    }

    /// Rounds the last query consumed.
    pub fn last_query_rounds(&self) -> u64 {
        self.last_query_rounds
    }

    /// Recomputes component labels by label propagation: each round
    /// every vertex adopts the minimum label in its neighborhood;
    /// rounds are charged until a fixpoint, `O(log n)` for
    /// hash-to-min-style schemes and up to the diameter for plain
    /// min propagation (we charge the measured count).
    pub fn query_components(&mut self, ctx: &mut MpcContext) -> Vec<VertexId> {
        let before = ctx.rounds();
        let mut labels: Vec<VertexId> = (0..self.n as u32).collect();
        // Simulate pointer-jumping min-propagation: label rounds are
        // measured; each round costs one exchange of Θ(m) words (the
        // NO'21-style Θ(m) per-round communication the paper calls
        // out in Section 1.3.1).
        loop {
            let mut changed = false;
            let mut next = labels.clone();
            for e in &self.edges {
                let (a, b) = (e.u() as usize, e.v() as usize);
                let m = labels[a].min(labels[b]);
                if next[a] > m {
                    next[a] = m;
                    changed = true;
                }
                if next[b] > m {
                    next[b] = m;
                    changed = true;
                }
            }
            // Pointer jumping: label ← label of label.
            for v in 0..self.n {
                let l = next[v] as usize;
                if next[l] < next[v] {
                    next[v] = next[l];
                    changed = true;
                }
            }
            ctx.exchange(2 * self.edges.len() as u64 + 1);
            labels = next;
            if !changed {
                break;
            }
        }
        self.last_query_rounds = ctx.rounds() - before;
        labels
    }
}

impl mpc_stream_core::Maintain for FullMemoryBaseline {
    fn name(&self) -> &'static str {
        "fullmem-baseline"
    }

    /// `O(1)`: the vertex and edge counts.
    fn words(&self) -> u64 {
        FullMemoryBaseline::words(self)
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Recompute-on-read, like the stored-graph regimes the paper
    /// compares against: every connectivity answer pays the measured
    /// label-propagation rounds at `Θ(m)` words per round.
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

// `loads` is lazily sized to the cluster on first ingest; an empty
// vector is a legitimate pre-ingest state and round-trips verbatim.
mpc_snapshot::persist_struct!(FullMemoryBaseline {
    n,
    edges,
    loads,
    last_query_rounds
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(64, 0.5).local_capacity(1 << 15).build())
    }

    #[test]
    fn labels_match_oracle() {
        let n = 32;
        let stream = gen::random_mixed_stream(n, 6, 8, 0.7, 2);
        let snaps = stream.replay();
        let mut c = ctx();
        let mut fm = FullMemoryBaseline::new(n);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            fm.apply_batch(batch, &mut c).expect("valid stream");
            let labels = fm.query_components(&mut c);
            assert_eq!(labels, oracle::components(n, snap.edges()));
        }
    }

    #[test]
    fn memory_grows_with_m() {
        let n = 64;
        let mut c = ctx();
        let mut fm = FullMemoryBaseline::new(n);
        let w0 = fm.words();
        fm.apply_batch(
            &Batch::inserting((0..32u32).map(|i| Edge::new(i, i + 32))),
            &mut c,
        )
        .expect("valid stream");
        assert_eq!(fm.words(), w0 + 64);
        assert_eq!(fm.edge_count(), 32);
    }

    /// The inherent write path is the gated one: an out-of-range edge
    /// is refused instead of stored (where the next query would index
    /// past its labels), and so is a batch too big for one machine.
    #[test]
    fn apply_batch_gates_its_input() {
        let n = 8;
        let mut c = MpcContext::new(
            MpcConfig::builder(64, 0.5)
                .local_capacity(16)
                .machines(8)
                .build(),
        );
        let mut fm = FullMemoryBaseline::new(n);
        fm.apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut c)
            .expect("in range");
        let rounds = c.rounds();
        let err = fm
            .apply_batch(&Batch::inserting([Edge::new(2, n as u32)]), &mut c)
            .expect_err("endpoint out of range");
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)), "{err}");
        let big = Batch::inserting((0..8u32).map(|i| Edge::new(i, (i + 1) % 8)));
        let err = fm.apply_batch(&big, &mut c).expect_err("cannot fit");
        assert!(matches!(err, MpcStreamError::Capacity(_)), "{err}");
        assert_eq!(c.rounds(), rounds, "a refused batch charges nothing");
        assert_eq!(fm.edge_count(), 1);
        assert_eq!(fm.query_components(&mut c), vec![0, 0, 2, 3, 4, 5, 6, 7]);
    }
}
