//! Sketch switching: connectivity against an **adaptive** adversary.
//!
//! The paper's guarantees (Section 1.1, "the adversary is oblivious
//! … e.g., they are not adversarially robust \[BJWY22\]") hold only
//! when the update stream is fixed in advance: once an adversary may
//! choose updates after seeing answers, the answers leak the sketch
//! randomness and Lemma 3.5's success probability no longer applies
//! to later queries.
//!
//! [`RobustConnectivity`] applies the standard *sketch switching*
//! technique of Ben-Eliezer, Jayaram, Woodruff, and Yogev to buy
//! robustness at a multiplicative memory cost: it runs `R`
//! independent [`Connectivity`] instances in parallel (all process
//! every batch; `R×` memory and update communication, still `O(1)`
//! rounds per batch since the instances run in parallel on disjoint
//! machine groups) but **exposes** only one instance's answers at a
//! time. Each exposed instance may absorb a bounded number of
//! *randomness-consuming* batches (batches that delete spanning-
//! forest edges and therefore publish sketch samples) before it is
//! retired and the next — never-exposed, hence still effectively
//! oblivious — instance takes over. The supported adaptivity budget
//! is `R × exposure_budget` consuming batches; afterwards updates are
//! refused rather than served with degraded guarantees.

use crate::connectivity::{Connectivity, ConnectivityConfig};
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Batch;
use mpc_sim::{MpcContext, MpcStreamError};

/// Adaptive-adversary connectivity via sketch switching.
///
/// # Examples
///
/// ```
/// use mpc_stream_core::{ConnectivityConfig, RobustConnectivity};
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(16, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut rc = RobustConnectivity::new(
///     16,
///     3,  // instances
///     4,  // exposure budget per instance
///     ConnectivityConfig::default(),
///     11,
/// );
/// rc.apply_batch(&Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]), &mut ctx)?;
/// assert!(rc.connected(0, 2));
/// // Deleting the tree edge {1,2} consumes exposure budget…
/// rc.apply_batch(&Batch::deleting([Edge::new(1, 2)]), &mut ctx)?;
/// assert_eq!(rc.exposures_spent(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct RobustConnectivity {
    instances: Vec<Connectivity>,
    /// Index of the currently exposed instance.
    cursor: usize,
    /// Consuming batches absorbed by the current instance.
    current_exposures: u64,
    /// Consuming batches each instance may absorb while exposed.
    exposure_budget: u64,
    /// Total consuming batches over the structure's lifetime.
    total_exposures: u64,
}

impl RobustConnectivity {
    /// Creates `instances` independent connectivity structures on `n`
    /// vertices, each allowed `exposure_budget` randomness-consuming
    /// batches while exposed.
    ///
    /// # Panics
    ///
    /// Panics if `instances == 0` or `exposure_budget == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — an empty instance set or exposure budget is a construction bug"
    )]
    pub fn new(
        n: usize,
        instances: usize,
        exposure_budget: u64,
        cfg: ConnectivityConfig,
        seed: u64,
    ) -> Self {
        assert!(instances >= 1, "need at least one instance");
        assert!(exposure_budget >= 1, "exposure budget must be positive");
        RobustConnectivity {
            instances: (0..instances)
                .map(|i| Connectivity::new(n, cfg.clone(), seed.wrapping_add((i as u64) << 40)))
                .collect(),
            cursor: 0,
            current_exposures: 0,
            exposure_budget,
            total_exposures: 0,
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.instances[0].vertex_count()
    }

    /// Number of provisioned instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Index of the currently exposed instance.
    pub fn exposed_instance(&self) -> usize {
        self.cursor
    }

    /// Randomness-consuming batches absorbed so far (lifetime total).
    pub fn exposures_spent(&self) -> u64 {
        self.total_exposures
    }

    /// Consuming batches still supported before
    /// [`MpcStreamError::BudgetExhausted`].
    pub fn exposures_remaining(&self) -> u64 {
        let per = self.exposure_budget;
        let left_current = per - self.current_exposures;
        let left_later = (self.instances.len() - self.cursor - 1) as u64 * per;
        left_current + left_later
    }

    /// Whether the adaptivity budget is fully spent.
    pub fn is_exhausted(&self) -> bool {
        self.exposures_remaining() == 0
    }

    /// Memory footprint in words: `R×` the single-instance cost —
    /// the price of robustness, measured by experiment E14.
    pub fn words(&self) -> u64 {
        self.instances.iter().map(Connectivity::words).sum()
    }

    /// Cumulative `ℓ0`-sampler failures across all instances (every
    /// instance ingests every batch, so all of them can fail).
    pub fn sampler_failure_count(&self) -> u64 {
        self.instances
            .iter()
            .map(Connectivity::sampler_failure_count)
            .sum()
    }

    /// Applies a batch to **all** instances (they run in parallel on
    /// disjoint machine groups, so the round count matches a single
    /// instance; communication is `R×`).
    ///
    /// A batch *consumes exposure* iff it deletes an edge of the
    /// exposed instance's spanning forest — exactly then does the
    /// answer reveal fresh sketch samples (the replacement edges).
    /// When the current instance's budget is spent, the cursor
    /// silently advances to the next instance before processing.
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::BudgetExhausted`] — the batch is *not*
    /// applied — or any error of the inner [`Connectivity`].
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        let consuming = self.batch_consumes(batch);
        if consuming && self.current_exposures >= self.exposure_budget {
            if self.cursor + 1 < self.instances.len() {
                self.cursor += 1;
                self.current_exposures = 0;
            } else {
                return Err(MpcStreamError::BudgetExhausted(format!(
                    "adaptivity budget exhausted: {} instances x {} consuming batches",
                    self.instances.len(),
                    self.exposure_budget
                )));
            }
        }
        // All R instances ingest the batch, in parallel on disjoint
        // machine groups.
        ctx.parallel(&mut self.instances, |inst, ctx| {
            inst.apply_batch(batch, ctx)
        })?;
        if consuming {
            self.current_exposures += 1;
            self.total_exposures += 1;
        }
        Ok(())
    }

    fn batch_consumes(&self, batch: &Batch) -> bool {
        let etf = self.instances[self.cursor].etf();
        batch.deletions().any(|e| etf.contains_edge(e))
    }

    /// Whether `u` and `v` are connected (answered by the exposed
    /// instance).
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.instances[self.cursor].connected(u, v)
    }

    /// Component id of `v` (exposed instance).
    pub fn component_of(&self, v: VertexId) -> VertexId {
        self.instances[self.cursor].component_of(v)
    }

    /// Component labelling (exposed instance).
    pub fn component_labels(&self) -> &[VertexId] {
        self.instances[self.cursor].component_labels()
    }

    /// Number of connected components (exposed instance).
    pub fn component_count(&self) -> usize {
        self.instances[self.cursor].component_count()
    }

    /// The exposed instance's maintained spanning forest.
    pub fn spanning_forest(&self) -> Vec<Edge> {
        self.instances[self.cursor].spanning_forest()
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(RobustConnectivity {
    instances,
    cursor,
    current_exposures,
    exposure_budget,
    total_exposures,
} check |rc| {
    if rc.instances.is_empty() || rc.exposure_budget == 0 {
        return Err("robust-connectivity needs at least one instance and a positive budget".into());
    }
    if rc.cursor >= rc.instances.len() || rc.current_exposures > rc.exposure_budget {
        return Err(format!(
            "robust-connectivity cursor {}/{} or exposures {}/{} out of range",
            rc.cursor,
            rc.instances.len(),
            rc.current_exposures,
            rc.exposure_budget
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(32, 0.5).local_capacity(1 << 15).build())
    }

    fn rc(n: usize, instances: usize, budget: u64) -> RobustConnectivity {
        RobustConnectivity::new(n, instances, budget, ConnectivityConfig::default(), 5)
    }

    #[test]
    fn answers_match_oracle_through_switching() {
        let n = 16;
        let mut c = ctx();
        let mut r = rc(n, 3, 1);
        // Build a path, then repeatedly delete the tree edge the
        // exposed instance publishes — the adaptive pattern.
        r.apply_batch(
            &Batch::inserting((0..n as u32 - 1).map(|i| Edge::new(i, i + 1))),
            &mut c,
        )
        .unwrap();
        let mut live: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
        for _ in 0..3 {
            let target = r.spanning_forest()[0];
            r.apply_batch(&Batch::deleting([target]), &mut c).unwrap();
            live.retain(|e| *e != target);
            let labels = oracle::components(n, live.iter().copied());
            assert_eq!(r.component_labels(), &labels[..]);
        }
        assert_eq!(r.exposures_spent(), 3);
        // Budget 1 × 3 instances: the third consuming batch landed on
        // the last instance.
        assert_eq!(r.exposed_instance(), 2);
    }

    #[test]
    fn non_consuming_batches_are_free() {
        let mut c = ctx();
        let mut r = rc(8, 2, 1);
        r.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(0, 2)]),
            &mut c,
        )
        .unwrap();
        // Insertions never consume.
        r.apply_batch(&Batch::inserting([Edge::new(1, 2)]), &mut c)
            .unwrap();
        // Deleting a *non-tree* edge does not consume either.
        let forest: Vec<Edge> = r.spanning_forest();
        let non_tree = [Edge::new(0, 1), Edge::new(0, 2), Edge::new(1, 2)]
            .into_iter()
            .find(|e| !forest.contains(e))
            .expect("triangle has a non-tree edge");
        r.apply_batch(&Batch::deleting([non_tree]), &mut c).unwrap();
        assert_eq!(r.exposures_spent(), 0);
        assert_eq!(r.exposures_remaining(), 2);
    }

    #[test]
    fn budget_exhaustion_is_an_error_and_state_is_preserved() {
        let mut c = ctx();
        let mut r = rc(8, 2, 1);
        r.apply_batch(
            &Batch::inserting([Edge::new(0, 1), Edge::new(1, 2)]),
            &mut c,
        )
        .unwrap();
        // Two consuming deletions exhaust 2 instances × budget 1.
        let t1 = r.spanning_forest()[0];
        r.apply_batch(&Batch::deleting([t1]), &mut c).unwrap();
        let t2 = r.spanning_forest()[0];
        r.apply_batch(&Batch::deleting([t2]), &mut c).unwrap();
        assert!(r.is_exhausted());
        // Re-insert so another tree deletion is possible.
        r.apply_batch(&Batch::inserting([t1]), &mut c).unwrap();
        let t3 = r.spanning_forest()[0];
        let err = r.apply_batch(&Batch::deleting([t3]), &mut c).unwrap_err();
        assert_eq!(
            err,
            MpcStreamError::BudgetExhausted(
                "adaptivity budget exhausted: 2 instances x 1 consuming batches".into()
            )
        );
        // The refused batch was not applied anywhere.
        assert!(r.connected(t3.u(), t3.v()));
    }

    #[test]
    fn memory_is_r_times_single_instance() {
        let mut c = ctx();
        let mut single = Connectivity::new(16, ConnectivityConfig::default(), 5);
        let mut r = rc(16, 3, 2);
        let batch = Batch::inserting([Edge::new(0, 1), Edge::new(2, 3)]);
        single.apply_batch(&batch, &mut c).unwrap();
        r.apply_batch(&batch, &mut c).unwrap();
        assert_eq!(r.words(), 3 * single.words());
        assert_eq!(r.instance_count(), 3);
        assert_eq!(r.vertex_count(), 16);
    }

    #[test]
    fn instances_use_independent_randomness() {
        let r = rc(16, 2, 1);
        // Distinct seeds → the banks differ even before updates; we
        // can only observe this indirectly: both answer identically
        // on the empty graph.
        assert_eq!(r.component_count(), 16);
        assert_eq!(r.component_of(3), 3);
    }
}
