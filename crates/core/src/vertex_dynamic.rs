//! Vertex insertions and deletions on top of [`Connectivity`].
//!
//! The paper fixes the vertex set `V` but notes (Section 1.2) that
//! "it is rather easy to relax this requirement and allow insertions
//! and deletions of **isolated** vertices, as long as a batch of
//! updates can fit into a local machine", with the machines — and
//! hence the local memory `s` — staying the same. This module is
//! that relaxation: a [`VertexDynamicConnectivity`] owns a
//! [`Connectivity`] instance sized to a fixed **capacity** (the
//! paper's "the MPC machines stay the same") and maintains an active
//! vertex set inside it. Inactive vertices are isolated singletons in
//! the inner structure and cost nothing beyond their component-label
//! slot; freed ids are recycled.

use crate::connectivity::{Connectivity, ConnectivityConfig};
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Batch;
use mpc_sim::{MpcContext, MpcStreamError};

fn not_active(v: VertexId) -> MpcStreamError {
    MpcStreamError::InvalidBatch(format!("vertex {v} is not active"))
}

fn slots_exhausted(capacity: usize) -> MpcStreamError {
    MpcStreamError::BudgetExhausted(format!("all {capacity} vertex slots are active"))
}

/// Batch-dynamic connectivity with a dynamic vertex set (paper
/// Section 1.2's relaxation).
///
/// # Examples
///
/// ```
/// use mpc_stream_core::{VertexDynamicConnectivity, ConnectivityConfig};
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(16, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut vd = VertexDynamicConnectivity::with_capacity(
///     16,
///     ConnectivityConfig::default(),
///     7,
/// );
/// let a = vd.add_vertex(&mut ctx)?;
/// let b = vd.add_vertex(&mut ctx)?;
/// vd.apply_batch(&Batch::inserting([Edge::new(a, b)]), &mut ctx)?;
/// assert!(vd.connected(a, b)?);
/// // A vertex must be isolated before it can leave.
/// assert!(vd.remove_vertex(b, &mut ctx).is_err());
/// vd.apply_batch(&Batch::deleting([Edge::new(a, b)]), &mut ctx)?;
/// vd.remove_vertex(b, &mut ctx)?;
/// assert_eq!(vd.active_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct VertexDynamicConnectivity {
    inner: Connectivity,
    active: Vec<bool>,
    /// Recycled ids, popped before fresh ones.
    free: Vec<VertexId>,
    /// Next never-used id.
    next_fresh: u32,
    active_count: usize,
    /// Live-edge degree per slot, to enforce isolated removal.
    degree: Vec<u32>,
}

impl VertexDynamicConnectivity {
    /// Creates the structure with `capacity` vertex slots and no
    /// active vertices.
    pub fn with_capacity(capacity: usize, cfg: ConnectivityConfig, seed: u64) -> Self {
        VertexDynamicConnectivity {
            inner: Connectivity::new(capacity, cfg, seed),
            active: vec![false; capacity],
            free: Vec::new(),
            next_fresh: 0,
            active_count: 0,
            degree: vec![0; capacity],
        }
    }

    /// The fixed slot capacity (the paper's unchanging machine
    /// layout).
    pub fn capacity(&self) -> usize {
        self.active.len()
    }

    /// Number of currently active vertices.
    pub fn active_count(&self) -> usize {
        self.active_count
    }

    /// Whether `v` is an active vertex.
    pub fn is_active(&self, v: VertexId) -> bool {
        (v as usize) < self.active.len() && self.active[v as usize]
    }

    /// Live-edge degree of an active vertex.
    pub fn degree(&self, v: VertexId) -> Result<u32, MpcStreamError> {
        if !self.is_active(v) {
            return Err(not_active(v));
        }
        Ok(self.degree[v as usize])
    }

    /// The inner fixed-capacity structure.
    pub fn connectivity(&self) -> &Connectivity {
        &self.inner
    }

    /// Cumulative `ℓ0`-sampler failures in the inner structure (the
    /// failure-probability envelope of the replacement-edge search).
    pub fn sampler_failure_count(&self) -> u64 {
        self.inner.sampler_failure_count()
    }

    /// Activates a vertex slot (recycling freed ids first) and
    /// returns its id — `O(1)` rounds (one broadcast of the
    /// activation).
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::BudgetExhausted`] when every slot is
    /// active.
    pub fn add_vertex(&mut self, ctx: &mut MpcContext) -> Result<VertexId, MpcStreamError> {
        let id = if let Some(v) = self.free.pop() {
            v
        } else if (self.next_fresh as usize) < self.active.len() {
            let v = self.next_fresh;
            self.next_fresh += 1;
            v
        } else {
            return Err(slots_exhausted(self.active.len()));
        };
        self.active[id as usize] = true;
        self.active_count += 1;
        ctx.exchange(1);
        ctx.broadcast(1);
        Ok(id)
    }

    /// Activates `count` vertices in one batch — `O(1)` rounds total.
    pub fn add_vertices(
        &mut self,
        count: usize,
        ctx: &mut MpcContext,
    ) -> Result<Vec<VertexId>, MpcStreamError> {
        if self.active_count + count > self.active.len() {
            return Err(slots_exhausted(self.active.len()));
        }
        let mut ids = Vec::with_capacity(count);
        for _ in 0..count {
            let id = if let Some(v) = self.free.pop() {
                v
            } else {
                let v = self.next_fresh;
                self.next_fresh += 1;
                v
            };
            self.active[id as usize] = true;
            self.active_count += 1;
            ids.push(id);
        }
        ctx.exchange(count as u64);
        ctx.broadcast(1);
        Ok(ids)
    }

    /// Deactivates an **isolated** active vertex — `O(1)` rounds.
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::InvalidBatch`] if `v` is inactive or still has
    /// live edges.
    pub fn remove_vertex(
        &mut self,
        v: VertexId,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        if !self.is_active(v) {
            return Err(not_active(v));
        }
        if self.degree[v as usize] > 0 {
            return Err(MpcStreamError::InvalidBatch(format!(
                "vertex {v} has {} live edges; only isolated vertices can be removed",
                self.degree[v as usize]
            )));
        }
        self.active[v as usize] = false;
        self.active_count -= 1;
        self.free.push(v);
        ctx.exchange(1);
        ctx.broadcast(1);
        Ok(())
    }

    /// Applies an edge-update batch after checking every endpoint is
    /// active; delegates to [`Connectivity::apply_batch`].
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::InvalidBatch`] for an inactive endpoint (state
    /// unchanged), or any error of the inner [`Connectivity`].
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        for u in batch.iter() {
            let e = u.edge();
            for x in [e.u(), e.v()] {
                if !self.is_active(x) {
                    return Err(MpcStreamError::InvalidBatch(format!(
                        "edge {e} touches inactive vertex {x}"
                    )));
                }
            }
        }
        self.inner.apply_batch(batch, ctx)?;
        for u in batch.iter() {
            let e = u.edge();
            if u.is_insert() {
                self.degree[e.u() as usize] += 1;
                self.degree[e.v() as usize] += 1;
            } else {
                self.degree[e.u() as usize] -= 1;
                self.degree[e.v() as usize] -= 1;
            }
        }
        Ok(())
    }

    /// Whether two active vertices are connected.
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::InvalidBatch`] for an inactive endpoint.
    pub fn connected(&self, u: VertexId, v: VertexId) -> Result<bool, MpcStreamError> {
        for x in [u, v] {
            if !self.is_active(x) {
                return Err(not_active(x));
            }
        }
        Ok(self.inner.connected(u, v))
    }

    /// Component id of an active vertex.
    pub fn component_of(&self, v: VertexId) -> Result<VertexId, MpcStreamError> {
        if !self.is_active(v) {
            return Err(not_active(v));
        }
        Ok(self.inner.component_of(v))
    }

    /// Number of connected components **among active vertices**.
    /// Inactive slots are isolated singletons inside the inner
    /// structure and are excluded.
    pub fn component_count(&self) -> usize {
        let inactive = self.capacity() - self.active_count;
        self.inner.component_count() - inactive
    }

    /// The maintained spanning forest (only touches active vertices).
    pub fn spanning_forest(&self) -> Vec<Edge> {
        self.inner.spanning_forest()
    }

    /// Memory footprint in words: inner structure plus the activity
    /// bookkeeping (`O(capacity)`).
    pub fn words(&self) -> u64 {
        self.inner.words() + 2 * self.capacity() as u64
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(VertexDynamicConnectivity {
    inner,
    active,
    free,
    next_fresh,
    active_count,
    degree,
} check |vd| {
    let capacity = vd.inner.vertex_count();
    if vd.active.len() != capacity || vd.degree.len() != capacity {
        return Err(format!(
            "vertex-dynamic tables cover {}/{} of {capacity} slots",
            vd.active.len(),
            vd.degree.len()
        ));
    }
    if vd.next_fresh as usize > capacity
        || vd.active_count != vd.active.iter().filter(|&&b| b).count()
    {
        return Err("vertex-dynamic slot bookkeeping is inconsistent".into());
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

    fn vd(cap: usize) -> VertexDynamicConnectivity {
        VertexDynamicConnectivity::with_capacity(cap, ConnectivityConfig::default(), 99)
    }

    #[test]
    fn starts_empty() {
        let v = vd(8);
        assert_eq!(v.capacity(), 8);
        assert_eq!(v.active_count(), 0);
        assert_eq!(v.component_count(), 0);
        assert!(!v.is_active(0));
    }

    #[test]
    fn add_assigns_sequential_then_recycled_ids() {
        let mut c = ctx();
        let mut v = vd(4);
        let a = v.add_vertex(&mut c).unwrap();
        let b = v.add_vertex(&mut c).unwrap();
        assert_eq!((a, b), (0, 1));
        v.remove_vertex(a, &mut c).unwrap();
        // Freed id 0 is reused before fresh id 2.
        assert_eq!(v.add_vertex(&mut c).unwrap(), 0);
        assert_eq!(v.add_vertex(&mut c).unwrap(), 2);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = ctx();
        let mut v = vd(2);
        v.add_vertices(2, &mut c).unwrap();
        assert_eq!(v.add_vertex(&mut c), Err(slots_exhausted(2)));
        assert_eq!(v.add_vertices(1, &mut c), Err(slots_exhausted(2)));
    }

    #[test]
    fn edges_require_active_endpoints() {
        let mut c = ctx();
        let mut v = vd(4);
        let a = v.add_vertex(&mut c).unwrap();
        let err = v
            .apply_batch(&Batch::inserting([Edge::new(a, 3)]), &mut c)
            .unwrap_err();
        assert_eq!(
            err,
            MpcStreamError::InvalidBatch(format!("edge {{{a},3}} touches inactive vertex 3"))
        );
        assert_eq!(v.connectivity().live_edge_count(), 0);
    }

    #[test]
    fn removal_requires_isolation() {
        let mut c = ctx();
        let mut v = vd(4);
        let ids = v.add_vertices(3, &mut c).unwrap();
        v.apply_batch(&Batch::inserting([Edge::new(ids[0], ids[1])]), &mut c)
            .unwrap();
        assert_eq!(
            v.remove_vertex(ids[0], &mut c),
            Err(MpcStreamError::InvalidBatch(format!(
                "vertex {} has 1 live edges; only isolated vertices can be removed",
                ids[0]
            )))
        );
        v.apply_batch(&Batch::deleting([Edge::new(ids[0], ids[1])]), &mut c)
            .unwrap();
        v.remove_vertex(ids[0], &mut c).unwrap();
        assert_eq!(v.remove_vertex(ids[0], &mut c), Err(not_active(ids[0])));
    }

    #[test]
    fn component_count_ignores_inactive_slots() {
        let mut c = ctx();
        let mut v = vd(8);
        let ids = v.add_vertices(4, &mut c).unwrap();
        assert_eq!(v.component_count(), 4);
        v.apply_batch(
            &Batch::inserting([Edge::new(ids[0], ids[1]), Edge::new(ids[2], ids[3])]),
            &mut c,
        )
        .unwrap();
        assert_eq!(v.component_count(), 2);
        v.apply_batch(&Batch::inserting([Edge::new(ids[1], ids[2])]), &mut c)
            .unwrap();
        assert_eq!(v.component_count(), 1);
    }

    #[test]
    fn queries_reject_inactive_vertices() {
        let mut c = ctx();
        let mut v = vd(4);
        let a = v.add_vertex(&mut c).unwrap();
        assert_eq!(v.connected(a, 2), Err(not_active(2)));
        assert_eq!(v.component_of(3), Err(not_active(3)));
        assert_eq!(v.degree(2), Err(not_active(2)));
        assert_eq!(v.degree(a), Ok(0));
    }

    #[test]
    fn churn_matches_oracle() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(2024);
        let cap = 24;
        let mut c = ctx();
        let mut v = vd(cap);
        // Reference: live edges + active set.
        let mut live: Vec<Edge> = Vec::new();
        let mut active: Vec<VertexId> = Vec::new();
        for _step in 0..60 {
            let action = rng.gen_range(0..4);
            match action {
                0 if v.active_count() < cap => {
                    active.push(v.add_vertex(&mut c).unwrap());
                }
                1 if active.len() >= 2 => {
                    let a = active[rng.gen_range(0..active.len())];
                    let b = active[rng.gen_range(0..active.len())];
                    if a != b && !live.contains(&Edge::new(a, b)) {
                        let e = Edge::new(a, b);
                        v.apply_batch(&Batch::inserting([e]), &mut c).unwrap();
                        live.push(e);
                    }
                }
                2 if !live.is_empty() => {
                    let e = live.swap_remove(rng.gen_range(0..live.len()));
                    v.apply_batch(&Batch::deleting([e]), &mut c).unwrap();
                }
                3 if !active.is_empty() => {
                    let i = rng.gen_range(0..active.len());
                    let cand = active[i];
                    if live.iter().all(|e| !e.touches(cand)) {
                        v.remove_vertex(cand, &mut c).unwrap();
                        active.swap_remove(i);
                    }
                }
                _ => {}
            }
            // Cross-check connectivity among active vertices.
            let labels = oracle::components(cap, live.iter().copied());
            for &a in &active {
                for &b in &active {
                    assert_eq!(
                        v.connected(a, b).unwrap(),
                        labels[a as usize] == labels[b as usize],
                        "pair ({a},{b})"
                    );
                }
            }
        }
    }
}
