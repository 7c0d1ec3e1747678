//! Insertion-only `O(α)`-approximate matching (paper Theorem 8.1).
//!
//! Maintain a matching `M` greedily, but stop growing it once
//! `|M| ≥ cap = c·n/α`. If the cap is never reached, `M` is maximal
//! and hence a 2-approximation; if it is reached, `|M| ≥ c·n/α` while
//! `OPT ≤ n/2`, giving an `O(α)` approximation with `Õ(n/α)` words.
//! Each batch costs `O(1)` rounds: broadcast the batch, collect the
//! conflict bits, extend greedily at the coordinator.

use mpc_graph::ids::{Edge, VertexId};
use mpc_sim::MpcContext;
use std::collections::BTreeSet;

/// A greedy matching capped at a fixed size.
///
/// # Examples
///
/// ```
/// use mpc_matching::CappedGreedyMatching;
/// use mpc_graph::ids::Edge;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 12).build(),
/// );
/// let mut m = CappedGreedyMatching::new(8, 2);
/// m.apply_insert_batch(
///     &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3), Edge::new(4, 5)],
///     &mut ctx,
/// );
/// assert_eq!(m.len(), 2); // {0,1} then {2,3}; cap reached
/// assert!(m.is_saturated());
/// ```
#[derive(Debug, Clone)]
pub struct CappedGreedyMatching {
    n: usize,
    cap: usize,
    matched: BTreeSet<VertexId>,
    matching: Vec<Edge>,
}

impl CappedGreedyMatching {
    /// Creates an empty matching on `n` vertices capped at `cap`
    /// edges.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — the cap is a construction parameter"
    )]
    pub fn new(n: usize, cap: usize) -> Self {
        assert!(cap >= 1, "cap must be positive");
        CappedGreedyMatching {
            n,
            cap,
            matched: BTreeSet::new(),
            matching: Vec::new(),
        }
    }

    /// Convenience constructor with the paper's cap `⌈c·n/α⌉`.
    #[expect(
        clippy::disallowed_macros,
        reason = "α below 1 is a construction bug, as in new"
    )]
    pub fn for_alpha(n: usize, alpha: f64) -> Self {
        assert!(alpha >= 1.0, "α must be at least 1");
        let cap = ((n as f64 / (2.0 * alpha)).ceil() as usize).max(1);
        CappedGreedyMatching::new(n, cap)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The cap.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Current matching size.
    pub fn len(&self) -> usize {
        self.matching.len()
    }

    /// Whether the matching is empty.
    pub fn is_empty(&self) -> bool {
        self.matching.is_empty()
    }

    /// Whether the cap has been reached (further insertions are
    /// ignored — Theorem 8.1's "do not update anything" case).
    pub fn is_saturated(&self) -> bool {
        self.matching.len() >= self.cap
    }

    /// The matching edges in insertion order.
    pub fn matching(&self) -> &[Edge] {
        &self.matching
    }

    /// Whether `v` is matched.
    pub fn is_matched(&self, v: VertexId) -> bool {
        self.matched.contains(&v)
    }

    /// Memory footprint in words (`Õ(n/α)`: the stored matching and
    /// its endpoint set).
    pub fn words(&self) -> u64 {
        2 * self.matching.len() as u64 + self.matched.len() as u64
    }

    /// Processes a batch of insertions in `O(1)` rounds: the batch is
    /// broadcast, machines report which edges conflict with `M`, and
    /// the coordinator extends greedily until the cap.
    pub fn apply_insert_batch(&mut self, edges: &[Edge], ctx: &mut MpcContext) {
        ctx.exchange(2 * edges.len() as u64);
        ctx.broadcast(2);
        if self.is_saturated() {
            return;
        }
        ctx.exchange(edges.len() as u64);
        for &e in edges {
            if self.matching.len() >= self.cap {
                break;
            }
            if !self.matched.contains(&e.u()) && !self.matched.contains(&e.v()) {
                self.matched.insert(e.u());
                self.matched.insert(e.v());
                self.matching.push(e);
            }
        }
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(CappedGreedyMatching { n, cap, matched, matching } check |g| {
    if g.cap == 0 || g.matching.len() > g.cap {
        return Err(format!(
            "capped greedy matching holds {} edges against cap {}",
            g.matching.len(),
            g.cap
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

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(256, 0.5).local_capacity(1 << 14).build())
    }

    #[test]
    fn greedy_is_maximal_below_cap() {
        let n = 64;
        let stream = gen::random_insert_stream(n, 4, 16, 5);
        let mut c = ctx();
        let mut m = CappedGreedyMatching::new(n, n); // effectively uncapped
        let mut live = Vec::new();
        for batch in &stream.batches {
            let ins: Vec<Edge> = batch.insertions().collect();
            m.apply_insert_batch(&ins, &mut c);
            live.extend(ins);
        }
        // Maximality: every live edge touches a matched vertex.
        for e in &live {
            assert!(
                m.is_matched(e.u()) || m.is_matched(e.v()),
                "edge {e} unmatched on both sides"
            );
        }
        // 2-approximation.
        let opt = oracle::maximum_matching_size(n, &live);
        assert!(2 * m.len() >= opt);
    }

    #[test]
    fn cap_bounds_memory() {
        let n = 128;
        let mut c = ctx();
        let mut m = CappedGreedyMatching::for_alpha(n, 8.0);
        let edges: Vec<Edge> = (0..n as u32 / 2)
            .map(|i| Edge::new(2 * i, 2 * i + 1))
            .collect();
        m.apply_insert_batch(&edges, &mut c);
        assert_eq!(m.len(), m.cap());
        assert!(m.is_saturated());
        assert!(m.words() <= 4 * m.cap() as u64);
        // Further insertions are ignored.
        let before = m.len();
        m.apply_insert_batch(&[Edge::new(1, 2)], &mut c);
        assert_eq!(m.len(), before);
    }

    #[test]
    fn saturated_matching_is_alpha_approx() {
        // A perfect matching stream: OPT = n/2; capped greedy keeps
        // n/(2α), so ratio = α exactly.
        let n = 64;
        let alpha = 4.0;
        let mut c = ctx();
        let mut m = CappedGreedyMatching::for_alpha(n, alpha);
        let edges: Vec<Edge> = (0..n as u32 / 2)
            .map(|i| Edge::new(2 * i, 2 * i + 1))
            .collect();
        m.apply_insert_batch(&edges, &mut c);
        let opt = n / 2;
        let ratio = opt as f64 / m.len() as f64;
        assert!(ratio <= alpha + 1e-9, "ratio {ratio} > α {alpha}");
    }

    #[test]
    fn matching_is_disjoint() {
        let n = 32;
        let stream = gen::random_insert_stream(n, 3, 20, 9);
        let mut c = ctx();
        let mut m = CappedGreedyMatching::new(n, 10);
        for batch in &stream.batches {
            let ins: Vec<Edge> = batch.insertions().collect();
            m.apply_insert_batch(&ins, &mut c);
        }
        let mut seen = BTreeSet::new();
        for e in m.matching() {
            assert!(seen.insert(e.u()), "vertex {} reused", e.u());
            assert!(seen.insert(e.v()), "vertex {} reused", e.v());
        }
    }

    #[test]
    fn batches_cost_constant_rounds() {
        let n = 256;
        let mut c = ctx();
        let mut m = CappedGreedyMatching::for_alpha(n, 4.0);
        let budget = 2 * c.config().round_budget_per_primitive();
        for i in 0..8u32 {
            c.begin_phase("greedy");
            let edges: Vec<Edge> = (0..16)
                .map(|j| Edge::new(32 * i + 2 * j, 32 * i + 2 * j + 1))
                .collect();
            m.apply_insert_batch(&edges, &mut c);
            let r = c.end_phase();
            assert!(r.rounds <= budget);
        }
    }
}
