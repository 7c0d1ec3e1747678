//! AGM vertex sketches (paper Section 3.1, \[AGM12\]).
//!
//! For each vertex `v` of an `n`-vertex graph, the vector
//! `X_v ∈ {-1,0,+1}^{n×n}` has, for every live edge `{a,b}` with
//! `a < b` incident to `v`: `+1` at coordinate `{a,b}` if `v = b`
//! (the larger endpoint) and `-1` if `v = a`. The point of the sign
//! convention (Lemma 3.3): for any vertex set `A`,
//! `Σ_{v∈A} X_v` has support exactly the cut `E(A, V∖A)` — internal
//! edges appear once with `+1` and once with `-1` and cancel.
//!
//! A [`VertexSketch`] is an [`L0Sampler`] over that vector; sampling
//! it returns a uniform-ish cut edge, which is the replacement-edge
//! primitive of the connectivity algorithm.

use crate::l0::{L0Sampler, SampleOutcome};
use mpc_graph::ids::{Edge, VertexId};

/// Outcome of querying a [`VertexSketch`] (or a merged set sketch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeSample {
    /// The cut is (w.h.p.) empty — the paper's `⊥`.
    Empty,
    /// A cut edge.
    Edge(Edge),
    /// The sampler failed; retry with an independent copy.
    Fail,
}

/// A linear sketch of a vertex's (or, after merging, a vertex set's)
/// incidence vector.
///
/// # Examples
///
/// ```
/// use mpc_sketch::vertex::{EdgeSample, VertexSketch};
/// use mpc_graph::ids::Edge;
///
/// let n = 16;
/// let e = Edge::new(3, 5);
/// let mut s3 = VertexSketch::new(n, 3, 42);
/// let mut s5 = VertexSketch::new(n, 5, 42);
/// s3.insert_edge(e);
/// s5.insert_edge(e);
/// // Individually each sees the edge…
/// assert_eq!(s3.sample(), EdgeSample::Edge(e));
/// // …but the sketch of the set {3,5} sees an empty cut.
/// s3.merge(&s5);
/// assert_eq!(s3.sample(), EdgeSample::Empty);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct VertexSketch {
    n: usize,
    vertex: VertexId,
    inner: L0Sampler,
}

impl VertexSketch {
    /// Creates the sketch of vertex `v` in an `n`-vertex graph. All
    /// sketches that may ever be merged must share `seed`.
    pub fn new(n: usize, v: VertexId, seed: u64) -> Self {
        VertexSketch {
            n,
            vertex: v,
            inner: L0Sampler::new((n as u64) * (n as u64), seed),
        }
    }

    /// Wraps an existing sampler column as vertex `v`'s sketch (the
    /// bank materializes arena columns and merge results this way).
    pub(crate) fn from_inner(n: usize, v: VertexId, inner: L0Sampler) -> Self {
        VertexSketch {
            n,
            vertex: v,
            inner,
        }
    }

    /// The vertex this sketch was created for (merging keeps the
    /// first vertex as a representative label).
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Memory footprint in `u64` words.
    pub fn words(&self) -> u64 {
        self.inner.words() + 1
    }

    /// The `±1` delta vertex `v` contributes at edge `e`'s coordinate.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    fn sign(v: VertexId, e: Edge) -> i64 {
        if v == e.v() {
            1 // larger endpoint
        } else {
            debug_assert_eq!(v, e.u(), "vertex must be an endpoint");
            -1
        }
    }

    /// Records the insertion of a live edge incident to this vertex.
    ///
    /// # Panics
    ///
    /// Panics if the sketch's vertex is not an endpoint of `e`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — incidence is guaranteed by the routing layer"
    )]
    pub fn insert_edge(&mut self, e: Edge) {
        assert!(e.touches(self.vertex), "{e} not incident to sketch vertex");
        self.inner
            .update(e.index(self.n), Self::sign(self.vertex, e));
    }

    /// Records the deletion of a live edge incident to this vertex.
    ///
    /// # Panics
    ///
    /// Panics if the sketch's vertex is not an endpoint of `e`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — incidence is guaranteed by the routing layer"
    )]
    pub fn delete_edge(&mut self, e: Edge) {
        assert!(e.touches(self.vertex), "{e} not incident to sketch vertex");
        self.inner
            .update(e.index(self.n), -Self::sign(self.vertex, e));
    }

    /// Merges another vertex's sketch (same seed family): the result
    /// sketches `X_A` for the union of the merged vertex sets.
    ///
    /// # Panics
    ///
    /// Panics if the families differ.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — sketches of different graph sizes cannot be summed"
    )]
    pub fn merge(&mut self, other: &VertexSketch) {
        assert_eq!(self.n, other.n, "sketches must target the same graph size");
        self.inner.merge(&other.inner);
    }

    /// Whether the summarized cut is empty (w.h.p.).
    pub fn is_empty_cut(&self) -> bool {
        self.inner.is_zero()
    }

    /// Samples a cut edge together with its multiplicity, for
    /// multigraph streams (the paper's Section 1.2 notes parallel
    /// edges need only "minor modifications" — this is the
    /// modification). With parallel edges a cut coordinate carries
    /// `±c` for multiplicity `c`; internal edges still cancel exactly
    /// by linearity, so any nonzero recovered coordinate is a true
    /// cut edge.
    ///
    /// Returns `None` for an empty cut or a sampler failure.
    pub fn sample_multigraph(&self) -> Option<(Edge, u64)> {
        match self.inner.sample() {
            SampleOutcome::Sample { index, weight } if weight != 0 => {
                Some((Edge::from_index(index, self.n), weight.unsigned_abs()))
            }
            _ => None,
        }
    }

    /// Samples a cut edge.
    pub fn sample(&self) -> EdgeSample {
        edge_sample_from(self.inner.sample(), self.n)
    }
}

/// Maps a raw sampler outcome onto the simple-graph edge-sampling
/// contract — shared by [`VertexSketch::sample`] and the bank's
/// arena/scratch query paths.
pub(crate) fn edge_sample_from(outcome: SampleOutcome, n: usize) -> EdgeSample {
    match outcome {
        SampleOutcome::Zero => EdgeSample::Empty,
        SampleOutcome::Fail => EdgeSample::Fail,
        SampleOutcome::Sample { index, weight } => {
            // In a simple graph, cut coordinates carry ±1 exactly;
            // anything else is a (vanishingly unlikely) decoding
            // artifact. Multigraph streams use
            // [`VertexSketch::sample_multigraph`] instead.
            if weight.abs() == 1 {
                EdgeSample::Edge(Edge::from_index(index, n))
            } else {
                EdgeSample::Fail
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::oracle::UnionFind;
    use mpc_hashing::rng::StdRng;

    const SEED: u64 = 777;

    fn sketch_all(n: usize, edges: &[Edge]) -> Vec<VertexSketch> {
        let mut sketches: Vec<VertexSketch> = (0..n as u32)
            .map(|v| VertexSketch::new(n, v, SEED))
            .collect();
        for &e in edges {
            sketches[e.u() as usize].insert_edge(e);
            sketches[e.v() as usize].insert_edge(e);
        }
        sketches
    }

    #[test]
    fn isolated_vertex_is_empty() {
        let s = VertexSketch::new(8, 3, SEED);
        assert_eq!(s.sample(), EdgeSample::Empty);
        assert!(s.is_empty_cut());
    }

    #[test]
    fn single_incident_edge_sampled() {
        let e = Edge::new(2, 6);
        let mut s = VertexSketch::new(8, 2, SEED);
        s.insert_edge(e);
        assert_eq!(s.sample(), EdgeSample::Edge(e));
    }

    #[test]
    fn deletion_cancels_insertion() {
        let e = Edge::new(1, 4);
        let mut s = VertexSketch::new(8, 4, SEED);
        s.insert_edge(e);
        s.delete_edge(e);
        assert_eq!(s.sample(), EdgeSample::Empty);
    }

    #[test]
    fn internal_edges_cancel_in_set_sketch() {
        // Component {0,1,2} as a triangle plus one outgoing edge to 5.
        let n = 8;
        let edges = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(2, 5),
        ];
        let sketches = sketch_all(n, &edges);
        let mut set = sketches[0].clone();
        set.merge(&sketches[1]);
        set.merge(&sketches[2]);
        // The only cut edge of {0,1,2} is {2,5}.
        assert_eq!(set.sample(), EdgeSample::Edge(Edge::new(2, 5)));
    }

    #[test]
    fn saturated_component_reports_empty_cut() {
        let n = 6;
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 0)];
        let sketches = sketch_all(n, &edges);
        let mut set = sketches[0].clone();
        set.merge(&sketches[1]);
        set.merge(&sketches[2]);
        assert_eq!(set.sample(), EdgeSample::Empty);
    }

    #[test]
    fn sampled_edge_always_crosses_the_cut() {
        let mut rng = StdRng::seed_from_u64(31337);
        let n = 32;
        let mut hits = 0;
        for trial in 0..100u64 {
            // Random graph + random vertex set A.
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.1) {
                        edges.push(Edge::new(a, b));
                    }
                }
            }
            let in_a: Vec<bool> = (0..n).map(|_| rng.gen_bool(0.5)).collect();
            let mut sketches: Vec<VertexSketch> = (0..n as u32)
                .map(|v| VertexSketch::new(n, v, trial))
                .collect();
            for &e in &edges {
                sketches[e.u() as usize].insert_edge(e);
                sketches[e.v() as usize].insert_edge(e);
            }
            let members: Vec<u32> = (0..n as u32).filter(|&v| in_a[v as usize]).collect();
            if members.is_empty() {
                continue;
            }
            let mut set = sketches[members[0] as usize].clone();
            for &v in &members[1..] {
                set.merge(&sketches[v as usize]);
            }
            let cut: Vec<Edge> = edges
                .iter()
                .copied()
                .filter(|e| in_a[e.u() as usize] != in_a[e.v() as usize])
                .collect();
            match set.sample() {
                EdgeSample::Edge(e) => {
                    assert!(cut.contains(&e), "sampled {e} not in cut (trial {trial})");
                    hits += 1;
                }
                EdgeSample::Empty => {
                    assert!(cut.is_empty(), "cut nonempty but reported empty");
                }
                EdgeSample::Fail => {}
            }
        }
        assert!(hits > 40, "too few successful samples: {hits}");
    }

    #[test]
    fn spanning_forest_via_boruvka_on_sketches() {
        // End-to-end AGM property: one Borůvka pass per fresh sketch
        // family connects a path graph.
        let n = 16usize;
        let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
        let mut uf = UnionFind::new(n);
        // Up to log2(n) passes with fresh seeds.
        for pass in 0..10u64 {
            if uf.component_count() == 1 {
                break;
            }
            let mut sketches: Vec<VertexSketch> = (0..n as u32)
                .map(|v| VertexSketch::new(n, v, 1000 + pass))
                .collect();
            for &e in &edges {
                sketches[e.u() as usize].insert_edge(e);
                sketches[e.v() as usize].insert_edge(e);
            }
            // Merge per current component, query, union.
            let mut comp_sketch: std::collections::BTreeMap<u32, VertexSketch> = Default::default();
            for v in 0..n as u32 {
                let root = uf.find(v);
                comp_sketch
                    .entry(root)
                    .and_modify(|s| s.merge(&sketches[v as usize]))
                    .or_insert_with(|| sketches[v as usize].clone());
            }
            for (_, s) in comp_sketch {
                if let EdgeSample::Edge(e) = s.sample() {
                    uf.union(e.u(), e.v());
                }
            }
        }
        assert_eq!(uf.component_count(), 1, "Borůvka over sketches connected");
    }

    #[test]
    #[should_panic(expected = "not incident")]
    fn foreign_edge_panics() {
        let mut s = VertexSketch::new(8, 0, SEED);
        s.insert_edge(Edge::new(1, 2));
    }

    #[test]
    fn parallel_edges_accumulate_multiplicity() {
        // The paper's parallel-edge remark: inserting the same edge
        // twice yields coordinate ±2, recovered with multiplicity.
        let n = 16;
        let e = Edge::new(3, 5);
        let mut s = VertexSketch::new(n, 3, SEED);
        s.insert_edge(e);
        s.insert_edge(e);
        assert_eq!(s.sample_multigraph(), Some((e, 2)));
        // The simple-graph sampler correctly refuses the coordinate.
        assert_eq!(s.sample(), EdgeSample::Fail);
        // Deleting one copy leaves a simple edge again.
        s.delete_edge(e);
        assert_eq!(s.sample(), EdgeSample::Edge(e));
        assert_eq!(s.sample_multigraph(), Some((e, 1)));
        // Deleting the last copy empties the cut.
        s.delete_edge(e);
        assert!(s.is_empty_cut());
        assert_eq!(s.sample_multigraph(), None);
    }

    #[test]
    fn parallel_internal_edges_cancel_in_set_sketches() {
        // A doubled internal edge cancels (+2 meets -2); a doubled
        // cut edge survives with multiplicity 2.
        let n = 16;
        let internal = Edge::new(1, 2);
        let cut = Edge::new(2, 9);
        let mut s1 = VertexSketch::new(n, 1, SEED);
        let mut s2 = VertexSketch::new(n, 2, SEED);
        for _ in 0..2 {
            s1.insert_edge(internal);
            s2.insert_edge(internal);
            s2.insert_edge(cut);
        }
        s1.merge(&s2);
        assert_eq!(s1.sample_multigraph(), Some((cut, 2)));
    }
}
