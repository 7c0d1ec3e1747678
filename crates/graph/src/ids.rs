//! Vertex and edge identifiers.
//!
//! Vertices are dense `u32` ids in `[0, n)`, matching the paper's
//! fixed vertex set `V = {v_1, …, v_n}` (Section 1.2). Edges are
//! stored normalized (`u < v`) so `{u, v}` and `{v, u}` compare equal,
//! and every edge has a canonical `u64` *index* into the
//! `binom{n}{2}`-dimensional vector space the AGM sketches operate on
//! (Section 3.1).

/// A vertex identifier: a dense index in `[0, n)`.
pub type VertexId = u32;

/// An undirected, unweighted edge, stored normalized with
/// `u() < v()`.
///
/// # Examples
///
/// ```
/// use mpc_graph::ids::Edge;
///
/// assert_eq!(Edge::new(5, 2), Edge::new(2, 5));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    u: VertexId,
    v: VertexId,
}

impl Edge {
    /// Creates a normalized edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops (`u == v`); the model's graphs are simple.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — graphs are simple, a self-loop is a caller bug"
    )]
    pub fn new(a: VertexId, b: VertexId) -> Self {
        assert!(a != b, "self-loop {{{a},{a}}} is not a valid edge");
        if a < b {
            Edge { u: a, v: b }
        } else {
            Edge { u: b, v: a }
        }
    }

    /// The smaller endpoint.
    #[inline]
    pub fn u(self) -> VertexId {
        self.u
    }

    /// The larger endpoint.
    #[inline]
    pub fn v(self) -> VertexId {
        self.v
    }

    /// Both endpoints, smaller first.
    #[inline]
    pub fn endpoints(self) -> (VertexId, VertexId) {
        (self.u, self.v)
    }

    /// Given one endpoint, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint of this edge.
    #[inline]
    #[expect(
        clippy::panic,
        reason = "documented \"# Panics\" precondition — asking a non-endpoint for its other end is a caller bug"
    )]
    pub fn other(self, x: VertexId) -> VertexId {
        if x == self.u {
            self.v
        } else if x == self.v {
            self.u
        } else {
            panic!("vertex {x} is not an endpoint of {self}");
        }
    }

    /// Whether `x` is one of the two endpoints.
    #[inline]
    pub fn touches(self, x: VertexId) -> bool {
        x == self.u || x == self.v
    }

    /// The canonical index of this edge in the `binom{n}{2}`-
    /// dimensional edge space of an `n`-vertex graph: `u * n + v`.
    ///
    /// This is the coordinate the sketch vectors `X_v` use
    /// (paper Section 3.1). The encoding is injective for `u < v < n`
    /// and fits in a `u64` for all practical `n`.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub fn index(self, n: usize) -> u64 {
        debug_assert!((self.v as usize) < n, "edge {self} out of range for n={n}");
        self.u as u64 * n as u64 + self.v as u64
    }

    /// Inverse of [`Edge::index`].
    ///
    /// # Panics
    ///
    /// Panics if the index does not decode to a normalized edge.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — a non-decoding index is a caller bug"
    )]
    pub fn from_index(index: u64, n: usize) -> Self {
        let u = (index / n as u64) as VertexId;
        let v = (index % n as u64) as VertexId;
        assert!(u < v, "index {index} does not decode to a normalized edge");
        Edge { u, v }
    }
}

mpc_snapshot::persist_struct!(Edge { u, v } check |e| if e.u < e.v {
    Ok(())
} else {
    Err(format!("edge ({},{}) is not normalized", e.u, e.v))
});

impl std::fmt::Display for Edge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{{},{}}}", self.u, self.v)
    }
}

/// An undirected edge with a weight, normalized like [`Edge`].
///
/// Weights are `u64`; the paper assumes weights in `[1, W]` with
/// `W = poly(n)` (Section 7.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WeightedEdge {
    /// The underlying edge.
    pub edge: Edge,
    /// The edge weight.
    pub weight: u64,
}

impl WeightedEdge {
    /// Creates a normalized weighted edge.
    ///
    /// # Panics
    ///
    /// Panics on self-loops.
    #[inline]
    pub fn new(a: VertexId, b: VertexId, weight: u64) -> Self {
        WeightedEdge {
            edge: Edge::new(a, b),
            weight,
        }
    }
}

mpc_snapshot::persist_struct!(WeightedEdge { edge, weight });

impl From<WeightedEdge> for Edge {
    fn from(w: WeightedEdge) -> Edge {
        w.edge
    }
}

impl std::fmt::Display for WeightedEdge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}#{}", self.edge, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edges_normalize() {
        let e = Edge::new(9, 3);
        assert_eq!(e.u(), 3);
        assert_eq!(e.v(), 9);
        assert_eq!(e, Edge::new(3, 9));
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_panics() {
        let _ = Edge::new(4, 4);
    }

    #[test]
    fn other_endpoint() {
        let e = Edge::new(1, 2);
        assert_eq!(e.other(1), 2);
        assert_eq!(e.other(2), 1);
        assert!(e.touches(1) && e.touches(2) && !e.touches(3));
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn other_of_non_endpoint_panics() {
        let _ = Edge::new(1, 2).other(5);
    }

    #[test]
    fn index_roundtrip() {
        let n = 100;
        for (a, b) in [(0u32, 1u32), (0, 99), (42, 43), (7, 77)] {
            let e = Edge::new(a, b);
            assert_eq!(Edge::from_index(e.index(n), n), e);
        }
    }

    #[test]
    fn index_is_injective_small() {
        let n = 20;
        let mut seen = std::collections::BTreeSet::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                assert!(seen.insert(Edge::new(a, b).index(n)));
            }
        }
    }

    #[test]
    fn weighted_edge_normalizes_and_displays() {
        let w = WeightedEdge::new(8, 2, 17);
        assert_eq!(w.edge, Edge::new(2, 8));
        assert_eq!(format!("{w}"), "{2,8}#17");
        let e: Edge = w.into();
        assert_eq!(e, Edge::new(2, 8));
    }
}
