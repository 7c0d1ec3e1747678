//! The sparse `k`-edge-connectivity certificate and its query
//! surface.
//!
//! A [`Certificate`] is the layered forest decomposition
//! `F_1, …, F_k` described in the crate docs. It is produced by
//! [`crate::InsertOnlyKConn`] (maintained explicitly) and
//! [`crate::DynamicKConn`] (peeled from sketches at query time), and
//! answers cut questions **up to size `k`** exactly.

use mpc_graph::cuts;
use mpc_graph::ids::Edge;
use mpc_graph::oracle::UnionFind;

/// The answer of [`Certificate::min_cut`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MinCut {
    /// The global minimum cut of the underlying graph is exactly this
    /// value (it is below the certificate's resolution `k`).
    Exact(u64),
    /// Every cut of the underlying graph has at least `k` edges; the
    /// certificate cannot resolve the cut value further.
    AtLeast(u64),
}

impl std::fmt::Display for MinCut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MinCut::Exact(v) => write!(f, "min cut = {v}"),
            MinCut::AtLeast(k) => write!(f, "min cut >= {k}"),
        }
    }
}

/// A `k`-edge-connectivity certificate of an `n`-vertex graph: `k`
/// edge-disjoint forests whose union preserves all cuts up to size
/// `k`.
///
/// # Examples
///
/// ```
/// use mpc_kconn::Certificate;
/// use mpc_graph::ids::Edge;
///
/// // Hand-built certificate of a triangle with k = 2.
/// let cert = Certificate::from_layers(
///     3,
///     vec![
///         vec![Edge::new(0, 1), Edge::new(1, 2)], // F_1: spanning tree
///         vec![Edge::new(0, 2)],                  // F_2: the leftover
///     ],
/// );
/// assert_eq!(cert.edge_count(), 3);
/// assert_eq!(cert.is_k_edge_connected(2), Some(true));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Certificate {
    n: usize,
    layers: Vec<Vec<Edge>>,
}

impl Certificate {
    /// Wraps explicit forest layers. `layers.len()` becomes `k`.
    ///
    /// The layers are *trusted*; use [`Certificate::validate`] to
    /// check the structural invariants in tests.
    pub fn from_layers(n: usize, layers: Vec<Vec<Edge>>) -> Self {
        Certificate { n, layers }
    }

    /// Number of vertices of the underlying graph.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The certificate's resolution: cuts of size `< k` are preserved
    /// exactly.
    pub fn k(&self) -> usize {
        self.layers.len()
    }

    /// The forest layers `F_1, …, F_k`.
    pub fn layers(&self) -> &[Vec<Edge>] {
        &self.layers
    }

    /// All certificate edges (the union of the layers). The layers
    /// are edge-disjoint, so no deduplication is performed.
    pub fn edges(&self) -> Vec<Edge> {
        self.layers.iter().flatten().copied().collect()
    }

    /// Number of certificate edges; at most `k (n-1)`.
    pub fn edge_count(&self) -> usize {
        self.layers.iter().map(Vec::len).sum()
    }

    /// Memory footprint in words (two words per edge).
    pub fn words(&self) -> u64 {
        2 * self.edge_count() as u64
    }

    /// Whether the underlying graph is `j`-edge-connected.
    ///
    /// Returns `None` when `j > k`: the certificate only preserves
    /// cuts up to size `k`, so the question is outside its
    /// resolution.
    ///
    /// # Performance
    ///
    /// `O(n + m)` for `j ≤ 2`; a Stoer–Wagner over the certificate,
    /// `O(n³)` time and `n²` words, for `j ≥ 3` (see
    /// [`cuts::edge_connectivity_capped`]).
    pub fn is_k_edge_connected(&self, j: u64) -> Option<bool> {
        if j == 0 {
            return Some(true);
        }
        if j > self.k() as u64 {
            return None;
        }
        Some(cuts::edge_connectivity_capped(self.n, &self.edges(), j) >= j)
    }

    /// The global minimum cut of the underlying graph, exactly if it
    /// is below `k` and as the lower bound `AtLeast(k)` otherwise.
    ///
    /// # Performance
    ///
    /// `O(n + m)` for `k ≤ 2`: disconnected is `Exact(0)`, a bridge is
    /// `Exact(1)`, anything else `AtLeast(k)`. For `k ≥ 3` it runs a
    /// Stoer–Wagner over the certificate, `O(n³)` time and `n²` words
    /// (see [`cuts::edge_connectivity_capped`]).
    pub fn min_cut(&self) -> MinCut {
        let lambda = cuts::edge_connectivity_capped(self.n, &self.edges(), self.k() as u64);
        if lambda < self.k() as u64 {
            MinCut::Exact(lambda)
        } else {
            MinCut::AtLeast(self.k() as u64)
        }
    }

    /// The size of the cut `(A, V∖A)` in the underlying graph,
    /// exactly if it is below `k` and as `AtLeast(k)` otherwise.
    ///
    /// This works for *arbitrary* vertex sets `A` because the
    /// certificate preserves every cut up to size `k`:
    /// `|E_cert(A)| ≥ min(|E_G(A)|, k)` while `E_cert ⊆ E_G`, so the
    /// truncated values coincide. Vertices outside `[0, n)` are
    /// ignored.
    ///
    /// # Examples
    ///
    /// ```
    /// use mpc_kconn::{Certificate, MinCut};
    /// use mpc_graph::ids::Edge;
    ///
    /// let cert = Certificate::from_layers(
    ///     4,
    ///     vec![vec![Edge::new(0, 1), Edge::new(2, 3)], vec![]],
    /// );
    /// assert_eq!(cert.cut_between(&[0, 1]), MinCut::Exact(0));
    /// assert_eq!(cert.cut_between(&[0]), MinCut::Exact(1));
    /// ```
    pub fn cut_between(&self, a: &[u32]) -> MinCut {
        let mut in_a = vec![false; self.n];
        for &v in a {
            if (v as usize) < self.n {
                in_a[v as usize] = true;
            }
        }
        let crossing = self
            .layers
            .iter()
            .flatten()
            .filter(|e| in_a[e.u() as usize] != in_a[e.v() as usize])
            .count() as u64;
        if crossing < self.k() as u64 {
            MinCut::Exact(crossing)
        } else {
            MinCut::AtLeast(self.k() as u64)
        }
    }

    /// The bridges of the underlying graph.
    ///
    /// Returns `None` when `k < 2`: a 1-layer certificate is just a
    /// spanning forest, in which *every* edge looks like a bridge.
    /// For `k ≥ 2` the certificate preserves all cuts of size ≤ 2, so
    /// its bridges coincide with the graph's.
    pub fn bridges(&self) -> Option<Vec<Edge>> {
        if self.k() < 2 {
            return None;
        }
        Some(cuts::bridges(self.n, &self.edges()))
    }

    /// Component labels induced by layer `F_1` (a maximal spanning
    /// forest of the underlying graph): smallest vertex id per
    /// component.
    pub fn component_labels(&self) -> Vec<u32> {
        let mut uf = UnionFind::new(self.n);
        if let Some(first) = self.layers.first() {
            for e in first {
                uf.union(e.u(), e.v());
            }
        }
        uf.min_labels()
    }

    /// Checks the structural invariants: every layer is a forest, the
    /// layers are pairwise edge-disjoint, and each layer connects no
    /// pair that the previous layer left connected-but-unlinked
    /// incorrectly (i.e. layer `i+1` never contains an edge both of
    /// whose endpoints are in *different* components of layer `i` —
    /// such an edge should have been absorbed by layer `i`).
    ///
    /// Returns a human-readable description of the first violation.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = std::collections::BTreeSet::new();
        for (i, layer) in self.layers.iter().enumerate() {
            let mut uf = UnionFind::new(self.n);
            for e in layer {
                if !seen.insert(*e) {
                    return Err(format!("edge {e:?} appears in two layers (second: F_{i})"));
                }
                if !uf.union(e.u(), e.v()) {
                    return Err(format!("layer F_{i} is not a forest: {e:?} closes a cycle"));
                }
            }
        }
        // Maximality chain: an edge in layer i+1 must close a cycle in
        // layer i (otherwise layer i was not maximal when it arrived;
        // for the insert-only cascade this holds for the *final*
        // forests too, because layer membership only grows).
        for i in 0..self.layers.len().saturating_sub(1) {
            let mut uf = UnionFind::new(self.n);
            for e in &self.layers[i] {
                uf.union(e.u(), e.v());
            }
            for e in &self.layers[i + 1] {
                if !uf.connected(e.u(), e.v()) {
                    return Err(format!(
                        "edge {e:?} in F_{} crosses components of F_{i}",
                        i + 1
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    fn triangle_cert() -> Certificate {
        Certificate::from_layers(3, vec![vec![e(0, 1), e(1, 2)], vec![e(0, 2)]])
    }

    #[test]
    fn accessors_report_shape() {
        let c = triangle_cert();
        assert_eq!(c.vertex_count(), 3);
        assert_eq!(c.k(), 2);
        assert_eq!(c.edge_count(), 3);
        assert_eq!(c.words(), 6);
        assert_eq!(c.layers().len(), 2);
        assert_eq!(c.edges().len(), 3);
    }

    #[test]
    fn zero_connectivity_is_always_true() {
        let empty = Certificate::from_layers(4, vec![vec![], vec![]]);
        assert_eq!(empty.is_k_edge_connected(0), Some(true));
        assert_eq!(empty.is_k_edge_connected(1), Some(false));
    }

    #[test]
    fn questions_beyond_resolution_are_refused() {
        let c = triangle_cert();
        assert_eq!(c.is_k_edge_connected(3), None);
        assert_eq!(c.is_k_edge_connected(2), Some(true));
    }

    #[test]
    fn min_cut_exact_below_k() {
        // A path certificate with k = 2: min cut 1 < k, exact.
        let c = Certificate::from_layers(3, vec![vec![e(0, 1), e(1, 2)], vec![]]);
        assert_eq!(c.min_cut(), MinCut::Exact(1));
    }

    #[test]
    fn min_cut_saturates_at_k() {
        let c = triangle_cert();
        assert_eq!(c.min_cut(), MinCut::AtLeast(2));
        assert_eq!(format!("{}", c.min_cut()), "min cut >= 2");
        assert_eq!(format!("{}", MinCut::Exact(1)), "min cut = 1");
    }

    #[test]
    fn bridges_require_k_at_least_two() {
        let k1 = Certificate::from_layers(3, vec![vec![e(0, 1), e(1, 2)]]);
        assert_eq!(k1.bridges(), None);
        let c = triangle_cert();
        assert_eq!(c.bridges(), Some(vec![]));
    }

    #[test]
    fn component_labels_come_from_first_layer() {
        let c = Certificate::from_layers(4, vec![vec![e(0, 1)], vec![]]);
        assert_eq!(c.component_labels(), vec![0, 0, 2, 3]);
        let empty = Certificate::from_layers(2, vec![]);
        assert_eq!(empty.component_labels(), vec![0, 1]);
    }

    #[test]
    fn validate_accepts_well_formed() {
        assert_eq!(triangle_cert().validate(), Ok(()));
    }

    #[test]
    fn cut_between_truncates_at_k() {
        let c = triangle_cert(); // triangle, k = 2
                                 // {0} has 2 cut edges = k: saturated.
        assert_eq!(c.cut_between(&[0]), MinCut::AtLeast(2));
        // {0,1,2} = V: empty cut.
        assert_eq!(c.cut_between(&[0, 1, 2]), MinCut::Exact(0));
        assert_eq!(c.cut_between(&[]), MinCut::Exact(0));
        // Out-of-range members are ignored.
        assert_eq!(c.cut_between(&[9]), MinCut::Exact(0));
    }

    #[test]
    fn cut_between_matches_oracle_on_random_graphs() {
        use crate::InsertOnlyKConn;
        use mpc_graph::update::Batch;
        use mpc_hashing::rng::StdRng;
        use mpc_sim::{MpcConfig, MpcContext};
        let mut rng = StdRng::seed_from_u64(55);
        let n = 12usize;
        let k = 3usize;
        for trial in 0..20 {
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.4) {
                        edges.push(e(a, b));
                    }
                }
            }
            let mut ctx =
                MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 14).build());
            let mut kc = InsertOnlyKConn::new(n, k);
            for ch in edges.chunks(4) {
                kc.apply_batch(&Batch::inserting(ch.iter().copied()), &mut ctx)
                    .unwrap();
            }
            let cert = kc.certificate();
            // Random vertex subsets: truncated cut must match G's.
            for _ in 0..10 {
                let a: Vec<u32> = (0..n as u32).filter(|_| rng.gen_bool(0.5)).collect();
                let truth = edges
                    .iter()
                    .filter(|ed| a.contains(&ed.u()) != a.contains(&ed.v()))
                    .count() as u64;
                let expect = if truth < k as u64 {
                    MinCut::Exact(truth)
                } else {
                    MinCut::AtLeast(k as u64)
                };
                assert_eq!(cert.cut_between(&a), expect, "trial {trial} A={a:?}");
            }
        }
    }

    /// For `k ≤ 2` the linear-time answers equal the Stoer–Wagner
    /// ones they replace.
    #[test]
    fn small_k_answers_match_stoer_wagner_on_random_graphs() {
        use crate::InsertOnlyKConn;
        use mpc_graph::update::Batch;
        use mpc_hashing::rng::StdRng;
        use mpc_sim::{MpcConfig, MpcContext};
        let mut rng = StdRng::seed_from_u64(404);
        for trial in 0..60 {
            let n = rng.gen_range(2..12usize);
            let p = rng.gen_range(0.1..0.6);
            let edges: Vec<Edge> = (0..n as u32)
                .flat_map(|a| (a + 1..n as u32).map(move |b| e(a, b)))
                .filter(|_| rng.gen_bool(p))
                .collect();
            for k in [1usize, 2] {
                let mut ctx =
                    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 14).build());
                let mut kc = InsertOnlyKConn::new(n, k);
                kc.apply_batch(&Batch::inserting(edges.iter().copied()), &mut ctx)
                    .unwrap();
                let cert = kc.certificate();
                let lambda = cuts::edge_connectivity(n, &cert.edges());
                let expect = if lambda < k as u64 {
                    MinCut::Exact(lambda)
                } else {
                    MinCut::AtLeast(k as u64)
                };
                assert_eq!(cert.min_cut(), expect, "trial {trial} k {k}: {edges:?}");
                for j in 1..=k as u64 {
                    assert_eq!(cert.is_k_edge_connected(j), Some(lambda >= j));
                }
            }
        }
    }

    /// A connected cycle at the benchmark's `n`: Stoer–Wagner's dense
    /// matrix would be `n²` words (2 GiB); the bridge pass answers in
    /// linear time.
    #[test]
    fn large_cycle_certificate_answers_in_linear_time() {
        let n = 16_384u32;
        let path: Vec<Edge> = (0..n - 1).map(|i| e(i, i + 1)).collect();
        let cycle = Certificate::from_layers(n as usize, vec![path.clone(), vec![e(0, n - 1)]]);
        assert_eq!(cycle.min_cut(), MinCut::AtLeast(2));
        assert_eq!(cycle.is_k_edge_connected(2), Some(true));
        let open = Certificate::from_layers(n as usize, vec![path, vec![]]);
        assert_eq!(open.min_cut(), MinCut::Exact(1));
        assert_eq!(open.is_k_edge_connected(2), Some(false));
    }

    #[test]
    fn validate_rejects_cycle_in_layer() {
        let bad = Certificate::from_layers(3, vec![vec![e(0, 1), e(1, 2), e(0, 2)]]);
        assert!(bad.validate().unwrap_err().contains("not a forest"));
    }

    #[test]
    fn validate_rejects_duplicate_across_layers() {
        let bad = Certificate::from_layers(3, vec![vec![e(0, 1)], vec![e(0, 1)]]);
        assert!(bad.validate().unwrap_err().contains("two layers"));
    }

    /// Two violations each; `validate` names the one it meets first,
    /// scanning layers in order and, per edge, the repeat before the
    /// cycle. The messages are pinned verbatim.
    #[test]
    fn validate_reports_the_first_of_two_violations() {
        let cases = [
            // A repeat across layers, then a cycle in the same layer.
            (
                vec![vec![e(0, 1)], vec![e(0, 1), e(2, 3), e(3, 4), e(2, 4)]],
                "edge Edge { u: 0, v: 1 } appears in two layers (second: F_1)",
            ),
            // A cycle, then a repeat in a later layer.
            (
                vec![vec![e(0, 1), e(1, 2), e(0, 2)], vec![e(0, 1)]],
                "layer F_0 is not a forest: Edge { u: 0, v: 2 } closes a cycle",
            ),
            // A repeat inside one layer (which also closes a cycle),
            // then a repeat across layers.
            (
                vec![vec![e(0, 1), e(1, 2), e(0, 1)], vec![e(1, 2)]],
                "edge Edge { u: 0, v: 1 } appears in two layers (second: F_0)",
            ),
        ];
        for (layers, expected) in cases {
            let cert = Certificate::from_layers(5, layers);
            assert_eq!(cert.validate(), Err(expected.to_string()));
        }
    }

    #[test]
    fn validate_rejects_cross_component_edge_in_later_layer() {
        // F_1 leaves {2} isolated, yet F_2 links it: F_1 was not
        // maximal.
        let bad = Certificate::from_layers(3, vec![vec![e(0, 1)], vec![e(1, 2)]]);
        assert!(bad.validate().unwrap_err().contains("crosses components"));
    }
}
