//! The sequential streaming algorithm of the paper's Section 4 —
//! the reference the MPC implementation is derived from.
//!
//! `Connectivity` (Algorithm 1) maintains, in `O(n log³ n)` bits:
//!
//! * a component-id array `C` (Algorithm 1 line 1),
//! * an explicit spanning forest `F` (stored here as adjacency
//!   lists — the MPC version replaces this with Euler tours),
//! * one AGM sketch per vertex (`Insert`/`Delete` update them,
//!   Algorithms 2–3).
//!
//! Updates take `Õ(n)` sequential time (the paper's Section 2.1
//! comparison against AGM's polylog update / `O(log n)`-round query:
//! this structure trades update time for *instant* queries). The MPC
//! batch algorithm in [`crate::connectivity`] is the distributed
//! version of exactly this structure; the test suite cross-checks the
//! two on identical streams.

use crate::connectivity::invalid_update;
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Update;
use mpc_sim::MpcStreamError;
use mpc_sketch::cascade;
use mpc_sketch::vertex::EdgeSample;
use mpc_sketch::SketchBank;
use std::collections::{BTreeSet, VecDeque};

/// The Section 4 streaming connectivity structure
/// (Algorithms 1–4 of the paper).
///
/// # Examples
///
/// ```
/// use mpc_stream_core::streaming::StreamingConnectivity;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Update;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut sc = StreamingConnectivity::new(8, 42);
/// sc.apply(Update::Insert(Edge::new(0, 1)))?;
/// sc.apply(Update::Insert(Edge::new(1, 2)))?;
/// assert_eq!(sc.component_of(2), 0);
/// sc.apply(Update::Delete(Edge::new(0, 1)))?;
/// assert!(!sc.connected(0, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct StreamingConnectivity {
    n: usize,
    comp: Vec<VertexId>,
    /// Spanning-forest adjacency (the paper stores `F` explicitly).
    forest: Vec<BTreeSet<VertexId>>,
    /// Number of edges in `forest`, kept on link and cut so
    /// [`StreamingConnectivity::words`] needs no walk. Derived state:
    /// never persisted, recounted on restore.
    forest_edges: usize,
    bank: SketchBank,
    live: BTreeSet<Edge>,
}

impl StreamingConnectivity {
    /// Creates the structure for an empty `n`-vertex graph. Keeps
    /// `Θ(log n)` independent sketches per vertex as the batch
    /// version does (Section 6.3's strengthening of the single-sketch
    /// Section 4 structure).
    pub fn new(n: usize, seed: u64) -> Self {
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1) as usize;
        StreamingConnectivity {
            n,
            comp: (0..n as u32).collect(),
            forest: vec![BTreeSet::new(); n],
            forest_edges: 0,
            bank: SketchBank::new(n, log_n + 6, seed),
            live: BTreeSet::new(),
        }
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Number of live edges (the structure itself stores only
    /// `Õ(n)` of state; this count is maintained for diagnostics).
    pub fn live_edge_count(&self) -> usize {
        self.live.len()
    }

    /// Component id of `v` (minimum member id) — `O(1)`, Algorithm 4.
    pub fn component_of(&self, v: VertexId) -> VertexId {
        self.comp[v as usize]
    }

    /// Whether two vertices are connected — `O(1)`.
    pub fn connected(&self, u: VertexId, v: VertexId) -> bool {
        self.comp[u as usize] == self.comp[v as usize]
    }

    /// The full component labelling (index = vertex), matching
    /// [`Connectivity::component_labels`](crate::Connectivity::component_labels).
    pub fn component_labels(&self) -> &[VertexId] {
        &self.comp
    }

    /// The maintained spanning forest (Algorithm 4 `Query`).
    pub fn spanning_forest(&self) -> Vec<Edge> {
        let mut out = Vec::new();
        for u in 0..self.n as u32 {
            for &v in &self.forest[u as usize] {
                if u < v {
                    out.push(Edge::new(u, v));
                }
            }
        }
        out
    }

    /// Memory footprint in words: `C`, `F`, and the sketches —
    /// `O(n log³ n)` (paper Lemma 4.1). `O(1)`: the forest-edge count
    /// is kept on link and cut.
    pub fn words(&self) -> u64 {
        self.n as u64 + 2 * self.forest_edges as u64 + self.bank.words()
    }

    /// Adds `{u, v}` to `F`.
    fn link(&mut self, u: VertexId, v: VertexId) {
        if self.forest[u as usize].insert(v) {
            self.forest[v as usize].insert(u);
            self.forest_edges += 1;
        }
    }

    /// Removes `{u, v}` from `F`.
    fn cut(&mut self, u: VertexId, v: VertexId) {
        if self.forest[u as usize].remove(&v) {
            self.forest[v as usize].remove(&u);
            self.forest_edges -= 1;
        }
    }

    /// Vertices of the forest tree containing `v` (the set `Z_v` of
    /// Algorithm 3), by BFS over the stored forest.
    fn tree_of(&self, v: VertexId) -> Vec<VertexId> {
        let mut seen = BTreeSet::from([v]);
        let mut queue = VecDeque::from([v]);
        let mut out = vec![v];
        while let Some(x) = queue.pop_front() {
            for &y in &self.forest[x as usize] {
                if seen.insert(y) {
                    out.push(y);
                    queue.push_back(y);
                }
            }
        }
        out
    }

    fn relabel(&mut self, members: &[VertexId]) {
        // Relabeling an empty component is a no-op, not an abort.
        let Some(&min) = members.iter().min() else {
            return;
        };
        for &w in members {
            self.comp[w as usize] = min;
        }
    }

    /// Applies one update (Algorithms 2 and 3). `Õ(n)` time in the
    /// worst case (component relabel / sketch merge).
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::InvalidBatch`] on contract violations.
    pub fn apply(&mut self, update: Update) -> Result<(), MpcStreamError> {
        match update {
            Update::Insert(e) => self.insert(e),
            Update::Delete(e) => self.delete(e),
        }
    }

    /// Algorithm 2 (`Insert`).
    fn insert(&mut self, e: Edge) -> Result<(), MpcStreamError> {
        if !self.live.insert(e) {
            return Err(invalid_update(e));
        }
        self.bank.insert_edge(e);
        let (u, v) = e.endpoints();
        if self.comp[u as usize] != self.comp[v as usize] {
            // Line 6: {u,v} joins F; merge component ids (lines 7–9).
            self.link(u, v);
            let members = self.tree_of(u);
            self.relabel(&members);
        }
        Ok(())
    }

    /// Algorithm 3 (`Delete`).
    fn delete(&mut self, e: Edge) -> Result<(), MpcStreamError> {
        if !self.live.remove(&e) {
            return Err(invalid_update(e));
        }
        self.bank.delete_edge(e);
        let (u, v) = e.endpoints();
        if !self.forest[u as usize].contains(&v) {
            return Ok(()); // non-tree edge: nothing else to do
        }
        // Split F along {u,v} (lines 6–7) and search for a
        // replacement by merging Z_u's sketches (line 8), retrying
        // across the independent copies until one is not `Fail`.
        self.cut(u, v);
        let z_u = self.tree_of(u);
        let mut scratch = self.bank.new_scratch();
        let outcome = (0..self.bank.copies())
            .map(|copy| {
                cascade::probe(&self.bank, &mut scratch, copy, |s| {
                    self.bank.merge_copy_into(&z_u, s);
                })
            })
            .find(|&sample| sample != EdgeSample::Fail);
        if let Some(EdgeSample::Edge(r)) = outcome {
            // Line 15: add {a,b} to F; component ids unchanged.
            self.link(r.u(), r.v());
        } else {
            // Lines 11–12: the component splits; relabel each side.
            let z_u = self.tree_of(u);
            let z_v = self.tree_of(v);
            self.relabel(&z_u);
            self.relabel(&z_v);
        }
        Ok(())
    }
}

// ----- snapshot persistence ---------------------------------------

// By hand: `forest_edges` is derived, so it is recounted on load
// instead of saved, and the snapshot bytes do not depend on it.
impl mpc_snapshot::Persist for StreamingConnectivity {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        self.n.save(w);
        self.comp.save(w);
        self.forest.save(w);
        self.bank.save(w);
        self.live.save(w);
    }

    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let n = usize::load(r)?;
        let comp = Vec::load(r)?;
        let forest: Vec<BTreeSet<VertexId>> = Vec::load(r)?;
        let bank = SketchBank::load(r)?;
        let live = BTreeSet::load(r)?;
        if comp.len() != n || forest.len() != n {
            return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "streaming-connectivity tables cover {}/{} of {n} vertices",
                comp.len(),
                forest.len(),
            )));
        }
        let forest_edges = (0..)
            .zip(&forest)
            .map(|(u, adj): (VertexId, _)| adj.range(u + 1..).count())
            .sum();
        Ok(StreamingConnectivity {
            n,
            comp,
            forest,
            forest_edges,
            bank,
            live,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_graph::oracle;

    fn check(sc: &StreamingConnectivity, live: &[Edge], n: usize) {
        let expect = oracle::components(n, live.iter().copied());
        assert_eq!(sc.comp, expect, "labels diverged");
        let forest = sc.spanning_forest();
        let mut uf = oracle::UnionFind::new(n);
        for e in &forest {
            assert!(live.contains(e), "forest edge {e} not live");
            assert!(uf.union(e.u(), e.v()), "forest cycle at {e}");
        }
        assert_eq!(
            uf.component_count(),
            oracle::component_count(n, live.iter().copied())
        );
    }

    #[test]
    fn insert_path_and_cycle() {
        let n = 8;
        let mut sc = StreamingConnectivity::new(n, 1);
        let mut live = Vec::new();
        for i in 0..7u32 {
            let e = Edge::new(i, i + 1);
            sc.apply(Update::Insert(e)).unwrap();
            live.push(e);
            check(&sc, &live, n);
        }
        let closing = Edge::new(0, 7);
        sc.apply(Update::Insert(closing)).unwrap();
        live.push(closing);
        check(&sc, &live, n);
    }

    #[test]
    fn delete_with_and_without_replacement() {
        let n = 6;
        let mut sc = StreamingConnectivity::new(n, 2);
        let tri = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        for e in tri {
            sc.apply(Update::Insert(e)).unwrap();
        }
        // Delete a tree edge: replacement via the third edge.
        let forest = sc.spanning_forest();
        sc.apply(Update::Delete(forest[0])).unwrap();
        assert!(sc.connected(0, 2));
        let live: Vec<Edge> = tri.iter().copied().filter(|&e| e != forest[0]).collect();
        check(&sc, &live, n);
        // Delete both remaining: full split.
        for e in &live {
            sc.apply(Update::Delete(*e)).unwrap();
        }
        check(&sc, &[], n);
        assert!(!sc.connected(0, 1));
    }

    #[test]
    fn random_stream_matches_oracle_and_mpc_version() {
        use crate::{Connectivity, ConnectivityConfig};
        use mpc_sim::{MpcConfig, MpcContext};
        let n = 40;
        let stream = gen::random_mixed_stream(n, 12, 6, 0.7, 77);
        let snaps = stream.replay();
        let mut sc = StreamingConnectivity::new(n, 3);
        let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build());
        let mut mpc = Connectivity::new(n, ConnectivityConfig::default(), 3);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            for u in batch.iter() {
                sc.apply(u).unwrap();
            }
            mpc.apply_batch(batch, &mut ctx).unwrap();
            let live: Vec<Edge> = snap.edges().collect();
            check(&sc, &live, n);
            // The two implementations agree exactly on the labelling.
            assert_eq!(sc.comp, mpc.component_labels());
        }
    }

    #[test]
    fn invalid_updates_rejected() {
        let mut sc = StreamingConnectivity::new(4, 4);
        let e = Edge::new(0, 1);
        assert!(sc.apply(Update::Delete(e)).is_err());
        sc.apply(Update::Insert(e)).unwrap();
        assert!(sc.apply(Update::Insert(e)).is_err());
        assert_eq!(sc.live_edge_count(), 1);
        assert!(sc.words() > 0);
    }

    /// The count-based `words` against a walk of the forest.
    fn assert_words_match_walk(sc: &StreamingConnectivity) {
        let walked = sc.n as u64 + 2 * sc.spanning_forest().len() as u64 + sc.bank.words();
        assert_eq!(
            sc.words(),
            walked,
            "forest-edge count drifted from the walk"
        );
    }

    #[test]
    fn words_match_the_forest_walk_through_churn_and_restore() {
        use mpc_snapshot::{load_section, save_section, Snapshot, SnapshotWriter};
        let n = 40;
        let stream = gen::random_mixed_stream(n, 16, 8, 0.6, 31);
        let mut sc = StreamingConnectivity::new(n, 6);
        let mut deleted_tree_edge = false;
        for (i, batch) in stream.batches.iter().enumerate() {
            for u in batch.iter() {
                let before = sc.spanning_forest();
                sc.apply(u).unwrap();
                deleted_tree_edge |= !u.is_insert() && before.contains(&u.edge());
                assert_words_match_walk(&sc);
            }
            if i % 4 == 3 {
                let mut w = SnapshotWriter::new(0);
                save_section(&mut w, "sc", &sc);
                let bytes = w.finish();
                sc = load_section(&Snapshot::from_bytes(&bytes).unwrap(), "sc").unwrap();
                assert_words_match_walk(&sc);
                let mut again = SnapshotWriter::new(0);
                save_section(&mut again, "sc", &sc);
                assert_eq!(again.finish(), bytes, "save → load → save is byte-stable");
            }
        }
        assert!(deleted_tree_edge, "the stream must cut forest edges");
    }

    #[test]
    fn star_churn() {
        let n = 12;
        let mut sc = StreamingConnectivity::new(n, 5);
        let spokes: Vec<Edge> = (1..n as u32).map(|i| Edge::new(0, i)).collect();
        for &e in &spokes {
            sc.apply(Update::Insert(e)).unwrap();
        }
        check(&sc, &spokes, n);
        for (i, &e) in spokes.iter().enumerate() {
            sc.apply(Update::Delete(e)).unwrap();
            let live: Vec<Edge> = spokes[i + 1..].to_vec();
            check(&sc, &live, n);
        }
    }
    #[test]
    fn streaming_reference_agrees_with_mpc_implementation() {
        // The Section 4 sequential algorithm and the Section 6 MPC
        // implementation are the same algorithm at different layers:
        // their maintained labellings must coincide on any stream.
        use crate::connectivity::{Connectivity, ConnectivityConfig};
        use mpc_sim::{MpcConfig, MpcContext};
        let n = 48;
        let stream = gen::random_mixed_stream(n, 8, 10, 0.6, 909);
        let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 15).build());
        let mut sc = StreamingConnectivity::new(n, 1);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 2);
        for batch in &stream.batches {
            for u in batch.iter() {
                sc.apply(u).expect("valid stream");
            }
            conn.apply_batch(batch, &mut ctx).expect("valid stream");
            assert_eq!(sc.component_labels(), conn.component_labels());
            assert_eq!(sc.spanning_forest().len(), conn.spanning_forest().len());
        }
    }
}
