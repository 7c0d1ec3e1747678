//! Per-vertex banks of independent sketch copies.
//!
//! The paper's batch-deletion algorithm (Section 6.3) keeps
//! `t = Θ(log n)` **independent** sketches per vertex and consumes
//! copy `i` only in Borůvka level `i` of the replacement-edge search,
//! so every level queries randomness it has never revealed. The bank
//! manages the `n × t` grid of vertex sketches, lazily materializing
//! columns (a vertex with no incident updates costs nothing) and
//! reporting exact word counts for the MPC memory accounting. The
//! bank stores only `n` and its arena: every word count is derived
//! from the arena's shape (levels, copies, materialized blocks) on
//! demand, so there is no counter to keep in step with the pool and
//! none for a snapshot to contradict.
//!
//! **Storage** is the columnar [`SketchArena`]: one contiguous pool
//! of interleaved one-sparse cells for the whole bank, one
//! [`SketchFamily`](crate::arena::SketchFamily) per copy (the family
//! randomness is seeded once, not once per materialized sketch), and
//! a reusable [`MergeScratch`] accumulator so the Borůvka
//! converge-cast merges component columns without cloning a single
//! sketch. See the [`arena`](crate::arena) module docs for the
//! layout.
//!
//! **Writes** take a whole batch: [`SketchBank::update_edges`] hands
//! `(edge, ±1)` pairs to the arena's batched write, which plans every
//! cell offset in a fixed stack buffer before touching the pool and
//! leaves the cells bit-identical to one-at-a-time writes.
//! [`SketchBank::insert_edge`] / [`SketchBank::delete_edge`] are its
//! one-update case.

use crate::arena::{Cell, MergeScratch, SketchArena};
use crate::l0::L0Sampler;
use crate::vertex::{EdgeSample, VertexSketch};
use mpc_graph::ids::{Edge, VertexId};

/// A bank of `t` independent sketch copies for each of `n` vertices.
///
/// Maintainers write a batch at a time through
/// [`SketchBank::update_edges`]; per-edge callers use
/// [`SketchBank::insert_edge`] / [`SketchBank::delete_edge`], the same
/// write path at batch size one.
///
/// # Examples
///
/// ```
/// use mpc_sketch::bank::SketchBank;
/// use mpc_sketch::vertex::EdgeSample;
/// use mpc_graph::ids::Edge;
///
/// let mut bank = SketchBank::new(16, 3, 99);
/// bank.insert_edge(Edge::new(1, 2));
/// assert_eq!(bank.sample_vertex(1, 0), EdgeSample::Edge(Edge::new(1, 2)));
/// ```
#[derive(Debug, Clone)]
pub struct SketchBank {
    n: usize,
    arena: SketchArena,
}

impl SketchBank {
    /// Creates a bank of `copies` independent sketches per vertex for
    /// an `n`-vertex graph. Copy `i` of every vertex shares seed
    /// `seed + i`, so copies merge across vertices but are independent
    /// across copy indices.
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0` (see [`SketchArena::new`]).
    pub fn new(n: usize, copies: usize, seed: u64) -> Self {
        SketchBank {
            n,
            arena: SketchArena::new(n, copies, (n as u64) * (n as u64), seed),
        }
    }

    /// Number of independent copies per vertex.
    pub fn copies(&self) -> usize {
        self.arena.copies()
    }

    /// Words currently materialized across the whole bank: one full
    /// column per materialized vertex, whatever its cells hold.
    pub fn words(&self) -> u64 {
        self.arena.blocks() as u64 * self.words_per_vertex()
    }

    /// Words one vertex's full sketch column costs when materialized
    /// (all columns have identical shape).
    pub fn words_per_vertex(&self) -> u64 {
        self.words_per_copy() * self.copies() as u64
    }

    /// Words one copy of one vertex's column costs: the message size
    /// of a Borůvka level's converge-cast, which merges one copy. That
    /// is a [`VertexSketch`]'s accounted shape — one cell per level,
    /// the sampler's two header words and the vertex label.
    pub fn words_per_copy(&self) -> u64 {
        self.arena.levels() as u64 * Cell::WORDS + 3
    }

    /// The underlying columnar arena (read-only).
    pub fn arena(&self) -> &SketchArena {
        &self.arena
    }

    /// Records an edge insertion in **both** endpoints' sketch
    /// columns (all copies), one level-hash/fingerprint evaluation
    /// per copy for the pair — the one-update case of
    /// [`SketchBank::update_edges`].
    pub fn insert_edge(&mut self, e: Edge) {
        self.update_edges([(e, 1)]);
    }

    /// Records an edge deletion in both endpoints' sketch columns —
    /// the one-update case of [`SketchBank::update_edges`].
    pub fn delete_edge(&mut self, e: Edge) {
        self.update_edges([(e, -1)]);
    }

    /// Records a batch of edge updates, `(e, +1)` an insertion and
    /// `(e, −1)` a deletion, in both endpoints' columns (all copies).
    /// Endpoints are materialized `e.u()` first, then `e.v()`, in
    /// arrival order, and the cells end bit-identical to applying the
    /// updates one at a time; the write itself plans every cell offset
    /// before touching the pool (see
    /// [`SketchArena::update_columns`]) and allocates nothing beyond a
    /// first touch's column.
    pub fn update_edges(&mut self, updates: impl IntoIterator<Item = (Edge, i64)>) {
        let n = self.n;
        // Sign convention (Lemma 3.3): the larger endpoint carries
        // `+delta` at the edge coordinate, the smaller `-delta`.
        self.arena.update_columns(
            updates
                .into_iter()
                .map(|(e, delta)| (e.index(n), [(e.u(), -delta), (e.v(), delta)])),
        );
    }

    /// Whether vertex `v` has ever been touched by an update.
    pub fn is_materialized(&self, v: VertexId) -> bool {
        self.arena.is_materialized(v)
    }

    /// Samples copy `copy` of vertex `v`'s own cut directly from the
    /// arena column (an unmaterialized vertex has the empty cut).
    pub fn sample_vertex(&self, v: VertexId, copy: usize) -> EdgeSample {
        crate::vertex::edge_sample_from(self.arena.sample_column(v, copy), self.n)
    }

    /// Materializes copy `copy` of vertex `v` as a standalone
    /// [`VertexSketch`] (a copy of the column — for interop and
    /// tests; hot paths read the arena directly). `None` if `v` was
    /// never touched.
    pub fn vertex_sketch(&self, v: VertexId, copy: usize) -> Option<VertexSketch> {
        let column = self.arena.column(v, copy)?;
        let inner = L0Sampler::from_cells(self.arena.family(copy).clone(), column.to_vec());
        Some(VertexSketch::from_inner(self.n, v, inner))
    }

    /// A merge accumulator sized for this bank's columns. Allocate
    /// once per cascade (or per structure) and reuse it across every
    /// component merge — the zero-allocation replacement for cloning
    /// a sketch per component member.
    pub fn new_scratch(&self) -> MergeScratch {
        self.arena.new_scratch()
    }

    /// Accumulates copy `scratch.copy()` of every materialized member
    /// column into `scratch`, returning how many columns were
    /// absorbed (0 means every member is untouched, i.e. the merged
    /// sketch is the zero sketch of an empty vertex set — the
    /// `None` of [`SketchBank::merged_copy`]). Call
    /// [`MergeScratch::reset`] before each new component; repeated
    /// calls accumulate, which is how a supernode sums several
    /// pieces' member lists without intermediate sketches.
    pub fn merge_copy_into(&self, members: &[VertexId], scratch: &mut MergeScratch) -> usize {
        self.arena.merge_into(members, scratch)
    }

    /// Subtracts copy `scratch.copy()` of every materialized member
    /// column from `scratch`, returning how many columns were
    /// subtracted. The columns of a union of whole connected
    /// components sum to zero (every edge cancels between its two
    /// endpoints, Lemma 3.3), so subtracting the columns of such a
    /// set's *other* parts from a reset scratch yields one part's set
    /// sketch without reading that part — see
    /// [`SketchArena::subtract_from`].
    pub fn subtract_copy_from(&self, members: &[VertexId], scratch: &mut MergeScratch) -> usize {
        self.arena.subtract_from(members, scratch)
    }

    /// Applies to `scratch` (at its copy) the change
    /// `update_edge(e, delta)` makes to endpoint `at`'s column — `+delta`
    /// at the larger endpoint, `-delta` at the smaller (Lemma 3.3) —
    /// without writing the bank. A merge followed by this call equals
    /// the merge of a bank that received the update, on every level
    /// that can be nonzero (see [`SketchArena::update_scratch`]); that
    /// is how a caller samples a residual graph without cloning the
    /// bank.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub fn update_edge_into(&self, e: Edge, at: VertexId, delta: i64, scratch: &mut MergeScratch) {
        debug_assert!(
            at == e.u() || at == e.v(),
            "{at} is not an endpoint of {e:?}"
        );
        let signed = if at == e.v() { delta } else { -delta };
        self.arena.update_scratch(scratch, e.index(self.n), signed);
    }

    /// Samples the set sketch accumulated in `scratch` (the cut of
    /// the merged vertex set, Lemma 3.3).
    pub fn sample_merged(&self, scratch: &MergeScratch) -> EdgeSample {
        crate::vertex::edge_sample_from(self.arena.sample_scratch(scratch), self.n)
    }

    /// Merges copy `copy` of every vertex in `members` into one
    /// standalone set sketch (the sketch of `X_A` for `A = members`),
    /// skipping never-touched vertices (their sketches are zero).
    /// Returns `None` if no member was ever touched.
    ///
    /// This materializes a [`VertexSketch`]; the round-trip-free path
    /// for hot loops is [`SketchBank::merge_copy_into`] +
    /// [`SketchBank::sample_merged`].
    pub fn merged_copy(&self, members: &[VertexId], copy: usize) -> Option<VertexSketch> {
        let mut scratch = self.new_scratch();
        scratch.reset(copy);
        if self.merge_copy_into(members, &mut scratch) == 0 {
            return None;
        }
        #[expect(
            clippy::expect_used,
            reason = "merge_copy_into absorbed a member, so one is materialized"
        )]
        let rep = members
            .iter()
            .copied()
            .find(|&v| self.arena.is_materialized(v))
            .expect("at least one member absorbed");
        let inner = L0Sampler::from_cells(self.arena.family(copy).clone(), scratch.cells);
        Some(VertexSketch::from_inner(self.n, rep, inner))
    }
}

// By hand: the section still carries the bank's word count after the
// arena, and load checks the arena against the bank it claims to
// serve — its vertex count and its index space `n²` — and refuses a
// stored count that differs from the one derived from the arena.
impl mpc_snapshot::Persist for SketchBank {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        w.put_usize(self.n);
        self.arena.save(w);
        w.put_u64(self.words());
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let n = r.take_usize()?;
        let arena = SketchArena::load(r)?;
        let words = r.take_u64()?;
        let corrupt = |what: String| Err(mpc_snapshot::SnapshotError::Corrupt(what));
        if n == 0 {
            return corrupt("sketch bank over an empty vertex set".into());
        }
        if n != arena.vertices() {
            return corrupt(format!(
                "sketch bank over {n} vertices holds an arena over {}",
                arena.vertices()
            ));
        }
        let edge_space = (n as u64).checked_mul(n as u64);
        if let Some(f) = (0..arena.copies())
            .map(|c| arena.family(c))
            .find(|f| Some(f.max_index()) != edge_space)
        {
            return corrupt(format!(
                "sketch family over {} coordinates in a bank over {n} vertices",
                f.max_index()
            ));
        }
        let bank = SketchBank { n, arena };
        if words != bank.words() {
            return corrupt(format!(
                "sketch bank claims {words} words for {} blocks of {}",
                bank.arena.blocks(),
                bank.words_per_vertex()
            ));
        }
        Ok(bank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vertex::EdgeSample;
    use mpc_snapshot::{Persist, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

    #[test]
    fn lazy_materialization_costs_nothing_upfront() {
        let bank = SketchBank::new(1000, 8, 1);
        assert_eq!(bank.words(), 0);
        assert!(!bank.is_materialized(42));
        assert!(bank.vertex_sketch(42, 0).is_none());
    }

    #[test]
    fn words_grow_only_for_touched_vertices() {
        let mut bank = SketchBank::new(100, 4, 1);
        bank.insert_edge(Edge::new(0, 1));
        let w = bank.words();
        assert_eq!(w, 2 * bank.words_per_vertex());
        bank.insert_edge(Edge::new(0, 2));
        // Vertex 0 already materialized; only vertex 2 added.
        assert_eq!(bank.words(), w + bank.words_per_vertex());
    }

    #[test]
    fn derived_words_per_vertex_matches_probe_sketch() {
        // The derived per-column cost must equal what a freshly seeded
        // probe column would report — the pre-arena accounting.
        for n in [2usize, 16, 100, 1000] {
            let bank = SketchBank::new(n, 5, 3);
            let probe = VertexSketch::new(n, 0, 0);
            assert_eq!(bank.words_per_vertex(), probe.words() * 5, "n = {n}");
        }
    }

    #[test]
    fn copies_are_independent_but_consistent() {
        let mut bank = SketchBank::new(32, 6, 9);
        let e = Edge::new(3, 7);
        bank.insert_edge(e);
        for copy in 0..6 {
            assert_eq!(
                bank.sample_vertex(3, copy),
                EdgeSample::Edge(e),
                "copy {copy}"
            );
            let s = bank.vertex_sketch(3, copy).expect("materialized");
            assert_eq!(s.sample(), EdgeSample::Edge(e), "copy {copy}");
        }
    }

    #[test]
    fn merged_copy_cancels_internal_edges() {
        let mut bank = SketchBank::new(32, 2, 9);
        bank.insert_edge(Edge::new(0, 1));
        bank.insert_edge(Edge::new(1, 2));
        bank.insert_edge(Edge::new(2, 9));
        let set = bank.merged_copy(&[0, 1, 2], 0).expect("touched");
        assert_eq!(set.sample(), EdgeSample::Edge(Edge::new(2, 9)));
        // The scratch path agrees without materializing a sketch.
        let mut scratch = bank.new_scratch();
        scratch.reset(0);
        assert_eq!(bank.merge_copy_into(&[0, 1, 2], &mut scratch), 3);
        assert_eq!(
            bank.sample_merged(&scratch),
            EdgeSample::Edge(Edge::new(2, 9))
        );
    }

    #[test]
    fn merged_copy_of_untouched_vertices_is_none() {
        let bank = SketchBank::new(32, 2, 9);
        assert!(bank.merged_copy(&[5, 6], 0).is_none());
        let mut scratch = bank.new_scratch();
        scratch.reset(1);
        assert_eq!(bank.merge_copy_into(&[5, 6], &mut scratch), 0);
        assert_eq!(bank.sample_merged(&scratch), EdgeSample::Empty);
    }

    #[test]
    fn merged_copy_equals_fold_of_standalone_merges() {
        // The scratch-merge path and the standalone sketch-merge path
        // are different code over the same field operations: their
        // results must be bit-identical.
        let mut bank = SketchBank::new(24, 3, 31);
        for i in 0..8u32 {
            bank.insert_edge(Edge::new(i, i + 8));
            bank.insert_edge(Edge::new(i, (i + 1) % 8));
        }
        let members: Vec<u32> = (0..8).collect();
        for copy in 0..3 {
            let via_scratch = bank.merged_copy(&members, copy).expect("touched");
            let mut fold = bank.vertex_sketch(members[0], copy).expect("touched");
            for &v in &members[1..] {
                fold.merge(&bank.vertex_sketch(v, copy).expect("touched"));
            }
            assert_eq!(via_scratch, fold, "copy {copy}");
        }
    }

    #[test]
    fn delete_restores_zero() {
        let mut bank = SketchBank::new(32, 3, 11);
        let e = Edge::new(4, 5);
        bank.insert_edge(e);
        bank.delete_edge(e);
        for copy in 0..3 {
            let merged = bank.merged_copy(&[4], copy).expect("touched");
            assert_eq!(merged.sample(), EdgeSample::Empty);
            assert_eq!(bank.sample_vertex(4, copy), EdgeSample::Empty);
        }
        // Churn back to zero leaves the accounted words unchanged:
        // the column stays materialized (dense accounted shape).
        assert_eq!(bank.words(), 2 * bank.words_per_vertex());
    }

    #[test]
    fn scratch_accumulates_across_member_lists() {
        // A supernode of two pieces: accumulating both member lists
        // into one scratch equals merging the union directly.
        let mut bank = SketchBank::new(16, 2, 5);
        bank.insert_edge(Edge::new(0, 1));
        bank.insert_edge(Edge::new(1, 2));
        bank.insert_edge(Edge::new(2, 11));
        let mut scratch = bank.new_scratch();
        scratch.reset(0);
        bank.merge_copy_into(&[0, 1], &mut scratch);
        bank.merge_copy_into(&[2], &mut scratch);
        assert_eq!(scratch.absorbed(), 3);
        assert_eq!(
            bank.sample_merged(&scratch),
            EdgeSample::Edge(Edge::new(2, 11))
        );
    }

    /// Merging members and then applying an edge deletion at each
    /// member endpoint equals merging the members of a clone that
    /// received the deletions: cell for cell, sample for sample, and
    /// on whether anything was absorbed — including a deleted edge
    /// whose endpoints were never touched.
    #[test]
    fn update_edge_into_equals_merging_an_updated_clone() {
        let mut bank = SketchBank::new(16, 3, 21);
        for (a, b) in [(0, 1), (1, 2), (2, 3), (3, 0), (2, 9)] {
            bank.insert_edge(Edge::new(a, b));
        }
        let removed = [Edge::new(1, 2), Edge::new(2, 9), Edge::new(5, 6)];
        let mut residual = bank.clone();
        for &e in &removed {
            residual.delete_edge(e);
        }
        let groups: [&[u32]; 7] = [
            &[0, 1],
            &[2],
            &[1, 2, 3],
            &[0, 1, 2, 3, 9],
            &[5],
            &[5, 6],
            &[7],
        ];
        for members in groups {
            for copy in 0..3 {
                let mut want = residual.new_scratch();
                want.reset(copy);
                residual.merge_copy_into(members, &mut want);
                let mut got = bank.new_scratch();
                got.reset(copy);
                bank.merge_copy_into(members, &mut got);
                for &e in &removed {
                    for at in [e.u(), e.v()].into_iter().filter(|v| members.contains(v)) {
                        bank.update_edge_into(e, at, -1, &mut got);
                    }
                }
                for level in 0..got.levels() {
                    assert_eq!(got.cell(level), want.cell(level), "{members:?} copy {copy}");
                }
                assert_eq!(bank.sample_merged(&got), residual.sample_merged(&want));
                assert_eq!(got.absorbed() == 0, want.absorbed() == 0, "{members:?}");
            }
        }
    }

    #[test]
    fn different_copies_use_different_randomness() {
        let bank = SketchBank::new(64, 2, 123);
        // Same structure, different seeds: the internal samplers must
        // differ (different hash families).
        let a = VertexSketch::new(64, 0, 123);
        let b = VertexSketch::new(64, 0, 124);
        assert_ne!(a, b);
        drop(bank);
    }

    /// One section's payload bytes, without the container around them.
    fn payload(write: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("bank");
        write(&mut w);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let mut r = snap.section("bank").unwrap();
        r.take_bytes(r.remaining()).unwrap().to_vec()
    }

    /// Writes a bank section by hand — `n`, an arena, `words` — and
    /// loads it back, requiring the payload to be consumed exactly.
    fn reload(
        n: usize,
        arena: &SketchArena,
        words: u64,
    ) -> (Vec<u8>, Result<SketchBank, SnapshotError>) {
        let bytes = payload(|w| {
            w.put_usize(n);
            arena.save(w);
            w.put_u64(words);
        });
        let mut r = SnapshotReader::over("bank", &bytes);
        let loaded = SketchBank::load(&mut r).and_then(|bank| r.expect_end().map(|()| bank));
        (bytes, loaded)
    }

    /// A 6-vertex, 2-copy bank with three materialized vertices.
    fn small_bank() -> SketchBank {
        let mut bank = SketchBank::new(6, 2, 5);
        bank.update_edges([(Edge::new(0, 3), 1), (Edge::new(3, 5), 1)]);
        bank
    }

    #[test]
    fn each_inconsistent_table_is_corrupt() {
        let bank = small_bank();
        // The honest section loads and saves back byte for byte.
        let (bytes, loaded) = reload(6, bank.arena(), bank.words());
        let loaded = loaded.expect("an honest bank loads");
        assert_eq!(payload(|w| loaded.save(w)), bytes);
        assert_eq!(payload(|w| bank.save(w)), bytes);
        let cases = [
            (
                reload(7, bank.arena(), bank.words()).1,
                "over 7 vertices holds an arena over 6",
            ),
            // Six vertices, but families over 64 coordinates, not 36.
            (
                reload(6, &SketchArena::new(6, 2, 64, 5), 0).1,
                "family over 64 coordinates",
            ),
            (reload(6, bank.arena(), bank.words() + 1).1, "for 3 blocks"),
        ];
        for (loaded, expected) in cases {
            match loaded {
                Err(SnapshotError::Corrupt(what)) => {
                    assert!(what.contains(expected), "{expected:?} not in {what:?}")
                }
                other => panic!("expected Corrupt, got {other:?}"),
            }
        }
    }
}
