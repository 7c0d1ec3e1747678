//! Columnar arena storage for sketch banks.
//!
//! The pre-arena [`SketchBank`](crate::bank::SketchBank) was a
//! `Vec<Option<Vec<VertexSketch>>>` — one heap column per vertex,
//! each sketch owning its own sparse cell list and a clone of the
//! family randomness. Every update chased four pointers and every
//! component merge cloned whole sketches. This module flattens that
//! grid into **one contiguous pool per bank**:
//!
//! * [`SketchFamily`] — the per-copy randomness (level hash +
//!   fingerprint family), seeded **once** per copy and borrowed by
//!   every column. Materializing a vertex costs no seeding work and
//!   no per-sketch randomness storage.
//! * [`SketchArena`] — all one-sparse cells of an `n × copies ×
//!   levels` bank in one contiguous pool of interleaved 32-byte
//!   cells (value sum + index-weighted sum + fingerprint
//!   accumulator), keyed by a dense `(vertex block, copy, level)`
//!   offset, plus a live-level bitmask per `(column, copy)`. A
//!   vertex's block is appended on first touch (lazy materialization
//!   is preserved). Every write goes through one batched path,
//!   [`SketchArena::update_columns`]: it first *plans* each update's
//!   cell writes — per copy the level and fingerprint term, evaluated
//!   once for both endpoints, and each column's pool offset — into a
//!   fixed stack buffer, then *applies* the buffer in one tight loop
//!   of one-cache-line writes, so the pool's cache misses overlap
//!   instead of waiting behind the hashing. Merges walk only the mask's
//!   set bits, and a snapshot carries the masks plus only the cells
//!   under their set bits — the pool is dense in memory and sparse on
//!   disk.
//! * [`MergeScratch`] — a zero-allocation merge accumulator: one
//!   dense column of the same interleaved cells, plus the union of
//!   the absorbed columns' live masks, reused across every component
//!   merge of a converge-cast. Merging a member folds its live cell
//!   runs into the accumulator cell for cell; no sketch is ever
//!   cloned, and a merged copy moves the column out as a sampler's.
//!   [`SketchArena::update_scratch`] writes one update into it, so a
//!   merge can read a residual graph without copying the pool.
//!
//! The **accounted** shape is unchanged: the MPC memory accounting
//! still charges the paper's dense `levels × cell` layout per
//! materialized column (see [`crate::l0::L0Sampler::words`]); the
//! arena is the host representation of exactly that shape.

use crate::kernels;
use crate::l0::SampleOutcome;
use crate::one_sparse::decode_parts;
use mpc_hashing::field::M61;
use mpc_hashing::fingerprint::FingerprintFamily;
use mpc_hashing::kwise::KWiseHash;
use std::sync::Arc;

/// The shared randomness of one sketch copy: the geometric level hash
/// and the fingerprint family, both derived from a single seed with
/// the same derivation the standalone
/// [`L0Sampler`](crate::l0::L0Sampler) uses — a family and a standalone sampler built from the
/// same `(max_index, seed)` pair are merge-compatible.
#[derive(Debug, Clone)]
pub struct SketchFamily {
    max_index: u64,
    seed: u64,
    levels: u32,
    level_hash: KWiseHash,
    fp: Arc<FingerprintFamily>,
}

impl SketchFamily {
    /// Derives the family randomness for vectors indexed by
    /// `[0, max_index)` from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `max_index == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — an empty index space is a construction bug"
    )]
    pub fn new(max_index: u64, seed: u64) -> Self {
        assert!(max_index > 0, "need a nonempty index space");
        let levels = (64 - max_index.leading_zeros()) + 2;
        SketchFamily {
            max_index,
            seed,
            levels,
            level_hash: KWiseHash::from_seed(2, seed ^ 0x9e37_79b9_7f4a_7c15),
            // Power tables sized to the index space: same evaluation
            // point as an unbounded family of this seed, fewer
            // radix blocks (coordinates never exceed max_index - 1).
            fp: Arc::new(FingerprintFamily::from_seed_bounded(
                seed ^ 0x85eb_ca6b_27d4_eb4f,
                max_index - 1,
            )),
        }
    }

    /// The index-space bound.
    #[inline]
    pub fn max_index(&self) -> u64 {
        self.max_index
    }

    /// The seed all randomness derives from.
    #[inline]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of geometric levels.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels as usize
    }

    /// Whether two families share all randomness (same seed and
    /// index space) — the merge-compatibility test.
    #[inline]
    pub fn same_family(&self, other: &SketchFamily) -> bool {
        self.max_index == other.max_index && self.seed == other.seed
    }

    /// The geometric level coordinate `index` lives at.
    #[inline]
    pub fn level_of(&self, index: u64) -> usize {
        self.level_hash.geometric_level(index, self.levels - 1) as usize
    }

    /// The fingerprint term `z^index`.
    #[inline]
    pub fn term(&self, index: u64) -> M61 {
        self.fp.term(index)
    }

    /// The shared fingerprint family.
    #[inline]
    pub fn fingerprint(&self) -> &FingerprintFamily {
        &self.fp
    }
}

// Families are pure functions of `(max_index, seed)`: the snapshot
// carries those two words and the load path re-derives the level hash
// and power tables, so a restored family samples bit-identically. By
// hand for that reason: the struct is rebuilt, not read.
impl mpc_snapshot::Persist for SketchFamily {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        w.put_u64(self.max_index);
        w.put_u64(self.seed);
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let max_index = r.take_u64()?;
        let seed = r.take_u64()?;
        if max_index == 0 {
            return Err(mpc_snapshot::SnapshotError::Corrupt(
                "sketch family with empty index space".into(),
            ));
        }
        Ok(SketchFamily::new(max_index, seed))
    }
}

/// Sentinel for a never-touched vertex (no block allocated).
const UNMATERIALIZED: u32 = u32::MAX;

/// Cell writes a [`WritePlan`] holds before it is applied: 128 × 40
/// bytes (5 KiB) of stack. An edge update plans two writes per copy.
const PLAN_WRITES: usize = 128;

/// One planned cell write of [`SketchArena::update_columns`]:
/// `X[index] += delta` at level `level` of the column whose live mask
/// sits at `mask` (its cells start at `mask · levels`).
#[derive(Debug, Clone, Copy)]
struct PlannedWrite {
    mask: usize,
    level: u32,
    index: u64,
    delta: i64,
    term: M61,
}

/// The fixed stack buffer of planned writes, filled by the plan pass
/// and emptied by [`SketchArena::flush`].
struct WritePlan {
    writes: [PlannedWrite; PLAN_WRITES],
    len: usize,
}

impl WritePlan {
    fn new() -> Self {
        const EMPTY: PlannedWrite = PlannedWrite {
            mask: 0,
            level: 0,
            index: 0,
            delta: 0,
            term: M61::ZERO,
        };
        WritePlan {
            writes: [EMPTY; PLAN_WRITES],
            len: 0,
        }
    }
}

/// One one-sparse cell: the value sum, index-weighted sum, and
/// fingerprint accumulator, interleaved so a cell is exactly 32
/// bytes — one update or merge read touches a single cache line
/// instead of three distant pool lines.
///
/// `repr(C)` pins field order to declaration order with no padding
/// (16 + 8 + 8 bytes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(C)]
pub(crate) struct Cell {
    pub(crate) index_sum: i128,
    pub(crate) value_sum: i64,
    pub(crate) fp: M61,
}

impl Cell {
    pub(crate) const ZERO: Cell = Cell {
        index_sum: 0,
        value_sum: 0,
        fp: M61::ZERO,
    };

    /// Number of `u64` memory words one cell occupies (for the MPC
    /// memory accounting): value sum, two words of index sum, and the
    /// fingerprint accumulator. The shared evaluation point is counted
    /// once per sketch family, not per cell.
    pub(crate) const WORDS: u64 = 4;

    /// Size of the [`Persist`](mpc_snapshot::Persist) encoding.
    const ENCODED_BYTES: usize = 32;

    #[inline]
    pub(crate) fn is_zero(&self) -> bool {
        self.value_sum == 0 && self.index_sum == 0 && self.fp.is_zero()
    }

    /// Applies `X[index] += delta` given the precomputed
    /// `weighted = index` widening and fingerprint term — the one
    /// cell-update routine shared by the arena pool and the
    /// standalone sampler column.
    #[inline]
    pub(crate) fn apply(&mut self, weighted: i128, delta: i64, term: M61) {
        kernels::cell_apply(self, weighted, delta, term);
    }

    /// Adds another cell of the same family (vector addition).
    #[inline]
    pub(crate) fn absorb(&mut self, other: &Cell) {
        self.value_sum = self.value_sum.wrapping_add(other.value_sum);
        self.index_sum = self.index_sum.wrapping_add(other.index_sum);
        self.fp += other.fp;
    }
}

mpc_snapshot::persist_struct!(Cell {
    index_sum,
    value_sum,
    fp
});

/// The contiguous cell pool of a whole sketch bank: `copies`
/// families and, per materialized vertex, one dense block of
/// `copies × levels` interleaved 32-byte cells.
#[derive(Debug, Clone)]
pub struct SketchArena {
    copies: usize,
    levels: usize,
    families: Vec<SketchFamily>,
    /// Block index per vertex ([`UNMATERIALIZED`] until first touch).
    base: Vec<u32>,
    cells: Vec<Cell>,
    /// One live-level bitmask per `(vertex block, copy)`: bit `l` is
    /// set iff cell `l` of that column is nonzero. Merges walk only
    /// set bits, so a component merge touches live cells instead of
    /// the whole dense column, and a snapshot writes only those cells.
    /// One word covers a column because `levels ≤ 64`: `new` and
    /// `load` reject index spaces of `2^62` or more.
    live: Vec<u64>,
}

impl SketchArena {
    /// Creates an empty arena for `n` vertices with `copies`
    /// independent families over `[0, max_index)`; copy `i` derives
    /// from `seed + i` (so copies merge across vertices but are
    /// independent across copy indices).
    ///
    /// # Panics
    ///
    /// Panics if `copies == 0`, `max_index == 0`, or `max_index ≥
    /// 2^62` (more than 64 levels: one mask word would not cover a
    /// column).
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — copies and the index space are construction parameters"
    )]
    pub fn new(n: usize, copies: usize, max_index: u64, seed: u64) -> Self {
        assert!(copies >= 1, "need at least one sketch copy");
        let families: Vec<SketchFamily> = (0..copies)
            .map(|i| SketchFamily::new(max_index, seed + i as u64))
            .collect();
        let levels = families[0].levels();
        assert!(
            levels <= 64,
            "index space {max_index} needs {levels} > 64 levels"
        );
        SketchArena {
            copies,
            levels,
            families,
            base: vec![UNMATERIALIZED; n],
            cells: Vec::new(),
            live: Vec::new(),
        }
    }

    /// Number of independent copies.
    #[inline]
    pub fn copies(&self) -> usize {
        self.copies
    }

    /// Geometric levels per copy.
    #[inline]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Nonzero cells in the pool — the popcount of the live-level
    /// masks, and the number of cells a snapshot carries.
    pub fn live_cells(&self) -> usize {
        self.live.iter().map(|m| m.count_ones() as usize).sum()
    }

    /// The family randomness of copy `copy`.
    #[inline]
    pub fn family(&self, copy: usize) -> &SketchFamily {
        &self.families[copy]
    }

    /// Number of vertices the arena has a base entry for.
    pub(crate) fn vertices(&self) -> usize {
        self.base.len()
    }

    /// Number of materialized vertex blocks in the pool.
    pub(crate) fn blocks(&self) -> usize {
        self.live.len() / self.copies
    }

    /// Cells per vertex block.
    #[inline]
    fn block(&self) -> usize {
        self.copies * self.levels
    }

    /// Whether vertex `v` has a live cell block.
    #[inline]
    pub fn is_materialized(&self, v: u32) -> bool {
        self.base[v as usize] != UNMATERIALIZED
    }

    /// Ensures vertex `v` has a cell block, returning `true` if one
    /// was newly appended.
    pub fn materialize(&mut self, v: u32) -> bool {
        if self.is_materialized(v) {
            return false;
        }
        let blocks = self.cells.len() / self.block();
        self.base[v as usize] = blocks as u32;
        let new_len = self.cells.len() + self.block();
        self.cells.resize(new_len, Cell::ZERO);
        self.live.resize((blocks + 1) * self.copies, 0);
        true
    }

    /// Mask-vector offset of `(v, copy)`.
    #[inline]
    fn mask_slot(&self, v: u32, copy: usize) -> usize {
        self.base[v as usize] as usize * self.copies + copy
    }

    /// Pool offset of cell `(v, copy, level)`; `v` must be
    /// materialized.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    fn slot(&self, v: u32, copy: usize, level: usize) -> usize {
        debug_assert!(self.is_materialized(v), "vertex {v} not materialized");
        self.base[v as usize] as usize * self.block() + copy * self.levels + level
    }

    /// Applies `X_v[index] += delta` to **all** copies of vertex `v`'s
    /// column (one level/term evaluation per copy), materializing `v`
    /// first if it never was. The one-column case of
    /// [`SketchArena::update_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is outside the family index space.
    pub fn update(&mut self, v: u32, index: u64, delta: i64) {
        self.update_columns([(index, [(v, delta)])]);
    }

    /// Applies `X_a[index] += delta_a` and `X_b[index] += delta_b` to
    /// all copies of two distinct vertices' columns, evaluating the
    /// level hash and the fingerprint term **once per copy** for the
    /// pair, and materializing `a`, then `b`, if they never were. The
    /// one-pair case of [`SketchArena::update_columns`].
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or `a == b`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — Edge's invariant keeps endpoints distinct"
    )]
    pub fn update_pair(&mut self, a: u32, b: u32, index: u64, delta_a: i64, delta_b: i64) {
        assert_ne!(a, b, "pair update requires distinct vertices");
        self.update_columns([(index, [(a, delta_a), (b, delta_b)])]);
    }

    /// The batched write path every pool write goes through. Each
    /// update `(index, [(v, delta); N])` applies `X_v[index] += delta`
    /// to all copies of each listed column.
    ///
    /// Three passes per update, the last two over a fixed stack buffer
    /// of 128 planned cell writes that is applied whenever it fills:
    ///
    /// 1. *materialize* the listed columns in order, so block
    ///    numbering — and with it `base` and the snapshot — follows
    ///    arrival order exactly as one-at-a-time writes would;
    /// 2. *plan*, per copy, the level and fingerprint term (evaluated
    ///    once for all `N` columns) and each column's mask slot — pure
    ///    hashing, no pool access;
    /// 3. *apply* the planned cell writes in one tight loop, keeping
    ///    each live-level bit current. The pool is far larger than
    ///    cache, and a loop with no hashing between its writes keeps
    ///    many of their cache misses in flight at once.
    ///
    /// Cell adds commute (wrapping integers and `GF(2^61 − 1)`) and a
    /// live bit is a function of its cell's final value, so the result
    /// is bit-identical to applying the updates one at a time. The
    /// buffer lives on the stack: the write path never touches the
    /// heap beyond the pool growth of a first touch.
    ///
    /// # Panics
    ///
    /// Panics if an `index` is outside the family index space.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — the bank derives indices from the shared family"
    )]
    pub fn update_columns<const N: usize>(
        &mut self,
        updates: impl IntoIterator<Item = (u64, [(u32, i64); N])>,
    ) {
        let mut plan = WritePlan::new();
        for (index, columns) in updates {
            assert!(
                index < self.families[0].max_index,
                "index {index} out of range {}",
                self.families[0].max_index
            );
            for &(v, _) in &columns {
                self.materialize(v);
            }
            for copy in 0..self.copies {
                let family = &self.families[copy];
                let level = family.level_of(index) as u32;
                let term = family.term(index);
                if plan.len + N > PLAN_WRITES {
                    self.flush(&mut plan);
                }
                for &(v, delta) in &columns {
                    plan.writes[plan.len] = PlannedWrite {
                        mask: self.mask_slot(v, copy),
                        level,
                        index,
                        delta,
                        term,
                    };
                    plan.len += 1;
                }
            }
        }
        self.flush(&mut plan);
    }

    /// Applies the planned cell writes in order — pool offset
    /// `mask · levels + level`, then the live bit from the cell's new
    /// value — and empties the plan.
    #[inline]
    fn flush(&mut self, plan: &mut WritePlan) {
        for w in &plan.writes[..plan.len] {
            let cell = &mut self.cells[w.mask * self.levels + w.level as usize];
            cell.apply(w.index as i128, w.delta, w.term);
            let bit = 1u64 << w.level;
            if cell.is_zero() {
                self.live[w.mask] &= !bit;
            } else {
                self.live[w.mask] |= bit;
            }
        }
        plan.len = 0;
    }

    /// The raw cell triple at `(v, copy, level)` (zero for
    /// unmaterialized vertices).
    #[inline]
    pub fn cell(&self, v: u32, copy: usize, level: usize) -> (i64, i128, M61) {
        let c = self
            .column(v, copy)
            .map_or(Cell::ZERO, |column| column[level]);
        (c.value_sum, c.index_sum, c.fp)
    }

    /// The `levels` cells of copy `copy` of vertex `v`'s column, or
    /// `None` for an unmaterialized vertex.
    #[inline]
    pub(crate) fn column(&self, v: u32, copy: usize) -> Option<&[Cell]> {
        if !self.is_materialized(v) {
            return None;
        }
        let start = self.slot(v, copy, 0);
        Some(&self.cells[start..start + self.levels])
    }

    /// Queries one vertex column at one copy, without materializing
    /// anything: scan levels from sparsest down, return the first
    /// one-sparse recovery.
    pub fn sample_column(&self, v: u32, copy: usize) -> SampleOutcome {
        self.column(v, copy).map_or(SampleOutcome::Zero, |column| {
            sample_cell_slice(column, &self.families[copy])
        })
    }

    /// A merge accumulator sized for this arena's columns. Allocate
    /// once per cascade and reuse it for every component merge.
    pub fn new_scratch(&self) -> MergeScratch {
        MergeScratch {
            copy: 0,
            absorbed: 0,
            live: 0,
            cells: vec![Cell::ZERO; self.levels],
        }
    }

    /// Accumulates copy `scratch.copy()` of every **materialized**
    /// member column into `scratch` (never-touched vertices are the
    /// zero sketch and are skipped), returning how many columns were
    /// absorbed. Call [`MergeScratch::reset`] before the first member
    /// set of each merge; repeated calls accumulate — that is how a
    /// supernode sums its member pieces without intermediate clones.
    pub fn merge_into(&self, members: &[u32], scratch: &mut MergeScratch) -> usize {
        self.fold_members(members, scratch, kernels::fold_cells)
    }

    /// [`SketchArena::merge_into`] with the sign flipped: *subtracts*
    /// copy `scratch.copy()` of every materialized member column from
    /// `scratch`, returning how many columns were subtracted (they
    /// count as absorbed). Sketches are linear, so when the columns of
    /// a vertex set `S` sum to zero — `S` is a union of whole
    /// connected components, every edge cancelling between its two
    /// endpoints — subtracting the columns of `S ∖ A` from a reset
    /// scratch leaves exactly the accumulator that merging `A` would
    /// have built, without reading one column of `A`. The union mask
    /// then covers the subtracted columns' live levels, a superset of
    /// the accumulator's nonzero levels, so
    /// [`SketchArena::sample_scratch`] decodes the same cells in the
    /// same order.
    pub fn subtract_from(&self, members: &[u32], scratch: &mut MergeScratch) -> usize {
        self.fold_members(members, scratch, kernels::unfold_cells)
    }

    /// Applies one `X[index] += delta` to `scratch` at its copy — the
    /// cell write of [`SketchArena::update`] aimed at the accumulator
    /// instead of a pool column. It sets the level's bit in the union
    /// mask and counts as one absorbed column (a one-coordinate
    /// vector), so a probe of a group that absorbed only such updates
    /// still samples. Sums wrap and fingerprints add in a field, so
    /// the accumulator does not depend on where this falls among the
    /// member folds.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub fn update_scratch(&self, scratch: &mut MergeScratch, index: u64, delta: i64) {
        debug_assert!(
            index < self.families[0].max_index,
            "index {index} out of range"
        );
        let family = &self.families[scratch.copy];
        let level = family.level_of(index);
        scratch.cells[level].apply(index as i128, delta, family.term(index));
        scratch.live |= 1u64 << level;
        scratch.absorbed += 1;
    }

    /// The column walk shared by [`SketchArena::merge_into`] and
    /// [`SketchArena::subtract_from`]: streams the live cells of every
    /// materialized member column through `fold` into the scratch
    /// column.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    fn fold_members(
        &self,
        members: &[u32],
        scratch: &mut MergeScratch,
        fold: impl Fn(&mut [Cell], &[Cell]),
    ) -> usize {
        let copy = scratch.copy;
        debug_assert!(copy < self.copies, "copy {copy} out of range");
        let mut absorbed = 0usize;
        for &v in members {
            if !self.is_materialized(v) {
                continue;
            }
            let start = self.slot(v, copy, 0);
            // Fold only the live levels of this column, extracting
            // maximal contiguous runs of set bits so each run is
            // one span fold. Levels never interact, so
            // run folds are bit-identical to a per-bit walk.
            let mut mask = self.live[self.mask_slot(v, copy)];
            scratch.live |= mask;
            while mask != 0 {
                let lo = mask.trailing_zeros() as usize;
                let run = (!(mask >> lo)).trailing_zeros() as usize;
                fold(
                    &mut scratch.cells[lo..lo + run],
                    &self.cells[start + lo..start + lo + run],
                );
                // Clear the run; `run` can be 64, which a shifted
                // mask cannot express.
                mask = if lo + run >= 64 {
                    0
                } else {
                    mask & !(((1u64 << run) - 1) << lo)
                };
            }
            absorbed += 1;
        }
        scratch.absorbed += absorbed;
        absorbed
    }

    /// Queries the accumulated set sketch in `scratch`. Only levels in
    /// the union mask are inspected (a level outside every member's
    /// mask is a sum of zeros — provably zero even under
    /// cancellation), walked from the sparsest down.
    pub fn sample_scratch(&self, scratch: &MergeScratch) -> SampleOutcome {
        let family = &self.families[scratch.copy];
        let mut any_nonzero = false;
        let mut mask = scratch.live;
        while mask != 0 {
            let l = 63 - mask.leading_zeros() as usize;
            mask &= !(1u64 << l);
            let c = &scratch.cells[l];
            if c.is_zero() {
                continue;
            }
            any_nonzero = true;
            if let Some((index, weight)) = decode_cell(c, family) {
                return SampleOutcome::Sample { index, weight };
            }
        }
        if any_nonzero {
            SampleOutcome::Fail
        } else {
            SampleOutcome::Zero
        }
    }
}

/// The set bits of `mask`, ascending — the order a snapshot writes a
/// column's live cells in.
fn set_bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let level = mask.trailing_zeros() as usize;
        (mask != 0).then(|| {
            mask &= mask - 1;
            level
        })
    })
}

// The pool does not travel; its live cells do. A vertex of degree `d`
// lights at most `min(d, levels)` cells per copy, so most of the dense
// pool is zero. The section is `families`, `base`, the live-mask
// table, then the cell under each set bit — block order, copy order,
// ascending level — with no count: the masks announce it. Loading
// rebuilds the dense pool from zeros and cross-checks every structural
// invariant (mask extent, base-table bounds, run length, and that no
// zero cell sits under a live bit) so a corrupted snapshot surfaces as
// a typed error instead of an out-of-bounds slot or a mask that lies,
// and save → load → save is byte-stable. By hand: the checks run
// *between* reads, before the pool they size is allocated.
impl mpc_snapshot::Persist for SketchArena {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        self.families.save(w);
        self.base.save(w);
        self.live.save(w);
        for (column, &mask) in self.cells.chunks_exact(self.levels).zip(&self.live) {
            for level in set_bits(mask) {
                column[level].save(w);
            }
        }
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let families = Vec::<SketchFamily>::load(r)?;
        let base = Vec::<u32>::load(r)?;
        let live = Vec::<u64>::load(r)?;
        let corrupt = |what: String| Err(mpc_snapshot::SnapshotError::Corrupt(what));
        if families.is_empty() {
            return corrupt("sketch arena with no copies".into());
        }
        let copies = families.len();
        let levels = families[0].levels();
        if families.iter().any(|f| f.levels() != levels) {
            return corrupt("sketch arena copies disagree on level count".into());
        }
        if levels > 64 {
            return corrupt(format!("sketch arena with {levels} > 64 levels"));
        }
        if live.len() % copies != 0 {
            return corrupt(format!(
                "live-mask table has {} entries, not a multiple of {copies} copies",
                live.len()
            ));
        }
        let blocks = live.len() / copies;
        if live
            .iter()
            .any(|m| (64 - m.leading_zeros()) as usize > levels)
        {
            return corrupt(format!("live mask with a bit at or past level {levels}"));
        }
        if base
            .iter()
            .any(|&b| b != UNMATERIALIZED && b as usize >= blocks)
        {
            return corrupt(format!("base table points past {blocks} blocks"));
        }
        let mut arena = SketchArena {
            copies,
            levels,
            families,
            base,
            cells: Vec::new(),
            live,
        };
        // Before the pool exists: a forged mask table must fail here,
        // not after allocating `levels` cells per mask.
        if r.remaining() / Cell::ENCODED_BYTES < arena.live_cells() {
            return corrupt(format!(
                "cell run shorter than the {} live cells the masks announce",
                arena.live_cells()
            ));
        }
        // Each block belongs to exactly one vertex: two vertices on one
        // block would write into each other's columns, and a block no
        // vertex names would be carried forever.
        let mut owned = vec![false; blocks];
        for &b in arena.base.iter().filter(|&&b| b != UNMATERIALIZED) {
            if std::mem::replace(&mut owned[b as usize], true) {
                return corrupt(format!("two vertices share block {b}"));
            }
        }
        if let Some(b) = owned.iter().position(|&o| !o) {
            return corrupt(format!("block {b} belongs to no vertex"));
        }
        arena.cells = vec![Cell::ZERO; arena.live.len() * levels];
        for (column, &mask) in arena.cells.chunks_exact_mut(levels).zip(&arena.live) {
            for level in set_bits(mask) {
                column[level] = Cell::load(r)?;
                if column[level].is_zero() {
                    return corrupt("zero cell under a live bit".into());
                }
            }
        }
        Ok(arena)
    }
}

/// One dense reusable merge column (`levels` cells, the pool's
/// layout) plus the copy it is bound to. Created by
/// [`SketchArena::new_scratch`] /
/// [`SketchBank::new_scratch`](crate::bank::SketchBank::new_scratch).
#[derive(Debug, Clone)]
pub struct MergeScratch {
    copy: usize,
    absorbed: usize,
    /// Union of the live-level masks of every absorbed column: a
    /// level outside this union is a sum of zero cells, so the query
    /// scan can skip it without looking.
    live: u64,
    pub(crate) cells: Vec<Cell>,
}

impl MergeScratch {
    /// Rebinds the accumulator to `copy` and zeroes every cell —
    /// call before each new component merge.
    pub fn reset(&mut self, copy: usize) {
        self.copy = copy;
        self.absorbed = 0;
        self.live = 0;
        self.cells.fill(Cell::ZERO);
    }

    /// The copy index this accumulator is bound to.
    #[inline]
    pub fn copy(&self) -> usize {
        self.copy
    }

    /// Total member columns absorbed since the last reset.
    #[inline]
    pub fn absorbed(&self) -> usize {
        self.absorbed
    }

    /// The accumulated raw cell triple at `level` — the hook the
    /// merge-equivalence tests use to compare accumulators cell for
    /// cell.
    #[inline]
    pub fn cell(&self, level: usize) -> (i64, i128, M61) {
        let c = &self.cells[level];
        (c.value_sum, c.index_sum, c.fp)
    }

    /// Number of levels in the accumulator column.
    #[inline]
    pub fn levels(&self) -> usize {
        self.cells.len()
    }
}

/// Decodes one nonzero cell, mapping a one-sparse recovery to a
/// sample.
#[inline]
fn decode_cell(c: &Cell, family: &SketchFamily) -> Option<(u64, i64)> {
    if let crate::one_sparse::OneSparseDecode::One { index, weight } =
        decode_parts(c.value_sum, c.index_sum, c.fp, |i, w| {
            family.fingerprint().expected_one_sparse(i, w)
        })
    {
        Some((index, weight))
    } else {
        None
    }
}

/// Samples a dense interleaved cell column (an arena column or the
/// standalone sampler's): the zero-skip scan hops
/// from one nonzero cell to the next going down from the sparsest
/// level; the first one-sparse recovery wins. `Zero` iff every cell
/// is zero, `Fail` if nonzero cells exist but none decodes.
pub(crate) fn sample_cell_slice(cells: &[Cell], family: &SketchFamily) -> SampleOutcome {
    let mut below = cells.len();
    let mut any_nonzero = false;
    while let Some(l) = kernels::top_nonzero_cells(cells, below) {
        any_nonzero = true;
        if let Some((index, weight)) = decode_cell(&cells[l], family) {
            return SampleOutcome::Sample { index, weight };
        }
        below = l;
    }
    if any_nonzero {
        SampleOutcome::Fail
    } else {
        SampleOutcome::Zero
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use mpc_snapshot::{Persist, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter};

    /// One section's payload bytes, without the container around them.
    fn payload(write: impl FnOnce(&mut SnapshotWriter)) -> Vec<u8> {
        let mut w = SnapshotWriter::new(0);
        w.begin_section("arena");
        write(&mut w);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).unwrap();
        let mut r = snap.section("arena").unwrap();
        r.take_bytes(r.remaining()).unwrap().to_vec()
    }

    /// Loads an arena from raw payload bytes — no checksum in the way —
    /// and requires the payload to be consumed exactly.
    fn load(bytes: &[u8]) -> Result<SketchArena, SnapshotError> {
        let mut r = SnapshotReader::over("arena", bytes);
        let arena = SketchArena::load(&mut r)?;
        r.expect_end()?;
        Ok(arena)
    }

    /// A hand-written version-2 section: two 9-level copies over
    /// `[0, 64)` and whatever tables and cell run the caller claims.
    fn forged(max_index: u64, base: &[u32], live: &[u64], cells: &[Cell]) -> Vec<u8> {
        payload(|w| {
            vec![
                SketchFamily::new(max_index, 7),
                SketchFamily::new(max_index, 8),
            ]
            .save(w);
            base.to_vec().save(w);
            live.to_vec().save(w);
            cells.iter().for_each(|c| c.save(w));
        })
    }

    fn corrupt_message(bytes: &[u8]) -> String {
        match load(bytes) {
            Err(SnapshotError::Corrupt(what)) => what,
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    /// `bit set ⇔ cell nonzero`, over the whole pool.
    fn assert_masks_agree(arena: &SketchArena) {
        assert_eq!(arena.cells.len(), arena.live.len() * arena.levels);
        for (column, &mask) in arena.cells.chunks_exact(arena.levels).zip(&arena.live) {
            for (level, cell) in column.iter().enumerate() {
                assert_eq!(mask >> level & 1 == 1, !cell.is_zero(), "level {level}");
            }
        }
    }

    /// Five vertices, two copies: vertex 0 never touched, vertex 1
    /// materialized and empty, vertex 2 filled and cancelled back to
    /// zero (bits set, then cleared), vertices 3 and 4 live.
    fn small_arena() -> SketchArena {
        let mut arena = SketchArena::new(5, 2, 64, 7);
        for v in 1..5 {
            arena.materialize(v);
        }
        for index in [3, 17, 40] {
            arena.update(2, index, 2);
            arena.update_pair(3, 4, index, 1, -1);
        }
        arena.update(4, 63, -5);
        for index in [3, 17, 40] {
            arena.update(2, index, -2);
        }
        arena
    }

    const ONE: Cell = Cell {
        index_sum: 5,
        value_sum: 1,
        fp: M61::ONE,
    };

    #[test]
    fn snapshot_restores_every_cell_and_mask() {
        let arena = small_arena();
        assert_masks_agree(&arena);
        assert_eq!(arena.live[arena.mask_slot(2, 0)], 0, "cancelled column");
        let live_cells = arena.live_cells();
        assert!(live_cells > 0 && live_cells < arena.cells.len() / 2);
        let bytes = payload(|w| arena.save(w));
        // families, base and mask tables, then 32 bytes per live cell.
        assert_eq!(bytes.len(), 40 + 28 + 72 + 32 * live_cells);
        let restored = load(&bytes).expect("loadable");
        assert_eq!(restored.base, arena.base);
        assert_eq!(restored.live, arena.live);
        assert_eq!(restored.cells, arena.cells);
        for v in 0..5 {
            assert_eq!(restored.is_materialized(v), arena.is_materialized(v));
            for copy in 0..2 {
                assert_eq!(
                    restored.sample_column(v, copy),
                    arena.sample_column(v, copy)
                );
            }
        }
        assert_eq!(payload(|w| restored.save(w)), bytes, "byte-stable");
    }

    #[test]
    fn each_structural_lie_is_its_own_corrupt_error() {
        // The honest baseline: one block, one live cell.
        assert!(load(&forged(64, &[0], &[1, 0], &[ONE])).is_ok());
        let cases: [(Vec<u8>, &str); 10] = [
            (forged(64, &[0], &[1, 0, 0], &[ONE]), "not a multiple of 2"),
            (forged(64, &[0], &[1 << 9, 0], &[ONE]), "at or past level 9"),
            (forged(64, &[1], &[1, 0], &[ONE]), "points past 1 blocks"),
            (
                forged(64, &[0, 0], &[1, 0], &[ONE]),
                "two vertices share block 0",
            ),
            (
                forged(64, &[0, UNMATERIALIZED], &[1, 0, 1, 0], &[ONE, ONE]),
                "block 1 belongs to no vertex",
            ),
            (forged(64, &[0], &[0b11, 0], &[ONE]), "cell run shorter"),
            (forged(64, &[0], &[1, 0], &[Cell::ZERO]), "zero cell under"),
            (forged(1 << 62, &[0], &[0, 0], &[]), "65 > 64 levels"),
            // A mask table whose dense pool would be 9 cells per mask:
            // refused on the missing run, before the pool is allocated.
            (forged(64, &[0], &[0x1FF; 1 << 12], &[]), "36864 live cells"),
            (
                {
                    let mut short = forged(64, &[0], &[0b11, 0], &[ONE, ONE]);
                    short.pop();
                    short
                },
                "cell run shorter",
            ),
        ];
        for (bytes, expected) in &cases {
            let what = corrupt_message(bytes);
            assert!(what.contains(expected), "{expected:?} not in {what:?}");
        }
    }

    #[test]
    #[should_panic(expected = "> 64 levels")]
    fn index_space_wider_than_one_mask_word_panics() {
        SketchArena::new(1, 1, 1 << 62, 0);
    }

    /// The sweep: every single-bit flip and every whole-byte flip of a
    /// small section either fails typed or loads an arena that is
    /// exactly what the flipped bytes say — never a panic, never a
    /// mask that disagrees with its cells.
    #[test]
    fn byte_sweep_never_panics_or_decodes_a_lie() {
        let pristine = payload(|w| small_arena().save(w));
        let (mut loaded, mut refused) = (0usize, 0usize);
        for at in 0..pristine.len() {
            for flip in (0..8).map(|bit| 1u8 << bit).chain([0xFF]) {
                let mut bytes = pristine.clone();
                bytes[at] ^= flip;
                match load(&bytes) {
                    Ok(arena) => {
                        assert_masks_agree(&arena);
                        assert_eq!(payload(|w| arena.save(w)), bytes, "byte {at} ^ {flip:#x}");
                        loaded += 1;
                    }
                    Err(SnapshotError::Corrupt(_)) => refused += 1,
                    Err(other) => panic!("byte {at} ^ {flip:#x}: {other:?}"),
                }
            }
        }
        assert!(
            loaded > 0 && refused > 0,
            "{loaded} loaded, {refused} refused"
        );
    }

    #[test]
    fn family_matches_standalone_sampler_derivation() {
        // A family and a standalone sampler from the same pair must
        // agree on every level and term — merge compatibility.
        use crate::l0::L0Sampler;
        let family = SketchFamily::new(1 << 16, 42);
        let sampler = L0Sampler::new(1 << 16, 42);
        assert_eq!(family.levels(), sampler.levels());
        for i in [0u64, 1, 999, 65535] {
            assert_eq!(
                family.level_of(i),
                sampler.family().level_of(i),
                "index {i}"
            );
            assert_eq!(family.term(i), sampler.family().term(i), "index {i}");
        }
    }

    #[test]
    fn lazy_blocks_and_pair_updates() {
        let mut arena = SketchArena::new(8, 3, 64, 7);
        assert!(!arena.is_materialized(2));
        assert!(arena.materialize(2));
        assert!(!arena.materialize(2));
        arena.materialize(5);
        arena.update_pair(2, 5, 17, 1, -1);
        assert_eq!(
            arena.sample_column(2, 0),
            SampleOutcome::Sample {
                index: 17,
                weight: 1
            }
        );
        assert_eq!(
            arena.sample_column(5, 1),
            SampleOutcome::Sample {
                index: 17,
                weight: -1
            }
        );
        assert_eq!(arena.sample_column(7, 0), SampleOutcome::Zero);
    }

    #[test]
    fn scratch_merge_cancels_opposite_columns() {
        let mut arena = SketchArena::new(4, 2, 1 << 10, 3);
        arena.materialize(0);
        arena.materialize(1);
        arena.update_pair(0, 1, 100, 1, -1);
        arena.update(0, 200, 1);
        let mut scratch = arena.new_scratch();
        scratch.reset(1);
        assert_eq!(arena.merge_into(&[0, 1, 3], &mut scratch), 2);
        assert_eq!(scratch.absorbed(), 2);
        // The {0,1}-internal coordinate 100 cancels; 200 survives.
        assert_eq!(
            arena.sample_scratch(&scratch),
            SampleOutcome::Sample {
                index: 200,
                weight: 1
            }
        );
        // A vertex whose updates cancel back to zero samples Zero.
        arena.materialize(2);
        arena.update(2, 200, -1);
        arena.update(2, 200, 1);
        assert_eq!(arena.sample_column(2, 1), SampleOutcome::Zero);
    }

    #[test]
    fn reset_rebinds_copy() {
        let mut arena = SketchArena::new(4, 2, 1 << 10, 9);
        arena.materialize(0);
        arena.update(0, 5, 1);
        let mut scratch = arena.new_scratch();
        scratch.reset(0);
        arena.merge_into(&[0], &mut scratch);
        assert!(matches!(
            arena.sample_scratch(&scratch),
            SampleOutcome::Sample {
                index: 5,
                weight: 1
            }
        ));
        scratch.reset(1);
        assert_eq!(scratch.absorbed(), 0);
        assert_eq!(scratch.copy(), 1);
        assert_eq!(arena.sample_scratch(&scratch), SampleOutcome::Zero);
    }
}
