//! The `ℓ0`-sampler of the paper's Lemma 3.1 (\[CJ19\]).
//!
//! Coordinates of an `N`-dimensional vector are assigned to geometric
//! levels by a seeded hash (`Pr[level j] = 2^-(j+1)`); each level
//! keeps a one-sparse cell (value sum / index-weighted sum /
//! fingerprint accumulator). When the vector has `ℓ0` nonzeros, the
//! level `≈ log2 ℓ0` holds one surviving nonzero with constant
//! probability, and its cell recovers it. Querying scans all levels
//! and returns the first recovery.
//!
//! A single sampler succeeds with constant probability; the
//! `δ`-failure version of Lemma 3.1 takes `O(log 1/δ)` independent
//! copies, which is what [`SketchBank`](crate::bank::SketchBank)
//! provides.
//!
//! **Storage:** the cells live in one dense per-level array of
//! interleaved 32-byte cells — the same column layout the bank's
//! [`SketchArena`](crate::arena::SketchArena) pool uses (and the same
//! `Cell` update/merge routines), so an update is a computed-offset
//! write with no search and no allocation, and the representation is
//! canonical by construction (two permutations of one update stream
//! produce bit-identical arrays). All family randomness lives in one
//! shared [`SketchFamily`]. The `levels × cell` shape is also exactly
//! what [`L0Sampler::words`] charges the MPC memory accounting.

use crate::arena::{sample_cell_slice, Cell, SketchFamily};

/// Outcome of querying an [`L0Sampler`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SampleOutcome {
    /// The summarized vector is (w.h.p.) zero — the paper's `⊥`.
    Zero,
    /// A nonzero coordinate and its value.
    Sample {
        /// The sampled coordinate.
        index: u64,
        /// Its value.
        weight: i64,
    },
    /// The sampler failed this time (no level decoded one-sparse);
    /// retry with an independent copy.
    Fail,
}

/// A linear `ℓ0`-sampling sketch over vectors indexed by `[0, N)`.
///
/// Two samplers [`merge`](L0Sampler::merge) iff they were built with
/// the same `(max_index, seed)` pair, in which case the merge
/// summarizes the coordinate-wise sum.
///
/// # Examples
///
/// ```
/// use mpc_sketch::l0::{L0Sampler, SampleOutcome};
///
/// let mut a = L0Sampler::new(1000, 7);
/// let mut b = L0Sampler::new(1000, 7);
/// a.update(5, 1);
/// b.update(5, -1);
/// a.merge(&b);
/// assert_eq!(a.sample(), SampleOutcome::Zero);
/// ```
#[derive(Debug, Clone)]
pub struct L0Sampler {
    family: SketchFamily,
    /// Dense per-level column of interleaved one-sparse cells;
    /// `cells[l]` is the level-`l` cell.
    cells: Vec<Cell>,
}

/// Equality is structural over the summarized vector's cells: the
/// dense column is canonical, so two samplers of one family that
/// summarize the same vector are equal no matter the update order.
impl PartialEq for L0Sampler {
    fn eq(&self, other: &Self) -> bool {
        self.family.same_family(&other.family) && self.cells == other.cells
    }
}

impl L0Sampler {
    /// Creates a sampler for vectors indexed by `[0, max_index)`,
    /// with all randomness derived from `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `max_index == 0`.
    pub fn new(max_index: u64, seed: u64) -> Self {
        Self::from_family(SketchFamily::new(max_index, seed))
    }

    /// Creates a zero sampler over an existing family's randomness.
    pub fn from_family(family: SketchFamily) -> Self {
        let levels = family.levels();
        L0Sampler {
            family,
            cells: vec![Cell::ZERO; levels],
        }
    }

    /// Builds a sampler from a family and its dense cell column (the
    /// bank materializes arena columns and merge results this way).
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn from_cells(family: SketchFamily, cells: Vec<Cell>) -> Self {
        debug_assert_eq!(cells.len(), family.levels());
        L0Sampler { family, cells }
    }

    /// The seed this sampler's randomness derives from.
    pub fn seed(&self) -> u64 {
        self.family.seed()
    }

    /// The shared family randomness.
    pub fn family(&self) -> &SketchFamily {
        &self.family
    }

    /// A zero-accumulator sampler of this sampler's family: the level
    /// hash and fingerprint randomness (including the shared power
    /// tables) are reused, so materializing many samplers of one
    /// family costs no seeding work.
    pub fn fresh(&self) -> L0Sampler {
        Self::from_family(self.family.clone())
    }

    /// Number of geometric levels.
    pub fn levels(&self) -> usize {
        self.family.levels()
    }

    /// Memory footprint in `u64` words for the MPC accounting: one
    /// one-sparse cell per level plus two header words — the paper's
    /// dense layout, which is both what the model's machines budget
    /// for and (since the columnar refactor) the host layout itself.
    pub fn words(&self) -> u64 {
        self.family.levels() as u64 * Cell::WORDS + 2
    }

    /// Applies `X[index] += delta`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= max_index`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — the family fixes the index space at construction"
    )]
    pub fn update(&mut self, index: u64, delta: i64) {
        assert!(
            index < self.family.max_index(),
            "index {index} out of range {}",
            self.family.max_index()
        );
        let level = self.family.level_of(index);
        let term = self.family.term(index);
        self.cells[level].apply(index as i128, delta, term);
    }

    /// Merges a sampler of the same family (vector addition): one
    /// pass over the dense columns.
    ///
    /// # Panics
    ///
    /// Panics if the families differ.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — samplers of different families cannot be summed"
    )]
    pub fn merge(&mut self, other: &L0Sampler) {
        assert!(
            self.family.same_family(&other.family),
            "cannot merge l0-samplers from different families"
        );
        crate::kernels::fold_cells(&mut self.cells, &other.cells);
    }

    /// Whether every cell is zero (w.h.p. the zero vector).
    pub fn is_zero(&self) -> bool {
        self.cells.iter().all(Cell::is_zero)
    }

    /// Queries the sampler: levels are scanned from the sparsest
    /// (highest) down — they are the ones designed to isolate a single
    /// survivor — and the first one-sparse recovery wins.
    pub fn sample(&self) -> SampleOutcome {
        sample_cell_slice(&self.cells, &self.family)
    }
}

mpc_snapshot::persist_struct!(L0Sampler { family, cells } check |s| {
    if s.cells.len() != s.family.levels() {
        return Err(format!(
            "sampler column has {} cells for a {}-level family",
            s.cells.len(),
            s.family.levels()
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_hashing::rng::StdRng;

    #[test]
    fn zero_vector_reports_zero() {
        let s = L0Sampler::new(100, 1);
        assert_eq!(s.sample(), SampleOutcome::Zero);
    }

    #[test]
    fn singleton_always_recovered() {
        for seed in 0..20 {
            let mut s = L0Sampler::new(1 << 20, seed);
            s.update(777, 3);
            assert_eq!(
                s.sample(),
                SampleOutcome::Sample {
                    index: 777,
                    weight: 3
                },
                "seed {seed}"
            );
        }
    }

    #[test]
    fn insert_delete_returns_to_zero() {
        let mut s = L0Sampler::new(1 << 16, 5);
        for i in 0..50u64 {
            s.update(i * 7, 1);
        }
        for i in 0..50u64 {
            s.update(i * 7, -1);
        }
        assert_eq!(s.sample(), SampleOutcome::Zero);
        assert!(s.is_zero());
    }

    #[test]
    fn sample_returns_true_nonzero() {
        let mut rng = StdRng::seed_from_u64(99);
        let mut successes = 0;
        let trials = 200;
        for t in 0..trials {
            let mut s = L0Sampler::new(1 << 20, t);
            let support: Vec<u64> = (0..100).map(|_| rng.gen_range(0..1 << 20)).collect();
            let mut dedup = support.clone();
            dedup.sort_unstable();
            dedup.dedup();
            for &i in &dedup {
                s.update(i, 1);
            }
            match s.sample() {
                SampleOutcome::Sample { index, weight } => {
                    assert!(dedup.contains(&index), "sampled index must be in support");
                    assert_eq!(weight, 1);
                    successes += 1;
                }
                SampleOutcome::Fail => {}
                SampleOutcome::Zero => panic!("nonzero vector reported zero"),
            }
        }
        // A single sampler succeeds with constant probability; with
        // geometric levels the empirical rate is well above 1/2.
        assert!(
            successes * 2 > trials,
            "success rate too low: {successes}/{trials}"
        );
    }

    #[test]
    fn merge_linearity_matches_direct() {
        let mut rng = StdRng::seed_from_u64(4242);
        for trial in 0..30 {
            let seed = trial;
            let mut direct = L0Sampler::new(1 << 12, seed);
            let mut a = L0Sampler::new(1 << 12, seed);
            let mut b = L0Sampler::new(1 << 12, seed);
            for _ in 0..60 {
                let i = rng.gen_range(0u64..1 << 12);
                let d = if rng.gen_bool(0.5) { 1 } else { -1 };
                direct.update(i, d);
                if rng.gen_bool(0.5) {
                    a.update(i, d);
                } else {
                    b.update(i, d);
                }
            }
            a.merge(&b);
            assert_eq!(a, direct, "trial {trial}");
        }
    }

    #[test]
    fn update_order_is_canonical() {
        // The dense column is a canonical representation: any
        // permutation of one update stream yields an equal sampler.
        let updates: Vec<(u64, i64)> = (0..40u64).map(|i| (i * 97 % 4096, 1)).collect();
        let mut forward = L0Sampler::new(4096, 8);
        let mut backward = L0Sampler::new(4096, 8);
        for &(i, d) in &updates {
            forward.update(i, d);
        }
        for &(i, d) in updates.iter().rev() {
            backward.update(i, d);
        }
        assert_eq!(forward, backward);
    }

    #[test]
    fn sampling_is_spread_over_support() {
        // Different seeds should sample different coordinates — the
        // "random edge" property the replacement-edge search relies on.
        let support: Vec<u64> = (0..64).map(|i| i * 1000 + 13).collect();
        let mut seen = std::collections::BTreeSet::new();
        for seed in 0..64 {
            let mut s = L0Sampler::new(1 << 20, seed);
            for &i in &support {
                s.update(i, 1);
            }
            if let SampleOutcome::Sample { index, .. } = s.sample() {
                seen.insert(index);
            }
        }
        assert!(
            seen.len() >= 16,
            "samples too concentrated: {} distinct",
            seen.len()
        );
    }

    #[test]
    #[should_panic(expected = "different families")]
    fn cross_family_merge_panics() {
        let mut a = L0Sampler::new(100, 1);
        let b = L0Sampler::new(100, 2);
        a.merge(&b);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_update_panics() {
        let mut s = L0Sampler::new(10, 1);
        s.update(10, 1);
    }

    #[test]
    fn weighted_entries_recovered() {
        // The sampler is defined over integer vectors, not just ±1.
        let mut s = L0Sampler::new(1 << 10, 3);
        s.update(100, 7);
        assert_eq!(
            s.sample(),
            SampleOutcome::Sample {
                index: 100,
                weight: 7
            }
        );
        s.update(100, -3);
        assert_eq!(
            s.sample(),
            SampleOutcome::Sample {
                index: 100,
                weight: 4
            }
        );
    }

    #[test]
    fn clone_then_diverge() {
        let mut a = L0Sampler::new(1 << 10, 9);
        a.update(5, 1);
        let mut b = a.clone();
        b.update(5, -1);
        assert_eq!(b.sample(), SampleOutcome::Zero);
        assert_eq!(
            a.sample(),
            SampleOutcome::Sample {
                index: 5,
                weight: 1
            }
        );
    }

    #[test]
    fn words_scale_with_levels() {
        let small = L0Sampler::new(1 << 8, 0);
        let big = L0Sampler::new(1 << 30, 0);
        assert!(big.words() > small.words());
        assert_eq!(small.words(), small.levels() as u64 * 4 + 2);
    }
}
