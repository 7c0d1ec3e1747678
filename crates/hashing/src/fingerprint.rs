//! Linear polynomial fingerprints.
//!
//! A fingerprint of a vector `X` is `F(X) = Σ_i X_i · z^i` over
//! `GF(2^61 - 1)` for a random evaluation point `z`. Two properties
//! matter for the one-sparse recovery test inside every `ℓ0`-sampler
//! level (paper Lemma 3.1):
//!
//! * **Linearity** — `F(X + Y) = F(X) + F(Y)`, so sketches merge by
//!   field addition (paper Remark 3.2).
//! * **Soundness** — a nonzero vector of support `≤ d` fingerprints to
//!   zero with probability at most `d / (2^61 - 1)` over the choice of
//!   `z` (Schwartz–Zippel).
//!
//! The family randomness (the evaluation point and its derived power
//! tables) lives in a [`FingerprintFamily`], seeded **once** and
//! shared by every accumulator of the family. An accumulator is a bare
//! field value that [`accumulate`] folds `term(index) · delta` into —
//! the columnar sketch arena holds one family per sketch copy and one
//! such value per cell.

use crate::field::{M61, P};
use crate::rng::StdRng;

/// Number of radix-256 digit tables covering a full `u64` exponent.
const RADIX_BLOCKS: usize = 8;

/// The shared randomness of a fingerprint family: the evaluation
/// point `z` and precomputed power tables.
///
/// `z^index` is assembled from radix-256 digit tables
/// (`pow[b][d] = z^(d · 256^b)`), so a term costs one multiplication
/// per **nonzero byte** of the index — at most 8, and 3 for the
/// `n² ≤ 2^48`-sized edge spaces with `n ≤ 2^12` the graph sketches
/// use. Bounded constructors build tables only for the bytes their
/// exponent range can reach, so the many small per-partition
/// samplers of the matching layer don't pay the full-`u64` table.
/// The tables are derived state: the MPC memory accounting counts
/// `z` once per family, like the hash coefficients.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FingerprintFamily {
    /// Random evaluation point shared by all mergeable accumulators.
    z: M61,
    /// `pow[b][d] = z^(d << (8b))` for `d < 256`, one block per
    /// exponent byte the family's range can reach.
    pow: Vec<[M61; 256]>,
}

/// Radix blocks needed to cover exponents in `[0, max_exponent]`.
fn blocks_for(max_exponent: u64) -> usize {
    (((64 - max_exponent.leading_zeros()) as usize).div_ceil(8)).max(1)
}

/// `pow[b][d] = z^(d << (8b))`, by repeated squaring across blocks.
fn build_pow(z: M61, blocks: usize) -> Vec<[M61; 256]> {
    let mut pow = vec![[M61::ZERO; 256]; blocks];
    // base_b = z^(256^b).
    let mut base = z;
    for block in pow.iter_mut() {
        let mut acc = M61::ONE;
        for slot in block.iter_mut() {
            *slot = acc;
            acc *= base;
        }
        // acc is now base^256 = z^(256^(b+1)).
        base = acc;
    }
    pow
}

impl FingerprintFamily {
    /// Draws a family with a random evaluation point from `rng`,
    /// covering the full `u64` exponent range.
    pub fn new(rng: &mut StdRng) -> Self {
        Self::with_blocks(rng, RADIX_BLOCKS)
    }

    fn with_blocks(rng: &mut StdRng, blocks: usize) -> Self {
        // Avoid z = 0 which would ignore every coordinate but 0. The
        // draw happens before any table building, so bounded and
        // unbounded families of one seed share the evaluation point.
        let z = M61::new(rng.gen_range(2..P));
        FingerprintFamily {
            z,
            pow: build_pow(z, blocks),
        }
    }

    /// Draws a family deterministically from a seed, covering the
    /// full `u64` exponent range.
    pub fn from_seed(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        FingerprintFamily::new(&mut rng)
    }

    /// Draws a family deterministically from a seed with power
    /// tables covering only exponents in `[0, max_exponent]` — same
    /// evaluation point as [`FingerprintFamily::from_seed`], smaller
    /// derived state. Terms beyond the coverage stay correct via the
    /// [`FingerprintFamily::term`] ladder fallback.
    pub fn from_seed_bounded(seed: u64, max_exponent: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        Self::with_blocks(&mut rng, blocks_for(max_exponent))
    }

    /// The family's evaluation point (families merge iff it matches).
    #[inline]
    pub fn point(&self) -> M61 {
        self.z
    }

    /// `z^index` — one table multiplication per nonzero index byte.
    ///
    /// Exponents beyond a bounded family's table coverage fall back
    /// to the square-and-multiply ladder (same value, slower): the
    /// one-sparse decoder probes *candidate* indices `index_sum /
    /// value_sum`, which for not-one-sparse cells can lie far outside
    /// the family's coordinate space.
    #[inline]
    pub fn term(&self, index: u64) -> M61 {
        let covered = self.pow.len() * 8;
        if covered < 64 && (index >> covered) != 0 {
            return self.z.pow(index);
        }
        let mut acc = M61::ONE;
        let mut i = index;
        let mut block = 0usize;
        while i != 0 {
            let byte = (i & 0xff) as usize;
            if byte != 0 {
                acc *= self.pow[block][byte];
            }
            i >>= 8;
            block += 1;
        }
        acc
    }

    /// The fingerprint a one-sparse vector with value `weight` at
    /// `index` would have — the one-sparse recovery test's right-hand
    /// side.
    #[inline]
    pub fn expected_one_sparse(&self, index: u64, weight: i64) -> M61 {
        self.term(index) * M61::from_i64(weight)
    }
}

// Only the evaluation point and the table *extent* travel in a
// snapshot; the power tables themselves are derived state, rebuilt on
// load — the same split the MPC memory accounting uses (z counts, the
// tables don't). By hand for that reason: `pow` is rebuilt, not read.
impl mpc_snapshot::Persist for FingerprintFamily {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        self.z.save(w);
        w.put_usize(self.pow.len());
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let z = M61::load(r)?;
        let blocks = r.take_usize()?;
        if z.value() < 2 || blocks == 0 || blocks > RADIX_BLOCKS {
            return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "invalid fingerprint family: z={}, blocks={blocks}",
                z.value()
            )));
        }
        Ok(FingerprintFamily {
            z,
            pow: build_pow(z, blocks),
        })
    }
}

/// Folds `acc += term · delta` with fast paths for the `±1` deltas
/// the graph sketches emit almost exclusively.
#[inline]
pub fn accumulate(acc: M61, term: M61, delta: i64) -> M61 {
    match delta {
        1 => acc + term,
        -1 => acc - term,
        d => acc + term * M61::from_i64(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The fingerprint of the vector `updates` describes: a fold of
    /// [`accumulate`] over the family's terms, as every sketch cell
    /// keeps it.
    fn fold(fam: &FingerprintFamily, updates: &[(u64, i64)]) -> M61 {
        updates
            .iter()
            .fold(M61::ZERO, |acc, &(i, d)| accumulate(acc, fam.term(i), d))
    }

    #[test]
    fn update_then_cancel() {
        let fam = FingerprintFamily::from_seed(2);
        assert!(!fold(&fam, &[(10, 3)]).is_zero());
        assert!(fold(&fam, &[(10, 3), (10, -3)]).is_zero());
    }

    #[test]
    fn linearity_under_merge() {
        let fam = FingerprintFamily::from_seed(3);
        let direct = fold(&fam, &[(1, 2), (5, -1), (9, 4), (5, 1)]);
        let a = fold(&fam, &[(1, 2), (5, -1)]);
        let b = fold(&fam, &[(9, 4), (5, 1)]);
        assert_eq!(a + b, direct);
    }

    #[test]
    fn one_sparse_expectation_matches() {
        let fam = FingerprintFamily::from_seed(4);
        let f = fold(&fam, &[(42, -7)]);
        assert_eq!(f, fam.expected_one_sparse(42, -7));
        assert_ne!(f, fam.expected_one_sparse(42, 7));
        assert_ne!(f, fam.expected_one_sparse(41, -7));
    }

    #[test]
    fn two_sparse_rarely_looks_one_sparse() {
        // Not a statistical test: just check a handful of seeds never
        // collide (failure probability ~ 2^-60 each).
        for seed in 0..32 {
            let fam = FingerprintFamily::from_seed(seed);
            // A two-sparse vector with sum 2 and index-sum 20 would be
            // mistaken for one-sparse value 2 at index 10.
            let f = fold(&fam, &[(7, 1), (13, 1)]);
            assert_ne!(f, fam.expected_one_sparse(10, 2), "seed {seed}");
        }
    }

    #[test]
    fn accumulate_fast_paths_equal_the_general_product() {
        let fam = FingerprintFamily::from_seed(6);
        for (acc, index) in [
            (M61::ZERO, 0u64),
            (M61::new(12345), 77),
            (M61::new(P - 1), 1 << 40),
        ] {
            let term = fam.term(index);
            for delta in [1i64, -1, 2, -2, 0, i64::MAX, i64::MIN] {
                assert_eq!(
                    accumulate(acc, term, delta),
                    acc + term * M61::from_i64(delta),
                    "delta {delta}"
                );
            }
        }
    }

    #[test]
    fn radix_terms_match_square_and_multiply() {
        // The table-assembled z^i must equal the plain power ladder on
        // arbitrary exponents, including multi-byte ones.
        let fam = FingerprintFamily::from_seed(99);
        let z = fam.point();
        for i in [
            0u64,
            1,
            7,
            255,
            256,
            257,
            65535,
            65536,
            1 << 24,
            (1 << 48) - 3,
        ] {
            assert_eq!(fam.term(i), z.pow(i), "exponent {i}");
        }
    }

    #[test]
    fn bounded_family_matches_unbounded_in_range() {
        // Same seed → same evaluation point and identical terms over
        // the covered range, with proportionally smaller tables.
        let full = FingerprintFamily::from_seed(321);
        let bounded = FingerprintFamily::from_seed_bounded(321, (1 << 20) - 1);
        assert_eq!(full.point(), bounded.point());
        for i in [0u64, 1, 255, 256, 65535, 65536, (1 << 20) - 1] {
            assert_eq!(full.term(i), bounded.term(i), "exponent {i}");
        }
        assert_eq!(super::blocks_for((1 << 20) - 1), 3);
        assert_eq!(super::blocks_for(0), 1);
        assert_eq!(super::blocks_for(u64::MAX), 8);
    }

    #[test]
    fn bounded_family_term_beyond_coverage_falls_back() {
        // The one-sparse decoder probes candidate indices that can
        // exceed the coordinate space; a bounded family must answer
        // them (via the ladder), not panic, and agree with the
        // unbounded family.
        let full = FingerprintFamily::from_seed(77);
        let bounded = FingerprintFamily::from_seed_bounded(77, 255);
        for i in [256u64, 65536, 1 << 20, u64::MAX] {
            assert_eq!(bounded.term(i), full.term(i), "exponent {i}");
            assert_eq!(bounded.term(i), bounded.point().pow(i), "exponent {i}");
        }
    }
}
