//! *k*-wise independent hash families.
//!
//! A random degree-`(k-1)` polynomial over `GF(2^61 - 1)` evaluated at
//! the key is a *k*-wise independent hash function — the textbook
//! construction used by the `ℓ0`-samplers of the paper (Lemma 3.1) and
//! by the vertex-partitioning hashes of the matching algorithms
//! (Sections 8.1–8.2, pairwise and four-wise families).

use crate::field::{M61, P};
use crate::rng::StdRng;

/// A hash function drawn from a *k*-wise independent family.
///
/// Keys are `u64` values `< 2^61 - 1`; outputs are uniform in
/// `[0, 2^61 - 1)`. Helpers map outputs onto ranges or geometric
/// levels.
///
/// # Examples
///
/// ```
/// use mpc_hashing::kwise::KWiseHash;
///
/// let h = KWiseHash::from_seed(4, 7); // four-wise independent
/// let bucket = h.eval_range(12345, 10);
/// assert!(bucket < 10);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KWiseHash {
    /// Independence parameter `k` (number of live coefficients).
    k: usize,
    /// Polynomial coefficients, constant term first, stored inline
    /// (no heap indirection on the evaluation hot path). The leading
    /// coefficient is forced nonzero so the polynomial has true
    /// degree `k-1`.
    coeffs: [M61; KWiseHash::MAX_K],
}

impl KWiseHash {
    /// Largest supported independence parameter (the workspace uses
    /// `k ≤ 4`; the inline bound keeps evaluation allocation-free).
    pub const MAX_K: usize = 8;

    /// Draws a function from the *k*-wise independent family using the
    /// supplied RNG.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `k > KWiseHash::MAX_K`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — k is a compile-time family parameter"
    )]
    pub fn new(k: usize, rng: &mut StdRng) -> Self {
        assert!(k >= 1, "independence parameter k must be at least 1");
        assert!(
            k <= Self::MAX_K,
            "independence parameter k above {}",
            Self::MAX_K
        );
        let mut coeffs = [M61::ZERO; Self::MAX_K];
        for c in coeffs.iter_mut().take(k) {
            *c = M61::new(rng.gen_range(0..P));
        }
        // Force true degree k-1 (harmless for independence, keeps the
        // family honest for k >= 2).
        if k >= 2 && coeffs[k - 1].is_zero() {
            coeffs[k - 1] = M61::ONE;
        }
        KWiseHash { k, coeffs }
    }

    /// Draws a function deterministically from a seed.
    pub fn from_seed(k: usize, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        KWiseHash::new(k, &mut rng)
    }

    /// The independence parameter `k` of the family this function was
    /// drawn from.
    pub fn independence(&self) -> usize {
        self.k
    }

    /// Evaluates the hash on `key`, returning a uniform value in
    /// `[0, 2^61 - 1)`.
    #[inline]
    pub fn eval(&self, key: u64) -> u64 {
        let x = M61::new(key);
        // Horner evaluation over the live coefficients.
        let mut acc = M61::ZERO;
        for &c in self.coeffs[..self.k].iter().rev() {
            acc = acc * x + c;
        }
        acc.value()
    }

    /// Evaluates the hash and maps it onto `[0, range)`.
    ///
    /// # Panics
    ///
    /// Panics if `range == 0`.
    #[inline]
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — a zero range is a caller bug"
    )]
    pub fn eval_range(&self, key: u64, range: u64) -> u64 {
        assert!(range > 0, "range must be positive");
        // Multiply-shift style range reduction; bias is O(range / P),
        // negligible for the ranges used here.
        ((self.eval(key) as u128 * range as u128) >> 61) as u64
    }

    /// Evaluates the hash and returns a geometric level: level `j` is
    /// returned with probability `2^-(j+1)` for `j < max_level`, and
    /// any overshoot is clamped to `max_level`.
    ///
    /// The `ℓ0`-sampler assigns coordinate `i` to all levels
    /// `0..=level(i)`; equivalently it stores `i` at the single level
    /// returned here and the sampler sums suffixes. We use the
    /// standard one-level-per-item variant: coordinate `i` lives at
    /// exactly `geometric_level(i)`.
    #[inline]
    pub fn geometric_level(&self, key: u64, max_level: u32) -> u32 {
        let v = self.eval(key);
        // 61 usable random bits; count trailing zeros.
        let tz = if v == 0 { 61 } else { v.trailing_zeros() };
        tz.min(max_level)
    }

    /// Evaluates the hash as a Boolean coin with probability 1/2.
    #[inline]
    pub fn eval_bit(&self, key: u64) -> bool {
        self.eval(key) & 1 == 1
    }
}

// The drawn coefficients *are* the function: persisting them verbatim
// makes a restored hash evaluate bit-identically without re-seeding.
// By hand: `k` is range-checked before any coefficient is read, and the
// fixed-size `coeffs` array travels without a length prefix.
impl mpc_snapshot::Persist for KWiseHash {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        w.put_usize(self.k);
        for c in &self.coeffs {
            c.save(w);
        }
    }
    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        let k = r.take_usize()?;
        if k == 0 || k > Self::MAX_K {
            return Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "independence parameter {k} outside 1..={}",
                Self::MAX_K
            )));
        }
        let mut coeffs = [M61::ZERO; Self::MAX_K];
        for c in coeffs.iter_mut() {
            *c = M61::load(r)?;
        }
        Ok(KWiseHash { k, coeffs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_from_seed() {
        let a = KWiseHash::from_seed(2, 99);
        let b = KWiseHash::from_seed(2, 99);
        for key in 0..100 {
            assert_eq!(a.eval(key), b.eval(key));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = KWiseHash::from_seed(2, 1);
        let b = KWiseHash::from_seed(2, 2);
        let same = (0..64).filter(|&k| a.eval(k) == b.eval(k)).count();
        assert!(same < 8, "two random hash functions should disagree");
    }

    #[test]
    fn range_is_respected() {
        let h = KWiseHash::from_seed(3, 5);
        for key in 0..1000 {
            assert!(h.eval_range(key, 17) < 17);
        }
    }

    #[test]
    fn range_roughly_uniform() {
        let h = KWiseHash::from_seed(2, 31);
        let range = 8u64;
        let mut counts = [0usize; 8];
        let trials = 8000;
        for key in 0..trials {
            counts[h.eval_range(key, range) as usize] += 1;
        }
        let expect = trials as f64 / range as f64;
        for (b, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expect).abs() / expect;
            assert!(dev < 0.2, "bucket {b} count {c} deviates {dev:.2}");
        }
    }

    #[test]
    fn geometric_levels_halve() {
        let h = KWiseHash::from_seed(2, 77);
        let mut level_counts = [0usize; 12];
        let trials = 1 << 15;
        for key in 0..trials {
            let l = h.geometric_level(key, 11);
            level_counts[l as usize] += 1;
        }
        // Level 0 should hold about half the keys, level 1 a quarter...
        assert!((level_counts[0] as f64 / trials as f64 - 0.5).abs() < 0.05);
        assert!((level_counts[1] as f64 / trials as f64 - 0.25).abs() < 0.05);
        assert!((level_counts[2] as f64 / trials as f64 - 0.125).abs() < 0.04);
    }

    #[test]
    fn pairwise_collision_rate_close_to_random() {
        // For a pairwise family, Pr[h(x) = h(y) mod R] ~ 1/R.
        let range = 64u64;
        let mut collisions = 0usize;
        let mut total = 0usize;
        for seed in 0..40 {
            let h = KWiseHash::from_seed(2, seed);
            for x in 0..40u64 {
                for y in (x + 1)..40 {
                    total += 1;
                    if h.eval_range(x, range) == h.eval_range(y, range) {
                        collisions += 1;
                    }
                }
            }
        }
        let rate = collisions as f64 / total as f64;
        assert!(
            (rate - 1.0 / range as f64).abs() < 0.01,
            "collision rate {rate}"
        );
    }

    #[test]
    #[should_panic(expected = "independence parameter k")]
    fn zero_k_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = KWiseHash::new(0, &mut rng);
    }

    #[test]
    #[should_panic(expected = "range must be positive")]
    fn zero_range_panics() {
        let h = KWiseHash::from_seed(2, 0);
        let _ = h.eval_range(3, 0);
    }
}
