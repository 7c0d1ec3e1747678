//! One-sparse vector recovery.
//!
//! Every sampler level keeps one cell — the arena's interleaved
//! `Cell` — summarizing an integer vector `X` with three linear
//! quantities: the value sum `Σ X_i`, the index-weighted sum
//! `Σ i·X_i`, and a polynomial fingerprint `Σ X_i · z^i`. If `X` has
//! exactly one nonzero coordinate, [`decode_parts`] recovers it
//! exactly; vectors that are not one-sparse are rejected with failure
//! probability `≤ support(X) / (2^61 - 1)` (Schwartz–Zippel on the
//! fingerprint).

use mpc_hashing::field::M61;

/// Decoded content of a one-sparse cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OneSparseDecode {
    /// The summarized vector is (w.h.p.) the zero vector.
    Zero,
    /// The summarized vector has exactly one nonzero coordinate
    /// `index` with value `weight`.
    One {
        /// The nonzero coordinate.
        index: u64,
        /// Its value.
        weight: i64,
    },
    /// The vector has two or more nonzero coordinates (w.h.p.).
    Many,
}

/// Decodes a bare cell triple (the storage the columnar arena keeps
/// per cell): the value sum, index-weighted sum, and fingerprint
/// accumulator, with the family's expected-fingerprint oracle
/// supplied by the caller. This is the one recovery routine of every
/// sampler column, arena column and merge scratch.
pub fn decode_parts(
    value_sum: i64,
    index_sum: i128,
    fp_value: M61,
    expected: impl FnOnce(u64, i64) -> M61,
) -> OneSparseDecode {
    if value_sum == 0 && index_sum == 0 && fp_value.is_zero() {
        return OneSparseDecode::Zero;
    }
    if value_sum != 0 && index_sum % value_sum as i128 == 0 {
        let candidate = index_sum / value_sum as i128;
        if candidate >= 0 && candidate <= u64::MAX as i128 {
            let index = candidate as u64;
            if fp_value == expected(index, value_sum) {
                return OneSparseDecode::One {
                    index,
                    weight: value_sum,
                };
            }
        }
    }
    OneSparseDecode::Many
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arena::Cell;
    use mpc_hashing::fingerprint::FingerprintFamily;

    /// An arena cell with the family that fills it: the storage and
    /// update routine every sampler level uses.
    struct Level {
        cell: Cell,
        family: FingerprintFamily,
    }

    impl Level {
        fn from_seed(seed: u64) -> Self {
            Level {
                cell: Cell::ZERO,
                family: FingerprintFamily::from_seed(seed),
            }
        }

        fn update(&mut self, index: u64, delta: i64) {
            let term = self.family.term(index);
            self.cell.apply(index as i128, delta, term);
        }

        fn decode(&self) -> OneSparseDecode {
            let c = &self.cell;
            decode_parts(c.value_sum, c.index_sum, c.fp, |i, w| {
                self.family.expected_one_sparse(i, w)
            })
        }
    }

    #[test]
    fn empty_decodes_zero() {
        assert_eq!(Level::from_seed(1).decode(), OneSparseDecode::Zero);
    }

    #[test]
    fn single_update_recovered() {
        let mut c = Level::from_seed(2);
        c.update(7, 5);
        assert_eq!(
            c.decode(),
            OneSparseDecode::One {
                index: 7,
                weight: 5
            }
        );
    }

    #[test]
    fn negative_weight_recovered() {
        let mut c = Level::from_seed(3);
        c.update(0, -1);
        assert_eq!(
            c.decode(),
            OneSparseDecode::One {
                index: 0,
                weight: -1
            }
        );
    }

    #[test]
    fn cancellation_returns_to_zero() {
        let mut c = Level::from_seed(4);
        c.update(11, 1);
        c.update(12, 1);
        c.update(11, -1);
        c.update(12, -1);
        assert_eq!(c.decode(), OneSparseDecode::Zero);
    }

    #[test]
    fn two_sparse_rejected() {
        for seed in 0..16 {
            let mut c = Level::from_seed(seed);
            c.update(3, 1);
            c.update(9, 1);
            assert_eq!(c.decode(), OneSparseDecode::Many, "seed {seed}");
        }
    }

    #[test]
    fn adversarial_index_mean_rejected() {
        // {3: +1, 9: +1} has value_sum 2, index_sum 12, candidate 6 —
        // only the fingerprint catches this.
        let mut c = Level::from_seed(5);
        c.update(3, 1);
        c.update(9, 1);
        assert!(matches!(c.decode(), OneSparseDecode::Many));
    }

    #[test]
    fn merge_is_vector_addition() {
        let mut a = Level::from_seed(6);
        let mut b = Level::from_seed(6);
        a.update(5, 2);
        b.update(5, -2);
        b.update(8, 1);
        a.cell.absorb(&b.cell);
        assert_eq!(
            a.decode(),
            OneSparseDecode::One {
                index: 8,
                weight: 1
            }
        );
    }

    #[test]
    fn mixed_sign_cancel_to_one_sparse() {
        let mut c = Level::from_seed(7);
        // value_sum becomes 0 while vector is 2-sparse: must not be
        // decoded as Zero or One.
        c.update(2, 1);
        c.update(4, -1);
        assert_eq!(c.decode(), OneSparseDecode::Many);
    }
}
