//! The flat loops every sketch operation bottoms out in: the column
//! fold `fold_cells` of [`SketchArena::merge_into`] and
//! [`L0Sampler::merge`], its subtracting twin `unfold_cells` of
//! [`SketchArena::subtract_from`], the cell write of
//! [`SketchArena::update_columns`]' apply loop and the scratch update,
//! and the zero-skip scan in front of `decode_parts` on the sample
//! paths. Every loop runs over interleaved `Cell` columns: pool,
//! merge scratch and standalone sampler share the one layout.
//!
//! There is one implementation, in safe scalar Rust, written over
//! zips with simple per-field bodies so LLVM can auto-vectorize it.
//! All integer sums wrap explicitly: the arena's accounting is
//! defined over two's-complement wrap (a cancellation can transit
//! through "negative" partial sums), and fingerprints add in
//! `GF(2^61 - 1)` by conditional subtract — no floats, nothing
//! non-associative reassociated, so same seeds and stream give
//! bit-identical cells, samples and snapshot bytes on every host.
//! Why there is no hand-vectorized tier: see the crate root.
//!
//! [`SketchArena::merge_into`]: crate::arena::SketchArena::merge_into
//! [`SketchArena::subtract_from`]: crate::arena::SketchArena::subtract_from
//! [`SketchArena::update_columns`]: crate::arena::SketchArena::update_columns
//! [`L0Sampler::merge`]: crate::l0::L0Sampler::merge

use crate::arena::Cell;
use mpc_hashing::field::M61;

/// The implementation the arena loops run at: always the scalar one.
///
/// Retained only because the frozen `benchmark/` package records
/// `KernelKind::selected().name()` in its host line
/// (`benchmark/src/main.rs`); the next PR that edits `benchmark/`
/// should drop that read and this type with it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelKind {
    /// Safe scalar loops (auto-vectorization friendly).
    Scalar,
}

impl KernelKind {
    /// The implementation in use — there is only one.
    pub fn selected() -> KernelKind {
        KernelKind::Scalar
    }

    /// Short lowercase name (`"scalar"`).
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// Folds one interleaved cell column into another (`dst[j] +=
/// src[j]`, component-wise). Both slices must have equal length.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn fold_cells(dst: &mut [Cell], src: &[Cell]) {
    debug_assert!(dst.len() == src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.absorb(s);
    }
}

/// The subtracting twin of [`fold_cells`] (`dst[j] -= src[j]`,
/// component-wise). Wrapping and field subtraction are the exact
/// inverses of the adds, so a column built by subtracting equals, bit
/// for bit, the negation of the one built by adding. Both slices must
/// have equal length.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn unfold_cells(dst: &mut [Cell], src: &[Cell]) {
    debug_assert!(dst.len() == src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        d.value_sum = d.value_sum.wrapping_sub(s.value_sum);
        d.index_sum = d.index_sum.wrapping_sub(s.index_sum);
        d.fp -= s.fp;
    }
}

/// The fingerprint increment of one `X[index] += delta` update as a
/// single field element, so a cell write is a plain component-wise
/// cell add. Matches `accumulate(acc, term, delta)` exactly: for
/// `delta = 1` both add `term`; for `delta = -1`, `acc - term` and
/// `acc + (-term)` are the same conditional-subtract expression in
/// `GF(2^61 - 1)`; otherwise both add `term · delta`.
#[inline]
pub(crate) fn fp_delta(term: M61, delta: i64) -> M61 {
    match delta {
        1 => term,
        -1 => -term,
        d => term * M61::from_i64(d),
    }
}

/// The one-cell write behind every pool write (the apply loop of
/// `SketchArena::update_columns`) and the scratch update: applies
/// `X[index] += delta` to a cell given the widened index `weighted`
/// and the fingerprint term — value/index wrapping adds plus the
/// [`fp_delta`] field add.
#[inline]
pub(crate) fn cell_apply(cell: &mut Cell, weighted: i128, delta: i64, term: M61) {
    cell.value_sum = cell.value_sum.wrapping_add(delta);
    cell.index_sum = cell
        .index_sum
        .wrapping_add(weighted.wrapping_mul(delta as i128));
    cell.fp += fp_delta(term, delta);
}

/// Index of the highest nonzero cell strictly below `below` in an
/// interleaved column, or `None` if all are zero — the zero-skip scan
/// in front of `decode_parts` on the sample paths.
pub(crate) fn top_nonzero_cells(cells: &[Cell], below: usize) -> Option<usize> {
    cells[..below].iter().rposition(|c| !c.is_zero())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_hashing::field::P;

    /// `GF(2^61 - 1)` add over raw reduced representatives: one add
    /// (cannot overflow: both inputs `< 2^61`) and one conditional
    /// subtract — the recipe `M61::add` must stay bit-for-bit equal
    /// to.
    fn m61_add_raw(a: u64, b: u64) -> u64 {
        let s = a + b;
        if s >= P {
            s - P
        } else {
            s
        }
    }

    #[test]
    fn m61_add_raw_matches_field_add() {
        let cases = [0u64, 1, 7, P - 1, P / 2, 0x1234_5678_9abc];
        for &a in &cases {
            for &b in &cases {
                assert_eq!(
                    m61_add_raw(a, b),
                    (M61::from_reduced(a) + M61::from_reduced(b)).value(),
                    "{a} + {b}"
                );
            }
        }
    }

    #[test]
    fn unfold_is_the_exact_inverse_of_fold() {
        // Extremes included: the wrap points of both integer widths
        // and the field's largest element.
        let src = [
            Cell {
                index_sum: i128::MIN,
                value_sum: i64::MIN,
                fp: M61::from_reduced(P - 1),
            },
            Cell {
                index_sum: -7,
                value_sum: 3,
                fp: M61::new(12345),
            },
            Cell::ZERO,
        ];
        let column = |vs: [i64; 3], is: [i128; 3], fp: [M61; 3]| -> Vec<Cell> {
            (0..3)
                .map(|j| Cell {
                    index_sum: is[j],
                    value_sum: vs[j],
                    fp: fp[j],
                })
                .collect()
        };
        let mut dst = column([5, -1, 0], [9, 0, -2], [M61::new(4); 3]);
        let before = dst.clone();
        fold_cells(&mut dst, &src);
        unfold_cells(&mut dst, &src);
        assert_eq!(dst, before);
        // From zero, subtracting yields the negated column.
        let mut dst = vec![Cell::ZERO; 3];
        unfold_cells(&mut dst, &src);
        for (d, c) in dst.iter().zip(&src) {
            assert_eq!(d.value_sum, c.value_sum.wrapping_neg());
            assert_eq!(d.index_sum, c.index_sum.wrapping_neg());
            assert_eq!(d.fp, -c.fp);
        }
    }

    #[test]
    fn top_nonzero_scans() {
        let mut cells = vec![Cell::ZERO; 8];
        assert_eq!(top_nonzero_cells(&cells, 8), None);
        cells[3].value_sum = 1;
        cells[6].fp = M61::new(9);
        assert_eq!(top_nonzero_cells(&cells, 8), Some(6));
        assert_eq!(top_nonzero_cells(&cells, 6), Some(3));
        assert_eq!(top_nonzero_cells(&cells, 3), None);
    }

    #[test]
    fn fp_delta_matches_accumulate() {
        use mpc_hashing::fingerprint::accumulate;
        let terms = [M61::ZERO, M61::new(1), M61::new(12345), -M61::new(7)];
        for &term in &terms {
            for delta in [-3i64, -1, 0, 1, 2, 9] {
                for &acc in &terms {
                    assert_eq!(
                        acc + fp_delta(term, delta),
                        accumulate(acc, term, delta),
                        "term {term} delta {delta} acc {acc}"
                    );
                }
            }
        }
    }
}
