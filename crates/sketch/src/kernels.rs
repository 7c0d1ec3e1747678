//! The flat loops every sketch operation bottoms out in: the
//! converge-cast column folds of [`SketchArena::merge_into`] and the
//! subtracting fold of [`SketchArena::subtract_from`], the cell write
//! of [`SketchArena::update_columns`]' apply loop, and the zero-skip
//! scan in front of `decode_parts` on the sample paths.
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

/// Folds a span of interleaved cells into struct-of-arrays scratch
/// columns: `vs[j] += src[j].value_sum`, `is[j] += src[j].index_sum`,
/// `fp[j] += src[j].fp` (field add). All four slices must have equal
/// length.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn fold_cells_soa(src: &[Cell], vs: &mut [i64], is: &mut [i128], fp: &mut [M61]) {
    debug_assert!(vs.len() == src.len() && is.len() == src.len() && fp.len() == src.len());
    for (((c, v), i), f) in src.iter().zip(vs).zip(is).zip(fp) {
        *v = v.wrapping_add(c.value_sum);
        *i = i.wrapping_add(c.index_sum);
        *f += c.fp;
    }
}

/// The subtracting twin of [`fold_cells_soa`]: `vs[j] -=
/// src[j].value_sum`, `is[j] -= src[j].index_sum`, `fp[j] -=
/// src[j].fp` (field subtract). Wrapping and field subtraction are the
/// exact inverses of the adds above, so an accumulator built by
/// subtracting columns equals, bit for bit, the negation of the one
/// built by adding them. All four slices must have equal length.
#[expect(
    clippy::disallowed_macros,
    reason = "a debug_assert!, which clippy reads as the assert! it expands to"
)]
pub(crate) fn unfold_cells_soa(src: &[Cell], vs: &mut [i64], is: &mut [i128], fp: &mut [M61]) {
    debug_assert!(vs.len() == src.len() && is.len() == src.len() && fp.len() == src.len());
    for (((c, v), i), f) in src.iter().zip(vs).zip(is).zip(fp) {
        *v = v.wrapping_sub(c.value_sum);
        *i = i.wrapping_sub(c.index_sum);
        *f -= c.fp;
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
        let (mut vs, mut is, mut fp) = ([5i64, -1, 0], [9i128, 0, -2], [M61::new(4); 3]);
        let before = (vs, is, fp);
        fold_cells_soa(&src, &mut vs, &mut is, &mut fp);
        unfold_cells_soa(&src, &mut vs, &mut is, &mut fp);
        assert_eq!((vs, is, fp), before);
        // From zero, subtracting yields the negated column.
        let (mut vs, mut is, mut fp) = ([0i64; 3], [0i128; 3], [M61::ZERO; 3]);
        unfold_cells_soa(&src, &mut vs, &mut is, &mut fp);
        for (j, c) in src.iter().enumerate() {
            assert_eq!(vs[j], c.value_sum.wrapping_neg());
            assert_eq!(is[j], c.index_sum.wrapping_neg());
            assert_eq!(fp[j], -c.fp);
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
