//! Intrinsic validation of the distributed tour representation.
//!
//! [`validate`] reconstructs every tour from the per-edge index
//! positions its handles give and checks that it is a well-formed
//! closed Euler walk of its tree, held by the tour's blocks in that
//! order. The test suites call it after every operation, so any bug in
//! rooting, splicing, or splitting is caught at the operation that
//! introduced it.

use crate::dist::{DistEtf, TourId};
use mpc_graph::ids::VertexId;
use std::collections::BTreeMap;

/// A violation found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TourViolation {
    /// Two entries claim the same position.
    PositionClash {
        /// Offending tour.
        tour: TourId,
        /// The contested position.
        pos: u64,
    },
    /// Positions do not cover `1..=len` exactly.
    PositionGap {
        /// Offending tour.
        tour: TourId,
        /// First uncovered position.
        pos: u64,
    },
    /// The walk is not continuous (`to` of one traversal differs from
    /// `from` of the next) or not closed, or a block holds another
    /// traversal at some position than the one the handles put there.
    BrokenWalk {
        /// Offending tour.
        tour: TourId,
        /// Boundary position at which continuity fails.
        pos: u64,
    },
    /// A vertex's recorded tour disagrees with where its edges are.
    WrongTourLabel {
        /// The mislabelled vertex.
        vertex: VertexId,
    },
}

impl std::fmt::Display for TourViolation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TourViolation::PositionClash { tour, pos } => {
                write!(f, "tour {tour}: two entries at position {pos}")
            }
            TourViolation::PositionGap { tour, pos } => {
                write!(f, "tour {tour}: no entry at position {pos}")
            }
            TourViolation::BrokenWalk { tour, pos } => {
                write!(f, "tour {tour}: walk discontinuity at position {pos}")
            }
            TourViolation::WrongTourLabel { vertex } => {
                write!(f, "vertex {vertex} carries the wrong tour id")
            }
        }
    }
}

impl std::error::Error for TourViolation {}

/// Reconstructs the entry sequence of every tour from the per-edge
/// positions, checks it is a valid closed Euler walk, and checks that
/// the tour's blocks hold that walk.
///
/// # Errors
///
/// Returns the first violation found.
pub fn validate(etf: &DistEtf) -> Result<(), TourViolation> {
    for t in etf.tours() {
        // Reassemble this tour's entry sequence from its records.
        let mut entries: BTreeMap<u64, VertexId> = BTreeMap::new();
        for (e, rec) in etf.tour_edges(t) {
            for trav in [rec.first, rec.second] {
                let to = e.other(trav.from);
                for (pos, vertex) in [(trav.pos, trav.from), (trav.pos + 1, to)] {
                    if entries.insert(pos, vertex).is_some() {
                        return Err(TourViolation::PositionClash { tour: t, pos });
                    }
                }
            }
            // Edge endpoints must carry the edge's tour id.
            for v in [e.u(), e.v()] {
                if etf.tour_of(v) != t {
                    return Err(TourViolation::WrongTourLabel { vertex: v });
                }
            }
        }
        // Coverage of 1..=len: a tour of `len / 4` edges that passed the
        // clash check holds exactly `len` distinct positions, all ≥ 1, so
        // none lies beyond `len` unless one inside it is missing.
        let len = etf.tour_len(t);
        if let Some(pos) = (1..=len).find(|pos| !entries.contains_key(pos)) {
            return Err(TourViolation::PositionGap { tour: t, pos });
        }
        // The blocks hold, traversal by traversal, the walk the records
        // describe.
        for (pos, from, to) in etf.walk(t) {
            if entries.get(&pos) != Some(&from) || entries.get(&(pos + 1)) != Some(&to) {
                return Err(TourViolation::BrokenWalk { tour: t, pos });
            }
        }
        // Walk continuity: entry 2i must equal entry 2i+1 (vertex at
        // the seam between consecutive traversals), and closed.
        if len > 0 {
            for seam in 1..(len / 2) {
                let a = entries[&(2 * seam)];
                let b = entries[&(2 * seam + 1)];
                if a != b {
                    return Err(TourViolation::BrokenWalk {
                        tour: t,
                        pos: 2 * seam,
                    });
                }
            }
            if entries[&len] != entries[&1] {
                return Err(TourViolation::BrokenWalk { tour: t, pos: len });
            }
        }
        // Member labels must match.
        for &v in etf.tour_members(t) {
            if etf.tour_of(v) != t {
                return Err(TourViolation::WrongTourLabel { vertex: v });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::ids::Edge;
    use mpc_sim::{MpcConfig, MpcContext};

    #[test]
    fn fresh_forest_validates() {
        validate(&DistEtf::new(5)).expect("singletons valid");
    }

    #[test]
    fn violations_display() {
        for (v, needle) in [
            (
                TourViolation::BrokenWalk { tour: 3, pos: 8 },
                "discontinuity",
            ),
            (
                TourViolation::PositionClash { tour: 2, pos: 3 },
                "two entries",
            ),
            (TourViolation::PositionGap { tour: 2, pos: 5 }, "no entry"),
            (TourViolation::WrongTourLabel { vertex: 7 }, "wrong tour"),
        ] {
            assert!(
                format!("{v}").contains(needle),
                "{v:?} display lacks {needle:?}"
            );
        }
    }

    #[test]
    fn violations_are_std_errors() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(TourViolation::WrongTourLabel { vertex: 0 });
    }

    /// The validator is not a rubber stamp: each fault injected into a
    /// valid path 0-1-2-3 is reported as its own variant.
    #[test]
    fn validator_catches_manual_corruption() {
        let mut ctx = MpcContext::new(MpcConfig::builder(8, 0.5).build());
        let mut etf = DistEtf::new(4);
        for i in 0..3 {
            etf.join(Edge::new(i, i + 1), &mut ctx);
        }
        validate(&etf).expect("valid before corruption");
        let t = etf.tour_of(0);
        let fault = |inject: &dyn Fn(&mut DistEtf)| {
            let mut bad = etf.clone();
            inject(&mut bad);
            validate(&bad)
        };
        // The walk is 0→1, 1→2, 2→3, 3→2, 2→1, 1→0, in one block.
        let clash = fault(&|etf| etf.aim_like((1, 2), (0, 1)));
        assert_eq!(clash, Err(TourViolation::PositionClash { tour: t, pos: 1 }));
        let swapped = fault(&|etf| etf.swap_traversals(t, 0, 1));
        assert_eq!(swapped, Err(TourViolation::BrokenWalk { tour: t, pos: 1 }));
        let label = fault(&|etf| etf.set_vertex_tour(3, t + 1));
        assert_eq!(label, Err(TourViolation::WrongTourLabel { vertex: 3 }));
    }
}
