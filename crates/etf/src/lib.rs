//! Distributed Euler-tour forests (paper Sections 5 and 6.2).
//!
//! The connectivity and MSF algorithms maintain their spanning forest
//! as a collection of *Euler tours*: for each tree, a closed walk
//! that traverses every edge exactly twice, represented **only by
//! per-edge index positions** — every forest edge stores the four
//! positions at which its two traversals appear in its tree's tour,
//! and every vertex's first/last occurrence (`f(v)`, `ℓ(v)`) is
//! derived from its incident edges. This is exactly the paper's
//! representation: operations become *index arithmetic* driven by a
//! few broadcast words, which is what makes them `O(1)` MPC rounds.
//!
//! # Per-tour sharded storage
//!
//! Each tour is stored once, as one record: its **edge shard** (edge
//! records sorted by edge, [`DistEtf::tour_edges`]) and its sorted
//! member list. Its length `4·(|T|−1)` is derived from the shard, as in
//! the paper, where a tour is nothing but its edges' positions. The
//! shards match the paper's protocol in which every machine remaps
//! *its own* shard from an `O(k)`-word broadcast plan. Reroot, join,
//! split, and the batch operations therefore touch only the affected
//! tours' records — `O(|tour|)` work per operation at most, never
//! `O(|forest|)` — and tour-id reassignment moves whole shards by
//! splice (an in-place sorted-run merge) rather than per-edge rewrites.
//!
//! A join costs what it attaches, and a split what it cuts off. A tour
//! keeps its shard in two runs: a **base** run whose positions predate
//! the joins it has anchored and the splits it has survived since its
//! last full pass, with a **pending position map** — the composition of
//! those operations' plans, a monotone piecewise translation with signed
//! offsets, defined on the positions that still hold base records — and
//! a small **fresh** run of the records those joins attached, at exact
//! positions. A join composes its plan onto the pending map (one merge
//! walk over the two piece lists), remaps the fresh run, and splices the
//! children's remapped records into it. A split sweeps its `O(k)` cuts
//! into a plan and keeps the tour record for its longest region; it
//! walks the forest adjacency of every other region (the deleted edges
//! already out of it) to learn its edges and members, takes those
//! records and the deleted ones out of both runs in one front-to-back
//! pass (a galloping search per key, one block move per record taken),
//! renumbers them into their regions, renumbers the fresh run, and
//! composes the kept region's renumbering onto the pending map. When
//! the kept region is a cut's interior, it takes a fresh tour id, which
//! is written into every record and member it keeps, one word each.
//! Otherwise neither operation touches the rest of the base. Every read ([`DistEtf::edge_rec`],
//! [`DistEtf::occurrences`], [`DistEtf::f_l`], [`DistEtf::tour_edges`],
//! the validator, the snapshot writer) goes through the map, so
//! positions stay contiguous and tour ids, snapshot bytes and model
//! charges are those of an eager remap; a whole-run read (the snapshot
//! writer, a full pass) looks positions up through a jump table instead
//! of a binary search per position. The pending work is applied on the
//! next full pass over the tour — a reroot, or a join in which the tour
//! is a child, applies it first — or by the join or split after which
//! fresh records plus map pieces exceed a fixed share (one sixteenth)
//! of the base, or after which the fresh records remapped and
//! renumbered since the last full pass outnumber the base records: a
//! fresh run that outlives many operations costs them about one pass.
//!
//! A snapshot load refuses, as `SnapshotError::Corrupt`, every state in
//! which the tables disagree: a stored length other than `4·|edges|`,
//! a shard or member list without its tour, member lists that do not
//! partition the vertices or do not number one more than their tour's
//! edges, a record endpoint outside its tour, an adjacency row that is
//! not strictly ascending, adjacency that does not match the records,
//! a traversal at an even position or past its tour's end, and a
//! tour-id allocator at or below a live id. The rest of tour-walk
//! validity (clashes, coverage, seams) is the validator's to check.
//!
//! The tree adjacency is one strictly ascending row per vertex, so
//! [`DistEtf::contains_edge`] is a binary search of one row and reads
//! no shard, and [`DistEtf::f_l`] is one pass over a row's records.
//! A batch join's plan (auxiliary tree, parents, children, subtree
//! totals, per-node plans) is held in vectors indexed by the batch's
//! touched tours, sorted: its cost follows the batch, not the forest.
//!
//! Operations ([`DistEtf`]):
//!
//! * `reroot` — rotate a tour to start at a given vertex
//!   (Lemma 5.1 "Rooting").
//! * `join` / `split` — link/cut a single edge (Lemma 5.1).
//! * `batch_join` — keep a spanning forest `F_H` of the auxiliary
//!   graph that `k` candidate edges induce over the tours (Section
//!   6.1, Claim 6.1) and splice along it in one shot via the
//!   auxiliary-sequence construction of Section 6.2.
//! * `try_batch_split` — remove `k` tree edges in one shot, the
//!   laminar inverse of `batch_join` (Section 6.3); `batch_split` is
//!   its panicking form for drivers that size batches to one machine.
//! * `tour_label` / `label_tours` — the component-label rule: a
//!   tree's label is its smallest member, the first entry of its
//!   tour's sorted member list.
//! * [`EdgeRec::on_path`](dist::EdgeRec::on_path) — whether a tree
//!   edge lies on the path between two vertices, by a purely local
//!   interval test on their first and last occurrences (Lemma 7.2,
//!   used by the exact-MSF algorithm).
//!
//! Every operation takes an [`MpcContext`](mpc_sim::MpcContext) and
//! charges the broadcast/gather rounds the paper's protocol would
//! spend; all index updates are per-machine-local.
//!
//! The [`tour`] module provides an *intrinsic validator*: it checks
//! that the per-edge indices of every tour reassemble into a valid
//! closed Euler walk. The test suites run it after every operation.
//!
//! # Deviations from the paper's presentation
//!
//! The paper's Rooting formula rotates at `ℓ(u)`; with the
//! endpoint-sequence convention used here (each traversal contributes
//! its two endpoints), a valid cut point must lie on a traversal
//! boundary, so we rotate at the first *outgoing* traversal of the
//! new root instead (`f(u)+1` for a non-root, which is always such a
//! boundary). Likewise, instead of replaying the four-case
//! incremental shift derivation of Section 6.2 literally, the
//! coordinator computes the equivalent per-tree offset tables
//! (`O(k)` words, identical round cost) from the same auxiliary
//! sequence; the result is the same splice the paper describes,
//! without its case analysis. Finally, where the paper's machines
//! conceptually rewrite each edge record in place from the broadcast
//! plan, a join moves whole shards by **map-splice**: a tour absorbed
//! by a join has its entire record array remapped once and merged
//! into the destination's fresh run, and the destination defers its
//! own remap as a pending map (see above), which is at most the same
//! `O(|affected tours|)` local work with far better constants than
//! per-edge rewrites. A split finds the regions it cuts off by walking
//! the forest adjacency rather than by scanning the shard for their
//! positions, moves their records out as whole arrays under fresh tour
//! ids, and defers the longest region's renumbering, so its work
//! follows what leaves the tour, not the tour's length. All deviations
//! are behaviour-preserving and are validated by the intrinsic tour
//! checker, which also checks that every record carries its shard's
//! tour id ([`tour::TourViolation::ShardMismatch`]).

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

pub mod batch;
pub mod dist;
pub mod tour;

pub use dist::{DistEtf, TourId};
