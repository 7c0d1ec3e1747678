//! Distributed Euler-tour forests (paper Sections 5 and 6.2).
//!
//! The connectivity and MSF algorithms maintain their spanning forest
//! as a collection of *Euler tours*: for each tree, a closed walk
//! that traverses every edge exactly twice, represented by **per-edge
//! index positions** — every forest edge has the positions at which its
//! two traversals appear in its tree's tour, and every vertex's
//! first/last occurrence (`f(v)`, `ℓ(v)`) is derived from its incident
//! edges. This is the paper's representation: operations become
//! *index arithmetic* driven by a few broadcast words, which is what
//! makes them `O(1)` MPC rounds. The paper only needs the positions to
//! be readable; the host reads them off a block sequence (below).
//!
//! # Per-tour sharded storage
//!
//! Each tour is stored once, as one record: the sequence of its
//! traversals, held in **blocks** of at most `B` consecutive
//! traversals `(from, to)` (one slab of blocks serves the whole
//! forest), and its sorted member list. Each block stores the tour
//! index of its first traversal, so traversal `i` of a tour sits at
//! positions `2i + 1` and `2i + 2`, read as `2·(start + slot) + 1` —
//! exact and gap-free, and never stored. Each adjacency-row entry
//! `adj[v] ∋ w` carries the `(block, slot)` handle of the traversal
//! `v → w`, so an edge's record ([`DistEtf::edge_rec`]), a vertex's
//! `f`/`ℓ` ([`DistEtf::f_l`]) and its occurrences are read off its
//! handles without a search in the tour, and a record's tour id is its
//! endpoints' label. A tour's length `4·(|T|−1)` is derived from its
//! blocks, as in the paper, where a tour is nothing but its edges'
//! positions.
//!
//! Every operation is a block splice of cost `O(B + blocks)`: a reroot
//! splits one block at the new root's first traversal and rotates the
//! block list; a join splits the root's block at each attach point and
//! links the children's blocks in whole, between the new edges'
//! traversals; a split makes each deleted traversal the last of its
//! block and drops it, so every region is a run of whole blocks less
//! the runs nested in it, found by a binary search per cut. The region
//! that keeps the most traversals keeps the member list, and every
//! other region reads its members off its own traversals. After a
//! splice the touched tours' block starts are recomputed from the first
//! block it touched, a block that fell below `B / 4` is merged with its
//! neighbour, and only the traversals of blocks that were split or
//! merged have their handles moved. Tour ids, snapshot bytes and model
//! charges are those of the paper's per-edge positions.
//!
//! A snapshot keeps the paper's per-edge form: each tour's records in
//! edge order, which a writer gets by walking the sorted members and
//! each one's row entries above it. A load refuses, as
//! `SnapshotError::Corrupt`, every state in which the tables disagree:
//! a stored length other than `4·|edges|`, a shard or member list
//! without its tour, member lists that do not partition the vertices or
//! do not number one more than their tour's edges, a record endpoint
//! outside its tour, an adjacency row that is not strictly ascending,
//! adjacency that does not match the records, a traversal at an even
//! position or past its tour's end, two traversals at one position
//! (which a block sequence cannot hold; with the parity and range
//! checks it also rules out a gap), and a tour-id allocator at or below
//! a live id. Walk continuity (the seams) is the validator's to check.
//!
//! The tree adjacency is one strictly ascending row per vertex, so
//! [`DistEtf::contains_edge`] is a binary search of one row and reads
//! no tour. A batch join's plan (auxiliary tree, parents, attach
//! points) is held in vectors indexed by the batch's touched tours,
//! sorted: its cost follows the batch, not the forest.
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
//! coordinator computes the equivalent plan (`O(k)` words, identical
//! round cost) from the same auxiliary tree: per child, the traversal
//! of its parent in front of which it enters; the result is the same
//! splice the paper describes, without its case analysis. Finally,
//! where the paper's machines store each edge's positions and rewrite
//! them from the broadcast plan, the host stores the traversal sequence
//! in blocks and *derives* the positions: a join or split relinks whole
//! blocks and renumbers only block starts, so its local work follows
//! the number of blocks, not the tour's length. The model's accounted
//! words ([`DistEtf::words`], six per edge) and every charge stay the
//! paper's per-edge positions. All deviations are
//! behaviour-preserving and are validated by the intrinsic tour
//! checker, which also checks that the blocks hold the walk the
//! positions describe.

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
