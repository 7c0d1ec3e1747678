//! Linear `ℓ0`-sampling sketches and AGM graph sketches.
//!
//! This crate implements the sketching toolkit of the paper's
//! Section 3.1:
//!
//! * [`one_sparse::decode_parts`] — exact recovery of vectors with at
//!   most one nonzero coordinate from one cell's count / index-sum /
//!   fingerprint triple.
//! * [`l0::L0Sampler`] — the `ℓ0`-sampler of Lemma 3.1
//!   (\[CJ19\]): geometric sub-sampling levels, each holding a
//!   one-sparse cell. On query it returns a (near-)uniform nonzero
//!   coordinate, `⊥` for the zero vector, or an explicit failure.
//! * [`vertex::VertexSketch`] — the AGM vertex sketch of the vector
//!   `X_v` over edge space with the `±1` orientation convention, so
//!   sketches of a vertex set `A` sum to a sketch of the cut
//!   `E(A, V∖A)` (Lemma 3.3, \[AGM12\]).
//! * [`bank::SketchBank`] — `t = Θ(log n)` independent sketch copies
//!   per vertex, lazily materialized, as required by the
//!   batch-deletion algorithm of the paper's Section 6.3.
//! * [`cascade`] — the Borůvka cascade over a bank's copies (Section
//!   6.3; the copies boost Lemma 3.1's sampler), written once with its
//!   one stop rule: one group left, or a level with no union and no
//!   `Fail`. It is model-free, so this crate needs no `mpc-sim`:
//!   probes charge nothing, and each caller charges its rounds per
//!   level. Each level groups the nodes by one counting pass over
//!   their roots into reused buffers, `O(k)` for `k` nodes.
//!
//! All sketches are **linear**: merging two sketches of vectors `X`
//! and `Y` (same seed family) yields a sketch of `X + Y` exactly
//! (Remark 3.2). Property tests in this crate verify linearity on
//! random update sequences.
//!
//! # Storage: the columnar arena
//!
//! A bank's `n × t × levels` cell grid lives in the [`arena`] module's
//! [`SketchArena`]: one contiguous pool of interleaved 32-byte cells
//! (value sum + index-weighted sum + fingerprint accumulator), a
//! live-level bitmask per column, plus one
//! [`arena::SketchFamily`] per copy holding the level hash and the
//! fingerprint point with its power tables — seeded **once per copy**
//! rather than once per materialized sketch. An edge update is one
//! level-hash/fingerprint evaluation per copy and two planned cell
//! writes (plus their live-mask bits), applied a stack buffer at a
//! time by [`SketchBank::update_edges`]; a Borůvka component merge
//! streams member columns into a
//! reusable [`arena::MergeScratch`] accumulator with zero allocations
//! and zero sketch clones.
//!
//! A merge can also take single updates:
//! [`SketchBank::update_edge_into`] applies to the scratch what
//! `delete_edge` / `insert_edge` would have written to one endpoint's
//! column, and sets that level's bit in the scratch's union mask. By
//! linearity the scratch then holds the merge of a bank that received
//! the update, so a caller samples a residual graph — the bank minus
//! a few edges — without cloning the bank (`mpc-kconn`'s certificate
//! peel does this per layer).
//!
//! **Host representation vs accounted shape.** [`L0Sampler::words`]
//! and the bank's word counts report the paper's *dense* `levels ×
//! cell` layout per materialized column — that is the shape the MPC
//! model's machines must budget for, and (since this refactor) also
//! literally the host layout, so a column's accounted words never
//! change as cells cancel to zero or refill. The dense column is also
//! *canonical*: two permutations of one update stream produce
//! bit-identical storage, which keeps sketch equality structural.
//!
//! # One scalar loop set
//!
//! The flat loops every sketch operation bottoms out in — span folds
//! of cell columns, the cell write, the zero-skip scan in front of
//! the one-sparse decoder — have exactly one implementation: the safe
//! scalar functions of the [`kernels`] module. Hand-written SSE2/AVX2
//! tiers were measured and deleted under the ROADMAP's "win or
//! delete" rule: SSE2 was at parity and AVX2 at 0.8× on the 64-member
//! merged copy and 0.83–0.89× on the 4,096-insert update stream
//! (CHANGES.md, PRs 9 and 15), and the traced benchmark puts the
//! merge path at ≤ 21 % of any workload (`benchmark/README.md`), so
//! even a 1.3× fold would be worth < 5 % end to end — below the
//! run-to-run spread. Both paths are re-measured by experiment E10b
//! (`merged_copy`, `update_stream_4k`) in `mpc-bench`.
//!
//! # Examples
//!
//! ```
//! use mpc_sketch::l0::{L0Sampler, SampleOutcome};
//!
//! let mut s = L0Sampler::new(1 << 20, 42);
//! s.update(12345, 1);
//! match s.sample() {
//!     SampleOutcome::Sample { index, weight } => {
//!         assert_eq!((index, weight), (12345, 1));
//!     }
//!     other => panic!("unexpected outcome {other:?}"),
//! }
//! ```

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

pub mod arena;
pub mod bank;
pub mod cascade;
pub mod kernels;
pub mod l0;
pub mod one_sparse;
pub mod vertex;

pub use arena::{MergeScratch, SketchArena, SketchFamily};
pub use bank::SketchBank;
pub use kernels::KernelKind;
pub use l0::{L0Sampler, SampleOutcome};
pub use vertex::VertexSketch;
