//! Hashing substrate for the `mpc-stream` workspace.
//!
//! Sketch-based streaming algorithms (the `ℓ0`-samplers of
//! \[CJ19\] used throughout the paper, Lemma 3.1) need three primitives
//! and the seeded randomness they are drawn from, all provided here:
//!
//! * [`field`] — arithmetic in the Mersenne-prime field
//!   `GF(2^61 - 1)`, the standard modulus for streaming hash functions
//!   because reduction is two adds and a shift.
//! * [`kwise`] — *k*-wise independent polynomial hash families over
//!   that field. Pairwise independence is what the `ℓ0`-sampler's
//!   level assignment needs; the matching testers of Section 8 use
//!   four-wise families.
//! * [`fingerprint`] — linear polynomial fingerprints used by the
//!   one-sparse recovery test inside each sampler level: a seeded
//!   [`FingerprintFamily`](fingerprint::FingerprintFamily) supplies the
//!   terms `z^i`, and [`accumulate`](fingerprint::accumulate) folds
//!   them into a cell's bare field accumulator. Linearity is what
//!   makes the sketches mergeable (Remark 3.2 of the paper).
//! * [`rng`] — the workspace's one generator,
//!   [`StdRng`](rng::StdRng) (xoshiro256++ seeded through SplitMix64).
//!   Hash coefficients, fingerprint points and the graph generators
//!   all draw from it, so its stream is part of every seed's meaning.
//!
//! # Examples
//!
//! ```
//! use mpc_hashing::kwise::KWiseHash;
//!
//! let h = KWiseHash::from_seed(2, 42); // a pairwise-independent function
//! let x = h.eval(17);
//! assert_eq!(x, h.eval(17)); // deterministic
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

pub mod field;
pub mod fingerprint;
pub mod kwise;
pub mod rng;

pub use field::M61;
pub use kwise::KWiseHash;
