//! Approximate maximum matching in the streaming MPC model
//! (paper Section 8, Theorems 8.1, 8.2, 8.5, 8.6).
//!
//! Four components:
//!
//! * [`greedy::CappedGreedyMatching`] — the insertion-only
//!   `O(α)`-approximate matcher of Theorem 8.1: a greedy matching
//!   capped at `c·n/α` edges, processed batch-at-a-time.
//! * [`no21::MaximalMatching`] — the batch-dynamic *maximal* matching
//!   substrate standing in for Nowicki–Onak \[NO21\]
//!   (Proposition 8.4). Same interface and cost envelope; free
//!   vertices are re-matched by synchronized greedy proposal rounds.
//!   This is a documented substitution: the [`no21`] module docs
//!   give the mechanism and why its batch work is exact.
//! * [`akly::AklyMatching`] — the dynamic-stream `O(α)`-approximate
//!   matcher of Theorem 8.2 (\[AKLY16\]): random bipartition, `β`
//!   vertex groups per side, `γ` random *active pairs* per group,
//!   one `ℓ0`-sampler per active pair; the sampler outcomes form the
//!   sparsifier `H`, on which the maximal-matching substrate runs.
//! * [`tester::MatchingSizeEstimator`] — the `O(α)` matching-size
//!   estimators of Theorems 8.5/8.6 (\[AKL'21\]-style `Tester`
//!   subroutines at geometric guesses, with induced vertex sampling).

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

pub mod akly;
pub mod greedy;
pub mod no21;
mod sparsifier;
pub mod tester;

pub use akly::AklyMatching;
pub use greedy::CappedGreedyMatching;
pub use no21::MaximalMatching;
pub use tester::{MatchingSizeEstimator, StreamKind};

/// Registers this crate's snapshot decoders — `matching-akly`,
/// `matching-maximal`, and the two stream-kind registrations of the
/// size estimator (`matching-estimator-insert` /
/// `matching-estimator-dynamic`) — into a
/// [`MaintainerRegistry`](mpc_stream_core::MaintainerRegistry).
///
/// Both estimator kinds share one loader: the stream-kind tag inside
/// the payload decides the decoded `name()`, and `Session::restore`
/// refuses a section whose decoded name differs from its saved one.
pub fn register_snapshot_loaders(reg: &mut mpc_stream_core::MaintainerRegistry) {
    use mpc_stream_core::load_boxed;
    reg.register("matching-akly", load_boxed::<AklyMatching>);
    reg.register("matching-maximal", load_boxed::<MaximalMatching>);
    let estimator = load_boxed::<MatchingSizeEstimator>;
    reg.register("matching-estimator-insert", estimator);
    reg.register("matching-estimator-dynamic", estimator);
}
