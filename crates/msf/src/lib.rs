//! Minimum spanning forests and bipartiteness in the streaming MPC
//! model (paper Section 7, Theorems 7.1 and 7.3).
//!
//! Three algorithms, all built on the connectivity core:
//!
//! * [`exact::ExactMsf`] — exact MSF under **insertion-only** batches
//!   (Section 7.1). Maintains the forest as Euler tours; each batch
//!   resolves cross-component edges by a coordinator-local Kruskal
//!   over the auxiliary graph and intra-component edges by parallel
//!   `Identify-Path` heaviest-edge swaps.
//! * [`approx::ApproxMsfWeight`] / [`approx::ApproxMsfForest`] —
//!   `(1+ε)`-approximate MSF weight and forest under **arbitrary**
//!   batches (Section 7.2), via `⌈log_{1+ε} W⌉ + 1` threshold
//!   connectivity instances (the \[CRT'05\] reduction).
//! * [`bipartite::Bipartiteness`] — dynamic bipartiteness testing
//!   (Section 7.3) via the bipartite double cover: `G` is bipartite
//!   iff `cc(G') = 2·cc(G)`.

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

pub mod approx;
pub mod bipartite;
pub mod exact;

pub use approx::{unit_weighted, ApproxMsfForest, ApproxMsfWeight};
pub use bipartite::Bipartiteness;
pub use exact::ExactMsf;

/// Registers this crate's snapshot decoders — `msf-exact`,
/// `msf-approx-weight`, `msf-approx-forest`, and `bipartiteness` —
/// into a [`MaintainerRegistry`](mpc_stream_core::MaintainerRegistry).
pub fn register_snapshot_loaders(reg: &mut mpc_stream_core::MaintainerRegistry) {
    use mpc_stream_core::load_boxed;
    reg.register("msf-exact", load_boxed::<ExactMsf>);
    reg.register("msf-approx-weight", load_boxed::<ApproxMsfWeight>);
    reg.register("msf-approx-forest", load_boxed::<ApproxMsfForest>);
    reg.register("bipartiteness", load_boxed::<Bipartiteness>);
}
