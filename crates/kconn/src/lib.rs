//! k-edge-connectivity in the streaming MPC model.
//!
//! The paper's conclusion (Section 9) singles out `k`-edge
//! connectivity and minimum cut as semi-streaming-feasible problems
//! whose extension to its streaming-MPC model is an open direction.
//! This crate implements that extension with the classical **sparse
//! certificate** technique the corresponding semi-streaming
//! algorithms use (\[AGM12\] Section 3.2): maintain `k` edge-disjoint
//! forests `F_1, …, F_k` where `F_i` is a maximal spanning forest of
//! `G ∖ (F_1 ∪ … ∪ F_{i-1})`. Their union — at most `k(n-1)` edges —
//! preserves every cut of `G` up to size `k`:
//!
//! > for every vertex set `A`,
//! > `|E_cert(A, V∖A)| ≥ min(|E_G(A, V∖A)|, k)`.
//!
//! Consequently `min(λ(G), k) = min(λ(cert), k)` for the edge
//! connectivity `λ`, the certificate decides `j`-edge-connectivity
//! for every `j ≤ k`, and for `k ≥ 2` its bridges are exactly the
//! bridges of `G`.
//!
//! Two maintainers are provided, mirroring the paper's insertion-only
//! vs dynamic split:
//!
//! * [`InsertOnlyKConn`] — the certificate itself is maintained
//!   explicitly under insertion-only batches in `O(1/φ)` rounds per
//!   batch (each new edge cascades to the first forest in which it
//!   does not close a cycle) with `O(kn)` total words. Queries are
//!   free: the certificate is the maintained state.
//! * [`DynamicKConn`] — under arbitrary (insert + delete) batches the
//!   state is `k` independent banks of AGM vertex sketches, updated
//!   in `O(1)` rounds per batch with `Õ(kn)` total words. A
//!   certificate query *peels* forests out of the sketches: layer `i`
//!   runs the Borůvka cascade over bank `i` minus the
//!   already-extracted forests `F_1..F_{i-1}`, subtracting them from
//!   each group's merge scratch rather than from a copy of the bank
//!   — `Θ(k log n)` MPC rounds per query. The gap between the two query costs is
//!   precisely why the paper leaves constant-round dynamic
//!   `k`-connectivity open.
//!
//! # Examples
//!
//! ```
//! use mpc_kconn::{InsertOnlyKConn, MinCut};
//! use mpc_graph::ids::Edge;
//! use mpc_graph::update::Batch;
//! use mpc_sim::{MpcConfig, MpcContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut ctx = MpcContext::new(
//!     MpcConfig::builder(8, 0.5).local_capacity(1 << 14).build(),
//! );
//! let mut kc = InsertOnlyKConn::new(8, 3);
//! // A cycle on 8 vertices is 2- but not 3-edge-connected.
//! kc.apply_batch(
//!     &Batch::inserting((0..8).map(|i| Edge::new(i, (i + 1) % 8))),
//!     &mut ctx,
//! )?;
//! let cert = kc.certificate();
//! assert_eq!(cert.is_k_edge_connected(2), Some(true));
//! assert_eq!(cert.is_k_edge_connected(3), Some(false));
//! assert_eq!(cert.min_cut(), MinCut::Exact(2));
//! # Ok(())
//! # }
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

pub mod certificate;
pub mod dynamic;
pub mod insert_only;

pub use certificate::{Certificate, MinCut};
pub use dynamic::DynamicKConn;
pub use insert_only::InsertOnlyKConn;

/// Registers this crate's snapshot decoders — `kconn-dynamic` and
/// `kconn-insert-only` — into a
/// [`MaintainerRegistry`](mpc_stream_core::MaintainerRegistry).
pub fn register_snapshot_loaders(reg: &mut mpc_stream_core::MaintainerRegistry) {
    use mpc_stream_core::load_boxed;
    reg.register("kconn-dynamic", load_boxed::<DynamicKConn>);
    reg.register("kconn-insert-only", load_boxed::<InsertOnlyKConn>);
}
