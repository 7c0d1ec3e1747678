//! Baselines the paper positions itself against (Sections 1.3, 2.1).
//!
//! * [`agm::AgmBaseline`] — the Ahn–Guha–McGregor streaming algorithm
//!   implemented directly on MPC: sketches are kept current in `O(1)`
//!   rounds per update batch, but every *query* reruns Borůvka over
//!   all `n` vertices, costing `Θ(log n)` sketch levels of MPC rounds
//!   (the paper's Section 2.1 comparison: same total memory, `O(log
//!   n)`-round queries instead of `O(1)`).
//! * [`fullmem::FullMemoryBaseline`] — the `Θ(n+m)` total-memory
//!   dynamic-MPC regime of ILMP'19 / NO'21: the entire graph is
//!   stored across machines, updates are trivial appends, and
//!   connectivity is recomputed on demand by `O(log n)` rounds of
//!   label propagation. The paper's headline against this line of
//!   work is the *total memory* column: `Õ(n)` versus `Θ(n+m)`.

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

pub mod agm;
pub mod fullmem;

pub use agm::AgmBaseline;
pub use fullmem::FullMemoryBaseline;

/// Registers this crate's snapshot decoders — `agm-baseline` and
/// `fullmem-baseline` — into a
/// [`MaintainerRegistry`](mpc_stream_core::MaintainerRegistry).
pub fn register_snapshot_loaders(reg: &mut mpc_stream_core::MaintainerRegistry) {
    use mpc_snapshot::Persist;
    reg.register("agm-baseline", |r| Ok(Box::new(AgmBaseline::load(r)?)));
    reg.register("fullmem-baseline", |r| {
        Ok(Box::new(FullMemoryBaseline::load(r)?))
    });
}
