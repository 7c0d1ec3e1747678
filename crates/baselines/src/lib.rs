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
    use mpc_stream_core::load_boxed;
    reg.register("agm-baseline", load_boxed::<AgmBaseline>);
    reg.register("fullmem-baseline", load_boxed::<FullMemoryBaseline>);
}

/// The recompute-on-read answers both baselines give to the three
/// connectivity questions (Section 2.1): every answer, point queries
/// included, pays the full relabelling `components` charges, where a
/// maintained labelling answers in `O(1)` rounds
/// ([`mpc_stream_core::answer_maintained`]). Vertex arguments are
/// checked against `[0, n)` before anything is charged; `None` (no
/// charge) for every other question.
fn answer_recomputed(
    query: &mpc_stream_core::QueryRequest,
    n: usize,
    ctx: &mut mpc_sim::MpcContext,
    components: impl FnOnce(&mut mpc_sim::MpcContext) -> Vec<mpc_graph::ids::VertexId>,
) -> Option<Result<mpc_stream_core::QueryResponse, mpc_sim::MpcStreamError>> {
    use mpc_stream_core::{ensure_vertex_in, QueryRequest, QueryResponse};
    Some(match *query {
        QueryRequest::Connected(u, v) => ensure_vertex_in(u.max(v), n).map(|()| {
            let labels = components(ctx);
            QueryResponse::Bool(labels[u as usize] == labels[v as usize])
        }),
        QueryRequest::ComponentOf(v) => {
            ensure_vertex_in(v, n).map(|()| QueryResponse::Vertex(components(ctx)[v as usize]))
        }
        QueryRequest::ComponentCount => Ok(QueryResponse::Count(
            mpc_stream_core::canonical_component_count(&components(ctx)),
        )),
        _ => return None,
    })
}
