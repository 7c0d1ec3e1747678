//! Batch-dynamic connectivity in the streaming MPC model — the core
//! contribution of *"Streaming Graph Algorithms in the Massively
//! Parallel Computation Model"* (Czumaj, Mishra, Mukherjee, PODC'24).
//!
//! [`Connectivity`] maintains, for an evolving graph on `n` vertices:
//!
//! * a **component id** per vertex (the smallest vertex id of its
//!   component),
//! * an explicit **spanning forest**, stored as distributed Euler
//!   tours ([`mpc_etf::DistEtf`]),
//! * `t = Θ(log n)` independent **AGM sketches** per vertex
//!   ([`mpc_sketch::SketchBank`]),
//!
//! and processes batches of up to `Õ(n^φ)` edge insertions and
//! deletions in `O(1/φ)` MPC rounds with `O(n log³ n)` total memory
//! (Theorems 1.1 and 6.7). Queries are free: the solution is
//! maintained explicitly.
//!
//! The update protocol follows the paper exactly:
//!
//! * **Insertions** (Section 6.1): one `batch_join` of the inserted
//!   edges builds the auxiliary graph `H` on the touched tours at a
//!   coordinator (it has `O(k)` nodes and edges — Claim 6.1), keeps a
//!   spanning forest `F_H` of it and splices those Euler tours; update
//!   sketches; broadcast the component-relabeling map. A component's
//!   id is its tour's smallest member, the first entry of the tour's
//!   sorted member list ([`mpc_etf::DistEtf::tour_label`]), so each
//!   merged tour's members read it there.
//! * **Deletions** (Section 6.3): update sketches; `batch_split` the
//!   tours along the deleted tree edges; converge-cast the merged
//!   sketches of every resulting piece; run Borůvka over the pieces
//!   at the coordinator, consuming sketch copy `i` at level `i`;
//!   `batch_join` the replacement edges; broadcast each final tour's
//!   label as its new component id.
//!
//! A batch is checked against the dynamic-graph contract (no duplicate
//! of a tree edge, no more deletions than live edges) and its tree
//! deletions against the machine (their split gathers `4` words each)
//! *before* the first sketch write, and the insertion join, whose
//! gather can also fail, runs before the sketch writes too: an `Err`
//! leaves the persisted state byte-identical.
//!
//! ## A deletion costs what it cuts off
//!
//! The model charges the converge-cast over every member of every
//! piece — that is the paper's cost and it is charged unchanged. The
//! *host* does less, using one invariant:
//!
//! > **Zero sum.** Every tour `batch_split` cuts is, by the
//! > spanning-forest invariant, a whole connected component. Each
//! > live edge of it has both endpoints inside, contributing `+1` to
//! > one endpoint's column and `−1` to the other's at the same
//! > coordinate, so the columns of its vertices sum to **exactly
//! > zero** in every copy and level (two's-complement and
//! > `GF(2^61 − 1)` adds cancel edge by edge — Lemma 3.3 with an
//! > empty cut).
//!
//! The pieces of one origin tour partition it, so a Borůvka supernode
//! that holds the origin's **largest** piece gets its accumulator as
//! minus the sum of the origin's pieces *outside* it
//! ([`mpc_sketch::SketchBank::subtract_copy_from`]), cell for cell
//! what summing its own members would give; every other supernode
//! sums its (small) pieces as before. Likewise the relabel rewrites
//! only the non-largest pieces from their captured member lists, and
//! walks the largest piece's members only when the origin's minimum
//! vertex was cut away from it. The largest piece's columns, member
//! list and labels are otherwise never touched: a deletion from a
//! giant component costs the size of what it cuts off, not
//! `O(n · levels)` column reads. In debug builds the all-members
//! merge still runs beside it as a cell-for-cell cross-check.
//!
//! *Precondition:* the dynamic-graph contract — no deletion of an
//! edge that is not live. Deleting an absent cross-component edge
//! would leave a phantom `∓1` coordinate in two components' sums;
//! that is the same precondition the samplers' correctness already
//! rests on (a phantom coordinate can be *sampled* as a replacement
//! edge), so the shortcut adds no new way to go wrong. Forest,
//! labels, sampler-failure count, rounds, words and snapshot bytes
//! are identical to summing every member.
//!
//! # Examples
//!
//! ```
//! use mpc_stream_core::{Connectivity, ConnectivityConfig};
//! use mpc_graph::ids::Edge;
//! use mpc_graph::update::{Batch, Update};
//! use mpc_sim::{MpcConfig, MpcContext};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MpcConfig::builder(64, 0.5).local_capacity(1 << 14).build();
//! let mut ctx = MpcContext::new(cfg);
//! let mut conn = Connectivity::new(64, ConnectivityConfig::default(), 42);
//! conn.apply_batch(
//!     &Batch::from_updates(vec![
//!         Update::Insert(Edge::new(0, 1)),
//!         Update::Insert(Edge::new(1, 2)),
//!     ]),
//!     &mut ctx,
//! )?;
//! assert!(conn.connected(0, 2));
//! assert_eq!(conn.component_of(2), 0);
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

pub mod connectivity;
pub mod query;
pub mod robust;
pub mod session;
pub mod streaming;
pub mod vertex_dynamic;

pub use connectivity::{Connectivity, ConnectivityConfig};
pub use query::{
    answer_maintained, canonical_component_count, unsupported_query, QueryReport, QueryRequest,
    QueryResponse,
};
pub use robust::RobustConnectivity;
pub use session::{
    ensure_endpoints_in, ensure_vertex_in, load_boxed, route_batch, simple_graph_in,
    CheckpointReceipt, Handle, Maintain, MaintainerId, MaintainerLoader, MaintainerRegistry,
    SaveState, Session,
};
pub use streaming::StreamingConnectivity;
pub use vertex_dynamic::VertexDynamicConnectivity;
