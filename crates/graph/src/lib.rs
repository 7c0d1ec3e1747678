//! Graph substrate for the `mpc-stream` workspace.
//!
//! Everything the streaming-MPC algorithms consume or are tested
//! against lives here:
//!
//! * [`ids`] — vertex ids, normalized (weighted) edges, and the edge
//!   ↔ `u64` index encoding used by the sketch vectors `X_v` of the
//!   paper (Section 3.1).
//! * [`update`] — edge insertions/deletions and update batches, the
//!   unit of work of the streaming MPC model (Section 1.2).
//! * [`dynamic`] — a checked dynamic-graph harness that validates the
//!   model's assumptions (simple graph, deletions only of live edges).
//! * [`oracle`] — sequential reference algorithms: union-find
//!   connectivity, Kruskal MSF, bipartiteness, maximal and maximum
//!   matchings. Every MPC algorithm in the workspace is tested against
//!   these.
//! * [`cuts`] — cut oracles (Stoer–Wagner global min cut, edge
//!   connectivity, bridges) backing the `mpc-kconn` extension crate.
//! * [`gen`] — seeded workload generators producing the batch streams
//!   used by `mpc-bench`'s experiments E1–E16.
//!
//! # Examples
//!
//! ```
//! use mpc_graph::ids::Edge;
//! use mpc_graph::oracle::UnionFind;
//!
//! let mut uf = UnionFind::new(4);
//! uf.union(0, 1);
//! uf.union(2, 3);
//! assert!(uf.connected(0, 1));
//! assert!(!uf.connected(1, 2));
//! let e = Edge::new(3, 1);
//! assert_eq!((e.u(), e.v()), (1, 3)); // normalized
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

pub mod cuts;
pub mod dynamic;
pub mod gen;
pub mod ids;
pub mod oracle;
pub mod update;

pub use dynamic::DynamicGraph;
pub use ids::{Edge, VertexId, WeightedEdge};
pub use update::{Batch, Update, WeightedBatch, WeightedUpdate};
