//! `mpc-stream` — streaming graph algorithms in the Massively
//! Parallel Computation model.
//!
//! A reproduction of *"Streaming Graph Algorithms in the Massively
//! Parallel Computation Model"* (Czumaj, Mishra, Mukherjee,
//! PODC 2024). This facade crate re-exports the whole workspace; see
//! the README for a tour and `examples/` for runnable programs.
//!
//! # The unified driver
//!
//! The paper's point is that *one* harness maintains connectivity,
//! MSF, bipartiteness, matching, and k-edge-connectivity under the
//! same batch/round/memory discipline — and the API says so: every
//! maintainer implements [`prelude::Maintain`], every failure is a
//! [`prelude::MpcStreamError`], and a [`prelude::Session`] drives any
//! set of maintainers over one accounted cluster. Registration
//! returns a typed [`prelude::Handle`], so reads need no downcasts.
//! There are two ways to read: [`Session::get`](core_alg::Session::get)
//! is an uncharged host-side borrow of the maintainer, and the
//! [`prelude::QueryRequest`] plane
//! ([`Session::ask`](core_alg::Session::ask) /
//! [`Session::ask_all`](core_alg::Session::ask_all), one fan-out
//! behind both) charges every answer against the cluster, receipts it
//! as a [`prelude::QueryReport`] and attributes it in the
//! [`prelude::SessionStats`] per-maintainer breakdown:
//!
//! ```
//! use mpc_stream::prelude::*;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MpcConfig::builder(64, 0.5).local_capacity(1 << 15).build();
//! let mut session = Session::new(cfg);
//! let conn = session.register(Connectivity::new(64, ConnectivityConfig::default(), 1));
//! let bip = session.register(Bipartiteness::new(64, 2));
//!
//! // One stream, fanned to every maintainer in parallel.
//! let reports = session.apply([
//!     Update::Insert(Edge::new(0, 1)),
//!     Update::Insert(Edge::new(1, 2)),
//!     Update::Insert(Edge::new(0, 2)), // odd cycle
//! ])?;
//! assert_eq!(reports.len(), 2); // one per maintainer
//!
//! // Typed handles: inherent reads with no downcast, no Option…
//! assert!(session.get(conn).connected(0, 2));
//! assert!(!session.get(bip).is_bipartite());
//!
//! // …and charged, receipted queries through the typed query plane.
//! let answer = session.ask(conn, &QueryRequest::Connected(0, 2))?;
//! assert_eq!(answer.as_bool(), Some(true));
//! assert!(session.query_reports()[0].rounds > 0);
//!
//! // ask_all asks every maintainer and collects the answers (a
//! // maintainer's `answer` decides what it serves) — here both
//! // structures count components, and they must agree.
//! let counts = session.ask_all(&QueryRequest::ComponentCount)?;
//! assert_eq!(
//!     counts,
//!     vec![
//!         (conn.id(), QueryResponse::Count(62)),
//!         (bip.id(), QueryResponse::Count(62)),
//!     ]
//! );
//! println!("{}", session.stats().summary());
//! # Ok(())
//! # }
//! ```
//!
//! A single maintainer can be driven without a session: each
//! structure's inherent `apply_batch` (e.g.
//! [`Connectivity::apply_batch`](core_alg::Connectivity::apply_batch))
//! *is* the body of its [`Maintain::ingest`](prelude::Maintain::ingest)
//! and fails with the same [`prelude::MpcStreamError`], message for
//! message.

pub use mpc_baselines as baselines;
pub use mpc_etf as etf;
pub use mpc_graph as graph;
pub use mpc_hashing as hashing;
pub use mpc_kconn as kconn;
pub use mpc_matching as matching;
pub use mpc_msf as msf;
pub use mpc_sim as mpc;
pub use mpc_sketch as sketch;
pub use mpc_snapshot as snapshot;
pub use mpc_stream_core as core_alg;

/// Everything needed to drive the unified maintainer surface: the
/// [`Session`](mpc_stream_core::Session) engine with its typed
/// [`Handle`](mpc_stream_core::Handle)s and
/// [`QueryRequest`](mpc_stream_core::QueryRequest) /
/// [`QueryResponse`](mpc_stream_core::QueryResponse) /
/// [`QueryReport`](mpc_stream_core::QueryReport) query plane, the
/// [`Maintain`](mpc_stream_core::Maintain) trait and its
/// [`SaveState`](mpc_stream_core::SaveState) save half, the workspace-wide
/// [`MpcStreamError`](mpc_sim::MpcStreamError), all sixteen
/// maintainers, and the graph / cluster vocabulary types.
pub mod prelude {
    pub use mpc_baselines::{AgmBaseline, FullMemoryBaseline};
    pub use mpc_graph::ids::{Edge, VertexId, WeightedEdge};
    pub use mpc_graph::update::{Batch, Update, WeightedBatch, WeightedUpdate};
    pub use mpc_kconn::{Certificate, DynamicKConn, InsertOnlyKConn, MinCut};
    pub use mpc_matching::{
        AklyMatching, CappedGreedyMatching, MatchingSizeEstimator, MaximalMatching, StreamKind,
    };
    pub use mpc_msf::{ApproxMsfForest, ApproxMsfWeight, Bipartiteness, ExactMsf};
    pub use mpc_sim::{
        BatchReport, MachineGroup, MaintainerStats, MpcConfig, MpcContext, MpcError,
        MpcStreamError, SessionStats,
    };
    pub use mpc_snapshot::SnapshotError;
    pub use mpc_stream_core::{
        CheckpointReceipt, Connectivity, ConnectivityConfig, Handle, Maintain, MaintainerId,
        MaintainerRegistry, QueryReport, QueryRequest, QueryResponse, RobustConnectivity,
        SaveState, Session, StreamingConnectivity, VertexDynamicConnectivity,
    };
}

/// The complete snapshot-loader roster: every maintainer kind the
/// workspace ships, under its [`Maintain::name`] — the registry to
/// hand [`Session::restore`] when a checkpoint may contain any of the
/// sixteen registrations.
///
/// [`Maintain::name`]: mpc_stream_core::Maintain::name
/// [`Session::restore`]: mpc_stream_core::Session::restore
///
/// # Examples
///
/// ```
/// let reg = mpc_stream::full_registry();
/// assert!(reg.loader("connectivity").is_some());
/// assert!(reg.loader("matching-estimator-dynamic").is_some());
/// assert_eq!(reg.names().len(), 16);
/// ```
pub fn full_registry() -> mpc_stream_core::MaintainerRegistry {
    let mut reg = mpc_stream_core::MaintainerRegistry::core();
    mpc_kconn::register_snapshot_loaders(&mut reg);
    mpc_msf::register_snapshot_loaders(&mut reg);
    mpc_matching::register_snapshot_loaders(&mut reg);
    mpc_baselines::register_snapshot_loaders(&mut reg);
    reg
}
