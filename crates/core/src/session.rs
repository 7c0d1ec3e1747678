//! The unified driver: one front door for every maintainer, on both
//! the write side (batched updates) and the read side (typed,
//! budget-charged queries).
//!
//! The paper's central claim (Theorem 1.1 and its corollaries) is
//! that *one* streaming-MPC harness maintains connectivity, MSF,
//! bipartiteness, matching, and k-edge-connectivity with the same
//! batch/round/memory discipline — and serves *queries* against that
//! state as a round-charged protocol phase, not a host-side peek.
//! This module is that harness as an API:
//!
//! * [`Maintain`] — the trait every algorithm structure implements:
//!   `ingest(&Batch, &mut MpcContext) -> Result<(), MpcStreamError>`
//!   (the single write entry) plus `name()`, `words()`, and
//!   `validate()` hooks. Weighted-aware maintainers (the MSF family)
//!   additionally override `ingest_weighted`; everyone else sees the
//!   weight-stripped projection. The read side is
//!   [`Maintain::answer`]: a maintainer opts into the
//!   [`QueryRequest`]s it can serve and charges each answer's rounds
//!   and communication through the context. Measurement is the
//!   session's job, not the maintainer's: the fan-out brackets every
//!   branch with a `BatchAudit` and produces the [`BatchReport`] /
//!   [`QueryReport`].
//! * [`Session`] — the engine: owns the [`MpcContext`], registers any
//!   number of maintainers (each [`Session::register`] returns a
//!   typed [`Handle`]), normalizes and chunks incoming updates into
//!   legal `Õ(n^φ)` batches, fans each batch to every registered
//!   maintainer (in parallel, on disjoint machine groups — rounds
//!   compose by max, communication by sum), and exposes unified
//!   per-batch [`BatchReport`]s plus a [`SessionStats`] rollup with a
//!   per-batch, per-maintainer capacity audit.
//!
//! # Typed handles
//!
//! [`Session::register`] returns a [`Handle`]`<M>` carrying the
//! maintainer's concrete type, so reads need no downcasts and no
//! turbofish: [`Session::get`] hands back `&M` directly (an uncharged
//! host-side read), and [`Session::ask`] puts a charged, receipted
//! question to it. No accessor hands out `&mut M`: a registered
//! maintainer changes only through the update stream.
//!
//! # Query charging
//!
//! [`Session::ask`] routes a [`QueryRequest`] to one maintainer;
//! [`Session::ask_all`] fans it to every maintainer, with rounds
//! composing by max across the fan-out — the cross-checking mode for
//! running a maintainer against its baselines on one cluster. Both
//! run the same fan-out (`ask` over a one-maintainer range), so the
//! decline rule, the measurement and the receipt are written once.
//! [`Maintain::answer`] alone decides support: a maintainer declines by
//! returning `None` before charging anything, `ask` reports the decline
//! as `Unsupported`, `ask_all` skips it, and a decline that did charge
//! is [`MpcStreamError::Internal`] on both. Every answer is
//! charged on the session's cluster and receipted as a
//! [`QueryReport`], which holds the [`QueryRequest`] itself, so
//! answering formats nothing; the [`SessionStats::per_maintainer`] breakdown
//! separates ingest rounds from query rounds, which is exactly where
//! the maintained-solution vs recompute-on-read asymmetry (paper
//! Section 2.1) becomes measurable.
//!
//! # Machine groups
//!
//! The cluster is partitioned into per-maintainer
//! [`MachineGroup`]s (contiguous, near-even sub-ranges, in
//! registration order). After every chunk the session audits each
//! maintainer's standing state against **its own group's** capacity:
//! in strict mode an overrun is
//! [`MpcError::ClusterMemoryExceeded`] *naming the offending
//! maintainer and its group*; in permissive mode it is recorded
//! against that maintainer in the rollup. Provision clusters
//! accordingly: `k` sketch-heavy maintainers need `k×` the machines a
//! single one would (see `MpcConfig::builder`'s defaults).
//!
//! # Execution model
//!
//! The *accounted* parallelism above (rounds max-composing across
//! machine groups) is a property of the model, not of the host: the
//! session is serial. There is **one fan-out skeleton** — chunk
//! ingest and every charged answer ([`Session::ask`],
//! [`Session::ask_dyn`], [`Session::ask_all`]) are the same function
//! with a different job — and it is the session's one
//! [`MpcContext::parallel`] composition, one branch per maintainer in
//! registration order. Each branch audits itself, runs its job on the
//! calling thread directly against the master context, and settles
//! the report into the rollup; `parallel` closes the
//! branch, and the scope on the first `Err` too. No library code
//! starts a thread, so every answer and every charge is a function of
//! the configuration, the seeds and the stream alone.
//!
//! On `Err` the branches ahead of the failing one have ingested the
//! chunk and are absorbed into the rollup, the failing branch keeps
//! its partial charges in the raw context counters, and the branches
//! behind it never run: the session is inconsistent-on-`Err`, like any
//! multi-structure transaction without rollback.
//!
//! # Durability
//!
//! [`Session::checkpoint`] serializes the whole session — context,
//! stats rollup, and every maintainer's accumulated state (sketch
//! banks, Euler-tour shards, per-copy randomness seeds) — into one
//! `mpc-snapshot` container, and [`Session::restore`] rebuilds it
//! through a [`MaintainerRegistry`] mapping each [`Maintain::name`]
//! to its decoder. A maintainer's saved state is its [`Persist`]
//! encoding ([`SaveState`]), and its decoder is [`load_boxed`]. Three
//! contracts make the checkpoint a *true* suspend point rather than an
//! approximate save:
//!
//! * **Host-side, zero charged rounds.** Checkpointing is an
//!   operational concern of the simulation host, not a protocol phase
//!   of the simulated cluster: neither `checkpoint` nor `restore`
//!   touches the accounted round/word counters, so an interrupted-
//!   and-resumed run reports exactly the costs of an uninterrupted
//!   one. (A real MPC deployment would pay one converge-cast to
//!   persist state; modeling that charge is explicitly out of scope —
//!   the simulator measures the *algorithm*, not the fault-tolerance
//!   of its host.)
//! * **Bit-identical continuation.** Randomness is seed-derived
//!   everywhere (save accumulated state, rebuild derived state), so a
//!   restored session continues sampling, answering, and accounting
//!   exactly where the original would have — `SessionStats`, query
//!   receipts, and sampler outcomes are equal as values from that
//!   point on.
//! * **Monotonic stream epoch.** Every update submission and every
//!   query that reaches a maintainer bumps [`Session::stream_epoch`]
//!   (an answer writes too: the context's ledger, the stats rollup,
//!   and maintainer state such as a recompute's sampler counters), the
//!   epoch is embedded in the snapshot header, and
//!   [`Session::restore_checked`] rejects a stale file with the typed
//!   [`SnapshotError::EpochMismatch`] instead of silently rewinding
//!   (and thereby forking) the stream or query history.
//!
//! `tests/session_checkpoint.rs` pins the full kill/restore/continue
//! equivalence; the checkpoint's per-maintainer section sizes land in
//! `MaintainerStats::checkpoint_bytes` (which `==` ignores, keeping
//! checkpointed and uninterrupted runs equal).
//!
//! # Examples
//!
//! ```
//! use mpc_stream_core::{Connectivity, ConnectivityConfig, QueryRequest, Session};
//! use mpc_graph::ids::Edge;
//! use mpc_graph::update::Update;
//! use mpc_sim::MpcConfig;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = MpcConfig::builder(32, 0.5).local_capacity(1 << 14).build();
//! let mut session = Session::new(cfg);
//! let conn = session.register(Connectivity::new(32, ConnectivityConfig::default(), 7));
//! let reports = session.apply([
//!     Update::Insert(Edge::new(0, 1)),
//!     Update::Insert(Edge::new(1, 2)),
//! ])?;
//! assert_eq!(reports.len(), 1); // one chunk × one maintainer
//! // Typed read access: no downcast, no Option.
//! assert!(session.get(conn).connected(0, 2));
//! // Charged query plane: the answer is receipted on the cluster.
//! let answer = session.ask(conn, &QueryRequest::Connected(0, 2))?;
//! assert_eq!(answer.as_bool(), Some(true));
//! assert!(session.query_reports()[0].rounds > 0);
//! # Ok(())
//! # }
//! ```

use crate::connectivity::Connectivity;
use crate::query::{
    answer_maintained, unsupported_query, QueryReport, QueryRequest, QueryResponse,
};
use crate::robust::RobustConnectivity;
use crate::streaming::StreamingConnectivity;
use crate::vertex_dynamic::VertexDynamicConnectivity;
use mpc_graph::ids::VertexId;
use mpc_graph::update::{Batch, Update, WeightedBatch, WeightedUpdate};
use mpc_sim::{
    BatchAudit, BatchReport, MachineGroup, MpcConfig, MpcContext, MpcError, MpcStreamError,
    SessionStats,
};
use mpc_snapshot::{
    load_section, save_section, Persist, Snapshot, SnapshotError, SnapshotReader, SnapshotWriter,
};
use std::any::Any;
use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::ops::Range;
use std::path::Path;

/// A batch-dynamic graph structure that can be driven through the
/// unified [`Session`] engine.
///
/// Implementors supply the identification hooks and [`Maintain::
/// ingest`] — the trait's single write entry, and for every shipped
/// maintainer a bare call of its inherent `apply_batch`. Measurement
/// is not the maintainer's concern: the session's fan-out brackets
/// each `ingest` / `answer` with a `BatchAudit` and produces the
/// unified [`BatchReport`] / [`QueryReport`].
///
/// The `Any` supertrait is an implementation detail of the typed
/// [`Handle`] accessors ([`Session::get`] and friends re-express the
/// downcast internally, where handle provenance makes it infallible).
/// The `Send` supertrait keeps [`Session`] `Send`, so a caller may
/// move a whole session to another thread; maintainers are plain
/// owned state, so this is free. The [`SaveState`] supertrait is the
/// save half of [`Session::checkpoint`]; every shipped maintainer gets
/// it from its [`Persist`] impl.
pub trait Maintain: Any + Send + SaveState {
    /// A short stable name for reports and diagnostics.
    fn name(&self) -> &'static str;

    /// Current memory footprint of the maintained state, in words.
    ///
    /// The session's capacity audit calls this after every chunk of
    /// every batch, so it must not walk per-item state (vertices,
    /// edges, samplers): keep counters, and sum at most over a
    /// structure's constant or logarithmic number of parts. Each
    /// shipped impl states its cost in one line.
    fn words(&self) -> u64;

    /// Cumulative `ℓ0`-sampler failures absorbed so far (0 for
    /// maintainers without samplers).
    fn l0_failures(&self) -> u64 {
        0
    }

    /// Checks internal invariants (cheap by default; structures with
    /// an expensive validator keep it on their inherent surface).
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::Internal`] when an invariant is broken.
    fn validate(&self) -> Result<(), MpcStreamError> {
        Ok(())
    }

    /// Applies one unweighted batch.
    ///
    /// # Errors
    ///
    /// See [`MpcStreamError`] for the failure classes.
    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError>;

    /// Applies one weighted batch. Weight-aware maintainers (the MSF
    /// family) override this; the default strips weights and
    /// delegates to [`Maintain::ingest`].
    ///
    /// # Errors
    ///
    /// See [`MpcStreamError`].
    fn ingest_weighted(
        &mut self,
        batch: &WeightedBatch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        self.ingest(&batch.unweighted(), ctx)
    }

    /// Answers a typed [`QueryRequest`] against the current state,
    /// charging the answer's rounds and communication through `ctx` —
    /// the read-side counterpart of [`Maintain::ingest`], and the one
    /// place a maintainer's query vocabulary is written.
    ///
    /// A query outside this maintainer's vocabulary returns `None`
    /// *before* anything is charged: [`Session::ask`] reports it as
    /// [`MpcStreamError::Unsupported`], and [`Session::ask_all`] skips
    /// it. A `None` that moved the context's rounds or words is
    /// [`MpcStreamError::Internal`] on both. Answers must charge at least the rounds of
    /// routing the question and the answer — maintained solutions
    /// answer in `O(1)` rounds ([`answer_maintained`]),
    /// recompute-on-read structures pay their genuine recomputation.
    ///
    /// # Errors
    ///
    /// `Some(Err(_))`: [`MpcStreamError::InvalidBatch`] for malformed
    /// arguments (e.g. an out-of-range vertex); any other variant as
    /// the answering protocol requires.
    fn answer(
        &mut self,
        query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>>;
}

/// The save half of the checkpoint/restore contract
/// ([`Session::checkpoint`]): serializes a maintainer's complete
/// accumulated state into the writer's open section.
///
/// Every [`Persist`] type has it as its `Persist::save`; the load half
/// is [`load_boxed`], registered under the maintainer's
/// [`Maintain::name`] in a [`MaintainerRegistry`]. The pair must
/// round-trip: restoring what `save_state` wrote yields a maintainer
/// that answers, samples, and accounts bit-identically to the original
/// from that point on.
pub trait SaveState {
    /// Writes the state into `w`'s open section.
    fn save_state(&self, w: &mut SnapshotWriter);
}

impl<T: Persist> SaveState for T {
    fn save_state(&self, w: &mut SnapshotWriter) {
        self.save(w);
    }
}

/// Decodes one maintainer's state from its snapshot section — the
/// restore half of [`SaveState::save_state`], registered per
/// maintainer kind in a [`MaintainerRegistry`].
pub type MaintainerLoader = fn(&mut SnapshotReader<'_>) -> Result<Box<dyn Maintain>, SnapshotError>;

/// The [`MaintainerLoader`] of a [`Persist`] maintainer: its
/// `Persist::load`, boxed. Register it as `load_boxed::<M>`.
///
/// # Errors
///
/// Whatever `M::load` reports for a malformed section.
pub fn load_boxed<M: Maintain + Persist>(
    r: &mut SnapshotReader<'_>,
) -> Result<Box<dyn Maintain>, SnapshotError> {
    Ok(Box::new(M::load(r)?))
}

/// Maps [`Maintain::name`] strings to their snapshot decoders.
///
/// A snapshot records each maintainer's `name()` next to its state
/// section; [`Session::restore`] looks the name up here to rebuild
/// the concrete type. [`MaintainerRegistry::core`] covers the four
/// maintainers of this crate; downstream crates contribute their own
/// loader sets (`register_snapshot_loaders` in `mpc-kconn`,
/// `mpc-msf`, `mpc-matching`, `mpc-baselines`), and the workspace
/// facade assembles the whole roster as `mpc_stream::full_registry()`.
#[derive(Default)]
pub struct MaintainerRegistry {
    loaders: BTreeMap<&'static str, MaintainerLoader>,
}

impl MaintainerRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A registry covering this crate's maintainers:
    /// `connectivity`, `streaming-connectivity`,
    /// `robust-connectivity`, and `vertex-dynamic-connectivity`.
    pub fn core() -> Self {
        let mut reg = Self::new();
        reg.register("connectivity", load_boxed::<Connectivity>);
        reg.register(
            "streaming-connectivity",
            load_boxed::<StreamingConnectivity>,
        );
        reg.register("robust-connectivity", load_boxed::<RobustConnectivity>);
        reg.register(
            "vertex-dynamic-connectivity",
            load_boxed::<VertexDynamicConnectivity>,
        );
        reg
    }

    /// Registers a decoder under a maintainer kind name.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate name — two crates claiming one kind is a
    /// wiring bug, not a recoverable condition.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" contract — two crates claiming one kind is a wiring bug"
    )]
    pub fn register(&mut self, name: &'static str, loader: MaintainerLoader) {
        let prev = self.loaders.insert(name, loader);
        assert!(
            prev.is_none(),
            "duplicate snapshot loader for kind {name:?}"
        );
    }

    /// The decoder for a kind, if registered.
    pub fn loader(&self, name: &str) -> Option<MaintainerLoader> {
        self.loaders.get(name).copied()
    }

    /// The registered kind names, sorted.
    pub fn names(&self) -> Vec<&'static str> {
        self.loaders.keys().copied().collect()
    }
}

impl std::fmt::Debug for MaintainerRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MaintainerRegistry")
            .field("kinds", &self.names())
            .finish()
    }
}

/// What [`Session::checkpoint`] wrote: the snapshot's stream epoch,
/// its total size, and each maintainer's state-section size in
/// registration order (also recorded into
/// `MaintainerStats::checkpoint_bytes`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReceipt {
    /// The stream epoch embedded in the snapshot header.
    pub epoch: u64,
    /// Total container size on disk, in bytes.
    pub bytes: u64,
    /// `(Maintain::name(), state-section bytes)` per maintainer, in
    /// registration order.
    pub maintainers: Vec<(String, u64)>,
}

/// Untyped index of a maintainer in a [`Session`], in registration
/// order — the dynamic-access escape hatch ([`Session::maintainer`],
/// [`Session::ask_dyn`]) and the key of the
/// [`SessionStats::per_maintainer`] breakdown.
pub type MaintainerId = usize;

/// A typed handle to a maintainer registered in a [`Session`].
///
/// Returned by [`Session::register`]; carries the maintainer's
/// concrete type, so [`Session::get`] / [`Session::ask`] need no
/// downcasts and cannot fail on a type
/// mismatch. A handle is only meaningful on the session that issued
/// it.
pub struct Handle<M: Maintain> {
    id: MaintainerId,
    _marker: PhantomData<fn() -> M>,
}

impl<M: Maintain> Handle<M> {
    /// The untyped registration index (for dynamic access and the
    /// stats breakdown).
    pub fn id(&self) -> MaintainerId {
        self.id
    }
}

// Manual impls: a handle is Copy/Clone/Debug regardless of `M`.
impl<M: Maintain> Clone for Handle<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M: Maintain> Copy for Handle<M> {}

impl<M: Maintain> std::fmt::Debug for Handle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Handle<{}>({})", std::any::type_name::<M>(), self.id)
    }
}

impl<M: Maintain> From<Handle<M>> for MaintainerId {
    fn from(h: Handle<M>) -> MaintainerId {
        h.id
    }
}

/// The unified driver engine: one accounted cluster, any number of
/// maintainers, one update stream.
///
/// Updates submitted through [`Session::apply`] (or
/// [`Session::apply_weighted`]) are by default **normalized** —
/// updates that exactly undo each other inside one submission are
/// cancelled, the paper's Section 1.2 WLOG for its toggle-semantic
/// dynamic-graph contract. Maintainers with *different* stream
/// contracts (e.g. the maximal-matching substrate's set
/// semantics, where a duplicate insert followed by a delete nets to
/// absent) can observe a different result than their direct
/// `apply_batch` would produce on the raw sequence; disable
/// normalization with [`Session::with_normalization`] to forward
/// every submitted update verbatim and let each maintainer apply its
/// own contract. Submissions are then **chunked** into batches of at
/// most
/// [`Session::max_batch`] updates (a legal `Õ(n^φ)` batch always fits
/// one machine), and each chunk is fanned to every registered
/// maintainer inside a parallel scope: the maintainers run on
/// disjoint machine groups, so a chunk costs the *maximum*
/// maintainer's rounds while all communication is accounted.
///
/// After each chunk the session audits the standing state of all
/// maintainers against the cluster's total capacity; overruns are an
/// error in strict mode and a recorded violation otherwise.
///
/// On `Err`, the maintainers ahead of the failing one in registration
/// order have ingested the failing chunk and the later ones have not —
/// the session is left consistent only on `Ok`, like any
/// multi-structure transaction without rollback. Validate with
/// [`Session::validate_all`] before trusting answers after an error.
pub struct Session {
    ctx: MpcContext,
    maintainers: Vec<Box<dyn Maintain>>,
    stats: SessionStats,
    max_batch: usize,
    normalize: bool,
    last_query_reports: Vec<QueryReport>,
    /// Monotonic update-submission counter, embedded in snapshot
    /// headers so a stale checkpoint is typed-rejected at restore.
    stream_epoch: u64,
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("maintainers", &self.names())
            .field("max_batch", &self.max_batch)
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl Session {
    /// Creates an empty session owning a fresh context for `cfg`.
    /// The default chunk size is `s / 4` updates — a batch whose
    /// auxiliary structures (≈ 2–3 words per update) are guaranteed
    /// to fit one machine.
    pub fn new(cfg: MpcConfig) -> Self {
        let max_batch = (cfg.local_capacity() / 4).max(1) as usize;
        Session::with_context(MpcContext::new(cfg), max_batch)
    }

    /// An empty session over `ctx` — the one place a
    /// `Session` value is built ([`Session::new`] and restore).
    fn with_context(ctx: MpcContext, max_batch: usize) -> Session {
        Session {
            ctx,
            maintainers: Vec::new(),
            stats: SessionStats::default(),
            max_batch,
            normalize: true,
            last_query_reports: Vec::new(),
            stream_epoch: 0,
        }
    }

    /// Overrides the chunk size (clamped to at least 1).
    #[must_use]
    pub fn with_max_batch(mut self, updates: usize) -> Self {
        self.max_batch = updates.max(1);
        self
    }

    /// Does nothing: the session is serial (see the module-level
    /// "Execution model" section). Kept so existing callers compile.
    #[doc(hidden)]
    #[deprecated(note = "the session is serial; this is a no-op")]
    #[must_use]
    pub fn with_workers(self, _workers: usize) -> Self {
        self
    }

    /// Does nothing: the session is serial. Kept so existing callers
    /// compile.
    #[doc(hidden)]
    #[deprecated(note = "the session is serial; this is a no-op")]
    pub fn set_workers(&mut self, _workers: usize) {}

    /// Enables or disables submission-level normalization (default:
    /// enabled). Disabled, every submitted update is forwarded
    /// verbatim — the right choice when set-semantic or
    /// insertion-only maintainers should see (and accept or reject)
    /// the raw sequence under their own contracts.
    #[must_use]
    pub fn with_normalization(mut self, enabled: bool) -> Self {
        self.normalize = enabled;
        self
    }

    /// The maximum updates per fanned-out batch.
    pub fn max_batch(&self) -> usize {
        self.max_batch
    }

    /// Registers a maintainer, returning its typed [`Handle`]. The
    /// handle is the key to both typed read accessors —
    /// [`Session::get`] (uncharged) and [`Session::ask`] (charged).
    /// Set up any state outside the update stream (a
    /// `VertexDynamicConnectivity`'s active vertices, say) before
    /// registering: the session offers no mutable access.
    pub fn register<M: Maintain>(&mut self, maintainer: M) -> Handle<M> {
        let id = self.register_boxed(Box::new(maintainer));
        Handle {
            id,
            _marker: PhantomData,
        }
    }

    /// Registers an already-boxed maintainer (for heterogeneous
    /// collections built elsewhere), returning its untyped id — the
    /// boxed path keeps only the dynamic surface
    /// ([`Session::maintainer`], [`Session::ask_dyn`]).
    pub fn register_boxed(&mut self, maintainer: Box<dyn Maintain>) -> MaintainerId {
        self.stats.register_maintainer(maintainer.name());
        self.maintainers.push(maintainer);
        self.maintainers.len() - 1
    }

    /// Number of registered maintainers.
    pub fn maintainer_count(&self) -> usize {
        self.maintainers.len()
    }

    /// The registered maintainers' names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.maintainers.iter().map(|m| m.name()).collect()
    }

    /// The owned accounting context.
    pub fn ctx(&self) -> &MpcContext {
        &self.ctx
    }

    /// The lifetime rollup.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Typed read access to a registered maintainer — infallible by
    /// construction: the handle's type was fixed at
    /// [`Session::register`] time.
    ///
    /// # Panics
    ///
    /// Panics if the handle's index is out of range for this session,
    /// or names a maintainer of another type — which only a handle
    /// issued by a *different* session can do. The check does not
    /// catch every foreign handle: one of the same type at an index
    /// this session also holds silently reads this session's
    /// maintainer. A handle is only meaningful on the session that
    /// issued it.
    #[expect(
        clippy::expect_used,
        reason = "documented \"# Panics\" contract — only a handle from another session can name a maintainer of another type; a same-type foreign handle passes this check unnoticed"
    )]
    pub fn get<M: Maintain>(&self, handle: Handle<M>) -> &M {
        let m: &dyn Any = self.maintainers[handle.id].as_ref();
        m.downcast_ref::<M>()
            .expect("a typed Handle always matches its own session's registry; this handle was issued by a different Session")
    }

    /// Dynamic access to a registered maintainer (trait surface
    /// only).
    pub fn maintainer(&self, id: MaintainerId) -> Option<&dyn Maintain> {
        self.maintainers.get(id).map(Box::as_ref)
    }

    /// Asks one maintainer a typed [`QueryRequest`]. The answer is
    /// charged on the session's cluster, receipted as a
    /// [`QueryReport`] (see [`Session::query_reports`]), and rolled
    /// into the per-maintainer stats breakdown.
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::Unsupported`] if this maintainer declines the
    /// query without charging, [`MpcStreamError::Internal`] naming it
    /// if it charged before declining; otherwise whatever the
    /// answering protocol reports.
    ///
    /// # Panics
    ///
    /// As [`Session::get`]: the handle's index and type are checked
    /// against the registry before the question is routed, so a
    /// same-type handle from another session is not caught.
    pub fn ask<M: Maintain>(
        &mut self,
        handle: Handle<M>,
        query: &QueryRequest,
    ) -> Result<QueryResponse, MpcStreamError> {
        let _typed: &M = self.get(handle);
        self.ask_dyn(handle.id, query)
    }

    /// Untyped [`Session::ask`], for maintainers registered through
    /// [`Session::register_boxed`]: the fan-out of [`Session::ask_all`]
    /// over this one maintainer.
    ///
    /// # Errors
    ///
    /// As [`Session::ask`], plus [`MpcStreamError::Internal`] for an
    /// unknown id. On any error the previous receipts are cleared —
    /// [`Session::query_reports`] never carries a stale charge.
    pub fn ask_dyn(
        &mut self,
        id: MaintainerId,
        query: &QueryRequest,
    ) -> Result<QueryResponse, MpcStreamError> {
        if id >= self.maintainers.len() {
            self.last_query_reports.clear();
            return Err(MpcStreamError::Internal(format!(
                "no maintainer with id {id}"
            )));
        }
        let mut answer = None;
        self.answer_fan_out(id..id + 1, query, |_, response| answer = Some(response))?;
        answer.ok_or_else(|| unsupported_query(self.maintainers[id].name(), query))
    }

    /// Fans a [`QueryRequest`] to **every** maintainer, in a parallel
    /// scope — the maintainers answer on their disjoint machine groups,
    /// so the fan-out costs the *maximum* answerer's rounds while all
    /// communication is accounted. This is the cross-checking mode:
    /// one call compares a maintainer's answer against its baselines
    /// on one accounted cluster.
    ///
    /// Returns `(id, response)` pairs in registration order, one per
    /// answering maintainer (empty if none answers the query); the
    /// per-answer receipts are in [`Session::query_reports`].
    ///
    /// Each maintainer's [`Maintain::answer`] decides: a decline
    /// (`None`) that charged nothing is skipped — no answer, no
    /// receipt, no per-maintainer count, and a branch that adds nothing
    /// to the max-composed rounds.
    ///
    /// # Errors
    ///
    /// The first failing answer aborts the fan-out; a decline that
    /// charged the context first is [`MpcStreamError::Internal`] naming
    /// the maintainer.
    pub fn ask_all(
        &mut self,
        query: &QueryRequest,
    ) -> Result<Vec<(MaintainerId, QueryResponse)>, MpcStreamError> {
        let mut responses = Vec::new();
        self.answer_fan_out(0..self.maintainers.len(), query, |id, response| {
            responses.push((id, response));
        })?;
        Ok(responses)
    }

    /// The one query phase behind [`Session::ask_dyn`] and
    /// [`Session::ask_all`]: `query` fanned to the maintainers in
    /// `ids`, each answer handed to `collect`, receipted into the
    /// reused receipt buffer and rolled into the stats, and the
    /// phase's max-composed rounds recorded once. A decline that
    /// charged nothing is skipped; one that charged is
    /// [`MpcStreamError::Internal`]. The first error aborts the
    /// fan-out, keeping the receipts of the answers ahead of it. A
    /// phase that reaches a maintainer moves the stream epoch, as a
    /// submission does, so a checkpoint taken before it is stale.
    fn answer_fan_out(
        &mut self,
        ids: Range<MaintainerId>,
        query: &QueryRequest,
        mut collect: impl FnMut(MaintainerId, QueryResponse),
    ) -> Result<(), MpcStreamError> {
        if !ids.is_empty() {
            self.stream_epoch += 1;
        }
        let phase = BatchAudit::begin(&self.ctx);
        let mut reports = std::mem::take(&mut self.last_query_reports);
        reports.clear();
        let outcome = self.fan_out(
            ids,
            |m, ctx| {
                let charged = |ctx: &MpcContext| (ctx.rounds(), ctx.stats().words_communicated);
                let before = charged(ctx);
                match m.answer(query, ctx) {
                    Some(answer) => answer.map(Some),
                    None if charged(ctx) == before => Ok(None),
                    None => Err(MpcStreamError::Internal(format!(
                        "{} charged before declining {query}",
                        m.name()
                    ))),
                }
            },
            |stats, id, measured, response| {
                if let Some(response) = response {
                    stats.absorb_query(id, measured.rounds, measured.words);
                    reports.push(QueryReport {
                        maintainer: measured.maintainer,
                        query: *query,
                        rounds: measured.rounds,
                        words: measured.words,
                    });
                    collect(id, response);
                }
            },
        );
        let phase = phase.finish("session", 0, 0, &self.ctx);
        self.stats.record_query_phase(phase.rounds, phase.words);
        self.last_query_reports = reports;
        outcome
    }

    /// The per-answer receipts of the most recent [`Session::ask`] /
    /// [`Session::ask_all`] call.
    pub fn query_reports(&self) -> &[QueryReport] {
        &self.last_query_reports
    }

    /// The machine group a maintainer's standing state is audited
    /// against: the cluster is partitioned near-evenly across the
    /// registered maintainers, in registration order. `None` for an
    /// unknown id.
    pub fn machine_group(&self, id: MaintainerId) -> Option<MachineGroup> {
        MachineGroup::partition(self.ctx.config().machines(), self.maintainers.len())
            .get(id)
            .copied()
    }

    /// Total standing state across all maintainers, in words.
    pub fn state_words(&self) -> u64 {
        self.maintainers.iter().map(|m| m.words()).sum()
    }

    /// Runs every maintainer's invariant validator.
    ///
    /// # Errors
    ///
    /// The first maintainer's [`MpcStreamError::Internal`], if any.
    pub fn validate_all(&self) -> Result<(), MpcStreamError> {
        for m in &self.maintainers {
            m.validate()?;
        }
        Ok(())
    }

    /// The monotonic write counter: bumped by every
    /// [`Session::apply`] / [`Session::apply_weighted`] call and by
    /// every [`Session::ask`] / [`Session::ask_dyn`] /
    /// [`Session::ask_all`] that reaches a maintainer (an answer is
    /// charged to the ledger and may update maintainer state), and
    /// embedded in every checkpoint's header. Pass the value returned
    /// by the latest [`Session::checkpoint`] to
    /// [`Session::restore_checked`] to reject stale files.
    pub fn stream_epoch(&self) -> u64 {
        self.stream_epoch
    }

    /// Serializes the whole session — context, stats rollup, and
    /// every maintainer's accumulated state — into one atomic
    /// snapshot file (written to a temporary sibling, then renamed).
    ///
    /// This is a **host-side** operation: it charges zero rounds and
    /// zero words on the simulated cluster (see the module-level
    /// "Durability" section for why). The only session mutation is
    /// bookkeeping: each maintainer's state-section size is recorded
    /// in `MaintainerStats::checkpoint_bytes`, a field `==` ignores.
    ///
    /// Call between submissions — a checkpoint mid-`apply` is
    /// unrepresentable, since `&mut self` methods cannot interleave.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] on any filesystem failure.
    pub fn checkpoint(
        &mut self,
        path: impl AsRef<Path>,
    ) -> Result<CheckpointReceipt, SnapshotError> {
        let mut w = SnapshotWriter::new(self.stream_epoch);
        w.begin_section("session");
        w.put_usize(self.max_batch);
        w.put_bool(self.normalize);
        let names: Vec<String> = self.names().iter().map(ToString::to_string).collect();
        names.save(&mut w);
        w.end_section();
        save_section(&mut w, "context", &self.ctx);
        let mut maintainers = Vec::with_capacity(self.maintainers.len());
        for (id, m) in self.maintainers.iter().enumerate() {
            w.begin_section(&format!("maintainer.{id}"));
            m.save_state(&mut w);
            let bytes = w.end_section();
            self.stats.per_maintainer[id].checkpoint_bytes = bytes;
            maintainers.push((m.name().to_string(), bytes));
        }
        // Stats go last so the section sizes recorded above are part
        // of the persisted rollup (checkpoint → restore → checkpoint
        // reproduces the identical container).
        save_section(&mut w, "stats", &self.stats);
        let epoch = self.stream_epoch;
        let bytes = w.write_to(path.as_ref())?;
        Ok(CheckpointReceipt {
            epoch,
            bytes,
            maintainers,
        })
    }

    /// Rebuilds a session from a [`Session::checkpoint`] file,
    /// decoding each maintainer through `registry`.
    ///
    /// The query-receipt buffer starts empty. Everything the paper's
    /// accounting observes — context counters, stats rollup,
    /// maintainer state, randomness position — continues
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: I/O, a corrupted or truncated
    /// container, or [`SnapshotError::UnknownMaintainer`] when the
    /// registry is missing a kind the snapshot names.
    pub fn restore(
        path: impl AsRef<Path>,
        registry: &MaintainerRegistry,
    ) -> Result<Session, SnapshotError> {
        let snap = Snapshot::read_from(path.as_ref())?;
        Session::from_snapshot(&snap, registry)
    }

    /// [`Session::restore`] plus the stale-checkpoint guard: the
    /// file's stream epoch must equal `expected_epoch` (the value the
    /// latest [`Session::checkpoint`] receipt carried), or the
    /// restore fails with [`SnapshotError::EpochMismatch`] before any
    /// state is decoded.
    ///
    /// # Errors
    ///
    /// As [`Session::restore`], plus the epoch mismatch.
    pub fn restore_checked(
        path: impl AsRef<Path>,
        registry: &MaintainerRegistry,
        expected_epoch: u64,
    ) -> Result<Session, SnapshotError> {
        let snap = Snapshot::read_from(path.as_ref())?;
        if snap.epoch() != expected_epoch {
            return Err(SnapshotError::EpochMismatch {
                expected: expected_epoch,
                found: snap.epoch(),
            });
        }
        Session::from_snapshot(&snap, registry)
    }

    fn from_snapshot(
        snap: &Snapshot,
        registry: &MaintainerRegistry,
    ) -> Result<Session, SnapshotError> {
        let mut r = snap.section("session")?;
        let max_batch = r.take_usize()?;
        let normalize = r.take_bool()?;
        let names = Vec::<String>::load(&mut r)?;
        r.expect_end()?;
        if max_batch == 0 {
            return Err(SnapshotError::Corrupt("session chunk size is zero".into()));
        }
        let ctx: MpcContext = load_section(snap, "context")?;
        let mut maintainers: Vec<Box<dyn Maintain>> = Vec::with_capacity(names.len());
        for (id, name) in names.iter().enumerate() {
            let loader = registry
                .loader(name)
                .ok_or_else(|| SnapshotError::UnknownMaintainer { kind: name.clone() })?;
            let mut mr = snap.section(&format!("maintainer.{id}"))?;
            let m = loader(&mut mr)?;
            mr.expect_end()?;
            if m.name() != name {
                return Err(SnapshotError::Corrupt(format!(
                    "maintainer {id} decoded as kind `{}` but was saved as `{name}`",
                    m.name()
                )));
            }
            maintainers.push(m);
        }
        let mut stats: SessionStats = load_section(snap, "stats")?;
        if stats.per_maintainer.len() != maintainers.len() {
            return Err(SnapshotError::Corrupt(format!(
                "stats cover {} maintainers, snapshot holds {}",
                stats.per_maintainer.len(),
                maintainers.len()
            )));
        }
        // `&'static str` names cannot be fabricated from file bytes;
        // re-bind each entry from the live maintainer it describes.
        for (entry, m) in stats.per_maintainer.iter_mut().zip(&maintainers) {
            entry.name = m.name();
        }
        let mut session = Session::with_context(ctx, max_batch);
        session.maintainers = maintainers;
        session.stats = stats;
        session.normalize = normalize;
        session.stream_epoch = snap.epoch();
        Ok(session)
    }

    /// Submits unweighted updates: normalize, chunk, fan out. Returns
    /// one [`BatchReport`] per (chunk, maintainer) pair, in chunk
    /// order then registration order.
    ///
    /// # Errors
    ///
    /// The first maintainer failure, or a strict-mode capacity
    /// overrun of the combined standing state.
    pub fn apply(
        &mut self,
        updates: impl IntoIterator<Item = Update>,
    ) -> Result<Vec<BatchReport>, MpcStreamError> {
        self.submit::<Batch>(updates)
    }

    /// Submits weighted updates; weight-aware maintainers see the
    /// weights, everyone else the projection.
    ///
    /// # Errors
    ///
    /// As [`Session::apply`].
    pub fn apply_weighted(
        &mut self,
        updates: impl IntoIterator<Item = WeightedUpdate>,
    ) -> Result<Vec<BatchReport>, MpcStreamError> {
        self.submit::<WeightedBatch>(updates)
    }

    /// Convenience: submit an already-built batch (still normalized
    /// and re-chunked if oversized).
    ///
    /// # Errors
    ///
    /// As [`Session::apply`].
    pub fn apply_batch(&mut self, batch: &Batch) -> Result<Vec<BatchReport>, MpcStreamError> {
        self.apply(batch.iter())
    }

    /// The front door behind [`Session::apply`] and
    /// [`Session::apply_weighted`]: bump the epoch, normalize, cut
    /// into chunks of at most `max_batch`, run each chunk.
    fn submit<B: BatchLike>(
        &mut self,
        updates: impl IntoIterator<Item = B::Update>,
    ) -> Result<Vec<BatchReport>, MpcStreamError> {
        self.stream_epoch += 1;
        let submitted = if self.normalize {
            B::normalize(updates)
        } else {
            updates.into_iter().collect()
        };
        let chunks = submitted.len().div_ceil(self.max_batch);
        let mut reports = Vec::with_capacity(chunks * self.maintainers.len());
        for chunk in submitted.chunks(self.max_batch) {
            self.run_chunk(&B::from_updates(chunk.to_vec()), &mut reports)?;
        }
        Ok(reports)
    }

    /// One chunk through every maintainer, then the per-chunk
    /// capacity audit.
    fn run_chunk<B: BatchLike>(
        &mut self,
        chunk: &B,
        reports: &mut Vec<BatchReport>,
    ) -> Result<(), MpcStreamError> {
        let updates = chunk.len();
        let chunk_audit = BatchAudit::begin(&self.ctx);
        // Distribute the chunk to every maintainer's machine
        // group: one sort of the update list (O(1/φ) rounds).
        self.ctx.sort(2 * updates as u64 + 1);
        // The failed chunk's rounds remain visible in the raw context
        // stats, but the session rollup only counts chunks every
        // maintainer ingested.
        self.fan_out(
            0..self.maintainers.len(),
            |m, ctx| {
                let l0_before = m.l0_failures();
                chunk.ingest_into(m, ctx)?;
                Ok(m.l0_failures() - l0_before)
            },
            |stats, id, measured, l0_failures| {
                let report = BatchReport {
                    updates,
                    l0_failures,
                    ..measured
                };
                stats.absorb(id, &report);
                reports.push(report);
            },
        )?;
        let chunk_report = chunk_audit.finish("session", updates, 0, &self.ctx);
        self.stats
            .record_chunk(updates, chunk_report.rounds, chunk_report.words);
        self.audit_capacity()
    }

    /// The fan-out skeleton — the session's one
    /// [`MpcContext::parallel`] composition (rounds by max, words by
    /// sum), for chunk ingest and every charged answer alike. Each
    /// maintainer in `ids` is one branch, in registration order:
    /// audit, run `job` inline against the master context, `settle`
    /// the measured branch (a [`BatchReport`] whose job-specific
    /// `updates` / `l0_failures` are left zero) into the rollup. The
    /// first failing branch keeps its partial charges and aborts the
    /// fan-out; the maintainers behind it never run.
    fn fan_out<T>(
        &mut self,
        ids: Range<MaintainerId>,
        job: impl Fn(&mut dyn Maintain, &mut MpcContext) -> Result<T, MpcStreamError>,
        mut settle: impl FnMut(&mut SessionStats, MaintainerId, BatchReport, T),
    ) -> Result<(), MpcStreamError> {
        let branches = ids.clone().zip(&mut self.maintainers[ids]);
        self.ctx.parallel(branches, |(id, m), ctx| {
            let audit = BatchAudit::begin(ctx);
            let value = job(m.as_mut(), ctx)?;
            settle(
                &mut self.stats,
                id,
                audit.finish(m.name(), 0, 0, ctx),
                value,
            );
            Ok(())
        })
    }

    /// Audits every maintainer's standing state against **its own**
    /// machine group's capacity (`group machines × s`). Strict mode
    /// errors, naming the offending maintainer and its group;
    /// permissive mode records the violation against that maintainer
    /// in the rollup. Either way the observed state words land in the
    /// per-maintainer breakdown.
    ///
    /// With more maintainers than machines the groups overlap
    /// (several structures co-scheduled on single machines), so the
    /// per-group checks alone no longer bound any machine's load;
    /// each machine's *combined* standing state is then additionally
    /// audited against `s`, attributed to the machine's largest
    /// state-holder.
    fn audit_capacity(&mut self) -> Result<(), MpcStreamError> {
        let s = self.ctx.config().local_capacity();
        let machines = self.ctx.config().machines();
        let groups = MachineGroup::partition(machines, self.maintainers.len());
        for (id, (m, group)) in self.maintainers.iter().zip(&groups).enumerate() {
            let used = m.words();
            self.stats.observe_state(id, used);
            let capacity = group.capacity(s);
            if used > capacity {
                if self.ctx.config().strict() {
                    return Err(MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded {
                        maintainer: m.name().to_string(),
                        group: *group,
                        used,
                        capacity,
                    }));
                }
                self.stats.record_group_violation(id);
            }
        }
        if self.maintainers.len() > machines {
            let mut per_machine = vec![0u64; machines];
            for (m, group) in self.maintainers.iter().zip(&groups) {
                per_machine[group.start()] += m.words();
            }
            for (machine, &used) in per_machine.iter().enumerate() {
                if used > s {
                    #[expect(
                        clippy::expect_used,
                        reason = "arithmetic invariant — used > 0 implies a contributing maintainer exists"
                    )]
                    let id = (0..self.maintainers.len())
                        .filter(|&i| groups[i].start() == machine)
                        .max_by_key(|&i| self.maintainers[i].words())
                        .expect("an overcommitted machine hosts a maintainer");
                    if self.ctx.config().strict() {
                        return Err(MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded {
                            maintainer: self.maintainers[id].name().to_string(),
                            group: groups[id],
                            used,
                            capacity: s,
                        }));
                    }
                    self.stats.record_group_violation(id);
                }
            }
        }
        Ok(())
    }
}

/// Batches the front door can cut and the fan-out can drive: the
/// update type with its normalization and constructor, length, and
/// the ingest dispatch.
trait BatchLike {
    type Update: Copy;
    fn normalize(updates: impl IntoIterator<Item = Self::Update>) -> Vec<Self::Update>;
    fn from_updates(updates: Vec<Self::Update>) -> Self;
    fn len(&self) -> usize;
    fn ingest_into(&self, m: &mut dyn Maintain, ctx: &mut MpcContext)
        -> Result<(), MpcStreamError>;
}

impl BatchLike for Batch {
    type Update = Update;

    fn normalize(updates: impl IntoIterator<Item = Update>) -> Vec<Update> {
        normalize(updates, |u| u.edge(), |a, b| a.is_insert() != b.is_insert())
    }

    fn from_updates(updates: Vec<Update>) -> Self {
        Batch::from_updates(updates)
    }

    fn len(&self) -> usize {
        Batch::len(self)
    }

    fn ingest_into(
        &self,
        m: &mut dyn Maintain,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        m.ingest(self, ctx)
    }
}

impl BatchLike for WeightedBatch {
    type Update = WeightedUpdate;

    fn normalize(updates: impl IntoIterator<Item = WeightedUpdate>) -> Vec<WeightedUpdate> {
        normalize(
            updates,
            |u| u.weighted_edge().edge,
            |a, b| {
                a.is_insert() != b.is_insert()
                    && a.weighted_edge().weight == b.weighted_edge().weight
            },
        )
    }

    fn from_updates(updates: Vec<WeightedUpdate>) -> Self {
        WeightedBatch::from_updates(updates)
    }

    fn len(&self) -> usize {
        WeightedBatch::len(self)
    }

    fn ingest_into(
        &self,
        m: &mut dyn Maintain,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        m.ingest_weighted(self, ctx)
    }
}

/// Validates every batch endpoint against `[0, n)` — the shared
/// legality gate next to [`MpcContext::ensure_batch_fits`], used by
/// the maintainers whose storage would otherwise index out of range.
///
/// # Errors
///
/// [`MpcStreamError::InvalidBatch`] naming the offending edge.
pub fn ensure_endpoints_in(batch: &Batch, n: usize) -> Result<(), MpcStreamError> {
    for u in batch.iter() {
        let e = u.edge();
        if e.v() as usize >= n {
            return Err(MpcStreamError::InvalidBatch(format!(
                "edge {e} has an endpoint outside [0, {n})"
            )));
        }
    }
    Ok(())
}

/// Collects a bootstrap graph, checking that it is simple and inside
/// `[0, n)` — the validation in front of the `from_graph`
/// constructors, which load the returned edges (in arrival order) only
/// once every one has passed.
///
/// # Errors
///
/// [`MpcStreamError::InvalidBatch`] naming the first edge, in arrival
/// order, with an endpoint outside `[0, n)` or listed a second time (a
/// repeat would put `±2` on its cut coordinate, which no sampler
/// decodes as an edge).
pub fn simple_graph_in(
    edges: impl IntoIterator<Item = mpc_graph::ids::Edge>,
    n: usize,
) -> Result<Vec<mpc_graph::ids::Edge>, MpcStreamError> {
    let mut seen = std::collections::BTreeSet::new();
    let mut loaded = Vec::new();
    for e in edges {
        if (e.v() as usize) >= n || !seen.insert(e) {
            return Err(crate::connectivity::invalid_update(e));
        }
        loaded.push(e);
    }
    Ok(loaded)
}

/// Validates a query's vertex argument against `[0, n)` — the
/// query-side sibling of [`ensure_endpoints_in`], used by every
/// [`Maintain::answer`] implementation whose storage would otherwise
/// index out of range.
///
/// # Errors
///
/// [`MpcStreamError::InvalidBatch`] naming the offending vertex.
pub fn ensure_vertex_in(v: VertexId, n: usize) -> Result<(), MpcStreamError> {
    if v as usize >= n {
        return Err(MpcStreamError::InvalidBatch(format!(
            "query vertex {v} is outside [0, {n})"
        )));
    }
    Ok(())
}

/// The shared batch-routing preamble of the leaf maintainers:
/// endpoint validation, the one-machine legality gate, one exchange
/// routing the batch to its shards, and the control broadcast.
///
/// # Errors
///
/// [`MpcStreamError::InvalidBatch`] or [`MpcStreamError::Capacity`]
/// (state untouched — call before mutating).
pub fn route_batch(batch: &Batch, n: usize, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
    ensure_endpoints_in(batch, n)?;
    ctx.ensure_batch_fits(2 * batch.len() as u64 + 1)?;
    ctx.exchange(2 * batch.len() as u64 + 1);
    ctx.broadcast(2);
    Ok(())
}

/// Net-effect normalization (the paper's Section 1.2 WLOG): per edge,
/// an update that exactly undoes the previous surviving one cancels
/// with it (insert/delete of the same edge — and, for weighted
/// streams, the same weight). Everything else survives, in arrival
/// order: a duplicate same-direction update or a reweight pair is the
/// *caller's* statement, forwarded for each maintainer to accept or
/// reject under its own contract.
///
/// One sort of `(edge, arrival index)` lays each edge's updates out as
/// a run in arrival order; each run replays the edge's undo stack in
/// its own prefix, and what is left on the stack survives.
fn normalize<U: Copy>(
    updates: impl IntoIterator<Item = U>,
    edge_of: impl Fn(&U) -> mpc_graph::ids::Edge,
    undoes: impl Fn(&U, &U) -> bool,
) -> Vec<U> {
    let mut updates: Vec<U> = updates.into_iter().collect();
    let mut runs: Vec<(mpc_graph::ids::Edge, u32)> = updates
        .iter()
        .enumerate()
        .map(|(i, u)| (edge_of(u), i as u32))
        .collect();
    runs.sort_unstable();
    let mut survives = vec![false; updates.len()];
    for run in runs.chunk_by_mut(|a, b| a.0 == b.0) {
        // `run[..top]` is the stack: arrival indices of the edge's
        // surviving updates, oldest first.
        let mut top = 0;
        for j in 0..run.len() {
            let i = run[j].1;
            if top > 0 && undoes(&updates[run[top - 1].1 as usize], &updates[i as usize]) {
                top -= 1;
            } else {
                run[top].1 = i;
                top += 1;
            }
        }
        for &(_, i) in &run[..top] {
            survives[i as usize] = true;
        }
    }
    let mut keep = survives.into_iter();
    updates.retain(|_| keep.next().unwrap_or(false));
    updates
}

// ----- Maintain impls for the core maintainers --------------------

impl Maintain for Connectivity {
    fn name(&self) -> &'static str {
        "connectivity"
    }

    /// `O(1)`: a vertex count plus the ETF and bank counters.
    fn words(&self) -> u64 {
        Connectivity::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Maintained solution ⇒ `O(1)`-round answers
    /// ([`answer_maintained`]).
    fn answer(
        &mut self,
        query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        let forest = || self.spanning_forest();
        answer_maintained(query, self.component_labels(), forest, ctx)
    }
}

impl Maintain for StreamingConnectivity {
    fn name(&self) -> &'static str {
        "streaming-connectivity"
    }

    /// `O(1)`: the forest-edge count is kept on link and cut.
    fn words(&self) -> u64 {
        StreamingConnectivity::words(self)
    }

    /// The Section 4 reference processes the batch as a sequence of
    /// single updates (the batch algorithm at `k = 1`): one exchange
    /// routes the batch, then every update is charged its own round —
    /// `Θ(k)` rounds per k-update chunk, the sequential-structure cost
    /// the batch algorithm's `O(1/φ)` improves on.
    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        ensure_endpoints_in(batch, self.vertex_count())?;
        ctx.ensure_batch_fits(2 * batch.len() as u64 + 1)?;
        ctx.exchange(2 * batch.len() as u64 + 1);
        for u in batch.iter() {
            ctx.exchange(2);
            self.apply(u)?;
        }
        Ok(())
    }

    /// Same maintained-solution charges as `Connectivity` (the
    /// Section 4 reference maintains labels and forest too; only its
    /// *update* path is sequential).
    fn answer(
        &mut self,
        query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        let forest = || self.spanning_forest();
        answer_maintained(query, self.component_labels(), forest, ctx)
    }
}

impl Maintain for RobustConnectivity {
    fn name(&self) -> &'static str {
        "robust-connectivity"
    }

    /// `O(R)`: one O(1) count per independent instance.
    fn words(&self) -> u64 {
        RobustConnectivity::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Answers from the currently exposed instance at the maintained-
    /// solution charges; reads burn no adaptivity budget (only
    /// consuming deletions do).
    fn answer(
        &mut self,
        query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        let forest = || self.spanning_forest();
        answer_maintained(query, self.component_labels(), forest, ctx)
    }
}

impl Maintain for VertexDynamicConnectivity {
    fn name(&self) -> &'static str {
        "vertex-dynamic-connectivity"
    }

    /// `O(1)`: the inner structure's count plus the slot count.
    fn words(&self) -> u64 {
        VertexDynamicConnectivity::words(self)
    }

    fn l0_failures(&self) -> u64 {
        self.sampler_failure_count()
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// Point queries on inactive vertices are `InvalidBatch` (the
    /// vertex-set contract), checked before any charge; otherwise the
    /// inner structure answers at the maintained-solution charges,
    /// except that the component count leaves out the inactive slots.
    fn answer(
        &mut self,
        query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        let active = match *query {
            QueryRequest::Connected(u, v) => ensure_vertex_in(u.max(v), self.capacity())
                .and_then(|()| self.connected(u, v).map(drop)),
            QueryRequest::ComponentOf(v) => {
                ensure_vertex_in(v, self.capacity()).and_then(|()| self.component_of(v).map(drop))
            }
            QueryRequest::ComponentCount => {
                ctx.sort(self.capacity() as u64);
                return Some(Ok(QueryResponse::Count(self.component_count() as u64)));
            }
            _ => Ok(()),
        };
        if let Err(e) = active {
            return Some(Err(e));
        }
        let inner = self.connectivity();
        let forest = || inner.spanning_forest();
        answer_maintained(query, inner.component_labels(), forest, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connectivity::ConnectivityConfig;
    use mpc_graph::gen;
    use mpc_graph::ids::Edge;
    use mpc_graph::oracle;

    fn cfg(n: usize) -> MpcConfig {
        MpcConfig::builder(n, 0.5).local_capacity(1 << 15).build()
    }

    #[test]
    fn session_drives_one_maintainer_like_direct_use() {
        let n = 48;
        let stream = gen::random_mixed_stream(n, 8, 10, 0.6, 42);
        let snaps = stream.replay();
        let mut session = Session::new(cfg(n));
        let h = session.register(Connectivity::new(n, ConnectivityConfig::default(), 3));
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            session.apply_batch(batch).expect("valid stream");
            let live: Vec<Edge> = snap.edges().collect();
            let labels = oracle::components(n, live.iter().copied());
            assert_eq!(session.get(h).component_labels(), &labels[..]);
        }
        assert!(session.stats().batches >= stream.batches.len() as u64);
        assert!(session.stats().rounds > 0);
        assert!(session.state_words() > 0);
        session.validate_all().expect("invariants hold");
    }

    #[test]
    fn fan_out_composes_rounds_by_max_not_sum() {
        let n = 16;
        let mut single = Session::new(cfg(n));
        single.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        let mut double = Session::new(cfg(n));
        double.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        double.register(Connectivity::new(n, ConnectivityConfig::default(), 2));
        let updates: Vec<Update> = (0..8u32)
            .map(|i| Update::Insert(Edge::new(i, i + 1)))
            .collect();
        single.apply(updates.clone()).expect("apply");
        double.apply(updates).expect("apply");
        // Two identical maintainers in parallel: session rounds stay
        // within a whisker of one (identical branches, max-composed).
        assert_eq!(single.stats().rounds, double.stats().rounds);
        // …while both maintainers' communication is accounted.
        assert!(double.stats().words > single.stats().words);
        assert_eq!(double.stats().maintainer_batches, 2);
    }

    #[test]
    fn chunking_respects_max_batch() {
        let n = 32;
        let mut session = Session::new(cfg(n)).with_max_batch(4);
        session.register(Connectivity::new(n, ConnectivityConfig::default(), 5));
        let updates: Vec<Update> = (0..10u32)
            .map(|i| Update::Insert(Edge::new(i, i + 1)))
            .collect();
        let reports = session.apply(updates).expect("apply");
        // 10 updates at ≤4 per chunk → 3 chunks × 1 maintainer.
        assert_eq!(reports.len(), 3);
        assert_eq!(session.stats().batches, 3);
        assert_eq!(session.stats().updates, 10);
        assert_eq!(session.max_batch(), 4);
    }

    #[test]
    fn normalization_cancels_opposing_updates() {
        let e = Edge::new(0, 1);
        let kept = Batch::normalize([
            Update::Insert(e),
            Update::Delete(e),
            Update::Insert(Edge::new(2, 3)),
        ]);
        assert_eq!(kept, vec![Update::Insert(Edge::new(2, 3))]);
        // Odd count: the final operation survives.
        let kept = Batch::normalize([Update::Insert(e), Update::Delete(e), Update::Insert(e)]);
        assert_eq!(kept, vec![Update::Insert(e)]);
        // Through a session: a net no-op leaves the graph empty.
        let mut session = Session::new(cfg(8));
        let h = session.register(Connectivity::new(8, ConnectivityConfig::default(), 9));
        session
            .apply([Update::Insert(e), Update::Delete(e)])
            .expect("net no-op");
        assert_eq!(session.get(h).live_edge_count(), 0);
    }

    #[test]
    fn weighted_normalization_keeps_final_weight() {
        use mpc_graph::ids::WeightedEdge;
        let kept = WeightedBatch::normalize([
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Delete(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 9)),
        ]);
        assert_eq!(
            kept,
            vec![WeightedUpdate::Insert(WeightedEdge::new(0, 1, 9))]
        );
    }

    #[test]
    fn weighted_reweight_pair_survives_normalization() {
        // Delete(w=5) then Insert(w=9) is a reweight, not a no-op:
        // the weights differ, so nothing cancels.
        use mpc_graph::ids::WeightedEdge;
        let kept = WeightedBatch::normalize([
            WeightedUpdate::Delete(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 9)),
        ]);
        assert_eq!(
            kept,
            vec![
                WeightedUpdate::Delete(WeightedEdge::new(0, 1, 5)),
                WeightedUpdate::Insert(WeightedEdge::new(0, 1, 9)),
            ]
        );
    }

    /// The per-edge `BTreeMap` of undo stacks that [`normalize`]
    /// replaced, kept as its reference.
    fn normalize_reference<U: Copy>(
        updates: impl IntoIterator<Item = U>,
        edge_of: impl Fn(&U) -> Edge,
        undoes: impl Fn(&U, &U) -> bool,
    ) -> Vec<U> {
        let mut pending: BTreeMap<Edge, Vec<(U, usize)>> = BTreeMap::new();
        for (i, u) in updates.into_iter().enumerate() {
            let stack = pending.entry(edge_of(&u)).or_default();
            if stack.last().is_some_and(|(last, _)| undoes(last, &u)) {
                stack.pop();
            } else {
                stack.push((u, i));
            }
        }
        let mut ordered: Vec<(U, usize)> = pending.into_values().flatten().collect();
        ordered.sort_by_key(|&(_, i)| i);
        ordered.into_iter().map(|(u, _)| u).collect()
    }

    /// Random batches over few edges and two weights — duplicates,
    /// odd and even toggle runs, reweight pairs, empty batches — give
    /// the sort-based normalization and the `BTreeMap` reference the
    /// same survivors in the same order, unweighted and weighted.
    #[test]
    fn normalization_matches_the_btree_reference() {
        use mpc_graph::ids::WeightedEdge;
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(0x0DD5);
        for round in 0..400 {
            let edges = rng.gen_range(1..6u32);
            let len = rng.gen_range(0..40usize);
            let weighted: Vec<WeightedUpdate> = (0..len)
                .map(|_| {
                    let a = rng.gen_range(0..edges);
                    let we = WeightedEdge::new(a, a + 1, rng.gen_range(1..3));
                    if rng.gen_bool(0.5) {
                        WeightedUpdate::Insert(we)
                    } else {
                        WeightedUpdate::Delete(we)
                    }
                })
                .collect();
            let want = normalize_reference(
                weighted.iter().copied(),
                |u| u.weighted_edge().edge,
                |a, b| {
                    a.is_insert() != b.is_insert()
                        && a.weighted_edge().weight == b.weighted_edge().weight
                },
            );
            assert_eq!(
                WeightedBatch::normalize(weighted.iter().copied()),
                want,
                "round {round}: weighted"
            );
            let unweighted: Vec<Update> = weighted.iter().map(|u| u.unweighted()).collect();
            let want = normalize_reference(
                unweighted.iter().copied(),
                |u| u.edge(),
                |a, b| a.is_insert() != b.is_insert(),
            );
            assert_eq!(
                Batch::normalize(unweighted.iter().copied()),
                want,
                "round {round}: unweighted"
            );
        }
    }

    #[test]
    fn duplicate_same_direction_updates_are_forwarded_not_dropped() {
        let e = Edge::new(0, 1);
        // Normalization only cancels exact undo pairs; a doubled
        // insert is the caller's statement and survives…
        assert_eq!(
            Batch::normalize([Update::Insert(e), Update::Insert(e)]),
            vec![Update::Insert(e), Update::Insert(e)]
        );
        // …so each maintainer applies its own contract to the pair.
        // Connectivity applies the paper's batch-level WLOG and nets
        // the toggles out; a set-semantic maintainer must end up with
        // the edge present, not silently empty.
        let mut session = Session::new(cfg(8));
        let conn = session.register(Connectivity::new(8, ConnectivityConfig::default(), 4));
        session
            .apply([Update::Insert(e), Update::Insert(e)])
            .expect("forwarded to maintainer contracts");
        assert_eq!(
            session.get(conn).live_edge_count(),
            0,
            "connectivity's batch WLOG nets even toggles out"
        );
    }

    #[test]
    fn raw_mode_forwards_updates_verbatim() {
        // with_normalization(false): the maintainer sees the raw
        // sequence and applies its own contract — here Connectivity's
        // batch-level WLOG still nets the pair out, but the session
        // itself forwarded both updates (2 counted, not 0).
        let e = Edge::new(0, 1);
        let mut session = Session::new(cfg(8)).with_normalization(false);
        session.register(Connectivity::new(8, ConnectivityConfig::default(), 6));
        let reports = session
            .apply([Update::Insert(e), Update::Delete(e)])
            .expect("legal toggle pair");
        assert_eq!(reports[0].updates, 2, "nothing cancelled by the session");
        assert_eq!(session.stats().updates, 2);
    }

    #[test]
    fn invalid_batch_surfaces_unified_error() {
        let mut session = Session::new(cfg(8));
        session.register(Connectivity::new(8, ConnectivityConfig::default(), 1));
        let err = session
            .apply([Update::Insert(Edge::new(0, 200))])
            .expect_err("endpoint out of range");
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    }

    #[test]
    fn capacity_violation_is_err_via_trait_surface() {
        // A tiny strict cluster: the batch's auxiliary structures
        // cannot be gathered to one 4-word machine.
        let tiny = MpcConfig::builder(16, 0.5)
            .local_capacity(4)
            .machines(2)
            .strict(true)
            .build();
        let mut ctx = MpcContext::new(tiny);
        let mut conn = Connectivity::new(16, ConnectivityConfig::default(), 2);
        let batch = Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 1)));
        let err = Maintain::ingest(&mut conn, &batch, &mut ctx).expect_err("must not fit");
        assert!(matches!(err, MpcStreamError::Capacity(_)));
    }

    #[test]
    fn robust_and_vertex_dynamic_and_streaming_work_in_session() {
        let n = 12;
        let mut session = Session::new(cfg(n));
        let r = session.register(RobustConnectivity::new(
            n,
            2,
            8,
            ConnectivityConfig::default(),
            7,
        ));
        let s = session.register(StreamingConnectivity::new(n, 7));
        let mut vd = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 7);
        {
            // Activate every slot up front so the shared stream's
            // endpoints are legal.
            let mut ctx = MpcContext::new(cfg(n));
            vd.add_vertices(n, &mut ctx).expect("capacity");
        }
        let v = session.register(vd);
        let stream = gen::random_insert_stream(n, 4, 6, 13);
        let snaps = stream.replay();
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            session.apply_batch(batch).expect("insert-only stream");
            let live: Vec<Edge> = snap.edges().collect();
            let labels = oracle::components(n, live.iter().copied());
            assert_eq!(session.get(r).component_labels(), &labels[..]);
            assert_eq!(session.get(s).component_labels(), &labels[..]);
            let vd = session.get(v);
            for e in &live {
                assert!(vd.connected(e.u(), e.v()).expect("active"));
            }
        }
        assert_eq!(
            session.names(),
            vec![
                "robust-connectivity",
                "streaming-connectivity",
                "vertex-dynamic-connectivity"
            ]
        );
    }

    #[test]
    fn budget_exhaustion_maps_to_unified_error() {
        let n = 8;
        let mut session = Session::new(cfg(n));
        let h = session.register(RobustConnectivity::new(
            n,
            1,
            1,
            ConnectivityConfig::default(),
            3,
        ));
        session
            .apply([
                Update::Insert(Edge::new(0, 1)),
                Update::Insert(Edge::new(1, 2)),
            ])
            .expect("inserts are free");
        // Two consuming deletions: the second exhausts the 1×1 budget.
        for step in 0..2 {
            let target = session.get(h).spanning_forest()[0];
            let result = session.apply([Update::Delete(target)]);
            if step == 0 {
                result.expect("first consuming batch is within budget");
            } else {
                let err = result.expect_err("budget spent");
                assert!(matches!(err, MpcStreamError::BudgetExhausted(_)));
            }
        }
    }

    #[test]
    fn typed_handles_give_infallible_access() {
        let mut session = Session::new(cfg(8));
        let h = session.register(Connectivity::new(8, ConnectivityConfig::default(), 1));
        // No Option, no turbofish: the handle carries the type.
        assert_eq!(session.get(h).vertex_count(), 8);
        assert_eq!(h.id(), 0);
        assert_eq!(MaintainerId::from(h), 0);
        assert!(format!("{h:?}").contains("Handle"));
        let copy = h; // handles are Copy
        assert_eq!(copy.id(), h.id());
        // The dynamic escape hatch still works by id.
        let dynamic = session.maintainer(h.id()).expect("registered");
        assert_eq!(dynamic.name(), "connectivity");
        assert_eq!(dynamic.l0_failures(), 0);
        assert!(session.maintainer(9).is_none());
        assert!(format!("{session:?}").contains("connectivity"));
    }

    #[test]
    fn ask_charges_and_receipts_queries() {
        let n = 16;
        let mut session = Session::new(cfg(n));
        let h = session.register(Connectivity::new(n, ConnectivityConfig::default(), 4));
        session
            .apply([
                Update::Insert(Edge::new(0, 1)),
                Update::Insert(Edge::new(1, 2)),
            ])
            .expect("valid stream");
        let rounds_before = session.ctx().stats().rounds;
        let answer = session
            .ask(h, &QueryRequest::Connected(0, 2))
            .expect("supported");
        assert_eq!(answer.as_bool(), Some(true));
        // The answer was charged on the session's own cluster…
        assert!(session.ctx().stats().rounds > rounds_before);
        // …and receipted.
        let reports = session.query_reports();
        assert_eq!(reports.len(), 1);
        assert_eq!(reports[0].maintainer, "connectivity");
        assert_eq!(reports[0].query, QueryRequest::Connected(0, 2));
        assert!(reports[0].rounds > 0 && reports[0].words > 0);
        // …and rolled into the per-maintainer breakdown.
        let m = &session.stats().per_maintainer[0];
        assert_eq!(m.queries, 1);
        assert!(m.query_rounds > 0);
        assert_eq!(session.stats().queries, 1);
        // Component count and forest go through the charged plane too.
        let cc = session
            .ask(h, &QueryRequest::ComponentCount)
            .expect("supported");
        assert_eq!(cc.as_count(), Some(n as u64 - 2));
        let forest = session
            .ask(h, &QueryRequest::SpanningForest)
            .expect("supported");
        assert_eq!(forest.as_edges().map(<[Edge]>::len), Some(2));
        // Unsupported queries are clean errors, charged nothing.
        let rounds = session.ctx().stats().rounds;
        let err = session
            .ask(h, &QueryRequest::MatchingSize)
            .expect_err("connectivity keeps no matching");
        assert!(matches!(err, MpcStreamError::Unsupported(_)));
        assert_eq!(session.ctx().stats().rounds, rounds);
        // Malformed arguments are InvalidBatch.
        let err = session
            .ask(h, &QueryRequest::Connected(0, 200))
            .expect_err("vertex out of range");
        assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    }

    #[test]
    fn ask_all_fans_out_and_max_composes_rounds() {
        let n = 12;
        let mut session = Session::new(cfg(n));
        let a = session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        let b = session.register(StreamingConnectivity::new(n, 2));
        session
            .apply((0..6u32).map(|i| Update::Insert(Edge::new(i, i + 1))))
            .expect("valid stream");
        let rounds_before = session.ctx().stats().rounds;
        let answers = session
            .ask_all(&QueryRequest::ComponentCount)
            .expect("both support component counts");
        assert_eq!(answers.len(), 2);
        assert_eq!(answers[0].0, a.id());
        assert_eq!(answers[1].0, b.id());
        let expect = QueryResponse::Count(n as u64 - 6);
        assert_eq!(answers[0].1, expect);
        assert_eq!(answers[1].1, expect);
        // Two receipts, both charged…
        assert_eq!(session.query_reports().len(), 2);
        for r in session.query_reports() {
            assert!(r.rounds > 0);
        }
        // …but the session-level phase max-composed the branches:
        // strictly less than the sum of the two answers' rounds.
        let phase = session.ctx().stats().rounds - rounds_before;
        let sum: u64 = session.query_reports().iter().map(|r| r.rounds).sum();
        assert!(phase < sum, "phase {phase} should be < serial sum {sum}");
        assert_eq!(session.stats().query_rounds, phase);
        // A query every maintainer declines fans out to an empty answer set.
        let none = session
            .ask_all(&QueryRequest::MatchingSize)
            .expect("unsupported everywhere is not an error");
        assert!(none.is_empty());
        assert!(session.query_reports().is_empty());
    }

    #[test]
    fn machine_groups_partition_the_cluster_per_maintainer() {
        let n = 16;
        let mut session = Session::new(cfg(n));
        let a = session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        let b = session.register(StreamingConnectivity::new(n, 2));
        let ga = session.machine_group(a.id()).expect("registered");
        let gb = session.machine_group(b.id()).expect("registered");
        let machines = session.ctx().config().machines();
        assert_eq!(ga.machines() + gb.machines(), machines);
        assert_eq!(gb.start(), ga.start() + ga.machines());
        assert!(session.machine_group(2).is_none());
    }

    /// A minimal maintainer with a dial-a-footprint standing state,
    /// for deterministic audit tests.
    struct FixedState {
        name: &'static str,
        n: usize,
        state_words: u64,
    }

    impl Maintain for FixedState {
        fn name(&self) -> &'static str {
            self.name
        }

        fn words(&self) -> u64 {
            self.state_words
        }

        fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
            route_batch(batch, self.n, ctx)
        }

        fn answer(
            &mut self,
            _query: &QueryRequest,
            _ctx: &mut MpcContext,
        ) -> Option<Result<QueryResponse, MpcStreamError>> {
            None
        }
    }

    impl SaveState for FixedState {
        fn save_state(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.state_words);
        }
    }

    /// Charges one exchange for every question, then declines it.
    struct ChargingDecliner;

    impl Maintain for ChargingDecliner {
        fn name(&self) -> &'static str {
            "charging-decliner"
        }

        fn words(&self) -> u64 {
            0
        }

        fn ingest(&mut self, _batch: &Batch, _ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
            Ok(())
        }

        fn answer(
            &mut self,
            _query: &QueryRequest,
            ctx: &mut MpcContext,
        ) -> Option<Result<QueryResponse, MpcStreamError>> {
            ctx.exchange(1);
            None
        }
    }

    impl SaveState for ChargingDecliner {
        fn save_state(&self, _w: &mut SnapshotWriter) {}
    }

    #[test]
    fn a_charged_decline_is_internal_on_every_ask_path() {
        let mut session = Session::new(cfg(8));
        let h = session.register(ChargingDecliner);
        let query = QueryRequest::Connected(0, 1);
        let want = MpcStreamError::Internal(
            "charging-decliner charged before declining connected(0, 1)".into(),
        );
        assert_eq!(session.ask(h, &query), Err(want.clone()));
        assert!(session.query_reports().is_empty());
        assert_eq!(session.ask_dyn(h.id(), &query), Err(want.clone()));
        assert!(session.query_reports().is_empty());
        assert_eq!(session.ask_all(&query), Err(want));
        assert!(session.query_reports().is_empty());
        assert_eq!(session.stats().queries, 0);
    }

    #[test]
    fn strict_group_overrun_names_the_offending_maintainer() {
        // 4 machines × 64 words, split into two 2-machine groups of
        // 128 words each: the oversized maintainer is named, the
        // green neighbor is not.
        let tight = MpcConfig::builder(16, 0.5)
            .local_capacity(64)
            .machines(4)
            .strict(true)
            .build();
        let mut session = Session::new(tight);
        let green = session.register(FixedState {
            name: "green",
            n: 16,
            state_words: 100,
        });
        session.register(FixedState {
            name: "oversized",
            n: 16,
            state_words: 200,
        });
        let err = session
            .apply([Update::Insert(Edge::new(0, 1))])
            .expect_err("200 words cannot fit a 128-word group");
        match err {
            MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded {
                maintainer,
                group,
                used,
                capacity,
            }) => {
                assert_eq!(maintainer, "oversized");
                assert_eq!(used, 200);
                assert_eq!(capacity, 128);
                assert_eq!(group.machines(), 2);
                assert_eq!(group.start(), 2);
            }
            other => panic!("expected ClusterMemoryExceeded, got {other:?}"),
        }
        // The neighbor's audit entry stayed green.
        assert_eq!(
            session.stats().per_maintainer[green.id()].capacity_violations,
            0
        );
        assert_eq!(session.get(green).words(), 100);
    }

    #[test]
    fn overlapping_groups_still_enforce_the_per_machine_bound() {
        // 3 maintainers on a 2-machine cluster: the groups overlap
        // (round-robin single machines: a and c share machine 0), so
        // every *group* check passes (60 <= 64 each) — but machine 0
        // carries 120 > 64 words, which the co-scheduling audit must
        // still catch, attributed to one of the machine's tenants.
        let tight = MpcConfig::builder(16, 0.5)
            .local_capacity(64)
            .machines(2)
            .strict(true)
            .build();
        let mut session = Session::new(tight);
        for name in ["a", "b", "c"] {
            session.register(FixedState {
                name,
                n: 16,
                state_words: 60,
            });
        }
        let err = session
            .apply([Update::Insert(Edge::new(0, 1))])
            .expect_err("machine 0 hosts 2 x 60 words against s = 64");
        match err {
            MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded {
                maintainer,
                used,
                capacity,
                ..
            }) => {
                assert_eq!(used, 120);
                assert_eq!(capacity, 64);
                assert!(["a", "c"].contains(&maintainer.as_str()));
            }
            other => panic!("expected ClusterMemoryExceeded, got {other:?}"),
        }
        // Permissive twin records the overrun instead.
        let permissive = MpcConfig::builder(16, 0.5)
            .local_capacity(64)
            .machines(2)
            .build();
        let mut session = Session::new(permissive);
        for name in ["a", "b", "c"] {
            session.register(FixedState {
                name,
                n: 16,
                state_words: 60,
            });
        }
        session
            .apply([Update::Insert(Edge::new(0, 1))])
            .expect("permissive mode records instead of erroring");
        assert!(session.stats().capacity_violations > 0);
    }

    #[test]
    fn permissive_group_overrun_is_attributed_in_the_breakdown() {
        let tight = MpcConfig::builder(16, 0.5)
            .local_capacity(64)
            .machines(4)
            .build(); // permissive
        let mut session = Session::new(tight);
        let green = session.register(FixedState {
            name: "green",
            n: 16,
            state_words: 100,
        });
        let fat = session.register(FixedState {
            name: "oversized",
            n: 16,
            state_words: 200,
        });
        session
            .apply([Update::Insert(Edge::new(0, 1))])
            .expect("permissive mode records instead of erroring");
        assert_eq!(
            session.stats().per_maintainer[green.id()].capacity_violations,
            0
        );
        assert_eq!(
            session.stats().per_maintainer[fat.id()].capacity_violations,
            1
        );
        assert_eq!(session.stats().per_maintainer[fat.id()].state_words, 200);
        assert_eq!(session.stats().capacity_violations, 1);
    }

    #[test]
    fn permissive_session_records_state_capacity_violation() {
        // 2 machines × 64 words cannot hold a connectivity sketch
        // bank: the audit records (but does not error in permissive
        // mode) a violation.
        let small = MpcConfig::builder(32, 0.5)
            .local_capacity(64)
            .machines(2)
            .build();
        let mut session = Session::new(small).with_max_batch(8);
        session.register(Connectivity::new(32, ConnectivityConfig::default(), 1));
        session
            .apply([Update::Insert(Edge::new(0, 1))])
            .expect("permissive mode absorbs the overrun");
        assert!(session.stats().capacity_violations > 0);
    }
}
