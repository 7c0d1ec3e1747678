//! The tentpole claim of the unified surface: **one** `Session`
//! drives heterogeneous maintainers over **one** shared stream on
//! **one** accounted cluster, and every maintainer's answers match
//! its sequential oracle; every failure mode surfaces as the
//! workspace-wide `MpcStreamError` instead of a panic. A failing
//! fan-out leaves a pinned state behind: the branches ahead of the
//! failure are absorbed, the failing one keeps its partial charges,
//! and the ones behind it never run.

use mpc_stream::graph::gen;
use mpc_stream::graph::oracle;
use mpc_stream::prelude::*;

fn cfg(n: usize) -> MpcConfig {
    // 2n covers the bipartite double cover's vertex space.
    MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// A strict 4-word-per-machine cluster nothing fits in.
fn tiny_ctx() -> MpcContext {
    MpcContext::new(
        MpcConfig::builder(16, 0.5)
            .local_capacity(4)
            .machines(2)
            .strict(true)
            .build(),
    )
}

fn big_batch() -> Batch {
    Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 1)))
}

#[test]
fn one_session_drives_connectivity_msf_and_bipartiteness_vs_oracles() {
    let n = 48;
    let stream = gen::random_insert_stream(n, 6, 10, 2024);
    let snaps = stream.replay();

    let mut session = Session::new(cfg(n));
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
    let msf = session.register(ExactMsf::new(n));
    let bip = session.register(Bipartiteness::new(n, 2));
    assert_eq!(session.maintainer_count(), 3);

    for (i, (batch, snap)) in stream.batches.iter().zip(&snaps).enumerate() {
        let reports = session
            .apply_batch(batch)
            .unwrap_or_else(|e| panic!("batch {i}: {e}"));
        // Every maintainer reported on every chunk.
        assert!(reports.len() >= 3, "batch {i}: {} reports", reports.len());

        let live: Vec<Edge> = snap.edges().collect();
        // Connectivity vs the union-find oracle.
        let labels = oracle::components(n, live.iter().copied());
        assert_eq!(
            session.get(conn).component_labels(),
            &labels[..],
            "batch {i}: connectivity labels diverged"
        );
        // Exact MSF (unit weights through the unweighted fan-out) vs
        // Kruskal: with unit weights the MSF weight is n − cc.
        let unit: Vec<WeightedEdge> = live
            .iter()
            .map(|&e| WeightedEdge { edge: e, weight: 1 })
            .collect();
        assert_eq!(
            session.get(msf).weight(),
            oracle::msf_weight(n, unit.iter().copied()),
            "batch {i}: MSF weight diverged"
        );
        // Bipartiteness vs the 2-coloring oracle.
        assert_eq!(
            session.get(bip).is_bipartite(),
            oracle::is_bipartite(n, &live),
            "batch {i}: bipartiteness diverged"
        );
    }

    // The shared cluster accounted everything once.
    let stats = session.stats();
    assert_eq!(stats.maintainer_batches, 3 * stats.batches);
    assert!(stats.rounds > 0 && stats.words > 0);
    assert!(session.state_words() > 0);
    session.validate_all().expect("all invariants hold");
}

#[test]
fn weighted_stream_shares_weights_with_msf_and_projects_for_connectivity() {
    let n = 32;
    let max_w = 16;
    let stream = gen::random_weighted_insert_stream(n, 5, 8, max_w, 7);

    let mut session = Session::new(cfg(n));
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 3));
    let msf = session.register(ExactMsf::new(n));

    let mut all: Vec<WeightedEdge> = Vec::new();
    for batch in &stream.batches {
        session.apply_weighted(batch.iter()).expect("valid stream");
        all.extend(batch.insertions());
        assert_eq!(
            session.get(msf).weight(),
            oracle::msf_weight(n, all.iter().copied()),
            "weight-aware maintainer must see the true weights"
        );
        let labels = oracle::components(n, all.iter().map(|we| we.edge));
        assert_eq!(
            session.get(conn).component_labels(),
            &labels[..],
            "weight-oblivious maintainer sees the projection"
        );
    }
}

/// The acceptance gate: a capacity violation surfaces as
/// `Err(MpcStreamError::Capacity(..))` — never a panic — from every
/// maintainer in the workspace, driven through the unified trait.
#[test]
fn capacity_violation_is_err_from_every_maintainer() {
    let n = 16;
    let mut maintainers: Vec<Box<dyn Maintain>> = vec![
        Box::new(Connectivity::new(n, ConnectivityConfig::default(), 1)),
        Box::new(StreamingConnectivity::new(n, 2)),
        Box::new(RobustConnectivity::new(
            n,
            2,
            4,
            ConnectivityConfig::default(),
            3,
        )),
        Box::new(ExactMsf::new(n)),
        Box::new(ApproxMsfWeight::new(n, 0.5, 8, 4)),
        Box::new(ApproxMsfForest::new(n, 0.5, 8, 5)),
        Box::new(Bipartiteness::new(n, 6)),
        Box::new(MatchingSizeEstimator::new(
            n,
            2.0,
            StreamKind::InsertionOnly,
            7,
        )),
        Box::new(MatchingSizeEstimator::new(n, 2.0, StreamKind::Dynamic, 8)),
        Box::new(AklyMatching::new(n, 2.0, 9)),
        Box::new(MaximalMatching::new(n)),
        Box::new(DynamicKConn::new(n, 2, 10)),
        Box::new(InsertOnlyKConn::new(n, 2)),
    ];
    // Vertex-dynamic needs active slots before edges are legal.
    let mut vd = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 11);
    {
        let mut setup = MpcContext::new(cfg(n));
        vd.add_vertices(n, &mut setup).expect("slots available");
    }
    maintainers.push(Box::new(vd));
    assert_eq!(maintainers.len(), 14);

    for m in &mut maintainers {
        let mut ctx = tiny_ctx();
        let err = m
            .ingest(&big_batch(), &mut ctx)
            .expect_err(&format!("{}: an 8-update batch cannot fit s = 4", m.name()));
        assert!(
            matches!(err, MpcStreamError::Capacity(_)),
            "{}: expected Capacity, got {err:?}",
            m.name()
        );
    }
}

/// Companion gate: an out-of-range endpoint surfaces as
/// `Err(MpcStreamError::InvalidBatch(..))` from every maintainer —
/// never an index panic.
#[test]
fn out_of_range_endpoint_is_invalid_batch_from_every_maintainer() {
    let n = 16;
    let mut maintainers: Vec<Box<dyn Maintain>> = vec![
        Box::new(Connectivity::new(n, ConnectivityConfig::default(), 1)),
        Box::new(StreamingConnectivity::new(n, 2)),
        Box::new(RobustConnectivity::new(
            n,
            2,
            4,
            ConnectivityConfig::default(),
            3,
        )),
        Box::new(ExactMsf::new(n)),
        Box::new(ApproxMsfWeight::new(n, 0.5, 8, 4)),
        Box::new(ApproxMsfForest::new(n, 0.5, 8, 5)),
        Box::new(Bipartiteness::new(n, 6)),
        Box::new(MatchingSizeEstimator::new(
            n,
            2.0,
            StreamKind::InsertionOnly,
            7,
        )),
        Box::new(MatchingSizeEstimator::new(n, 2.0, StreamKind::Dynamic, 8)),
        Box::new(AklyMatching::new(n, 2.0, 9)),
        Box::new(MaximalMatching::new(n)),
        Box::new(DynamicKConn::new(n, 2, 10)),
        Box::new(InsertOnlyKConn::new(n, 2)),
        Box::new(VertexDynamicConnectivity::with_capacity(
            n,
            ConnectivityConfig::default(),
            11,
        )),
    ];
    let rogue = Batch::inserting([Edge::new(0, 200)]);
    for m in &mut maintainers {
        let mut ctx = MpcContext::new(cfg(n));
        let err = m
            .ingest(&rogue, &mut ctx)
            .expect_err(&format!("{}: endpoint 200 outside [0, {n})", m.name()));
        assert!(
            matches!(err, MpcStreamError::InvalidBatch(_)),
            "{}: expected InvalidBatch, got {err:?}",
            m.name()
        );
    }
}

#[test]
fn unsupported_updates_are_errors_not_panics() {
    let n = 16;
    let deleting = Batch::deleting([Edge::new(0, 1)]);
    let cases: Vec<Box<dyn Maintain>> = vec![
        Box::new(ExactMsf::new(n)),
        Box::new(MatchingSizeEstimator::new(
            n,
            2.0,
            StreamKind::InsertionOnly,
            1,
        )),
        Box::new(InsertOnlyKConn::new(n, 2)),
    ];
    for mut m in cases {
        let mut ctx = MpcContext::new(cfg(n));
        let err = m
            .ingest(&deleting, &mut ctx)
            .expect_err(&format!("{} is insertion-only", m.name()));
        assert!(
            matches!(err, MpcStreamError::Unsupported(_)),
            "{}: expected Unsupported, got {err:?}",
            m.name()
        );
    }
}

#[test]
fn session_chunks_normalizes_and_rolls_up() {
    let n = 32;
    let mut session = Session::new(cfg(n)).with_max_batch(4);
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 5));
    session.register(MaximalMatching::new(n));

    // 11 updates, one of which cancels in-submission → 10 survive →
    // 3 chunks × 2 maintainers = 6 reports.
    let e_cancel = Edge::new(30, 31);
    let mut updates: Vec<Update> = (0..10u32)
        .map(|i| Update::Insert(Edge::new(i, i + 1)))
        .collect();
    updates.insert(3, Update::Insert(e_cancel));
    updates.push(Update::Delete(e_cancel));
    let reports = session.apply(updates).expect("valid stream");
    assert_eq!(reports.len(), 6);
    assert_eq!(session.stats().batches, 3);
    assert_eq!(session.stats().updates, 10);
    assert_eq!(session.stats().maintainer_batches, 6);
    let c = session.get(conn);
    assert_eq!(c.live_edge_count(), 10);
    assert!(!c.connected(30, 31));

    // Per-maintainer reports carry the registration names.
    let names: Vec<&str> = reports.iter().map(|r| r.maintainer).collect();
    assert!(names.contains(&"connectivity") && names.contains(&"matching-maximal"));
}

#[test]
fn reweight_pair_reaches_weight_aware_maintainers() {
    // Delete(w=5) + Insert(w=9) of the same edge in one submission is
    // a reweight: normalization must forward both, not cancel them.
    let n = 16;
    let mut session = Session::new(cfg(n));
    let aw = session.register(ApproxMsfWeight::new(n, 0.25, 16, 3));
    session
        .apply_weighted([
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Insert(WeightedEdge::new(1, 2, 3)),
        ])
        .expect("valid stream");
    session
        .apply_weighted([
            WeightedUpdate::Delete(WeightedEdge::new(0, 1, 5)),
            WeightedUpdate::Insert(WeightedEdge::new(0, 1, 9)),
        ])
        .expect("reweight is a legal pair");
    let est = session.get(aw).weight_estimate();
    assert!(
        (12.0..=12.0 * 1.25 + 1e-6).contains(&est),
        "estimate {est} must reflect the reweighted 9 + 3"
    );
}

#[test]
fn duplicate_insert_keeps_set_semantics_through_session() {
    // A doubled insert reaches the maintainer (set-semantic here):
    // the edge must be present, not cancelled away by the session.
    let n = 8;
    let e = Edge::new(0, 1);
    let mut session = Session::new(cfg(n));
    let mm = session.register(MaximalMatching::new(n));
    session
        .apply([Update::Insert(e), Update::Insert(e)])
        .expect("duplicates are set-semantic for the matcher");
    assert_eq!(session.get(mm).edge_count(), 1);
}

#[test]
fn kconn_pair_in_one_session_agrees_on_min_cut() {
    let n = 24;
    let mut session = Session::new(cfg(n));
    let dy = session.register(DynamicKConn::new(n, 2, 21));
    let io = session.register(InsertOnlyKConn::new(n, 2));
    // A cycle: 2-edge-connected.
    let cycle: Vec<Update> = (0..n as u32)
        .map(|i| Update::Insert(Edge::new(i, (i + 1) % n as u32)))
        .collect();
    session.apply(cycle).expect("insert-only stream");
    let io_cut = session.get(io).certificate().min_cut();
    assert_eq!(io_cut, MinCut::AtLeast(2));
    // The dynamic maintainer answers by peeling on the shared ctx.
    let mut peel_ctx = MpcContext::new(cfg(n));
    let dy_cut = session.get(dy).certificate(&mut peel_ctx).min_cut();
    assert_eq!(dy_cut, MinCut::AtLeast(2));
}

// ----- failure paths: what a failing fan-out leaves behind ------------

/// A middle maintainer rejects the chunk (`InsertOnlyKConn` fed a
/// deletion): the branch before it is charged and absorbed, the one
/// after it never runs.
#[test]
fn middle_branch_rejection_absorbs_only_the_branch_ahead() {
    let n = 16usize;
    let mut session = Session::new(cfg(n));
    let first = session.register(Connectivity::new(n, ConnectivityConfig::default(), 51));
    session.register(InsertOnlyKConn::new(n, 2));
    let last = session.register(AgmBaseline::new(n, 52));
    session
        .apply((0..8u32).map(|i| Update::Insert(Edge::new(i, i + 1))))
        .expect("insert-only prefix");
    let before = session.stats().clone();
    let err = session
        .apply([
            Update::Insert(Edge::new(9, 10)),
            Update::Delete(Edge::new(0, 1)),
        ])
        .expect_err("the insert-only certificate rejects deletions");
    assert!(matches!(err, MpcStreamError::Unsupported(_)), "{err}");
    let after = session.stats();
    assert_eq!(
        after.per_maintainer[first.id()].batches,
        before.per_maintainer[first.id()].batches + 1,
        "the branch ahead of the failure was absorbed"
    );
    assert_eq!(
        after.per_maintainer[last.id()],
        before.per_maintainer[last.id()],
        "the branch behind the failure was never charged"
    );
    assert_eq!(
        after.batches, before.batches,
        "a failed chunk is not a batch"
    );
}

/// A maintainer that parks `alloc` words on machine 0 per batch and
/// reports `state` standing words — co-scheduled instances collide on
/// that machine, so a strict cluster overruns inside a branch.
struct Hog {
    name: &'static str,
    alloc: u64,
    state: u64,
}

impl Maintain for Hog {
    fn name(&self) -> &'static str {
        self.name
    }

    fn words(&self) -> u64 {
        self.state
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        ctx.exchange(batch.len() as u64);
        ctx.set_load(0, ctx.load(0) + self.alloc)?;
        Ok(())
    }

    fn answer(
        &mut self,
        _query: &QueryRequest,
        _ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        None
    }
}

impl SaveState for Hog {
    fn save_state(&self, _w: &mut mpc_stream::snapshot::SnapshotWriter) {}
}

fn strict_cluster() -> MpcConfig {
    MpcConfig::builder(16, 0.5)
        .local_capacity(64)
        .machines(4)
        .strict(true)
        .build()
}

/// Strict mode, overrun inside a branch: three hogs each park 40
/// words on machine 0 of a 64-word machine. The second hog's `alloc`
/// fails; the first hog's batch is absorbed, the third is never
/// charged.
#[test]
fn strict_overrun_inside_a_branch_stops_the_fan_out() {
    let mut session = Session::new(strict_cluster());
    for name in ["hog-a", "hog-b", "hog-c"] {
        session.register(Hog {
            name,
            alloc: 40,
            state: 1,
        });
    }
    let err = session
        .apply([Update::Insert(Edge::new(0, 1))])
        .expect_err("machine 0 cannot hold two hogs");
    match &err {
        MpcStreamError::Capacity(MpcError::LocalMemoryExceeded { machine, used, .. }) => {
            assert_eq!((*machine, *used), (0, 80));
        }
        other => panic!("expected LocalMemoryExceeded, got {other:?}"),
    }
    assert_eq!(session.stats().per_maintainer[0].batches, 1);
    assert_eq!(session.stats().per_maintainer[2].batches, 0);
}

/// Strict mode, overrun at the post-chunk audit: every branch
/// succeeds, then the middle hog's standing state overflows its
/// machine group and the audit names it.
#[test]
fn strict_overrun_at_audit_names_the_maintainer() {
    let mut session = Session::new(strict_cluster());
    for (name, state) in [("lean-a", 10), ("fat", 500), ("lean-b", 10)] {
        session.register(Hog {
            name,
            alloc: 1,
            state,
        });
    }
    let err = session
        .apply([Update::Insert(Edge::new(0, 1))])
        .expect_err("500 standing words overflow any group of this cluster");
    match &err {
        MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded { maintainer, .. }) => {
            assert_eq!(maintainer, "fat");
        }
        other => panic!("expected ClusterMemoryExceeded, got {other:?}"),
    }
    assert_eq!(session.stats().batches, 1, "the chunk itself completed");
}

/// A failing `ask_all`: the middle supporter covers fewer vertices,
/// so `Connected(0, 20)` is out of range for it alone. The first
/// answer is receipted and rolled up, the failure aborts the fan-out,
/// the third supporter is never charged.
#[test]
fn failing_ask_all_receipts_only_the_answer_ahead() {
    let mut session = Session::new(cfg(24));
    session.register(Connectivity::new(24, ConnectivityConfig::default(), 61));
    session.register(StreamingConnectivity::new(16, 62));
    let last = session.register(AgmBaseline::new(24, 63));
    session
        .apply((0..10u32).map(|i| Update::Insert(Edge::new(i, i + 1))))
        .expect("edges inside every maintainer's range");
    let err = session
        .ask_all(&QueryRequest::Connected(0, 20))
        .expect_err("vertex 20 is outside the 16-vertex maintainer");
    assert!(matches!(err, MpcStreamError::InvalidBatch(_)), "{err}");
    let receipts = session.query_reports();
    assert_eq!(receipts.len(), 1, "{receipts:?}");
    assert_eq!(receipts[0].maintainer, "connectivity");
    assert_eq!(session.stats().queries, 1);
    assert_eq!(session.stats().per_maintainer[last.id()].queries, 0);
}
