//! The tentpole claim of the unified surface: **one** `Session`
//! drives heterogeneous maintainers over **one** shared stream on
//! **one** accounted cluster, and every maintainer's answers match
//! its sequential oracle; every failure mode surfaces as the
//! workspace-wide `MpcStreamError` instead of a panic.

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
