//! Maintainer-vs-baseline sessions: the paper's Section 2.1 / 1.3.1
//! comparisons run head-to-head inside **one** accounted cluster.
//!
//! The ROADMAP follow-up to the unified maintainer surface: register
//! the AGM sketch-recompute baseline and the `Θ(n+m)` full-memory
//! baseline as [`Maintain`] implementors next to the paper's
//! `Connectivity`, drive all three over the same update stream with
//! one `Session`, and check that (a) every structure answers
//! identically to the union-find oracle, (b) the paper's maintained
//! labelling answers for free while the baselines pay `Θ(log n)`
//! query rounds on the shared context, and (c) the session's capacity
//! audit sees the *combined* standing state.

use mpc_stream::baselines::{AgmBaseline, FullMemoryBaseline};
use mpc_stream::core_alg::{
    Connectivity, ConnectivityConfig, Handle, Maintain, QueryRequest, Session,
};
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::{Edge, VertexId};
use mpc_stream::graph::oracle;
use mpc_stream::graph::update::Update;
use mpc_stream::mpc::{MpcConfig, MpcContext, MpcStreamError};

fn cfg(n: usize) -> MpcConfig {
    MpcConfig::builder(n, 0.5).local_capacity(1 << 15).build()
}

/// Every vertex's label as the session's charged `ComponentOf` answer.
fn asked_labels<M: Maintain>(session: &mut Session, h: Handle<M>, n: usize) -> Vec<VertexId> {
    (0..n as VertexId)
        .map(|v| {
            let answer = session
                .ask(h, &QueryRequest::ComponentOf(v))
                .expect("in range");
            answer.as_vertex().expect("a vertex answer")
        })
        .collect()
}

#[test]
fn maintainer_and_baselines_agree_on_one_cluster() {
    let n = 48;
    let stream = gen::random_mixed_stream(n, 8, 10, 0.6, 0xBA5E);
    let snaps = stream.replay();
    let mut session = Session::new(cfg(n));
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 7));
    let agm = session.register(AgmBaseline::new(n, 7));
    let full = session.register(FullMemoryBaseline::new(n));
    assert_eq!(
        session.names(),
        vec!["connectivity", "agm-baseline", "fullmem-baseline"]
    );
    for (batch, snap) in stream.batches.iter().zip(&snaps) {
        session.apply_batch(batch).expect("valid stream");
        let live: Vec<Edge> = snap.edges().collect();
        let expect = oracle::components(n, live.iter().copied());
        // The paper's structure answers from its maintained labels.
        let maintained = session.get(conn).component_labels().to_vec();
        assert_eq!(maintained, expect, "maintained labels diverged");
        // Both baselines recompute on the session's own context.
        let agm_labels = asked_labels(&mut session, agm, n);
        assert_eq!(agm_labels, expect, "AGM recompute diverged");
        let full_labels = asked_labels(&mut session, full, n);
        assert_eq!(full_labels, expect, "full-memory recompute diverged");
    }
    // The query-round asymmetry the comparison is about: baseline
    // queries cost rounds, the maintained labelling is free.
    let agm_rounds = session.get(agm).last_query_rounds();
    assert!(agm_rounds > 0, "AGM queries must pay Borůvka rounds");
    // All three standing states are audited together.
    let conn_words = session.maintainer(conn.id()).expect("live").words();
    let agm_words = session.maintainer(agm.id()).expect("live").words();
    let full_words = session.maintainer(full.id()).expect("live").words();
    assert!(conn_words > 0 && agm_words > 0 && full_words > 0);
    assert_eq!(
        session.state_words(),
        conn_words + agm_words + full_words,
        "combined standing state"
    );
    // Every chunk fanned to all three maintainers.
    assert_eq!(
        session.stats().maintainer_batches,
        3 * session.stats().batches
    );
    session.validate_all().expect("invariants hold");
}

#[test]
fn baseline_ingest_rejects_illegal_batches_like_a_maintainer() {
    let n = 16;
    let mut session = Session::new(cfg(n));
    session.register(AgmBaseline::new(n, 3));
    let err = session
        .apply([Update::Insert(Edge::new(0, 200))])
        .expect_err("endpoint out of range");
    assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    let mut session = Session::new(cfg(n));
    session.register(FullMemoryBaseline::new(n));
    let err = session
        .apply([Update::Insert(Edge::new(0, 200))])
        .expect_err("endpoint out of range");
    assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
}

#[test]
fn memory_asymmetry_is_observable_in_one_session() {
    // Section 1.3.1's point, measured side by side: the full-memory
    // baseline's words grow linearly with m while the sketch-based
    // structures stay put once their columns are materialized.
    let n = 64;
    let mut session = Session::new(cfg(n));
    let agm = session.register(AgmBaseline::new(n, 5));
    let full = session.register(FullMemoryBaseline::new(n));
    // A dense-ish first wave touches every vertex.
    let wave1: Vec<Update> = (0..n as u32 - 1)
        .map(|i| Update::Insert(Edge::new(i, i + 1)))
        .collect();
    session.apply(wave1).expect("valid");
    let agm_w1 = session.maintainer(agm.id()).expect("live").words();
    let full_w1 = session.maintainer(full.id()).expect("live").words();
    // A second wave adds edges between already-touched vertices.
    let wave2: Vec<Update> = (0..n as u32 / 2)
        .map(|i| Update::Insert(Edge::new(i, i + n as u32 / 2)))
        .collect();
    session.apply(wave2).expect("valid");
    let agm_w2 = session.maintainer(agm.id()).expect("live").words();
    let full_w2 = session.maintainer(full.id()).expect("live").words();
    assert_eq!(agm_w1, agm_w2, "sketch state is Õ(n): no growth with m");
    assert!(full_w2 > full_w1, "full-memory state grows with m");
    // A permissive tiny cluster records the combined overrun instead
    // of erroring.
    let tiny = MpcConfig::builder(n, 0.5)
        .local_capacity(64)
        .machines(2)
        .build();
    let mut tiny_session = Session::new(tiny).with_max_batch(8);
    tiny_session.register(AgmBaseline::new(n, 5));
    tiny_session.register(FullMemoryBaseline::new(n));
    tiny_session
        .apply([Update::Insert(Edge::new(0, 1))])
        .expect("permissive mode absorbs the overrun");
    assert!(tiny_session.stats().capacity_violations > 0);
}

#[test]
fn direct_context_queries_match_session_driven_ones() {
    // The baselines remain usable outside a Session (back-compat):
    // the same stream driven directly gives the same answers.
    let n = 32;
    let stream = gen::random_mixed_stream(n, 5, 8, 0.7, 0xF00D);
    let snaps = stream.replay();
    let mut ctx = MpcContext::new(cfg(n));
    let mut agm = AgmBaseline::new(n, 9);
    let mut session = Session::new(cfg(n)).with_normalization(false);
    let via = session.register(AgmBaseline::new(n, 9));
    for (batch, snap) in stream.batches.iter().zip(&snaps) {
        agm.apply_batch(batch, &mut ctx).expect("valid stream");
        session.apply_batch(batch).expect("valid stream");
        let direct = agm.query_components(&mut ctx);
        let driven = asked_labels(&mut session, via, n);
        assert_eq!(direct, driven);
        assert_eq!(direct, oracle::components(n, snap.edges()));
    }
}
