//! The typed query plane, end to end: `ask` answers must equal the
//! inherent-API answers for **every** maintainer kind in the
//! workspace (property-tested over generated insert streams), every
//! answer must be charged and every decline free, and the
//! machine-group capacity audit must attribute overruns to the
//! offending maintainer while its neighbors stay green.

use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::update::{Batch, Update};
use mpc_stream::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

mod common;
use common::{case_rng, vec_of};

fn cfg(n: usize) -> MpcConfig {
    // 2n covers the bipartite double cover; permissive mode lets one
    // cluster host all sixteen maintainers without provisioning.
    MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// Insert-only simple-graph batch sequences (every maintainer kind,
/// including the insertion-only ones, accepts them).
fn insert_streams(rng: &mut StdRng, n: u32, max_edges: usize) -> Vec<Batch> {
    let pairs = vec_of(rng, 1..max_edges, |r| {
        (r.gen_range(0..n), r.gen_range(0..n))
    });
    let mut seen: BTreeSet<Edge> = BTreeSet::new();
    let mut batches = Vec::new();
    let mut current = Batch::new();
    for (a, b) in pairs {
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if seen.insert(e) {
            current.push(Update::Insert(e));
        }
        if current.len() >= 8 {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// One session, all sixteen maintainer kinds, one shared stream:
/// for each maintainer, at least one `ask` answer is compared
/// against the inherent API it re-expresses — and every answer
/// must have been charged nonzero rounds *and* words.
#[test]
fn ask_answers_equal_inherent_answers_for_every_maintainer_kind() {
    let mut rng = case_rng();
    for case in 0..6 {
        let batches = insert_streams(&mut rng, 20, 40);
        let n = 20usize;
        let mut session = Session::new(cfg(n));
        let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        let strm = session.register(StreamingConnectivity::new(n, 2));
        let robust = session.register(RobustConnectivity::new(
            n,
            2,
            4,
            ConnectivityConfig::default(),
            3,
        ));
        let mut vd0 = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 4);
        {
            let mut setup = MpcContext::new(cfg(n));
            vd0.add_vertices(n, &mut setup).expect("slots available");
        }
        let vd = session.register(vd0);
        let msf = session.register(ExactMsf::new(n));
        let aw = session.register(ApproxMsfWeight::new(n, 0.5, 4, 5));
        let af = session.register(ApproxMsfForest::new(n, 0.5, 4, 6));
        let bip = session.register(Bipartiteness::new(n, 7));
        let est_i = session.register(MatchingSizeEstimator::new(
            n,
            2.0,
            StreamKind::InsertionOnly,
            8,
        ));
        let est_d = session.register(MatchingSizeEstimator::new(n, 2.0, StreamKind::Dynamic, 9));
        let akly = session.register(AklyMatching::new(n, 2.0, 10));
        let mm = session.register(MaximalMatching::new(n));
        let dy = session.register(DynamicKConn::new(n, 2, 11));
        let io = session.register(InsertOnlyKConn::new(n, 2));
        let agm = session.register(AgmBaseline::new(n, 12));
        let full = session.register(FullMemoryBaseline::new(n));
        assert_eq!(session.maintainer_count(), 16, "case {case}");

        for batch in &batches {
            session
                .apply_batch(batch)
                .expect("insert-only simple stream");
        }

        // Every ask below must equal the inherent answer and be
        // charged: nonzero rounds and words.
        macro_rules! ask {
            ($handle:expr, $query:expr, $as:ident, $want:expr) => {{
                let got = session.ask($handle, &$query).unwrap();
                assert_eq!(got.$as(), $want, "case {case}: {}", $query);
                let r = &session.query_reports()[0];
                assert!(r.rounds > 0, "case {case}: {}: free answer", r.maintainer);
                assert!(
                    r.words > 0,
                    "case {case}: {}: weightless answer",
                    r.maintainer
                );
            }};
        }

        let (u, v) = (0u32, n as u32 - 1);

        // Connectivity family: Connected + ComponentCount + forest.
        let want = session.get(conn).connected(u, v);
        ask!(conn, QueryRequest::Connected(u, v), as_bool, Some(want));
        let want = session.get(conn).component_count() as u64;
        ask!(conn, QueryRequest::ComponentCount, as_count, Some(want));
        let want = session.get(conn).spanning_forest();
        ask!(
            conn,
            QueryRequest::SpanningForest,
            as_edges,
            Some(&want[..])
        );

        let want = session.get(strm).connected(u, v);
        ask!(strm, QueryRequest::Connected(u, v), as_bool, Some(want));

        let want = session.get(robust).component_count() as u64;
        ask!(robust, QueryRequest::ComponentCount, as_count, Some(want));

        let want = session.get(vd).connected(u, v).expect("all slots active");
        ask!(vd, QueryRequest::Connected(u, v), as_bool, Some(want));

        // MSF family: weights and forests.
        let want = session.get(msf).weight() as f64;
        ask!(msf, QueryRequest::ForestWeight, as_weight, Some(want));
        let want = session.get(aw).weight_estimate();
        ask!(aw, QueryRequest::ForestWeight, as_weight, Some(want));
        let want: Vec<Edge> = session
            .get(af)
            .forest()
            .into_iter()
            .map(|(e, _)| e)
            .collect();
        ask!(af, QueryRequest::SpanningForest, as_edges, Some(&want[..]));
        let want = session.get(bip).is_bipartite();
        ask!(bip, QueryRequest::IsBipartite, as_bool, Some(want));

        // Matching family: sizes and edges.
        for (handle, want) in [
            (est_i, session.get(est_i).estimate() as u64),
            (est_d, session.get(est_d).estimate() as u64),
        ] {
            ask!(handle, QueryRequest::MatchingSize, as_count, Some(want));
        }
        let want = session.get(akly).matching_size() as u64;
        ask!(akly, QueryRequest::MatchingSize, as_count, Some(want));
        let want = session.get(mm).matching();
        ask!(mm, QueryRequest::MatchingEdges, as_edges, Some(&want[..]));

        // k-connectivity: cut bounds, maintained vs peeled.
        let mut oracle_ctx = MpcContext::new(cfg(n));
        let want = match session.get(dy).certificate(&mut oracle_ctx).min_cut() {
            MinCut::Exact(c) => (c, true),
            MinCut::AtLeast(c) => (c, false),
        };
        ask!(dy, QueryRequest::MinCutLowerBound, as_min_cut, Some(want));
        let want = match session.get(io).certificate().min_cut() {
            MinCut::Exact(c) => (c, true),
            MinCut::AtLeast(c) => (c, false),
        };
        ask!(io, QueryRequest::MinCutLowerBound, as_min_cut, Some(want));

        // Baselines: recomputed answers equal the charged recompute.
        let want = session.query(agm, |b, ctx| b.query_components(ctx));
        ask!(
            agm,
            QueryRequest::ComponentOf(v),
            as_vertex,
            Some(want[v as usize])
        );
        let want = session.query(full, |b, ctx| b.query_components(ctx));
        ask!(
            full,
            QueryRequest::ComponentOf(v),
            as_vertex,
            Some(want[v as usize])
        );

        // All sixteen answered at least once, all charged: the stats
        // breakdown has a nonzero query entry for every maintainer.
        for m in &session.stats().per_maintainer {
            assert!(m.queries >= 1, "case {case}: {} never answered", m.name);
            assert!(
                m.query_rounds > 0,
                "case {case}: {} answered for free",
                m.name
            );
            assert!(m.query_words > 0, "case {case}: {} moved no words", m.name);
        }
    }
}

/// `ask_all` cross-checks: every maintainer that answers
/// `ComponentCount` on a shared stream must agree with the
/// union-find oracle.
#[test]
fn ask_all_component_counts_agree_with_the_oracle() {
    let mut rng = case_rng();
    for case in 0..6 {
        let batches = insert_streams(&mut rng, 16, 30);
        let n = 16usize;
        let mut session = Session::new(cfg(n));
        session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
        session.register(StreamingConnectivity::new(n, 2));
        session.register(ExactMsf::new(n));
        session.register(AgmBaseline::new(n, 3));
        session.register(FullMemoryBaseline::new(n));
        let mut live = Vec::new();
        for batch in &batches {
            session
                .apply_batch(batch)
                .expect("insert-only simple stream");
            live.extend(batch.insertions());
        }
        let labels = mpc_stream::graph::oracle::components(n, live.iter().copied());
        let cc = mpc_stream::core_alg::canonical_component_count(&labels);
        let answers = session
            .ask_all(&QueryRequest::ComponentCount)
            .expect("fan-out");
        assert_eq!(
            answers.len(),
            5,
            "case {case}: all five support component counts"
        );
        for (id, answer) in answers {
            assert_eq!(
                answer.as_count(),
                Some(cc),
                "case {case}: maintainer {} diverged from the oracle",
                session.maintainer(id).expect("registered").name()
            );
        }
    }
}

/// Every typed query the plane knows, for the contract sweep below.
const ALL_QUERIES: [QueryRequest; 9] = [
    QueryRequest::Connected(0, 1),
    QueryRequest::ComponentOf(1),
    QueryRequest::ComponentCount,
    QueryRequest::SpanningForest,
    QueryRequest::ForestWeight,
    QueryRequest::MatchingSize,
    QueryRequest::MatchingEdges,
    QueryRequest::MinCutLowerBound,
    QueryRequest::IsBipartite,
];

/// One freshly built maintainer of every registered kind, as trait
/// objects, every vertex-dynamic slot active.
fn roster(n: usize) -> Vec<Box<dyn Maintain>> {
    let mut vd = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 4);
    vd.add_vertices(n, &mut MpcContext::new(cfg(n)))
        .expect("slots available");
    vec![
        Box::new(Connectivity::new(n, ConnectivityConfig::default(), 1)),
        Box::new(StreamingConnectivity::new(n, 2)),
        Box::new(RobustConnectivity::new(
            n,
            2,
            4,
            ConnectivityConfig::default(),
            3,
        )),
        Box::new(vd),
        Box::new(ExactMsf::new(n)),
        Box::new(ApproxMsfWeight::new(n, 0.5, 4, 5)),
        Box::new(ApproxMsfForest::new(n, 0.5, 4, 6)),
        Box::new(Bipartiteness::new(n, 7)),
        Box::new(MatchingSizeEstimator::new(
            n,
            2.0,
            StreamKind::InsertionOnly,
            8,
        )),
        Box::new(MatchingSizeEstimator::new(n, 2.0, StreamKind::Dynamic, 9)),
        Box::new(AklyMatching::new(n, 2.0, 10)),
        Box::new(MaximalMatching::new(n)),
        Box::new(DynamicKConn::new(n, 2, 11)),
        Box::new(InsertOnlyKConn::new(n, 2)),
        Box::new(AgmBaseline::new(n, 12)),
        Box::new(FullMemoryBaseline::new(n)),
    ]
}

/// The `answer` contract, swept over all sixteen maintainer kinds
/// × all nine query kinds, calling `answer` directly: every pair
/// either answers with charged rounds or declines (`None`) with
/// the context's stats exactly as they were — the decline
/// `Session::ask_all` skips for free.
#[test]
fn answer_either_charges_or_declines_free_for_every_maintainer() {
    let mut rng = case_rng();
    for case in 0..4 {
        let batches = insert_streams(&mut rng, 20, 40);
        let n = 20usize;
        let mut roster = roster(n);
        // The sweep covers the registered vocabulary exactly: a new
        // maintainer kind cannot ship without being asked everything.
        let names: BTreeSet<&str> = roster.iter().map(|m| m.name()).collect();
        let registered: BTreeSet<&str> = mpc_stream::full_registry().names().into_iter().collect();
        assert_eq!(names, registered, "case {case}");

        let mut ctx = MpcContext::new(cfg(n));
        for m in &mut roster {
            for batch in &batches {
                m.ingest(batch, &mut ctx)
                    .expect("insert-only simple stream");
            }
        }

        for m in &mut roster {
            for query in &ALL_QUERIES {
                let before = ctx.stats().clone();
                match m.answer(query, &mut ctx) {
                    Some(Ok(_)) => assert!(
                        ctx.stats().rounds > before.rounds,
                        "case {case}: {} answered {} for free",
                        m.name(),
                        query
                    ),
                    None => assert_eq!(
                        ctx.stats(),
                        &before,
                        "case {case}: {} charged before declining {}",
                        m.name(),
                        query
                    ),
                    Some(Err(e)) => panic!("case {case}: {} failed {}: {}", m.name(), query, e),
                }
            }
        }
    }
}

/// The attribution gate: a strict session with one deliberately
/// oversized maintainer must name *that* maintainer (and its machine
/// group) in `ClusterMemoryExceeded`, while its neighbor stays green.
#[test]
fn capacity_overrun_names_the_oversized_maintainer_and_spares_neighbors() {
    let n = 64;
    // 2 machines × 4096 words, one per maintainer group: the
    // full-memory baseline's n + 2m words fit easily; the AGM sketch
    // bank (Õ(n log² n) ≈ 45k words at n = 64) is the deliberate
    // overrun.
    let tight = MpcConfig::builder(n, 0.5)
        .local_capacity(4096)
        .machines(2)
        .strict(true)
        .build();
    let mut session = Session::new(tight);
    let green = session.register(FullMemoryBaseline::new(n));
    let fat = session.register(AgmBaseline::new(n, 7));
    let err = session
        .apply((0..16u32).map(|i| Update::Insert(Edge::new(i, i + 16))))
        .expect_err("a sketch bank cannot fit a 4096-word group");
    match err {
        MpcStreamError::Capacity(MpcError::ClusterMemoryExceeded {
            maintainer,
            group,
            used,
            capacity,
        }) => {
            assert_eq!(maintainer, "agm-baseline", "the overrun must be attributed");
            assert_eq!(capacity, 4096);
            assert!(used > capacity);
            assert_eq!(group.start(), 1, "the second group is the AGM baseline's");
            assert_eq!(group.machines(), 1);
        }
        other => panic!("expected ClusterMemoryExceeded, got {other:?}"),
    }
    // The neighbor stayed green: its state was observed, no violation
    // was attributed to it, and its own group would have held it.
    let stats = session.stats();
    assert_eq!(stats.per_maintainer[green.id()].capacity_violations, 0);
    let green_words = session.get(green).words();
    assert!(green_words > 0 && green_words <= 4096);
    assert_eq!(
        stats.per_maintainer[fat.id()].capacity_violations,
        0,
        "strict mode errors instead of recording"
    );
    // Permissive twin: same overrun is recorded against the same
    // maintainer instead of erroring.
    let permissive = MpcConfig::builder(n, 0.5)
        .local_capacity(4096)
        .machines(2)
        .build();
    let mut session = Session::new(permissive);
    let green = session.register(FullMemoryBaseline::new(n));
    let fat = session.register(AgmBaseline::new(n, 7));
    session
        .apply((0..16u32).map(|i| Update::Insert(Edge::new(i, i + 16))))
        .expect("permissive mode records instead of erroring");
    let stats = session.stats();
    assert_eq!(stats.per_maintainer[green.id()].capacity_violations, 0);
    assert!(stats.per_maintainer[fat.id()].capacity_violations > 0);
    assert!(stats.per_maintainer[fat.id()].state_words > 4096);
}

/// A maintainer that declines every query after charging
/// `broadcasts` broadcasts: with ten, a decline `ask_all` must reject
/// rather than skip (its rounds would otherwise max-compose into the
/// fan-out unreceipted); with none, an ordinary, free decline.
#[derive(Debug)]
struct Decliner {
    broadcasts: usize,
}

impl Maintain for Decliner {
    fn name(&self) -> &'static str {
        "decliner"
    }

    fn words(&self) -> u64 {
        1
    }

    fn ingest(&mut self, _batch: &Batch, _ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        Ok(())
    }

    fn answer(
        &mut self,
        _query: &QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<QueryResponse, MpcStreamError>> {
        for _ in 0..self.broadcasts {
            ctx.broadcast(1);
        }
        None
    }
}

impl SaveState for Decliner {
    fn save_state(&self, _w: &mut mpc_stream::snapshot::SnapshotWriter) {}
}

/// Two supporters with a decliner sandwiched between them, after an
/// insert-only stream.
fn with_decliner(n: usize, broadcasts: usize) -> (Session, Handle<Decliner>) {
    let mut session = Session::new(cfg(n));
    session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
    let decliner = session.register(Decliner { broadcasts });
    session.register(FullMemoryBaseline::new(n));
    session
        .apply((0..8u32).map(|i| Update::Insert(Edge::new(i, i + 8))))
        .expect("insert-only stream");
    (session, decliner)
}

/// `ask_all` asks every maintainer and lets `answer` decide: a decline
/// that charged nothing is skipped — same fan-out rounds as a session
/// without the decliner, no query receipt, no per-maintainer query
/// charge — and a decline that charged first is an `Internal` error
/// naming the maintainer.
#[test]
fn ask_all_charges_nothing_for_unsupported_decliners() {
    let n = 16usize;

    // A charging decline fails the fan-out loudly instead of being
    // skipped on trust.
    let (mut noisy, decliner) = with_decliner(n, 10);
    match noisy.ask_all(&QueryRequest::ComponentCount) {
        Err(MpcStreamError::Internal(msg)) => assert!(
            msg.contains("decliner charged before declining component_count"),
            "{msg}"
        ),
        other => panic!("expected Internal, got {other:?}"),
    }
    assert!(
        noisy
            .query_reports()
            .iter()
            .all(|r| r.maintainer != "decliner"),
        "no receipt for a decliner"
    );
    assert_eq!(noisy.stats().per_maintainer[decliner.id()].queries, 0);

    // A free decline is skipped. Twin sessions over the same stream:
    // one with the quiet decliner, one with the supporters only.
    let (mut with, decliner) = with_decliner(n, 0);
    let mut without = Session::new(cfg(n));
    without.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
    without.register(FullMemoryBaseline::new(n));
    without
        .apply((0..8u32).map(|i| Update::Insert(Edge::new(i, i + 8))))
        .expect("insert-only stream");

    let rounds_before = with.stats().query_rounds;
    let answers = with
        .ask_all(&QueryRequest::ComponentCount)
        .expect("supporters answer");
    let with_delta = with.stats().query_rounds - rounds_before;

    let rounds_before = without.stats().query_rounds;
    let expected = without
        .ask_all(&QueryRequest::ComponentCount)
        .expect("supporters answer");
    let without_delta = without.stats().query_rounds - rounds_before;

    // Only the two supporters answered, with identical responses…
    assert_eq!(answers.len(), 2);
    assert_eq!(
        answers.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>(),
        expected.iter().map(|(_, r)| r.clone()).collect::<Vec<_>>()
    );
    assert_eq!(with.query_reports().len(), 2, "no receipt for a decliner");
    // …the decliner was never counted or charged…
    let m = &with.stats().per_maintainer[decliner.id()];
    assert_eq!(m.queries, 0, "decliner must not be counted as answering");
    assert_eq!(m.query_rounds, 0, "decliner must not be charged rounds");
    assert_eq!(m.query_words, 0, "decliner must not be charged words");
    // …and the fan-out cost exactly what the decliner-free twin paid:
    // the declining branch added nothing to the max.
    assert_eq!(with_delta, without_delta, "a decliner must be free");
}
