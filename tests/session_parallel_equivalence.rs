//! Serial-equivalence harness for the `Session` fan-out's two branch
//! runners: the worker count is an *execution* knob, never an
//! *observable* one. Every scenario below runs the same seeded
//! pipeline at 1, 2, 4, and 8 workers and demands bit-identical batch
//! reports, query answers, receipts, and rolled-up `SessionStats` —
//! the accounting contract the pooled runner's fork/replay scheme
//! exists to keep ("replaying each branch's event log on the master
//! reproduces the inline charges exactly"). The error-path scenarios
//! at the end guard the one seam between the runners: which charges a
//! failing fan-out leaves behind.

use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::update::Update;
use mpc_stream::prelude::*;
use std::collections::BTreeSet;

const WORKER_COUNTS: [usize; 4] = [1, 2, 4, 8];

fn cfg(n: usize) -> MpcConfig {
    MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// Everything a run can observe: per-apply batch reports, per-query
/// fan-out answers with their receipts, and the final rollup.
type Observables = (
    Vec<Vec<BatchReport>>,
    Vec<Vec<(MaintainerId, QueryResponse)>>,
    Vec<Vec<QueryReport>>,
    SessionStats,
);

fn observe(session: &mut Session, batches: &[Batch], queries: &[QueryRequest]) -> Observables {
    let mut reports = Vec::new();
    for batch in batches {
        reports.push(session.apply_batch(batch).expect("stream in regime"));
    }
    let mut answers = Vec::new();
    let mut receipts = Vec::new();
    for q in queries {
        answers.push(session.ask_all(q).expect("fan-out answers"));
        receipts.push(session.query_reports().to_vec());
    }
    session.validate_all().expect("invariants hold");
    (reports, answers, receipts, session.stats().clone())
}

/// All sixteen maintainer kinds on one insert-only stream (the widest
/// vocabulary every kind accepts), asked every query in the plane's
/// vocabulary. One registration function keeps the twins identical.
fn full_roster_run(workers: usize) -> Observables {
    let n = 24usize;
    let mut session = Session::new(cfg(n)).with_workers(workers);
    session.register(Connectivity::new(n, ConnectivityConfig::default(), 1));
    session.register(StreamingConnectivity::new(n, 2));
    session.register(RobustConnectivity::new(
        n,
        2,
        4,
        ConnectivityConfig::default(),
        3,
    ));
    let mut vd = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 4);
    {
        let mut setup = MpcContext::new(cfg(n));
        vd.add_vertices(n, &mut setup).expect("slots available");
    }
    session.register(vd);
    session.register(ExactMsf::new(n));
    session.register(ApproxMsfWeight::new(n, 0.5, 4, 5));
    session.register(ApproxMsfForest::new(n, 0.5, 4, 6));
    session.register(Bipartiteness::new(n, 7));
    session.register(MatchingSizeEstimator::new(
        n,
        2.0,
        StreamKind::InsertionOnly,
        8,
    ));
    session.register(MatchingSizeEstimator::new(n, 2.0, StreamKind::Dynamic, 9));
    session.register(AklyMatching::new(n, 2.0, 10));
    session.register(MaximalMatching::new(n));
    session.register(DynamicKConn::new(n, 2, 11));
    session.register(InsertOnlyKConn::new(n, 2));
    session.register(AgmBaseline::new(n, 12));
    session.register(FullMemoryBaseline::new(n));
    assert_eq!(session.maintainer_count(), 16);
    assert_eq!(session.workers(), workers);

    let stream = gen::random_insert_stream(n, 6, 10, 0x9A11);
    let queries = [
        QueryRequest::Connected(0, n as u32 - 1),
        QueryRequest::ComponentOf(3),
        QueryRequest::ComponentCount,
        QueryRequest::SpanningForest,
        QueryRequest::ForestWeight,
        QueryRequest::IsBipartite,
        QueryRequest::MatchingSize,
        QueryRequest::MatchingEdges,
        QueryRequest::MinCutLowerBound,
    ];
    observe(&mut session, &stream.batches, &queries)
}

#[test]
fn full_roster_is_bit_identical_at_every_worker_count() {
    let serial = full_roster_run(1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            full_roster_run(*workers),
            serial,
            "{workers}-worker execution diverged from serial"
        );
    }
}

/// The dynamic subset under a mixed insert/delete stream: deletions
/// exercise sketch recovery and rematch control flow, the paths where
/// a data race or replay gap would actually change an answer.
fn dynamic_roster_run(workers: usize) -> Observables {
    let n = 32usize;
    let mut session = Session::new(cfg(n)).with_workers(workers);
    session.register(Connectivity::new(n, ConnectivityConfig::default(), 21));
    session.register(AklyMatching::new(n, 2.0, 22));
    session.register(DynamicKConn::new(n, 2, 23));
    session.register(AgmBaseline::new(n, 24));
    session.register(FullMemoryBaseline::new(n));

    let stream = gen::random_mixed_stream(n, 8, 10, 0.65, 0xD11);
    let queries = [
        QueryRequest::Connected(1, n as u32 - 2),
        QueryRequest::ComponentCount,
        QueryRequest::MatchingSize,
        QueryRequest::MinCutLowerBound,
    ];
    observe(&mut session, &stream.batches, &queries)
}

#[test]
fn dynamic_roster_with_deletions_is_bit_identical_at_every_worker_count() {
    let serial = dynamic_roster_run(1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            dynamic_roster_run(*workers),
            serial,
            "{workers}-worker execution diverged from serial"
        );
    }
}

/// The weighted front door (`apply_weighted`) through the same
/// pipeline: the MSF family sees weights, everyone else the
/// projection, at every worker count.
type WeightedObservables = (
    Vec<Vec<BatchReport>>,
    Vec<(MaintainerId, QueryResponse)>,
    SessionStats,
);

fn weighted_roster_run(workers: usize) -> WeightedObservables {
    let n = 24usize;
    let mut session = Session::new(cfg(n)).with_workers(workers);
    session.register(ExactMsf::new(n));
    session.register(ApproxMsfWeight::new(n, 0.5, 4, 31));
    session.register(ApproxMsfForest::new(n, 0.5, 4, 32));
    // The weight-oblivious side of the projection.
    session.register(Connectivity::new(n, ConnectivityConfig::default(), 33));

    let stream = gen::random_weighted_insert_stream(n, 5, 9, 64, 0x3E1);
    let mut reports = Vec::new();
    for batch in &stream.batches {
        reports.push(
            session
                .apply_weighted(batch.iter())
                .expect("insert-only weighted stream"),
        );
    }
    let answers = session
        .ask_all(&QueryRequest::ForestWeight)
        .expect("weights answered");
    session.validate_all().expect("invariants hold");
    (reports, answers, session.stats().clone())
}

#[test]
fn weighted_roster_is_bit_identical_at_every_worker_count() {
    let serial = weighted_roster_run(1);
    for workers in &WORKER_COUNTS[1..] {
        assert_eq!(
            weighted_roster_run(*workers),
            serial,
            "{workers}-worker weighted execution diverged from serial"
        );
    }
}

/// Splitmix-style step for the stress schedule — the test owns its
/// randomness so the interleaving reproduces from the literal seed.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concurrency stress: thousands of randomly interleaved tiny ingests
/// and `ask_all` fan-outs across three maintainers, executed twice —
/// serially and on a 4-worker pool — step by step. Every answer and
/// the final stats must stay locked together (no drift), nothing may
/// panic, and dropping the parallel session must join its pool
/// cleanly (a leaked worker would hang the test binary at exit).
#[test]
fn randomized_interleaving_never_drifts_from_serial() {
    let n = 12usize;
    let build = |workers: usize| {
        let mut s = Session::new(cfg(n)).with_workers(workers);
        s.register(Connectivity::new(n, ConnectivityConfig::default(), 41));
        s.register(AgmBaseline::new(n, 42));
        s.register(FullMemoryBaseline::new(n));
        s
    };
    let mut serial = build(1);
    let mut pooled = build(4);

    let mut rng = 0x57E55u64;
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let queries = [
        QueryRequest::ComponentCount,
        QueryRequest::Connected(0, n as u32 - 1),
        QueryRequest::ComponentOf(5),
    ];
    let mut asked = 0u32;
    for step in 0..2500u32 {
        let roll = next(&mut rng);
        if roll % 10 < 6 {
            // Ingest a small valid batch: inserts of absent edges,
            // deletions of live ones, all simple-graph legal.
            let mut ops = Vec::new();
            for _ in 0..(1 + next(&mut rng) % 3) {
                let a = (next(&mut rng) % n as u64) as u32;
                let b = (next(&mut rng) % n as u64) as u32;
                if a == b {
                    continue;
                }
                let e = Edge::new(a, b);
                if live.insert(e) {
                    ops.push(Update::Insert(e));
                } else if next(&mut rng).is_multiple_of(2) {
                    live.remove(&e);
                    ops.push(Update::Delete(e));
                }
            }
            let a = serial.apply(ops.iter().copied()).expect("legal batch");
            let b = pooled.apply(ops.iter().copied()).expect("legal batch");
            assert_eq!(a, b, "ingest reports drifted at step {step}");
        } else {
            let q = &queries[(roll % 3) as usize];
            let a = serial.ask_all(q).expect("all three answer");
            let b = pooled.ask_all(q).expect("all three answer");
            assert_eq!(a, b, "answers drifted at step {step}");
            assert_eq!(
                serial.query_reports(),
                pooled.query_reports(),
                "receipts drifted at step {step}"
            );
            asked += 1;
        }
    }
    assert!(asked > 500, "schedule degenerated: only {asked} fan-outs");
    assert_eq!(
        serial.stats(),
        pooled.stats(),
        "cumulative stats drifted over the stress schedule"
    );
    // Clean shutdown: dropping the pooled session joins every worker
    // thread; a stuck lane would deadlock right here, inside the test.
    drop(pooled);
    drop(serial);
}

// ----- error paths: the seam between the inline and pooled runners ----

/// Worker counts for the error-path scenarios: inline, and two pool
/// widths (narrower and wider than the three-branch rosters).
const ERROR_PATH_WORKERS: [usize; 3] = [1, 2, 4];

/// What a failed call leaves observable: the error itself, the query
/// receipts, the raw context counters (which keep a failing branch's
/// partial charges), and the session rollup.
type Wreckage = (
    MpcStreamError,
    Vec<QueryReport>,
    mpc_stream::mpc::Stats,
    SessionStats,
);

fn wreckage(session: &Session, err: MpcStreamError) -> Wreckage {
    (
        err,
        session.query_reports().to_vec(),
        session.ctx().stats().clone(),
        session.stats().clone(),
    )
}

fn assert_identical_wreckage(run: impl Fn(usize) -> Wreckage) {
    let inline = run(ERROR_PATH_WORKERS[0]);
    for workers in &ERROR_PATH_WORKERS[1..] {
        assert_eq!(
            run(*workers),
            inline,
            "{workers}-worker failure diverged from inline"
        );
    }
}

/// A middle maintainer rejects the chunk (`InsertOnlyKConn` fed a
/// deletion): the branch before it is charged and absorbed, the one
/// after it is not, and none of that depends on the runner.
#[test]
fn middle_branch_rejection_is_identical_at_every_worker_count() {
    let n = 16usize;
    let run = |workers: usize| {
        let mut session = Session::new(cfg(n)).with_workers(workers);
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
        wreckage(&session, err)
    };
    assert_identical_wreckage(run);
}

/// A maintainer that parks `alloc` words on machine 0 per batch and
/// reports `state` standing words — co-scheduled instances collide on
/// that machine, which is exactly where a fork (pre-chunk loads) and
/// the master (siblings' loads too) can disagree.
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
        ctx.alloc(0, self.alloc)?;
        Ok(())
    }

    fn answer(
        &mut self,
        query: &QueryRequest,
        _ctx: &mut MpcContext,
    ) -> Result<QueryResponse, MpcStreamError> {
        Err(mpc_stream::core_alg::unsupported_query(self.name, query))
    }

    fn supports(&self, _query: &QueryRequest) -> bool {
        false
    }

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
/// words on machine 0 of a 64-word machine. Inline, the second hog's
/// `alloc` fails; pooled, every fork succeeds against the pre-chunk
/// load and the overrun surfaces when the master replays the second
/// log — same error, same counters, third hog uncharged.
#[test]
fn strict_overrun_at_replay_is_identical_at_every_worker_count() {
    let run = |workers: usize| {
        let mut session = Session::new(strict_cluster()).with_workers(workers);
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
        wreckage(&session, err)
    };
    assert_identical_wreckage(run);
}

/// Strict mode, overrun at the post-chunk audit: every branch
/// succeeds, then the middle hog's standing state overflows its
/// machine group and the audit names it.
#[test]
fn strict_overrun_at_audit_is_identical_at_every_worker_count() {
    let run = |workers: usize| {
        let mut session = Session::new(strict_cluster()).with_workers(workers);
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
        wreckage(&session, err)
    };
    assert_identical_wreckage(run);
}

/// A failing `ask_all`: the middle supporter covers fewer vertices,
/// so `Connected(0, 20)` is out of range for it alone. The first
/// answer is receipted and rolled up, the failure aborts the fan-out,
/// the third supporter is never charged.
#[test]
fn failing_ask_all_is_identical_at_every_worker_count() {
    let run = |workers: usize| {
        let mut session = Session::new(cfg(24)).with_workers(workers);
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
        wreckage(&session, err)
    };
    assert_identical_wreckage(run);
}

/// One maintainer means one branch, and one branch always runs
/// inline: a 4-worker session must equal the serial one without ever
/// forking. True by construction — the session's fan-out is the only
/// user of the pool, and a maintainer cannot reach it.
#[test]
fn single_maintainer_session_is_identical_at_four_workers() {
    let n = 32usize;
    let run = |workers: usize| {
        let mut session = Session::new(cfg(n)).with_workers(workers);
        session.register(Connectivity::new(n, ConnectivityConfig::default(), 71));
        let stream = gen::random_mixed_stream(n, 8, 10, 0.65, 0x51E);
        let queries = [
            QueryRequest::Connected(1, n as u32 - 2),
            QueryRequest::ComponentCount,
            QueryRequest::SpanningForest,
        ];
        let observed = observe(&mut session, &stream.batches, &queries);
        (observed, session.ctx().stats().clone())
    };
    assert_eq!(run(4), run(1));
}
