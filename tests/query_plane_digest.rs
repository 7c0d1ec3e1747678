//! Golden digest of the query plane's charges.
//!
//! All sixteen maintainer kinds share one session and one fixed
//! insert-only stream; the vertex-dynamic structure has its last
//! three slots removed before the stream starts. After every batch
//! each query of the vocabulary, two out-of-range questions and two
//! about an inactive vertex are asked of every maintainer through
//! `ask_dyn` and of the whole roster through `ask_all`. Each outcome
//! (the answer, or the error's text), each receipt's rounds and words
//! and the context's stats deltas are folded with FNV-1a, so a
//! changed charge, answer, error or skip moves the constant.
//!
//! The constant was recorded before `Maintain::answer` became the one
//! place a maintainer's query vocabulary is declared; it pins that
//! refactor, and any later one, to identical answers and charges.

use mpc_stream::hashing::rng::splitmix64;
use mpc_stream::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const N: u32 = 20;
/// Vertices `ACTIVE..N` are removed from the vertex-dynamic structure
/// and never touched by the stream.
const ACTIVE: u32 = N - 3;

fn fold(digest: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

fn fold_bytes(digest: &mut u64, bytes: &[u8]) {
    fold(digest, bytes.len() as u64);
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

/// The outcome of one question: the answer, or the error's text.
fn fold_outcome<T: std::fmt::Debug>(digest: &mut u64, outcome: &Result<T, MpcStreamError>) {
    match outcome {
        Ok(answer) => fold_bytes(digest, format!("{answer:?}").as_bytes()),
        Err(e) => fold_bytes(digest, e.to_string().as_bytes()),
    }
}

/// The receipts of the last question and what it cost the context.
fn fold_charges(digest: &mut u64, session: &Session, before: &mpc_stream::mpc::Stats) {
    for r in session.query_reports() {
        fold_bytes(digest, r.maintainer.as_bytes());
        fold(digest, r.rounds);
        fold(digest, r.words);
    }
    let after = session.ctx().stats();
    fold(digest, after.rounds - before.rounds);
    fold(digest, after.words_communicated - before.words_communicated);
    fold(digest, after.peak_round_words);
    fold_bytes(digest, format!("{:?}", after.rounds_by_op).as_bytes());
}

/// Six batches of up to six fresh edges on the active vertices: a
/// simple insert-only graph every maintainer kind accepts.
fn stream() -> Vec<Batch> {
    let mut rng = 0x0_9E4F_D16E;
    let mut seen = std::collections::BTreeSet::new();
    let mut batches = Vec::new();
    for _ in 0..6 {
        let mut batch = Batch::new();
        for _ in 0..6 {
            let a = (splitmix64(&mut rng) % u64::from(ACTIVE)) as u32;
            let b = (splitmix64(&mut rng) % u64::from(ACTIVE)) as u32;
            if a != b && seen.insert(Edge::new(a, b)) {
                batch.push(Update::Insert(Edge::new(a, b)));
            }
        }
        batches.push(batch);
    }
    batches
}

fn session() -> Session {
    let n = N as usize;
    let cfg = MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 16)
        .build();
    let mut session = Session::new(cfg.clone());
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
    let mut setup = MpcContext::new(cfg);
    vd.add_vertices(n, &mut setup).expect("slots available");
    for v in ACTIVE..N {
        vd.remove_vertex(v, &mut setup).expect("isolated");
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
    session
}

fn questions() -> Vec<QueryRequest> {
    vec![
        QueryRequest::Connected(0, 1),
        QueryRequest::ComponentOf(1),
        QueryRequest::ComponentCount,
        QueryRequest::SpanningForest,
        QueryRequest::ForestWeight,
        QueryRequest::MatchingSize,
        QueryRequest::MatchingEdges,
        QueryRequest::MinCutLowerBound,
        QueryRequest::IsBipartite,
        QueryRequest::Connected(N, 0),
        QueryRequest::ComponentOf(N),
        QueryRequest::Connected(0, N - 1),
        QueryRequest::ComponentOf(N - 1),
    ]
}

fn query_plane_digest() -> u64 {
    let mut d = FNV_OFFSET;
    let mut session = session();
    let kinds: std::collections::BTreeSet<&str> = session.names().into_iter().collect();
    assert_eq!(
        kinds,
        mpc_stream::full_registry().names().into_iter().collect(),
        "the digest asks every registered kind"
    );
    for batch in stream() {
        session
            .apply_batch(&batch)
            .expect("insert-only simple stream");
        for query in questions() {
            for id in 0..session.maintainer_count() {
                let before = session.ctx().stats().clone();
                let outcome = session.ask_dyn(id, &query);
                fold_outcome(&mut d, &outcome);
                fold_charges(&mut d, &session, &before);
            }
            let before = session.ctx().stats().clone();
            let outcome = session.ask_all(&query);
            fold_outcome(&mut d, &outcome);
            fold_charges(&mut d, &session, &before);
        }
    }
    fold_bytes(&mut d, format!("{:?}", session.ctx().stats()).as_bytes());
    fold_bytes(&mut d, format!("{:?}", session.stats()).as_bytes());
    d
}

#[test]
fn query_plane_digest_is_pinned() {
    let d = query_plane_digest();
    assert_eq!(
        d, 0x2e76_8ad5_9741_9052,
        "query-plane digest moved: {d:#018x}"
    );
}
