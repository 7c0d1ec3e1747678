//! Per-kind snapshot round-trip property: for every one of the
//! sixteen maintainer registrations, save → load → save must
//! reproduce the container byte for byte, and the loaded maintainer
//! must answer the entire query vocabulary exactly as the original
//! does. This pins the `Persist` impl of each concrete type against
//! its registered [`MaintainerLoader`] — the contract
//! `Session::checkpoint` / `Session::restore` is built on.

#![expect(
    clippy::disallowed_methods,
    reason = "cleans up the snapshot file the round trip wrote"
)]

use mpc_stream::graph::gen;
use mpc_stream::prelude::*;
use mpc_stream::snapshot::{Snapshot, SnapshotWriter};
use std::collections::BTreeSet;

const N: usize = 24;

fn cfg() -> MpcConfig {
    MpcConfig::builder(2 * N, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// One freshly built maintainer of every registered kind, as trait
/// objects — the same roster the equivalence harnesses drive.
fn roster() -> Vec<Box<dyn Maintain>> {
    let mut vd = VertexDynamicConnectivity::with_capacity(N, ConnectivityConfig::default(), 4);
    {
        let mut setup = MpcContext::new(cfg());
        vd.add_vertices(N, &mut setup).expect("slots available");
    }
    vec![
        Box::new(Connectivity::new(N, ConnectivityConfig::default(), 1)),
        Box::new(StreamingConnectivity::new(N, 2)),
        Box::new(RobustConnectivity::new(
            N,
            2,
            4,
            ConnectivityConfig::default(),
            3,
        )),
        Box::new(vd),
        Box::new(ExactMsf::new(N)),
        Box::new(ApproxMsfWeight::new(N, 0.5, 4, 5)),
        Box::new(ApproxMsfForest::new(N, 0.5, 4, 6)),
        Box::new(Bipartiteness::new(N, 7)),
        Box::new(MatchingSizeEstimator::new(
            N,
            2.0,
            StreamKind::InsertionOnly,
            8,
        )),
        Box::new(MatchingSizeEstimator::new(N, 2.0, StreamKind::Dynamic, 9)),
        Box::new(AklyMatching::new(N, 2.0, 10)),
        Box::new(MaximalMatching::new(N)),
        Box::new(DynamicKConn::new(N, 2, 11)),
        Box::new(InsertOnlyKConn::new(N, 2)),
        Box::new(AgmBaseline::new(N, 12)),
        Box::new(FullMemoryBaseline::new(N)),
    ]
}

const ALL_QUERIES: [QueryRequest; 9] = [
    QueryRequest::Connected(0, N as u32 - 1),
    QueryRequest::ComponentOf(3),
    QueryRequest::ComponentCount,
    QueryRequest::SpanningForest,
    QueryRequest::ForestWeight,
    QueryRequest::IsBipartite,
    QueryRequest::MatchingSize,
    QueryRequest::MatchingEdges,
    QueryRequest::MinCutLowerBound,
];

/// Serializes one maintainer into a single-section container.
fn container(m: &dyn Maintain) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("state");
    m.save_state(&mut w);
    w.end_section();
    w.finish()
}

/// Decodes a single-section container through the registered loader.
fn reload(registry: &MaintainerRegistry, name: &str, bytes: &[u8]) -> Box<dyn Maintain> {
    let snap = Snapshot::from_bytes(bytes).expect("container parses");
    let mut r = snap.section("state").expect("section present");
    let loader = registry
        .loader(name)
        .unwrap_or_else(|| panic!("no loader registered for `{name}`"));
    let m = loader(&mut r).unwrap_or_else(|e| panic!("loader for `{name}` failed: {e}"));
    r.expect_end()
        .unwrap_or_else(|e| panic!("loader for `{name}` left bytes behind: {e}"));
    m
}

/// The roster and the registry must agree on the kind vocabulary:
/// every driven maintainer has a loader, every loader is exercised.
#[test]
fn registry_covers_exactly_the_roster() {
    let names: BTreeSet<&str> = roster().iter().map(|m| m.name()).collect();
    let registered: BTreeSet<&str> = mpc_stream::full_registry().names().into_iter().collect();
    assert_eq!(names, registered);
    assert_eq!(names.len(), 16);
}

/// Both estimator kinds decode through one loader, so a session section
/// that files a dynamic estimator under the insertion-only name must be
/// refused by `Session::restore`'s name check, naming both kinds.
#[test]
fn estimator_saved_under_the_other_kind_fails_typed() {
    use mpc_stream::snapshot::Persist;
    let path = std::env::temp_dir().join(format!(
        "mpc-snap-roundtrip-{}-estimator-kind.snap",
        std::process::id()
    ));
    let mut session = Session::new(cfg());
    session.register(MatchingSizeEstimator::new(N, 2.0, StreamKind::Dynamic, 9));
    session.checkpoint(&path).expect("checkpoint succeeds");

    // Re-emit the container section by section, renaming the kind.
    let snap = Snapshot::read_from(&path).expect("snapshot readable");
    let mut w = SnapshotWriter::new(snap.epoch());
    for name in snap.section_names() {
        let mut r = snap.section(name).expect("section listed");
        w.begin_section(name);
        if name == "session" {
            w.put_usize(r.take_usize().expect("chunk size"));
            w.put_bool(r.take_bool().expect("normalize flag"));
            let names = Vec::<String>::load(&mut r).expect("maintainer names");
            assert_eq!(names, ["matching-estimator-dynamic"]);
            vec!["matching-estimator-insert".to_string()].save(&mut w);
        } else {
            w.put_bytes(r.take_bytes(r.remaining()).expect("section bytes"));
        }
        w.end_section();
    }
    w.write_to(&path).expect("scratch writable");

    let err = Session::restore(&path, &mpc_stream::full_registry())
        .expect_err("kind mismatch must be refused");
    std::fs::remove_file(&path).expect("scratch file removable");
    match err {
        SnapshotError::Corrupt(msg) => {
            assert!(msg.contains("`matching-estimator-dynamic`"), "{msg}");
            assert!(msg.contains("`matching-estimator-insert`"), "{msg}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

/// The property itself, for every kind, at three points in a stream's
/// life: freshly built, mid-stream, and after the full stream.
/// Byte-stability is checked *before* any query runs, so the saved
/// image is the ingest-time state, not a query-perturbed one.
#[test]
fn save_load_save_is_byte_identical_and_answers_match() {
    let registry = mpc_stream::full_registry();
    let stream = gen::random_insert_stream(N, 6, 10, 0x9A11);
    let checkpoints = [0usize, 3, stream.batches.len()];

    for stop in checkpoints {
        let mut ctx = MpcContext::new(cfg());
        for mut original in roster() {
            let name = original.name();
            for batch in &stream.batches[..stop] {
                original.ingest(batch, &mut ctx).expect("stream in regime");
            }

            let first = container(original.as_ref());
            let mut loaded = reload(&registry, name, &first);
            let second = container(loaded.as_ref());
            assert_eq!(
                first, second,
                "`{name}` after {stop} batches: save → load → save changed bytes"
            );
            assert_eq!(loaded.name(), name);
            assert_eq!(
                loaded.words(),
                original.words(),
                "`{name}` footprint drifted"
            );
            assert_eq!(loaded.l0_failures(), original.l0_failures());
            loaded.validate().expect("loaded maintainer is coherent");

            // The loaded twin must now be *behaviourally* the
            // original: the same outcome for every query in the
            // vocabulary, declines included, in the same order
            // (answering may advance sampler state, so both advance
            // together), at the same charges.
            let mut ctx_a = MpcContext::new(cfg());
            let mut ctx_b = MpcContext::new(cfg());
            for q in &ALL_QUERIES {
                let a = original.answer(q, &mut ctx_a);
                let b = loaded.answer(q, &mut ctx_b);
                assert_eq!(a, b, "`{name}` after {stop} batches: {q:?} diverged");
                assert_eq!(
                    ctx_a.stats(),
                    ctx_b.stats(),
                    "`{name}` after {stop} batches: {q:?} charged differently"
                );
            }
        }
    }
}
