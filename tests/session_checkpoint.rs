//! Crash-recovery equivalence for `Session::checkpoint` /
//! `Session::restore`: killing a session mid-stream and resuming from
//! its snapshot must be *unobservable*. Every scenario runs the full
//! sixteen-maintainer roster twice — once uninterrupted, once as
//! checkpoint → drop → restore → continue — and demands bit-identical
//! batch reports, query answers, receipts, rolled-up `SessionStats`,
//! and stream epochs. The failure paths
//! (stale epoch, unknown maintainer, corrupt bytes) must all surface
//! as typed `SnapshotError`s, never as garbage state.

#![expect(
    clippy::disallowed_methods,
    reason = "drives checkpoints through real files and inspects them on disk"
)]

use mpc_stream::graph::gen;
use mpc_stream::prelude::*;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

fn cfg(n: usize) -> MpcConfig {
    MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// A collision-free scratch path for one checkpoint file; the suite
/// runs in one process, so pid + tag is unique per call site.
fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("mpc-snap-test-{}-{tag}.snap", std::process::id()))
}

/// The full sixteen-kind roster: one registration function keeps the
/// twin runs identical.
fn full_roster() -> Session {
    let n = 24usize;
    let mut session = Session::new(cfg(n));
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
    session
}

const ALL_QUERIES: [QueryRequest; 9] = [
    QueryRequest::Connected(0, 23),
    QueryRequest::ComponentOf(3),
    QueryRequest::ComponentCount,
    QueryRequest::SpanningForest,
    QueryRequest::ForestWeight,
    QueryRequest::IsBipartite,
    QueryRequest::MatchingSize,
    QueryRequest::MatchingEdges,
    QueryRequest::MinCutLowerBound,
];

/// Everything a run can observe: per-apply batch reports, per-query
/// fan-out answers with their receipts, the final rollup, and the
/// stream epoch.
type Observables = (
    Vec<Vec<BatchReport>>,
    Vec<Vec<(MaintainerId, QueryResponse)>>,
    Vec<Vec<QueryReport>>,
    SessionStats,
    u64,
);

/// Asks the whole query vocabulary and seals the run: answers,
/// receipts, validated invariants, final stats, stream epoch.
fn finish(mut session: Session, reports: Vec<Vec<BatchReport>>) -> Observables {
    let mut answers = Vec::new();
    let mut receipts = Vec::new();
    for q in &ALL_QUERIES {
        answers.push(session.ask_all(q).expect("fan-out answers"));
        receipts.push(session.query_reports().to_vec());
    }
    session.validate_all().expect("invariants hold");
    let epoch = session.stream_epoch();
    (reports, answers, receipts, session.stats().clone(), epoch)
}

/// The uninterrupted twin.
fn uninterrupted(batches: &[Batch]) -> Observables {
    let mut session = full_roster();
    let mut reports = Vec::new();
    for batch in batches {
        reports.push(session.apply_batch(batch).expect("stream in regime"));
    }
    finish(session, reports)
}

/// The crashed twin: run half the stream, checkpoint, *drop the
/// session entirely*, restore from disk, and finish the stream.
fn crash_and_recover(batches: &[Batch], tag: &str) -> Observables {
    let path = scratch(tag);
    let split = batches.len() / 2;
    let mut session = full_roster();
    let mut reports = Vec::new();
    for batch in &batches[..split] {
        reports.push(session.apply_batch(batch).expect("stream in regime"));
    }
    let receipt = session.checkpoint(&path).expect("checkpoint succeeds");
    assert_eq!(receipt.epoch, session.stream_epoch());
    assert_eq!(receipt.maintainers.len(), 16);
    assert!(receipt.bytes > 0);
    // Per-maintainer section sizes land in the stats rollup too.
    for (i, (name, bytes)) in receipt.maintainers.iter().enumerate() {
        let entry = &session.stats().per_maintainer[i];
        assert_eq!(entry.name, name.as_str());
        assert_eq!(entry.checkpoint_bytes, *bytes);
    }
    drop(session); // the "crash"

    let mut session = Session::restore(&path, &mpc_stream::full_registry()).expect("restore");
    std::fs::remove_file(&path).expect("scratch file removable");
    assert_eq!(session.maintainer_count(), 16);
    for batch in &batches[split..] {
        reports.push(session.apply_batch(batch).expect("stream in regime"));
    }
    finish(session, reports)
}

#[test]
fn crash_recovery_is_bit_identical() {
    let stream = gen::random_insert_stream(24, 6, 10, 0x9A11);
    let full = uninterrupted(&stream.batches);
    let recovered = crash_and_recover(&stream.batches, "recover");
    assert_eq!(
        recovered, full,
        "recovery diverged from the uninterrupted run"
    );
}

/// Deletions exercise sketch recovery and rematch control flow — the
/// state a shallow snapshot would lose. Mixed stream, dynamic subset.
#[test]
fn crash_recovery_survives_deletions() {
    let n = 32usize;
    let build = || {
        let mut s = Session::new(cfg(n));
        s.register(Connectivity::new(n, ConnectivityConfig::default(), 21));
        s.register(AklyMatching::new(n, 2.0, 22));
        s.register(DynamicKConn::new(n, 2, 23));
        s.register(AgmBaseline::new(n, 24));
        s.register(FullMemoryBaseline::new(n));
        s
    };
    let stream = gen::random_mixed_stream(n, 8, 10, 0.65, 0xD11);
    let queries = [
        QueryRequest::Connected(1, n as u32 - 2),
        QueryRequest::ComponentCount,
        QueryRequest::MatchingSize,
        QueryRequest::MinCutLowerBound,
    ];

    // Uninterrupted twin.
    let mut full = build();
    let mut full_reports = Vec::new();
    for batch in &stream.batches {
        full_reports.push(full.apply_batch(batch).expect("stream in regime"));
    }
    let full_answers: Vec<_> = queries
        .iter()
        .map(|q| full.ask_all(q).expect("answers"))
        .collect();

    // Crashed twin.
    let path = scratch("mixed");
    let split = stream.batches.len() / 2;
    let mut crashed = build();
    let mut reports = Vec::new();
    for batch in &stream.batches[..split] {
        reports.push(crashed.apply_batch(batch).expect("stream in regime"));
    }
    crashed.checkpoint(&path).expect("checkpoint succeeds");
    drop(crashed);
    let mut resumed = Session::restore(&path, &mpc_stream::full_registry()).expect("restore");
    std::fs::remove_file(&path).expect("scratch file removable");
    for batch in &stream.batches[split..] {
        reports.push(resumed.apply_batch(batch).expect("stream in regime"));
    }
    let answers: Vec<_> = queries
        .iter()
        .map(|q| resumed.ask_all(q).expect("answers"))
        .collect();

    assert_eq!(reports, full_reports, "batch reports diverged");
    assert_eq!(answers, full_answers, "query answers diverged");
    assert_eq!(resumed.stats(), full.stats(), "stats rollups diverged");
    assert_eq!(resumed.stream_epoch(), full.stream_epoch());
}

/// checkpoint → restore → checkpoint must reproduce the container
/// byte for byte: nothing in the format depends on host state, and
/// the stats section (which carries `checkpoint_bytes`) is written
/// after those sizes are recorded.
#[test]
fn double_checkpoint_is_byte_identical() {
    let stream = gen::random_insert_stream(24, 4, 10, 0x9A11);
    let mut session = full_roster();
    for batch in &stream.batches {
        session.apply_batch(batch).expect("stream in regime");
    }
    let first = scratch("double-a");
    let second = scratch("double-b");
    session.checkpoint(&first).expect("first checkpoint");
    drop(session);
    let mut restored = Session::restore(&first, &mpc_stream::full_registry()).expect("restore");
    restored.checkpoint(&second).expect("second checkpoint");
    let a = std::fs::read(&first).expect("first readable");
    let b = std::fs::read(&second).expect("second readable");
    std::fs::remove_file(&first).expect("scratch file removable");
    std::fs::remove_file(&second).expect("scratch file removable");
    assert_eq!(a, b, "re-checkpoint of a restored session changed bytes");
}

/// The size of a fixed-seed checkpoint, pinned: the deterministic
/// count the engine benchmark reports as `snapshot_bytes`, guarded
/// here at a size a test can afford. The sketch arenas write their
/// live-level masks and only the nonzero cells under them, so the
/// file tracks the live state, not the dense `levels x cell` pool the
/// ledger charges (format version 1 wrote that pool: 2,304,387 bytes for
/// this session).
#[test]
fn checkpoint_size_is_pinned_for_a_fixed_seed_session() {
    let stream = gen::random_insert_stream(24, 4, 10, 0x9A11);
    let mut session = full_roster();
    for batch in &stream.batches {
        session.apply_batch(batch).expect("stream in regime");
    }
    let path = scratch("size");
    let receipt = session.checkpoint(&path).expect("checkpoint succeeds");
    let on_disk = std::fs::metadata(&path).expect("snapshot written").len();
    std::fs::remove_file(&path).expect("scratch file removable");
    assert_eq!(receipt.bytes, on_disk);
    assert_eq!(receipt.bytes, 504_483);
    assert_eq!(receipt.maintainers[0], ("connectivity".to_string(), 22_424));
}

/// A checkpoint taken at epoch `e` must refuse to pose as epoch `e'`:
/// the guard is the typed `EpochMismatch`, not a silent stale resume.
#[test]
fn stale_epoch_restore_fails_typed() {
    let stream = gen::random_insert_stream(16, 3, 6, 0xA0A0);
    let n = 16usize;
    let mut session = Session::new(cfg(n));
    session.register(FullMemoryBaseline::new(n));
    for batch in &stream.batches {
        session.apply_batch(batch).expect("stream in regime");
    }
    let epoch = session.stream_epoch();
    assert_eq!(epoch, stream.batches.len() as u64);
    let path = scratch("stale");
    session.checkpoint(&path).expect("checkpoint succeeds");

    let registry = mpc_stream::full_registry();
    let err = Session::restore_checked(&path, &registry, epoch + 7)
        .expect_err("stale expectation must fail");
    assert_eq!(
        err,
        SnapshotError::EpochMismatch {
            expected: epoch + 7,
            found: epoch,
        }
    );
    // The exact expectation still restores.
    let ok = Session::restore_checked(&path, &registry, epoch).expect("matching epoch restores");
    assert_eq!(ok.stream_epoch(), epoch);
    std::fs::remove_file(&path).expect("scratch file removable");
}

/// Answers write too — the ledger, the stats rollup, and a recompute's
/// sampler counters — so a checkpoint taken before later `ask`s at the
/// same submission count is stale: restoring it under the current epoch
/// fails typed instead of silently rewinding the query history.
#[test]
fn asks_after_a_checkpoint_make_it_stale() {
    let n = 8usize;
    let mut session = Session::new(cfg(n));
    let agm = session.register(AgmBaseline::new(n, 3));
    session
        .apply_batch(&Batch::inserting([Edge::new(0, 1)]))
        .expect("stream in regime");
    let path = scratch("asks-after");
    let receipt = session.checkpoint(&path).expect("checkpoint succeeds");
    let rounds = session.ctx().rounds();
    for _ in 0..3 {
        session
            .ask(agm, &QueryRequest::ComponentCount)
            .expect("AGM counts components");
    }
    assert_eq!(session.stats().queries, 3);
    assert!(session.ctx().rounds() > rounds);
    let epoch = session.stream_epoch();
    assert_eq!(epoch, receipt.epoch + 3);

    let registry = mpc_stream::full_registry();
    let err = Session::restore_checked(&path, &registry, epoch)
        .expect_err("a checkpoint from before the asks is stale");
    assert_eq!(
        err,
        SnapshotError::EpochMismatch {
            expected: epoch,
            found: receipt.epoch,
        }
    );
    // Restoring it on purpose, under its own epoch, rewinds the asks.
    let old =
        Session::restore_checked(&path, &registry, receipt.epoch).expect("its own epoch restores");
    assert_eq!((old.stats().queries, old.ctx().rounds()), (0, rounds));
    std::fs::remove_file(&path).expect("scratch file removable");
}

/// A registry that has never heard of a kind in the file must fail
/// typed, naming the kind — not panic, not skip the maintainer.
#[test]
fn restore_with_missing_loader_fails_typed() {
    let n = 16usize;
    let mut session = Session::new(cfg(n));
    session.register(MaximalMatching::new(n));
    let path = scratch("unknown");
    session.checkpoint(&path).expect("checkpoint succeeds");

    let empty = MaintainerRegistry::new();
    let err = Session::restore(&path, &empty).expect_err("no loaders registered");
    match err {
        SnapshotError::UnknownMaintainer { kind } => assert_eq!(kind, "matching-maximal"),
        other => panic!("expected UnknownMaintainer, got {other:?}"),
    }
    std::fs::remove_file(&path).expect("scratch file removable");
}

/// Prefix lengths at which the container's header fields and section
/// table entries end, and each section's payload range. Layout: magic
/// (8 bytes), version (u32), epoch (u64), section count (u32), then per
/// section its name length (u16), name, payload length (u64) and
/// checksum (u64); the payloads follow in table order.
fn container_layout(bytes: &[u8]) -> (Vec<usize>, Vec<Range<usize>>) {
    let le = |at: usize, width: usize| {
        let word = bytes[at..at + width]
            .iter()
            .rev()
            .fold(0u64, |acc, &b| acc << 8 | u64::from(b));
        usize::try_from(word).expect("field fits usize")
    };
    assert_eq!(bytes[..8], mpc_stream::snapshot::MAGIC);
    let mut bounds = vec![8, 12, 20, 24];
    let mut at = 24;
    let mut lens = Vec::new();
    for _ in 0..le(20, 4) {
        let name_len = le(at, 2);
        at += 2;
        bounds.push(at);
        at += name_len;
        bounds.push(at);
        lens.push(le(at, 8));
        at += 8;
        bounds.push(at);
        at += 8;
        bounds.push(at);
    }
    let sections = lens
        .into_iter()
        .map(|len| {
            at += len;
            at - len..at
        })
        .collect();
    assert_eq!(at, bytes.len(), "payloads end the container");
    (bounds, sections)
}

/// Damaged containers must never decode and never panic. The header
/// magic and the per-section checksums are both load-bearing; the
/// sweep cuts a two-maintainer checkpoint at every header-field and
/// section-table boundary and at each section's first and last byte
/// (±1), and flips one bit at each section's first and last payload
/// byte.
#[test]
fn corrupt_bytes_fail_typed() {
    let n = 16usize;
    let mut session = Session::new(cfg(n));
    session.register(Connectivity::new(n, ConnectivityConfig::default(), 5));
    session.register(FullMemoryBaseline::new(n));
    session
        .apply([
            Update::Insert(Edge::new(0, 1)),
            Update::Insert(Edge::new(1, 2)),
        ])
        .expect("legal batch");
    session
        .apply([Update::Delete(Edge::new(0, 1))])
        .expect("legal batch");
    let path = scratch("corrupt");
    session.checkpoint(&path).expect("checkpoint succeeds");
    let pristine = std::fs::read(&path).expect("snapshot readable");
    let registry = mpc_stream::full_registry();
    let restore = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("scratch writable");
        catch_unwind(AssertUnwindSafe(|| {
            Session::restore(&path, &registry).err()
        }))
    };

    // Clobbered magic: rejected before anything is decoded.
    let mut bad_magic = pristine.clone();
    bad_magic[0] ^= 0xFF;
    assert_eq!(
        restore(&bad_magic).expect("no panic"),
        Some(SnapshotError::BadMagic)
    );

    let (bounds, sections) = container_layout(&pristine);
    assert!(sections.len() >= 4, "session, context and two maintainers");
    let mut cuts: Vec<usize> = bounds;
    let mut flips = Vec::new();
    for range in sections.iter().filter(|r| !r.is_empty()) {
        let (first, last) = (range.start, range.end - 1);
        cuts.extend([first - 1, first, first + 1, last - 1, last, last + 1]);
        flips.extend([first, last]);
    }
    // A mid-file flip and an eight-byte truncation, as before the sweep.
    flips.push(pristine.len() / 2);
    cuts.push(pristine.len() - 8);
    cuts.retain(|&cut| cut < pristine.len());
    cuts.sort_unstable();
    cuts.dedup();

    // Truncation: an `Err`, not a partial session.
    for &cut in &cuts {
        match restore(&pristine[..cut]) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("snapshot cut to {cut} bytes decoded cleanly"),
            Err(_) => panic!("snapshot cut to {cut} bytes panicked"),
        }
    }
    // A payload bit flip: caught by a section checksum (or, if it
    // lands in the section table, by a structural decode error) —
    // always an `Err`, never a quietly wrong session.
    for &at in &flips {
        let mut flipped = pristine.clone();
        flipped[at] ^= 0x01;
        match restore(&flipped) {
            Ok(Some(_)) => {}
            Ok(None) => panic!("bit flip at byte {at} decoded cleanly"),
            Err(_) => panic!("bit flip at byte {at} panicked"),
        }
    }
    std::fs::remove_file(&path).expect("scratch file removable");
}
