//! `Connectivity::apply_batch` reports its per-machine loads from a
//! cached vector that each batch moves by its delta (new sketch
//! columns, forest edges joined and cut). This suite holds that cache
//! to the full walk of `Connectivity::account`: one context is driven
//! through `apply_batch`, a twin context of the same cluster receives
//! `account` after every batch that succeeded, and the two must agree
//! on every machine's load, the total, both peaks and the permissive
//! violation list. The comparison is explicit, so it holds in release
//! builds, where the cache's own `debug_assert` is compiled out.
//!
//! Covered: permissive overruns at a small `s`, a batch rejected with
//! `GatherTooLarge` (the cache is dropped and rebuilt), a
//! save → load → continue cycle (a restored structure has no cache),
//! and a start from `Connectivity::from_graph`.

use mpc_stream::graph::gen;
use mpc_stream::prelude::*;
use mpc_stream::snapshot::{load_section, save_section, Snapshot, SnapshotWriter};

const N: usize = 64;

/// `s = 64` on 8 machines, permissive: one materialized sketch column
/// alone overruns a machine, and a 40-update insertion batch cannot
/// be gathered.
fn small_cluster() -> MpcContext {
    MpcContext::new(
        MpcConfig::builder(N, 0.5)
            .local_capacity(64)
            .machines(8)
            .build(),
    )
}

/// Every memory observation the two contexts made must agree.
fn assert_same_memory(cached: &MpcContext, walked: &MpcContext, at: &str) {
    for m in 0..cached.config().machines() {
        assert_eq!(cached.load(m), walked.load(m), "{at}: machine {m}");
    }
    assert_eq!(cached.total_load(), walked.total_load(), "{at}: total");
    let (a, b) = (cached.stats(), walked.stats());
    assert_eq!(
        a.peak_machine_words, b.peak_machine_words,
        "{at}: peak machine"
    );
    assert_eq!(a.peak_total_words, b.peak_total_words, "{at}: peak total");
    assert_eq!(a.violations, b.violations, "{at}: violations");
}

/// One batch through `apply_batch` on `cached`, and — if it succeeded
/// — the full walk on `walked`; then the two must agree.
fn step(
    conn: &mut Connectivity,
    batch: &Batch,
    cached: &mut MpcContext,
    walked: &mut MpcContext,
    at: &str,
) -> Result<(), MpcStreamError> {
    let result = conn.apply_batch(batch, cached);
    if result.is_ok() {
        conn.account(walked).expect("permissive");
    }
    assert_same_memory(cached, walked, at);
    result
}

fn snapshot_bytes(conn: &Connectivity) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    save_section(&mut w, "connectivity", conn);
    w.finish()
}

#[test]
fn cached_loads_equal_the_walk_through_overruns_rejection_and_restore() {
    let stream = gen::random_mixed_stream(N, 40, 8, 0.65, 0x10AD);
    let (mut cached, mut walked) = (small_cluster(), small_cluster());
    let mut conn = Connectivity::new(N, ConnectivityConfig::default(), 5);
    let mut failed = 0;
    for (i, batch) in stream.batches.iter().enumerate() {
        if i == 12 {
            // 40 fresh insertions: the coordinator's 80-word gather
            // exceeds s = 64, so the batch is rejected before any
            // write and the cache leaves with the `Err`.
            let too_big = Batch::inserting((0..40u32).map(|v| Edge::new(v, v + 24)));
            let err = step(&mut conn, &too_big, &mut cached, &mut walked, "gather")
                .expect_err("an 80-word gather at s = 64");
            assert!(
                matches!(
                    err,
                    MpcStreamError::Capacity(MpcError::GatherTooLarge { .. })
                ),
                "{err}"
            );
        }
        if i == 24 {
            // Save, drop, load, continue: the restored structure
            // carries no cache and its bytes do not depend on one.
            let bytes = snapshot_bytes(&conn);
            let snap = Snapshot::from_bytes(&bytes).expect("readable");
            conn = load_section(&snap, "connectivity").expect("loadable");
            assert_eq!(snapshot_bytes(&conn), bytes, "restore is byte-stable");
        }
        failed += usize::from(
            step(
                &mut conn,
                batch,
                &mut cached,
                &mut walked,
                &format!("batch {i}"),
            )
            .is_err(),
        );
    }
    assert_eq!(failed, 0, "the stream's own batches all fit");
    assert!(
        !cached.stats().violations.is_empty(),
        "s = 64 must overrun in permissive mode"
    );
    // Cut 12 forest edges at once (their split gathers 48 of the 64
    // words): the largest `-6` delta the cache takes in one batch.
    let forest = conn.spanning_forest();
    assert!(forest.len() >= 12, "{} forest edges", forest.len());
    let cuts = Batch::deleting(forest.into_iter().take(12));
    step(&mut conn, &cuts, &mut cached, &mut walked, "cut 12").expect("valid");
}

#[test]
fn cached_loads_equal_the_walk_after_a_from_graph_start() {
    let stream = gen::random_mixed_stream(N, 30, 8, 0.65, 0xF06);
    let start: Vec<Edge> = stream.replay()[14].edges().collect();
    let (mut cached, mut walked) = (small_cluster(), small_cluster());
    let mut conn = Connectivity::from_graph(
        N,
        ConnectivityConfig::default(),
        7,
        start.iter().copied(),
        &mut cached,
    )
    .expect("a simple graph inside [0, n)");
    conn.account(&mut walked).expect("permissive");
    assert_same_memory(&cached, &walked, "from_graph");
    for (i, batch) in stream.batches.iter().enumerate().skip(15) {
        step(
            &mut conn,
            batch,
            &mut cached,
            &mut walked,
            &format!("batch {i}"),
        )
        .expect("valid");
    }
}
