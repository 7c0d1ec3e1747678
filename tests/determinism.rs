//! Whole-pipeline determinism: every run is a pure function of its
//! explicit seeds. Two independent executions with the same seeds must
//! produce *identical* outputs — labels, forests, certificates,
//! matchings, and round counts. (This suite exists because a `HashMap`
//! iteration order once leaked into the k-connectivity peel.)

use mpc_stream::core_alg::{Connectivity, ConnectivityConfig};
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::kconn::DynamicKConn;
use mpc_stream::matching::AklyMatching;
use mpc_stream::mpc::{MpcConfig, MpcContext};
use mpc_stream::msf::ExactMsf;

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

/// Two identically seeded connectivity runs agree on every observable
/// — including the exact round count, which depends on the whole
/// internal control flow.
#[test]
fn connectivity_runs_are_bit_identical() {
    let n = 96;
    let stream = gen::random_mixed_stream(n, 10, 12, 0.6, 0xDE7);
    let run = || {
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 0x5EED);
        let mut trace = Vec::new();
        for batch in &stream.batches {
            ctx.begin_phase("b");
            conn.apply_batch(batch, &mut ctx).expect("in regime");
            let r = ctx.end_phase();
            trace.push((r.rounds, r.words, conn.component_labels().to_vec()));
        }
        (trace, conn.spanning_forest())
    };
    assert_eq!(run(), run());
}

/// Identically seeded certificate peels are identical, layer by
/// layer.
#[test]
fn kconn_peels_are_identical() {
    let n = 64;
    let stream = gen::random_mixed_stream(n, 8, 10, 0.6, 0xC0DE);
    let run = || {
        let mut ctx = ctx_for(n);
        let mut kc = DynamicKConn::new(n, 3, 0xACE);
        let mut certs = Vec::new();
        for batch in &stream.batches {
            kc.apply_batch(batch, &mut ctx).expect("valid stream");
            certs.push(kc.certificate(&mut ctx));
        }
        certs
    };
    assert_eq!(run(), run());
}

/// Exact MSF runs are identical (forest edge lists, not just
/// weights).
#[test]
fn msf_runs_are_identical() {
    let n = 64;
    let stream = gen::random_weighted_insert_stream(n, 6, 12, 100, 0xF00);
    let run = || {
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        for batch in &stream.batches {
            msf.apply_batch(batch, &mut ctx).expect("insert-only");
        }
        let mut f = msf.forest();
        f.sort();
        f
    };
    assert_eq!(run(), run());
}

/// The AKLY sparsifier matcher — the most randomness-heavy structure
/// (hash partitions, active pairs, samplers, rematch rounds) — still
/// reproduces exactly from its seed.
#[test]
fn akly_matching_runs_are_identical() {
    let n = 64;
    let stream = gen::random_mixed_stream(n, 6, 8, 0.7, 0xBEE);
    let run = || {
        let mut ctx = ctx_for(n);
        let mut akly = AklyMatching::new(n, 2.0, 0x5EED);
        let mut sizes = Vec::new();
        for batch in &stream.batches {
            akly.apply_batch(batch, &mut ctx).expect("valid stream");
            let mut m = akly.matching();
            m.sort();
            sizes.push(m);
        }
        sizes
    };
    assert_eq!(run(), run());
}

/// Same seeds, two fresh sessions: the full Session pipeline is a
/// pure function of its seeds *and nothing else*.
#[test]
fn session_runs_are_identical() {
    use mpc_stream::prelude::*;
    let n = 48;
    let stream = gen::random_mixed_stream(n, 8, 10, 0.6, 0x90D);
    let run = || {
        let cfg = MpcConfig::builder(2 * n, 0.5)
            .local_capacity(1 << 16)
            .build();
        let mut session = Session::new(cfg);
        let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 0x5EED));
        session.register(DynamicKConn::new(n, 3, 0xACE));
        let akly = session.register(AklyMatching::new(n, 2.0, 0xBEE));
        let mut trace = Vec::new();
        for batch in &stream.batches {
            let reports = session.apply_batch(batch).expect("in regime");
            trace.push((
                reports,
                session.get(conn).component_labels().to_vec(),
                session.get(akly).matching(),
            ));
        }
        let cuts = session
            .ask_all(&QueryRequest::MinCutLowerBound)
            .expect("answered");
        (trace, cuts, session.stats().clone())
    };
    assert_eq!(run(), run());
}

/// A restored maintainer's RNG streams continue *exactly* where the
/// original stopped: snapshotting mid-stream and resuming must
/// reproduce the uninterrupted run's sampler outcomes — the spanning
/// forest rebuilt from ℓ0 samples after deletions, the cumulative
/// sampler-failure count, and every per-batch round/word charge.
/// (A snapshot that re-seeded or replayed its samplers would diverge
/// on the first post-restore deletion.)
#[test]
fn restored_sampler_streams_continue_exactly() {
    use mpc_stream::core_alg::Maintain;
    use mpc_stream::snapshot::{load_section, save_section, Snapshot, SnapshotWriter};
    let n = 96;
    let stream = gen::random_mixed_stream(n, 10, 12, 0.6, 0xDE7);
    let split = stream.batches.len() / 2;
    type Trace = Vec<(u64, u64, Vec<u32>, Vec<Edge>, u64)>;
    let observe = |conn: &mut Connectivity, ctx: &mut MpcContext, batch| {
        ctx.begin_phase("b");
        conn.apply_batch(batch, ctx).expect("in regime");
        let r = ctx.end_phase();
        let mut f = conn.spanning_forest();
        f.sort();
        (
            r.rounds,
            r.words,
            conn.component_labels().to_vec(),
            f,
            Maintain::l0_failures(conn),
        )
    };

    // The uninterrupted twin.
    let mut ctx = ctx_for(n);
    let mut full = Connectivity::new(n, ConnectivityConfig::default(), 0x5EED);
    let mut full_trace: Trace = Vec::new();
    for batch in &stream.batches {
        full_trace.push(observe(&mut full, &mut ctx, batch));
    }

    // The interrupted twin: half the stream, a `Persist` round-trip
    // through real snapshot bytes, then the rest of the stream.
    let mut ctx = ctx_for(n);
    let mut first_half = Connectivity::new(n, ConnectivityConfig::default(), 0x5EED);
    let mut trace: Trace = Vec::new();
    for batch in &stream.batches[..split] {
        trace.push(observe(&mut first_half, &mut ctx, batch));
    }
    let mut w = SnapshotWriter::new(0);
    save_section(&mut w, "conn", &first_half);
    let bytes = w.finish();
    drop(first_half);
    let snap = Snapshot::from_bytes(&bytes).expect("container parses");
    let mut resumed: Connectivity = load_section(&snap, "conn").expect("decodes");
    let mut ctx = ctx_for(n);
    for batch in &stream.batches[split..] {
        trace.push(observe(&mut resumed, &mut ctx, batch));
    }
    assert_eq!(
        trace, full_trace,
        "post-restore sampler outcomes diverged from the uninterrupted run"
    );
}

/// Different seeds genuinely change the randomized internals (the
/// deterministic tests above are not vacuous).
#[test]
fn different_seeds_differ_somewhere() {
    let n = 48;
    // A star whose tree deletions force replacement sampling.
    let center_edges: Vec<Edge> = (1..n as u32).map(|i| Edge::new(0, i)).collect();
    let extra: Vec<Edge> = (1..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
    let forest_of = |seed: u64| {
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), seed);
        for chunk in center_edges.chunks(8) {
            conn.apply_batch(
                &mpc_stream::graph::update::Batch::inserting(chunk.iter().copied()),
                &mut ctx,
            )
            .expect("insert");
        }
        for chunk in extra.chunks(8) {
            conn.apply_batch(
                &mpc_stream::graph::update::Batch::inserting(chunk.iter().copied()),
                &mut ctx,
            )
            .expect("insert");
        }
        // Delete a batch of star edges: replacements come from the
        // sketches, whose samples depend on the seed.
        conn.apply_batch(
            &mpc_stream::graph::update::Batch::deleting(center_edges[4..12].iter().copied()),
            &mut ctx,
        )
        .expect("delete");
        let mut f = conn.spanning_forest();
        f.sort();
        f
    };
    let forests: Vec<_> = (0..6).map(|s| forest_of(s * 1000 + 1)).collect();
    assert!(
        forests.windows(2).any(|w| w[0] != w[1]),
        "six different seeds produced identical replacement forests — \
         the sketches are not consuming their seeds"
    );
}
