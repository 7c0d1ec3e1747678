//! Failure injection: the MPC model's resource gates must trip — and
//! trip cleanly — when an algorithm is driven outside the regime its
//! theorem permits (batch larger than `Õ(s)`, machine smaller than
//! its state).

use mpc_stream::core_alg::{Connectivity, ConnectivityConfig, Maintain, QueryRequest, Session};
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::update::{Batch, Update};
use mpc_stream::mpc::{MpcConfig, MpcContext, MpcError, MpcStreamError};

#[test]
fn oversized_batch_trips_the_gather_gate() {
    // s = 64 words: the coordinator can gather at most a handful of
    // updates; a 64-edge batch must be rejected, not silently
    // processed.
    let n = 256;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(64).build());
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
    let batch = Batch::inserting((0..64u32).map(|i| Edge::new(2 * i, 2 * i + 1)));
    let err = conn.apply_batch(&batch, &mut ctx).unwrap_err();
    assert!(
        matches!(
            err,
            MpcStreamError::Capacity(MpcError::GatherTooLarge { .. })
        ),
        "expected a gather violation, got {err:?}"
    );
}

#[test]
fn legal_batches_pass_the_same_gate() {
    let n = 256;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(64).build());
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
    // 8 edges × ~4 words each fits in 64.
    let batch = Batch::inserting((0..8u32).map(|i| Edge::new(2 * i, 2 * i + 1)));
    conn.apply_batch(&batch, &mut ctx).expect("legal batch");
    assert_eq!(conn.component_count(), n - 8);
}

#[test]
fn permissive_mode_records_memory_violations_instead_of_failing() {
    // A cluster whose machines are far too small for the sketch bank:
    // permissive mode keeps running and records every violation so
    // experiments can report the overflow.
    let n = 64;
    let mut ctx = MpcContext::new(
        MpcConfig::builder(n, 0.5)
            .local_capacity(256)
            .machines(4)
            .build(),
    );
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 2);
    let stream = gen::random_insert_stream(n, 3, 8, 5);
    for batch in &stream.batches {
        conn.apply_batch(batch, &mut ctx).expect("permissive mode");
    }
    assert!(
        !ctx.stats().violations.is_empty(),
        "sketch state cannot fit 4×256 words; violations must be recorded"
    );
}

#[test]
fn strict_mode_fails_fast_on_the_same_configuration() {
    let n = 64;
    let mut ctx = MpcContext::new(
        MpcConfig::builder(n, 0.5)
            .local_capacity(256)
            .machines(4)
            .strict(true)
            .build(),
    );
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 2);
    let stream = gen::random_insert_stream(n, 3, 8, 5);
    let mut failed = false;
    for batch in &stream.batches {
        if let Err(MpcStreamError::Capacity(MpcError::LocalMemoryExceeded { .. })) =
            conn.apply_batch(batch, &mut ctx)
        {
            failed = true;
            break;
        }
    }
    assert!(failed, "strict mode must surface the overflow as an error");
}

#[test]
fn adequately_provisioned_cluster_stays_violation_free() {
    // The paper's regime: machines big enough for their shard of the
    // Õ(n) state. No violations should be recorded.
    let n = 64;
    let mut ctx = MpcContext::new(
        MpcConfig::builder(n, 0.5)
            .local_capacity(1 << 16)
            .machines(16)
            .build(),
    );
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 3);
    let stream = gen::random_mixed_stream(n, 6, 8, 0.7, 9);
    for batch in &stream.batches {
        conn.apply_batch(batch, &mut ctx).expect("within model");
    }
    assert!(ctx.stats().violations.is_empty());
    assert!(ctx.stats().peak_total_words > 0);
}

#[test]
fn communication_is_bounded_by_total_memory_scale() {
    // Theorem 1.1's communication claim: per-round traffic is bounded
    // by the total memory budget Õ(n) — in particular it must not
    // scale with m. Compare peak per-round words on a sparse stream
    // vs a much denser one.
    let n = 128;
    let mut peak = Vec::new();
    for target_m in [100usize, 1600] {
        let stream = gen::densifying_stream(n, target_m, 16, 4);
        let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build());
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 4);
        for batch in &stream.batches {
            conn.apply_batch(batch, &mut ctx).expect("within model");
        }
        peak.push(ctx.stats().peak_round_words);
    }
    // 16x the edges must not translate into anywhere near 16x the
    // per-round communication.
    assert!(
        peak[1] < peak[0] * 4,
        "per-round words grew with m: {} -> {}",
        peak[0],
        peak[1]
    );
}

#[test]
fn robust_wrapper_propagates_the_gather_gate() {
    use mpc_stream::core_alg::RobustConnectivity;
    let n = 256;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(64).build());
    let mut rc = RobustConnectivity::new(n, 2, 4, ConnectivityConfig::default(), 1);
    let batch = Batch::inserting((0..64u32).map(|i| Edge::new(2 * i, 2 * i + 1)));
    let err = rc.apply_batch(&batch, &mut ctx).unwrap_err();
    assert!(
        matches!(
            err,
            MpcStreamError::Capacity(MpcError::GatherTooLarge { .. })
        ),
        "expected the inner gather violation, got {err:?}"
    );
}

#[test]
fn vertex_dynamic_propagates_the_gather_gate() {
    use mpc_stream::core_alg::VertexDynamicConnectivity;
    let n = 256;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(64).build());
    let mut vd = VertexDynamicConnectivity::with_capacity(n, ConnectivityConfig::default(), 1);
    vd.add_vertices(128, &mut ctx).expect("capacity");
    let batch = Batch::inserting((0..64u32).map(|i| Edge::new(2 * i, 2 * i + 1)));
    let err = vd.apply_batch(&batch, &mut ctx).unwrap_err();
    assert!(
        matches!(
            err,
            MpcStreamError::Capacity(MpcError::GatherTooLarge { .. })
        ),
        "expected the inner gather violation, got {err:?}"
    );
}

#[test]
fn contract_violations_are_rejected_not_absorbed() {
    // Deleting an edge that is not live violates the dynamic-graph
    // contract (paper Section 1.2); the sketches detect it.
    let n = 32;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 14).build());
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
    conn.apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut ctx)
        .expect("insert");
    // Duplicate insertion of a live edge is rejected.
    let err = conn
        .apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut ctx)
        .unwrap_err();
    assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    // An endpoint outside [0, n) is rejected before any mutation.
    let err = conn
        .apply_batch(&Batch::inserting([Edge::new(0, n as u32 + 5)]), &mut ctx)
        .unwrap_err();
    assert!(matches!(err, MpcStreamError::InvalidBatch(_)));
    // The valid state is untouched.
    assert!(conn.connected(0, 1));
    assert_eq!(conn.live_edge_count(), 1);
}

#[test]
fn tiny_phi_still_works_just_slower() {
    // φ → small means less local memory and deeper trees: rounds grow
    // as 1/φ but correctness is unaffected.
    let n = 512;
    let mut rounds_by_phi = Vec::new();
    for phi in [0.3f64, 0.6] {
        let s = (16.0 * (n as f64).powf(phi)).ceil() as u64;
        let mut ctx = MpcContext::new(MpcConfig::builder(n, phi).local_capacity(s).build());
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 9);
        let stream = gen::random_mixed_stream(n, 5, 6, 0.7, 31);
        let snaps = stream.replay();
        ctx.begin_phase("all");
        for batch in &stream.batches {
            conn.apply_batch(batch, &mut ctx).expect("in regime");
        }
        let r = ctx.end_phase().rounds;
        let expect = mpc_stream::graph::oracle::components(n, snaps.last().unwrap().edges());
        assert_eq!(conn.component_labels(), &expect[..], "phi {phi}");
        rounds_by_phi.push(r);
    }
    assert!(
        rounds_by_phi[0] > rounds_by_phi[1],
        "smaller phi must cost more rounds: {rounds_by_phi:?}"
    );
}

/// One way to fail: the cluster, the batches that must succeed first,
/// the batch that must not, and the error it must produce.
struct Cause {
    name: &'static str,
    cfg: MpcConfig,
    warmup: Vec<Vec<Update>>,
    bad: Vec<Update>,
    expect: MpcStreamError,
}

/// A maintainer's inherent batch entry.
type Entry<M> = fn(&mut M, &Batch, &mut MpcContext) -> Result<(), MpcStreamError>;

/// Drives every cause into a fresh maintainer twice — through its
/// inherent entry on a bare context (when it has one that takes the
/// batch as built) and through `Session::apply` (one chunk per
/// submission, so the maintainer sees the batch the caller built) —
/// and asserts the exact error both times.
fn check<M: Maintain>(kind: &str, make: impl Fn() -> M, entry: Option<Entry<M>>, causes: &[Cause]) {
    for c in causes {
        if let Some(entry) = entry {
            let (mut m, mut ctx) = (make(), MpcContext::new(c.cfg.clone()));
            for w in &c.warmup {
                entry(&mut m, &Batch::from_updates(w.clone()), &mut ctx).expect("warmup");
            }
            let got = entry(&mut m, &Batch::from_updates(c.bad.clone()), &mut ctx);
            assert_eq!(
                got.err().as_ref(),
                Some(&c.expect),
                "{kind}: {} (inherent)",
                c.name
            );
        }
        let mut session = Session::new(c.cfg.clone()).with_max_batch(64);
        session.register(make());
        for w in &c.warmup {
            session.apply(w.iter().copied()).expect("warmup");
        }
        let got = session.apply(c.bad.iter().copied());
        assert_eq!(
            got.err().as_ref(),
            Some(&c.expect),
            "{kind}: {} (session)",
            c.name
        );
    }
}

/// Every maintainer with a contract of its own × every cause it can
/// fail with: one `MpcStreamError`, the same variant and the same
/// message, byte for byte, through the inherent entry and through the
/// `Session`.
#[test]
fn every_failure_is_one_stream_error_with_a_pinned_message() {
    use mpc_stream::core_alg::{
        RobustConnectivity, StreamingConnectivity, VertexDynamicConnectivity,
    };
    use mpc_stream::kconn::InsertOnlyKConn;
    use mpc_stream::msf::approx::unit_weighted;
    use mpc_stream::msf::{ApproxMsfForest, ApproxMsfWeight, Bipartiteness, ExactMsf};

    const N: usize = 16;
    fn roomy() -> MpcConfig {
        MpcConfig::builder(N, 0.5).local_capacity(1 << 14).build()
    }
    /// Vertices 0..8 active, 8..16 free slots.
    fn vertex_dynamic() -> VertexDynamicConnectivity {
        let mut vd = VertexDynamicConnectivity::with_capacity(N, ConnectivityConfig::default(), 4);
        vd.add_vertices(8, &mut MpcContext::new(roomy()))
            .expect("free slots");
        vd
    }
    let tiny = MpcConfig::builder(N, 0.5).local_capacity(8).build();
    let ins = |a, b| Update::Insert(Edge::new(a, b));
    let del = |a, b| Update::Delete(Edge::new(a, b));
    let gather = |words| MpcStreamError::Capacity(MpcError::GatherTooLarge { words, capacity: 8 });
    let invalid = |msg: &str| MpcStreamError::InvalidBatch(msg.into());
    let unsupported = |msg: &str| MpcStreamError::Unsupported(msg.into());
    let budget = |msg: &str| MpcStreamError::BudgetExhausted(msg.into());
    let cause = |name, cfg: &MpcConfig, warmup: &[&[Update]], bad: &[Update], expect| Cause {
        name,
        cfg: cfg.clone(),
        warmup: warmup.iter().map(|w| w.to_vec()).collect(),
        bad: bad.to_vec(),
        expect,
    };

    // The causes. 8 disjoint edges are 16 gathered words (24 for the
    // MSF swap) > s = 8; the ring is the same 16 words on the 8 active
    // vertices of `vertex_dynamic`.
    let big: Vec<Update> = (0..8).map(|i| ins(2 * i, 2 * i + 1)).collect();
    let ring: Vec<Update> = (0..8).map(|i| ins(i, (i + 1) % 8)).collect();
    let path: &[Update] = &[ins(0, 1), ins(1, 2)];
    let too_big = |words| cause("gather too large", &tiny, &[], &big, gather(words));
    let duplicate = |msg| {
        cause(
            "duplicate insert",
            &roomy(),
            &[path],
            &[ins(0, 1)],
            invalid(msg),
        )
    };
    let absent_msg = "invalid update for edge {4,5}";
    let absent = || {
        cause(
            "deletion of absent edge",
            &roomy(),
            &[],
            &[del(4, 5)],
            invalid(absent_msg),
        )
    };
    let outside = |msg| {
        cause(
            "endpoint out of range",
            &roomy(),
            &[],
            &[ins(0, 200)],
            invalid(msg),
        )
    };
    let insert_only = |msg| {
        let name = "deletion in an insertion-only stream";
        cause(name, &roomy(), &[path], &[del(0, 1)], unsupported(msg))
    };
    // `Connectivity`'s own contract, which every structure built on
    // it reports unchanged.
    let contract = [
        too_big(16),
        duplicate("invalid update for edge {0,1}"),
        absent(),
        outside("invalid update for edge {0,200}"),
    ];
    let off_range = "edge {0,200} has an endpoint outside [0, 16)";

    // The kinds.
    check(
        "connectivity",
        || Connectivity::new(N, ConnectivityConfig::default(), 1),
        Some(Connectivity::apply_batch),
        &contract,
    );
    let streaming = || StreamingConnectivity::new(N, 2);
    check(
        "streaming",
        streaming,
        Some(|m: &mut StreamingConnectivity, b, _| b.iter().try_for_each(|u| m.apply(u))),
        &[duplicate("invalid update for edge {0,1}"), absent()],
    );
    // The inherent single-update entry has no batch to gate and
    // indexes by endpoint; both gates live in the `Maintain` impl.
    check(
        "streaming",
        streaming,
        None,
        &[too_big(17), outside(off_range)],
    );
    // One instance × one exposure: the first forest-edge deletion
    // spends the budget, the second is refused.
    let robust = || RobustConnectivity::new(N, 1, 1, ConnectivityConfig::default(), 3);
    check(
        "robust",
        robust,
        Some(RobustConnectivity::apply_batch),
        &contract,
    );
    check(
        "robust",
        robust,
        Some(RobustConnectivity::apply_batch),
        &[cause(
            "adaptivity budget spent",
            &roomy(),
            &[path, &[del(0, 1)]],
            &[del(1, 2)],
            budget("adaptivity budget exhausted: 1 instances x 1 consuming batches"),
        )],
    );
    check(
        "vertex-dynamic",
        vertex_dynamic,
        Some(VertexDynamicConnectivity::apply_batch),
        &[
            cause("gather too large", &tiny, &[], &ring, gather(16)),
            duplicate("invalid update for edge {0,1}"),
            absent(),
            cause(
                "inactive endpoint",
                &roomy(),
                &[],
                &[ins(0, 9)],
                invalid("edge {0,9} touches inactive vertex 9"),
            ),
            outside("edge {0,200} touches inactive vertex 200"),
        ],
    );
    check(
        "bipartiteness",
        || Bipartiteness::new(N, 5),
        Some(Bipartiteness::apply_batch),
        &contract,
    );
    check(
        "msf-approx-weight",
        || ApproxMsfWeight::new(N, 0.5, 8, 6),
        Some(|m: &mut ApproxMsfWeight, b, ctx| m.apply_batch(&unit_weighted(b), ctx)),
        &contract,
    );
    check(
        "msf-approx-forest",
        || ApproxMsfForest::new(N, 0.5, 8, 7),
        Some(|m: &mut ApproxMsfForest, b, ctx| m.apply_batch(&unit_weighted(b), ctx)),
        &contract,
    );
    check(
        "msf-exact",
        || ExactMsf::new(N),
        Some(|m: &mut ExactMsf, b, ctx| m.apply_batch(&unit_weighted(b), ctx)),
        &[
            too_big(24),
            duplicate("duplicate insertion of {0,1}"),
            outside(off_range),
            insert_only("deletion of {0,1} in insertion-only MSF stream"),
        ],
    );
    check(
        "kconn-insert-only",
        || InsertOnlyKConn::new(N, 2),
        Some(InsertOnlyKConn::apply_batch),
        &[
            too_big(16),
            duplicate("insertion of already-live edge {0,1}"),
            outside(off_range),
            insert_only("deletion of {0,1} in an insertion-only stream"),
        ],
    );

    // The vertex-set entries are not edge batches: they are inherent,
    // on a bare context; the session's copy answers through
    // `Session::ask`.
    let mut ctx = MpcContext::new(roomy());
    let mut vd = vertex_dynamic();
    vd.apply_batch(&Batch::inserting([Edge::new(0, 1)]), &mut ctx)
        .expect("both active");
    let mut session = Session::new(roomy());
    let h = session.register(vertex_dynamic());
    session.apply([ins(0, 1)]).expect("both active");
    let not_isolated = invalid("vertex 0 has 1 live edges; only isolated vertices can be removed");
    assert_eq!(vd.remove_vertex(0, &mut ctx), Err(not_isolated));
    let inactive = invalid("vertex 9 is not active");
    assert_eq!(vd.remove_vertex(9, &mut ctx), Err(inactive.clone()));
    assert_eq!(vd.connected(0, 9), Err(inactive.clone()));
    assert_eq!(vd.component_of(9), Err(inactive.clone()));
    assert_eq!(vd.degree(9), Err(inactive.clone()));
    for q in [QueryRequest::Connected(0, 9), QueryRequest::ComponentOf(9)] {
        assert_eq!(session.ask(h, &q), Err(inactive.clone()), "{q}");
    }
    vd.add_vertices(8, &mut ctx).expect("the last 8 slots");
    let slots_spent = budget("all 16 vertex slots are active");
    assert_eq!(vd.add_vertex(&mut ctx), Err(slots_spent.clone()));
    assert_eq!(vd.add_vertices(1, &mut ctx), Err(slots_spent));

    // The classes print as before.
    assert_eq!(
        invalid(absent_msg).to_string(),
        "invalid batch: invalid update for edge {4,5}"
    );
    assert_eq!(
        gather(16).to_string(),
        "capacity: gather of 16 words cannot fit in one machine (cap 8)"
    );
}

/// A maintainer's state as a single-section snapshot container.
fn state_bytes(m: &impl Maintain) -> Vec<u8> {
    let mut w = mpc_stream::snapshot::SnapshotWriter::new(0);
    w.begin_section("state");
    m.save_state(&mut w);
    w.end_section();
    w.finish()
}

/// Batches small enough for the update gather that the Euler-tour
/// splice cannot hold at `s = 8`: three disjoint insertions gather 6
/// words of endpoints but join 12 words of tour plan, and three
/// tree-edge deletions split 12. Both are refused with the splice's
/// gather error, inherently and through a `Session` whose chunks are
/// three updates (`max_batch > s/4`), before the first write.
#[test]
fn euler_tour_gather_fails_as_an_error_before_any_write() {
    const N: usize = 16;
    let tiny = MpcConfig::builder(N, 0.5).local_capacity(8).build();
    let expect = MpcStreamError::Capacity(MpcError::GatherTooLarge {
        words: 12,
        capacity: 8,
    });
    let path: Vec<Edge> = (0..3u32).map(|i| Edge::new(i, i + 1)).collect();
    let cases = [
        (
            "three disjoint insertions",
            vec![],
            Batch::inserting((4..7u32).map(|i| Edge::new(2 * i, 2 * i + 1))),
        ),
        (
            "three tree-edge deletions",
            vec![
                Batch::inserting(path[..2].iter().copied()),
                Batch::inserting(path[2..].iter().copied()),
            ],
            Batch::deleting(path.iter().copied()),
        ),
    ];
    for (what, warmup, bad) in cases {
        let mut ctx = MpcContext::new(tiny.clone());
        let mut conn = Connectivity::new(N, ConnectivityConfig::default(), 1);
        for b in &warmup {
            conn.apply_batch(b, &mut ctx).expect("warmup");
        }
        let before = state_bytes(&conn);
        assert_eq!(
            conn.apply_batch(&bad, &mut ctx),
            Err(expect.clone()),
            "{what}"
        );
        assert_eq!(state_bytes(&conn), before, "{what}: state moved on Err");

        let mut session = Session::new(tiny.clone()).with_max_batch(3);
        let h = session.register(Connectivity::new(N, ConnectivityConfig::default(), 1));
        for b in &warmup {
            session.apply(b.iter()).expect("warmup");
        }
        let before = state_bytes(session.get(h));
        assert_eq!(
            session.apply(bad.iter()).err(),
            Some(expect.clone()),
            "{what} (session)"
        );
        assert_eq!(
            state_bytes(session.get(h)),
            before,
            "{what} (session): state moved on Err"
        );
    }
}
