//! Whole-system integration: every maintained structure in the
//! workspace ingesting the *same* update stream side by side, each
//! checked against its oracle after every batch — the scenario a
//! deployment would actually run (one evolving graph, many consumers).

use mpc_stream::baselines::AgmBaseline;
use mpc_stream::core_alg::{Connectivity, ConnectivityConfig, RobustConnectivity};
use mpc_stream::graph::cuts;
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::kconn::DynamicKConn;
use mpc_stream::mpc::{MpcConfig, MpcContext};
use mpc_stream::msf::Bipartiteness;

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

/// One mixed stream feeding connectivity, its robust wrapper, the AGM
/// baseline, bipartiteness, and the 2-edge-connectivity certificate —
/// all validated per batch.
#[test]
fn all_consumers_agree_on_one_stream() {
    let n = 40;
    let stream = gen::random_mixed_stream(n, 8, 10, 0.65, 0xF00D);
    let snaps = stream.replay();
    let mut ctx = ctx_for(n);

    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
    let mut robust = RobustConnectivity::new(n, 2, 64, ConnectivityConfig::default(), 2);
    let mut agm = AgmBaseline::new(n, 3);
    let mut bip = Bipartiteness::new(n, 4);
    let mut kc = DynamicKConn::new(n, 2, 5);

    for (i, (batch, snap)) in stream.batches.iter().zip(&snaps).enumerate() {
        conn.apply_batch(batch, &mut ctx).expect("conn");
        robust.apply_batch(batch, &mut ctx).expect("robust");
        agm.apply_batch(batch, &mut ctx).expect("agm");
        bip.apply_batch(batch, &mut ctx).expect("bipartiteness");
        kc.apply_batch(batch, &mut ctx).expect("kconn");

        let live: Vec<Edge> = snap.edges().collect();
        let labels = oracle::components(n, live.iter().copied());

        // All three connectivity views agree with the oracle.
        assert_eq!(conn.component_labels(), &labels[..], "batch {i}: conn");
        assert_eq!(robust.component_labels(), &labels[..], "batch {i}: robust");
        assert_eq!(
            agm.query_components(&mut ctx),
            labels,
            "batch {i}: agm recompute"
        );

        // Bipartiteness agrees with 2-coloring.
        assert_eq!(
            bip.is_bipartite(),
            oracle::is_bipartite(n, &live),
            "batch {i}: bipartiteness"
        );

        // The certificate preserves cuts up to 2 and finds the true
        // bridges.
        let cert = kc.certificate(&mut ctx);
        assert_eq!(
            cuts::edge_connectivity(n, &cert.edges()).min(2),
            cuts::edge_connectivity(n, &live).min(2),
            "batch {i}: certificate cut"
        );
        assert_eq!(
            cert.bridges().expect("k = 2"),
            cuts::bridges(n, &live),
            "batch {i}: bridges"
        );

        // The connectivity structure's spanning forest and the
        // certificate's first layer induce the same components.
        assert_eq!(
            cert.component_labels(),
            conn.component_labels(),
            "batch {i}: forest components"
        );
    }
}

/// The same pipeline on the barbell workload, whose cut structure is
/// known in closed form.
#[test]
fn pipeline_on_barbell_workload() {
    let c = 6;
    let p = 2;
    let stream = gen::barbell_stream(c, p, 5, true);
    let snaps = stream.replay();
    let n = stream.n;
    let mut ctx = ctx_for(n);
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 7);
    let mut kc = DynamicKConn::new(n, 2, 8);

    for (batch, snap) in stream.batches.iter().zip(&snaps) {
        conn.apply_batch(batch, &mut ctx).expect("conn");
        kc.apply_batch(batch, &mut ctx).expect("kconn");
        let live: Vec<Edge> = snap.edges().collect();
        assert_eq!(
            conn.component_count(),
            oracle::component_count(n, live.iter().copied())
        );
    }
    // After the delete phase the path is gone: cliques are separate,
    // no bridges remain anywhere.
    let cert = kc.certificate(&mut ctx);
    assert_eq!(cert.bridges().expect("k = 2"), vec![]);
    assert_eq!(conn.component_count(), 2 + p);
    // Each clique is still (c-1)-edge-connected internally — the
    // certificate can certify 2-edge-connectivity of each side by
    // restricting to one clique's vertices (component labels make
    // the restriction trivial).
    let labels = cert.component_labels();
    assert_eq!(labels[0], 0);
    assert_eq!(labels[c], c as u32);
}

/// Memory discipline across the pipeline: every consumer reports a
/// footprint, and the sum respects the Õ(n) regime at these sizes
/// (no structure secretly stores the whole graph).
#[test]
fn pipeline_memory_is_m_independent() {
    let n = 64;
    let mut ctx = ctx_for(n);
    // Pre-connect everything (touches every vertex, pins the spanning
    // forest at n-1 edges) so lazy materialization and forest size
    // cannot mask an m-dependence.
    let cycle = gen::circulant_stream(n, &[1], 16, 0);
    let run = |target_m: usize, seed: u64, ctx: &mut MpcContext| {
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
        let mut kc = DynamicKConn::new(n, 2, 2);
        for batch in &cycle.batches {
            conn.apply_batch(batch, ctx).expect("conn");
            kc.apply_batch(batch, ctx).expect("kconn");
        }
        let extra = gen::densifying_stream(n, target_m, 16, seed);
        for batch in &extra.batches {
            // densifying_stream may regenerate cycle edges; skip those
            // batches' duplicates by filtering against the live set.
            let fresh: Vec<Edge> = batch
                .insertions()
                .filter(|e| {
                    (e.v() as usize) != (e.u() as usize + 1) % n
                        && (e.u() as usize) != (e.v() as usize + 1) % n
                })
                .collect();
            if fresh.is_empty() {
                continue;
            }
            let b = mpc_stream::graph::update::Batch::inserting(fresh);
            conn.apply_batch(&b, ctx).expect("conn");
            kc.apply_batch(&b, ctx).expect("kconn");
        }
        (conn.words(), kc.words(), conn.live_edge_count())
    };
    let (cw_sparse, kw_sparse, m_sparse) = run(100, 3, &mut ctx);
    let (cw_dense, kw_dense, m_dense) = run(800, 4, &mut ctx);
    assert!(m_dense > 4 * m_sparse, "workload did not densify");
    // Sketch-based state is sized by n and t, not m: identical once
    // every vertex's column is materialized and the forest spans.
    assert_eq!(cw_sparse, cw_dense, "connectivity words grew with m");
    assert_eq!(kw_sparse, kw_dense, "kconn words grew with m");
}
