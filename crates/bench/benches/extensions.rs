//! Criterion benches for the extension layers (experiments E13–E15's
//! wall-clock complement): certificate cascade throughput, sketch
//! peeling, the query round's sketch recomputes, robust-wrapper
//! overhead, and vertex churn.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_baselines::AgmBaseline;
use mpc_graph::ids::Edge;
use mpc_graph::update::Batch;
use mpc_kconn::{DynamicKConn, InsertOnlyKConn};
use mpc_sim::{MpcConfig, MpcContext};
use mpc_stream_core::{
    Connectivity, ConnectivityConfig, RobustConnectivity, VertexDynamicConnectivity,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 18).build())
}

/// Circulant edges (i, i+1) and (i, i+2): 4-regular, 4-edge-connected.
fn circulant(n: u32) -> Vec<Edge> {
    let mut edges = Vec::new();
    for i in 0..n {
        edges.push(Edge::new(i, (i + 1) % n));
        edges.push(Edge::new(i, (i + 2) % n));
    }
    edges
}

fn bench_kconn(c: &mut Criterion) {
    let mut g = c.benchmark_group("kconn");
    for k in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("insert_only_batch", k), &k, |b, &k| {
            let n = 1024;
            let edges = circulant(n as u32);
            b.iter_batched(
                || (ctx_for(n), InsertOnlyKConn::new(n, k)),
                |(mut ctx, mut kc)| {
                    for chunk in edges.chunks(32) {
                        kc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                            .expect("fits");
                    }
                    black_box(kc.edge_count())
                },
                criterion::BatchSize::SmallInput,
            );
        });
        g.bench_with_input(BenchmarkId::new("dynamic_peel_query", k), &k, |b, &k| {
            let n = 256;
            let mut ctx = ctx_for(n);
            let mut kc = DynamicKConn::new(n, k, 5);
            kc.apply_batch(&Batch::inserting(circulant(n as u32)), &mut ctx)
                .expect("batch within model");
            b.iter(|| black_box(kc.certificate(&mut ctx).edge_count()));
        });
    }
    g.finish();
}

/// A churned sparse graph on `n` vertices: random edges among the
/// first `7n/8` (the rest stay isolated, never touched), then every
/// seventh edge deleted — disconnected, like the `fanout` workload's.
fn churned(n: u32) -> (Batch, Batch) {
    let mut rng = StdRng::seed_from_u64(0xFA40);
    let reach = n - n / 8;
    let mut edges: Vec<Edge> = Vec::new();
    while edges.len() < (n + n / 4) as usize {
        let (a, b) = (rng.gen_range(0..reach), rng.gen_range(0..reach));
        if a != b && !edges.contains(&Edge::new(a, b)) {
            edges.push(Edge::new(a, b));
        }
    }
    let deleted = edges.iter().copied().step_by(7);
    (
        Batch::inserting(edges.iter().copied()),
        Batch::deleting(deleted),
    )
}

/// The query round's two sketch recomputes at `fanout`'s shape
/// (n = 1 024, 8 copies, a churned graph with isolated vertices): the
/// k = 2 certificate peel and the AGM baseline's component labels.
fn bench_query_round(c: &mut Criterion) {
    let n = 1024;
    let (inserts, deletes) = churned(n as u32);
    let mut g = c.benchmark_group("query_round");
    g.bench_function("kconn_peel_fanout_shape", |b| {
        let mut ctx = ctx_for(n);
        let mut kc = DynamicKConn::with_copies(n, 2, 8, 5);
        kc.apply_batch(&inserts, &mut ctx).expect("in range");
        kc.apply_batch(&deletes, &mut ctx).expect("live edges");
        b.iter(|| black_box(kc.certificate(&mut ctx).edge_count()));
    });
    g.bench_function("agm_components_fanout_shape", |b| {
        let mut ctx = ctx_for(n);
        let mut agm = AgmBaseline::new(n, 5);
        agm.apply_batch(&inserts, &mut ctx).expect("in range");
        agm.apply_batch(&deletes, &mut ctx).expect("live edges");
        b.iter(|| black_box(agm.query_components(&mut ctx)[0]));
    });
    g.finish();
}

fn bench_robust(c: &mut Criterion) {
    let mut g = c.benchmark_group("robust");
    for r in [1usize, 4] {
        g.bench_with_input(BenchmarkId::new("update_batch", r), &r, |b, &r| {
            let n = 512;
            let edges = circulant(n as u32);
            b.iter_batched(
                || {
                    (
                        ctx_for(n),
                        RobustConnectivity::new(n, r, 1_000, ConnectivityConfig::default(), 9),
                    )
                },
                |(mut ctx, mut rc)| {
                    for chunk in edges.chunks(32) {
                        rc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                            .expect("budget");
                    }
                    black_box(rc.component_count())
                },
                criterion::BatchSize::SmallInput,
            );
        });
    }
    // Reference: the oblivious single instance.
    g.bench_function("oblivious_reference", |b| {
        let n = 512;
        let edges = circulant(n as u32);
        b.iter_batched(
            || {
                (
                    ctx_for(n),
                    Connectivity::new(n, ConnectivityConfig::default(), 9),
                )
            },
            |(mut ctx, mut conn)| {
                for chunk in edges.chunks(32) {
                    conn.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                        .expect("fits");
                }
                black_box(conn.component_count())
            },
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_vertex_churn(c: &mut Criterion) {
    c.bench_function("vertex_churn_cycle", |b| {
        let cap = 1024;
        b.iter_batched(
            || {
                (
                    ctx_for(cap),
                    VertexDynamicConnectivity::with_capacity(cap, ConnectivityConfig::default(), 4),
                )
            },
            |(mut ctx, mut vd)| {
                let ids = vd.add_vertices(64, &mut ctx).expect("capacity");
                let edges: Vec<Edge> = (0..64)
                    .map(|i| Edge::new(ids[i], ids[(i + 1) % 64]))
                    .collect();
                vd.apply_batch(&Batch::inserting(edges.iter().copied()), &mut ctx)
                    .expect("edges");
                vd.apply_batch(&Batch::deleting(edges.iter().copied()), &mut ctx)
                    .expect("edges");
                for v in ids {
                    vd.remove_vertex(v, &mut ctx).expect("isolated");
                }
                black_box(vd.active_count())
            },
            criterion::BatchSize::SmallInput,
        );
    });
}

criterion_group!(
    extension_benches,
    bench_kconn,
    bench_query_round,
    bench_robust,
    bench_vertex_churn
);
criterion_main!(extension_benches);
