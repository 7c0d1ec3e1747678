//! Criterion benches for the hot substrate paths: sketch updates and
//! merges, Euler-tour batch operations, connectivity batches, and the
//! maximal-matching substrate. Wall-clock throughput complements the
//! round-count experiments (rounds are the model's cost; these benches
//! confirm the simulator itself scales).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mpc_etf::DistEtf;
use mpc_graph::gen;
use mpc_graph::ids::Edge;
use mpc_graph::update::Batch;
use mpc_matching::MaximalMatching;
use mpc_sim::{MpcConfig, MpcContext};
use mpc_sketch::l0::L0Sampler;
use mpc_sketch::vertex::VertexSketch;
use mpc_stream_core::{Connectivity, ConnectivityConfig};
use std::hint::black_box;

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 18).build())
}

fn bench_sketch(c: &mut Criterion) {
    let mut g = c.benchmark_group("sketch");
    g.bench_function("l0_update", |b| {
        let mut s = L0Sampler::new(1 << 24, 7);
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 6364136223846793005 + 1) & ((1 << 24) - 1);
            s.update(black_box(i), 1);
        });
    });
    g.bench_function("l0_merge", |b| {
        let mut a = L0Sampler::new(1 << 24, 7);
        let mut x = L0Sampler::new(1 << 24, 7);
        for i in 0..256 {
            a.update(i * 11, 1);
            x.update(i * 13, 1);
        }
        b.iter(|| a.merge(black_box(&x)));
    });
    g.bench_function("vertex_sketch_sample", |b| {
        let n = 1 << 12;
        let mut s = VertexSketch::new(n, 0, 5);
        for i in 1..64u32 {
            s.insert_edge(Edge::new(0, i));
        }
        b.iter(|| black_box(s.sample()));
    });
    g.bench_function("update_stream_4k", |b| {
        // The batched cell-write path: 4096 edge inserts streamed into
        // a bank's arena (per copy per endpoint: one level-hash and
        // fingerprint evaluation, then the kernel cell write).
        use mpc_sketch::SketchBank;
        let n = 1 << 12;
        let edges: Vec<Edge> = {
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            (0..4096)
                .map(|_| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let u = (x >> 33) as u32 % (n as u32 - 1);
                    let gap = 1 + (x >> 11) as u32 % (n as u32 - 1 - u);
                    Edge::new(u, u + gap)
                })
                .collect()
        };
        b.iter_batched(
            || SketchBank::new(n, 8, 13),
            |mut bank| {
                for e in &edges {
                    bank.insert_edge(*e);
                }
                bank
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.bench_function("merged_copy", |b| {
        // The converge-cast inner loop: merge one component's 64
        // member columns at one copy and sample the set sketch, at a
        // realistic copy count (t = log2(1024) + 6 = 16).
        use mpc_sketch::SketchBank;
        let n = 1 << 10;
        let mut bank = SketchBank::new(n, 16, 11);
        for i in 0..64u32 {
            bank.insert_edge(Edge::new(i, i + 64));
            if i > 0 {
                bank.insert_edge(Edge::new(i - 1, i));
            }
        }
        let members: Vec<u32> = (0..64).collect();
        let mut scratch = bank.new_scratch();
        b.iter(|| {
            scratch.reset(0);
            let absorbed = bank.merge_copy_into(&members, &mut scratch);
            black_box((absorbed > 0).then(|| bank.sample_merged(&scratch)))
        });
    });
    g.finish();
}

fn bench_etf(c: &mut Criterion) {
    let mut g = c.benchmark_group("etf");
    for k in [8usize, 64] {
        g.bench_with_input(BenchmarkId::new("batch_join_split", k), &k, |b, &k| {
            let n = 4096;
            b.iter_batched(
                || {
                    let mut ctx = ctx_for(n);
                    let mut etf = DistEtf::new(n);
                    let trees = k + 1;
                    let seg = n / trees;
                    for t in 0..trees {
                        let base = (t * seg) as u32;
                        for j in 0..seg as u32 - 1 {
                            etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
                        }
                    }
                    let batch: Vec<Edge> = (0..k)
                        .map(|i| Edge::new((i * seg) as u32, ((i + 1) * seg) as u32))
                        .collect();
                    (ctx, etf, batch)
                },
                |(mut ctx, mut etf, batch)| {
                    etf.batch_join(&batch, &mut ctx)
                        .expect("batch fits one machine");
                    etf.batch_split(&batch, &mut ctx);
                    (ctx, etf)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    // The `churn` regime in isolation: one giant tour (a random-
    // attachment tree on 16,384 vertices), `k` of its edges cut and
    // re-joined per iteration. Most cuts detach a small subtree, so
    // the cost should follow what is cut off, not the giant's length.
    for k in [1usize, 8] {
        g.bench_with_input(BenchmarkId::new("split_off_giant", k), &k, |b, &k| {
            let n = 1 << 14;
            let mut ctx = ctx_for(n);
            let mut etf = DistEtf::new(n);
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            let tree: Vec<Edge> = (1..n as u32)
                .map(|v| {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Edge::new((x >> 33) as u32 % v, v)
                })
                .collect();
            for chunk in tree.chunks(256) {
                etf.batch_join(chunk, &mut ctx)
                    .expect("batch fits one machine");
            }
            let mut at = 0;
            b.iter(|| {
                let cut: Vec<Edge> = (0..k).map(|i| tree[(at + i * 2039) % tree.len()]).collect();
                at = (at + 7919) % tree.len();
                black_box(etf.batch_split(&cut, &mut ctx));
                etf.batch_join(&cut, &mut ctx)
                    .expect("batch fits one machine");
            });
        });
    }
    // Tour-count scaling: the measured operation always touches the
    // same 9 foreground trees (32 vertices each); only the number of
    // *unrelated* background tours varies. With per-tour sharded
    // storage the per-op cost must stay flat in the background count
    // (the pre-shard layout scanned every forest edge per op).
    let fg_trees = 9usize;
    let fg_seg = 32usize;
    let bg_seg = 8usize;
    for bg in [0usize, 256, 1024, 4096] {
        g.bench_with_input(
            BenchmarkId::new("join_split_bg_tours", bg),
            &bg,
            |b, &bg| {
                let fg = fg_trees * fg_seg;
                let n = fg + bg * bg_seg;
                b.iter_batched(
                    || {
                        let mut ctx = ctx_for(n.max(2));
                        let mut etf = DistEtf::new(n);
                        for t in 0..fg_trees {
                            let base = (t * fg_seg) as u32;
                            for j in 0..fg_seg as u32 - 1 {
                                etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
                            }
                        }
                        for t in 0..bg {
                            let base = (fg + t * bg_seg) as u32;
                            for j in 0..bg_seg as u32 - 1 {
                                etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
                            }
                        }
                        let batch: Vec<Edge> = (0..fg_trees - 1)
                            .map(|i| Edge::new((i * fg_seg) as u32, ((i + 1) * fg_seg) as u32))
                            .collect();
                        (ctx, etf, batch)
                    },
                    |(mut ctx, mut etf, batch)| {
                        etf.batch_join(&batch, &mut ctx)
                            .expect("batch fits one machine");
                        etf.batch_split(&batch, &mut ctx);
                        (ctx, etf)
                    },
                    criterion::BatchSize::LargeInput,
                );
            },
        );
    }
    g.finish();
}

fn bench_connectivity(c: &mut Criterion) {
    let mut g = c.benchmark_group("connectivity");
    g.sample_size(10);
    for n in [256usize, 1024] {
        g.bench_with_input(BenchmarkId::new("mixed_batch16", n), &n, |b, &n| {
            let stream = gen::random_mixed_stream(n, 8, 16, 0.65, 3);
            b.iter_batched(
                || {
                    (
                        ctx_for(n),
                        Connectivity::new(n, ConnectivityConfig::default(), 1),
                    )
                },
                |(mut ctx, mut conn)| {
                    for batch in &stream.batches {
                        conn.apply_batch(batch, &mut ctx).expect("within model");
                    }
                    (ctx, conn)
                },
                criterion::BatchSize::LargeInput,
            );
        });
    }
    // The Borůvka converge-cast of the replacement-edge search
    // (Section 6.3): delete a slab of tree edges so every batch runs
    // the per-level component-sketch merges.
    g.bench_function("converge_cast", |b| {
        let n = 512usize;
        // Ladder graph: rungs guarantee replacements exist, so the
        // cascade always has productive levels.
        let half = n as u32 / 2;
        let mut edges: Vec<Edge> = Vec::new();
        for i in 0..half - 1 {
            edges.push(Edge::new(i, i + 1));
            edges.push(Edge::new(half + i, half + i + 1));
        }
        for i in 0..half {
            edges.push(Edge::new(i, half + i));
        }
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 17);
        conn.apply_batch(&Batch::inserting(edges), &mut ctx)
            .expect("within model");
        let victims: Vec<Edge> = conn.spanning_forest().into_iter().take(16).collect();
        b.iter_batched(
            || (ctx_for(n), conn.clone()),
            |(mut ctx, mut conn)| {
                conn.apply_batch(&Batch::deleting(victims.iter().copied()), &mut ctx)
                    .expect("within model");
                (ctx, conn)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut g = c.benchmark_group("matching");
    g.bench_function("no21_batch32", |b| {
        let n = 1024;
        let stream = gen::random_insert_stream(n, 8, 32, 9);
        b.iter_batched(
            || (ctx_for(n), MaximalMatching::new(n)),
            |(mut ctx, mut mm)| {
                for batch in &stream.batches {
                    mm.apply_batch(batch, &mut ctx).expect("valid stream");
                }
                (ctx, mm)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_msf(c: &mut Criterion) {
    use mpc_msf::ExactMsf;
    let mut g = c.benchmark_group("msf");
    g.sample_size(10);
    g.bench_function("exact_batch32", |b| {
        let n = 512;
        let stream = mpc_graph::gen::random_weighted_insert_stream(n, 8, 32, 1 << 10, 5);
        b.iter_batched(
            || (ctx_for(n), ExactMsf::new(n)),
            |(mut ctx, mut msf)| {
                for batch in &stream.batches {
                    msf.apply_batch(batch, &mut ctx).expect("within model");
                }
                (ctx, msf)
            },
            criterion::BatchSize::LargeInput,
        );
    });
    g.finish();
}

fn bench_cluster_primitives(c: &mut Criterion) {
    use mpc_sim::cluster::Cluster;
    use mpc_sim::primitives::{broadcast, prefix_sum, sample_sort};
    let mut g = c.benchmark_group("cluster");
    g.bench_function("broadcast_64_machines", |b| {
        b.iter_batched(
            || Cluster::new(64, 256),
            |mut cl| broadcast(&mut cl, &[1, 2, 3, 4]).expect("fits"),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("sample_sort_16x64", |b| {
        b.iter_batched(
            || {
                let mut cl = Cluster::new(16, 1 << 12);
                let mut x = 12345u64;
                for m in 0..16 {
                    let data: Vec<u64> = (0..64)
                        .map(|_| {
                            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                            x >> 32
                        })
                        .collect();
                    *cl.buffer_mut(m) = data;
                }
                cl
            },
            |mut cl| sample_sort(&mut cl).expect("balanced"),
            criterion::BatchSize::SmallInput,
        );
    });
    g.bench_function("prefix_sum_64_machines", |b| {
        b.iter_batched(
            || {
                let mut cl = Cluster::new(64, 16);
                for m in 0..64 {
                    *cl.buffer_mut(m) = vec![m as u64];
                }
                cl
            },
            |mut cl| prefix_sum(&mut cl).expect("cap-safe"),
            criterion::BatchSize::SmallInput,
        );
    });
    g.finish();
}

fn bench_bank(c: &mut Criterion) {
    use mpc_sketch::SketchBank;
    let mut g = c.benchmark_group("bank");
    g.bench_function("merged_copy_64_members", |b| {
        let n = 1 << 10;
        let mut bank = SketchBank::new(n, 4, 9);
        for i in 0..64u32 {
            bank.insert_edge(Edge::new(i, i + 64));
        }
        let members: Vec<u32> = (0..64).collect();
        b.iter(|| black_box(bank.merged_copy(&members, 0)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_sketch,
    bench_etf,
    bench_connectivity,
    bench_matching,
    bench_msf,
    bench_cluster_primitives,
    bench_bank
);
criterion_main!(benches);
