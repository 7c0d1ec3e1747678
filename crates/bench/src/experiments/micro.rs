//! Experiments E10–E11: substrate microbenchmarks (Lemma 3.1 sketch
//! quality; Lemma 5.1/6.4 Euler-tour operation costs), each with a
//! host-timed companion table (E10b, E11b).

use crate::experiment_context;
use crate::table::{f2, Table};
use mpc_etf::tour::validate;
use mpc_etf::DistEtf;
use mpc_graph::ids::Edge;
use mpc_sketch::l0::{L0Sampler, SampleOutcome};
use mpc_sketch::SketchBank;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// E10 — Lemma 3.1: `ℓ0`-sampler success rate vs support size, and
/// the boost from independent copies (the paper's `t` sketches).
pub fn e10_sketch_quality() -> Vec<Table> {
    let mut t = Table::new(
        "E10 (Lemma 3.1): l0-sampler quality (200 trials per row)",
        &[
            "support",
            "single-copy success",
            "8-copy success",
            "false zero",
            "non-support sample",
        ],
    );
    let trials = 200u64;
    let space = 1u64 << 22;
    for support in [1usize, 10, 100, 1_000, 10_000] {
        let mut single_ok = 0u32;
        let mut multi_ok = 0u32;
        let mut false_zero = 0u32;
        let mut bad_sample = 0u32;
        let mut rng = StdRng::seed_from_u64(support as u64 * 7 + 1);
        for trial in 0..trials {
            let mut coords: Vec<u64> = (0..support).map(|_| rng.gen_range(0..space)).collect();
            coords.sort_unstable();
            coords.dedup();
            let mut copies: Vec<L0Sampler> = (0..8)
                .map(|c| L0Sampler::new(space, trial * 100 + c))
                .collect();
            for s in &mut copies {
                for &i in &coords {
                    s.update(i, 1);
                }
            }
            let mut any = false;
            for (ci, s) in copies.iter().enumerate() {
                match s.sample() {
                    SampleOutcome::Sample { index, .. } => {
                        if !coords.contains(&index) {
                            bad_sample += 1;
                        }
                        if ci == 0 {
                            single_ok += 1;
                        }
                        any = true;
                    }
                    SampleOutcome::Zero => false_zero += 1,
                    SampleOutcome::Fail => {}
                }
            }
            if any {
                multi_ok += 1;
            }
        }
        t.row(vec![
            support.to_string(),
            f2(single_ok as f64 / trials as f64),
            f2(multi_ok as f64 / trials as f64),
            false_zero.to_string(),
            bad_sample.to_string(),
        ]);
    }
    vec![t, e10b_sketch_layer_timings()]
}

/// E10b — host time of the sketch layer's two hot paths, each the
/// best of `reps` warm repetitions like E11b (host evidence for the
/// simulator, not a model quantity): the batched cell write
/// (`update_stream_4k`: 4,096 edge inserts into a fresh `n = 4096`,
/// `t = 8` bank) and the converge-cast inner loop (`merged_copy`:
/// merge 64 member columns at one copy into a reused scratch and
/// sample it, at `t = 16 = log2(1024) + 6` copies).
fn e10b_sketch_layer_timings() -> Table {
    let mut t = Table::new(
        "E10b (sketch layer): column write and merge paths, host time",
        &[
            "operation",
            "work per rep",
            "reps",
            "µs (warm best)",
            "ns per unit",
        ],
    );
    let n = 1usize << 12;
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let edges: Vec<Edge> = (0..4096)
        .map(|_| {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let u = (x >> 33) as u32 % (n as u32 - 1);
            let gap = 1 + (x >> 11) as u32 % (n as u32 - 1 - u);
            Edge::new(u, u + gap)
        })
        .collect();
    let stream_reps = 20;
    let stream = best_of(stream_reps, || {
        let mut bank = SketchBank::new(n, 8, 13);
        let t0 = Instant::now();
        for e in &edges {
            bank.insert_edge(*e);
        }
        let elapsed = t0.elapsed();
        black_box(bank);
        elapsed
    });

    let mut bank = SketchBank::new(1 << 10, 16, 11);
    for i in 0..64u32 {
        bank.insert_edge(Edge::new(i, i + 64));
        if i > 0 {
            bank.insert_edge(Edge::new(i - 1, i));
        }
    }
    let members: Vec<u32> = (0..64).collect();
    let mut scratch = bank.new_scratch();
    let merge_reps = 2000;
    let merge = best_of(merge_reps, || {
        let t0 = Instant::now();
        scratch.reset(0);
        let absorbed = bank.merge_copy_into(&members, &mut scratch);
        black_box((absorbed > 0).then(|| bank.sample_merged(&scratch)));
        t0.elapsed()
    });

    for (op, work, reps, best, units) in [
        (
            "update_stream_4k",
            "4096 inserts, n=4096, t=8",
            stream_reps,
            stream,
            4096.0,
        ),
        (
            "merged_copy",
            "64 members, n=1024, t=16",
            merge_reps,
            merge,
            64.0,
        ),
    ] {
        t.row(vec![
            op.into(),
            work.into(),
            reps.to_string(),
            f2(best.as_secs_f64() * 1e6),
            f2(best.as_secs_f64() * 1e9 / units),
        ]);
    }
    t
}

/// The shortest of `reps` runs of `timed`, which returns the span it
/// measured (so per-rep setup stays outside it).
fn best_of(reps: usize, mut timed: impl FnMut() -> Duration) -> Duration {
    (0..reps).map(|_| timed()).min().unwrap_or_default()
}

/// E11 — Lemmas 5.1/6.4: Euler-tour operations cost `O(1)` rounds at
/// every batch size, and the tours stay valid.
pub fn e11_etf_ops() -> Vec<Table> {
    let mut t = Table::new(
        "E11 (Lemma 5.1/6.4): Euler-tour batch operations",
        &[
            "n",
            "batch k",
            "join rounds",
            "split rounds",
            "single-join rounds",
            "valid",
        ],
    );
    for (n, k) in [(1024usize, 4usize), (1024, 16), (4096, 64), (4096, 256)] {
        let mut ctx = experiment_context(n, 0.5);
        let mut etf = DistEtf::new(n);
        let mut rng = StdRng::seed_from_u64(0xE11);
        // Pre-build k+1 disjoint path trees of equal length.
        let trees = k + 1;
        let seg_len = n / trees;
        assert!(seg_len >= 2, "need room for {trees} trees of ≥2 vertices");
        for ti in 0..trees {
            let base = (ti * seg_len) as u32;
            for j in 0..seg_len as u32 - 1 {
                etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
            }
        }
        // The measured batch chains tree i to tree i+1 at random
        // interior attachment points (a path-shaped auxiliary tree).
        let batch: Vec<Edge> = (0..k)
            .map(|i| {
                let a = (i * seg_len + rng.gen_range(0..seg_len)) as u32;
                let b = ((i + 1) * seg_len + rng.gen_range(0..seg_len)) as u32;
                Edge::new(a, b)
            })
            .collect();
        ctx.begin_phase("join");
        etf.batch_join(&batch, &mut ctx)
            .expect("batch fits one machine");
        let join_rounds = ctx.end_phase().rounds;
        validate(&etf).expect("valid after batch join");
        ctx.begin_phase("split");
        etf.batch_split(&batch, &mut ctx);
        let split_rounds = ctx.end_phase().rounds;
        validate(&etf).expect("valid after batch split");
        // Single-edge op for comparison.
        ctx.begin_phase("single");
        etf.batch_join(&batch[..1], &mut ctx)
            .expect("batch fits one machine");
        let single_rounds = ctx.end_phase().rounds;
        etf.batch_split(&batch[..1], &mut ctx);
        t.row(vec![
            n.to_string(),
            k.to_string(),
            join_rounds.to_string(),
            split_rounds.to_string(),
            single_rounds.to_string(),
            "yes".into(),
        ]);
    }
    vec![t, e11b_tour_scaling()]
}

/// E11b — per-tour sharded storage locality: the same batch
/// join+split (8 edges over 9 trees of 32 vertices) is timed while
/// the number of *unrelated* background tours grows. With `tour →
/// edge-shard` storage the warm per-op wall time stays flat (up to
/// the `O(log #tours)` shard-map lookups); the pre-shard layout
/// scanned every forest edge per operation and degraded linearly.
/// Wall-clock is host time (best of 50 warm repetitions), reported as
/// locality evidence for the simulator itself, not a model quantity.
fn e11b_tour_scaling() -> Table {
    let mut t = Table::new(
        "E11b (sharded ETF locality): batch join+split cost vs unrelated-forest size",
        &[
            "background tours",
            "forest edges",
            "join+split (µs, warm best-of-50)",
            "vs bg=0",
        ],
    );
    let (fg_trees, fg_seg, bg_seg) = (9usize, 32usize, 8usize);
    let mut base_us = 0.0f64;
    for bg in [0usize, 256, 1024, 4096] {
        let fg = fg_trees * fg_seg;
        let n = fg + bg * bg_seg;
        let mut ctx = experiment_context(n.max(4), 0.5);
        let mut etf = DistEtf::new(n);
        for ti in 0..fg_trees {
            let base = (ti * fg_seg) as u32;
            for j in 0..fg_seg as u32 - 1 {
                etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
            }
        }
        for ti in 0..bg {
            let base = (fg + ti * bg_seg) as u32;
            for j in 0..bg_seg as u32 - 1 {
                etf.join(Edge::new(base + j, base + j + 1), &mut ctx);
            }
        }
        let batch: Vec<Edge> = (0..fg_trees - 1)
            .map(|i| Edge::new((i * fg_seg) as u32, ((i + 1) * fg_seg) as u32))
            .collect();
        let best = best_of(50, || {
            let t0 = Instant::now();
            etf.batch_join(&batch, &mut ctx)
                .expect("batch fits one machine");
            etf.batch_split(&batch, &mut ctx);
            t0.elapsed()
        });
        validate(&etf).expect("valid after scaling op");
        let us = best.as_secs_f64() * 1e6;
        if bg == 0 {
            base_us = us;
        }
        t.row(vec![
            bg.to_string(),
            etf.edge_count().to_string(),
            f2(us),
            format!("{}x", f2(us / base_us)),
        ]);
    }
    t
}
