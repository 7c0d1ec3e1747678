//! Experiments E10–E11: substrate microbenchmarks (Lemma 3.1 sketch
//! quality; Lemma 5.1/6.4 Euler-tour operation costs).

use crate::experiment_context;
use crate::table::{f2, Table};
use mpc_etf::tour::validate;
use mpc_etf::DistEtf;
use mpc_graph::ids::Edge;
use mpc_sketch::l0::{L0Sampler, SampleOutcome};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
    vec![t]
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
        let mut best = std::time::Duration::MAX;
        for _ in 0..50 {
            let t0 = std::time::Instant::now();
            etf.batch_join(&batch, &mut ctx)
                .expect("batch fits one machine");
            etf.batch_split(&batch, &mut ctx);
            best = best.min(t0.elapsed());
        }
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
