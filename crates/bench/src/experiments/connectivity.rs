//! Experiments E1–E3 and E12: the connectivity theorems.

use crate::table::{f2, Table};
use crate::{experiment_context, max_batch};
use mpc_baselines::{AgmBaseline, FullMemoryBaseline};
use mpc_graph::gen::{self, BatchStream};
use mpc_graph::ids::VertexId;
use mpc_graph::oracle;
use mpc_stream_core::{Connectivity, ConnectivityConfig, Maintain, QueryRequest};

/// Applies a stream, returning (mean rounds/batch, max rounds/batch,
/// mismatching batches against the oracle, ℓ0-sampler failures).
fn drive(
    conn: &mut Connectivity,
    ctx: &mut mpc_sim::MpcContext,
    stream: &BatchStream,
) -> (f64, u64, usize, u64) {
    let snaps = stream.replay();
    let mut total_rounds = 0u64;
    let mut max_rounds = 0u64;
    let mut mismatches = 0usize;
    for (batch, snap) in stream.batches.iter().zip(&snaps) {
        ctx.begin_phase("batch");
        conn.apply_batch(batch, ctx).expect("batch within model");
        let r = ctx.end_phase();
        total_rounds += r.rounds;
        max_rounds = max_rounds.max(r.rounds);
        let expect = oracle::components(stream.n, snap.edges());
        if conn.component_labels() != &expect[..] {
            mismatches += 1;
        }
    }
    (
        total_rounds as f64 / stream.batches.len() as f64,
        max_rounds,
        mismatches,
        conn.sampler_failure_count(),
    )
}

/// E1 — Theorem 1.1/6.7: rounds per batch are `O(1/φ)`, flat in
/// batch size, graph size, and workload shape.
pub fn e1_rounds_per_batch() -> Vec<Table> {
    let mut t = Table::new(
        "E1 (Thm 1.1/6.7): rounds per update batch — flat in n and batch size, ~1/φ",
        &[
            "workload",
            "n",
            "phi",
            "batch",
            "batches",
            "mean rounds",
            "max rounds",
            "oracle",
            "l0 fails",
        ],
    );
    let mut push = |workload: &str, n: usize, phi: f64, batch: usize, stream: &BatchStream| {
        let mut ctx = experiment_context(n, phi);
        assert!(batch <= max_batch(&ctx), "batch exceeds model limit");
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 0xE1);
        let (mean, max, miss, fails) = drive(&mut conn, &mut ctx, stream);
        t.row(vec![
            workload.into(),
            n.to_string(),
            phi.to_string(),
            batch.to_string(),
            stream.batches.len().to_string(),
            f2(mean),
            max.to_string(),
            if miss == 0 {
                "match".into()
            } else {
                format!("{miss} diverged")
            },
            fails.to_string(),
        ]);
    };
    // Batch-size sweep at fixed n, φ.
    for batch in [4usize, 16, 64] {
        let n = 1024;
        let stream = gen::random_mixed_stream(n, 10, batch, 0.65, 11);
        push("random-mixed", n, 0.5, batch, &stream);
    }
    // Graph-size sweep at fixed φ, batch.
    for n in [256usize, 1024, 4096] {
        let stream = gen::random_mixed_stream(n, 10, 16, 0.65, 12);
        push("random-mixed", n, 0.5, 16, &stream);
    }
    // φ sweep at fixed n, batch.
    for phi in [0.3f64, 0.5, 0.7] {
        let n = 1024;
        let stream = gen::random_mixed_stream(n, 10, 8, 0.65, 13);
        push("random-mixed", n, phi, 8, &stream);
    }
    // Workload shapes.
    let n = 1024;
    push("path+delete", n, 0.5, 32, &gen::path_stream(n, 32, true));
    push("star+delete", n, 0.5, 32, &gen::star_stream(n, 32, true));
    let ms = gen::merge_split_stream(16, 8, 4, 32, 14);
    push("merge-split", ms.n, 0.5, 16, &ms);
    vec![t]
}

/// E2 — Theorem 1.1: total memory stays `O(n log³ n)`, independent of
/// the number of live edges `m`.
pub fn e2_memory_vs_m() -> Vec<Table> {
    let n = 2048usize;
    let phi = 0.5;
    let log_n = 11u64;
    let bound = n as u64 * log_n * log_n * log_n;
    let mut t = Table::new(
        format!("E2 (Thm 1.1): total memory vs m at n = {n} (bound n·log³n = {bound} words)"),
        &[
            "m (live edges)",
            "ours (words)",
            "ours/bound",
            "Θ(n+m) baseline (words)",
            "baseline slope",
        ],
    );
    let target_m = 200_000usize;
    let stream = gen::densifying_stream(n, target_m, 128, 0xE2);
    let mut ctx = experiment_context(n, phi);
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 0xE2);
    let mut full = FullMemoryBaseline::new(n);
    let checkpoints = [2_000usize, 20_000, 60_000, 120_000, 200_000];
    let mut next_cp = 0;
    for batch in &stream.batches {
        conn.apply_batch(batch, &mut ctx).expect("within model");
        full.apply_batch(batch, &mut ctx).expect("within model");
        while next_cp < checkpoints.len() && conn.live_edge_count() >= checkpoints[next_cp] {
            let m = conn.live_edge_count();
            t.row(vec![
                m.to_string(),
                conn.words().to_string(),
                f2(conn.words() as f64 / bound as f64),
                full.words().to_string(),
                f2(full.words() as f64 / m as f64),
            ]);
            next_cp += 1;
        }
    }
    vec![t]
}

/// E2x — the extended-scale version of E2: at `n = 4096` the maximum
/// edge count (~8.4M) exceeds the sketch footprint, so the sweep
/// reaches the actual *crossover* where the paper's `Õ(n)` structure
/// becomes smaller than the `Θ(n+m)` baseline. Not part of `all`
/// (runs ~30 s); invoke with `-- e2x`.
pub fn e2x_memory_crossover() -> Vec<Table> {
    let n = 4096usize;
    let phi = 0.5;
    let mut t = Table::new(
        format!("E2x (Thm 1.1): memory crossover at n = {n} — ours flat, Θ(n+m) overtakes"),
        &[
            "m (live edges)",
            "ours (words)",
            "Θ(n+m) baseline (words)",
            "smaller",
        ],
    );
    let target_m = 4_600_000usize;
    let stream = gen::densifying_stream(n, target_m, 256, 0xE2A);
    let mut ctx = experiment_context(n, phi);
    let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 0xE2A);
    let mut full = FullMemoryBaseline::new(n);
    let checkpoints = [
        50_000usize,
        500_000,
        1_500_000,
        3_000_000,
        4_000_000,
        4_600_000,
    ];
    let mut next_cp = 0;
    for batch in &stream.batches {
        conn.apply_batch(batch, &mut ctx).expect("within model");
        full.apply_batch(batch, &mut ctx).expect("within model");
        while next_cp < checkpoints.len() && conn.live_edge_count() >= checkpoints[next_cp] {
            let m = conn.live_edge_count();
            let (ours, theirs) = (conn.words(), full.words());
            t.row(vec![
                m.to_string(),
                ours.to_string(),
                theirs.to_string(),
                if ours < theirs { "ours" } else { "baseline" }.into(),
            ]);
            next_cp += 1;
        }
    }
    vec![t]
}

/// E3 — Section 1.3/2.1 comparison: query rounds (ours O(1) vs AGM
/// Θ(log n)) and total memory (ours Õ(n) vs Θ(n+m)).
pub fn e3_baseline_comparison() -> Vec<Table> {
    let mut t = Table::new(
        "E3 (Sec 1.3/2.1): ours vs AGM-recompute vs Θ(n+m) dynamic baseline",
        &[
            "n",
            "workload",
            "ours query rounds",
            "AGM query rounds",
            "fullmem query rounds",
            "ours words",
            "fullmem words",
            "ours l0 fails",
            "AGM l0 fails",
        ],
    );
    for n in [256usize, 1024] {
        for (name, stream) in [
            ("path", gen::path_stream(n, 32, false)),
            ("random", gen::random_insert_stream(n, 8, 32, 3)),
        ] {
            let mut ctx = experiment_context(n, 0.5);
            let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 0xE3);
            let mut agm = AgmBaseline::new(n, 0xE3);
            let mut full = FullMemoryBaseline::new(n);
            for batch in &stream.batches {
                conn.apply_batch(batch, &mut ctx).expect("within model");
                agm.apply_batch(batch, &mut ctx).expect("within model");
                full.apply_batch(batch, &mut ctx).expect("within model");
            }
            // Query cost: one charged question through each
            // maintainer's query plane. Ours reads its maintained
            // labels; the baselines recompute theirs.
            let query = QueryRequest::Connected(0, n as VertexId - 1);
            let mut ask = |m: &mut dyn Maintain| {
                ctx.begin_phase(m.name());
                let answer = m.answer(&query, &mut ctx).expect("answers Connected");
                (answer.expect("endpoints in range"), ctx.end_phase().rounds)
            };
            let (ours, ours_q) = ask(&mut conn);
            let (agm_answer, agm_q) = ask(&mut agm);
            let (full_answer, full_q) = ask(&mut full);
            assert_eq!(agm_answer, full_answer, "baselines disagree");
            assert_eq!(ours, full_answer, "ours disagrees with the baselines");
            t.row(vec![
                n.to_string(),
                name.into(),
                ours_q.to_string(),
                agm_q.to_string(),
                full_q.to_string(),
                conn.words().to_string(),
                full.words().to_string(),
                conn.sampler_failure_count().to_string(),
                agm.sampler_failure_count().to_string(),
            ]);
        }
    }
    vec![t]
}

/// E12 — ablations: sketch copies `t` vs deletion-recovery quality,
/// and the batch-size-vs-rounds tradeoff against a per-batch AGM
/// recompute.
pub fn e12_ablation() -> Vec<Table> {
    // (a) sketch copies vs replacement-search success, on a ladder
    // workload where every deleted tree edge *does* have replacements
    // and the Borůvka cascade over the pieces has real depth (unlike
    // bridge cuts, which terminate at level zero).
    let mut ta = Table::new(
        "E12a (ablation, Sec 6.3): sketch copies t vs deletion-recovery correctness (ladder)",
        &["t (copies)", "batches", "diverged batches", "l0 fails"],
    );
    let ladder_stream = |seed_shift: u64| -> BatchStream {
        let half = 64u32;
        let n = 2 * half as usize;
        let mut build: Vec<mpc_graph::ids::Edge> = Vec::new();
        for i in 0..half - 1 {
            build.push(mpc_graph::ids::Edge::new(i, i + 1));
            build.push(mpc_graph::ids::Edge::new(half + i, half + i + 1));
        }
        for i in 0..half {
            build.push(mpc_graph::ids::Edge::new(i, half + i));
        }
        let mut batches: Vec<mpc_graph::update::Batch> = build
            .chunks(32)
            .map(|c| mpc_graph::update::Batch::inserting(c.iter().copied()))
            .collect();
        // Delete both rails over a window: the pieces must reconnect
        // through the rungs, forcing a deep replacement cascade.
        for start in [0u32, 16, 32, 48] {
            let victims: Vec<mpc_graph::ids::Edge> = (start..(start + 15).min(half - 2))
                .flat_map(|i| {
                    [
                        mpc_graph::ids::Edge::new(i, i + 1),
                        mpc_graph::ids::Edge::new(half + i, half + i + 1),
                    ]
                })
                .collect();
            batches.push(mpc_graph::update::Batch::deleting(victims));
        }
        let _ = seed_shift;
        BatchStream { n, batches }
    };
    for copies in [1usize, 2, 4, 8, 16] {
        let stream = ladder_stream(copies as u64);
        let n = stream.n;
        let mut ctx = experiment_context(n, 0.5);
        let mut conn = Connectivity::new(
            n,
            ConnectivityConfig {
                sketch_copies: Some(copies),
            },
            0xE12,
        );
        let (_, _, miss, fails) = drive(&mut conn, &mut ctx, &stream);
        ta.row(vec![
            copies.to_string(),
            stream.batches.len().to_string(),
            miss.to_string(),
            fails.to_string(),
        ]);
    }
    // (b) ours-per-batch vs recompute-per-batch rounds. The dynamic
    // algorithm pays O(1/φ) per batch regardless of structure; the
    // AGM recompute pays Θ(#Borůvka levels) per batch, which grows
    // with component diameter — so the comparison is run on
    // high-diameter (path-backbone) graphs at increasing n.
    let mut tb = Table::new(
        "E12b (ablation): per-batch rounds, maintained vs AGM recompute-every-batch (path workloads)",
        &["n", "batch size", "ours mean rounds", "recompute mean rounds"],
    );
    for n in [256usize, 1024, 4096] {
        let batch = 32usize;
        let stream = gen::path_stream(n, batch, true);
        let mut ctx = experiment_context(n, 0.5);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), 1);
        let (ours_mean, _, _, _) = drive(&mut conn, &mut ctx, &stream);
        let mut ctx2 = experiment_context(n, 0.5);
        let mut agm = AgmBaseline::new(n, 2);
        let mut total = 0u64;
        for b in &stream.batches {
            ctx2.begin_phase("agm");
            agm.apply_batch(b, &mut ctx2).expect("within model");
            let _ = agm.query_components(&mut ctx2);
            total += ctx2.end_phase().rounds;
        }
        tb.row(vec![
            n.to_string(),
            batch.to_string(),
            f2(ours_mean),
            f2(total as f64 / stream.batches.len() as f64),
        ]);
    }
    vec![ta, tb]
}
