//! Experiments E13–E15: the Section 9 / Section 1.2 extensions
//! (k-edge connectivity, adversarial robustness, vertex dynamics).
//!
//! These go beyond the paper's theorem set: E13 measures the sparse
//! `k`-edge-connectivity certificate (`mpc-kconn`), E14 the memory /
//! round cost of sketch switching against an adaptive adversary
//! (`RobustConnectivity`), and E15 the vertex-churn relaxation
//! (`VertexDynamicConnectivity`). All three quantify design points
//! the paper only names (Section 9 open directions; the Section 1.1
//! oblivious-adversary caveat; the Section 1.2 vertex-set
//! relaxation).

use crate::table::{f2, Table};
use crate::{experiment_context, max_batch};
use mpc_graph::cuts;
use mpc_graph::ids::Edge;
use mpc_graph::oracle;
use mpc_graph::update::Batch;
use mpc_hashing::rng::StdRng;
use mpc_kconn::{DynamicKConn, InsertOnlyKConn};
use mpc_stream_core::{
    Connectivity, ConnectivityConfig, RobustConnectivity, VertexDynamicConnectivity,
};

/// A random graph stream whose snapshots have known edge sets; used
/// to compare certificate cuts against the oracle.
fn random_edges(n: usize, p: f64, seed: u64) -> Vec<Edge> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for a in 0..n as u32 {
        for b in (a + 1)..n as u32 {
            if rng.gen_bool(p) {
                edges.push(Edge::new(a, b));
            }
        }
    }
    edges
}

/// E13 — Section 9 extension: `k`-edge-connectivity certificates.
///
/// Shape expectations: certificate size ≤ `k(n-1)` ≪ `m`; the
/// truncated cut value `min(λ, k)` matches the oracle on every
/// instance; insertion-only updates stay `O(1)` rounds while the
/// dynamic peeling query pays `Θ(k log n)` rounds.
pub fn e13_kconn() -> Vec<Table> {
    let mut cert_t = Table::new(
        "E13a (Sec 9 extension): sparse certificate — size <= k(n-1), cut exact up to k",
        &[
            "mode",
            "n",
            "m",
            "k",
            "cert edges",
            "k(n-1)",
            "min(λ_G,k)",
            "min(λ_cert,k)",
            "verdict",
        ],
    );
    for &(n, p) in &[(64usize, 0.15f64), (128, 0.08), (256, 0.05)] {
        for &k in &[1usize, 2, 4] {
            let edges = random_edges(n, p, 0xE13 + n as u64 + k as u64);
            let lambda_g = cuts::edge_connectivity(n, &edges).min(k as u64);

            // Insertion-only cascade.
            let mut ctx = experiment_context(n, 0.5);
            let mut io = InsertOnlyKConn::new(n, k);
            for chunk in edges.chunks(max_batch(&ctx).min(16)) {
                io.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
            }
            let cert = io.certificate();
            let lambda_c = cuts::edge_connectivity(n, &cert.edges()).min(k as u64);
            cert_t.row(vec![
                "insert-only".into(),
                n.to_string(),
                edges.len().to_string(),
                k.to_string(),
                cert.edge_count().to_string(),
                (k * (n - 1)).to_string(),
                lambda_g.to_string(),
                lambda_c.to_string(),
                if lambda_g == lambda_c {
                    "match".into()
                } else {
                    "DIVERGED".into()
                },
            ]);

            // Dynamic sketch peeling (same final graph, via a
            // delete-reinsert detour to exercise deletions).
            let mut ctx = experiment_context(n, 0.5);
            let mut dy = DynamicKConn::new(n, k, 0xD13 + k as u64);
            for chunk in edges.chunks(max_batch(&ctx)) {
                dy.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
            }
            let detour: Vec<Edge> = edges.iter().step_by(5).copied().collect();
            for chunk in detour.chunks(max_batch(&ctx)) {
                dy.apply_batch(&Batch::deleting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
                dy.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
            }
            let cert = dy.certificate(&mut ctx);
            let lambda_c = cuts::edge_connectivity(n, &cert.edges()).min(k as u64);
            cert_t.row(vec![
                "dynamic".into(),
                n.to_string(),
                edges.len().to_string(),
                k.to_string(),
                cert.edge_count().to_string(),
                (k * (n - 1)).to_string(),
                lambda_g.to_string(),
                lambda_c.to_string(),
                if lambda_g == lambda_c {
                    "match".into()
                } else {
                    "DIVERGED".into()
                },
            ]);
        }
    }

    // Round asymmetry: O(1)-round insert-only updates vs Θ(k log n)
    // dynamic queries — the measured form of the open problem.
    let mut rounds_t = Table::new(
        "E13b: update rounds stay flat; dynamic certificate queries pay Θ(k log n) rounds",
        &[
            "n",
            "k",
            "update rounds/batch (dyn)",
            "query rounds (dyn)",
            "update rounds/batch (ins-only)",
        ],
    );
    for &n in &[128usize, 512] {
        for &k in &[1usize, 2, 4] {
            let edges = random_edges(n, 0.05, 0xB13 + n as u64);
            let mut ctx = experiment_context(n, 0.5);
            let mut dy = DynamicKConn::new(n, k, 9);
            let mut upd_rounds = 0u64;
            let mut batches = 0u64;
            for chunk in edges.chunks(16) {
                ctx.begin_phase("update");
                dy.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
                upd_rounds += ctx.end_phase().rounds;
                batches += 1;
            }
            let _ = dy.certificate_mut(&mut ctx);
            let query_rounds = dy.last_query_rounds();

            let mut ctx2 = experiment_context(n, 0.5);
            let mut io = InsertOnlyKConn::new(n, k);
            let mut io_rounds = 0u64;
            let mut io_batches = 0u64;
            for chunk in edges.chunks(16) {
                ctx2.begin_phase("update");
                io.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx2)
                    .expect("batch within model");
                io_rounds += ctx2.end_phase().rounds;
                io_batches += 1;
            }
            rounds_t.row(vec![
                n.to_string(),
                k.to_string(),
                f2(upd_rounds as f64 / batches as f64),
                query_rounds.to_string(),
                f2(io_rounds as f64 / io_batches as f64),
            ]);
        }
    }

    // Memory: certificate words vs m (the sparsification factor).
    let mut mem_t = Table::new(
        "E13c: total words — insert-only O(k·n) state vs dynamic Õ(k·n) sketches vs m",
        &[
            "n",
            "m",
            "k",
            "ins-only words",
            "dynamic words",
            "2m (edge list)",
        ],
    );
    for &n in &[256usize] {
        for &k in &[2usize, 4] {
            let edges = random_edges(n, 0.25, 0xC13);
            let mut ctx = experiment_context(n, 0.5);
            let mut io = InsertOnlyKConn::new(n, k);
            for chunk in edges.chunks(16) {
                io.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
            }
            let mut dy = DynamicKConn::new(n, k, 3);
            for chunk in edges.chunks(max_batch(&ctx)) {
                dy.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                    .expect("batch within model");
            }
            mem_t.row(vec![
                n.to_string(),
                edges.len().to_string(),
                k.to_string(),
                io.words_model().to_string(),
                dy.words().to_string(),
                (2 * edges.len()).to_string(),
            ]);
        }
    }
    // Ablation: sketch copies per bank vs peel quality (mirrors the
    // E12a copies ablation for the core algorithm).
    let mut abl_t = Table::new(
        "E13d (ablation): sketch copies per bank vs dynamic-peel correctness (20 streams each)",
        &[
            "copies",
            "streams",
            "diverged (truncated cut)",
            "words/bank",
        ],
    );
    {
        let n = 48usize;
        let k = 2usize;
        for &copies in &[2usize, 4, 8, 12] {
            let mut diverged = 0usize;
            let mut words = 0u64;
            for trial in 0..20u64 {
                let edges = random_edges(n, 0.12, 0xAB13 + trial);
                let mut ctx = experiment_context(n, 0.5);
                let mut dy = DynamicKConn::with_copies(n, k, copies, trial * 7 + 1);
                for chunk in edges.chunks(max_batch(&ctx)) {
                    dy.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                        .expect("batch within model");
                }
                let cert = dy.certificate(&mut ctx);
                let lam_g = cuts::edge_connectivity(n, &edges).min(k as u64);
                let lam_c = cuts::edge_connectivity(n, &cert.edges()).min(k as u64);
                if lam_g != lam_c {
                    diverged += 1;
                }
                words = dy.words() / k as u64;
            }
            abl_t.row(vec![
                copies.to_string(),
                "20".into(),
                diverged.to_string(),
                words.to_string(),
            ]);
        }
    }
    vec![cert_t, rounds_t, mem_t, abl_t]
}

/// E16 — the paper's "pre-computation phase" (end of Section 1.1):
/// starting from an arbitrary existing graph costs one `O(log n)`-
/// round static bootstrap, against `Θ(m/batch · 1/φ)` rounds for
/// replaying the graph as a stream of batches.
///
/// Shape expectations: bootstrap rounds grow (poly)logarithmically
/// with `n` while replay rounds grow linearly in `m`; both paths end
/// in oracle-identical state.
pub fn e16_preprocessing() -> Vec<Table> {
    let mut t = Table::new(
        "E16 (Sec 1.1): bootstrap from an arbitrary graph vs replaying it as a stream",
        &[
            "structure",
            "n",
            "m",
            "bootstrap rounds",
            "replay rounds",
            "ratio",
            "state",
        ],
    );
    for &n in &[256usize, 1024] {
        let edges = random_edges(n, (4.0 * n as f64) / (n as f64 * (n as f64 - 1.0) / 2.0), 7);
        let m = edges.len();

        // Connectivity.
        let mut ctx = experiment_context(n, 0.5);
        ctx.begin_phase("bootstrap");
        let boot = Connectivity::from_graph(
            n,
            ConnectivityConfig::default(),
            0xE16,
            edges.iter().copied(),
            &mut ctx,
        )
        .expect("bootstrap");
        let boot_rounds = ctx.end_phase().rounds;
        let mut ctx2 = experiment_context(n, 0.5);
        let mut inc = Connectivity::new(n, ConnectivityConfig::default(), 0xE16);
        ctx2.begin_phase("replay");
        for chunk in edges.chunks(16) {
            inc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx2)
                .expect("replay");
        }
        let replay_rounds = ctx2.end_phase().rounds;
        let labels = oracle::components(n, edges.iter().copied());
        let ok = boot.component_labels() == &labels[..] && inc.component_labels() == &labels[..];
        t.row(vec![
            "connectivity".into(),
            n.to_string(),
            m.to_string(),
            boot_rounds.to_string(),
            replay_rounds.to_string(),
            f2(replay_rounds as f64 / boot_rounds.max(1) as f64),
            if ok {
                "oracle-exact".into()
            } else {
                "DIVERGED".into()
            },
        ]);

        // k-edge-connectivity sketches (k = 2): bootstrap is one
        // routing round; replay pays per batch.
        let mut ctx = experiment_context(n, 0.5);
        ctx.begin_phase("bootstrap");
        let kb = DynamicKConn::from_graph(n, 2, 0xE16, edges.iter().copied(), &mut ctx)
            .expect("bootstrap");
        let boot_rounds = ctx.end_phase().rounds;
        let mut ctx2 = experiment_context(n, 0.5);
        let mut ki = DynamicKConn::new(n, 2, 0xE16);
        ctx2.begin_phase("replay");
        for chunk in edges.chunks(16) {
            ki.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx2)
                .expect("batch within model");
        }
        let replay_rounds = ctx2.end_phase().rounds;
        // Same seed + same edge multiset → the linear sketches are
        // identical, so the peeled certificates must coincide.
        let ok = kb.certificate(&mut ctx).edges() == ki.certificate(&mut ctx2).edges();
        t.row(vec![
            "kconn (k=2)".into(),
            n.to_string(),
            m.to_string(),
            boot_rounds.to_string(),
            replay_rounds.to_string(),
            f2(replay_rounds as f64 / boot_rounds.max(1) as f64),
            if ok {
                "identical sketches".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }
    vec![t]
}

/// E14 — the cost of adversarial robustness (sketch switching).
///
/// Shape expectations: memory exactly `R×` the oblivious structure;
/// rounds per batch unchanged (instances run in parallel); the
/// adaptive delete-the-published-tree-edge pattern is survived for
/// exactly `R × budget` consuming batches and refused afterwards.
pub fn e14_robustness() -> Vec<Table> {
    let mut t = Table::new(
        "E14 (Sec 1.1 caveat): sketch switching — R× memory buys R×budget adaptive batches",
        &[
            "n",
            "R",
            "budget",
            "words (robust)",
            "words (oblivious)",
            "ratio",
            "adaptive batches survived",
            "oracle",
        ],
    );
    let n = 256usize;
    for &(r, budget) in &[(1usize, 2u64), (2, 2), (4, 2), (4, 4)] {
        let mut ctx = experiment_context(n, 0.5);
        let mut rc = RobustConnectivity::new(n, r, budget, ConnectivityConfig::default(), 0xE14);
        let mut base = Connectivity::new(n, ConnectivityConfig::default(), 0xE14);
        // Connected base graph: a cycle (every tree deletion has a
        // replacement, so the structure keeps answering).
        let cycle: Vec<Edge> = (0..n as u32)
            .map(|i| Edge::new(i, (i + 1) % n as u32))
            .collect();
        for chunk in cycle.chunks(max_batch(&ctx).min(16)) {
            rc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                .expect("insert");
            base.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                .expect("insert");
        }
        let mut live: Vec<Edge> = cycle.clone();
        // Adaptive pattern: always delete a published tree edge, then
        // re-insert it (keeps the graph fixed, burns exposure).
        let mut survived = 0u64;
        let mut ok = true;
        loop {
            let target = rc.spanning_forest()[0];
            if rc
                .apply_batch(&Batch::deleting([target]), &mut ctx)
                .is_err()
            {
                break;
            }
            live.retain(|e| *e != target);
            let labels = oracle::components(n, live.iter().copied());
            ok &= rc.component_labels() == &labels[..];
            survived += 1;
            rc.apply_batch(&Batch::inserting([target]), &mut ctx)
                .expect("reinsert");
            live.push(target);
            if survived > 10 * r as u64 * budget {
                break; // safety stop; should be unreachable
            }
        }
        t.row(vec![
            n.to_string(),
            r.to_string(),
            budget.to_string(),
            rc.words().to_string(),
            base.words().to_string(),
            f2(rc.words() as f64 / base.words() as f64),
            format!("{survived} (= R*budget = {})", r as u64 * budget),
            if ok {
                "match".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }
    vec![t]
}

/// E15 — Section 1.2 relaxation: vertex churn.
///
/// Shape expectations: correctness under interleaved vertex/edge
/// churn (checked against the oracle); memory pinned to the fixed
/// capacity (the paper's "the MPC machines stay the same"), not the
/// active count.
pub fn e15_vertex_churn() -> Vec<Table> {
    let mut t = Table::new(
        "E15 (Sec 1.2): vertex churn — capacity-pinned memory, oracle-exact connectivity",
        &[
            "capacity",
            "steps",
            "peak active",
            "final active",
            "words",
            "oracle",
        ],
    );
    for &cap in &[64usize, 256] {
        let mut ctx = experiment_context(cap, 0.5);
        let mut vd =
            VertexDynamicConnectivity::with_capacity(cap, ConnectivityConfig::default(), 0xE15);
        let mut rng = StdRng::seed_from_u64(cap as u64);
        let mut live: Vec<Edge> = Vec::new();
        let mut active: Vec<u32> = Vec::new();
        let mut peak = 0usize;
        let steps = 200usize;
        let mut ok = true;
        for _ in 0..steps {
            match rng.gen_range(0..5) {
                0 | 1 if vd.active_count() < cap => {
                    active.push(vd.add_vertex(&mut ctx).expect("capacity checked"));
                }
                2 if active.len() >= 2 => {
                    let a = active[rng.gen_range(0..active.len())];
                    let b = active[rng.gen_range(0..active.len())];
                    if a != b {
                        let e = Edge::new(a, b);
                        if !live.contains(&e) {
                            vd.apply_batch(&Batch::inserting([e]), &mut ctx)
                                .expect("insert");
                            live.push(e);
                        }
                    }
                }
                3 if !live.is_empty() => {
                    let e = live.swap_remove(rng.gen_range(0..live.len()));
                    vd.apply_batch(&Batch::deleting([e]), &mut ctx)
                        .expect("delete");
                }
                4 if !active.is_empty() => {
                    let i = rng.gen_range(0..active.len());
                    let v = active[i];
                    if live.iter().all(|e| !e.touches(v)) {
                        vd.remove_vertex(v, &mut ctx).expect("isolated");
                        active.swap_remove(i);
                    }
                }
                _ => {}
            }
            peak = peak.max(vd.active_count());
            let labels = oracle::components(cap, live.iter().copied());
            for w in active.windows(2) {
                ok &= vd.connected(w[0], w[1]).expect("active")
                    == (labels[w[0] as usize] == labels[w[1] as usize]);
            }
        }
        t.row(vec![
            cap.to_string(),
            steps.to_string(),
            peak.to_string(),
            vd.active_count().to_string(),
            vd.words().to_string(),
            if ok {
                "match".into()
            } else {
                "DIVERGED".into()
            },
        ]);
    }
    vec![t]
}
