//! Golden digests of every multi-supernode Borůvka cascade's output.
//!
//! Four cascades run the same level loop — `Connectivity::from_graph`,
//! `Connectivity::apply_batch`'s replacement search,
//! `AgmBaseline::query_components` and `DynamicKConn::certificate` —
//! and each is driven here over a fixed set of small graphs drawn from
//! the bare SplitMix64 step (`hashing::rng::splitmix64`, not `StdRng`,
//! so neither a sampler nor a graph-generator edit can move them):
//! random graphs sparse enough to leave isolated
//! vertices, and two cliques joined by bridges. Copy counts go down
//! to 3, so cascades that run dry are pinned as well as certified
//! ones. Everything the cascade decides — labels, forests, layer
//! edges, sampler failures, rounds and words — is folded with FNV-1a.
//!
//! The constants were recorded on the commit *before* the four loops
//! became callers of `mpc_sketch::cascade` (PR 26); they pin that
//! refactor, and any later one, to identical answers and ledgers.

use mpc_stream::hashing::rng::splitmix64;
use mpc_stream::prelude::*;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SEEDS: u64 = 24;

/// Uniform in `0..bound` (modulo bias is irrelevant here).
fn below(state: &mut u64, bound: usize) -> usize {
    (splitmix64(state) % bound as u64) as usize
}

fn fold(digest: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

fn fold_edges(digest: &mut u64, edges: &[Edge]) {
    fold(digest, edges.len() as u64);
    for e in edges {
        fold(digest, (u64::from(e.u()) << 32) | u64::from(e.v()));
    }
}

fn fold_labels(digest: &mut u64, labels: &[VertexId]) {
    fold(digest, labels.len() as u64);
    for &l in labels {
        fold(digest, u64::from(l));
    }
}

fn fold_ledger(digest: &mut u64, ctx: &MpcContext) {
    fold(digest, ctx.stats().rounds);
    fold(digest, ctx.stats().words_communicated);
}

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

/// `G(n, p)` with `p = per_mille / 1000`, edges in generation order.
fn random_graph(n: u32, per_mille: usize, rng: &mut u64) -> Vec<Edge> {
    let mut edges = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            if below(rng, 1000) < per_mille {
                edges.push(Edge::new(a, b));
            }
        }
    }
    edges
}

/// Two `K_s` on `0..s` and `s..2s`, joined by the bridges `i – s+i`
/// for `i < bridges`.
fn two_cliques(s: u32, bridges: u32) -> Vec<Edge> {
    let clique = |base: u32| {
        (0..s).flat_map(move |a| (a + 1..s).map(move |b| Edge::new(base + a, base + b)))
    };
    clique(0)
        .chain(clique(s))
        .chain((0..bridges).map(|i| Edge::new(i, s + i)))
        .collect()
}

/// The graph set of one seed: `(n, edges)`.
fn graphs(seed: u64) -> Vec<(usize, Vec<Edge>)> {
    let mut rng = seed ^ 0xCA5C_ADE0;
    vec![
        (32, random_graph(32, 70, &mut rng)),
        (24, random_graph(24, 250, &mut rng)),
        (16, two_cliques(8, 1)),
        (16, two_cliques(8, 3)),
        (12, two_cliques(6, 6)),
    ]
}

/// Every `step`-th edge, starting at `offset`.
fn every(edges: &[Edge], step: usize, offset: usize) -> Vec<Edge> {
    edges.iter().copied().skip(offset).step_by(step).collect()
}

#[test]
fn from_graph_digest_is_pinned() {
    let mut d = FNV_OFFSET;
    for seed in 0..SEEDS {
        for (n, edges) in graphs(seed) {
            for copies in [Some(3), Some(5), None] {
                let mut ctx = ctx_for(n);
                let cfg = ConnectivityConfig {
                    sketch_copies: copies,
                };
                let conn = Connectivity::from_graph(n, cfg, seed, edges.iter().copied(), &mut ctx)
                    .expect("simple graph in range");
                fold_labels(&mut d, conn.component_labels());
                fold_edges(&mut d, &conn.spanning_forest());
                fold(&mut d, conn.sampler_failure_count());
                fold_ledger(&mut d, &ctx);
            }
        }
    }
    assert_eq!(
        d, 0x5d8b_a943_4281_b515,
        "from_graph digest moved: {d:#018x}"
    );
}

#[test]
fn agm_query_digest_is_pinned() {
    let mut d = FNV_OFFSET;
    for seed in 0..SEEDS {
        for (n, edges) in graphs(seed) {
            let mut ctx = ctx_for(n);
            let mut agm = AgmBaseline::new(n, seed);
            agm.apply_batch(&Batch::inserting(edges.iter().copied()), &mut ctx)
                .expect("valid stream");
            fold_labels(&mut d, &agm.query_components(&mut ctx));
            fold(&mut d, agm.last_query_rounds());
            agm.apply_batch(&Batch::deleting(every(&edges, 3, 1)), &mut ctx)
                .expect("live edges");
            fold_labels(&mut d, &agm.query_components(&mut ctx));
            fold(&mut d, agm.last_query_rounds());
            fold(&mut d, agm.sampler_failure_count());
            fold_ledger(&mut d, &ctx);
        }
    }
    assert_eq!(
        d, 0x747d_de34_d5ee_4e27,
        "AGM query digest moved: {d:#018x}"
    );
}

#[test]
fn kconn_certificate_digest_is_pinned() {
    let mut d = FNV_OFFSET;
    for seed in 0..SEEDS {
        for (n, edges) in graphs(seed) {
            for (k, copies) in [(2, 3), (3, 6)] {
                let mut ctx = ctx_for(n);
                let mut kc = DynamicKConn::with_copies(n, k, copies, seed);
                kc.apply_batch(&Batch::inserting(edges.iter().copied()), &mut ctx)
                    .expect("valid stream");
                for round in 0..2 {
                    let cert = kc.certificate_mut(&mut ctx);
                    for layer in cert.layers() {
                        fold_edges(&mut d, layer);
                    }
                    fold(&mut d, kc.last_query_rounds());
                    fold_ledger(&mut d, &ctx);
                    if round == 0 {
                        kc.apply_batch(&Batch::deleting(every(&edges, 4, 2)), &mut ctx)
                            .expect("live edges");
                    }
                }
            }
        }
    }
    assert_eq!(
        d, 0xfd44_6934_5fa7_97e1,
        "kconn certificate digest moved: {d:#018x}"
    );
}

/// Four `K_6`s in a chain, consecutive ones joined by two bridges,
/// then batches that cut spanning-forest edges (bridges among them),
/// drop non-tree edges, and insert fresh or previously cut edges —
/// every batch runs the replacement search.
#[test]
fn apply_batch_replacement_digest_is_pinned() {
    let mut d = FNV_OFFSET;
    let n = 24u32;
    for seed in 0..SEEDS {
        for copies in [Some(8), None] {
            let mut rng = seed.wrapping_mul(0x9E37) ^ 0x00B4_1D6E;
            let mut live: Vec<Edge> = Vec::new();
            for c in 0..4 {
                let base = 6 * c;
                for a in 0..6 {
                    for b in a + 1..6 {
                        live.push(Edge::new(base + a, base + b));
                    }
                }
                if c > 0 {
                    live.push(Edge::new(base - 1, base));
                    live.push(Edge::new(base - 6, base + 5));
                }
            }
            let mut ctx = ctx_for(n as usize);
            let cfg = ConnectivityConfig {
                sketch_copies: copies,
            };
            let mut conn = Connectivity::new(n as usize, cfg, seed);
            conn.apply_batch(&Batch::inserting(live.iter().copied()), &mut ctx)
                .expect("valid batch");
            let mut cut: Vec<Edge> = Vec::new();
            for _ in 0..12 {
                let forest = conn.spanning_forest();
                let mut del: Vec<Edge> = Vec::new();
                for _ in 0..4 {
                    let e = forest[below(&mut rng, forest.len())];
                    if !del.contains(&e) {
                        del.push(e);
                    }
                }
                for _ in 0..2 {
                    let e = live[below(&mut rng, live.len())];
                    if !del.contains(&e) {
                        del.push(e);
                    }
                }
                let mut ins: Vec<Edge> = Vec::new();
                if !cut.is_empty() {
                    ins.push(cut.swap_remove(below(&mut rng, cut.len())));
                }
                for _ in 0..2 {
                    let (a, b) = (
                        below(&mut rng, n as usize) as u32,
                        below(&mut rng, n as usize) as u32,
                    );
                    if a == b {
                        continue;
                    }
                    let e = Edge::new(a, b);
                    if !live.contains(&e) && !ins.contains(&e) {
                        ins.push(e);
                    }
                }
                live.retain(|e| !del.contains(e));
                live.extend(ins.iter().copied());
                cut.extend(del.iter().copied().filter(|e| !ins.contains(e)));
                cut.retain(|e| !live.contains(e));
                let batch = Batch::from_updates(
                    del.iter()
                        .map(|&e| Update::Delete(e))
                        .chain(ins.iter().map(|&e| Update::Insert(e)))
                        .collect(),
                );
                conn.apply_batch(&batch, &mut ctx).expect("valid batch");
                fold_labels(&mut d, conn.component_labels());
                fold_edges(&mut d, &conn.spanning_forest());
                fold(&mut d, conn.sampler_failure_count());
                fold_ledger(&mut d, &ctx);
            }
        }
    }
    assert_eq!(
        d, 0xcbca_6c4c_87ec_727e,
        "apply_batch digest moved: {d:#018x}"
    );
}

/// `ExactMsf` over weighted insert streams on few vertices: once the
/// early batches connect them, most candidates close a cycle, so every
/// batch mixes cross-component joins with intra-component candidates,
/// and the lighter of those swap out a forest edge. Per batch the
/// rounds, words, forest weight, labels and persisted bytes are folded.
///
/// The constant was recorded on the commit before the join step and the
/// label rule moved into `mpc-etf`.
#[test]
fn exact_msf_digest_is_pinned() {
    use mpc_stream::snapshot::SnapshotWriter;
    let mut d = FNV_OFFSET;
    let mut swaps = 0;
    for seed in 0..SEEDS {
        for n in [12usize, 20] {
            let mut rng = seed.wrapping_mul(0x5EED) ^ 0x0E5A_C7F5;
            let mut ctx = ctx_for(n);
            let mut msf = ExactMsf::new(n);
            let mut seen: Vec<Edge> = Vec::new();
            for _ in 0..10 {
                let mut batch: Vec<WeightedEdge> = Vec::new();
                for _ in 0..1 + below(&mut rng, 8) {
                    let (a, b) = (below(&mut rng, n) as u32, below(&mut rng, n) as u32);
                    if a == b || seen.contains(&Edge::new(a, b)) {
                        continue;
                    }
                    let e = Edge::new(a, b);
                    seen.push(e);
                    let weight = 1 + below(&mut rng, 40) as u64;
                    batch.push(WeightedEdge::new(e.u(), e.v(), weight));
                }
                msf.apply_batch(&WeightedBatch::inserting(batch), &mut ctx)
                    .expect("fresh edges in range");
                fold_ledger(&mut d, &ctx);
                fold(&mut d, msf.weight());
                fold(&mut d, msf.last_iterations() as u64);
                swaps += usize::from(msf.last_iterations() > 1);
                let labels: Vec<VertexId> = (0..n as u32).map(|v| msf.component_of(v)).collect();
                fold_labels(&mut d, &labels);
                let mut w = SnapshotWriter::new(0);
                w.begin_section("state");
                msf.save_state(&mut w);
                w.end_section();
                let bytes = w.finish();
                fold(&mut d, bytes.len() as u64);
                for &b in &bytes {
                    fold(&mut d, u64::from(b));
                }
            }
        }
    }
    assert!(swaps > 0, "no batch swapped a forest edge");
    assert_eq!(
        d, 0xdd61_ec6f_d210_d6b1,
        "ExactMsf digest moved: {d:#018x} ({swaps} swapping batches)"
    );
}
