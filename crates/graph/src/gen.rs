//! Seeded workload generators.
//!
//! Each generator produces the batch streams used by `mpc-bench`'s
//! experiments E1–E16. All are deterministic functions of an
//! explicit `u64` seed and model an **oblivious adversary** — batches
//! are fixed up front and never depend on the algorithm's answers,
//! matching the paper's adversary model (Section 1.2).

use crate::dynamic::DynamicGraph;
use crate::ids::{Edge, WeightedEdge};
use crate::update::{Batch, Update, WeightedBatch, WeightedUpdate};
use mpc_hashing::rng::StdRng;
use std::collections::BTreeSet;

/// A reproducible stream of update batches plus the ground-truth live
/// graph after each batch.
#[derive(Debug, Clone)]
pub struct BatchStream {
    /// Number of vertices.
    pub n: usize,
    /// Batches in arrival order.
    pub batches: Vec<Batch>,
}

impl BatchStream {
    /// Replays the stream on a [`DynamicGraph`], returning the live
    /// graph after every batch. Panics if the stream is invalid —
    /// generators in this module always produce valid streams.
    pub fn replay(&self) -> Vec<DynamicGraph> {
        let mut g = DynamicGraph::new(self.n);
        let mut snapshots = Vec::with_capacity(self.batches.len());
        for b in &self.batches {
            #[expect(
                clippy::expect_used,
                reason = "the generators emit valid streams by construction"
            )]
            g.apply(b).expect("generated stream must be valid");
            snapshots.push(g.clone());
        }
        snapshots
    }

    /// Total number of updates across all batches.
    pub fn update_count(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }
}

/// A reproducible stream of weighted update batches.
#[derive(Debug, Clone)]
pub struct WeightedBatchStream {
    /// Number of vertices.
    pub n: usize,
    /// Batches in arrival order.
    pub batches: Vec<WeightedBatch>,
}

fn random_absent_edge(rng: &mut StdRng, n: usize, live: &BTreeSet<Edge>) -> Option<Edge> {
    let max_edges = n * (n - 1) / 2;
    if live.len() >= max_edges {
        return None;
    }
    loop {
        let a = rng.gen_range(0..n as u32);
        let b = rng.gen_range(0..n as u32);
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if !live.contains(&e) {
            return Some(e);
        }
    }
}

/// Uniformly random mixed insert/delete stream: each update is an
/// insertion of a random absent edge with probability `p_insert`
/// (or forced when the graph is empty), otherwise a deletion of a
/// random live edge. The workhorse workload of experiment E1.
pub fn random_mixed_stream(
    n: usize,
    batches: usize,
    batch_size: usize,
    p_insert: f64,
    seed: u64,
) -> BatchStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = Batch::new();
        for _ in 0..batch_size {
            let insert = live.is_empty() || rng.gen_bool(p_insert);
            if insert {
                if let Some(e) = random_absent_edge(&mut rng, n, &live) {
                    live.insert(e);
                    batch.push(Update::Insert(e));
                }
            } else {
                let k = rng.gen_range(0..live.len());
                #[expect(clippy::expect_used, reason = "k < live.len(), drawn just above")]
                let e = *live.iter().nth(k).expect("index in range");
                live.remove(&e);
                batch.push(Update::Delete(e));
            }
        }
        out.push(batch);
    }
    BatchStream { n, batches: out }
}

/// Insertion-only stream of `batches * batch_size` random edges.
pub fn random_insert_stream(n: usize, batches: usize, batch_size: usize, seed: u64) -> BatchStream {
    random_mixed_stream(n, batches, batch_size, 1.0, seed)
}

/// Builds a path 0-1-2-…-(n-1) in batches, then (optionally) deletes
/// every other path edge. Paths maximize spanning-forest depth, the
/// worst case for Euler-tour maintenance.
pub fn path_stream(n: usize, batch_size: usize, delete_phase: bool) -> BatchStream {
    let mut out = Vec::new();
    let edges: Vec<Edge> = (0..n as u32 - 1).map(|i| Edge::new(i, i + 1)).collect();
    for chunk in edges.chunks(batch_size) {
        out.push(Batch::inserting(chunk.iter().copied()));
    }
    if delete_phase {
        let victims: Vec<Edge> = edges.iter().copied().step_by(2).collect();
        for chunk in victims.chunks(batch_size) {
            out.push(Batch::deleting(chunk.iter().copied()));
        }
    }
    BatchStream { n, batches: out }
}

/// Builds a star centered at vertex 0, then (optionally) deletes all
/// spokes. Stars maximize vertex degree, the worst case for
/// vertex-incidence sharding.
pub fn star_stream(n: usize, batch_size: usize, delete_phase: bool) -> BatchStream {
    let mut out = Vec::new();
    let edges: Vec<Edge> = (1..n as u32).map(|i| Edge::new(0, i)).collect();
    for chunk in edges.chunks(batch_size) {
        out.push(Batch::inserting(chunk.iter().copied()));
    }
    if delete_phase {
        for chunk in edges.chunks(batch_size) {
            out.push(Batch::deleting(chunk.iter().copied()));
        }
    }
    BatchStream { n, batches: out }
}

/// Component churn: builds `k` disjoint cliques of size `c`, then
/// alternates batches that bridge all cliques into one component and
/// batches that cut all bridges again. This exercises the
/// replacement-edge search of Section 6.3 heavily: every bridge
/// deletion splits a component and the sketches must certify there is
/// no replacement.
#[expect(
    clippy::disallowed_macros,
    reason = "a generator parameter outside its range is a caller bug"
)]
pub fn merge_split_stream(
    k: usize,
    c: usize,
    rounds: usize,
    build_batch: usize,
    seed: u64,
) -> BatchStream {
    assert!(c >= 2, "cliques need at least 2 vertices");
    assert!(build_batch >= 1, "build batches must be nonempty");
    let n = k * c;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::new();
    // Build the cliques, chunked so no batch exceeds the model's
    // batch-size limit.
    let mut clique_edges = Vec::new();
    for g in 0..k {
        let base = (g * c) as u32;
        for a in 0..c as u32 {
            for b in (a + 1)..c as u32 {
                clique_edges.push(Edge::new(base + a, base + b));
            }
        }
    }
    for chunk in clique_edges.chunks(build_batch) {
        out.push(Batch::inserting(chunk.iter().copied()));
    }
    for _ in 0..rounds {
        // Bridge clique i to clique i+1 with a random edge.
        let bridges: Vec<Edge> = (0..k - 1)
            .map(|g| {
                let a = (g * c) as u32 + rng.gen_range(0..c as u32);
                let b = ((g + 1) * c) as u32 + rng.gen_range(0..c as u32);
                Edge::new(a, b)
            })
            .collect();
        out.push(Batch::inserting(bridges.iter().copied()));
        out.push(Batch::deleting(bridges));
    }
    BatchStream { n, batches: out }
}

/// Densifying insertion-only stream: keeps inserting random edges so
/// `m` grows from 0 to `target_m`. Used by experiment E2 to show the
/// algorithm's total memory does **not** grow with `m`.
pub fn densifying_stream(n: usize, target_m: usize, batch_size: usize, seed: u64) -> BatchStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live = BTreeSet::new();
    let mut out = Vec::new();
    while live.len() < target_m {
        let mut batch = Batch::new();
        for _ in 0..batch_size {
            if live.len() >= target_m {
                break;
            }
            if let Some(e) = random_absent_edge(&mut rng, n, &live) {
                live.insert(e);
                batch.push(Update::Insert(e));
            } else {
                break;
            }
        }
        if batch.is_empty() {
            break;
        }
        out.push(batch);
    }
    BatchStream { n, batches: out }
}

/// Preferential-attachment insertion stream (Barabási–Albert-style):
/// each new vertex attaches to `attach` existing vertices chosen with
/// probability proportional to their degree (via the repeated-endpoint
/// trick). Produces the heavy-tailed degree distributions of real
/// social graphs; used by the workload sweeps as the "realistic"
/// shape alongside paths, stars, and G(n,m).
#[expect(
    clippy::disallowed_macros,
    reason = "a generator parameter outside its range is a caller bug"
)]
pub fn preferential_attachment_stream(
    n: usize,
    attach: usize,
    batch_size: usize,
    seed: u64,
) -> BatchStream {
    assert!(n >= 2 && attach >= 1, "need n ≥ 2 and attach ≥ 1");
    let mut rng = StdRng::seed_from_u64(seed);
    // endpoint pool: every endpoint of every edge (degree-weighted).
    let mut pool: Vec<u32> = vec![0, 1];
    let mut edges: Vec<Edge> = vec![Edge::new(0, 1)];
    let mut live: BTreeSet<Edge> = edges.iter().copied().collect();
    for v in 2..n as u32 {
        let mut targets = BTreeSet::new();
        let mut attempts = 0;
        while targets.len() < attach.min(v as usize) && attempts < 100 {
            attempts += 1;
            let t = pool[rng.gen_range(0..pool.len())];
            if t != v {
                targets.insert(t);
            }
        }
        for t in targets {
            let e = Edge::new(v, t);
            if live.insert(e) {
                edges.push(e);
                pool.push(v);
                pool.push(t);
            }
        }
    }
    let batches = edges
        .chunks(batch_size)
        .map(|c| Batch::inserting(c.iter().copied()))
        .collect();
    BatchStream { n, batches }
}

/// Random weighted mixed stream with weights uniform in
/// `[1, max_weight]`. Deletions replay the live weight, as the model
/// requires.
pub fn random_weighted_stream(
    n: usize,
    batches: usize,
    batch_size: usize,
    p_insert: f64,
    max_weight: u64,
    seed: u64,
) -> WeightedBatchStream {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let mut weights: std::collections::BTreeMap<Edge, u64> = Default::default();
    let mut out = Vec::with_capacity(batches);
    for _ in 0..batches {
        let mut batch = WeightedBatch::new();
        for _ in 0..batch_size {
            let insert = live.is_empty() || rng.gen_bool(p_insert);
            if insert {
                if let Some(e) = random_absent_edge(&mut rng, n, &live) {
                    let w = rng.gen_range(1..=max_weight);
                    live.insert(e);
                    weights.insert(e, w);
                    batch.push(WeightedUpdate::Insert(WeightedEdge { edge: e, weight: w }));
                }
            } else {
                let k = rng.gen_range(0..live.len());
                #[expect(clippy::expect_used, reason = "k < live.len(), drawn just above")]
                let e = *live.iter().nth(k).expect("index in range");
                live.remove(&e);
                #[expect(clippy::expect_used, reason = "every live edge has a tracked weight")]
                let w = weights.remove(&e).expect("weight tracked");
                batch.push(WeightedUpdate::Delete(WeightedEdge { edge: e, weight: w }));
            }
        }
        out.push(batch);
    }
    WeightedBatchStream { n, batches: out }
}

/// Insertion-only weighted stream.
pub fn random_weighted_insert_stream(
    n: usize,
    batches: usize,
    batch_size: usize,
    max_weight: u64,
    seed: u64,
) -> WeightedBatchStream {
    random_weighted_stream(n, batches, batch_size, 1.0, max_weight, seed)
}

/// A bipartite stream that stays two-colorable, with optional batches
/// that inject and later remove an odd cycle (experiment E6): returns
/// the stream and the index of the first batch after which the graph
/// is non-bipartite (if an odd cycle was injected).
pub fn bipartite_stream_with_violation(
    n: usize,
    batches: usize,
    batch_size: usize,
    inject_at: Option<usize>,
    seed: u64,
) -> (BatchStream, Option<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let half = n / 2;
    let mut live = BTreeSet::new();
    let mut out = Vec::new();
    let mut violation_edge: Option<Edge> = None;
    let mut violation_window = None;
    for bi in 0..batches {
        let mut batch = Batch::new();
        if Some(bi) == inject_at {
            // Close an odd cycle: edge inside the left side between two
            // vertices already connected through the right side.
            let a = 0u32;
            let b = 1u32;
            // Ensure connectivity a-right-b exists.
            for e in [Edge::new(a, half as u32), Edge::new(b, half as u32)] {
                if live.insert(e) {
                    batch.push(Update::Insert(e));
                }
            }
            let bad = Edge::new(a, b);
            if live.insert(bad) {
                batch.push(Update::Insert(bad));
                violation_edge = Some(bad);
            }
        } else if violation_edge.is_some() && bi == inject_at.unwrap_or(usize::MAX) + 2 {
            #[expect(
                clippy::expect_used,
                reason = "guarded by violation_edge.is_some() in the branch condition"
            )]
            let bad = violation_edge.take().expect("violation edge present");
            live.remove(&bad);
            batch.push(Update::Delete(bad));
            #[expect(
                clippy::expect_used,
                reason = "violation_edge is only set in the inject_at batch"
            )]
            let at = inject_at.expect("inject_at set");
            violation_window = Some((at, bi));
        }
        while batch.len() < batch_size {
            let a = rng.gen_range(0..half as u32);
            let b = rng.gen_range(half as u32..n as u32);
            let e = Edge::new(a, b);
            if live.insert(e) {
                batch.push(Update::Insert(e));
            } else {
                break;
            }
        }
        out.push(batch);
    }
    (BatchStream { n, batches: out }, violation_window)
}

/// Planted-matching stream: inserts a perfect matching on `2k`
/// vertices (so `OPT = k` exactly) shuffled among `noise` extra random
/// edges incident to the matched vertices only from one side, keeping
/// OPT known. Used by the matching-estimation experiment E9.
pub fn planted_matching_stream(
    k: usize,
    noise: usize,
    batch_size: usize,
    seed: u64,
) -> (BatchStream, usize) {
    let n = 2 * k + k; // 2k matched vertices + k isolated "noise sinks"
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<Edge> = (0..k as u32).map(|i| Edge::new(2 * i, 2 * i + 1)).collect();
    let mut live: BTreeSet<Edge> = edges.iter().copied().collect();
    // Noise edges from even (left) matched vertices to noise sinks;
    // these can enlarge a matching only by re-routing, never beyond
    // k + (pairs among sinks = 0)… they keep OPT between k and k
    // because sinks attach only to left vertices of the planted
    // matching: any matching matches ≤ k left vertices.
    let mut added = 0;
    while added < noise {
        let left = 2 * rng.gen_range(0..k as u32);
        let sink = (2 * k + rng.gen_range(0..k)) as u32;
        let e = Edge::new(left, sink);
        if live.insert(e) {
            edges.push(e);
            added += 1;
        } else if live.len() >= k + k * k {
            break;
        }
    }
    rng.shuffle(&mut edges);
    let batches = edges
        .chunks(batch_size)
        .map(|c| Batch::inserting(c.iter().copied()))
        .collect();
    (BatchStream { n, batches }, k)
}

/// Circulant insertion stream: vertex `i` links to `i ± j` (mod `n`)
/// for every jump `j` in `jumps`. With distinct jumps
/// `0 < j₁ < … < j_d < n/2` the graph is `2d`-regular and
/// `2d`-edge-connected — a known-connectivity workload for the
/// k-edge-connectivity experiments (E13).
///
/// # Panics
///
/// Panics if a jump is `0` or `≥ n/2` (which would create duplicate
/// or self-loop edges), or if `batch_size == 0`.
#[expect(
    clippy::disallowed_macros,
    reason = "documented \"# Panics\" precondition — a jump that would repeat an edge or close a self-loop is a caller bug"
)]
pub fn circulant_stream(n: usize, jumps: &[usize], batch_size: usize, seed: u64) -> BatchStream {
    assert!(batch_size >= 1, "batches must be nonempty");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let mut seen = BTreeSet::new();
    for &j in jumps {
        assert!(j >= 1 && 2 * j < n, "jump {j} invalid for n = {n}");
        for i in 0..n as u32 {
            let e = Edge::new(i, ((i as usize + j) % n) as u32);
            if seen.insert(e) {
                edges.push(e);
            }
        }
    }
    rng.shuffle(&mut edges);
    let batches = edges
        .chunks(batch_size)
        .map(|c| Batch::inserting(c.iter().copied()))
        .collect();
    BatchStream { n, batches }
}

/// Barbell stream: two `c`-cliques joined by a path of `p` fresh
/// vertices, then (optionally) a delete phase removing the path —
/// a workload with known bridges (every path edge) and min cut 1,
/// stressing the cut-sensitive algorithms (E13, bipartiteness, MSF
/// replacement search).
///
/// Vertices `0..c` form the left clique, `c..2c` the right, and
/// `2c..2c+p` the path; the path runs left-clique → path vertices →
/// right-clique, so there are `p + 1` bridge edges.
///
/// # Panics
///
/// Panics if `c < 2` or `batch_size == 0`.
#[expect(
    clippy::disallowed_macros,
    reason = "documented \"# Panics\" precondition — a clique needs two vertices and a batch one update"
)]
pub fn barbell_stream(c: usize, p: usize, batch_size: usize, delete_phase: bool) -> BatchStream {
    assert!(c >= 2, "cliques need at least 2 vertices");
    assert!(batch_size >= 1, "batches must be nonempty");
    let n = 2 * c + p;
    let mut clique_edges = Vec::new();
    for base in [0u32, c as u32] {
        for a in 0..c as u32 {
            for b in (a + 1)..c as u32 {
                clique_edges.push(Edge::new(base + a, base + b));
            }
        }
    }
    // The connecting path: clique-0 vertex 0 → path → clique-1 vertex c.
    let mut path_edges = Vec::new();
    let mut prev = 0u32;
    for i in 0..p as u32 {
        path_edges.push(Edge::new(prev, 2 * c as u32 + i));
        prev = 2 * c as u32 + i;
    }
    path_edges.push(Edge::new(prev, c as u32));
    let mut batches: Vec<Batch> = clique_edges
        .chunks(batch_size)
        .map(|ch| Batch::inserting(ch.iter().copied()))
        .collect();
    batches.extend(
        path_edges
            .chunks(batch_size)
            .map(|ch| Batch::inserting(ch.iter().copied())),
    );
    if delete_phase {
        batches.extend(
            path_edges
                .chunks(batch_size)
                .map(|ch| Batch::deleting(ch.iter().copied())),
        );
    }
    BatchStream { n, batches }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;

    #[test]
    fn random_mixed_stream_is_valid_and_deterministic() {
        let s1 = random_mixed_stream(32, 8, 10, 0.7, 42);
        let s2 = random_mixed_stream(32, 8, 10, 0.7, 42);
        assert_eq!(s1.batches, s2.batches);
        let snaps = s1.replay(); // panics if invalid
        assert_eq!(snaps.len(), 8);
        assert!(s1.update_count() <= 80);
    }

    #[test]
    fn different_seeds_differ() {
        let s1 = random_mixed_stream(32, 4, 10, 0.7, 1);
        let s2 = random_mixed_stream(32, 4, 10, 0.7, 2);
        assert_ne!(s1.batches, s2.batches);
    }

    #[test]
    fn path_stream_builds_path() {
        let s = path_stream(10, 3, false);
        let snaps = s.replay();
        let last = snaps.last().expect("non-empty");
        assert_eq!(last.edge_count(), 9);
        assert_eq!(
            oracle::component_count(10, last.edges().collect::<Vec<_>>()),
            1
        );
    }

    #[test]
    fn path_stream_delete_phase_splits() {
        let s = path_stream(10, 4, true);
        let snaps = s.replay();
        let last = snaps.last().expect("non-empty");
        // Deleting every other edge of a 9-edge path leaves 4 edges
        // and 6 components.
        assert_eq!(last.edge_count(), 4);
        assert_eq!(
            oracle::component_count(10, last.edges().collect::<Vec<_>>()),
            6
        );
    }

    #[test]
    fn star_stream_full_cycle() {
        let s = star_stream(8, 3, true);
        let last = s.replay().pop().expect("non-empty");
        assert_eq!(last.edge_count(), 0);
    }

    #[test]
    fn merge_split_alternates_component_counts() {
        let s = merge_split_stream(4, 3, 2, 64, 7);
        let snaps = s.replay();
        // After the (single, 64 >= 12 edges) clique batch: 4
        // components. After bridges: 1. After cuts: 4 again.
        let counts: Vec<usize> = snaps
            .iter()
            .map(|g| oracle::component_count(s.n, g.edges().collect::<Vec<_>>()))
            .collect();
        assert_eq!(counts, vec![4, 1, 4, 1, 4]);
        // Chunked build keeps every batch within the limit.
        let s = merge_split_stream(4, 3, 1, 5, 7);
        assert!(s.batches.iter().all(|b| b.len() <= 5));
    }

    #[test]
    fn densifying_reaches_target() {
        let s = densifying_stream(20, 60, 16, 3);
        let last = s.replay().pop().expect("non-empty");
        assert_eq!(last.edge_count(), 60);
    }

    #[test]
    fn preferential_attachment_is_connected_and_heavy_tailed() {
        let s = preferential_attachment_stream(200, 2, 16, 5);
        let last = s.replay().pop().expect("nonempty");
        let edges: Vec<Edge> = last.edges().collect();
        assert_eq!(oracle::component_count(200, edges.iter().copied()), 1);
        // Heavy tail: the max degree far exceeds the mean.
        let mut deg = vec![0usize; 200];
        for e in &edges {
            deg[e.u() as usize] += 1;
            deg[e.v() as usize] += 1;
        }
        let mean = 2.0 * edges.len() as f64 / 200.0;
        let max = *deg.iter().max().expect("nonempty") as f64;
        assert!(max > 3.0 * mean, "max degree {max} vs mean {mean}");
    }

    #[test]
    fn weighted_stream_is_valid() {
        let s = random_weighted_stream(24, 6, 8, 0.6, 100, 11);
        let mut g = DynamicGraph::new(s.n);
        for b in &s.batches {
            g.apply_weighted(b).expect("valid weighted stream");
        }
        for we in g.weighted_edges() {
            assert!((1..=100).contains(&we.weight));
        }
    }

    #[test]
    fn bipartite_stream_violation_window() {
        let (s, window) = bipartite_stream_with_violation(16, 8, 4, Some(3), 5);
        let (start, end) = window.expect("violation injected");
        assert_eq!(start, 3);
        assert_eq!(end, 5);
        let snaps = s.replay();
        for (i, g) in snaps.iter().enumerate() {
            let edges: Vec<Edge> = g.edges().collect();
            let bip = oracle::is_bipartite(s.n, &edges);
            if i >= start && i < end {
                assert!(!bip, "batch {i} should be non-bipartite");
            } else {
                assert!(bip, "batch {i} should be bipartite");
            }
        }
    }

    #[test]
    fn planted_matching_opt_is_exact() {
        let (s, opt) = planted_matching_stream(6, 10, 5, 9);
        let last = s.replay().pop().expect("non-empty");
        let edges: Vec<Edge> = last.edges().collect();
        assert_eq!(oracle::maximum_matching_size(s.n, &edges), opt);
    }

    #[test]
    fn circulant_stream_has_known_edge_connectivity() {
        use crate::cuts;
        for (jumps, expect) in [(vec![1usize], 2u64), (vec![1, 2], 4), (vec![1, 3], 4)] {
            let s = circulant_stream(12, &jumps, 5, 3);
            let last = s.replay().pop().expect("non-empty");
            let edges: Vec<Edge> = last.edges().collect();
            assert_eq!(edges.len(), 12 * jumps.len());
            assert_eq!(
                cuts::edge_connectivity(12, &edges),
                expect,
                "jumps {jumps:?}"
            );
        }
    }

    #[test]
    fn circulant_stream_is_deterministic() {
        let a = circulant_stream(16, &[1, 2], 4, 7);
        let b = circulant_stream(16, &[1, 2], 4, 7);
        assert_eq!(a.batches, b.batches);
    }

    #[test]
    #[should_panic(expected = "invalid")]
    fn circulant_rejects_large_jump() {
        let _ = circulant_stream(8, &[4], 2, 0);
    }

    #[test]
    fn barbell_stream_has_known_bridges() {
        use crate::cuts;
        let c = 5;
        let p = 3;
        let s = barbell_stream(c, p, 4, false);
        let last = s.replay().pop().expect("non-empty");
        let edges: Vec<Edge> = last.edges().collect();
        // p + 1 path edges, all bridges; min cut 1.
        assert_eq!(cuts::bridges(s.n, &edges).len(), p + 1);
        assert_eq!(cuts::global_min_cut(s.n, &edges), 1);
        assert_eq!(edges.len(), 2 * (c * (c - 1) / 2) + p + 1);
    }

    #[test]
    fn barbell_delete_phase_disconnects() {
        let s = barbell_stream(4, 2, 3, true);
        let last = s.replay().pop().expect("non-empty");
        // After deleting the path: two cliques + 2 isolated path
        // vertices = 4 components.
        assert_eq!(oracle::component_count(s.n, last.edges()), 4);
    }

    #[test]
    fn barbell_without_path_vertices_still_bridges() {
        let s = barbell_stream(3, 0, 2, false);
        let last = s.replay().pop().expect("non-empty");
        let edges: Vec<Edge> = last.edges().collect();
        use crate::cuts;
        assert_eq!(cuts::bridges(s.n, &edges), vec![Edge::new(0, 3)]);
    }
}
