//! Sequential cut oracles: global minimum cut, edge connectivity,
//! and bridges.
//!
//! These are the ground truth for the `mpc-kconn` crate, which
//! implements the k-edge-connectivity extension the paper's
//! conclusion (Section 9) names as an open direction of its
//! streaming-MPC model. The oracles are classical:
//!
//! * [`global_min_cut`] — Stoer–Wagner minimum-cut on a multigraph
//!   view of the edge list (parallel edges add capacity).
//! * [`edge_connectivity`] — `min(λ(G), components-aware)`: the size
//!   of the smallest edge cut, `0` for disconnected graphs.
//! * [`edge_connectivity_capped`] — `min(λ(G), cap)`, in `O(n + m)`
//!   for `cap ≤ 2`.
//! * [`bridges`] — cut edges, via one DFS low-link pass.
//! * [`is_k_edge_connected`] — convenience predicate on top of
//!   [`edge_connectivity`].

use crate::ids::{Edge, VertexId};
use crate::oracle::UnionFind;

/// The value of a global minimum cut of the graph `(V=[n], edges)`,
/// computed with the Stoer–Wagner algorithm in `O(n³)` time.
///
/// Parallel occurrences of an edge in `edges` contribute additively
/// to the cut capacity, so the function is usable on multigraph edge
/// lists (e.g. unions of edge-disjoint forests).
///
/// Returns `0` when the graph is disconnected (including `n <= 1`
/// with no edges; a single vertex has no cut and also returns `0`).
///
/// # Examples
///
/// ```
/// use mpc_graph::cuts::global_min_cut;
/// use mpc_graph::ids::Edge;
///
/// // A 4-cycle: every global cut has at least 2 edges.
/// let cycle = [
///     Edge::new(0, 1),
///     Edge::new(1, 2),
///     Edge::new(2, 3),
///     Edge::new(3, 0),
/// ];
/// assert_eq!(global_min_cut(4, &cycle), 2);
/// ```
pub fn global_min_cut(n: usize, edges: &[Edge]) -> u64 {
    if n <= 1 {
        return 0;
    }
    // Disconnected graphs have an empty cut.
    let mut uf = UnionFind::new(n);
    for e in edges {
        uf.union(e.u(), e.v());
    }
    if uf.component_count() > 1 {
        return 0;
    }
    // Dense capacity matrix; n is small in oracle usage.
    let mut w = vec![vec![0u64; n]; n];
    for e in edges {
        let (a, b) = (e.u() as usize, e.v() as usize);
        if a != b {
            w[a][b] += 1;
            w[b][a] += 1;
        }
    }
    let mut active: Vec<usize> = (0..n).collect();
    let mut best = u64::MAX;
    while active.len() > 1 {
        // One minimum-cut phase: maximum-adjacency ordering.
        let mut in_a = vec![false; n];
        let mut weight_to_a = vec![0u64; n];
        let start = active[0];
        in_a[start] = true;
        for v in &active {
            weight_to_a[*v] = w[start][*v];
        }
        let mut prev = start;
        let mut last = start;
        for _ in 1..active.len() {
            let mut pick = usize::MAX;
            let mut pick_w = 0u64;
            for &v in &active {
                if !in_a[v] && (pick == usize::MAX || weight_to_a[v] > pick_w) {
                    pick = v;
                    pick_w = weight_to_a[v];
                }
            }
            in_a[pick] = true;
            prev = last;
            last = pick;
            for &v in &active {
                if !in_a[v] {
                    weight_to_a[v] += w[pick][v];
                }
            }
        }
        // Cut-of-the-phase: `last` alone vs the rest.
        best = best.min(weight_to_a[last]);
        // Merge `last` into `prev`.
        let merged: Vec<u64> = (0..n).map(|v| w[prev][v] + w[last][v]).collect();
        w[prev].copy_from_slice(&merged);
        for (v, val) in merged.into_iter().enumerate() {
            w[v][prev] = val;
        }
        w[prev][prev] = 0;
        active.retain(|&v| v != last);
    }
    best
}

/// The edge connectivity `λ(G)`: the minimum number of edges whose
/// removal disconnects the graph. `0` for disconnected graphs and for
/// `n <= 1`.
///
/// # Examples
///
/// ```
/// use mpc_graph::cuts::edge_connectivity;
/// use mpc_graph::ids::Edge;
///
/// // A path is 1-edge-connected; deleting any edge splits it.
/// let path = [Edge::new(0, 1), Edge::new(1, 2)];
/// assert_eq!(edge_connectivity(3, &path), 1);
/// ```
pub fn edge_connectivity(n: usize, edges: &[Edge]) -> u64 {
    global_min_cut(n, edges)
}

/// `min(λ(G), cap)`: the edge connectivity truncated at `cap`.
///
/// # Performance
///
/// For `cap ≤ 2` this is one union-find pass plus one [`bridges`]
/// pass, `O(n + m)`: a connected graph on `n ≥ 2` vertices without a
/// bridge has `λ ≥ 2`. For `cap ≥ 3` it runs [`global_min_cut`]'s
/// Stoer–Wagner, `O(n³)` time and `n²` words.
///
/// # Examples
///
/// ```
/// use mpc_graph::cuts::edge_connectivity_capped;
/// use mpc_graph::ids::Edge;
///
/// let cycle: Vec<Edge> = (0..5).map(|i| Edge::new(i, (i + 1) % 5)).collect();
/// assert_eq!(edge_connectivity_capped(5, &cycle, 1), 1);
/// assert_eq!(edge_connectivity_capped(5, &cycle, 2), 2);
/// assert_eq!(edge_connectivity_capped(5, &cycle[1..], 2), 1);
/// ```
pub fn edge_connectivity_capped(n: usize, edges: &[Edge], cap: u64) -> u64 {
    if cap > 2 {
        return edge_connectivity(n, edges).min(cap);
    }
    if cap == 0 || n <= 1 || crate::oracle::component_count(n, edges.iter().copied()) > 1 {
        return 0;
    }
    if cap == 2 && !bridges(n, edges).is_empty() {
        return 1;
    }
    cap
}

/// `true` iff the graph is `k`-edge-connected (every cut has at
/// least `k` edges). Every graph, including the empty one, is
/// `0`-edge-connected; a single vertex is `k`-edge-connected for all
/// `k` by the usual convention only when `k = 0` here (there is no
/// cut, but there is also no pair to connect — we follow
/// `λ(K_1) = 0`).
///
/// # Examples
///
/// ```
/// use mpc_graph::cuts::is_k_edge_connected;
/// use mpc_graph::ids::Edge;
///
/// let cycle = [
///     Edge::new(0, 1),
///     Edge::new(1, 2),
///     Edge::new(2, 0),
/// ];
/// assert!(is_k_edge_connected(3, &cycle, 2));
/// assert!(!is_k_edge_connected(3, &cycle, 3));
/// ```
pub fn is_k_edge_connected(n: usize, edges: &[Edge], k: u64) -> bool {
    if k == 0 {
        return true;
    }
    edge_connectivity(n, edges) >= k
}

/// All bridges (cut edges) of the graph, via an iterative DFS
/// low-link pass in `O(n + m)` time. Parallel copies of the same
/// edge in `edges` make it a non-bridge, matching the multigraph
/// semantics of [`global_min_cut`].
///
/// The returned edges are sorted.
///
/// # Examples
///
/// ```
/// use mpc_graph::cuts::bridges;
/// use mpc_graph::ids::Edge;
///
/// // Two triangles joined by one edge: only the joint is a bridge.
/// let edges = [
///     Edge::new(0, 1),
///     Edge::new(1, 2),
///     Edge::new(2, 0),
///     Edge::new(2, 3), // bridge
///     Edge::new(3, 4),
///     Edge::new(4, 5),
///     Edge::new(5, 3),
/// ];
/// assert_eq!(bridges(6, &edges), vec![Edge::new(2, 3)]);
/// ```
pub fn bridges(n: usize, edges: &[Edge]) -> Vec<Edge> {
    // Adjacency with edge indices so a parallel edge is not mistaken
    // for the tree edge back to the parent.
    let mut adj: Vec<Vec<(VertexId, usize)>> = vec![Vec::new(); n];
    for (i, e) in edges.iter().enumerate() {
        if e.u() == e.v() {
            continue;
        }
        adj[e.u() as usize].push((e.v(), i));
        adj[e.v() as usize].push((e.u(), i));
    }
    let mut disc = vec![u32::MAX; n];
    let mut low = vec![u32::MAX; n];
    let mut out = Vec::new();
    let mut timer: u32 = 0;
    for root in 0..n {
        if disc[root] != u32::MAX {
            continue;
        }
        // Iterative DFS: (vertex, parent edge index, next child slot).
        let mut stack: Vec<(usize, usize, usize)> = vec![(root, usize::MAX, 0)];
        disc[root] = timer;
        low[root] = timer;
        timer += 1;
        while let Some(&mut (v, pe, ref mut next)) = stack.last_mut() {
            if *next < adj[v].len() {
                let (to, ei) = adj[v][*next];
                *next += 1;
                if ei == pe {
                    continue;
                }
                let to = to as usize;
                if disc[to] == u32::MAX {
                    disc[to] = timer;
                    low[to] = timer;
                    timer += 1;
                    stack.push((to, ei, 0));
                } else {
                    low[v] = low[v].min(disc[to]);
                }
            } else {
                stack.pop();
                if let Some(&mut (parent, _, _)) = stack.last_mut() {
                    low[parent] = low[parent].min(low[v]);
                    if low[v] > disc[parent] {
                        out.push(edges[pe]);
                    }
                }
            }
        }
    }
    out.sort();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn min_cut_of_disconnected_graph_is_zero() {
        assert_eq!(global_min_cut(4, &[e(0, 1), e(2, 3)]), 0);
        assert_eq!(global_min_cut(3, &[]), 0);
        assert_eq!(global_min_cut(0, &[]), 0);
        assert_eq!(global_min_cut(1, &[]), 0);
    }

    #[test]
    fn min_cut_of_tree_is_one() {
        let tree = [e(0, 1), e(1, 2), e(1, 3), e(3, 4)];
        assert_eq!(global_min_cut(5, &tree), 1);
        assert_eq!(edge_connectivity(5, &tree), 1);
    }

    #[test]
    fn min_cut_of_complete_graph_is_n_minus_one() {
        for n in 2..7usize {
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    edges.push(e(a, b));
                }
            }
            assert_eq!(global_min_cut(n, &edges), n as u64 - 1, "K_{n}");
        }
    }

    #[test]
    fn min_cut_respects_parallel_edges() {
        // Two vertices joined by three parallel edges: cut = 3.
        let edges = [e(0, 1), e(0, 1), e(0, 1)];
        assert_eq!(global_min_cut(2, &edges), 3);
    }

    #[test]
    fn min_cut_finds_bottleneck_between_cliques() {
        // Two K4's joined by two edges → min cut 2.
        let mut edges = Vec::new();
        for a in 0..4u32 {
            for b in (a + 1)..4u32 {
                edges.push(e(a, b));
                edges.push(e(a + 4, b + 4));
            }
        }
        edges.push(e(0, 4));
        edges.push(e(1, 5));
        assert_eq!(global_min_cut(8, &edges), 2);
    }

    #[test]
    fn min_cut_matches_brute_force_on_random_graphs() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(7);
        for trial in 0..40 {
            let n = rng.gen_range(2..9usize);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.5) {
                        edges.push(e(a, b));
                    }
                }
            }
            // Brute force over all 2^(n-1) bipartitions containing 0.
            let mut best = u64::MAX;
            for mask in 0..(1u32 << (n - 1)) {
                let side = |v: u32| -> bool { v == 0 || (mask >> (v - 1)) & 1 == 1 };
                // Skip the trivial partition with everything on 0's side.
                if (0..n as u32).all(side) {
                    continue;
                }
                let cut = edges
                    .iter()
                    .filter(|ed| side(ed.u()) != side(ed.v()))
                    .count() as u64;
                best = best.min(cut);
            }
            // Disconnected graphs: brute force already reports 0.
            assert_eq!(
                global_min_cut(n, &edges),
                best,
                "trial {trial}: n={n} edges={edges:?}"
            );
        }
    }

    #[test]
    fn k_connected_predicate_boundaries() {
        let cycle = [e(0, 1), e(1, 2), e(2, 3), e(3, 0)];
        assert!(is_k_edge_connected(4, &cycle, 0));
        assert!(is_k_edge_connected(4, &cycle, 1));
        assert!(is_k_edge_connected(4, &cycle, 2));
        assert!(!is_k_edge_connected(4, &cycle, 3));
        // Disconnected graph is only 0-edge-connected.
        assert!(is_k_edge_connected(4, &[e(0, 1)], 0));
        assert!(!is_k_edge_connected(4, &[e(0, 1)], 1));
    }

    /// The `O(n + m)` path for `cap ≤ 2` agrees with Stoer–Wagner,
    /// parallel edges and tiny vertex counts included.
    #[test]
    fn capped_connectivity_matches_stoer_wagner() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(31);
        for trial in 0..300 {
            let n = rng.gen_range(0..10usize);
            let mut edges = Vec::new();
            let p = rng.gen_range(0.1..0.7);
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    while rng.gen_bool(p) {
                        edges.push(e(a, b));
                    }
                }
            }
            let lambda = edge_connectivity(n, &edges);
            for cap in 0..4u64 {
                assert_eq!(
                    edge_connectivity_capped(n, &edges, cap),
                    lambda.min(cap),
                    "trial {trial} cap {cap}: n={n} edges={edges:?}"
                );
            }
        }
    }

    #[test]
    fn bridges_of_tree_are_all_edges() {
        let tree = [e(0, 1), e(1, 2), e(1, 3)];
        assert_eq!(bridges(4, &tree), vec![e(0, 1), e(1, 2), e(1, 3)]);
    }

    #[test]
    fn bridges_of_cycle_are_empty() {
        let cycle = [e(0, 1), e(1, 2), e(2, 0)];
        assert!(bridges(3, &cycle).is_empty());
    }

    #[test]
    fn parallel_edge_is_not_a_bridge() {
        assert!(bridges(2, &[e(0, 1), e(0, 1)]).is_empty());
        assert_eq!(bridges(2, &[e(0, 1)]), vec![e(0, 1)]);
    }

    #[test]
    fn bridges_in_disconnected_graph() {
        // Component {0,1,2} is a triangle, component {3,4} a bridge.
        let edges = [e(0, 1), e(1, 2), e(2, 0), e(3, 4)];
        assert_eq!(bridges(5, &edges), vec![e(3, 4)]);
    }

    #[test]
    fn bridges_match_deletion_definition_on_random_graphs() {
        use crate::oracle::component_count;
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..30 {
            let n = rng.gen_range(2..10usize);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.3) {
                        edges.push(e(a, b));
                    }
                }
            }
            let base = component_count(n, edges.iter().copied());
            let found = bridges(n, &edges);
            for (i, cand) in edges.iter().enumerate() {
                let without: Vec<Edge> = edges
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != i)
                    .map(|(_, ed)| *ed)
                    .collect();
                let is_bridge = component_count(n, without.iter().copied()) > base;
                assert_eq!(
                    found.contains(cand),
                    is_bridge,
                    "trial {trial}: edge {cand:?} in {edges:?}"
                );
            }
        }
    }
}
