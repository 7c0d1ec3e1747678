//! Sequential reference algorithms ("oracles").
//!
//! Every MPC algorithm in this workspace is validated against a
//! classical sequential counterpart from this module:
//!
//! * [`UnionFind`] / [`components`] — connectivity ground truth for
//!   the paper's Theorem 1.1.
//! * [`kruskal_msf`] — exact minimum spanning forest for Theorem 1.2.
//! * [`is_bipartite`] — two-coloring check for Theorem 7.3.
//! * [`greedy_maximal_matching`] / [`maximum_matching`] — matching
//!   ground truth for the Section 8 algorithms; the maximum matching
//!   is computed exactly with Edmonds' blossom algorithm so measured
//!   approximation ratios of `mpc-bench`'s matching experiments
//!   (E7–E9) are against true `OPT`.

use crate::ids::{Edge, VertexId, WeightedEdge};
use std::collections::VecDeque;

/// Union-find (disjoint set union) with path halving and union by
/// size.
///
/// # Examples
///
/// ```
/// use mpc_graph::oracle::UnionFind;
///
/// let mut uf = UnionFind::new(3);
/// assert!(uf.union(0, 1));
/// assert!(!uf.union(1, 0)); // already joined
/// assert!(uf.connected(0, 1));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<u32>,
    size: Vec<u32>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            components: n,
        }
    }

    /// The representative of `x`'s set.
    pub fn find(&mut self, x: VertexId) -> VertexId {
        let mut x = x;
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    /// Joins the sets of `a` and `b`. Returns `true` if they were
    /// previously separate.
    pub fn union(&mut self, a: VertexId, b: VertexId) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (big, small) = if self.size[ra as usize] >= self.size[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[small as usize] = big;
        self.size[big as usize] += self.size[small as usize];
        self.components -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: VertexId, b: VertexId) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether there are no elements.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Labels every element with the smallest element of its set —
    /// the paper's component-id convention (Section 4.2).
    pub fn min_labels(&mut self) -> Vec<VertexId> {
        let n = self.parent.len() as u32;
        let mut min_of_root: Vec<VertexId> = (0..n).collect();
        for v in 0..n {
            let r = self.find(v) as usize;
            min_of_root[r] = min_of_root[r].min(v);
        }
        (0..n).map(|v| min_of_root[self.find(v) as usize]).collect()
    }
}

mpc_snapshot::persist_struct!(UnionFind { parent, size, components } check |uf| {
    let n = uf.parent.len();
    if uf.size.len() != n || uf.components > n || uf.parent.iter().any(|&p| p as usize >= n) {
        return Err(format!(
            "inconsistent union-find: {n} parents, {} sizes, {} components",
            uf.size.len(),
            uf.components
        ));
    }
    Ok(())
});

/// Connected-component labels: `label[v]` is the smallest vertex id in
/// `v`'s component, matching the paper's component-id convention
/// (Section 4.2).
pub fn components(n: usize, edges: impl IntoIterator<Item = Edge>) -> Vec<VertexId> {
    let mut uf = UnionFind::new(n);
    for e in edges {
        uf.union(e.u(), e.v());
    }
    uf.min_labels()
}

/// Number of connected components of the graph.
pub fn component_count(n: usize, edges: impl IntoIterator<Item = Edge>) -> usize {
    let mut uf = UnionFind::new(n);
    for e in edges {
        uf.union(e.u(), e.v());
    }
    uf.component_count()
}

/// Exact minimum spanning forest by Kruskal's algorithm. Ties are
/// broken by edge identity, so the result is deterministic.
pub fn kruskal_msf(n: usize, edges: impl IntoIterator<Item = WeightedEdge>) -> Vec<WeightedEdge> {
    let mut sorted: Vec<WeightedEdge> = edges.into_iter().collect();
    sorted.sort_by_key(|we| (we.weight, we.edge));
    let mut uf = UnionFind::new(n);
    let mut forest = Vec::new();
    for we in sorted {
        if uf.union(we.edge.u(), we.edge.v()) {
            forest.push(we);
        }
    }
    forest
}

/// Total weight of the exact minimum spanning forest.
pub fn msf_weight(n: usize, edges: impl IntoIterator<Item = WeightedEdge>) -> u64 {
    kruskal_msf(n, edges).iter().map(|we| we.weight).sum()
}

/// Whether the graph is bipartite (BFS two-coloring).
pub fn is_bipartite(n: usize, edges: &[Edge]) -> bool {
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        adj[e.u() as usize].push(e.v());
        adj[e.v() as usize].push(e.u());
    }
    let mut color = vec![u8::MAX; n];
    for s in 0..n {
        if color[s] != u8::MAX {
            continue;
        }
        color[s] = 0;
        let mut q = VecDeque::from([s as u32]);
        while let Some(v) = q.pop_front() {
            for &w in &adj[v as usize] {
                if color[w as usize] == u8::MAX {
                    color[w as usize] = 1 - color[v as usize];
                    q.push_back(w);
                } else if color[w as usize] == color[v as usize] {
                    return false;
                }
            }
        }
    }
    true
}

/// Greedy maximal matching in the given edge order. The result is
/// maximal (no live edge has both endpoints free) and therefore at
/// least half the maximum matching.
pub fn greedy_maximal_matching(n: usize, edges: impl IntoIterator<Item = Edge>) -> Vec<Edge> {
    let mut matched = vec![false; n];
    let mut m = Vec::new();
    for e in edges {
        if !matched[e.u() as usize] && !matched[e.v() as usize] {
            matched[e.u() as usize] = true;
            matched[e.v() as usize] = true;
            m.push(e);
        }
    }
    m
}

/// Exact maximum matching in a general graph via Edmonds' blossom
/// algorithm (`O(V^3)`), used to measure true approximation ratios.
pub fn maximum_matching(n: usize, edges: &[Edge]) -> Vec<Edge> {
    let mut adj = vec![Vec::new(); n];
    for e in edges {
        adj[e.u() as usize].push(e.v() as usize);
        adj[e.v() as usize].push(e.u() as usize);
    }
    let mut matching = Blossom::new(n, adj).run();
    let mut out = Vec::new();
    for v in 0..n {
        if let Some(w) = matching[v] {
            if v < w {
                out.push(Edge::new(v as u32, w as u32));
                matching[w] = Some(v); // keep consistent (no-op)
            }
        }
    }
    out
}

/// Size of the exact maximum matching.
pub fn maximum_matching_size(n: usize, edges: &[Edge]) -> usize {
    maximum_matching(n, edges).len()
}

/// Edmonds' blossom algorithm state (classic `O(V^3)` formulation).
struct Blossom {
    n: usize,
    adj: Vec<Vec<usize>>,
    matched: Vec<Option<usize>>,
    parent: Vec<usize>,
    base: Vec<usize>,
    used: Vec<bool>,
    blossom: Vec<bool>,
}

const NIL: usize = usize::MAX;

impl Blossom {
    fn new(n: usize, adj: Vec<Vec<usize>>) -> Self {
        Blossom {
            n,
            adj,
            matched: vec![None; n],
            parent: vec![NIL; n],
            base: (0..n).collect(),
            used: vec![false; n],
            blossom: vec![false; n],
        }
    }

    fn lca(&self, mut a: usize, mut b: usize) -> usize {
        let mut seen = vec![false; self.n];
        loop {
            a = self.base[a];
            seen[a] = true;
            match self.matched[a] {
                Some(m) if self.parent[m] != NIL => a = self.parent[m],
                _ => break,
            }
        }
        loop {
            b = self.base[b];
            if seen[b] {
                return b;
            }
            #[expect(
                clippy::expect_used,
                reason = "blossom invariant — every base on an alternating path but the root is matched"
            )]
            let m = self.matched[b].expect("alternating path invariant");
            b = self.parent[m];
        }
    }

    fn mark_path(&mut self, mut v: usize, b: usize, mut child: usize) {
        while self.base[v] != b {
            #[expect(
                clippy::expect_used,
                reason = "blossom invariant — every vertex on a blossom path below its base is matched"
            )]
            let mv = self.matched[v].expect("matched along blossom path");
            self.blossom[self.base[v]] = true;
            self.blossom[self.base[mv]] = true;
            self.parent[v] = child;
            child = mv;
            v = self.parent[mv];
        }
    }

    fn find_path(&mut self, root: usize) -> usize {
        self.used.iter_mut().for_each(|u| *u = false);
        self.parent.iter_mut().for_each(|p| *p = NIL);
        for i in 0..self.n {
            self.base[i] = i;
        }
        self.used[root] = true;
        let mut queue = VecDeque::from([root]);
        while let Some(v) = queue.pop_front() {
            for idx in 0..self.adj[v].len() {
                let to = self.adj[v][idx];
                if self.base[v] == self.base[to] || self.matched[v] == Some(to) {
                    continue;
                }
                if to == root || matches!(self.matched[to], Some(m) if self.parent[m] != NIL) {
                    // Found a blossom; contract it.
                    let cur_base = self.lca(v, to);
                    self.blossom.iter_mut().for_each(|b| *b = false);
                    self.mark_path(v, cur_base, to);
                    self.mark_path(to, cur_base, v);
                    for i in 0..self.n {
                        if self.blossom[self.base[i]] {
                            self.base[i] = cur_base;
                            if !self.used[i] {
                                self.used[i] = true;
                                queue.push_back(i);
                            }
                        }
                    }
                } else if self.parent[to] == NIL {
                    self.parent[to] = v;
                    match self.matched[to] {
                        None => return to, // augmenting path found
                        Some(m) => {
                            self.used[m] = true;
                            queue.push_back(m);
                        }
                    }
                }
            }
        }
        NIL
    }

    fn run(mut self) -> Vec<Option<usize>> {
        for v in 0..self.n {
            if self.matched[v].is_none() {
                let end = self.find_path(v);
                if end != NIL {
                    // Flip the augmenting path root → … → end: walk from
                    // `end` to the root through `parent`, rewiring each
                    // (parent, child) pair and continuing from the
                    // parent's old mate.
                    let mut cur = end;
                    loop {
                        let pv = self.parent[cur];
                        let old_mate = self.matched[pv];
                        self.matched[cur] = Some(pv);
                        self.matched[pv] = Some(cur);
                        match old_mate {
                            Some(next) => cur = next,
                            None => break, // reached the free root
                        }
                    }
                }
            }
        }
        self.matched
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.component_count(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.component_count(), 3);
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
    }

    #[test]
    fn components_use_min_vertex_label() {
        let labels = components(6, [e(3, 4), e(4, 5), e(1, 2)]);
        assert_eq!(labels, vec![0, 1, 1, 3, 3, 3]);
        assert_eq!(component_count(6, [e(3, 4), e(4, 5), e(1, 2)]), 3);
    }

    #[test]
    fn kruskal_on_triangle() {
        let edges = [
            WeightedEdge::new(0, 1, 1),
            WeightedEdge::new(1, 2, 2),
            WeightedEdge::new(0, 2, 3),
        ];
        let msf = kruskal_msf(3, edges);
        assert_eq!(msf.len(), 2);
        assert_eq!(msf.iter().map(|we| we.weight).sum::<u64>(), 3);
        assert_eq!(msf_weight(3, edges), 3);
    }

    #[test]
    fn kruskal_disconnected() {
        let edges = [WeightedEdge::new(0, 1, 5), WeightedEdge::new(2, 3, 7)];
        let msf = kruskal_msf(5, edges);
        assert_eq!(msf.len(), 2);
        assert_eq!(msf_weight(5, edges), 12);
    }

    #[test]
    fn bipartite_detection() {
        // Even cycle: bipartite.
        assert!(is_bipartite(4, &[e(0, 1), e(1, 2), e(2, 3), e(3, 0)]));
        // Odd cycle: not bipartite.
        assert!(!is_bipartite(3, &[e(0, 1), e(1, 2), e(2, 0)]));
        // Disconnected with one odd component.
        assert!(!is_bipartite(6, &[e(0, 1), e(3, 4), e(4, 5), e(5, 3)]));
        // Empty graph is bipartite.
        assert!(is_bipartite(3, &[]));
    }

    #[test]
    fn greedy_matching_is_maximal() {
        let edges = [e(0, 1), e(1, 2), e(2, 3), e(3, 4)];
        let m = greedy_maximal_matching(5, edges);
        // Greedy in this order picks {0,1} and {2,3}.
        assert_eq!(m, vec![e(0, 1), e(2, 3)]);
        // Maximality: every edge has a matched endpoint.
        let mut matched = [false; 5];
        for me in &m {
            matched[me.u() as usize] = true;
            matched[me.v() as usize] = true;
        }
        for ee in edges {
            assert!(matched[ee.u() as usize] || matched[ee.v() as usize]);
        }
    }

    /// Exact maximum matching by bitmask DP, for cross-checking the
    /// blossom implementation on small graphs.
    fn max_matching_dp(n: usize, edges: &[Edge]) -> usize {
        assert!(n <= 16);
        let full = 1usize << n;
        // f[mask] = maximum matching within the vertex set `mask`.
        let mut f = vec![0u8; full];
        for mask in 1..full {
            let v = mask.trailing_zeros() as usize;
            // Either v stays unmatched...
            let mut best = f[mask & !(1 << v)];
            // ...or v is matched along some edge inside the mask.
            for &ed in edges {
                let (a, b) = (ed.u() as usize, ed.v() as usize);
                let bits = (1 << a) | (1 << b);
                if (a == v || b == v) && mask & bits == bits {
                    best = best.max(1 + f[mask & !bits]);
                }
            }
            f[mask] = best;
        }
        f[full - 1] as usize
    }

    #[test]
    fn blossom_on_odd_cycle() {
        // 5-cycle: maximum matching is 2.
        let edges = [e(0, 1), e(1, 2), e(2, 3), e(3, 4), e(4, 0)];
        assert_eq!(maximum_matching_size(5, &edges), 2);
    }

    #[test]
    fn blossom_on_petersen_like() {
        // Two triangles joined by an edge: perfect matching of size 3.
        let edges = [
            e(0, 1),
            e(1, 2),
            e(2, 0),
            e(3, 4),
            e(4, 5),
            e(5, 3),
            e(0, 3),
        ];
        assert_eq!(maximum_matching_size(6, &edges), 3);
    }

    #[test]
    fn blossom_matches_dp_on_random_graphs() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(12345);
        for trial in 0..60 {
            let n = rng.gen_range(2..12);
            let mut edges = Vec::new();
            for a in 0..n as u32 {
                for b in (a + 1)..n as u32 {
                    if rng.gen_bool(0.35) {
                        edges.push(e(a, b));
                    }
                }
            }
            let exact = max_matching_dp(n, &edges);
            let blossom = maximum_matching_size(n, &edges);
            assert_eq!(blossom, exact, "trial {trial}: n={n} edges={edges:?}");
        }
    }

    #[test]
    fn blossom_output_is_valid_matching() {
        let edges = [e(0, 1), e(1, 2), e(2, 3), e(3, 0), e(0, 2)];
        let m = maximum_matching(4, &edges);
        let mut used = [false; 4];
        for me in &m {
            assert!(edges.contains(me));
            assert!(!used[me.u() as usize] && !used[me.v() as usize]);
            used[me.u() as usize] = true;
            used[me.v() as usize] = true;
        }
        assert_eq!(m.len(), 2);
    }
}
