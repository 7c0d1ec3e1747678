//! The Borůvka cascade over a bank's independent sketch copies — the
//! one level loop behind every sketch-based answer (Section 6.3's
//! replacement search; `t = Θ(log n)` copies boost Lemma 3.1's
//! sampler). It runs over the nodes `0..k` of a [`UnionFind`]
//! (vertices, or the pieces a forest split left) and spends copy `i`
//! on level `i`. A level groups the nodes by root, probes each group
//! once, and unions the sampled edges in ascending root order. The
//! grouping is one counting pass over the roots into reused buffers,
//! `O(k)` per level.
//!
//! **The one stop rule:** one group left, or a level that accepted no
//! union and saw no `Fail`. Only an all-zero sketch samples `Empty`,
//! so such a level proves every remaining cut empty; a `Fail` proves
//! nothing. A group that sampled `Empty` is a complete component and
//! is not probed again until a union reaches it.

use crate::arena::MergeScratch;
use crate::bank::SketchBank;
use crate::vertex::EdgeSample;
use mpc_graph::ids::Edge;
use mpc_graph::oracle::UnionFind;

/// What a group whose merge absorbed no column means to the stop
/// rule: the driver's only caller-varied input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Untouched {
    /// An empty cut, like an `Empty` sample.
    Empty,
    /// Unresolved, like an uncounted `Fail`: `AgmBaseline`'s rule, so
    /// a never-touched vertex runs its queries through every copy.
    /// **Temporary:** `benchmark/baseline/aa-1.json` pins the `fanout`
    /// rounds it costs; ROADMAP 2(b) re-records it and drops this.
    Unresolved,
}

/// Resets `scratch` to copy `copy`, lets `merge` accumulate one
/// group's columns, and samples the merged cut. A merge that absorbed
/// no column is the zero sketch: `Empty`.
pub fn probe(
    bank: &SketchBank,
    scratch: &mut MergeScratch,
    copy: usize,
    merge: impl FnOnce(&mut MergeScratch),
) -> EdgeSample {
    scratch.reset(copy);
    merge(scratch);
    if scratch.absorbed() == 0 {
        EdgeSample::Empty
    } else {
        bank.sample_merged(scratch)
    }
}

/// Runs the cascade over the nodes of `uf`, one level per copy of
/// `bank`, and returns how many probes sampled `Fail`.
///
/// * `merge(members, roots, scratch)` accumulates a group (its nodes,
///   ascending; `roots[v]` is node `v`'s root this level).
/// * `nodes_of(e)` maps a sampled edge to its two nodes (`None`: skip).
/// * `level_done(found, accepted)` gets, after each probed level, how
///   many edges it sampled and those that joined two groups.
pub fn run(
    bank: &SketchBank,
    uf: &mut UnionFind,
    untouched: Untouched,
    mut merge: impl FnMut(&[u32], &[u32], &mut MergeScratch),
    mut nodes_of: impl FnMut(Edge) -> Option<(u32, u32)>,
    mut level_done: impl FnMut(usize, &[Edge]),
) -> u64 {
    let k = uf.len();
    let mut scratch = bank.new_scratch();
    let mut roots: Vec<u32> = Vec::with_capacity(k);
    let (mut order, mut next): (Vec<u32>, Vec<usize>) = (vec![0; k], vec![0; k + 1]);
    let mut exhausted = vec![false; k];
    let (mut found, mut accepted): (Vec<Edge>, Vec<Edge>) = (Vec::new(), Vec::new());
    let mut failures = 0u64;
    for level in 0..bank.copies() {
        if uf.component_count() <= 1 {
            break;
        }
        roots.clear();
        roots.extend((0..k as u32).map(|v| uf.find(v)));
        // Counting pass (every root is `< k`): `next[r]` starts at
        // the first slot of root `r`'s run, and nodes are placed in
        // ascending order — (root, node) order in O(k).
        next.fill(0);
        for &r in &roots {
            next[r as usize + 1] += 1;
        }
        for r in 1..=k {
            next[r] += next[r - 1];
        }
        for (v, &r) in (0..k as u32).zip(&roots) {
            order[next[r as usize]] = v;
            next[r as usize] += 1;
        }
        found.clear();
        let mut unresolved = false;
        for group in order.chunk_by(|&a, &b| roots[a as usize] == roots[b as usize]) {
            let root = roots[group[0] as usize] as usize;
            if exhausted[root] {
                continue;
            }
            let sample = probe(bank, &mut scratch, level, |s| merge(group, &roots, s));
            #[deny(
                clippy::wildcard_enum_match_arm,
                clippy::match_wildcard_for_single_variants
            )]
            match sample {
                EdgeSample::Edge(e) => found.push(e),
                EdgeSample::Fail => {
                    failures += 1;
                    unresolved = true;
                }
                EdgeSample::Empty
                    if untouched == Untouched::Unresolved && scratch.absorbed() == 0 =>
                {
                    unresolved = true;
                }
                EdgeSample::Empty => exhausted[root] = true,
            }
        }
        accepted.clear();
        for (e, (a, b)) in found.iter().filter_map(|&e| Some((e, nodes_of(e)?))) {
            if uf.union(a, b) {
                // A merged supernode has a new cut: probe it again.
                exhausted[uf.find(a) as usize] = false;
                accepted.push(e);
            }
        }
        level_done(found.len(), &accepted);
        if accepted.is_empty() && !unresolved {
            break;
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs the cascade over the vertices of `bank`, returning the
    /// failure count and `(found, accepted)` per probed level.
    fn run_on_vertices(
        bank: &SketchBank,
        n: usize,
        untouched: Untouched,
        mut probed: impl FnMut(&[u32]),
    ) -> (UnionFind, u64, Vec<(usize, Vec<Edge>)>) {
        let mut uf = UnionFind::new(n);
        let mut levels = Vec::new();
        let failures = run(
            bank,
            &mut uf,
            untouched,
            |members, _, s| {
                probed(members);
                bank.merge_copy_into(members, s);
            },
            |e| Some((e.u(), e.v())),
            |found, accepted| levels.push((found, accepted.to_vec())),
        );
        (uf, failures, levels)
    }

    fn bank_with(n: usize, copies: usize, seed: u64, edges: &[Edge]) -> SketchBank {
        let mut bank = SketchBank::new(n, copies, seed);
        for &e in edges {
            bank.insert_edge(e);
        }
        bank
    }

    /// Two `K8`s joined by 8 bridges: at seed 23 a level samples no
    /// edge at all, only failures, and the cascade must go on to the
    /// next copy — the premature stop PR 1 and PR 25 each fixed in
    /// one hand-written copy of this loop.
    #[test]
    fn a_level_that_only_failed_does_not_end_the_cascade() {
        let clique = |base: u32| {
            (0..8u32).flat_map(move |a| (a + 1..8).map(move |b| Edge::new(base + a, base + b)))
        };
        let edges: Vec<Edge> = clique(0)
            .chain(clique(8))
            .chain((0..8u32).map(|i| Edge::new(i, i + 8)))
            .collect();
        let bank = bank_with(16, 24, 23, &edges);
        let (mut uf, failures, levels) = run_on_vertices(&bank, 16, Untouched::Empty, |_| {});
        let stalled = levels[..levels.len() - 1]
            .iter()
            .position(|(found, _)| *found == 0);
        assert!(
            stalled.is_some(),
            "seed 23 has a level that found nothing: {levels:?}"
        );
        assert!(failures > 0);
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, 15));
    }

    /// A group that sampled `Empty` — whether it absorbed nothing or
    /// its columns cancel — is probed once, however long the cascade
    /// runs on.
    #[test]
    fn a_group_that_sampled_empty_is_probed_once() {
        let path: Vec<Edge> = (0..15u32).map(|i| Edge::new(i, i + 1)).collect();
        let mut bank = bank_with(20, 12, 5, &path);
        // 17–18 touched then cancelled; 19 never touched.
        bank.insert_edge(Edge::new(17, 18));
        bank.delete_edge(Edge::new(17, 18));
        bank.insert_edge(Edge::new(16, 17));
        bank.delete_edge(Edge::new(16, 17));
        let mut probes: Vec<Vec<u32>> = Vec::new();
        let (_, _, levels) =
            run_on_vertices(&bank, 20, Untouched::Empty, |m| probes.push(m.to_vec()));
        assert!(
            levels.len() >= 3,
            "the path needs several levels: {levels:?}"
        );
        for v in 16..20u32 {
            let count = probes.iter().filter(|m| m[..] == [v]).count();
            assert_eq!(count, 1, "vertex {v} probed {count} times");
        }
    }

    /// `Untouched::Unresolved` (AGM's rule) keeps a cascade with a
    /// never-touched vertex running through every copy; the default
    /// stops at the first level that proves every cut empty.
    #[test]
    fn an_isolated_vertex_runs_every_copy_only_under_agm_rule() {
        let bank = bank_with(4, 6, 9, &[Edge::new(0, 1)]);
        let (_, _, default_levels) = run_on_vertices(&bank, 4, Untouched::Empty, |_| {});
        assert_eq!(default_levels.len(), 2, "{default_levels:?}");
        let (uf, failures, agm_levels) = run_on_vertices(&bank, 4, Untouched::Unresolved, |_| {});
        assert_eq!(agm_levels.len(), 6, "{agm_levels:?}");
        assert_eq!(failures, 0, "an untouched group is not a failure");
        assert_eq!(uf.component_count(), 3);
    }

    /// Edges are unioned in ascending root order: the leaves of a star
    /// centred on the largest id come first, in id order, and the
    /// centre's own sample (last) joins nothing new.
    #[test]
    fn unions_follow_ascending_root_order() {
        let star: Vec<Edge> = (0..5u32).map(|i| Edge::new(i, 5)).collect();
        let bank = bank_with(6, 4, 11, &star);
        let (uf, _, levels) = run_on_vertices(&bank, 6, Untouched::Empty, |_| {});
        assert_eq!(levels[0].1, star);
        assert_eq!(uf.component_count(), 1);
    }

    #[test]
    fn a_probe_that_absorbs_nothing_is_empty() {
        let bank = bank_with(4, 2, 1, &[Edge::new(0, 1)]);
        let mut scratch = bank.new_scratch();
        let sample = probe(&bank, &mut scratch, 1, |s| {
            bank.merge_copy_into(&[2, 3], s);
        });
        assert_eq!(sample, EdgeSample::Empty);
        let sample = probe(&bank, &mut scratch, 1, |s| {
            bank.merge_copy_into(&[0], s);
        });
        assert_eq!(sample, EdgeSample::Edge(Edge::new(0, 1)));
    }
}
