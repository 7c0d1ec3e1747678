//! Batch join and split of Euler tours (paper Sections 6.2–6.3).
//!
//! `batch_join` splices trees together along the spanning forest
//! `F_H` that `k` candidate edges induce over the touched tours, in a
//! constant number of rounds; `try_batch_split` removes `k` tree edges
//! at once. Both follow the paper's protocol shape:
//!
//! 1. the coordinator gathers `O(k)` words (tour ids, lengths,
//!    terminal `f`-values / traversal positions),
//! 2. it computes an `O(k)`-word *plan* — per-tour offsets and shift
//!    breakpoints derived from the auxiliary tree/sequence of
//!    Definition 6.2 (join) or the laminar interval family of the
//!    deleted edges (split),
//! 3. the plan is broadcast and every machine remaps the tour
//!    positions of its own edge shard locally.
//!
//! The per-entry arithmetic (`new = offset + old + shift(old)` with
//! `O(k)` breakpoints) is the closed form of the paper's four-case
//! shift-index / update-index procedure.

use crate::dist::{
    extract_sorted, splice_sorted, DistEtf, EdgeRec, PosMap, Shard, Tour, Traversal, UNBOUNDED,
};
use crate::TourId;
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::oracle::UnionFind;
use mpc_sim::{MpcContext, MpcError};

/// Per-tour remapping plan broadcast to all machines during a batch
/// join: entry `x` of the tour maps to
/// `offset + x + Σ{weight_i : breakpoint_i < x}`. The root's offset is
/// 0, so its plan is the `breakpoints` map alone.
#[derive(Debug, Clone, Default)]
struct NodePlan {
    offset: u64,
    /// One step per child block, of the block's width, above its
    /// attach position.
    breakpoints: PosMap,
}

impl NodePlan {
    fn map(&self, x: u64) -> u64 {
        self.offset + self.breakpoints.map(x)
    }
}

/// One segment of a split plan: `(start, region, delta)`. An entry at
/// `x` belongs to the last segment starting at or before `x` and, if it
/// survives, lands on `x - delta`.
type Seg = (u64, usize, u64);

/// One deleted edge of a split: `(first.pos, second.pos, edge, from)`,
/// where `from` is the endpoint its first traversal leaves from — the
/// one outside the subtree the cut detaches.
pub(crate) type Cut = (u64, u64, Edge, VertexId);

/// The last segment starting at or before `x`.
fn seg_at(segs: &[Seg], x: u64) -> Seg {
    segs[segs.partition_point(|s| s.0 <= x) - 1]
}

/// The region of a record and the record renumbered into it, or `None`
/// for a deleted edge's own record.
fn renumber(segs: &[Seg], rec: EdgeRec) -> Option<(usize, EdgeRec)> {
    let (_, region, delta) = seg_at(segs, rec.first.pos);
    if region == DOOMED {
        return None;
    }
    let mut rec = rec;
    rec.first.pos -= delta;
    rec.second.pos -= seg_at(segs, rec.second.pos).2;
    Some((region, rec))
}

/// The region of a deleted edge's own record.
const DOOMED: usize = usize::MAX;

impl DistEtf {
    /// The batch join of Section 6.1 in `O(1)` rounds (Lemma 6.4).
    /// The candidates induce the auxiliary graph `H` over the tours
    /// they touch — `O(k)` nodes, so it fits one machine (Claim 6.1) —
    /// and the edges kept are a spanning forest `F_H` of it: in order,
    /// each candidate that joins two tours not yet joined in this call.
    /// A candidate inside one tour, or closing a cycle of `H`, is passed
    /// over. Only `F_H` is charged and spliced; it is returned in
    /// candidate order. Fed `(weight, edge)`-sorted candidates, `F_H`
    /// is Kruskal's choice on the tour quotient.
    ///
    /// # Errors
    ///
    /// [`MpcError::GatherTooLarge`] if the `4·|F_H|`-word gather does
    /// not fit one machine. It is charged before the forest changes, so
    /// the forest is then untouched.
    pub fn batch_join(
        &mut self,
        candidates: &[Edge],
        ctx: &mut MpcContext,
    ) -> Result<Vec<Edge>, MpcError> {
        // --- F_H: one union-find over the touched tours ---------------
        // A tour's node is the position of its first endpoint among the
        // candidates' `2k` endpoints: a numbering monotone in first-seen
        // order, read off one sort of (tour, position) pairs.
        let mut ends: Vec<(TourId, u32)> = candidates
            .iter()
            .flat_map(|e| [e.u(), e.v()])
            .zip(0..)
            .map(|(v, at)| (self.tour_of(v), at))
            .collect();
        ends.sort_unstable();
        let mut node = vec![0u32; ends.len()];
        for tour in ends.chunk_by(|a, b| a.0 == b.0) {
            for &(_, at) in tour {
                node[at as usize] = tour[0].1;
            }
        }
        let mut uf = UnionFind::new(node.len());
        let mut kept: Vec<(Edge, u32)> = Vec::new();
        for (&e, ab) in candidates.iter().zip(node.chunks_exact(2)) {
            if uf.union(ab[0], ab[1]) {
                kept.push((e, ab[0]));
            }
        }
        if kept.is_empty() {
            return Ok(Vec::new());
        }
        let k = kept.len() as u64;
        // Round cost: gather edge endpoints + tour ids; multicast the
        // rotation and splice plans (O(k) records, delivered to the
        // machines holding each tour's shard by a constant-round
        // sort-based multicast [GSZ'11]); re-gather terminal
        // f-values; broadcast O(1) control words.
        ctx.gather(4 * k)?;
        ctx.sort(4 * k);
        ctx.exchange(2 * k);
        ctx.sort(8 * k);
        ctx.broadcast(4);
        // --- group F_H into the components of H, by union-find root ---
        let mut comp_edges: Vec<Vec<Edge>> = vec![Vec::new(); node.len()];
        for &(e, a) in &kept {
            comp_edges[uf.find(a) as usize].push(e);
        }
        for comp in comp_edges.iter().filter(|comp| !comp.is_empty()) {
            if let [e] = comp[..] {
                // The dominant component shape: the larger tour anchors
                // in place, the smaller is spliced into it — exactly the
                // tour `join_component` would produce.
                let (u, v) = e.endpoints();
                if self.tour_len(self.tour_of(u)) >= self.tour_len(self.tour_of(v)) {
                    self.link(u, v);
                } else {
                    self.link(v, u);
                }
            } else {
                self.join_component(comp);
            }
        }
        Ok(kept.into_iter().map(|(e, _)| e).collect())
    }

    /// Joins one auxiliary-tree component. Its `O(k)` touched tours are
    /// the nodes of the auxiliary tree, numbered in ascending tour id,
    /// and every per-node table is a vector indexed by that number.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    fn join_component(&mut self, comp: &[Edge]) {
        let mut nodes: Vec<TourId> = comp
            .iter()
            .flat_map(|e| [self.tour_of(e.u()), self.tour_of(e.v())])
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let node_of = |t: TourId| nodes.partition_point(|&x| x < t);
        // Auxiliary adjacency: node -> (local endpoint, remote
        // endpoint, remote node).
        let mut aux: Vec<Vec<(VertexId, VertexId, usize)>> = vec![Vec::new(); nodes.len()];
        for &e in comp {
            let (a, b) = (node_of(self.tour_of(e.u())), node_of(self.tour_of(e.v())));
            aux[a].push((e.u(), e.v(), b));
            aux[b].push((e.v(), e.u(), a));
        }
        // Anchor the merge at the *largest* participating tour: the
        // root is never rerooted, keeps its tour id, its shard order,
        // and its members' tour assignments — so the dominant cost of
        // a join is proportional to the smaller tours plus the shifted
        // tail of the root, not to the whole merged component.
        // Strictly greater: ties keep the smallest id, which also keeps
        // the merged runs in ascending key order. An empty component
        // joins nothing.
        let lens: Vec<u64> = nodes.iter().map(|&t| self.tour_len(t)).collect();
        let Some(root) =
            (0..nodes.len()).reduce(|best, i| if lens[i] > lens[best] { i } else { best })
        else {
            return;
        };
        // Traversal from the root: assign parents; child nodes must be
        // rooted at their attach terminal before f-values are read.
        let mut order: Vec<usize> = vec![root];
        // child -> (parent node, u in parent, v in child)
        let mut parent_edge: Vec<(usize, VertexId, VertexId)> = vec![(root, 0, 0); nodes.len()];
        let mut visited = vec![false; nodes.len()];
        visited[root] = true;
        let mut frontier = vec![root];
        while let Some(a) = frontier.pop() {
            for &(local, remote, b) in &aux[a] {
                if !visited[b] {
                    visited[b] = true;
                    parent_edge[b] = (a, local, remote);
                    order.push(b);
                    frontier.push(b);
                }
            }
        }
        // Rotate every non-root node to start at its attach terminal
        // (the paper's per-node Rooting step; one broadcast covers all
        // rotations, charged by the caller).
        for &t in &order[1..] {
            self.reroot_uncharged(parent_edge[t].2);
        }
        // Children of each node, sorted by even-ized attach position.
        #[derive(Debug)]
        struct Child {
            c: u64,
            child: usize,
            u: VertexId,
            v: VertexId,
        }
        let mut children: Vec<Vec<Child>> = (0..nodes.len()).map(|_| Vec::new()).collect();
        for &child in &order[1..] {
            let (parent, u, v) = parent_edge[child];
            let (f_u, _) = self.f_l(u);
            let c = if f_u % 2 == 1 { f_u - 1 } else { f_u };
            children[parent].push(Child { c, child, u, v });
        }
        for kids in &mut children {
            kids.sort_by_key(|ch| (ch.c, ch.child));
        }
        // Post-order totals.
        let mut total = vec![0u64; nodes.len()];
        for &t in order.iter().rev() {
            total[t] = lens[t]
                + children[t]
                    .iter()
                    .map(|ch| total[ch.child] + 4)
                    .sum::<u64>();
        }
        // Pre-order offsets, breakpoints, and new edge records. The
        // merged tour keeps the root's id (cf. `split_tour`, whose
        // root region keeps the split tour's id).
        let new_tour = nodes[root];
        let mut plans: Vec<NodePlan> = vec![NodePlan::default(); nodes.len()];
        let mut new_recs: Vec<(Edge, EdgeRec)> = Vec::new();
        for &t in &order {
            let offset = plans[t].offset;
            let mut running = 0u64;
            let mut breakpoints = PosMap::default();
            for ch in &children[t] {
                let block_start = offset + ch.c + running;
                let w = total[ch.child];
                new_recs.push((
                    Edge::new(ch.u, ch.v),
                    EdgeRec {
                        tour: new_tour,
                        first: Traversal {
                            pos: block_start + 1,
                            from: ch.u,
                        },
                        second: Traversal {
                            pos: block_start + w + 3,
                            from: ch.v,
                        },
                    },
                ));
                plans[ch.child].offset = block_start + 2;
                running += w + 4;
                breakpoints.push(ch.c, w + 4);
            }
            plans[t].breakpoints = breakpoints;
        }
        // Local application: tours outside the component are never
        // visited. The root's plan is composed onto its pending map, so
        // only its fresh run is remapped now; its base waits for the
        // next full pass. The children, exact since their reroot, are
        // remapped and spliced into the root's fresh run (or, when they
        // carry at least as many edges as its base, merged into it).
        let mut tour = self.take_tour(new_tour);
        let child_edges = order[1..].iter().map(|&t| lens[t] / 4).sum::<u64>() as usize;
        tour.remap(&plans[root].breakpoints);
        let mut merged = Vec::with_capacity(child_edges + new_recs.len());
        // Membership: the root's members keep their tour assignment
        // (the merged tour is the root's), so only the child runs are
        // relabelled.
        let mut extra: Vec<VertexId> = Vec::new();
        for &t in &order[1..] {
            let plan = &plans[t];
            let mut child = self.take_tour(nodes[t]);
            debug_assert!(
                child.deferred.is_none(),
                "a child is exact after its reroot"
            );
            for (_, rec) in child.edges.iter_mut() {
                rec.first.pos = plan.map(rec.first.pos);
                rec.second.pos = plan.map(rec.second.pos);
                rec.tour = new_tour;
            }
            merged.append(&mut child.edges);
            extra.append(&mut child.members);
        }
        // The k new edges ride the same splice instead of k separate
        // shard inserts; only their adjacency entries are per-edge.
        for (e, rec) in new_recs {
            self.add_adjacency(e);
            merged.push((e, rec));
        }
        tour.attach(merged);
        for &w in &extra {
            self.set_vertex_tour(w, new_tour);
        }
        splice_sorted(&mut tour.members, extra, |&v| v);
        self.put_tour(new_tour, tour);
    }

    /// Removes `edges` (all forest edges) in `O(1)` rounds, splitting
    /// their tours along the laminar family of subtree intervals
    /// (Section 6.3). Returns the ids of all resulting tours
    /// (including fresh singleton tours).
    ///
    /// # Errors
    ///
    /// [`MpcError::GatherTooLarge`] if the `4k`-word gather does not
    /// fit one machine. It is charged before the forest changes, so the
    /// forest is then untouched.
    ///
    /// # Panics
    ///
    /// Panics if any edge is not a forest edge.
    pub fn try_batch_split(
        &mut self,
        edges: &[Edge],
        ctx: &mut MpcContext,
    ) -> Result<Vec<TourId>, MpcError> {
        if edges.is_empty() {
            return Ok(Vec::new());
        }
        let k = edges.len() as u64;
        ctx.gather(4 * k)?;
        ctx.sort(8 * k);
        ctx.broadcast(4);
        Ok(self.batch_split_uncharged(edges))
    }

    /// [`DistEtf::try_batch_split`] for drivers that size their batches
    /// to one machine (tests and benches).
    ///
    /// # Panics
    ///
    /// Panics if the gather does not fit one machine or if any edge is
    /// not a forest edge.
    #[expect(
        clippy::expect_used,
        reason = "documented \"# Panics\" precondition — for drivers that size their batches to one machine; the rest call try_batch_split"
    )]
    pub fn batch_split(&mut self, edges: &[Edge], ctx: &mut MpcContext) -> Vec<TourId> {
        self.try_batch_split(edges, ctx)
            .expect("batch fits one machine")
    }

    pub(crate) fn batch_split_uncharged(&mut self, edges: &[Edge]) -> Vec<TourId> {
        // Group the deleted edges by tour, each with its interval: one
        // sort of (tour, cut) pairs, so each tour's cuts come sorted.
        let mut by_tour: Vec<(TourId, Cut)> = edges
            .iter()
            .map(|&e| {
                #[expect(
                    clippy::panic,
                    reason = "documented \"# Panics\" precondition — ExactMsf deletes only tracked tree edges"
                )]
                let rec = self
                    .edge_rec(e)
                    .unwrap_or_else(|| panic!("batch_split of non-tree edge {e}"));
                (rec.tour, (rec.first.pos, rec.second.pos, e, rec.first.from))
            })
            .collect();
        by_tour.sort_unstable();
        let cuts: Vec<Cut> = by_tour.iter().map(|&(_, cut)| cut).collect();
        let mut result_tours = Vec::new();
        let mut at = 0;
        for tour in by_tour.chunk_by(|a, b| a.0 == b.0) {
            result_tours.extend(self.split_tour(tour[0].0, &cuts[at..at + tour.len()]));
            at += tour.len();
        }
        result_tours
    }

    /// Cuts forest edges out of tour `t` in work proportional to the
    /// regions that leave it, not to the tour. `cuts` holds one [`Cut`]
    /// per deleted edge, sorted — a laminar family of intervals `(p, q)`
    /// whose blocks `[p, q + 1]` leave the tour. The region inside cut
    /// `i` gets a fresh tour id and the root region keeps `t`. An `O(k)`
    /// sweep of the cuts gives every region's length and the plan that
    /// renumbers it, and the *longest* region keeps the tour record.
    /// Each other region's edges and members are found by walking the
    /// forest adjacency from a vertex inside it, once the deleted edges
    /// are out of it. The kept region gives up those records and the
    /// deleted ones in one front-to-back pass over its runs, renumbers
    /// its fresh run and defers the rest of its renumbering to the
    /// tour's pending map ([`Tour::keep_region`]); the records it gives
    /// up are renumbered into their regions. Returns the resulting
    /// tours: fresh singletons, then regions, then the root.
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn split_tour(&mut self, t: TourId, cuts: &[Cut]) -> Vec<TourId> {
        let k = cuts.len();
        // Region slots: `i < k` is the inside of cut `i`, `k` the root
        // region. `span` is a region before the cuts: the position in
        // front of its first entry, and its length.
        let root = k;
        let mut tour = self.take_tour(t);
        let old_len = 4 * tour.len() as u64;
        let span = |r: usize| match cuts.get(r) {
            Some(&(p, q, _, _)) => (p + 1, q - p - 2),
            None => (0, old_len),
        };
        // One stack sweep flattens the family into sorted segments
        // (`Seg`): within a segment both the region and the words
        // removed in front of `x` are constant. A deleted edge's own
        // record is found at its `p`.
        let mut removed = vec![0u64; k + 1]; // words cut out of each region
        let mut segs: Vec<Seg> = Vec::with_capacity(3 * k + 1);
        segs.push((0, root, 0));
        let mut stack: Vec<usize> = Vec::new();
        for (i, p) in cuts.iter().map(|c| c.0).chain([u64::MAX]).enumerate() {
            while let Some(&top) = stack.last() {
                let (top_p, top_q, _, _) = cuts[top];
                if top_q + 1 >= p {
                    break;
                }
                stack.pop();
                let r = stack.last().copied().unwrap_or(root);
                removed[r] += top_q - top_p + 2;
                segs.push((top_q + 1, r, span(r).0 + removed[r]));
            }
            if i < k {
                segs.push((p, DOOMED, 0));
                segs.push((p + 1, i, p + 1));
                stack.push(i);
            }
        }
        // Region lengths are read off the plan alone.
        let len_of = |r: usize| span(r).1 - removed[r];
        let keep = (0..=k).max_by_key(|&r| len_of(r)).unwrap_or(root);
        let ids: Vec<TourId> = (0..k).map(|_| self.fresh_id()).chain([t]).collect();
        // The kept region's renumbering as a position map over its own
        // segments. A segment starts at 0 or on the second entry of a
        // deleted edge's traversal, never on a surviving traversal.
        let mut kept = PosMap::default();
        for (i, &(start, r, delta)) in segs.iter().enumerate() {
            let end = segs.get(i + 1).map_or(UNBOUNDED, |s| s.0 - 1);
            if r == keep && start | 1 <= end {
                kept.push_piece(start | 1, end, 0u64.wrapping_sub(delta));
            }
        }
        // Only an endpoint of a deleted edge can have lost its last
        // edge; each such vertex empties exactly once.
        let mut left: Vec<VertexId> = Vec::new();
        for &(_, _, e, _) in cuts {
            self.remove_adjacency(e);
            left.extend(
                [e.u(), e.v()]
                    .iter()
                    .filter(|&&v| self.neighbors(v).is_empty()),
            );
        }
        left.sort_unstable();
        let mut result = Vec::with_capacity(left.len() + k + 1);
        for &w in &left {
            let id = self.fresh_id();
            self.set_vertex_tour(w, id);
            self.put_tour(id, Tour::singleton(w));
            result.push(id);
        }
        // The other regions, each walked over the adjacency from a seed
        // inside it: a cut's inner endpoint, or for the root region the
        // outer endpoint of cut 0, which no other cut encloses. A region
        // of no edges is one of the singletons above.
        let mut gone: Vec<Edge> = cuts.iter().map(|c| c.2).collect();
        let mut gone_members = left;
        let mut members: Vec<Vec<VertexId>> = vec![Vec::new(); k + 1];
        for r in (0..=k).filter(|&r| r != keep && len_of(r) > 0) {
            let seed = match cuts.get(r) {
                Some(&(_, _, e, from)) => e.other(from),
                None => cuts[0].3,
            };
            let region = &mut members[r];
            region.push(seed);
            let mut stack = vec![(seed, seed)];
            while let Some((v, parent)) = stack.pop() {
                for &w in self.neighbors(v).iter().filter(|&&w| w != parent) {
                    gone.push(Edge::new(v, w));
                    region.push(w);
                    stack.push((w, v));
                }
            }
            gone_members.extend_from_slice(region);
            region.sort_unstable();
            for &w in region.iter() {
                self.set_vertex_tour(w, ids[r]);
            }
        }
        // The kept region gives up the walked records and the deleted
        // ones, in edge order, and defers its own renumbering; each
        // walked record is renumbered into its region's run.
        gone.sort_unstable();
        gone_members.sort_unstable();
        let rename = (keep != root).then_some(ids[keep]);
        let mut edges: Vec<Shard> = vec![Vec::new(); k + 1];
        for (e, rec) in tour.keep_region(&gone, &kept, rename) {
            if let Some((r, mut rec)) = renumber(&segs, rec) {
                debug_assert_ne!(r, keep, "the walk left its region at {e}");
                rec.tour = ids[r];
                edges[r].push((e, rec));
            }
        }
        extract_sorted(&mut tour.members, &gone_members, |&v| v);
        if let Some(id) = rename {
            for &w in &tour.members {
                self.set_vertex_tour(w, id);
            }
        }
        let mut regions: Vec<Tour> = edges
            .into_iter()
            .zip(members)
            .map(|(edges, members)| Tour {
                edges,
                deferred: None,
                members,
            })
            .collect();
        regions[keep] = tour;
        for (r, region) in regions.into_iter().enumerate() {
            if !region.members.is_empty() {
                debug_assert!(
                    r == keep || 4 * region.len() as u64 == len_of(r),
                    "region {r} walked short"
                );
                self.put_tour(ids[r], region);
                result.push(ids[r]);
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tour::validate;
    use mpc_hashing::rng::StdRng;
    use mpc_sim::MpcConfig;
    use std::collections::{BTreeMap, BTreeSet};

    fn ctx() -> MpcContext {
        // Capacity sized so the test batches (up to 32 edges) pass the
        // gather gate; the gate itself is covered by mpc-sim tests.
        MpcContext::new(MpcConfig::builder(256, 0.5).local_capacity(4096).build())
    }

    #[test]
    fn batch_join_two_singletons() {
        let mut c = ctx();
        let mut etf = DistEtf::new(4);
        etf.batch_join(&[Edge::new(0, 1)], &mut c).unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_of(0), etf.tour_of(1));
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4);
    }

    #[test]
    fn batch_join_chain_of_singletons() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        let edges: Vec<Edge> = (0..7u32).map(|i| Edge::new(i, i + 1)).collect();
        etf.batch_join(&edges, &mut c).unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_len(etf.tour_of(0)), 28);
    }

    #[test]
    fn batch_join_star_of_singletons() {
        let mut c = ctx();
        let mut etf = DistEtf::new(9);
        let edges: Vec<Edge> = (1..9u32).map(|i| Edge::new(0, i)).collect();
        etf.batch_join(&edges, &mut c).unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.occurrences(0).len(), 16);
    }

    #[test]
    fn batch_join_existing_trees() {
        let mut c = ctx();
        let mut etf = DistEtf::new(12);
        // Three paths of 4 vertices each.
        for base in [0u32, 4, 8] {
            for i in 0..3 {
                etf.join(Edge::new(base + i, base + i + 1), &mut c);
            }
        }
        // Join them at interior vertices in one batch.
        etf.batch_join(&[Edge::new(1, 6), Edge::new(5, 10)], &mut c)
            .unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_of(0), etf.tour_of(11));
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4 * 11);
    }

    #[test]
    fn batch_join_multiple_children_same_terminal() {
        let mut c = ctx();
        let mut etf = DistEtf::new(10);
        for i in 0..2u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        // Three separate trees all attach to vertex 1.
        etf.batch_join(&[Edge::new(1, 5), Edge::new(1, 6), Edge::new(1, 7)], &mut c)
            .unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_members(etf.tour_of(1)).len(), 6);
    }

    #[test]
    fn batch_join_deep_auxiliary_tree() {
        let mut c = ctx();
        let mut etf = DistEtf::new(16);
        // Four paths; chain them through a deep auxiliary tree.
        for base in [0u32, 4, 8, 12] {
            for i in 0..3 {
                etf.join(Edge::new(base + i, base + i + 1), &mut c);
            }
        }
        etf.batch_join(
            &[Edge::new(2, 4), Edge::new(6, 9), Edge::new(11, 13)],
            &mut c,
        )
        .unwrap();
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_len(etf.tour_of(0)), 4 * 15);
    }

    #[test]
    fn batch_join_keeps_a_spanning_forest_of_the_candidates() {
        let mut c = ctx();
        let mut etf = DistEtf::new(6);
        etf.join(Edge::new(3, 4), &mut c);
        etf.join(Edge::new(4, 5), &mut c);
        // (3,5) lies inside one tour and (0,2) closes the cycle 0-1-2
        // of the auxiliary graph: both are passed over.
        let candidates = [
            Edge::new(0, 1),
            Edge::new(3, 5),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(2, 3),
        ];
        let kept = etf.batch_join(&candidates, &mut c).unwrap();
        validate(&etf).expect("valid");
        assert_eq!(kept, [Edge::new(0, 1), Edge::new(1, 2), Edge::new(2, 3)]);
        assert_eq!(etf.edge_count(), 5);
        assert_eq!(etf.tour_len(etf.tour_of(0)), 20);
        // Nothing left to join: no edge kept, nothing charged.
        let rounds = c.stats().rounds;
        assert!(etf.batch_join(&candidates, &mut c).unwrap().is_empty());
        assert_eq!(c.stats().rounds, rounds);
    }

    #[test]
    fn oversized_batches_fail_before_the_forest_changes() {
        let mut c = MpcContext::new(MpcConfig::builder(16, 0.5).local_capacity(8).build());
        let mut etf = DistEtf::new(8);
        let path: Vec<Edge> = (0..3u32).map(|i| Edge::new(i, i + 1)).collect();
        let too_large = MpcError::GatherTooLarge {
            words: 12,
            capacity: 8,
        };
        assert_eq!(etf.batch_join(&path, &mut c), Err(too_large.clone()));
        validate(&etf).expect("valid");
        assert_eq!(etf.edge_count(), 0);
        // Two, then one, fit; splitting all three does not.
        etf.batch_join(&path[..2], &mut c).unwrap();
        etf.batch_join(&path[2..], &mut c).unwrap();
        let tour = etf.tour_of(0);
        assert_eq!(etf.try_batch_split(&path, &mut c), Err(too_large));
        validate(&etf).expect("valid");
        assert_eq!(etf.tour_members(tour), [0, 1, 2, 3]);
        assert_eq!(etf.tour_len(tour), 12);
    }

    #[test]
    fn batch_split_middle_edges() {
        let mut c = ctx();
        let mut etf = DistEtf::new(12);
        for i in 0..11u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        let out = etf.batch_split(&[Edge::new(3, 4), Edge::new(7, 8)], &mut c);
        validate(&etf).expect("valid");
        assert_eq!(out.len(), 3);
        assert_eq!(etf.tour_of(0), etf.tour_of(3));
        assert_eq!(etf.tour_of(4), etf.tour_of(7));
        assert_eq!(etf.tour_of(8), etf.tour_of(11));
        assert_ne!(etf.tour_of(3), etf.tour_of(4));
        assert_ne!(etf.tour_of(7), etf.tour_of(8));
    }

    #[test]
    fn batch_split_nested_subtrees() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        // Caterpillar: path 0-1-2-3 with leaves 4,5 on 1 and 6,7 on 2.
        for i in 0..3u32 {
            etf.join(Edge::new(i, i + 1), &mut c);
        }
        etf.join(Edge::new(1, 4), &mut c);
        etf.join(Edge::new(1, 5), &mut c);
        etf.join(Edge::new(2, 6), &mut c);
        etf.join(Edge::new(2, 7), &mut c);
        // Delete a nested pair: the edge into 2's subtree and an edge
        // inside it.
        let out = etf.batch_split(&[Edge::new(1, 2), Edge::new(2, 6)], &mut c);
        validate(&etf).expect("valid");
        assert!(out.len() >= 3);
        assert_eq!(etf.tour_of(0), etf.tour_of(5));
        assert_eq!(etf.tour_of(2), etf.tour_of(3));
        assert_eq!(etf.tour_of(2), etf.tour_of(7));
        assert_ne!(etf.tour_of(1), etf.tour_of(2));
        assert_ne!(etf.tour_of(6), etf.tour_of(2));
        assert_eq!(etf.tour_len(etf.tour_of(6)), 0);
    }

    #[test]
    fn batch_split_everything() {
        let mut c = ctx();
        let mut etf = DistEtf::new(5);
        let edges: Vec<Edge> = (0..4u32).map(|i| Edge::new(i, i + 1)).collect();
        etf.batch_join(&edges, &mut c).unwrap();
        let out = etf.batch_split(&edges, &mut c);
        validate(&etf).expect("valid");
        assert_eq!(out.len(), 5);
        for v in 0..5u32 {
            assert_eq!(etf.tour_len(etf.tour_of(v)), 0);
        }
    }

    /// A path over `vs` (consecutive vertices joined), rooted at its
    /// first vertex; returns its tour id.
    fn rooted_path(etf: &mut DistEtf, c: &mut MpcContext, vs: std::ops::Range<u32>) -> TourId {
        for i in vs.start..vs.end - 1 {
            etf.join(Edge::new(i, i + 1), c);
        }
        etf.reroot(vs.start, c);
        etf.tour_of(vs.start)
    }

    #[test]
    fn split_next_to_the_root_keeps_the_detached_side_in_place() {
        let mut c = ctx();
        let mut etf = DistEtf::new(10);
        let t = rooted_path(&mut etf, &mut c, 0..10);
        // Root region {0, 1} is short; the region below the cut is the
        // longest, so it inherits the vectors — under a fresh id.
        let out = etf.batch_split(&[Edge::new(1, 2)], &mut c);
        validate(&etf).expect("valid");
        let below = etf.tour_of(2);
        assert_eq!(out, vec![below, t]);
        assert!(below > t);
        assert_eq!(etf.tour_members(t), [0, 1]);
        assert_eq!(etf.tour_len(t), 4);
        assert_eq!(etf.tour_members(below), [2, 3, 4, 5, 6, 7, 8, 9]);
        assert_eq!(etf.tour_len(below), 28);
        assert!((2..10).all(|v| etf.tour_of(v) == below));
        assert!(etf.tour_edges(below).all(|(_, rec)| rec.tour == below));
    }

    #[test]
    fn split_nested_cuts_with_the_innermost_region_longest() {
        let mut c = ctx();
        let mut etf = DistEtf::new(12);
        let t = rooted_path(&mut etf, &mut c, 0..10);
        etf.join(Edge::new(2, 10), &mut c);
        etf.reroot(0, &mut c);
        // Cut (1,2) encloses cut (3,4): regions {0,1} (root), {2,3,10}
        // and the innermost {4..9}, the longest.
        let out = etf.batch_split(&[Edge::new(3, 4), Edge::new(1, 2)], &mut c);
        validate(&etf).expect("valid");
        let (outer, inner) = (etf.tour_of(2), etf.tour_of(4));
        assert_eq!(out, vec![outer, inner, t]);
        assert_eq!(inner, outer + 1);
        assert_eq!(etf.tour_members(t), [0, 1]);
        assert_eq!(etf.tour_len(t), 4);
        assert_eq!(etf.tour_members(outer), [2, 3, 10]);
        assert_eq!(etf.tour_len(outer), 8);
        assert_eq!(etf.tour_members(inner), [4, 5, 6, 7, 8, 9]);
        assert_eq!(etf.tour_len(inner), 20);
        assert_eq!(etf.tour_of(10), outer);
        assert_eq!(etf.tour_of(11), 11);
    }

    #[test]
    fn split_into_equal_length_regions() {
        let mut c = ctx();
        let mut etf = DistEtf::new(4);
        let t = rooted_path(&mut etf, &mut c, 0..4);
        let out = etf.batch_split(&[Edge::new(1, 2)], &mut c);
        validate(&etf).expect("valid");
        let below = etf.tour_of(2);
        assert_eq!(out, vec![below, t]);
        assert_eq!((etf.tour_of(0), etf.tour_of(1)), (t, t));
        assert_eq!(etf.tour_of(3), below);
        assert_eq!(etf.tour_members(t), [0, 1]);
        assert_eq!(etf.tour_members(below), [2, 3]);
        assert_eq!((etf.tour_len(t), etf.tour_len(below)), (4, 4));
    }

    #[test]
    fn split_star_centre_from_every_leaf_leaves_only_singletons() {
        let mut c = ctx();
        let mut etf = DistEtf::new(9);
        let edges: Vec<Edge> = (1..9u32).map(|i| Edge::new(0, i)).collect();
        etf.batch_join(&edges, &mut c).unwrap();
        let t = etf.tour_of(0);
        let out = etf.batch_split(&edges, &mut c);
        validate(&etf).expect("valid");
        // Every region is empty: nine fresh singletons in ascending
        // vertex order (after the eight unused region ids), no shard.
        assert_eq!(out.len(), 9);
        assert!(out.windows(2).all(|w| w[0] + 1 == w[1]));
        assert_eq!(etf.edge_count(), 0);
        assert!(etf.tours().all(|id| id != t));
        for v in 0..9u32 {
            assert_eq!(etf.tour_of(v), out[v as usize]);
            assert_eq!(etf.tour_members(out[v as usize]), [v]);
            assert_eq!(etf.tour_len(out[v as usize]), 0);
            assert_eq!(etf.tour_edges(out[v as usize]).count(), 0);
        }
    }

    #[test]
    fn split_first_and_last_shard_records() {
        let mut c = ctx();
        let mut etf = DistEtf::new(8);
        let t = rooted_path(&mut etf, &mut c, 0..8);
        let shard: Vec<Edge> = etf.tour_edges(t).map(|(e, _)| e).collect();
        let (first, last) = (shard[0], shard[shard.len() - 1]);
        assert_eq!((first, last), (Edge::new(0, 1), Edge::new(6, 7)));
        let out = etf.batch_split(&[last, first], &mut c);
        validate(&etf).expect("valid");
        // The root 0 and the leaf 7 fall off as singletons; the middle
        // {1..6} is the region inside cut (0,1).
        let middle = etf.tour_of(1);
        assert_eq!(out, vec![etf.tour_of(0), etf.tour_of(7), middle]);
        assert!(etf.tours().all(|id| id != t));
        assert_eq!(etf.tour_members(middle), [1, 2, 3, 4, 5, 6]);
        assert_eq!(etf.tour_len(middle), 20);
        assert_eq!(etf.tour_edges(middle).count(), 5);
        assert_eq!(etf.tour_members(etf.tour_of(0)), [0]);
        assert_eq!(etf.tour_members(etf.tour_of(7)), [7]);
        assert_eq!(
            (etf.tour_len(etf.tour_of(0)), etf.tour_len(etf.tour_of(7))),
            (0, 0)
        );
    }

    #[test]
    fn split_leaves_a_neighbour_tour_in_the_batch_untouched() {
        let mut c = ctx();
        let mut etf = DistEtf::new(12);
        let a = rooted_path(&mut etf, &mut c, 0..6);
        let b = rooted_path(&mut etf, &mut c, 6..12);
        let before: Vec<(Edge, EdgeRec)> = etf.tour_edges(b).collect();
        let out = etf.batch_split(&[Edge::new(3, 4)], &mut c);
        validate(&etf).expect("valid");
        let below = etf.tour_of(4);
        assert_eq!(out, vec![below, a]);
        assert_eq!(etf.tour_members(a), [0, 1, 2, 3]);
        assert_eq!(etf.tour_len(a), 12);
        assert_eq!(etf.tour_members(below), [4, 5]);
        assert_eq!(etf.tour_len(below), 4);
        let after: Vec<(Edge, EdgeRec)> = etf.tour_edges(b).collect();
        assert_eq!(before, after);
        assert_eq!(etf.tour_members(b), [6, 7, 8, 9, 10, 11]);
        assert_eq!(etf.tour_len(b), 20);
        assert!((6..12).all(|v| etf.tour_of(v) == b));
    }

    #[test]
    fn randomized_batch_churn_stays_valid() {
        let mut rng = StdRng::seed_from_u64(20240);
        for trial in 0..20 {
            let n = 24usize;
            let mut c = ctx();
            let mut etf = DistEtf::new(n);
            let mut live: Vec<Edge> = Vec::new();
            for step in 0..12 {
                if rng.gen_bool(0.6) || live.is_empty() {
                    // Batch join: random forest edges between distinct
                    // tours (and distinct tour pairs within the batch).
                    let mut batch = Vec::new();
                    let mut uf_tours: BTreeMap<TourId, u32> = BTreeMap::new();
                    let mut uf = UnionFind::new(n);
                    let mut attempts = 0;
                    while batch.len() < 4 && attempts < 200 {
                        attempts += 1;
                        let a = rng.gen_range(0..n as u32);
                        let b = rng.gen_range(0..n as u32);
                        if a == b {
                            continue;
                        }
                        let (ta, tb) = (etf.tour_of(a), etf.tour_of(b));
                        if ta == tb {
                            continue;
                        }
                        let next = uf_tours.len() as u32;
                        let ia = *uf_tours.entry(ta).or_insert(next);
                        let next = uf_tours.len() as u32;
                        let ib = *uf_tours.entry(tb).or_insert(next);
                        if !uf.union(ia, ib) {
                            continue;
                        }
                        batch.push(Edge::new(a, b));
                    }
                    if !batch.is_empty() {
                        etf.batch_join(&batch, &mut c).unwrap();
                        live.extend(&batch);
                    }
                } else {
                    // Batch split: random subset of live edges.
                    rng.shuffle(&mut live);
                    let take = rng.gen_range(1..=live.len().min(4));
                    let batch: Vec<Edge> = live.drain(..take).collect();
                    etf.batch_split(&batch, &mut c);
                }
                validate(&etf).unwrap_or_else(|v| {
                    panic!("trial {trial} step {step}: {v}");
                });
            }
        }
    }

    fn saved(etf: &DistEtf) -> Vec<u8> {
        use mpc_snapshot::{Persist, SnapshotWriter};
        let mut w = SnapshotWriter::new(0);
        w.begin_section("etf");
        etf.save(&mut w);
        w.end_section();
        w.finish()
    }

    /// The adjacency rows answer what the shards do: every row is
    /// strictly ascending, every entry is mirrored and has a record,
    /// `contains_edge` is `edge_rec(e).is_some()` on every pair of a
    /// vertex sample (each stride vertex, its first neighbour, and one
    /// vertex out of range), and `f_l` brackets `occurrences` on every
    /// vertex.
    fn dense_reads_agree(etf: &DistEtf, at: &str) {
        let n = etf.vertex_count() as u32;
        for v in 0..n {
            let row = etf.neighbors(v);
            assert!(row.is_sorted_by(|a, b| a < b), "{at}: row {v} {row:?}");
            for &w in row {
                // `contains_edge` probes the smaller endpoint's row, so
                // on the larger one's entries it reads the mirror.
                let e = Edge::new(v, w);
                assert!(
                    etf.contains_edge(e),
                    "{at}: row {v} lists {w}, not mirrored"
                );
                assert!(
                    etf.edge_rec(e).is_some(),
                    "{at}: row {v} lists {w}, no record"
                );
            }
        }
        let mut sample: Vec<VertexId> = (0..n).step_by((n as usize / 12).max(1)).collect();
        let near: Vec<VertexId> = sample
            .iter()
            .filter_map(|&v| etf.neighbors(v).first().copied())
            .collect();
        sample.extend(near);
        sample.push(n);
        for &a in &sample {
            for &b in sample.iter().filter(|&&b| b != a) {
                let e = Edge::new(a, b);
                assert_eq!(
                    etf.contains_edge(e),
                    etf.edge_rec(e).is_some(),
                    "{at}: contains_edge({e})"
                );
            }
        }
        for v in 0..n {
            let occ = etf.occurrences(v);
            let expected = occ
                .first()
                .zip(occ.last())
                .map_or((0, 0), |(&f, &l)| (f, l));
            assert_eq!(etf.f_l(v), expected, "{at}: f_l({v})");
        }
    }

    /// What a twin run reached: each count names a path on which the
    /// lazy state is applied, carried or cut.
    #[derive(Debug, Default)]
    struct Reached {
        /// A join crossed the bound and applied the deferred work.
        fired: usize,
        /// A tour with deferred state joined as a child.
        lazy_children: usize,
        /// A split cut a tour with a fresh run.
        fresh_splits: usize,
        /// A split removed records from a base run it left lazy.
        lazy_removals: usize,
        /// A split left a cut's interior, under its fresh id, as the
        /// lazy kept region.
        renamed_keeps: usize,
        /// A cut nested inside another cut's region, which was cut off.
        nested_cutoffs: usize,
        /// A cut edge re-inserted into the tour it was cut from while
        /// that tour still had a pending map.
        lazy_rejoins: usize,
    }

    /// Drives seeded `batch_join`/`join`/`batch_split`/`split`/`reroot`
    /// sequences, plus re-insertions of edges cut before, on a forest
    /// left lazy and on a twin whose pending work is applied after
    /// every operation, and checks after each step that the two are
    /// indistinguishable through every read: the same snapshot bytes,
    /// records, occurrences and charges.
    fn twin_run(seed: u64, n: usize, trials: usize, steps: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut seen = Reached::default();
        for trial in 0..trials {
            let (mut cl, mut ce) = (ctx(), ctx());
            let (mut lazy, mut eager) = (DistEtf::new(n), DistEtf::new(n));
            // Edges cut so far, each with the tour its kept side read as.
            let mut cut_log: Vec<(Edge, TourId)> = Vec::new();
            for step in 0..steps {
                let before: BTreeMap<TourId, (usize, usize, usize)> =
                    lazy.tours().map(|t| (t, lazy.lazy_state(t))).collect();
                let vertex = |rng: &mut StdRng| rng.gen_range(0..n as u32);
                let forest: Vec<Edge> = lazy.forest_edges().collect();
                let rejoinable: Vec<(Edge, TourId)> = cut_log
                    .iter()
                    .copied()
                    .filter(|(e, _)| lazy.tour_of(e.u()) != lazy.tour_of(e.v()))
                    .collect();
                let mut joined = false;
                match rng.gen_range(0..12u32) {
                    0..=3 => {
                        let candidates: Vec<Edge> = (0..rng.gen_range(1..=6usize))
                            .map(|_| (vertex(&mut rng), vertex(&mut rng)))
                            .filter(|(a, b)| a != b)
                            .map(|(a, b)| Edge::new(a, b))
                            .collect();
                        let kept = lazy.batch_join(&candidates, &mut cl).unwrap();
                        assert_eq!(eager.batch_join(&candidates, &mut ce).unwrap(), kept);
                        joined = true;
                    }
                    4 | 5 => {
                        let (a, b) = (vertex(&mut rng), vertex(&mut rng));
                        if lazy.tour_of(a) != lazy.tour_of(b) {
                            lazy.join(Edge::new(a, b), &mut cl);
                            eager.join(Edge::new(a, b), &mut ce);
                            joined = true;
                        }
                    }
                    6..=8 if !forest.is_empty() => {
                        let cut: Vec<Edge> = (0..rng.gen_range(1..=4usize))
                            .map(|_| forest[rng.gen_range(0..forest.len())])
                            .collect::<BTreeSet<_>>()
                            .into_iter()
                            .collect();
                        let recs: Vec<(Edge, EdgeRec)> = cut
                            .iter()
                            .map(|&e| (e, lazy.edge_rec(e).unwrap()))
                            .collect();
                        if cut.iter().any(|e| before[&lazy.tour_of(e.u())].1 > 0) {
                            seen.fresh_splits += 1;
                        }
                        if cut.len() == 1 {
                            assert_eq!(lazy.split(cut[0], &mut cl), eager.split(cut[0], &mut ce));
                        } else {
                            let out = lazy.batch_split(&cut, &mut cl);
                            assert_eq!(eager.batch_split(&cut, &mut ce), out);
                        }
                        // The split's tours: every region borders a cut.
                        let sides: BTreeSet<TourId> = cut
                            .iter()
                            .flat_map(|e| [lazy.tour_of(e.u()), lazy.tour_of(e.v())])
                            .collect();
                        for &t in &sides {
                            let (base, fresh, pieces) = lazy.lazy_state(t);
                            if fresh + pieces == 0 {
                                continue;
                            }
                            // The tour left lazy is a kept region: its
                            // members all came from one tour.
                            let from = recs
                                .iter()
                                .find(|(e, _)| lazy.tour_of(e.u()) == t || lazy.tour_of(e.v()) == t)
                                .map(|(_, rec)| rec.tour)
                                .unwrap();
                            seen.lazy_removals += usize::from(pieces > 0 && base < before[&from].0);
                            seen.renamed_keeps += usize::from(!before.contains_key(&t));
                            cut_log.extend(
                                cut.iter()
                                    .filter(|e| {
                                        lazy.tour_of(e.u()) == t || lazy.tour_of(e.v()) == t
                                    })
                                    .map(|&e| (e, t)),
                            );
                        }
                        let longest = sides.iter().map(|&t| lazy.tour_len(t)).max().unwrap();
                        for (a, outer) in &recs {
                            let nested = recs.iter().any(|(_, inner)| {
                                inner.tour == outer.tour
                                    && outer.first.pos < inner.first.pos
                                    && inner.second.pos < outer.second.pos
                            });
                            let region = lazy.tour_len(lazy.tour_of(a.other(outer.first.from)));
                            seen.nested_cutoffs +=
                                usize::from(nested && 0 < region && region < longest);
                        }
                    }
                    9 if !rejoinable.is_empty() => {
                        let (e, kept) = rejoinable[rng.gen_range(0..rejoinable.len())];
                        let sides = [lazy.tour_of(e.u()), lazy.tour_of(e.v())];
                        if sides.iter().any(|&t| t == kept && before[&t].2 > 0) {
                            seen.lazy_rejoins += 1;
                        }
                        let kept_edges = lazy.batch_join(&[e], &mut cl).unwrap();
                        assert_eq!(eager.batch_join(&[e], &mut ce).unwrap(), kept_edges);
                        joined = true;
                    }
                    _ => {
                        let v = vertex(&mut rng);
                        lazy.reroot(v, &mut cl);
                        eager.reroot(v, &mut ce);
                    }
                }
                eager.materialize_all();
                if joined {
                    for (&t, &(base, fresh, pieces)) in &before {
                        if !lazy.tours().any(|id| id == t) {
                            seen.lazy_children += usize::from(fresh + pieces > 0);
                            continue;
                        }
                        let (now_base, now_fresh, _) = lazy.lazy_state(t);
                        let attached = now_base + now_fresh - base - fresh;
                        seen.fired += usize::from(now_base > base && attached < base);
                    }
                }
                let at = format!("trial {trial} step {step}");
                dense_reads_agree(&lazy, &at);
                assert_eq!(saved(&lazy), saved(&eager), "{at}: snapshot bytes");
                for e in eager.forest_edges() {
                    assert_eq!(lazy.edge_rec(e), eager.edge_rec(e), "{at}: {e}");
                }
                for t in eager.tours() {
                    assert!(lazy.tour_edges(t).eq(eager.tour_edges(t)), "{at}: tour {t}");
                }
                for v in 0..n as u32 {
                    assert_eq!(lazy.occurrences(v), eager.occurrences(v), "{at}: {v}");
                }
                assert_eq!(cl.stats(), ce.stats(), "{at}: charges");
                validate(&lazy).unwrap_or_else(|v| panic!("{at}: {v}"));
            }
        }
        let counts = [
            seen.fired,
            seen.lazy_children,
            seen.fresh_splits,
            seen.lazy_removals,
            seen.renamed_keeps,
            seen.nested_cutoffs,
            seen.lazy_rejoins,
        ];
        assert!(
            counts.iter().all(|&c| c > 0),
            "a path was not reached: {seen:?}"
        );
    }

    /// A forest left lazy matches its eager twin through joins and
    /// splits that leave deferred state behind (see [`Reached`] for the
    /// paths the seeded stream must reach).
    #[test]
    fn lazy_forest_matches_an_eager_twin() {
        twin_run(0x1a2e, 96, 16, 120);
    }

    /// The same on larger trees and longer runs. The pending map's
    /// debug assertions compile out in release, so CI runs this there,
    /// where the twin comparison is what checks the map.
    #[test]
    #[ignore = "deep variant: run in release with --ignored"]
    fn lazy_forest_matches_an_eager_twin_deep() {
        twin_run(0x5eed_1a2e, 512, 32, 400);
    }

    /// A root built by single joins keeps a fresh run that every later
    /// join and split renumbers; once that renumbering has cost one
    /// pass over the base, the tour applies it and is left exact.
    #[test]
    fn a_long_lived_fresh_run_is_applied() {
        let mut c = ctx();
        let (root, tree) = (1024u32, 4u32);
        let mut etf = DistEtf::new((root + 1 + tree) as usize);
        for v in 0..root {
            etf.join(Edge::new(v, v + 1), &mut c);
        }
        for v in root + 1..root + tree {
            etf.join(Edge::new(v, v + 1), &mut c);
        }
        let (base, fresh, _) = etf.lazy_state(etf.tour_of(0));
        assert!(fresh > 0, "the build leaves a fresh run");
        let link = [Edge::new(root / 2, root + 1)];
        for _ in 0..base / fresh {
            etf.batch_join(&link, &mut c).unwrap();
            etf.batch_split(&link, &mut c);
        }
        assert_eq!(etf.lazy_state(etf.tour_of(0)).1, 0, "fresh run applied");
        validate(&etf).unwrap();
    }

    #[test]
    fn batch_ops_charge_constant_rounds() {
        let mut c = ctx();
        let mut etf = DistEtf::new(64);
        let edges: Vec<Edge> = (0..32u32).map(|i| Edge::new(2 * i, 2 * i + 1)).collect();
        c.begin_phase("batch-join");
        etf.batch_join(&edges, &mut c).unwrap();
        let r = c.end_phase();
        let budget = 5 * c.config().round_budget_per_primitive();
        assert!(r.rounds <= budget, "join {} > {budget}", r.rounds);
        c.begin_phase("batch-split");
        etf.batch_split(&edges, &mut c);
        let r = c.end_phase();
        assert!(r.rounds <= budget, "split {} > {budget}", r.rounds);
    }
}
