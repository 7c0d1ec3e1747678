//! Sketch-based `k`-edge-connectivity certificate for dynamic
//! (insert + delete) streams.
//!
//! State: `k` independent banks of AGM vertex sketches (`t = Θ(log
//! n)` copies each), updated linearly in `O(1)` rounds per batch —
//! exactly the paper's update path, multiplied by `k`. Total memory
//! `Õ(k·n)` words.
//!
//! A certificate query **peels** (\[AGM12\] Section 3.2): layer `i`
//! runs the Borůvka cascade over bank `i` *minus* the
//! already-extracted forests `F_1 ∪ … ∪ F_{i-1}` to extract a maximal
//! spanning forest of `G ∖ (F_1 ∪ … ∪ F_{i-1})`. The residual is a
//! view, not a copy: sketch linearity (the paper's Remark 3.2) lets
//! each group's merge subtract the peeled edges that leave the group
//! straight from the merge scratch, so bank `i` is read, never
//! cloned. The query costs `Θ(k·log n)` MPC rounds
//! — the price of not maintaining the forests explicitly under
//! deletions, and the concrete gap the paper's Section 9 poses as an
//! open problem.

use crate::certificate::Certificate;
use mpc_graph::ids::Edge;
use mpc_graph::oracle::UnionFind;
use mpc_graph::update::{Batch, Update};
use mpc_sim::{MpcContext, MpcStreamError};
use mpc_sketch::cascade::{self, Untouched};
use mpc_sketch::SketchBank;

/// Dynamic-stream `k`-edge-connectivity via sketch peeling.
///
/// # Examples
///
/// ```
/// use mpc_kconn::{DynamicKConn, MinCut};
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::{Batch, Update};
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(8, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut kc = DynamicKConn::new(8, 2, 7);
/// // Build a cycle, then delete one edge: 2-edge-connected → bridge
/// // everywhere.
/// kc.apply_batch(
///     &Batch::inserting((0..8).map(|i| Edge::new(i, (i + 1) % 8))),
///     &mut ctx,
/// )?;
/// assert_eq!(kc.certificate(&mut ctx).min_cut(), MinCut::AtLeast(2));
/// kc.apply_batch(&Batch::deleting([Edge::new(0, 7)]), &mut ctx)?;
/// assert_eq!(kc.certificate(&mut ctx).min_cut(), MinCut::Exact(1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct DynamicKConn {
    n: usize,
    k: usize,
    banks: Vec<SketchBank>,
    last_query_rounds: u64,
}

impl DynamicKConn {
    /// Creates the maintainer for an empty `n`-vertex graph with
    /// resolution `k ≥ 1`, with `Θ(log n)` sketch copies per bank.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0`.
    pub fn new(n: usize, k: usize, seed: u64) -> Self {
        let log_n = (usize::BITS - (n.max(2) - 1).leading_zeros()).max(1) as usize;
        Self::with_copies(n, k, log_n + 6, seed)
    }

    /// Creates the maintainer with an explicit per-bank copy count
    /// (for ablations; `copies` trades failure probability for
    /// memory).
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `copies == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — k is a construction parameter"
    )]
    pub fn with_copies(n: usize, k: usize, copies: usize, seed: u64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        DynamicKConn {
            n,
            k,
            banks: (0..k)
                .map(|i| SketchBank::new(n, copies, seed.wrapping_add((i as u64) << 32)))
                .collect(),
            last_query_rounds: 0,
        }
    }

    /// Bootstraps the sketch banks from an arbitrary pre-existing
    /// simple graph (the paper's "pre-computation phase" remark,
    /// Section 1.1): one routing round loads every edge into its
    /// endpoints' shards, which ingest locally.
    ///
    /// # Errors
    ///
    /// [`MpcStreamError::InvalidBatch`] if an edge endpoint is `>= n`,
    /// or if an edge is listed twice (its cut coordinate would carry
    /// `±2`, which no sampler decodes as an edge). Every edge is
    /// checked before anything is charged or written.
    pub fn from_graph(
        n: usize,
        k: usize,
        seed: u64,
        edges: impl IntoIterator<Item = Edge>,
        ctx: &mut MpcContext,
    ) -> Result<Self, MpcStreamError> {
        let loaded = mpc_stream_core::simple_graph_in(edges, n)?;
        let mut kc = DynamicKConn::new(n, k, seed);
        ctx.exchange(1);
        for bank in &mut kc.banks {
            bank.update_edges(loaded.iter().map(|&e| (e, 1)));
        }
        Ok(kc)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// The certificate resolution.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Sketch copies per bank.
    pub fn copies(&self) -> usize {
        self.banks[0].copies()
    }

    /// Memory footprint in words (`Õ(k·n)`: all `k` sketch banks).
    pub fn words(&self) -> u64 {
        self.banks.iter().map(SketchBank::words).sum()
    }

    /// MPC rounds the most recent [`DynamicKConn::certificate`] call
    /// consumed (`Θ(k·log n)`).
    pub fn last_query_rounds(&self) -> u64 {
        self.last_query_rounds
    }

    /// Updates all `k` banks — `O(1)` rounds per batch, identical to
    /// the paper's sketch-update path. Deletions are the caller's
    /// contract (only live edges), as everywhere in the model.
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::InvalidBatch`] on an endpoint outside
    ///   `[0, n)` (state unchanged).
    /// * [`MpcStreamError::Capacity`] when the batch cannot fit one
    ///   machine.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        // One routing of the batch to the vertex shards; each shard
        // updates its columns in all k banks locally.
        mpc_stream_core::route_batch(batch, self.n, ctx)?;
        for bank in &mut self.banks {
            bank.update_edges(batch.iter().map(Update::signed));
        }
        Ok(())
    }

    /// Extracts a `k`-edge-connectivity certificate of the current
    /// graph by sketch peeling — `Θ(k·log n)` MPC rounds.
    ///
    /// Success is with high probability (each Borůvka level consumes
    /// a fresh sketch copy); [`Certificate::validate`] can be used to
    /// detect the rare failure.
    pub fn certificate(&self, ctx: &mut MpcContext) -> Certificate {
        let cert = Certificate::from_layers(self.n, self.peel(Vec::new(), ctx));
        // In the rare event a sampler stalled early, re-sort the
        // layer edges so the laminar maximality invariant holds (the
        // cut guarantee only needs edge-disjoint maximal forests).
        if cert.validate().is_err() {
            return relaminate(self.n, self.k, cert);
        }
        cert
    }

    /// The layers [`DynamicKConn::certificate`] peels, with `peeled`
    /// already subtracted from every bank before layer 1 (empty
    /// outside tests).
    fn peel(&self, mut peeled: Vec<Edge>, ctx: &mut MpcContext) -> Vec<Vec<Edge>> {
        let mut layers: Vec<Vec<Edge>> = Vec::with_capacity(self.k);
        for bank in &self.banks {
            // Subtract the already-extracted forests: route the O(k·n)
            // peeled edges to the shards, which subtract them from
            // each merge as it is built.
            ctx.sort(2 * peeled.len() as u64 + 1);
            let forest = boruvka_forest(bank, &PeeledRows::new(self.n, &peeled), self.n, ctx);
            peeled.extend(forest.iter().copied());
            layers.push(forest);
        }
        layers
    }

    /// Like [`DynamicKConn::certificate`] but records the consumed
    /// rounds in [`DynamicKConn::last_query_rounds`].
    pub fn certificate_mut(&mut self, ctx: &mut MpcContext) -> Certificate {
        let before = ctx.rounds();
        let cert = self.certificate(ctx);
        self.last_query_rounds = ctx.rounds() - before;
        cert
    }
}

impl mpc_stream_core::Maintain for DynamicKConn {
    fn name(&self) -> &'static str {
        "kconn-dynamic"
    }

    /// `O(k)`: one O(1) bank counter per layer.
    fn words(&self) -> u64 {
        DynamicKConn::words(self)
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The recompute-on-read side of the open problem: a cut query
    /// peels a fresh certificate at its genuine `Θ(k log n)` round
    /// cost (the charge the insert-only cascade's maintained
    /// certificate avoids).
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::MinCutLowerBound => {
                let cert = self.certificate_mut(ctx);
                let (lower, exact) = match cert.min_cut() {
                    crate::MinCut::Exact(v) => (v, true),
                    crate::MinCut::AtLeast(v) => (v, false),
                };
                Ok(QueryResponse::MinCut { lower, exact })
            }
            _ => return None,
        })
    }
}

/// The peeled edges grouped by endpoint (compressed rows): row `v`
/// lists every peeled edge at `v`, once per occurrence.
struct PeeledRows<'a> {
    peeled: &'a [Edge],
    /// Row `v` is `slots[start[v]..start[v + 1]]`.
    start: Vec<usize>,
    /// Indices into `peeled`.
    slots: Vec<u32>,
}

impl<'a> PeeledRows<'a> {
    fn new(n: usize, peeled: &'a [Edge]) -> Self {
        let mut start = vec![0usize; n + 1];
        for e in peeled {
            start[e.u() as usize + 1] += 1;
            start[e.v() as usize + 1] += 1;
        }
        for v in 1..=n {
            start[v] += start[v - 1];
        }
        let mut next = start.clone();
        let mut slots = vec![0u32; 2 * peeled.len()];
        for (i, e) in (0u32..).zip(peeled) {
            for v in [e.u(), e.v()] {
                slots[next[v as usize]] = i;
                next[v as usize] += 1;
            }
        }
        PeeledRows {
            peeled,
            start,
            slots,
        }
    }

    fn row(&self, v: u32) -> impl Iterator<Item = Edge> + '_ {
        let v = v as usize;
        self.slots[self.start[v]..self.start[v + 1]]
            .iter()
            .map(|&i| self.peeled[i as usize])
    }
}

/// Extracts a maximal spanning forest of the bank's graph minus the
/// `peeled` edges with the [`mpc_sketch::cascade`] Borůvka: one sketch
/// copy per level, one converge-cast + sort + broadcast per level.
///
/// The residual is never built. A group's merge adds its members'
/// columns, then subtracts each peeled edge at a member whose other
/// endpoint lies outside the group; an edge inside the group would be
/// subtracted at both ends and cancel (Lemma 3.3). Sketches are
/// linear, so every probe decodes what a probe of the residual bank
/// would.
fn boruvka_forest(
    bank: &SketchBank,
    peeled: &PeeledRows<'_>,
    n: usize,
    ctx: &mut MpcContext,
) -> Vec<Edge> {
    let mut forest = Vec::new();
    cascade::run(
        bank,
        &mut UnionFind::new(n),
        Untouched::Empty,
        |members, roots, s| {
            bank.merge_copy_into(members, s);
            for &v in members {
                for e in peeled.row(v) {
                    let other = if e.u() == v { e.v() } else { e.u() };
                    if roots[other as usize] != roots[v as usize] {
                        bank.update_edge_into(e, v, -1, s);
                    }
                }
            }
        },
        |e| Some((e.u(), e.v())),
        |found, accepted| {
            ctx.converge_cast(n as u64, bank.words_per_copy());
            ctx.sort(2 * found as u64 + 1);
            ctx.broadcast(2);
            forest.extend_from_slice(accepted);
        },
    );
    forest
}

/// Repairs a certificate whose layers lost laminar maximality to a
/// sampler stall: redistributes the same edge set through the
/// insert-only cascade (coordinator-local; the certificate has
/// `O(k·n)` edges).
fn relaminate(n: usize, k: usize, cert: Certificate) -> Certificate {
    let mut ufs: Vec<UnionFind> = (0..k).map(|_| UnionFind::new(n)).collect();
    let mut layers: Vec<Vec<Edge>> = vec![Vec::new(); k];
    for e in cert.edges() {
        for i in 0..k {
            if ufs[i].union(e.u(), e.v()) {
                layers[i].push(e);
                break;
            }
        }
    }
    Certificate::from_layers(n, layers)
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(DynamicKConn { n, k, banks, last_query_rounds } check |kc| {
    if kc.k == 0 || kc.banks.len() != kc.k {
        return Err(format!(
            "dynamic k-connectivity holds {} banks for k = {}",
            kc.banks.len(),
            kc.k
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::cuts;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(64, 0.5).local_capacity(1 << 15).build())
    }

    fn e(a: u32, b: u32) -> Edge {
        Edge::new(a, b)
    }

    #[test]
    fn empty_graph_yields_empty_certificate() {
        let mut c = ctx();
        let kc = DynamicKConn::new(8, 2, 1);
        let cert = kc.certificate(&mut c);
        assert_eq!(cert.edge_count(), 0);
        assert_eq!(cert.k(), 2);
        assert_eq!(cert.is_k_edge_connected(1), Some(false));
    }

    #[test]
    fn cycle_certificate_is_exact() {
        let n = 12u32;
        let mut c = ctx();
        let mut kc = DynamicKConn::new(n as usize, 3, 21);
        kc.apply_batch(&Batch::inserting((0..n).map(|i| e(i, (i + 1) % n))), &mut c)
            .expect("valid stream");
        let cert = kc.certificate(&mut c);
        assert_eq!(cert.validate(), Ok(()));
        assert_eq!(cert.min_cut(), crate::MinCut::Exact(2));
    }

    #[test]
    fn deletion_is_reflected_in_the_next_query() {
        let n = 10u32;
        let mut c = ctx();
        let mut kc = DynamicKConn::new(n as usize, 2, 5);
        kc.apply_batch(&Batch::inserting((0..n).map(|i| e(i, (i + 1) % n))), &mut c)
            .expect("valid stream");
        assert_eq!(kc.certificate(&mut c).is_k_edge_connected(2), Some(true));
        kc.apply_batch(&Batch::deleting([e(3, 4)]), &mut c)
            .expect("valid stream");
        let cert = kc.certificate(&mut c);
        assert_eq!(cert.is_k_edge_connected(2), Some(false));
        assert_eq!(cert.is_k_edge_connected(1), Some(true));
        assert_eq!(
            cert.bridges(),
            Some(cuts::bridges(
                n as usize,
                &(0..n)
                    .map(|i| e(i, (i + 1) % n))
                    .filter(|ed| *ed != e(3, 4))
                    .collect::<Vec<_>>(),
            ))
        );
    }

    #[test]
    fn peeled_certificate_matches_oracle_on_random_dynamic_streams() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(777);
        for trial in 0..10 {
            let n = rng.gen_range(6..14usize);
            let k = rng.gen_range(1..4usize);
            let mut c = ctx();
            let mut kc = DynamicKConn::new(n, k, trial as u64 * 31 + 1);
            let mut live: Vec<Edge> = Vec::new();
            // Three phases: insert, mixed, delete.
            for phase in 0..3 {
                let mut batch = Batch::new();
                for _ in 0..6 {
                    let del = phase == 2 || (phase == 1 && rng.gen_bool(0.4));
                    if del && !live.is_empty() {
                        let i = rng.gen_range(0..live.len());
                        let ed = live.swap_remove(i);
                        batch.push(mpc_graph::update::Update::Delete(ed));
                    } else {
                        let a = rng.gen_range(0..n as u32);
                        let b = rng.gen_range(0..n as u32);
                        if a == b {
                            continue;
                        }
                        let ed = e(a, b);
                        if live.contains(&ed) {
                            continue;
                        }
                        live.push(ed);
                        batch.push(mpc_graph::update::Update::Insert(ed));
                    }
                }
                kc.apply_batch(&batch, &mut c).expect("valid stream");
                let cert = kc.certificate(&mut c);
                let lambda_g = cuts::edge_connectivity(n, &live);
                let lambda_c = cuts::edge_connectivity(n, &cert.edges());
                assert_eq!(
                    lambda_g.min(k as u64),
                    lambda_c.min(k as u64),
                    "trial {trial} phase {phase}: n={n} k={k}"
                );
                // Certificate edges must be live edges.
                for ce in cert.edges() {
                    assert!(live.contains(&ce), "trial {trial}: ghost edge {ce:?}");
                }
            }
        }
    }

    /// The clone-and-subtract peel the residual view replaced, kept as
    /// its reference: layer `i` clones bank `i`, deletes every peeled
    /// edge from the copy, and runs the cascade over the copy.
    fn peel_by_clone(
        kc: &DynamicKConn,
        mut peeled: Vec<Edge>,
        ctx: &mut MpcContext,
    ) -> Vec<Vec<Edge>> {
        let mut layers: Vec<Vec<Edge>> = Vec::with_capacity(kc.k);
        for bank in &kc.banks {
            let mut residual = bank.clone();
            ctx.sort(2 * peeled.len() as u64 + 1);
            for &e in &peeled {
                residual.delete_edge(e);
            }
            let forest = boruvka_forest(&residual, &PeeledRows::new(kc.n, &[]), kc.n, ctx);
            peeled.extend(forest.iter().copied());
            layers.push(forest);
        }
        layers
    }

    /// The residual view peels the layers the clone peels, at the same
    /// rounds and words, on random dynamic streams. Three copies stall
    /// cascades often enough to need `relaminate`. A forged peeled edge
    /// at a never-touched vertex — which the clone materializes — must
    /// come out the same too.
    #[test]
    fn residual_view_peels_what_the_clone_peels() {
        use mpc_hashing::rng::StdRng;
        let mut rng = StdRng::seed_from_u64(2718);
        let (mut relaminated, mut forged_peeled) = (0, 0);
        for trial in 0..36u64 {
            let n = rng.gen_range(8..24usize);
            let k = 1 + trial as usize % 3;
            let copies = if trial % 2 == 0 { 3 } else { 8 };
            let mut kc = DynamicKConn::with_copies(n, k, copies, trial * 97 + 5);
            // The stream never touches vertex n - 1.
            let untouched = n as u32 - 1;
            let forged = e(rng.gen_range(0..untouched), untouched);
            let mut live: Vec<Edge> = Vec::new();
            for phase in 0..4 {
                let mut batch = Batch::new();
                for _ in 0..3 * n {
                    if phase == 3 && !live.is_empty() && rng.gen_bool(0.5) {
                        let ed = live.swap_remove(rng.gen_range(0..live.len()));
                        batch.push(mpc_graph::update::Update::Delete(ed));
                        continue;
                    }
                    let (a, b) = (rng.gen_range(0..untouched), rng.gen_range(0..untouched));
                    if a != b && !live.contains(&e(a, b)) && rng.gen_bool(0.3) {
                        live.push(e(a, b));
                        batch.push(mpc_graph::update::Update::Insert(e(a, b)));
                    }
                }
                kc.apply_batch(&batch, &mut ctx()).expect("valid stream");
                for initial in [vec![], vec![forged]] {
                    let (mut view_ctx, mut clone_ctx) = (ctx(), ctx());
                    let view = kc.peel(initial.clone(), &mut view_ctx);
                    let clone = peel_by_clone(&kc, initial.clone(), &mut clone_ctx);
                    let at = format!("trial {trial} phase {phase} initial {initial:?}");
                    assert_eq!(view, clone, "{at}");
                    assert_eq!(view_ctx.stats().rounds, clone_ctx.stats().rounds, "{at}");
                    assert_eq!(
                        view_ctx.stats().words_communicated,
                        clone_ctx.stats().words_communicated,
                        "{at}"
                    );
                    if initial.is_empty() {
                        let mut query_ctx = ctx();
                        kc.certificate_mut(&mut query_ctx);
                        assert_eq!(kc.last_query_rounds(), clone_ctx.stats().rounds, "{at}");
                        if Certificate::from_layers(n, view).validate().is_err() {
                            relaminated += 1;
                        }
                    } else if view.iter().flatten().any(|&x| x == forged) {
                        forged_peeled += 1;
                    }
                }
            }
        }
        assert!(relaminated > 0, "no stalled peel needed relaminate");
        assert!(forged_peeled > 0, "the forged edge was never sampled");
    }

    #[test]
    fn query_rounds_grow_with_k() {
        let n = 32u32;
        let mut c = ctx();
        let batch = Batch::inserting((0..n - 1).map(|i| e(i, i + 1)));
        let mut kc1 = DynamicKConn::new(n as usize, 1, 3);
        kc1.apply_batch(&batch, &mut c).expect("valid stream");
        let _ = kc1.certificate_mut(&mut c);
        let r1 = kc1.last_query_rounds();
        let mut kc3 = DynamicKConn::new(n as usize, 3, 3);
        kc3.apply_batch(&batch, &mut c).expect("valid stream");
        let _ = kc3.certificate_mut(&mut c);
        let r3 = kc3.last_query_rounds();
        assert!(r3 > r1, "k=3 query ({r3}) should cost more than k=1 ({r1})");
        assert!(r1 > 0);
    }

    #[test]
    fn words_scale_with_k() {
        let mut c = ctx();
        let batch = Batch::inserting([e(0, 1), e(1, 2)]);
        let mut kc1 = DynamicKConn::new(64, 1, 3);
        kc1.apply_batch(&batch, &mut c).expect("valid stream");
        let mut kc4 = DynamicKConn::new(64, 4, 3);
        kc4.apply_batch(&batch, &mut c).expect("valid stream");
        assert_eq!(kc4.words(), 4 * kc1.words());
        assert_eq!(kc4.copies(), kc1.copies());
        assert_eq!(kc4.k(), 4);
        assert_eq!(kc4.vertex_count(), 64);
    }

    #[test]
    fn with_copies_controls_memory() {
        let mut a = DynamicKConn::with_copies(32, 2, 2, 1);
        let mut b = DynamicKConn::with_copies(32, 2, 8, 1);
        let mut c = ctx();
        let batch = Batch::inserting([e(0, 1)]);
        a.apply_batch(&batch, &mut c).expect("valid stream");
        b.apply_batch(&batch, &mut c).expect("valid stream");
        assert!(b.words() > a.words());
        assert_eq!(a.copies(), 2);
    }

    #[test]
    fn from_graph_bootstrap_then_dynamic_updates() {
        let n = 16u32;
        let mut c = ctx();
        let cycle: Vec<Edge> = (0..n).map(|i| e(i, (i + 1) % n)).collect();
        let mut kc = DynamicKConn::from_graph(n as usize, 2, 8, cycle.iter().copied(), &mut c)
            .expect("a simple graph inside [0, n)");
        assert_eq!(kc.certificate(&mut c).is_k_edge_connected(2), Some(true));
        // Continue dynamically from the bootstrapped state.
        kc.apply_batch(&Batch::deleting([e(0, 1)]), &mut c)
            .expect("valid stream");
        assert_eq!(kc.certificate(&mut c).is_k_edge_connected(2), Some(false));
    }

    /// A rejected bootstrap charges nothing: the context's rounds and
    /// words are what they were.
    fn assert_rejected(result: Result<DynamicKConn, MpcStreamError>, c: &MpcContext) {
        assert!(matches!(result, Err(MpcStreamError::InvalidBatch(_))));
        assert_eq!(c.rounds(), 0);
        assert_eq!(c.stats().words_communicated, 0);
    }

    #[test]
    fn from_graph_rejects_out_of_range() {
        let mut c = ctx();
        // The bad edge comes last, behind edges that would be loaded.
        let result = DynamicKConn::from_graph(4, 1, 1, [e(0, 1), e(2, 3), e(0, 9)], &mut c);
        assert_rejected(result, &c);
    }

    /// Two `K4`s joined by `(0, 4)`, listed twice: before the check,
    /// every run reported `MinCut::Exact(0)` for a graph whose bridge
    /// gives it min cut 1.
    #[test]
    fn from_graph_rejects_a_repeated_edge() {
        let mut c = ctx();
        let k4 = |b: u32| (0..4u32).flat_map(move |a| (a + 1..4).map(move |d| e(b + a, b + d)));
        let edges: Vec<Edge> = k4(0).chain(k4(4)).chain([e(0, 4), e(0, 4)]).collect();
        let result = DynamicKConn::from_graph(8, 2, 1, edges, &mut c);
        assert_rejected(result, &c);
    }

    #[test]
    fn relaminate_restores_invariants() {
        // A deliberately broken layering: F_2 crosses F_1 components.
        let broken = Certificate::from_layers(4, vec![vec![e(0, 1)], vec![e(2, 3), e(1, 2)]]);
        assert!(broken.validate().is_err());
        let fixed = relaminate(4, 2, broken);
        assert_eq!(fixed.validate(), Ok(()));
        assert_eq!(fixed.edge_count(), 3);
    }
}
