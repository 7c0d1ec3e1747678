//! The group-pair sparsifier shared by the \[AKLY16\] guesses
//! (Theorem 8.2) and the dynamic matching-size tester (Theorem 8.6).
//!
//! Both hash vertices into groups and keep one `ℓ0`-sampler per group
//! pair over the edges between the two groups; the sampler outcomes
//! form the sparsifier `H`, and a maximal matching of `H` is
//! maintained with the \[NO21\] substrate. A batch runs the paper's
//! protocol: find the affected pairs, gather their old outcomes `X`,
//! update the samplers, gather the new outcomes `Y`, and replace `X`
//! by `Y` in `H`.

use crate::no21::MaximalMatching;
use mpc_graph::ids::Edge;
use mpc_graph::update::Update;
use mpc_sim::MpcContext;
use mpc_sketch::l0::{L0Sampler, SampleOutcome};
use std::collections::{BTreeMap, BTreeSet};

/// A group pair `(i, j)`.
pub(crate) type Pair = (u64, u64);

/// Per-pair samplers (created on first touch), their current
/// outcomes, and the maximal matching of the outcomes.
#[derive(Debug, Clone)]
pub(crate) struct PairSparsifier {
    samplers: BTreeMap<Pair, L0Sampler>,
    outcomes: BTreeMap<Pair, Option<Edge>>,
    matcher: MaximalMatching,
}

impl PairSparsifier {
    /// An empty sparsifier over an `n`-vertex graph.
    pub(crate) fn new(n: usize) -> Self {
        PairSparsifier {
            samplers: BTreeMap::new(),
            outcomes: BTreeMap::new(),
            matcher: MaximalMatching::new(n),
        }
    }

    /// Applies one batch's surviving updates, each with its pair, in
    /// batch order. A pair's sampler is created on first touch with
    /// seed `seed_of(pair)` over the `n²` edge indices. Two exchanges
    /// of `2·|affected pairs|` words, then the matcher's update; a
    /// batch touching no pair is free.
    pub(crate) fn apply(
        &mut self,
        n: usize,
        updates: Vec<(Update, Pair)>,
        seed_of: impl Fn(Pair) -> u64,
        ctx: &mut MpcContext,
    ) {
        let affected: BTreeSet<Pair> = updates.iter().map(|&(_, p)| p).collect();
        if affected.is_empty() {
            return;
        }
        ctx.exchange(2 * affected.len() as u64);
        // Old outcomes X, deleted from H.
        let deletions: Vec<Edge> = affected
            .iter()
            .filter_map(|p| self.outcomes.get(p).copied().flatten())
            .collect();
        let edge_space = (n as u64) * (n as u64);
        for (u, p) in updates {
            let delta = if u.is_insert() { 1 } else { -1 };
            self.samplers
                .entry(p)
                .or_insert_with(|| L0Sampler::new(edge_space, seed_of(p)))
                .update(u.edge().index(n), delta);
        }
        // New outcomes Y, inserted into H.
        ctx.exchange(2 * affected.len() as u64);
        let mut insertions = Vec::new();
        for &p in &affected {
            let new = self.samplers.get(&p).and_then(|s| match s.sample() {
                SampleOutcome::Sample { index, weight } if weight.abs() == 1 => {
                    Some(Edge::from_index(index, n))
                }
                _ => None,
            });
            self.outcomes.insert(p, new);
            insertions.extend(new);
        }
        // Unchanged outcomes are a delete+insert pair, harmless for
        // the matcher.
        self.matcher.apply_edge_lists(&insertions, &deletions, ctx);
    }

    /// The maximal matching of `H`.
    pub(crate) fn matcher(&self) -> &MaximalMatching {
        &self.matcher
    }

    /// Memory in words: the samplers, three words per outcome, and
    /// the matcher.
    pub(crate) fn words(&self) -> u64 {
        self.samplers.values().map(L0Sampler::words).sum::<u64>()
            + 3 * self.outcomes.len() as u64
            + self.matcher.words()
    }
}

mpc_snapshot::persist_struct!(PairSparsifier {
    samplers,
    outcomes,
    matcher
});
