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
    /// the matcher. `O(1)`: every sampler spans the same `n²` index
    /// space, so all have one sampler's words (the restore check
    /// holds a loaded sparsifier to that).
    #[expect(
        clippy::disallowed_macros,
        reason = "a debug_assert!, which clippy reads as the assert! it expands to"
    )]
    pub(crate) fn words(&self) -> u64 {
        let per_sampler = self.samplers.values().next().map_or(0, L0Sampler::words);
        let words = self.samplers.len() as u64 * per_sampler
            + 3 * self.outcomes.len() as u64
            + self.matcher.words();
        debug_assert_eq!(words, self.words_by_walk());
        words
    }

    /// [`PairSparsifier::words`] summed sampler by sampler — the
    /// `O(pairs)` reference the constant-time count must equal.
    pub(crate) fn words_by_walk(&self) -> u64 {
        self.samplers.values().map(L0Sampler::words).sum::<u64>()
            + 3 * self.outcomes.len() as u64
            + self.matcher.words()
    }
}

mpc_snapshot::persist_struct!(PairSparsifier {
    samplers,
    outcomes,
    matcher
} check |s| {
    let n = s.matcher.vertex_count() as u64;
    match s.samplers.values().find(|l0| l0.family().max_index() != n * n) {
        Some(l0) => Err(format!(
            "pair sampler spans {} indices, not the {} edge slots of {n} vertices",
            l0.family().max_index(),
            n * n
        )),
        None => Ok(()),
    }
});

#[cfg(test)]
mod tests {
    use crate::{AklyMatching, MatchingSizeEstimator, StreamKind};
    use mpc_graph::gen;
    use mpc_sim::{MpcConfig, MpcContext};
    use mpc_snapshot::{load_section, save_section, Persist, Snapshot, SnapshotWriter};

    fn save_load_result<T: Persist>(value: &T) -> Result<T, mpc_snapshot::SnapshotError> {
        let mut w = SnapshotWriter::new(0);
        save_section(&mut w, "m", value);
        let bytes = w.finish();
        load_section(&Snapshot::from_bytes(&bytes).expect("container"), "m")
    }

    fn save_load<T: Persist>(value: &T) -> T {
        save_load_result(value).expect("valid")
    }

    fn assert_words_match_walk<'a>(sparsifiers: impl Iterator<Item = &'a super::PairSparsifier>) {
        let mut pairs = 0;
        for s in sparsifiers {
            assert_eq!(s.words(), s.words_by_walk(), "constant-time words drifted");
            pairs += s.samplers.len();
        }
        assert!(pairs > 0, "the stream must create pair samplers");
    }

    #[test]
    fn restore_rejects_a_sampler_off_the_edge_space() {
        let mut s = super::PairSparsifier::new(4);
        s.samplers
            .insert((0, 1), mpc_sketch::l0::L0Sampler::new(16, 3));
        assert!(save_load_result(&s).is_ok());
        s.samplers
            .insert((0, 2), mpc_sketch::l0::L0Sampler::new(15, 3));
        assert!(matches!(
            save_load_result(&s),
            Err(mpc_snapshot::SnapshotError::Corrupt(_))
        ));
    }

    #[test]
    fn pair_sparsifier_words_match_the_sampler_walk() {
        let n = 64;
        let stream = gen::random_mixed_stream(n, 16, 24, 0.7, 41);
        let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build());
        let mut akly = AklyMatching::new(n, 2.0, 9);
        let mut est = MatchingSizeEstimator::new(n, 1.0, StreamKind::Dynamic, 9);
        for (i, batch) in stream.batches.iter().enumerate() {
            if i % 5 == 4 {
                akly = save_load(&akly);
                est = save_load(&est);
                assert_words_match_walk(akly.sparsifiers());
                assert_words_match_walk(est.sparsifiers());
            }
            akly.apply_batch(batch, &mut ctx).expect("valid stream");
            est.apply_batch(batch, &mut ctx).expect("valid stream");
            assert_words_match_walk(akly.sparsifiers());
            assert_words_match_walk(est.sparsifiers());
            assert_eq!(
                akly.words(),
                akly.sparsifiers()
                    .map(super::PairSparsifier::words_by_walk)
                    .sum::<u64>()
            );
            assert_eq!(
                est.words(),
                est.sparsifiers()
                    .map(super::PairSparsifier::words_by_walk)
                    .sum::<u64>()
            );
        }
    }
}
