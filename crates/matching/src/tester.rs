//! Matching-size estimation (paper Theorems 8.5 and 8.6, after
//! [AKL'21/AKL'17]).
//!
//! The meta-algorithm runs `O(log n)` instances of `Tester(G, k)` in
//! parallel at geometric guesses `o_j = 2^j` of `OPT`. Each tester
//! works on the subgraph induced by a `p_j`-sampled vertex set with
//! `p_j = min(1, 2·√(k_j/o_j))` and a space budget of
//! `k_j = Θ(o_j/α²)`: a matching of size `o_j` keeps `≈ p_j²·o_j =
//! Θ(k_j)` edges in the induced subgraph, so the tester can afford to
//! look for a `Θ(k_j)` matching only. The estimate is the largest
//! passing guess; the quadratic sampling is what brings the space to
//! `Õ(n/α²)` (insertion-only) and `Õ(n²/α⁴)` (dynamic).
//!
//! * Insertion-only tester: a greedy matching capped at `k_j`
//!   (Theorem 8.5); passes iff it reaches `k_j/2`.
//! * Dynamic tester: hash the sampled vertices into `Θ(k_j)` groups,
//!   keep an `ℓ0`-sampler per group pair, recover the sparsifier `H`
//!   from the sampler outcomes, and maintain a maximal matching of
//!   `H` with the \[NO21\] substrate (Theorem 8.6); passes iff the
//!   matching reaches `k_j/4` (one extra factor lost to group
//!   collisions).

use crate::greedy::CappedGreedyMatching;
use crate::sparsifier::PairSparsifier;
use mpc_graph::ids::Edge;
use mpc_graph::update::Batch;
use mpc_hashing::field::P;
use mpc_hashing::kwise::KWiseHash;
use mpc_sim::{MpcContext, MpcStreamError};

/// Which stream model an estimator instance supports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamKind {
    /// Insertions only (Theorem 8.5, `Õ(n/α²)` words).
    InsertionOnly,
    /// Insertions and deletions (Theorem 8.6, `Õ(n²/α⁴)` words).
    Dynamic,
}

/// One `Tester(G_p, k)` instance.
#[derive(Debug, Clone)]
enum Tester {
    Insertion {
        k: usize,
        sample_hash: KWiseHash,
        threshold: u64,
        greedy: CappedGreedyMatching,
    },
    Dynamic {
        k: usize,
        n: usize,
        sample_hash: KWiseHash,
        threshold: u64,
        groups: u64,
        group_hash: KWiseHash,
        seed: u64,
        sparsifier: PairSparsifier,
    },
}

impl Tester {
    fn sampled(hash: &KWiseHash, threshold: u64, v: u32) -> bool {
        hash.eval(v as u64) < threshold
    }

    fn apply_batch(&mut self, batch: &Batch, ctx: &mut MpcContext) {
        match self {
            Tester::Insertion {
                sample_hash,
                threshold,
                greedy,
                ..
            } => {
                let edges: Vec<Edge> = batch
                    .insertions()
                    .filter(|e| {
                        Self::sampled(sample_hash, *threshold, e.u())
                            && Self::sampled(sample_hash, *threshold, e.v())
                    })
                    .collect();
                greedy.apply_insert_batch(&edges, ctx);
            }
            Tester::Dynamic {
                n,
                sample_hash,
                threshold,
                groups,
                group_hash,
                seed,
                sparsifier,
                ..
            } => {
                let sampled = |v: u32| Self::sampled(sample_hash, *threshold, v);
                let updates = batch
                    .iter()
                    .filter(|u| sampled(u.edge().u()) && sampled(u.edge().v()))
                    .map(|u| {
                        let ga = group_hash.eval_range(u.edge().u() as u64, *groups);
                        let gb = group_hash.eval_range(u.edge().v() as u64, *groups);
                        (u, (ga.min(gb), ga.max(gb)))
                    })
                    .collect();
                let seed = *seed;
                sparsifier.apply(*n, updates, |(a, b)| seed ^ (a << 24) ^ b ^ 0x7e57, ctx);
            }
        }
    }

    fn passes(&self) -> bool {
        match self {
            Tester::Insertion { k, greedy, .. } => greedy.len() >= (*k).div_ceil(2),
            Tester::Dynamic { k, sparsifier, .. } => {
                sparsifier.matcher().matching_size() >= (*k).div_ceil(4)
            }
        }
    }

    fn words(&self) -> u64 {
        match self {
            Tester::Insertion { greedy, .. } => greedy.words(),
            Tester::Dynamic { sparsifier, .. } => sparsifier.words(),
        }
    }
}

/// The `O(α)` matching-size estimator.
///
/// # Examples
///
/// ```
/// use mpc_matching::{MatchingSizeEstimator, StreamKind};
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(64, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut est = MatchingSizeEstimator::new(64, 2.0, StreamKind::InsertionOnly, 7);
/// est.apply_batch(
///     &Batch::inserting((0..32u32).map(|i| Edge::new(2 * i, 2 * i + 1))),
///     &mut ctx,
/// )?;
/// assert!(est.estimate() >= 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MatchingSizeEstimator {
    n: usize,
    kind: StreamKind,
    alpha: f64,
    /// `(guess o_j, tester)` pairs, ascending.
    testers: Vec<(usize, Tester)>,
}

impl MatchingSizeEstimator {
    /// Creates the estimator.
    ///
    /// # Panics
    ///
    /// Panics unless `α ≥ 1`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — α is a construction parameter"
    )]
    pub fn new(n: usize, alpha: f64, kind: StreamKind, seed: u64) -> Self {
        assert!(alpha >= 1.0, "α must be at least 1, got {alpha}");
        let mut testers = Vec::new();
        let mut o = 1usize;
        let mut j = 0u64;
        while o <= n {
            let k = ((o as f64 / (alpha * alpha)).round() as usize).max(1);
            let p = (2.0 * ((k as f64) / (o as f64)).sqrt()).min(1.0);
            let threshold = (p * P as f64) as u64;
            let tseed = seed.wrapping_add(j.wrapping_mul(0x9e37_79b9));
            let sample_hash = KWiseHash::from_seed(2, tseed ^ 0x5a5a);
            let tester = match kind {
                StreamKind::InsertionOnly => Tester::Insertion {
                    k,
                    sample_hash,
                    threshold,
                    greedy: CappedGreedyMatching::new(n, k),
                },
                StreamKind::Dynamic => Tester::Dynamic {
                    k,
                    n,
                    sample_hash,
                    threshold,
                    groups: (2 * k as u64).max(2),
                    group_hash: KWiseHash::from_seed(2, tseed ^ 0xdead_beef),
                    seed: tseed,
                    sparsifier: PairSparsifier::new(n),
                },
            };
            testers.push((o, tester));
            o *= 2;
            j += 1;
        }
        MatchingSizeEstimator {
            n,
            kind,
            alpha,
            testers,
        }
    }

    /// The stream model this estimator accepts.
    pub fn kind(&self) -> StreamKind {
        self.kind
    }

    /// The approximation target `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Number of parallel testers.
    pub fn tester_count(&self) -> usize {
        self.testers.len()
    }

    /// Processes a batch.
    ///
    /// # Errors
    ///
    /// * [`MpcStreamError::Unsupported`] if a deletion arrives in
    ///   insertion-only mode (state unchanged).
    /// * [`MpcStreamError::Capacity`] when the batch cannot fit one
    ///   machine.
    pub fn apply_batch(
        &mut self,
        batch: &Batch,
        ctx: &mut MpcContext,
    ) -> Result<(), MpcStreamError> {
        if self.kind == StreamKind::InsertionOnly {
            if let Some(d) = batch.deletions().next() {
                return Err(MpcStreamError::Unsupported(format!(
                    "deletion of {d} in insertion-only matching-size estimator"
                )));
            }
        }
        mpc_stream_core::route_batch(batch, self.n, ctx)?;
        // The O(log n) testers run in parallel (Section 8.2).
        ctx.parallel(&mut self.testers, |(_, t), ctx| {
            t.apply_batch(batch, ctx);
            Ok(())
        })
    }

    /// The current estimate: the largest passing guess (0 for an
    /// empty graph).
    pub fn estimate(&self) -> usize {
        self.testers
            .iter()
            .rev()
            .find(|(_, t)| t.passes())
            .map(|(o, _)| *o)
            .unwrap_or(0)
    }

    /// Total memory in words across all testers. `O(testers)`: each
    /// tester's count is constant-time.
    pub fn words(&self) -> u64 {
        self.testers.iter().map(|(_, t)| t.words()).sum()
    }

    /// The dynamic testers' pair sparsifiers (none for an
    /// insertion-only estimator).
    #[cfg(test)]
    pub(crate) fn sparsifiers(&self) -> impl Iterator<Item = &PairSparsifier> {
        self.testers.iter().filter_map(|(_, t)| match t {
            Tester::Dynamic { sparsifier, .. } => Some(sparsifier),
            Tester::Insertion { .. } => None,
        })
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }
}

impl mpc_stream_core::Maintain for MatchingSizeEstimator {
    fn name(&self) -> &'static str {
        match self.kind {
            StreamKind::InsertionOnly => "matching-estimator-insert",
            StreamKind::Dynamic => "matching-estimator-dynamic",
        }
    }

    /// `O(testers)`: one O(1) count per geometric guess.
    fn words(&self) -> u64 {
        MatchingSizeEstimator::words(self)
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The estimate is the largest passing guess: every tester
    /// reports its pass/fail bit in one converge-cast and the
    /// coordinator takes the maximum (Section 8.2).
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::MatchingSize => {
                ctx.converge_cast(self.tester_count() as u64, 1);
                ctx.broadcast(1);
                Ok(QueryResponse::Count(self.estimate() as u64))
            }
            _ => return None,
        })
    }
}

// ----- snapshot persistence ---------------------------------------

// By hand: a tagged enum, not a field list.
impl mpc_snapshot::Persist for StreamKind {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        w.put_u8(match self {
            StreamKind::InsertionOnly => 0,
            StreamKind::Dynamic => 1,
        });
    }

    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        match r.take_u8()? {
            0 => Ok(StreamKind::InsertionOnly),
            1 => Ok(StreamKind::Dynamic),
            t => Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "invalid stream-kind tag {t}"
            ))),
        }
    }
}

// By hand: a tagged enum, one field list per variant.
impl mpc_snapshot::Persist for Tester {
    fn save(&self, w: &mut mpc_snapshot::SnapshotWriter) {
        match self {
            Tester::Insertion {
                k,
                sample_hash,
                threshold,
                greedy,
            } => {
                w.put_u8(0);
                w.put_usize(*k);
                sample_hash.save(w);
                w.put_u64(*threshold);
                greedy.save(w);
            }
            Tester::Dynamic {
                k,
                n,
                sample_hash,
                threshold,
                groups,
                group_hash,
                seed,
                sparsifier,
            } => {
                w.put_u8(1);
                w.put_usize(*k);
                w.put_usize(*n);
                sample_hash.save(w);
                w.put_u64(*threshold);
                w.put_u64(*groups);
                group_hash.save(w);
                w.put_u64(*seed);
                sparsifier.save(w);
            }
        }
    }

    fn load(r: &mut mpc_snapshot::SnapshotReader<'_>) -> Result<Self, mpc_snapshot::SnapshotError> {
        match r.take_u8()? {
            0 => Ok(Tester::Insertion {
                k: r.take_usize()?,
                sample_hash: KWiseHash::load(r)?,
                threshold: r.take_u64()?,
                greedy: CappedGreedyMatching::load(r)?,
            }),
            1 => Ok(Tester::Dynamic {
                k: r.take_usize()?,
                n: r.take_usize()?,
                sample_hash: KWiseHash::load(r)?,
                threshold: r.take_u64()?,
                groups: r.take_u64()?,
                group_hash: KWiseHash::load(r)?,
                seed: r.take_u64()?,
                sparsifier: PairSparsifier::load(r)?,
            }),
            t => Err(mpc_snapshot::SnapshotError::Corrupt(format!(
                "invalid tester tag {t}"
            ))),
        }
    }
}

mpc_snapshot::persist_struct!(MatchingSizeEstimator { n, kind, alpha, testers } check |est| {
    if est.alpha.is_nan() || est.alpha < 1.0 {
        return Err(format!(
            "matching-size estimator needs α ≥ 1, got {}",
            est.alpha
        ));
    }
    // Every tester must match the estimator's declared stream
    // contract — a mixed ladder cannot have come from save.
    for (_, t) in &est.testers {
        let consistent = matches!(
            (est.kind, t),
            (StreamKind::InsertionOnly, Tester::Insertion { .. })
                | (StreamKind::Dynamic, Tester::Dynamic { .. })
        );
        if !consistent {
            return Err("matching-size estimator holds a tester of the wrong stream kind".into());
        }
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::gen;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(512, 0.5).local_capacity(1 << 15).build())
    }

    fn run_planted(kind: StreamKind, planted: usize, alpha: f64, seed: u64) -> (usize, usize) {
        let (stream, opt) = gen::planted_matching_stream(planted, planted, 16, seed);
        let mut c = ctx();
        let mut est = MatchingSizeEstimator::new(stream.n, alpha, kind, seed * 7 + 1);
        for batch in &stream.batches {
            est.apply_batch(batch, &mut c).expect("valid stream");
        }
        (est.estimate(), opt)
    }

    #[test]
    fn insertion_estimates_track_opt() {
        let mut ok = 0;
        let trials = 8;
        for seed in 0..trials {
            let (est, opt) = run_planted(StreamKind::InsertionOnly, 32, 2.0, seed);
            // Within a generous O(α) window on both sides.
            if est * 16 >= opt && est <= 8 * opt {
                ok += 1;
            }
        }
        assert!(ok * 4 >= trials * 3, "only {ok}/{trials} within window");
    }

    #[test]
    fn dynamic_estimates_track_opt() {
        let mut ok = 0;
        let trials = 6;
        for seed in 0..trials {
            let (est, opt) = run_planted(StreamKind::Dynamic, 24, 2.0, seed);
            if est * 32 >= opt && est <= 8 * opt {
                ok += 1;
            }
        }
        assert!(ok * 2 >= trials, "only {ok}/{trials} within window");
    }

    #[test]
    fn dynamic_estimate_falls_after_deletions() {
        let (stream, _opt) = gen::planted_matching_stream(32, 0, 8, 3);
        let mut c = ctx();
        let mut est = MatchingSizeEstimator::new(stream.n, 1.0, StreamKind::Dynamic, 5);
        let mut live = Vec::new();
        for batch in &stream.batches {
            est.apply_batch(batch, &mut c).expect("valid stream");
            live.extend(batch.insertions());
        }
        let before = est.estimate();
        // Delete everything: estimate must drop to 0.
        est.apply_batch(&Batch::deleting(live), &mut c)
            .expect("dynamic mode supports deletions");
        assert_eq!(est.estimate(), 0, "was {before} before deletions");
        assert!(before >= 1);
    }

    #[test]
    fn empty_graph_estimates_zero() {
        let est = MatchingSizeEstimator::new(64, 2.0, StreamKind::InsertionOnly, 1);
        assert_eq!(est.estimate(), 0);
        assert_eq!(est.words(), 0);
    }

    #[test]
    fn memory_shrinks_with_alpha_dynamic() {
        let (stream, _) = gen::planted_matching_stream(32, 32, 16, 9);
        let mut c = ctx();
        let mut tight = MatchingSizeEstimator::new(stream.n, 1.0, StreamKind::Dynamic, 2);
        let mut loose = MatchingSizeEstimator::new(stream.n, 4.0, StreamKind::Dynamic, 2);
        for batch in &stream.batches {
            tight.apply_batch(batch, &mut c).expect("valid stream");
            loose.apply_batch(batch, &mut c).expect("valid stream");
        }
        assert!(
            loose.words() < tight.words(),
            "α=4 should be smaller: {} vs {}",
            loose.words(),
            tight.words()
        );
    }

    #[test]
    fn insertion_only_rejects_deletions_as_error() {
        let mut c = ctx();
        let mut est = MatchingSizeEstimator::new(8, 1.0, StreamKind::InsertionOnly, 1);
        let err = est
            .apply_batch(&Batch::deleting([mpc_graph::ids::Edge::new(0, 1)]), &mut c)
            .expect_err("insertion-only mode");
        assert!(matches!(err, MpcStreamError::Unsupported(_)));
        // The refused batch left no trace.
        assert_eq!(est.estimate(), 0);
    }

    #[test]
    fn oversized_batch_is_capacity_error() {
        let mut c = MpcContext::new(
            MpcConfig::builder(64, 0.5)
                .local_capacity(4)
                .machines(2)
                .build(),
        );
        let mut est = MatchingSizeEstimator::new(64, 2.0, StreamKind::InsertionOnly, 1);
        let big = Batch::inserting((0..8u32).map(|i| Edge::new(2 * i, 2 * i + 1)));
        let err = est.apply_batch(&big, &mut c).expect_err("cannot fit");
        assert!(matches!(err, MpcStreamError::Capacity(_)));
    }
}
