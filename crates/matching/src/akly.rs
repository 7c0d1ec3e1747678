//! Dynamic-stream `O(α)`-approximate matching via the \[AKLY16\]
//! sparsifier (paper Theorem 8.2).
//!
//! For each of `Θ(log n)` guesses `OPT' = n/2, n/4, …`:
//!
//! 1. randomly bipartition the vertices into `L ⊔ R` (pairwise-
//!    independent hash); edges inside a side are dropped (costs a
//!    constant factor),
//! 2. hash each side into `β = ⌈OPT'/α⌉` groups,
//! 3. draw `γ = ⌈OPT'/α²⌉` random *active pairs* `(L_i, R_j)` per
//!    `L`-group and maintain one `ℓ0`-sampler per active pair over
//!    `E(L_i, R_j)`,
//! 4. the sampler outcomes form the sparsifier `H` of size
//!    `Õ(max{n²/α³, n/α})`; a maximal matching of `H` is an
//!    `O(α)`-approximation (Lemma 8.3).
//!
//! Batch processing (the paper's proof of Theorem 8.2): broadcast the
//! batch, find the *active updates*, gather the affected samplers'
//! old outcomes `X`, delete `X` from `H`, update the samplers,
//! gather the new outcomes `Y`, insert `Y` into `H`, and run the
//! maximal-matching substrate — `O(log 1/κ)` rounds end to end.

use crate::sparsifier::PairSparsifier;
use mpc_graph::ids::{Edge, VertexId};
use mpc_graph::update::Batch;
use mpc_hashing::kwise::KWiseHash;
use mpc_sim::{MpcContext, MpcStreamError};

/// One guess `OPT'` of the maximum matching size.
#[derive(Debug, Clone)]
struct Guess {
    /// The OPT' guess this instance was parameterized for (kept for
    /// diagnostics and the experiment harness).
    opt_guess: usize,
    beta: u64,
    gamma: u64,
    seed: u64,
    /// `n²`, the samplers' index space (part of the snapshot layout;
    /// the sparsifier derives it from `n`).
    edge_space: u64,
    side_hash: KWiseHash,
    h_l: KWiseHash,
    h_r: KWiseHash,
    assign_hash: KWiseHash,
    sparsifier: PairSparsifier,
}

impl Guess {
    fn new(n: usize, opt_guess: usize, alpha: f64, seed: u64) -> Self {
        let beta = ((opt_guess as f64 / alpha).ceil() as u64).max(1);
        let gamma = ((opt_guess as f64 / (alpha * alpha)).ceil() as u64).max(1);
        Guess {
            opt_guess,
            beta,
            gamma,
            seed,
            edge_space: (n as u64) * (n as u64),
            side_hash: KWiseHash::from_seed(2, seed ^ 0x51de),
            h_l: KWiseHash::from_seed(2, seed ^ 0x1eff),
            h_r: KWiseHash::from_seed(2, seed ^ 0x417e),
            assign_hash: KWiseHash::from_seed(2, seed ^ 0xac7e),
            sparsifier: PairSparsifier::new(n),
        }
    }

    fn in_left(&self, v: VertexId) -> bool {
        self.side_hash.eval_bit(v as u64)
    }

    /// The `(L_i, R_j)` group pair of an edge, or `None` for a
    /// same-side edge (dropped by the algorithm).
    fn pair_of(&self, e: Edge) -> Option<(u64, u64)> {
        let (a, b) = e.endpoints();
        let (l, r) = match (self.in_left(a), self.in_left(b)) {
            (true, false) => (a, b),
            (false, true) => (b, a),
            _ => return None,
        };
        Some((
            self.h_l.eval_range(l as u64, self.beta),
            self.h_r.eval_range(r as u64, self.beta),
        ))
    }

    /// Whether `(L_i, R_j)` is one of the `γ` active pairs of `L_i`.
    fn is_active(&self, i: u64, j: u64) -> bool {
        (0..self.gamma).any(|g| self.assign_hash.eval_range(i * self.gamma + g, self.beta) == j)
    }

    /// The batch's active updates, each with its active pair, feed
    /// the pair sparsifier.
    fn apply_batch(&mut self, n: usize, batch: &Batch, ctx: &mut MpcContext) {
        let updates = batch
            .iter()
            .filter_map(|u| {
                let (i, j) = self.pair_of(u.edge())?;
                self.is_active(i, j).then_some((u, (i, j)))
            })
            .collect();
        let seed = self.seed;
        self.sparsifier
            .apply(n, updates, |(i, j)| seed ^ (i << 20) ^ j ^ 0xeb1e, ctx);
    }
}

/// The \[AKLY16\] dynamic matcher of Theorem 8.2.
///
/// # Examples
///
/// ```
/// use mpc_matching::AklyMatching;
/// use mpc_graph::ids::Edge;
/// use mpc_graph::update::Batch;
/// use mpc_sim::{MpcConfig, MpcContext};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut ctx = MpcContext::new(
///     MpcConfig::builder(32, 0.5).local_capacity(1 << 14).build(),
/// );
/// let mut akly = AklyMatching::new(32, 2.0, 7);
/// akly.apply_batch(
///     &Batch::inserting((0..16u32).map(|i| Edge::new(2 * i, 2 * i + 1))),
///     &mut ctx,
/// )?;
/// let m = akly.matching();
/// // All reported edges are live and disjoint.
/// assert!(m.len() <= 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AklyMatching {
    n: usize,
    alpha: f64,
    guesses: Vec<Guess>,
}

impl AklyMatching {
    /// Creates the matcher for an `n`-vertex dynamic graph with
    /// approximation target `α`.
    ///
    /// # Panics
    ///
    /// Panics unless `α ≥ 1`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — α is a construction parameter"
    )]
    pub fn new(n: usize, alpha: f64, seed: u64) -> Self {
        assert!(alpha >= 1.0, "α must be at least 1, got {alpha}");
        let mut guesses = Vec::new();
        let mut opt_guess = (n / 2).max(1);
        let mut g = 0u64;
        loop {
            guesses.push(Guess::new(
                n,
                opt_guess,
                alpha,
                seed.wrapping_add(g * 0x9e37),
            ));
            if opt_guess == 1 {
                break;
            }
            opt_guess /= 2;
            g += 1;
        }
        AklyMatching { n, alpha, guesses }
    }

    /// Number of parallel `OPT'` guesses.
    pub fn guess_count(&self) -> usize {
        self.guesses.len()
    }

    /// The approximation target `α`.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Processes a batch of insertions and deletions.
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
        mpc_stream_core::route_batch(batch, self.n, ctx)?;
        // The Θ(log n) guesses run in parallel (Section 8.1).
        let n = self.n;
        ctx.parallel(&mut self.guesses, |guess, ctx| {
            guess.apply_batch(n, batch, ctx);
            Ok(())
        })
    }

    /// The best maximal matching across all guesses' sparsifiers.
    pub fn matching(&self) -> Vec<Edge> {
        self.guesses
            .iter()
            .map(|g| g.sparsifier.matcher().matching())
            .max_by_key(Vec::len)
            .unwrap_or_default()
    }

    /// Size of the reported matching.
    pub fn matching_size(&self) -> usize {
        self.matching().len()
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.n
    }

    /// Total memory in words across all guesses
    /// (`Õ(max{n²/α³, n/α})`). `O(guesses)`: one constant-time
    /// sparsifier count per guess.
    pub fn words(&self) -> u64 {
        self.sparsifiers().map(PairSparsifier::words).sum()
    }

    /// Every guess's pair sparsifier.
    pub(crate) fn sparsifiers(&self) -> impl Iterator<Item = &PairSparsifier> {
        self.guesses.iter().map(|g| &g.sparsifier)
    }
}

impl mpc_stream_core::Maintain for AklyMatching {
    fn name(&self) -> &'static str {
        "matching-akly"
    }

    /// `O(guesses)`: one O(1) sparsifier count per `OPT'` guess.
    fn words(&self) -> u64 {
        AklyMatching::words(self)
    }

    fn ingest(&mut self, batch: &Batch, ctx: &mut MpcContext) -> Result<(), MpcStreamError> {
        self.apply_batch(batch, ctx)
    }

    /// The reported matching is the best guess's: every guess
    /// converge-casts its size, the coordinator picks the winner, and
    /// the edge report additionally pays the output sort.
    fn answer(
        &mut self,
        query: &mpc_stream_core::QueryRequest,
        ctx: &mut MpcContext,
    ) -> Option<Result<mpc_stream_core::QueryResponse, MpcStreamError>> {
        use mpc_stream_core::{QueryRequest, QueryResponse};
        Some(match *query {
            QueryRequest::MatchingSize => {
                ctx.converge_cast(self.guess_count() as u64, 1);
                ctx.broadcast(1);
                Ok(QueryResponse::Count(self.matching_size() as u64))
            }
            QueryRequest::MatchingEdges => {
                ctx.converge_cast(self.guess_count() as u64, 1);
                let matching = self.matching();
                ctx.sort(2 * matching.len() as u64 + 1);
                Ok(QueryResponse::Edges(matching))
            }
            _ => return None,
        })
    }
}

// ----- snapshot persistence ---------------------------------------

mpc_snapshot::persist_struct!(Guess {
    opt_guess,
    beta,
    gamma,
    seed,
    edge_space,
    side_hash,
    h_l,
    h_r,
    assign_hash,
    sparsifier,
});

mpc_snapshot::persist_struct!(AklyMatching { n, alpha, guesses } check |a| {
    if a.alpha.is_nan() || a.alpha < 1.0 || a.guesses.is_empty() {
        return Err(format!(
            "akly matcher needs α ≥ 1 (got {}) and a non-empty guess ladder",
            a.alpha
        ));
    }
    Ok(())
});

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_graph::dynamic::DynamicGraph;
    use mpc_graph::gen;
    use mpc_graph::oracle;
    use mpc_sim::MpcConfig;

    fn ctx() -> MpcContext {
        MpcContext::new(MpcConfig::builder(256, 0.5).local_capacity(1 << 15).build())
    }

    fn check_valid(m: &[Edge], live: &DynamicGraph) {
        let mut used = BTreeSet::new();
        for e in m {
            assert!(live.contains(*e), "matched edge {e} not live");
            assert!(used.insert(e.u()) && used.insert(e.v()), "overlap at {e}");
        }
    }

    #[test]
    fn matching_is_always_valid_under_churn() {
        let n = 64;
        let stream = gen::random_mixed_stream(n, 10, 12, 0.7, 21);
        let snaps = stream.replay();
        let mut c = ctx();
        let mut akly = AklyMatching::new(n, 2.0, 5);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            akly.apply_batch(batch, &mut c).expect("valid stream");
            check_valid(&akly.matching(), snap);
        }
    }

    #[test]
    fn finds_large_matching_on_planted_instance() {
        let (stream, opt) = gen::planted_matching_stream(24, 30, 12, 3);
        let snaps = stream.replay();
        let mut c = ctx();
        let mut akly = AklyMatching::new(stream.n, 2.0, 9);
        for batch in &stream.batches {
            akly.apply_batch(batch, &mut c).expect("valid stream");
        }
        check_valid(&akly.matching(), snaps.last().expect("nonempty"));
        let size = akly.matching_size();
        // O(α) guarantee with generous constant: the bipartition
        // halves, group collisions halve again.
        assert!(
            size as f64 * 8.0 * akly.alpha() >= opt as f64,
            "matching {size} too small for OPT {opt}"
        );
    }

    #[test]
    fn deletion_heavy_stream_stays_consistent() {
        let n = 48;
        // Build a dense matching then delete most of it.
        let (stream, _) = gen::planted_matching_stream(16, 20, 8, 4);
        let mut c = ctx();
        let mut akly = AklyMatching::new(stream.n, 2.0, 11);
        let mut live = DynamicGraph::new(stream.n);
        for batch in &stream.batches {
            akly.apply_batch(batch, &mut c).expect("valid stream");
            live.apply(batch).unwrap();
        }
        // Delete half the live edges.
        let victims: Vec<Edge> = live.edges().step_by(2).collect();
        let del = Batch::deleting(victims.clone());
        akly.apply_batch(&del, &mut c).expect("valid stream");
        live.apply(&del).unwrap();
        check_valid(&akly.matching(), &live);
        let _ = n;
    }

    #[test]
    fn memory_scales_down_with_alpha() {
        let n = 128;
        let stream = gen::random_insert_stream(n, 4, 24, 8);
        let mut small_alpha = AklyMatching::new(n, 1.0, 1);
        let mut big_alpha = AklyMatching::new(n, 8.0, 1);
        let mut c = ctx();
        for batch in &stream.batches {
            small_alpha
                .apply_batch(batch, &mut c)
                .expect("valid stream");
            big_alpha.apply_batch(batch, &mut c).expect("valid stream");
        }
        assert!(
            big_alpha.words() < small_alpha.words(),
            "α=8 should use less memory than α=1 ({} vs {})",
            big_alpha.words(),
            small_alpha.words()
        );
    }

    #[test]
    fn same_side_edges_are_dropped_not_crashed() {
        let n = 16;
        let mut c = ctx();
        let mut akly = AklyMatching::new(n, 2.0, 2);
        // Whatever the bipartition, some of these land same-side.
        akly.apply_batch(
            &Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 8))),
            &mut c,
        )
        .expect("valid stream");
        let live = {
            let mut g = DynamicGraph::new(n);
            g.apply(&Batch::inserting((0..8u32).map(|i| Edge::new(i, i + 8))))
                .unwrap();
            g
        };
        check_valid(&akly.matching(), &live);
    }

    #[test]
    fn ratio_vs_exact_opt_measured() {
        // Statistical check across seeds: median ratio within 4α.
        let mut ratios = Vec::new();
        for seed in 0..6 {
            let (stream, _) = gen::planted_matching_stream(16, 10, 8, seed);
            let snaps = stream.replay();
            let mut c = ctx();
            let mut akly = AklyMatching::new(stream.n, 2.0, seed * 31 + 1);
            for batch in &stream.batches {
                akly.apply_batch(batch, &mut c).expect("valid stream");
            }
            let last = snaps.last().expect("nonempty");
            let edges: Vec<Edge> = last.edges().collect();
            let opt = oracle::maximum_matching_size(stream.n, &edges);
            let got = akly.matching_size().max(1);
            ratios.push(opt as f64 / got as f64);
        }
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
        let median = ratios[ratios.len() / 2];
        assert!(median <= 4.0 * 2.0, "median ratio {median} too large");
    }

    use std::collections::BTreeSet;
}
