//! Golden digests of every parallel composition of independent
//! instances.
//!
//! Six places run independent instances side by side and charge the
//! batch the most expensive instance's rounds: `RobustConnectivity`'s
//! sketch-switching copies, the threshold stack behind
//! `ApproxMsfWeight` / `ApproxMsfForest`, `Bipartiteness`'s graph and
//! double cover, `AklyMatching`'s guesses, `MatchingSizeEstimator`'s
//! testers, and the `Session` fan-out over its maintainers. Each is
//! driven here over a fixed stream from its own SplitMix64 generator
//! (so neither `vendor/rand` nor a generator edit can move it), with
//! rejected batches mixed in — duplicate inserts, out-of-range
//! endpoints, deletions an insertion-only estimator refuses, and the
//! sketch-switching budget running out — so the error exits are pinned
//! along with the accepted ones. Per-batch rounds and words, the error
//! text, the answers, the final context stats and each maintainer's
//! `Persist` bytes are folded with FNV-1a.
//!
//! The constants were recorded on the commit before the six scopes
//! became callers of `MpcContext::parallel`; they pin that refactor,
//! and any later one, to identical answers and ledgers.

use mpc_stream::prelude::*;
use mpc_stream::snapshot::SnapshotWriter;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
const SEEDS: u64 = 6;
const N: u32 = 24;
const MAX_WEIGHT: u64 = 8;

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (modulo bias is irrelevant here).
    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }
}

fn fold(digest: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

fn fold_bytes(digest: &mut u64, bytes: &[u8]) {
    fold(digest, bytes.len() as u64);
    for &b in bytes {
        *digest = (*digest ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
}

fn fold_edges(digest: &mut u64, edges: &[Edge]) {
    fold(digest, edges.len() as u64);
    for e in edges {
        fold(digest, (u64::from(e.u()) << 32) | u64::from(e.v()));
    }
}

/// The outcome of one batch: `0` for `Ok`, else the error's text.
fn fold_outcome<T>(digest: &mut u64, outcome: &Result<T, MpcStreamError>) {
    match outcome {
        Ok(_) => fold(digest, 0),
        Err(e) => fold_bytes(digest, e.to_string().as_bytes()),
    }
}

fn fold_stats(digest: &mut u64, ctx: &MpcContext) {
    fold_bytes(digest, format!("{:?}", ctx.stats()).as_bytes());
}

/// A maintainer's state as a single-section snapshot container.
fn fold_persist(digest: &mut u64, m: &dyn Maintain) {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("state");
    m.save_state(&mut w);
    w.end_section();
    fold_bytes(digest, &w.finish());
}

fn ctx() -> MpcContext {
    MpcContext::new(cfg())
}

fn cfg() -> MpcConfig {
    MpcConfig::builder(2 * N as usize, 0.5)
        .local_capacity(1 << 16)
        .build()
}

/// One seed's weighted stream: fourteen batches of fresh inserts and
/// deletions of live edges, tracked against a live set so every
/// ordinary batch is valid. Batch 4 re-inserts a live edge, batch 8
/// names a vertex outside `[0, N)`, batch 11 re-inserts a live edge of
/// maximum weight; the live set ignores them.
fn stream(seed: u64) -> Vec<WeightedBatch> {
    let mut rng = SplitMix64(seed ^ 0x9A4A_11E1);
    let mut live: Vec<WeightedEdge> = Vec::new();
    let mut batches = Vec::new();
    for b in 0..14 {
        let rejected = match b {
            4 | 11 if !live.is_empty() => {
                let mut dup = live[rng.below(live.len())];
                if b == 11 {
                    dup = WeightedEdge::new(dup.edge.u(), dup.edge.v(), MAX_WEIGHT);
                }
                Some(WeightedBatch::inserting([dup]))
            }
            8 => Some(WeightedBatch::inserting([WeightedEdge::new(1, N + 3, 2)])),
            _ => None,
        };
        if let Some(batch) = rejected {
            batches.push(batch);
            continue;
        }
        let mut updates = Vec::new();
        for _ in 0..2 {
            if !live.is_empty() && rng.below(3) > 0 {
                let gone = live.swap_remove(rng.below(live.len()));
                updates.push(WeightedUpdate::Delete(gone));
            }
        }
        for _ in 0..4 {
            let (a, c) = (rng.below(N as usize) as u32, rng.below(N as usize) as u32);
            if a == c {
                continue;
            }
            let e = Edge::new(a, c);
            let taken = |w: &WeightedEdge| w.edge == e;
            if live.iter().any(taken) || updates.iter().any(|u| taken(&u.weighted_edge())) {
                continue;
            }
            let w = WeightedEdge::new(a, c, 1 + rng.below(MAX_WEIGHT as usize) as u64);
            live.push(w);
            updates.push(WeightedUpdate::Insert(w));
        }
        batches.push(WeightedBatch::from_updates(updates));
    }
    batches
}

/// Drives one directly held maintainer over `seed`'s stream, folding
/// each batch's outcome, rounds, words and answers, then the final
/// stats and the maintainer's snapshot bytes.
fn drive<M: Maintain>(
    seed: u64,
    mut m: M,
    apply: impl Fn(&mut M, &WeightedBatch, &mut MpcContext) -> Result<(), MpcStreamError>,
    answers: impl Fn(&M, &mut u64),
) -> u64 {
    let mut d = FNV_OFFSET;
    let mut ctx = ctx();
    for batch in stream(seed) {
        let (rounds, words) = (ctx.stats().rounds, ctx.stats().words_communicated);
        let outcome = apply(&mut m, &batch, &mut ctx);
        fold_outcome(&mut d, &outcome);
        fold(&mut d, ctx.stats().rounds - rounds);
        fold(&mut d, ctx.stats().words_communicated - words);
        answers(&m, &mut d);
    }
    fold_stats(&mut d, &ctx);
    fold_persist(&mut d, &m);
    d
}

fn digest_over_seeds(one: impl Fn(u64) -> u64) -> u64 {
    let mut d = FNV_OFFSET;
    for seed in 0..SEEDS {
        fold(&mut d, one(seed));
    }
    d
}

#[test]
fn robust_connectivity_digest_is_pinned() {
    let d = digest_over_seeds(|seed| {
        drive(
            seed,
            RobustConnectivity::new(N as usize, 3, 2, ConnectivityConfig::default(), seed),
            |m, b, ctx| m.apply_batch(&b.unweighted(), ctx),
            |m, d| {
                fold(d, m.exposures_spent());
                fold(d, m.exposed_instance() as u64);
                fold_edges(d, &m.spanning_forest());
                for &l in m.component_labels() {
                    fold(d, u64::from(l));
                }
            },
        )
    });
    assert_eq!(
        d, 0x1987_f14f_68c8_225f,
        "robust-connectivity digest moved: {d:#018x}"
    );
}

#[test]
fn approx_msf_weight_digest_is_pinned() {
    let d = digest_over_seeds(|seed| {
        drive(
            seed,
            ApproxMsfWeight::new(N as usize, 0.5, MAX_WEIGHT, seed),
            |m, b, ctx| m.apply_batch(b, ctx),
            |m, d| fold(d, m.weight_estimate().to_bits()),
        )
    });
    assert_eq!(
        d, 0x7c40_4eb5_0401_1440,
        "approx-msf-weight digest moved: {d:#018x}"
    );
}

#[test]
fn approx_msf_forest_digest_is_pinned() {
    let d = digest_over_seeds(|seed| {
        drive(
            seed,
            ApproxMsfForest::new(N as usize, 0.5, MAX_WEIGHT, seed),
            |m, b, ctx| m.apply_batch(b, ctx),
            |m, d| {
                for (e, w) in m.forest() {
                    fold(d, (u64::from(e.u()) << 32) | u64::from(e.v()));
                    fold(d, w.to_bits());
                }
                for v in 0..N {
                    fold(d, u64::from(m.component_of(v)));
                }
            },
        )
    });
    assert_eq!(
        d, 0xae75_715e_2d70_637f,
        "approx-msf-forest digest moved: {d:#018x}"
    );
}

#[test]
fn bipartiteness_digest_is_pinned() {
    let d = digest_over_seeds(|seed| {
        drive(
            seed,
            Bipartiteness::new(N as usize, seed),
            |m, b, ctx| m.apply_batch(&b.unweighted(), ctx),
            |m, d| {
                fold(d, u64::from(m.is_bipartite()));
                fold(d, m.component_count() as u64);
            },
        )
    });
    assert_eq!(
        d, 0xb2ae_03ba_6244_7d85,
        "bipartiteness digest moved: {d:#018x}"
    );
}

#[test]
fn akly_matching_digest_is_pinned() {
    let d = digest_over_seeds(|seed| {
        drive(
            seed,
            AklyMatching::new(N as usize, 2.0, seed),
            |m, b, ctx| m.apply_batch(&b.unweighted(), ctx),
            |m, d| fold_edges(d, &m.matching()),
        )
    });
    assert_eq!(
        d, 0xc0e1_805f_34cf_b1d4,
        "akly-matching digest moved: {d:#018x}"
    );
}

#[test]
fn matching_size_estimator_digests_are_pinned() {
    for (kind, pinned) in [
        (StreamKind::InsertionOnly, 0xb407_20de_21a5_98b5),
        (StreamKind::Dynamic, 0x670f_ce3b_90a3_d447),
    ] {
        let d = digest_over_seeds(|seed| {
            drive(
                seed,
                MatchingSizeEstimator::new(N as usize, 1.5, kind, seed),
                |m, b, ctx| m.apply_batch(&b.unweighted(), ctx),
                |m, d| fold(d, m.estimate() as u64),
            )
        });
        assert_eq!(d, pinned, "{kind:?} estimator digest moved: {d:#018x}");
    }
}

/// All seven in one session, `RobustConnectivity` in the middle: a
/// duplicate insert fails at the first branch, an exhausted switching
/// budget at a middle one, a deletion at the last (the insertion-only
/// estimator), an out-of-range query in the first answering branch.
fn session_digest() -> u64 {
    let mut d = FNV_OFFSET;
    for seed in 0..SEEDS {
        let n = N as usize;
        let mut session = Session::new(cfg());
        session.register(ApproxMsfWeight::new(n, 0.5, MAX_WEIGHT, seed));
        session.register(ApproxMsfForest::new(n, 0.5, MAX_WEIGHT, seed + 1));
        session.register(Bipartiteness::new(n, seed + 2));
        session.register(RobustConnectivity::new(
            n,
            2,
            1,
            ConnectivityConfig::default(),
            seed + 3,
        ));
        session.register(AklyMatching::new(n, 2.0, seed + 4));
        session.register(MatchingSizeEstimator::new(
            n,
            1.5,
            StreamKind::Dynamic,
            seed + 5,
        ));
        session.register(MatchingSizeEstimator::new(
            n,
            1.5,
            StreamKind::InsertionOnly,
            seed + 6,
        ));
        for batch in stream(seed) {
            let (rounds, words) = (
                session.ctx().stats().rounds,
                session.ctx().stats().words_communicated,
            );
            let outcome = session.apply_weighted(batch.iter());
            fold_outcome(&mut d, &outcome);
            if let Ok(reports) = &outcome {
                for r in reports {
                    fold_bytes(&mut d, r.to_string().as_bytes());
                }
            }
            fold(&mut d, session.ctx().stats().rounds - rounds);
            fold(&mut d, session.ctx().stats().words_communicated - words);
            for query in [
                QueryRequest::ComponentCount,
                QueryRequest::IsBipartite,
                QueryRequest::ForestWeight,
                QueryRequest::MatchingSize,
                QueryRequest::ComponentOf(N + 1),
            ] {
                let answers = session.ask_all(&query);
                fold_outcome(&mut d, &answers);
                fold_bytes(&mut d, format!("{answers:?}").as_bytes());
                for r in session.query_reports() {
                    fold_bytes(&mut d, r.to_string().as_bytes());
                }
            }
        }
        fold_stats(&mut d, session.ctx());
        fold_bytes(&mut d, format!("{:?}", session.stats()).as_bytes());
        for id in 0..session.maintainer_count() {
            fold_persist(&mut d, session.maintainer(id).expect("registered"));
        }
    }
    d
}

/// After a chunk fails at a middle branch the branches behind it
/// never run (the session is consistent only on `Ok`), so this pins
/// the failure paths' leftover state too.
#[test]
fn session_digest_is_pinned() {
    let d = session_digest();
    assert_eq!(d, 0xd7d9_0e04_1708_eefb, "session digest moved: {d:#018x}");
}
