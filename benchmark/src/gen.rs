//! Frozen inputs: the one stream generator every workload draws from,
//! and the FNV checksum that pins what it produced.
//!
//! The generator keeps the semantics of the E20 soak's
//! `powerlaw_churn_stream` — degree-weighted (preferential) fresh
//! inserts, and with probability `churn` a toggle of an edge from a
//! bounded hot set, at most one toggle per edge per batch — but is
//! the benchmark's own code over the benchmark's own [`Rng`], so
//! neither `vendor/rand` nor `mpc_graph::gen` can move a baseline.
//! `churn = 0` gives the insert-only `grow` stream; `max_weight > 1`
//! gives the weighted `fanout` stream (deletions replay the live
//! weight, as the model requires).

use crate::rng::Rng;
use mpc_stream::prelude::{Edge, WeightedBatch, WeightedEdge, WeightedUpdate};
use std::collections::{BTreeMap, BTreeSet};

/// Hot-set size cap: small enough that toggles keep revisiting the
/// same edges, large enough that one batch cannot exhaust it.
const HOT_CAP: usize = 4096;

/// Parameters of one generated stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamSpec {
    /// Vertex count.
    pub n: usize,
    /// Number of batches.
    pub batches: usize,
    /// Updates per batch.
    pub width: usize,
    /// Probability that an update toggles a hot edge instead of
    /// inserting a fresh one.
    pub churn: f64,
    /// Insert weights are uniform in `1..=max_weight`.
    pub max_weight: u64,
}

/// A generated stream with everything the harness checks it against.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The batches, in submission order.
    pub batches: Vec<WeightedBatch>,
    /// The net live edge set after the last batch.
    pub live: Vec<WeightedEdge>,
    /// Total updates across all batches.
    pub updates: u64,
    /// FNV-1a over every update and batch boundary.
    pub checksum: u64,
}

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn start() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Folds `bytes` in.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest so far.
    pub fn digest(self) -> u64 {
        self.0
    }
}

/// Generates the stream for `spec` from `seed`. The same `(spec,
/// seed)` always yields the same stream, bit for bit.
pub fn generate(spec: &StreamSpec, seed: u64) -> Stream {
    let n = spec.n;
    let mut rng = Rng::seeded(seed);
    let mut live: BTreeMap<Edge, u64> = BTreeMap::new();
    // Degree-weighted endpoint pool: every vertex once, then each
    // inserted edge's endpoints, so a draw is proportional to
    // degree + 1.
    let mut pool: Vec<u32> = (0..n as u32).collect();
    let mut hot: Vec<WeightedEdge> = Vec::new();
    let mut out = Vec::with_capacity(spec.batches);
    let mut fnv = Fnv::start();
    let mut updates = 0u64;
    for _ in 0..spec.batches {
        let mut batch = WeightedBatch::new();
        let mut touched: BTreeSet<Edge> = BTreeSet::new();
        // Rejected draws (edge already touched, dense corner) are
        // bounded so a saturated graph ends the batch early instead
        // of spinning; no shipped shape comes near the bound.
        let mut budget = 64 * spec.width;
        while batch.len() < spec.width && budget > 0 {
            budget -= 1;
            if !hot.is_empty() && rng.chance(spec.churn) {
                let we = hot[rng.below(hot.len())];
                if !touched.insert(we.edge) {
                    continue;
                }
                match live.remove(&we.edge) {
                    Some(weight) => {
                        batch.push(WeightedUpdate::Delete(WeightedEdge { weight, ..we }));
                    }
                    None => {
                        live.insert(we.edge, we.weight);
                        batch.push(WeightedUpdate::Insert(we));
                    }
                }
                continue;
            }
            // A few degree-weighted draws, then uniform ones, so a
            // dense neighbourhood cannot stall the batch.
            let mut fresh = None;
            for attempt in 0..16 {
                let (a, b) = if attempt < 8 {
                    (pool[rng.below(pool.len())], pool[rng.below(pool.len())])
                } else {
                    (rng.below(n) as u32, rng.below(n) as u32)
                };
                if a != b && !live.contains_key(&Edge::new(a, b)) {
                    fresh = Some(Edge::new(a, b));
                    break;
                }
            }
            let Some(edge) = fresh else { continue };
            if !touched.insert(edge) {
                continue;
            }
            let we = WeightedEdge {
                edge,
                weight: 1 + rng.below(spec.max_weight as usize) as u64,
            };
            live.insert(edge, we.weight);
            pool.push(edge.u());
            pool.push(edge.v());
            if hot.len() < HOT_CAP {
                hot.push(we);
            } else {
                // Reservoir-style replacement keeps the hot set
                // biased toward hubs without growing it.
                let k = rng.below(4 * HOT_CAP);
                if k < HOT_CAP {
                    hot[k] = we;
                }
            }
            batch.push(WeightedUpdate::Insert(we));
        }
        for u in batch.iter() {
            let we = u.weighted_edge();
            fnv.feed(&[u8::from(u.is_insert())]);
            fnv.feed(&we.edge.u().to_le_bytes());
            fnv.feed(&we.edge.v().to_le_bytes());
            fnv.feed(&we.weight.to_le_bytes());
        }
        fnv.feed(&[0xff]);
        updates += batch.len() as u64;
        out.push(batch);
    }
    Stream {
        batches: out,
        live: live
            .into_iter()
            .map(|(edge, weight)| WeightedEdge { edge, weight })
            .collect(),
        updates,
        checksum: fnv.digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHURN: StreamSpec = StreamSpec {
        n: 256,
        batches: 60,
        width: 32,
        churn: 0.3,
        max_weight: 16,
    };

    #[test]
    fn fnv_matches_the_published_vectors() {
        let mut f = Fnv::start();
        assert_eq!(f.digest(), 0xcbf2_9ce4_8422_2325);
        f.feed(b"a");
        assert_eq!(f.digest(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn same_seed_same_checksum_and_another_seed_differs() {
        let a = generate(&CHURN, 0xB11);
        let b = generate(&CHURN, 0xB11);
        let c = generate(&CHURN, 0xB12);
        assert_eq!(a.checksum, b.checksum);
        assert_eq!(a.batches, b.batches);
        assert_ne!(a.checksum, c.checksum);
        assert_eq!(a.updates, 60 * 32);
    }

    #[test]
    fn no_edge_is_toggled_twice_in_a_batch() {
        for batch in &generate(&CHURN, 7).batches {
            let mut seen = BTreeSet::new();
            for u in batch.iter() {
                let e = u.weighted_edge().edge;
                assert!(seen.insert(e), "edge {e} touched twice in one batch");
            }
        }
    }

    #[test]
    fn replay_is_legal_and_ends_at_the_reported_live_set() {
        // Inserts only of absent edges, deletions only of live edges
        // at their live weight; the independent replay must land on
        // the generator's own final live set.
        let stream = generate(&CHURN, 11);
        let mut live: BTreeMap<Edge, u64> = BTreeMap::new();
        let (mut deletes, mut reinserts) = (0, 0);
        let mut ever: BTreeSet<Edge> = BTreeSet::new();
        for batch in &stream.batches {
            for u in batch.iter() {
                let we = u.weighted_edge();
                assert!((1..=16).contains(&we.weight));
                if u.is_insert() {
                    assert!(
                        live.insert(we.edge, we.weight).is_none(),
                        "duplicate insert"
                    );
                    reinserts += usize::from(!ever.insert(we.edge));
                } else {
                    assert_eq!(live.remove(&we.edge), Some(we.weight), "bad delete");
                    deletes += 1;
                }
            }
        }
        assert!(
            deletes > 0 && reinserts > 0,
            "churn must delete and re-insert"
        );
        let replayed: Vec<WeightedEdge> = live
            .into_iter()
            .map(|(edge, weight)| WeightedEdge { edge, weight })
            .collect();
        assert_eq!(replayed, stream.live);
    }

    #[test]
    fn zero_churn_is_insert_only_and_heavy_tailed() {
        let spec = StreamSpec {
            churn: 0.0,
            max_weight: 1,
            ..CHURN
        };
        let stream = generate(&spec, 3);
        assert!(stream
            .batches
            .iter()
            .all(|b| b.iter().all(|u| u.is_insert())));
        let mut deg = vec![0usize; spec.n];
        for we in &stream.live {
            deg[we.edge.u() as usize] += 1;
            deg[we.edge.v() as usize] += 1;
        }
        let mean = 2.0 * stream.live.len() as f64 / spec.n as f64;
        let max = deg.iter().copied().max().unwrap_or(0) as f64;
        assert!(max > 2.5 * mean, "max degree {max} vs mean {mean}");
    }
}
