//! Golden digest of the forest's persisted bytes over a fixed stream.
//!
//! A seeded stream from the bare SplitMix64 step
//! (`mpc_hashing::rng::splitmix64`, not `StdRng`, so neither a sampler
//! nor a graph-generator edit can move it) drives `batch_join`,
//! `batch_split` and the single-edge `join` / `split` at three sizes.
//! After every step the FNV-1a of the `Persist::save` bytes is folded
//! into one digest, together with the tour ids each split returned, in
//! order — so a change to any position, tour id, id-allocation order,
//! member list or shard order of any intermediate state moves the
//! constant. The constants were recorded on the commit *before*
//! `split_tour` became an in-place compaction pass; they pin that
//! rewrite (and any later one) to byte-identical state.

use mpc_etf::tour::validate;
use mpc_etf::{DistEtf, TourId};
use mpc_graph::ids::Edge;
use mpc_graph::oracle::UnionFind;
use mpc_hashing::rng::splitmix64;
use mpc_sim::{MpcConfig, MpcContext};
use mpc_snapshot::{fnv1a, Persist, Snapshot, SnapshotReader, SnapshotWriter};
use std::collections::BTreeMap;

const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Uniform in `0..bound` (modulo bias is irrelevant here).
fn below(state: &mut u64, bound: usize) -> usize {
    (splitmix64(state) % bound as u64) as usize
}

/// The forest's section bytes, as a checkpoint would write them.
fn saved(etf: &DistEtf) -> Vec<u8> {
    let mut w = SnapshotWriter::new(0);
    w.begin_section("etf");
    etf.save(&mut w);
    w.end_section();
    let snap = Snapshot::from_bytes(&w.finish()).expect("readable");
    let mut r = snap.section("etf").expect("etf section");
    r.take_bytes(r.remaining()).expect("whole section").to_vec()
}

fn fold(digest: &mut u64, word: u64) {
    *digest = (*digest ^ word).wrapping_mul(FNV_PRIME);
}

/// Up to `want` random edges that form a forest over the current
/// tours (so `batch_join` keeps every one).
fn pick_joinable(etf: &DistEtf, n: usize, want: usize, rng: &mut u64) -> Vec<Edge> {
    let mut index: BTreeMap<TourId, u32> = BTreeMap::new();
    let mut uf = UnionFind::new(n);
    let mut batch = Vec::new();
    for _ in 0..want * 50 {
        if batch.len() == want {
            break;
        }
        let (a, b) = (below(rng, n) as u32, below(rng, n) as u32);
        let (ta, tb) = (etf.tour_of(a), etf.tour_of(b));
        if ta == tb {
            continue;
        }
        let next = index.len() as u32;
        let ia = *index.entry(ta).or_insert(next);
        let next = index.len() as u32;
        let ib = *index.entry(tb).or_insert(next);
        if uf.union(ia, ib) {
            batch.push(Edge::new(a, b));
        }
    }
    batch
}

/// Removes and returns `take` random live edges.
fn pick_live(live: &mut Vec<Edge>, take: usize, rng: &mut u64) -> Vec<Edge> {
    (0..take)
        .map(|_| live.swap_remove(below(rng, live.len())))
        .collect()
}

fn run_stream(n: usize, steps: usize, seed: u64) -> u64 {
    let mut rng = seed;
    let mut ctx = MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(4096).build());
    let mut etf = DistEtf::new(n);
    let mut live: Vec<Edge> = Vec::new();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    let mut giant_splits = 0usize;
    for step in 0..steps {
        // Batches of up to 40 edges, half of them full-size.
        let size = if splitmix64(&mut rng) & 1 == 0 {
            40
        } else {
            1 + below(&mut rng, 40)
        };
        // Fill the forest to ~80 % first (one giant tour forms on the
        // way), then hold it there under balanced churn.
        let filling = live.len() < (n - 1) * 4 / 5;
        let join_pct = if filling { 80 } else { 45 };
        let join = live.is_empty() || below(&mut rng, 100) < join_pct;
        let single = below(&mut rng, 100) < 15;
        if join {
            let batch = pick_joinable(&etf, n, if single { 1 } else { size }, &mut rng);
            if single {
                if let [e] = batch[..] {
                    etf.join(e, &mut ctx);
                }
            } else {
                etf.batch_join(&batch, &mut ctx).expect("fits one machine");
            }
            live.extend(&batch);
        } else {
            let giant = etf.tours().map(|t| etf.tour_len(t)).max().unwrap_or(0);
            let take = if single { 1 } else { size.min(live.len()) };
            let batch = pick_live(&mut live, take, &mut rng);
            if batch
                .iter()
                .any(|&e| etf.tour_len(etf.tour_of(e.u())) == giant)
            {
                giant_splits += 1;
            }
            if single {
                let (root, child) = etf.split(batch[0], &mut ctx);
                fold(&mut digest, root);
                fold(&mut digest, child);
            } else {
                for id in etf.batch_split(&batch, &mut ctx) {
                    fold(&mut digest, id);
                }
            }
        }
        let bytes = saved(&etf);
        fold(&mut digest, fnv1a(&bytes));
        if step % 8 == 7 || step + 1 == steps {
            validate(&etf).unwrap_or_else(|v| panic!("n={n} step {step}: {v}"));
            // What the stream produces, `load` must accept, and the
            // loaded forest must save to the same bytes.
            let mut r = SnapshotReader::over("etf", &bytes);
            let back = DistEtf::load(&mut r).unwrap_or_else(|e| panic!("n={n} step {step}: {e}"));
            assert_eq!(saved(&back), bytes, "n={n} step {step}: load/save drift");
        }
    }
    assert_eq!(etf.edge_count(), live.len());
    assert!(
        giant_splits >= steps / 5,
        "the stream must keep cutting its largest tour ({giant_splits} of {steps} steps did)"
    );
    digest
}

#[test]
fn tens_of_vertices() {
    assert_eq!(run_stream(48, 160, 0x5EED_0001), 0xcaba_6e49_6bd3_f789);
}

#[test]
fn hundreds_of_vertices() {
    assert_eq!(run_stream(600, 240, 0x5EED_0002), 0x9485_0f8e_4407_18c2);
}

#[test]
fn thousands_of_vertices() {
    assert_eq!(run_stream(6000, 480, 0x5EED_0003), 0xcf46_549a_c1af_8479);
}
