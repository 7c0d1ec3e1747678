//! Property-based tests over the workspace invariants.

use mpc_stream::core_alg::{Connectivity, ConnectivityConfig};
use mpc_stream::etf::tour::validate;
use mpc_stream::etf::DistEtf;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::graph::update::{Batch, Update};
use mpc_stream::hashing::rng::StdRng;
use mpc_stream::mpc::{MpcConfig, MpcContext};
use mpc_stream::sketch::l0::L0Sampler;
use mpc_stream::sketch::vertex::{EdgeSample, VertexSketch};
use std::collections::BTreeSet;

mod common;
use common::{case_rng, vec_of};

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

/// Counts one case whose draw missed the property's precondition; it
/// does not count toward the `cases` to run. Panics past `256 × cases`
/// rejections, so a precondition that is rarely met fails the test
/// instead of hanging it.
fn reject(rejected: &mut u32, cases: u32) {
    *rejected += 1;
    assert!(
        *rejected <= 256 * cases,
        "{rejected} draws rejected for {cases} cases"
    );
}

/// A valid random batch sequence: at every step, insert an absent
/// edge or delete a live one, grouped into batches.
fn batch_sequences(rng: &mut StdRng, n: u32, max_batches: usize, batch_size: usize) -> Vec<Batch> {
    let steps = vec_of(rng, 1..max_batches * batch_size, |r| {
        (r.gen_range(0..n), r.gen_range(0..n), r.gen_bool(0.5))
    });
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let mut batches = Vec::new();
    let mut current = Batch::new();
    for (a, b, prefer_insert) in steps {
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        let do_insert = if live.contains(&e) {
            false
        } else {
            prefer_insert || live.is_empty()
        };
        if do_insert && !live.contains(&e) {
            live.insert(e);
            current.push(Update::Insert(e));
        } else if live.contains(&e) {
            live.remove(&e);
            current.push(Update::Delete(e));
        }
        if current.len() >= batch_size {
            batches.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        batches.push(current);
    }
    batches
}

/// Connectivity ≡ union-find oracle after every batch, with valid
/// Euler tours throughout (the headline invariant of Thm 1.1).
#[test]
fn connectivity_matches_oracle() {
    let mut rng = case_rng();
    for case in 0..24 {
        let batches = batch_sequences(&mut rng, 24, 8, 6);
        let seed = rng.gen_range(0u64..1000);
        let n = 24usize;
        let mut ctx = ctx_for(n);
        let mut conn = Connectivity::new(n, ConnectivityConfig::default(), seed);
        let mut live: BTreeSet<Edge> = BTreeSet::new();
        for batch in &batches {
            for u in batch.iter() {
                match u {
                    Update::Insert(e) => {
                        live.insert(e);
                    }
                    Update::Delete(e) => {
                        live.remove(&e);
                    }
                }
            }
            conn.apply_batch(batch, &mut ctx).expect("valid batch");
            let expect = oracle::components(n, live.iter().copied());
            assert_eq!(conn.component_labels(), &expect[..], "case {case}");
            validate(conn.etf()).expect("valid tours");
            // Forest sanity.
            let forest = conn.spanning_forest();
            let mut uf = oracle::UnionFind::new(n);
            for e in &forest {
                assert!(live.contains(e), "case {case}: forest edge {e} not live");
                assert!(uf.union(e.u(), e.v()), "case {case}: forest cycle at {e}");
            }
            assert_eq!(
                uf.component_count(),
                oracle::component_count(n, live.iter().copied()),
                "case {case}"
            );
        }
    }
}

/// Sketch linearity (paper Remark 3.2): splitting any update
/// sequence across two sketches and merging equals sketching the
/// whole sequence.
#[test]
fn l0_sampler_linearity() {
    let mut rng = case_rng();
    for case in 0..24 {
        let updates = vec_of(&mut rng, 1..120, |r| {
            (r.gen_range(0u64..4096), r.gen_bool(0.5), r.gen_bool(0.5))
        });
        let seed = rng.gen_range(0u64..1000);
        let mut whole = L0Sampler::new(4096, seed);
        let mut left = L0Sampler::new(4096, seed);
        let mut right = L0Sampler::new(4096, seed);
        for (i, positive, to_left) in updates {
            let delta = if positive { 1 } else { -1 };
            whole.update(i, delta);
            if to_left {
                left.update(i, delta);
            } else {
                right.update(i, delta);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole, "case {case}");
    }
}

/// A sampled cut edge is always a true cut edge, and a certified
/// empty cut is truly empty (Lemma 3.5's guarantee, checked
/// exactly rather than probabilistically).
#[test]
fn vertex_sketch_cut_soundness() {
    // The empty side, which the loop rejects: the bank has no merged
    // sketch for it, and a reset scratch samples the empty cut.
    {
        use mpc_stream::sketch::SketchBank;
        let mut bank = SketchBank::new(10, 2, 7);
        bank.update_edges([(Edge::new(0, 1), 1), (Edge::new(2, 9), 1)]);
        let mut scratch = bank.new_scratch();
        for c in 0..2 {
            assert!(bank.merged_copy(&[], c).is_none(), "copy {c}");
            scratch.reset(c);
            assert_eq!(bank.merge_copy_into(&[], &mut scratch), 0);
            assert_eq!(bank.sample_merged(&scratch), EdgeSample::Empty);
        }
    }
    let mut rng = case_rng();
    let (mut case, mut rejected) = (0, 0);
    while case < 24 {
        let edge_bits = vec_of(&mut rng, 45..46, |r| r.gen_bool(0.5));
        let side_bits = vec_of(&mut rng, 10..11, |r| r.gen_bool(0.5));
        let seed = rng.gen_range(0u64..500);
        let n = 10usize;
        let mut edges = Vec::new();
        let mut idx = 0;
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if edge_bits[idx] {
                    edges.push(Edge::new(a, b));
                }
                idx += 1;
            }
        }
        let members: Vec<u32> = (0..n as u32).filter(|&v| side_bits[v as usize]).collect();
        if members.is_empty() {
            reject(&mut rejected, 24);
            continue;
        }
        let mut sketches: Vec<VertexSketch> = (0..n as u32)
            .map(|v| VertexSketch::new(n, v, seed))
            .collect();
        for &e in &edges {
            sketches[e.u() as usize].insert_edge(e);
            sketches[e.v() as usize].insert_edge(e);
        }
        let mut set = sketches[members[0] as usize].clone();
        for &v in &members[1..] {
            set.merge(&sketches[v as usize]);
        }
        let cut: Vec<Edge> = edges
            .iter()
            .copied()
            .filter(|e| side_bits[e.u() as usize] != side_bits[e.v() as usize])
            .collect();
        match set.sample() {
            EdgeSample::Edge(e) => {
                assert!(cut.contains(&e), "case {case}: sampled non-cut edge {e}")
            }
            EdgeSample::Empty => assert!(
                cut.is_empty(),
                "case {case}: cut of size {} reported empty",
                cut.len()
            ),
            EdgeSample::Fail => {} // allowed with constant probability
        }
        case += 1;
    }
}

/// Euler-tour forests stay intrinsically valid under arbitrary
/// single-op sequences, and the edges `EdgeRec::on_path` selects
/// are the unique tree path computed by BFS.
#[test]
fn etf_ops_stay_valid() {
    let mut rng = case_rng();
    for case in 0..24 {
        let ops = vec_of(&mut rng, 1..40, |r| {
            (
                r.gen_range(0u32..16),
                r.gen_range(0u32..16),
                r.gen_bool(0.5),
            )
        });
        let n = 16usize;
        let mut ctx = ctx_for(n);
        let mut etf = DistEtf::new(n);
        let mut live: BTreeSet<Edge> = BTreeSet::new();
        for (a, b, del) in ops {
            if a == b {
                continue;
            }
            let e = Edge::new(a, b);
            if del && live.contains(&e) {
                etf.split(e, &mut ctx);
                live.remove(&e);
            } else if !del && !live.contains(&e) && etf.tour_of(a) != etf.tour_of(b) {
                etf.join(e, &mut ctx);
                live.insert(e);
            }
            validate(&etf).expect("valid after op");
        }
        // Check the path test against BFS on the forest.
        let adj = {
            let mut adj = vec![Vec::new(); n];
            for e in &live {
                adj[e.u() as usize].push(e.v());
                adj[e.v() as usize].push(e.u());
            }
            adj
        };
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                if u < v && etf.tour_of(u) == etf.tour_of(v) {
                    let (fu, fv) = (etf.f_l(u), etf.f_l(v));
                    let mut path: Vec<Edge> = etf
                        .tour_edges(etf.tour_of(u))
                        .filter(|(_, r)| r.on_path(fu, fv))
                        .map(|(e, _)| e)
                        .collect();
                    path.sort();
                    let mut expect = bfs_path(&adj, u, v);
                    expect.sort();
                    assert_eq!(path, expect, "case {case}: path {u}–{v}");
                }
            }
        }
    }
}

/// Batch Euler-tour join/split keep the tours intrinsically valid
/// for arbitrary legal batch sequences (the Section 6.2 machinery
/// under random auxiliary-tree shapes).
#[test]
fn etf_batch_ops_stay_valid() {
    use mpc_stream::graph::oracle::UnionFind;
    let mut rng = case_rng();
    for case in 0..16 {
        let steps = vec_of(&mut rng, 1..10, |r| {
            let pairs = vec_of(r, 1..6, |r| (r.gen_range(0u32..20), r.gen_range(0u32..20)));
            (pairs, r.gen_bool(0.5))
        });
        let n = 20usize;
        let mut ctx = ctx_for(n);
        let mut etf = DistEtf::new(n);
        let mut live: Vec<Edge> = Vec::new();
        for (pairs, join) in steps {
            if join {
                // Build a legal join batch: edges across distinct
                // tours forming a forest over tours.
                let mut batch: Vec<Edge> = Vec::new();
                let mut uf = UnionFind::new(n);
                let mut index: std::collections::BTreeMap<u64, u32> = Default::default();
                for (a, b) in pairs {
                    if a == b {
                        continue;
                    }
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
                if !batch.is_empty() {
                    etf.batch_join(&batch, &mut ctx)
                        .expect("batch fits one machine");
                    live.extend(&batch);
                }
            } else if !live.is_empty() {
                // Split a pseudo-random subset of live edges.
                let take = (pairs.len()).min(live.len());
                let batch: Vec<Edge> = live.drain(..take).collect();
                etf.batch_split(&batch, &mut ctx);
            }
            validate(&etf).expect("valid after batch op");
        }
        // Connectivity of the forest matches union-find on live edges.
        let labels = oracle::components(n, live.iter().copied());
        for u in 0..n as u32 {
            for v in (u + 1)..n as u32 {
                assert_eq!(
                    etf.tour_of(u) == etf.tour_of(v),
                    labels[u as usize] == labels[v as usize],
                    "case {case}: connectivity mismatch {u} {v}"
                );
            }
        }
    }
}

/// Exact MSF stays equal to Kruskal for random insertion batches
/// with small weight ranges (maximizing ties, the hard case).
#[test]
fn exact_msf_matches_kruskal() {
    use mpc_stream::graph::ids::WeightedEdge;
    use mpc_stream::graph::update::WeightedBatch;
    use mpc_stream::msf::ExactMsf;
    // No clean edge, which the loop rejects: an empty batch leaves
    // the weight of the empty forest.
    {
        let n = 16usize;
        let mut msf = ExactMsf::new(n);
        msf.apply_batch(&WeightedBatch::inserting([]), &mut ctx_for(n))
            .expect("legal batch");
        assert_eq!(msf.weight(), oracle::msf_weight(n, []));
    }
    let mut rng = case_rng();
    let (mut case, mut rejected) = (0, 0);
    while case < 16 {
        let edges = vec_of(&mut rng, 1..40, |r| {
            (
                r.gen_range(0u32..16),
                r.gen_range(0u32..16),
                r.gen_range(1u64..6),
            )
        });
        let chunk = rng.gen_range(1usize..8);
        let n = 16usize;
        let mut seen = std::collections::BTreeSet::new();
        let clean: Vec<WeightedEdge> = edges
            .into_iter()
            .filter(|&(a, b, _)| a != b)
            .filter(|&(a, b, _)| seen.insert(Edge::new(a, b)))
            .map(|(a, b, w)| WeightedEdge::new(a, b, w))
            .collect();
        if clean.is_empty() {
            reject(&mut rejected, 16);
            continue;
        }
        let mut ctx = ctx_for(n);
        let mut msf = ExactMsf::new(n);
        let mut all: Vec<WeightedEdge> = Vec::new();
        for batch_edges in clean.chunks(chunk) {
            let batch = WeightedBatch::inserting(batch_edges.iter().copied());
            msf.apply_batch(&batch, &mut ctx).expect("legal batch");
            all.extend(batch_edges);
            assert_eq!(
                msf.weight(),
                oracle::msf_weight(n, all.iter().copied()),
                "case {case}: weight diverged from Kruskal"
            );
        }
        case += 1;
    }
}

/// Arena canonicality: the dense column layout makes a sampler a
/// pure function of the summarized vector — any permutation of
/// one update stream yields a bit-identical sampler.
#[test]
fn l0_update_order_is_canonical() {
    let mut rng = case_rng();
    for case in 0..24 {
        let updates = vec_of(&mut rng, 1..100, |r| {
            (r.gen_range(0u64..4096), r.gen_bool(0.5))
        });
        let rot = rng.gen_range(0usize..100);
        let seed = rng.gen_range(0u64..500);
        let apply = |order: &[(u64, bool)]| {
            let mut s = L0Sampler::new(4096, seed);
            for &(i, positive) in order {
                s.update(i, if positive { 1 } else { -1 });
            }
            s
        };
        let forward = apply(&updates);
        let mut rotated = updates.clone();
        rotated.rotate_left(rot % updates.len());
        assert_eq!(&apply(&rotated), &forward, "case {case}: rotated");
        let mut reversed = updates.clone();
        reversed.reverse();
        assert_eq!(&apply(&reversed), &forward, "case {case}: reversed");
    }
}

/// Arena equivalence: a `SketchBank` column driven through the
/// contiguous pools equals a standalone `VertexSketch` of the
/// same family driven through its own dense column, cell for
/// cell — and the scratch-merge path (`merged_copy`) equals the
/// fold of standalone sketch merges (merge linearity vs direct
/// application).
#[test]
fn bank_arena_matches_standalone_sketches() {
    use mpc_stream::sketch::SketchBank;
    let mut rng = case_rng();
    for case in 0..24 {
        let edge_bits = vec_of(&mut rng, 66..67, |r| r.gen_bool(0.5));
        let delete_bits = vec_of(&mut rng, 66..67, |r| r.gen_bool(0.5));
        let side_bits = vec_of(&mut rng, 12..13, |r| r.gen_bool(0.5));
        let seed = rng.gen_range(0u64..500);
        let n = 12usize;
        let copies = 3usize;
        let mut bank = SketchBank::new(n, copies, seed);
        let mut standalone: Vec<Vec<VertexSketch>> = (0..n as u32)
            .map(|v| {
                (0..copies)
                    .map(|c| VertexSketch::new(n, v, seed + c as u64))
                    .collect()
            })
            .collect();
        let mut idx = 0;
        let mut touched = std::collections::BTreeSet::new();
        for a in 0..n as u32 {
            for b in (a + 1)..n as u32 {
                if edge_bits[idx] {
                    let e = Edge::new(a, b);
                    bank.insert_edge(e);
                    touched.insert(a);
                    touched.insert(b);
                    for endpoint in [a, b] {
                        for s in &mut standalone[endpoint as usize] {
                            s.insert_edge(e);
                        }
                    }
                    if delete_bits[idx] {
                        bank.delete_edge(e);
                        for endpoint in [a, b] {
                            for s in &mut standalone[endpoint as usize] {
                                s.delete_edge(e);
                            }
                        }
                    }
                }
                idx += 1;
            }
        }
        // Column-for-column equality of the two representations.
        for &v in &touched {
            for (c, expected) in standalone[v as usize].iter().enumerate() {
                let col = bank.vertex_sketch(v, c).expect("touched column");
                assert_eq!(&col, expected, "case {case}: vertex {v} copy {c}");
            }
        }
        assert!(
            (0..n as u32).all(|v| bank.is_materialized(v) == touched.contains(&v)),
            "case {case}: materialized set differs from the touched set"
        );
        // Merge linearity: scratch accumulation == fold of merges.
        let members: Vec<u32> = (0..n as u32).filter(|&v| side_bits[v as usize]).collect();
        let touched_members: Vec<u32> = members
            .iter()
            .copied()
            .filter(|v| touched.contains(v))
            .collect();
        for (c, via_arena) in (0..copies)
            .map(|c| bank.merged_copy(&members, c))
            .enumerate()
        {
            match (&via_arena, touched_members.split_first()) {
                (None, None) => {}
                (Some(merged), Some((&first, rest))) => {
                    let mut fold = standalone[first as usize][c].clone();
                    for &v in rest {
                        fold.merge(&standalone[v as usize][c]);
                    }
                    assert_eq!(merged, &fold, "case {case}: merged copy {c}");
                }
                _ => panic!("case {case}: materialization disagreement"),
            }
        }
    }
}

/// `words()` accounting pins the paper's dense shape: the cached
/// per-column cost equals the pre-arena probe-sketch formula, and
/// total words depend only on which vertices were ever touched —
/// insert/delete churn back to the zero vector changes nothing.
#[test]
fn bank_words_invariant_under_churn() {
    use mpc_stream::sketch::SketchBank;
    use mpc_stream::snapshot::{Persist, Snapshot, SnapshotWriter};
    // A stream with no edges, which the loop rejects: nothing is
    // materialized, before or after a save → load.
    {
        let mut bank = SketchBank::new(20, 3, 5);
        bank.update_edges([]);
        assert_eq!(bank.words(), 0);
        let mut w = SnapshotWriter::new(0);
        w.begin_section("bank");
        bank.save(&mut w);
        w.end_section();
        let snap = Snapshot::from_bytes(&w.finish()).expect("container parses");
        let mut r = snap.section("bank").expect("section present");
        let restored = SketchBank::load(&mut r).expect("an empty bank loads");
        r.expect_end().expect("section consumed");
        assert_eq!(restored.words(), 0);
    }
    let mut rng = case_rng();
    let (mut case, mut rejected) = (0, 0);
    while case < 24 {
        let edges = vec_of(&mut rng, 1..40, |r| {
            (r.gen_range(0u32..20), r.gen_range(0u32..20))
        });
        let copies = rng.gen_range(1usize..6);
        let seed = rng.gen_range(0u64..100);
        let n = 20usize;
        let mut bank = SketchBank::new(n, copies, seed);
        // The cached per-column cost matches a freshly seeded probe
        // column (what the pre-arena code recomputed per call).
        assert_eq!(
            bank.words_per_vertex(),
            VertexSketch::new(n, 0, 0).words() * copies as u64,
            "case {case}"
        );
        let clean: Vec<Edge> = {
            let mut seen = std::collections::BTreeSet::new();
            edges
                .iter()
                .filter(|&&(a, b)| a != b)
                .map(|&(a, b)| Edge::new(a, b))
                .filter(|e| seen.insert(*e))
                .collect()
        };
        if clean.is_empty() {
            reject(&mut rejected, 24);
            continue;
        }
        for &e in &clean {
            bank.insert_edge(e);
        }
        let touched: std::collections::BTreeSet<u32> =
            clean.iter().flat_map(|e| [e.u(), e.v()]).collect();
        let after_inserts = bank.words();
        assert_eq!(
            after_inserts,
            touched.len() as u64 * bank.words_per_vertex(),
            "case {case}"
        );
        // Churn everything back to zero: accounted words must not
        // move (dense accounted shape, host cells merely cancel).
        for &e in &clean {
            bank.delete_edge(e);
        }
        assert_eq!(bank.words(), after_inserts, "case {case}: after churn");
        for &v in &touched {
            for c in 0..copies {
                assert!(
                    bank.vertex_sketch(v, c)
                        .expect("still materialized")
                        .is_empty_cut(),
                    "case {case}: vertex {v} copy {c} not empty"
                );
            }
        }
        // Re-inserting the same edges still does not re-charge.
        for &e in &clean {
            bank.insert_edge(e);
        }
        assert_eq!(bank.words(), after_inserts, "case {case}: after re-insert");
        case += 1;
    }
}

fn bfs_path(adj: &[Vec<u32>], u: u32, v: u32) -> Vec<Edge> {
    use std::collections::VecDeque;
    let mut prev = vec![u32::MAX; adj.len()];
    let mut q = VecDeque::from([u]);
    prev[u as usize] = u;
    while let Some(x) = q.pop_front() {
        if x == v {
            break;
        }
        for &y in &adj[x as usize] {
            if prev[y as usize] == u32::MAX {
                prev[y as usize] = x;
                q.push_back(y);
            }
        }
    }
    let mut path = Vec::new();
    let mut cur = v;
    while cur != u {
        let p = prev[cur as usize];
        path.push(Edge::new(cur, p));
        cur = p;
    }
    path
}
