//! Property-based tests for the extension invariants: certificate
//! soundness (cut preservation up to `k`), sketch-switching
//! transparency, and vertex-churn correctness.

use mpc_stream::core_alg::{ConnectivityConfig, RobustConnectivity, VertexDynamicConnectivity};
use mpc_stream::graph::cuts;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::graph::update::{Batch, Update};
use mpc_stream::kconn::{DynamicKConn, InsertOnlyKConn};
use mpc_stream::mpc::{MpcConfig, MpcContext};
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeSet;

mod common;
use common::{case_rng, vec_of};

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

/// Random simple edge set on `n` vertices.
fn edge_sets(rng: &mut StdRng, n: u32, max_edges: usize) -> Vec<Edge> {
    let pairs = vec_of(rng, 0..max_edges, |r| {
        (r.gen_range(0..n), r.gen_range(0..n))
    });
    let mut seen = BTreeSet::new();
    pairs
        .into_iter()
        .filter(|(a, b)| a != b)
        .map(|(a, b)| Edge::new(a, b))
        .filter(|e| seen.insert(*e))
        .collect()
}

/// A valid mixed batch sequence (inserts of absent edges, deletes of
/// live ones) together with the live edge set after every batch.
fn mixed_streams(rng: &mut StdRng, n: u32) -> (Vec<Batch>, Vec<Vec<Edge>>) {
    let steps = vec_of(rng, 1..80, |r| {
        (r.gen_range(0..n), r.gen_range(0..n), r.gen_bool(0.5))
    });
    let mut live: BTreeSet<Edge> = BTreeSet::new();
    let mut batches = Vec::new();
    let mut snapshots = Vec::new();
    let mut current = Batch::new();
    for (a, b, prefer_insert) in steps {
        if a == b {
            continue;
        }
        let e = Edge::new(a, b);
        if live.contains(&e) && !prefer_insert {
            live.remove(&e);
            current.push(Update::Delete(e));
        } else if !live.contains(&e) && (prefer_insert || live.is_empty()) {
            live.insert(e);
            current.push(Update::Insert(e));
        }
        if current.len() >= 6 {
            batches.push(std::mem::take(&mut current));
            snapshots.push(live.iter().copied().collect());
        }
    }
    if !current.is_empty() {
        batches.push(current);
        snapshots.push(live.iter().copied().collect());
    }
    (batches, snapshots)
}

/// Insert-only certificate: structurally valid, edge-subset of G,
/// within the k(n-1) size bound, and cut-exact up to k.
#[test]
fn insert_only_certificate_preserves_small_cuts() {
    let mut rng = case_rng();
    for case in 0..24 {
        let edges = edge_sets(&mut rng, 10, 30);
        let k = rng.gen_range(1usize..4);
        let n = 10usize;
        let mut ctx = ctx_for(n);
        let mut kc = InsertOnlyKConn::new(n, k);
        for chunk in edges.chunks(4) {
            kc.apply_batch(&Batch::inserting(chunk.iter().copied()), &mut ctx)
                .unwrap();
        }
        let cert = kc.certificate();
        assert_eq!(cert.validate(), Ok(()), "case {case}");
        assert!(
            cert.edge_count() <= k * (n - 1),
            "case {case}: certificate too large"
        );
        for e in cert.edges() {
            assert!(edges.contains(&e), "case {case}: ghost edge {e:?}");
        }
        let lam_g = cuts::edge_connectivity(n, &edges).min(k as u64);
        let lam_c = cuts::edge_connectivity(n, &cert.edges()).min(k as u64);
        assert_eq!(lam_g, lam_c, "case {case}");
        // Bridges coincide whenever the certificate may answer.
        if k >= 2 {
            assert_eq!(
                cert.bridges().unwrap(),
                cuts::bridges(n, &edges),
                "case {case}"
            );
        }
    }
}

/// Dynamic sketch-peeled certificate preserves truncated cuts
/// after arbitrary valid insert/delete streams.
#[test]
fn dynamic_certificate_preserves_small_cuts() {
    let mut rng = case_rng();
    for case in 0..24 {
        let (batches, snapshots) = mixed_streams(&mut rng, 9);
        let k = rng.gen_range(1usize..3);
        let seed = rng.gen_range(0u64..1000);
        let n = 9usize;
        let mut ctx = ctx_for(n);
        let mut kc = DynamicKConn::new(n, k, seed);
        for batch in &batches {
            kc.apply_batch(batch, &mut ctx).expect("valid stream");
        }
        let live = snapshots.last().cloned().unwrap_or_default();
        let cert = kc.certificate(&mut ctx);
        for e in cert.edges() {
            assert!(live.contains(&e), "case {case}: ghost edge {e:?}");
        }
        let lam_g = cuts::edge_connectivity(n, &live).min(k as u64);
        let lam_c = cuts::edge_connectivity(n, &cert.edges()).min(k as u64);
        assert_eq!(lam_g, lam_c, "case {case}");
    }
}

/// The robust wrapper gives oracle-exact labels on every prefix of
/// any oblivious stream (budget set high enough to never refuse).
#[test]
fn robust_connectivity_matches_oracle() {
    let mut rng = case_rng();
    for case in 0..24 {
        let (batches, snapshots) = mixed_streams(&mut rng, 12);
        let r = rng.gen_range(1usize..4);
        let n = 12usize;
        let mut ctx = ctx_for(n);
        let mut rc = RobustConnectivity::new(n, r, 1000, ConnectivityConfig::default(), 77);
        for (batch, live) in batches.iter().zip(&snapshots) {
            rc.apply_batch(batch, &mut ctx).unwrap();
            let labels = oracle::components(n, live.iter().copied());
            assert_eq!(rc.component_labels(), &labels[..], "case {case}");
        }
    }
}

/// Vertex-dynamic connectivity matches the oracle under arbitrary
/// add-vertex / add-edge / delete-edge / remove-vertex programs.
#[test]
fn vertex_churn_matches_oracle() {
    let mut rng = case_rng();
    for case in 0..24 {
        let program = vec_of(&mut rng, 1..60, |r| {
            (
                r.gen_range(0u8..4),
                r.gen_range(0u32..16),
                r.gen_range(0u32..16),
            )
        });
        let cap = 16usize;
        let mut ctx = ctx_for(cap);
        let mut vd =
            VertexDynamicConnectivity::with_capacity(cap, ConnectivityConfig::default(), 3);
        let mut live: Vec<Edge> = Vec::new();
        let mut active: Vec<u32> = Vec::new();
        for (op, x, y) in program {
            match op {
                0 => {
                    if vd.active_count() < cap {
                        active.push(vd.add_vertex(&mut ctx).unwrap());
                    }
                }
                1 => {
                    if active.len() >= 2 {
                        let a = active[x as usize % active.len()];
                        let b = active[y as usize % active.len()];
                        if a != b {
                            let e = Edge::new(a, b);
                            if !live.contains(&e) {
                                vd.apply_batch(&Batch::inserting([e]), &mut ctx).unwrap();
                                live.push(e);
                            }
                        }
                    }
                }
                2 => {
                    if !live.is_empty() {
                        let e = live.swap_remove(x as usize % live.len());
                        vd.apply_batch(&Batch::deleting([e]), &mut ctx).unwrap();
                    }
                }
                _ => {
                    if !active.is_empty() {
                        let i = x as usize % active.len();
                        let v = active[i];
                        if live.iter().all(|e| !e.touches(v)) {
                            vd.remove_vertex(v, &mut ctx).unwrap();
                            active.swap_remove(i);
                        }
                    }
                }
            }
        }
        let labels = oracle::components(cap, live.iter().copied());
        for &a in &active {
            for &b in &active {
                assert_eq!(
                    vd.connected(a, b).unwrap(),
                    labels[a as usize] == labels[b as usize],
                    "case {case}: connected({a}, {b})"
                );
            }
        }
        // Inactive slots are rejected, not misanswered.
        for v in 0..cap as u32 {
            if !active.contains(&v) {
                assert!(
                    vd.component_of(v).is_err(),
                    "case {case}: inactive slot {v} answered"
                );
            }
        }
    }
}

/// Snapshot of every tour NOT in `touched`: length, members, and the
/// full edge-record shard.
type TourSnapshot = std::collections::BTreeMap<
    mpc_stream::etf::TourId,
    (u64, Vec<u32>, Vec<(Edge, mpc_stream::etf::dist::EdgeRec)>),
>;

fn snapshot_untouched(
    etf: &mpc_stream::etf::DistEtf,
    touched: &BTreeSet<mpc_stream::etf::TourId>,
) -> TourSnapshot {
    etf.tours()
        .filter(|t| !touched.contains(t))
        .map(|t| {
            (
                t,
                (
                    etf.tour_len(t),
                    etf.tour_members(t).to_vec(),
                    etf.tour_edges(t).map(|(e, r)| (e, *r)).collect(),
                ),
            )
        })
        .collect()
}

/// The sharded-ETF locality guarantee: after any batch_join /
/// batch_split, the edge records (and lengths and memberships) of
/// every tour the batch did not touch are bit-identical — the
/// regression guard that writes stay shard-local.
#[test]
fn batch_ops_leave_untouched_tours_bit_identical() {
    use mpc_stream::etf::tour::validate;
    use mpc_stream::etf::DistEtf;
    use rand::SeedableRng;

    let mut cases = case_rng();
    for case in 0..16 {
        let seed = cases.gen_range(0u64..1 << 48);
        let n = 60usize;
        let mut ctx = ctx_for(n);
        let mut etf = DistEtf::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut live: Vec<Edge> = Vec::new();
        // Ten disjoint 6-vertex paths.
        for t in 0..10u32 {
            for j in 0..5u32 {
                let e = Edge::new(6 * t + j, 6 * t + j + 1);
                etf.join(e, &mut ctx);
                live.push(e);
            }
        }
        for _round in 0..8 {
            if rng.gen_bool(0.55) || live.is_empty() {
                // Batch join of up to 3 fresh cross-tour edges whose
                // tour pairs form a forest.
                let mut batch: Vec<Edge> = Vec::new();
                let mut used: BTreeSet<mpc_stream::etf::TourId> = BTreeSet::new();
                for _ in 0..40 {
                    if batch.len() >= 3 {
                        break;
                    }
                    let a = rng.gen_range(0..n as u32);
                    let b = rng.gen_range(0..n as u32);
                    let (ta, tb) = (etf.tour_of(a), etf.tour_of(b));
                    if a == b || ta == tb || used.contains(&ta) || used.contains(&tb) {
                        continue;
                    }
                    used.insert(ta);
                    used.insert(tb);
                    batch.push(Edge::new(a, b));
                }
                if batch.is_empty() {
                    continue;
                }
                let snap = snapshot_untouched(&etf, &used);
                etf.batch_join(&batch, &mut ctx)
                    .expect("batch fits one machine");
                live.extend(&batch);
                for (t, (len, members, recs)) in &snap {
                    assert_eq!(
                        etf.tour_len(*t),
                        *len,
                        "case {case}: length of untouched tour changed"
                    );
                    assert_eq!(
                        etf.tour_members(*t),
                        &members[..],
                        "case {case}: members of untouched tour changed"
                    );
                    let now: Vec<_> = etf.tour_edges(*t).map(|(e, r)| (e, *r)).collect();
                    assert_eq!(
                        &now, recs,
                        "case {case}: edge records of untouched tour changed"
                    );
                }
                validate(&etf).expect("valid after batch_join");
            } else {
                // Batch split of up to 3 live tree edges; touched =
                // the tours those edges belong to.
                let take = 1 + rng.gen_range(0..live.len().min(3));
                let mut batch: Vec<Edge> = Vec::new();
                for _ in 0..take {
                    let i = rng.gen_range(0..live.len());
                    batch.push(live.swap_remove(i));
                }
                let touched: BTreeSet<mpc_stream::etf::TourId> =
                    batch.iter().map(|e| etf.tour_of(e.u())).collect();
                let snap = snapshot_untouched(&etf, &touched);
                etf.batch_split(&batch, &mut ctx);
                for (t, (len, members, recs)) in &snap {
                    assert_eq!(
                        etf.tour_len(*t),
                        *len,
                        "case {case}: length of untouched tour changed"
                    );
                    assert_eq!(
                        etf.tour_members(*t),
                        &members[..],
                        "case {case}: members of untouched tour changed"
                    );
                    let now: Vec<_> = etf.tour_edges(*t).map(|(e, r)| (e, *r)).collect();
                    assert_eq!(
                        &now, recs,
                        "case {case}: edge records of untouched tour changed"
                    );
                }
                validate(&etf).expect("valid after batch_split");
            }
        }
    }
}
