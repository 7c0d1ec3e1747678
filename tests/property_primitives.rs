//! Property-based tests for the distributed primitives: the *real*
//! message-passing engine must (a) compute the right answer and (b)
//! stay within the round formulas the accounting facade
//! (`MpcContext`) charges — across random cluster shapes, payloads,
//! and data placements.

use mpc_stream::mpc::cluster::Cluster;
use mpc_stream::mpc::primitives::{
    broadcast, converge_cast, prefix_sum, sample_sort, tree_fanout, tree_rounds,
};
use rand::Rng;

mod common;
use common::{case_rng, vec_of};

/// Broadcast delivers the exact payload to every machine within
/// the fan-out-tree round bound.
#[test]
fn broadcast_is_exact_and_within_bound() {
    let mut rng = case_rng();
    for case in 0..32 {
        let machines = rng.gen_range(1usize..40);
        let payload_len = rng.gen_range(1usize..8);
        let capacity_slack = rng.gen_range(4u64..64);
        let seed = rng.gen_range(0u64..1000);
        let payload: Vec<u64> = (0..payload_len as u64).map(|i| i * 31 + seed).collect();
        let capacity = payload.len() as u64 * capacity_slack;
        let mut c = Cluster::new(machines, capacity);
        let rounds = broadcast(&mut c, &payload).unwrap();
        for m in 0..machines {
            assert_eq!(c.buffer(m), &payload[..], "case {case}: machine {m}");
        }
        let fanout = tree_fanout(capacity, payload.len() as u64);
        // The engine spends the tree depth plus one delivery round.
        assert!(
            rounds <= tree_rounds(machines, fanout) + 1,
            "case {case}: {rounds} rounds"
        );
    }
}

/// Converge-cast folds every machine's value into machine 0
/// within the aggregation-tree round bound.
#[test]
fn converge_cast_sums_within_bound() {
    let mut rng = case_rng();
    for case in 0..32 {
        let machines = rng.gen_range(1usize..40);
        let values = vec_of(&mut rng, 1..40, |r| r.gen_range(0u64..1000));
        let machines = machines.min(values.len());
        let mut c = Cluster::new(machines, 1 << 12);
        for (m, v) in values.iter().take(machines).enumerate() {
            c.buffer_mut(m).push(*v);
        }
        let expect: u64 = values.iter().take(machines).sum();
        let rounds = converge_cast(&mut c, |a, b| {
            let add = b.first().copied().unwrap_or(0);
            if a.is_empty() {
                a.push(add);
            } else {
                a[0] += add;
            }
        })
        .unwrap();
        assert_eq!(
            c.buffer(0).first().copied().unwrap_or(0),
            expect,
            "case {case}"
        );
        let fanout = tree_fanout(1 << 12, 1);
        assert!(
            rounds <= tree_rounds(machines, fanout) + 2,
            "case {case}: {rounds} rounds"
        );
    }
}

/// Sample sort produces a globally sorted placement: each machine
/// locally sorted, machine boundaries monotone, multiset
/// preserved.
#[test]
fn sample_sort_is_a_permutation_sorted_globally() {
    let mut rng = case_rng();
    for case in 0..32 {
        let machines = rng.gen_range(1usize..16);
        let mut data = vec_of(&mut rng, 0..200, |r| r.gen_range(0u64..10_000));
        let mut c = Cluster::new(machines, 1 << 12);
        // Scatter arbitrarily (round-robin with a twist).
        for (i, v) in data.iter().enumerate() {
            let m = (i * 7 + i / 3) % machines;
            c.buffer_mut(m).push(*v);
        }
        sample_sort(&mut c).unwrap();
        let mut collected = Vec::new();
        let mut prev_last: Option<u64> = None;
        for m in 0..machines {
            let b = c.buffer(m);
            assert!(
                b.windows(2).all(|w| w[0] <= w[1]),
                "case {case}: machine {m} unsorted"
            );
            if let (Some(last), Some(first)) = (prev_last, b.first()) {
                assert!(last <= *first, "case {case}: boundary into machine {m}");
            }
            if let Some(l) = b.last() {
                prev_last = Some(*l);
            }
            collected.extend_from_slice(b);
        }
        data.sort_unstable();
        assert_eq!(collected, data, "case {case}");
    }
}

/// Prefix sum gives every machine the exclusive sum of the buffer
/// value sums before it.
#[test]
fn prefix_sum_is_exclusive_scan() {
    let mut rng = case_rng();
    for case in 0..32 {
        let sizes = vec_of(&mut rng, 1..24, |r| r.gen_range(0u64..50));
        let machines = sizes.len();
        let mut c = Cluster::new(machines, 1 << 12);
        let mut value_sums = vec![0u64; machines];
        for (m, sz) in sizes.iter().enumerate() {
            for i in 0..*sz {
                c.buffer_mut(m).push(i * 3 + 1);
                value_sums[m] += i * 3 + 1;
            }
        }
        prefix_sum(&mut c).unwrap();
        let mut expect = 0u64;
        for (m, vs) in value_sums.iter().enumerate() {
            assert_eq!(c.buffer(m)[0], expect, "case {case}: machine {m}");
            expect += vs;
        }
    }
}
