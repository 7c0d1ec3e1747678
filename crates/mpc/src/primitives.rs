//! Genuinely distributed primitives on the exchange engine.
//!
//! These run real multi-round protocols on a [`Cluster`] and return
//! their measured round counts. Their purpose in the workspace is to
//! *validate the cost formulas* that [`MpcContext`] charges: the tests
//! here assert `measured rounds ≤ charged formula` for broadcast,
//! converge-cast, and sample sort across a grid of cluster shapes.
//!
//! [`MpcContext`]: crate::context::MpcContext

use crate::cluster::{Cluster, Msg};
use crate::error::MpcError;

/// Fan-out of a broadcast/aggregation tree for payloads of
/// `payload_words` on machines of capacity `capacity`: a machine can
/// forward at most `capacity / payload_words` copies per round.
pub fn tree_fanout(capacity: u64, payload_words: u64) -> u64 {
    (capacity / payload_words.max(1)).max(2)
}

/// Rounds a fan-out-`f` tree needs to span `machines` machines.
pub fn tree_rounds(machines: usize, fanout: u64) -> u64 {
    if machines <= 1 {
        return 1;
    }
    let mut covered: u64 = 1;
    let mut rounds = 0;
    while covered < machines as u64 {
        covered = covered.saturating_mul(1 + fanout);
        rounds += 1;
    }
    rounds
}

/// Broadcasts `payload` from machine 0 to every machine's buffer via
/// a real fan-out tree. Returns the number of rounds used.
///
/// # Errors
///
/// Propagates cap violations from the engine (a payload larger than
/// the capacity cannot be broadcast).
pub fn broadcast(cluster: &mut Cluster, payload: &[u64]) -> Result<u64, MpcError> {
    let machines = cluster.machines();
    let fanout = tree_fanout(cluster.capacity(), payload.len() as u64) as usize;
    let start = cluster.rounds();
    // Machines that already hold the payload, in the order they got it.
    let mut holders: Vec<usize> = vec![0];
    let mut has: Vec<bool> = vec![false; machines];
    has[0] = true;
    cluster.buffer_mut(0).clear();
    cluster.buffer_mut(0).extend_from_slice(payload);
    while holders.len() < machines {
        // Plan this round: holder i forwards to the next `fanout`
        // uncovered machines.
        let mut plan: Vec<Vec<usize>> = vec![Vec::new(); machines];
        let mut next: usize = 0;
        for &h in &holders {
            for _ in 0..fanout {
                while next < machines && has[next] {
                    next += 1;
                }
                if next >= machines {
                    break;
                }
                plan[h].push(next);
                has[next] = true;
                next += 1;
            }
        }
        let payload_vec = payload.to_vec();
        cluster.exchange(|id, buf, inbox| {
            for words in inbox {
                *buf = words;
            }
            plan[id]
                .iter()
                .map(|&d| Msg::new(d, payload_vec.clone()))
                .collect()
        })?;
        for targets in &plan {
            holders.extend(targets.iter().copied());
        }
    }
    // One final round to deliver the last wave.
    cluster.exchange(|_id, buf, inbox| {
        for words in inbox {
            *buf = words;
        }
        vec![]
    })?;
    Ok(cluster.rounds() - start)
}

/// Converge-cast: folds every machine's buffer into machine 0 using a
/// real aggregation tree, combining with `merge` (which must be
/// associative and size-preserving, e.g. coordinate-wise sum of
/// sketches). Returns the rounds used.
///
/// # Errors
///
/// Propagates cap violations from the engine.
pub fn converge_cast<F>(cluster: &mut Cluster, mut merge: F) -> Result<u64, MpcError>
where
    F: FnMut(&mut Vec<u64>, Vec<u64>),
{
    let machines = cluster.machines();
    let payload = cluster
        .buffer(0)
        .len()
        .max(1)
        .try_into()
        .unwrap_or(u64::MAX);
    let fanout = tree_fanout(cluster.capacity(), payload) as usize;
    let start = cluster.rounds();
    // Live = machines still holding partial aggregates. Each round,
    // groups of (fanout+1) live machines merge into their first member.
    let mut live: Vec<usize> = (0..machines).collect();
    while live.len() > 1 {
        let mut dest_of: Vec<Option<usize>> = vec![None; machines];
        let mut new_live = Vec::new();
        for group in live.chunks(fanout + 1) {
            let head = group[0];
            new_live.push(head);
            for &m in &group[1..] {
                dest_of[m] = Some(head);
            }
        }
        cluster.exchange(|id, buf, inbox| {
            for words in inbox {
                merge(buf, words);
            }
            match dest_of[id] {
                Some(d) => vec![Msg::new(d, std::mem::take(buf))],
                None => vec![],
            }
        })?;
        live = new_live;
    }
    // Final delivery round.
    cluster.exchange(|_id, buf, inbox| {
        for words in inbox {
            merge(buf, words);
        }
        vec![]
    })?;
    Ok(cluster.rounds() - start)
}

/// Distributed sample sort of all words held in machine buffers.
/// After it returns, machine `i`'s buffer is sorted and every word on
/// machine `i` is `≤` every word on machine `i+1`. Returns the rounds
/// used.
///
/// Data is assumed balanced enough that no machine's final share
/// exceeds its capacity (true for the uniform test workloads; the
/// full GSZ'11 sort would add a rebalancing pass).
///
/// # Errors
///
/// Propagates cap violations from the engine.
pub fn sample_sort(cluster: &mut Cluster) -> Result<u64, MpcError> {
    let machines = cluster.machines();
    let start = cluster.rounds();
    if machines == 1 {
        cluster.buffer_mut(0).sort_unstable();
        cluster.exchange(|_, _, _| vec![])?; // still a round of "work"
        return Ok(cluster.rounds() - start);
    }
    // Round 1: every machine sends an evenly spaced sample to machine 0.
    let sample_per_machine = 4usize;
    cluster.exchange(|_id, buf, _inbox| {
        buf.sort_unstable();
        let k = buf.len();
        let sample: Vec<u64> = if k == 0 {
            vec![]
        } else {
            (0..sample_per_machine)
                .map(|i| buf[i * k / sample_per_machine])
                .collect()
        };
        vec![Msg::new(0, sample)]
    })?;
    // Round 2: machine 0 merges samples and picks machines-1 pivots;
    // pivots get broadcast (tree) below.
    let mut pivots: Vec<u64> = Vec::new();
    cluster.exchange(|id, _buf, inbox| {
        if id == 0 {
            let mut all: Vec<u64> = inbox.into_iter().flatten().collect();
            all.sort_unstable();
            for i in 1..machines {
                if !all.is_empty() {
                    pivots.push(all[i * all.len() / machines]);
                }
            }
        }
        vec![]
    })?;
    // Broadcast pivots with the real tree. We temporarily stash each
    // machine's data because `broadcast` overwrites buffers.
    let stashed: Vec<Vec<u64>> = (0..machines)
        .map(|m| std::mem::take(cluster.buffer_mut(m)))
        .collect();
    broadcast(cluster, &pivots)?;
    for (m, data) in stashed.into_iter().enumerate() {
        *cluster.buffer_mut(m) = data;
    }
    // Routing round: send each element to its pivot bucket.
    let pivots_route = pivots.clone();
    cluster.exchange(|_id, buf, _inbox| {
        let data = std::mem::take(buf);
        let mut by_dest: Vec<Vec<u64>> = vec![Vec::new(); machines];
        for w in data {
            let dest = pivots_route.partition_point(|&p| p <= w);
            by_dest[dest].push(w);
        }
        by_dest
            .into_iter()
            .enumerate()
            .filter(|(_, v)| !v.is_empty())
            .map(|(d, v)| Msg::new(d, v))
            .collect()
    })?;
    // Delivery + local sort round.
    cluster.exchange(|_id, buf, inbox| {
        buf.extend(inbox.into_iter().flatten());
        buf.sort_unstable();
        vec![]
    })?;
    Ok(cluster.rounds() - start)
}

/// Distributed exclusive prefix sum (the classic MPC scan): after it
/// returns, machine `i`'s buffer is prefixed with one extra word
/// holding the sum of all words on machines `< i`. Returns the rounds
/// used.
///
/// Protocol: the Hillis–Steele doubling scan — at step `r`, machine
/// `i` forwards its running sum to machine `i + 2^r`. Every message
/// is one word, so the scan is cap-safe at any cluster shape, in
/// `⌈log2 M⌉ + 1` rounds.
///
/// # Errors
///
/// Propagates cap violations from the engine.
pub fn prefix_sum(cluster: &mut Cluster) -> Result<u64, MpcError> {
    let machines = cluster.machines();
    let start = cluster.rounds();
    let locals: Vec<u64> = (0..machines)
        .map(|m| cluster.buffer(m).iter().sum())
        .collect();
    // `acc[i]` mirrors machine i's running inclusive sum; it is
    // updated only with values that really moved through the engine.
    let mut acc: Vec<u64> = locals.clone();
    let mut step = 1usize;
    while step < machines {
        let snapshot = acc.clone();
        let mut delivered: Vec<(usize, u64)> = Vec::new();
        cluster.exchange(|id, _buf, inbox| {
            for msg in inbox {
                delivered.push((id, msg[0]));
            }
            if id + step < machines {
                vec![Msg::new(id + step, vec![snapshot[id]])]
            } else {
                vec![]
            }
        })?;
        for i in step..machines {
            acc[i] += snapshot[i - step];
        }
        step <<= 1;
    }
    // Drain the last wave and install the exclusive offsets.
    cluster.exchange(|id, buf, _inbox| {
        buf.insert(0, acc[id] - locals[id]);
        vec![]
    })?;
    Ok(cluster.rounds() - start)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpc_hashing::rng::StdRng;

    #[test]
    fn tree_rounds_formula() {
        assert_eq!(tree_rounds(1, 4), 1);
        // fanout 4: 1 -> 5 -> 25 machines covered.
        assert_eq!(tree_rounds(5, 4), 1);
        assert_eq!(tree_rounds(25, 4), 2);
        assert_eq!(tree_rounds(26, 4), 3);
    }

    #[test]
    fn broadcast_reaches_everyone() {
        for machines in [1usize, 2, 5, 17, 40] {
            let mut c = Cluster::new(machines, 16);
            let payload = vec![3, 1, 4];
            let rounds = broadcast(&mut c, &payload).unwrap();
            for m in 0..machines {
                assert_eq!(c.buffer(m), &payload[..], "machine {m} of {machines}");
            }
            // Measured rounds within the charged bound (+1 delivery).
            let fanout = tree_fanout(16, 3);
            assert!(
                rounds <= tree_rounds(machines, fanout) + 1,
                "machines={machines} rounds={rounds}"
            );
        }
    }

    #[test]
    fn broadcast_too_large_payload_fails() {
        let mut c = Cluster::new(3, 4);
        let err = broadcast(&mut c, &[0; 5]).unwrap_err();
        assert!(matches!(err, MpcError::SendCapExceeded { .. }));
    }

    #[test]
    fn converge_cast_sums() {
        for machines in [1usize, 3, 10, 33] {
            let mut c = Cluster::new(machines, 64);
            for m in 0..machines {
                *c.buffer_mut(m) = vec![m as u64, 1];
            }
            let rounds = converge_cast(&mut c, |acc, other| {
                if acc.is_empty() {
                    *acc = other;
                } else {
                    for (a, b) in acc.iter_mut().zip(other) {
                        *a += b;
                    }
                }
            })
            .unwrap();
            let expect_sum: u64 = (0..machines as u64).sum();
            assert_eq!(c.buffer(0), &[expect_sum, machines as u64]);
            let fanout = tree_fanout(64, 2);
            assert!(rounds <= tree_rounds(machines, fanout) + 2);
        }
    }

    #[test]
    fn sample_sort_sorts_globally() {
        let mut rng = StdRng::seed_from_u64(8);
        let machines = 8;
        let per = 12;
        let mut c = Cluster::new(machines, 128);
        let mut all: Vec<u64> = Vec::new();
        for m in 0..machines {
            let data: Vec<u64> = (0..per).map(|_| rng.gen_range(0..1000)).collect();
            all.extend(&data);
            *c.buffer_mut(m) = data;
        }
        let rounds = sample_sort(&mut c).unwrap();
        all.sort_unstable();
        let mut got = Vec::new();
        for m in 0..machines {
            let b = c.buffer(m).to_vec();
            assert!(b.windows(2).all(|w| w[0] <= w[1]), "machine {m} sorted");
            if m + 1 < machines {
                if let (Some(&last), Some(&first)) = (b.last(), c.buffer(m + 1).first()) {
                    assert!(last <= first, "boundary {m}");
                }
            }
            got.extend(b);
        }
        assert_eq!(got, all);
        // Constant number of exchanges plus a broadcast tree.
        assert!(rounds <= 4 + tree_rounds(machines, tree_fanout(128, 7)) + 1);
    }

    #[test]
    fn sample_sort_single_machine() {
        let mut c = Cluster::new(1, 32);
        *c.buffer_mut(0) = vec![5, 1, 4, 2];
        sample_sort(&mut c).unwrap();
        assert_eq!(c.buffer(0), &[1, 2, 4, 5]);
    }

    #[test]
    fn prefix_sum_computes_exclusive_offsets() {
        for machines in [1usize, 2, 5, 12] {
            let mut c = Cluster::new(machines, 64);
            let mut expect_offset = Vec::new();
            let mut acc = 0u64;
            for m in 0..machines {
                let data: Vec<u64> = (0..m as u64 + 1).collect(); // sum = m(m+1)/2
                expect_offset.push(acc);
                acc += data.iter().sum::<u64>();
                *c.buffer_mut(m) = data;
            }
            prefix_sum(&mut c).unwrap();
            for (m, expect) in expect_offset.iter().enumerate() {
                assert_eq!(c.buffer(m)[0], *expect, "machine {m} of {machines}");
            }
        }
    }

    #[test]
    fn prefix_sum_cap_safe_on_tiny_machines() {
        // One-word messages: even capacity 2 suffices at any shape.
        let machines = 9;
        let mut c = Cluster::new(machines, 2);
        for m in 0..machines {
            *c.buffer_mut(m) = vec![1];
        }
        let rounds = prefix_sum(&mut c).unwrap();
        for m in 0..machines {
            assert_eq!(c.buffer(m)[0], m as u64, "machine {m}");
        }
        // ⌈log2 9⌉ + 1 = 5 rounds.
        assert_eq!(rounds, 5);
    }
}
