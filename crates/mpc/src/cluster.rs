//! A real synchronous message-passing engine.
//!
//! [`Cluster`] gives every machine a word buffer (its local store) and
//! a mailbox. One [`Cluster::exchange`] call is one synchronous MPC
//! round: every machine reads its incoming messages, mutates its local
//! buffer, and emits outgoing messages; the engine enforces the model
//! constraints — per-round send and receive volume of any machine is
//! at most the local capacity `s` — and counts the round.
//!
//! The [`primitives`](crate::primitives) module builds genuinely
//! distributed broadcast trees and a sample sort on this engine; their
//! tests pin the measured round counts to the formulas that
//! [`MpcContext`](crate::context::MpcContext) charges.

use crate::error::MpcError;

/// A message addressed to another machine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Msg {
    /// Destination machine.
    pub dest: usize,
    /// Payload words.
    pub words: Vec<u64>,
}

impl Msg {
    /// Creates a message.
    pub fn new(dest: usize, words: Vec<u64>) -> Self {
        Msg { dest, words }
    }
}

/// A simulated cluster: per-machine word buffers, mailboxes, and a
/// round counter.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use mpc_sim::cluster::{Cluster, Msg};
///
/// let mut c = Cluster::new(2, 16);
/// // Machine 0 sends one word to machine 1.
/// c.exchange(|id, _buf, _inbox| {
///     if id == 0 { vec![Msg::new(1, vec![42])] } else { vec![] }
/// })?;
/// // Machine 1 stores what it received.
/// c.exchange(|id, buf, inbox| {
///     if id == 1 {
///         buf.extend(inbox.into_iter().flatten());
///     }
///     vec![]
/// })?;
/// assert_eq!(c.buffer(1), &[42]);
/// assert_eq!(c.rounds(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    capacity: u64,
    buffers: Vec<Vec<u64>>,
    mailboxes: Vec<Vec<Vec<u64>>>,
    rounds: u64,
    words_communicated: u64,
}

impl Cluster {
    /// Creates a cluster of `machines` machines with local capacity
    /// `capacity` words each.
    ///
    /// # Panics
    ///
    /// Panics if `machines == 0`.
    #[expect(
        clippy::disallowed_macros,
        reason = "documented \"# Panics\" precondition — a cluster without machines is a construction bug"
    )]
    pub fn new(machines: usize, capacity: u64) -> Self {
        assert!(machines > 0, "cluster needs at least one machine");
        Cluster {
            capacity,
            buffers: vec![Vec::new(); machines],
            mailboxes: vec![Vec::new(); machines],
            rounds: 0,
            words_communicated: 0,
        }
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.buffers.len()
    }

    /// Local capacity in words.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Rounds executed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Total words moved between machines so far.
    pub fn words_communicated(&self) -> u64 {
        self.words_communicated
    }

    /// A machine's local buffer.
    ///
    /// # Panics
    ///
    /// Panics if `m` is out of range.
    pub fn buffer(&self, m: usize) -> &[u64] {
        &self.buffers[m]
    }

    /// Mutable access to a machine's local buffer (for initial data
    /// placement; does not consume rounds).
    pub fn buffer_mut(&mut self, m: usize) -> &mut Vec<u64> {
        &mut self.buffers[m]
    }

    /// Runs one synchronous round. For each machine, `step` receives
    /// the machine id, its local buffer, and the messages delivered
    /// this round, and returns outgoing messages (delivered next
    /// round).
    ///
    /// # Errors
    ///
    /// * [`MpcError::SendCapExceeded`] if a machine emits more than
    ///   `s` words.
    /// * [`MpcError::ReceiveCapExceeded`] if more than `s` words are
    ///   addressed to one machine.
    /// * [`MpcError::NoSuchMachine`] for an invalid destination.
    ///
    /// On error the round still counts (the model "aborts" the round)
    /// but no messages are delivered.
    pub fn exchange<F>(&mut self, mut step: F) -> Result<(), MpcError>
    where
        F: FnMut(usize, &mut Vec<u64>, Vec<Vec<u64>>) -> Vec<Msg>,
    {
        self.rounds += 1;
        let machines = self.machines();
        let mut outgoing: Vec<Msg> = Vec::new();
        for id in 0..machines {
            let inbox = std::mem::take(&mut self.mailboxes[id]);
            let msgs = step(id, &mut self.buffers[id], inbox);
            let sent: u64 = msgs.iter().map(|m| m.words.len() as u64).sum();
            if sent > self.capacity {
                return Err(MpcError::SendCapExceeded {
                    machine: id,
                    attempted: sent,
                    capacity: self.capacity,
                });
            }
            outgoing.extend(msgs);
        }
        // Route, checking receive caps.
        let mut incoming_words = vec![0u64; machines];
        for m in &outgoing {
            if m.dest >= machines {
                return Err(MpcError::NoSuchMachine {
                    machine: m.dest,
                    cluster: machines,
                });
            }
            incoming_words[m.dest] += m.words.len() as u64;
        }
        if let Some((machine, &attempted)) = incoming_words
            .iter()
            .enumerate()
            .find(|(_, &w)| w > self.capacity)
        {
            return Err(MpcError::ReceiveCapExceeded {
                machine,
                attempted,
                capacity: self.capacity,
            });
        }
        for m in outgoing {
            self.words_communicated += m.words.len() as u64;
            self.mailboxes[m.dest].push(m.words);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong() {
        let mut c = Cluster::new(2, 8);
        c.exchange(|id, _b, _in| {
            if id == 0 {
                vec![Msg::new(1, vec![7])]
            } else {
                vec![]
            }
        })
        .unwrap();
        c.exchange(|id, _b, inbox| {
            if id == 1 {
                assert_eq!(inbox, vec![vec![7]]);
                vec![Msg::new(0, vec![8])]
            } else {
                assert!(inbox.is_empty());
                vec![]
            }
        })
        .unwrap();
        c.exchange(|id, buf, inbox| {
            if id == 0 {
                buf.extend(inbox.into_iter().flatten());
            }
            vec![]
        })
        .unwrap();
        assert_eq!(c.buffer(0), &[8]);
        assert_eq!(c.rounds(), 3);
        assert_eq!(c.words_communicated(), 2);
    }

    #[test]
    fn send_cap_enforced() {
        let mut c = Cluster::new(2, 4);
        let err = c
            .exchange(|id, _b, _in| {
                if id == 0 {
                    vec![Msg::new(1, vec![0; 5])]
                } else {
                    vec![]
                }
            })
            .unwrap_err();
        assert!(matches!(err, MpcError::SendCapExceeded { machine: 0, .. }));
    }

    #[test]
    fn receive_cap_enforced() {
        let mut c = Cluster::new(3, 4);
        // Machines 0 and 1 each send 3 words to machine 2: 6 > 4.
        let err = c
            .exchange(|id, _b, _in| {
                if id < 2 {
                    vec![Msg::new(2, vec![0; 3])]
                } else {
                    vec![]
                }
            })
            .unwrap_err();
        assert!(matches!(
            err,
            MpcError::ReceiveCapExceeded { machine: 2, .. }
        ));
    }

    #[test]
    fn bad_destination_rejected() {
        let mut c = Cluster::new(2, 4);
        let err = c
            .exchange(|id, _b, _in| {
                if id == 0 {
                    vec![Msg::new(9, vec![1])]
                } else {
                    vec![]
                }
            })
            .unwrap_err();
        assert!(matches!(err, MpcError::NoSuchMachine { machine: 9, .. }));
    }

    #[test]
    fn messages_are_delivered_next_round_not_same_round() {
        let mut c = Cluster::new(2, 8);
        c.exchange(|id, _b, inbox| {
            assert!(inbox.is_empty(), "round 1 has no mail");
            if id == 0 {
                vec![Msg::new(1, vec![1])]
            } else {
                vec![]
            }
        })
        .unwrap();
        let mut saw = false;
        c.exchange(|id, _b, inbox| {
            if id == 1 && !inbox.is_empty() {
                saw = true;
            }
            vec![]
        })
        .unwrap();
        assert!(saw);
    }
}
