//! Error types for the MPC simulator.

use crate::group::MachineGroup;

/// Errors raised by the simulated cluster.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcError {
    /// A machine's local store exceeded the capacity `s` (strict mode
    /// only; permissive mode records a violation instead).
    LocalMemoryExceeded {
        /// Machine that overflowed.
        machine: usize,
        /// Words the machine would hold.
        used: u64,
        /// The capacity `s`.
        capacity: u64,
    },
    /// A machine tried to send more words in one round than its
    /// capacity allows.
    SendCapExceeded {
        /// Sending machine.
        machine: usize,
        /// Words it attempted to send this round.
        attempted: u64,
        /// The capacity `s`.
        capacity: u64,
    },
    /// A machine would receive more words in one round than its
    /// capacity allows.
    ReceiveCapExceeded {
        /// Receiving machine.
        machine: usize,
        /// Words addressed to it this round.
        attempted: u64,
        /// The capacity `s`.
        capacity: u64,
    },
    /// A coordinator gather was attempted whose payload cannot fit in
    /// one machine — the algorithm's batch-size precondition was
    /// violated.
    GatherTooLarge {
        /// Words gathered.
        words: u64,
        /// The capacity `s`.
        capacity: u64,
    },
    /// A message was addressed to a machine outside the cluster.
    NoSuchMachine {
        /// The invalid destination.
        machine: usize,
        /// Cluster size.
        cluster: usize,
    },
    /// A maintainer's standing state exceeds its machine group's
    /// capacity (`group machines × s`) — the cluster slice assigned
    /// to that structure is under-provisioned for it.
    ClusterMemoryExceeded {
        /// Name of the maintainer whose state overran its group.
        maintainer: String,
        /// The machine group the maintainer is audited against.
        group: MachineGroup,
        /// Words the maintainer's standing state holds.
        used: u64,
        /// The group's capacity (`group machines × s`).
        capacity: u64,
    },
}

impl std::fmt::Display for MpcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcError::LocalMemoryExceeded {
                machine,
                used,
                capacity,
            } => write!(
                f,
                "machine {machine} local memory {used} words exceeds capacity {capacity}"
            ),
            MpcError::SendCapExceeded {
                machine,
                attempted,
                capacity,
            } => write!(
                f,
                "machine {machine} attempted to send {attempted} words in one round (cap {capacity})"
            ),
            MpcError::ReceiveCapExceeded {
                machine,
                attempted,
                capacity,
            } => write!(
                f,
                "machine {machine} would receive {attempted} words in one round (cap {capacity})"
            ),
            MpcError::GatherTooLarge { words, capacity } => write!(
                f,
                "gather of {words} words cannot fit in one machine (cap {capacity})"
            ),
            MpcError::NoSuchMachine { machine, cluster } => write!(
                f,
                "message addressed to machine {machine} of a {cluster}-machine cluster"
            ),
            MpcError::ClusterMemoryExceeded {
                maintainer,
                group,
                used,
                capacity,
            } => write!(
                f,
                "maintainer {maintainer:?} holds {used} words of standing state, exceeding \
                 its machine group's capacity {capacity} ({group}; provision more machines)"
            ),
        }
    }
}

impl std::error::Error for MpcError {}

/// The workspace-wide maintainer error: every algorithm structure's
/// write and read entries fail with this one type — directly, there
/// is no per-crate error to convert from — so heterogeneous
/// maintainers can be driven through one `Session` front door.
///
/// The variants classify *what the caller can do about it*:
///
/// * [`MpcStreamError::Capacity`] — the batch (or the standing state)
///   does not fit the cluster's resource envelope; shrink the batch or
///   provision a larger cluster.
/// * [`MpcStreamError::InvalidBatch`] — the update stream violated the
///   dynamic-graph contract (duplicate insert, deletion of an absent
///   edge, endpoint out of range); fix the stream.
/// * [`MpcStreamError::Unsupported`] — the update kind is outside this
///   maintainer's model (e.g. a deletion in an insertion-only
///   structure), or the query is outside its vocabulary (e.g.
///   `MatchingSize` asked of connectivity); route the update or the
///   query elsewhere.
/// * [`MpcStreamError::BudgetExhausted`] — a maintainer-specific
///   budget (adaptivity exposures, vertex slots) is spent; rebuild
///   with a larger budget.
/// * [`MpcStreamError::Internal`] — an internal invariant failed;
///   a bug, please report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MpcStreamError {
    /// An MPC resource constraint (local memory, send/receive caps,
    /// gather size) was violated.
    Capacity(MpcError),
    /// The batch violated the maintainer's input contract.
    InvalidBatch(String),
    /// The batch contains an update kind the maintainer does not
    /// support in its stream model, or the maintainer cannot answer
    /// the query asked of it. The detail names which.
    Unsupported(String),
    /// A maintainer-specific budget was exhausted.
    BudgetExhausted(String),
    /// An internal invariant failed.
    Internal(String),
}

impl std::fmt::Display for MpcStreamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpcStreamError::Capacity(e) => write!(f, "capacity: {e}"),
            MpcStreamError::InvalidBatch(d) => write!(f, "invalid batch: {d}"),
            MpcStreamError::Unsupported(d) => write!(f, "unsupported: {d}"),
            MpcStreamError::BudgetExhausted(d) => write!(f, "budget exhausted: {d}"),
            MpcStreamError::Internal(d) => write!(f, "internal invariant failed: {d}"),
        }
    }
}

impl std::error::Error for MpcStreamError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MpcStreamError::Capacity(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MpcError> for MpcStreamError {
    fn from(e: MpcError) -> Self {
        MpcStreamError::Capacity(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MpcError::GatherTooLarge {
            words: 100,
            capacity: 10,
        };
        let msg = format!("{e}");
        assert!(msg.contains("100") && msg.contains("10"));
        let e = MpcError::LocalMemoryExceeded {
            machine: 3,
            used: 9,
            capacity: 8,
        };
        assert!(format!("{e}").contains("machine 3"));
    }

    #[test]
    fn every_variant_displays_its_numbers() {
        let cases: Vec<(MpcError, &[&str])> = vec![
            (
                MpcError::SendCapExceeded {
                    machine: 1,
                    attempted: 20,
                    capacity: 16,
                },
                &["machine 1", "20", "16", "send"],
            ),
            (
                MpcError::ReceiveCapExceeded {
                    machine: 2,
                    attempted: 40,
                    capacity: 32,
                },
                &["machine 2", "40", "32", "receive"],
            ),
            (
                MpcError::NoSuchMachine {
                    machine: 9,
                    cluster: 4,
                },
                &["machine 9", "4-machine"],
            ),
            (
                MpcError::ClusterMemoryExceeded {
                    maintainer: "connectivity".into(),
                    group: MachineGroup::new(2, 3),
                    used: 900,
                    capacity: 600,
                },
                &["connectivity", "900", "600", "machines 2..5"],
            ),
        ];
        for (e, needles) in cases {
            let msg = format!("{e}");
            for needle in needles {
                assert!(msg.contains(needle), "{msg:?} lacks {needle:?}");
            }
        }
    }

    #[test]
    fn errors_are_std_errors() {
        fn takes_err<E: std::error::Error + Send + Sync + 'static>(_: E) {}
        takes_err(MpcError::NoSuchMachine {
            machine: 0,
            cluster: 1,
        });
        takes_err(MpcStreamError::Internal("x".into()));
    }

    #[test]
    fn stream_error_wraps_mpc_error_with_source() {
        use std::error::Error;
        let inner = MpcError::GatherTooLarge {
            words: 100,
            capacity: 10,
        };
        let e: MpcStreamError = inner.clone().into();
        assert_eq!(e, MpcStreamError::Capacity(inner));
        assert!(e.to_string().contains("capacity"));
        assert!(e.source().is_some());
        assert!(MpcStreamError::InvalidBatch("dup".into())
            .source()
            .is_none());
    }

    #[test]
    fn stream_error_variants_display_their_class() {
        let cases = [
            (MpcStreamError::InvalidBatch("e".into()), "invalid batch"),
            (MpcStreamError::Unsupported("d".into()), "unsupported"),
            (MpcStreamError::BudgetExhausted("b".into()), "budget"),
            (MpcStreamError::Internal("i".into()), "internal"),
        ];
        for (e, needle) in cases {
            assert!(e.to_string().contains(needle), "{e} lacks {needle:?}");
        }
    }
}
