//! A Massively Parallel Computation (MPC) simulator with exact
//! resource accounting.
//!
//! The paper's model (Section 1.2): a cluster of machines with local
//! memory `s = n^φ` words, communicating in synchronous rounds where
//! no machine sends or receives more than `s` words. Algorithms are
//! judged on **rounds per update batch**, **local memory**, **total
//! memory**, and **per-round communication**. This crate simulates
//! that model on one process:
//!
//! * [`config::MpcConfig`] fixes `n`, `φ`, the word capacity
//!   `s`, and the machine count.
//! * [`cluster::Cluster`] is a real message-passing engine: machines
//!   hold word buffers, exchange serialized words through mailboxes,
//!   and every exchange enforces the per-machine send/receive caps.
//!   [`primitives`] implements genuinely distributed broadcast
//!   trees and a multi-round sample sort on top of it; tests assert
//!   the measured round counts match the charged formulas.
//! * [`context::MpcContext`] is the accounting facade the algorithm
//!   crates use: it charges rounds per primitive invocation using the
//!   standard MPC costs (sorting and converge-cast in `O(1/φ)`
//!   rounds \[GSZ'11\], broadcast trees of fan-out `Θ(s)`), tracks
//!   per-machine and total memory high-water marks, and reports
//!   per-phase round/communication summaries. Each primitive is one
//!   [`context::MpcEvent`] applied by the ledger's single charging
//!   entry, which a forked context records through and
//!   [`MpcContext::replay`](context::MpcContext::replay) re-runs, so a
//!   recorded log charges exactly what direct execution did.
//!   Independent instances compose through
//!   [`MpcContext::parallel`](context::MpcContext::parallel), rounds
//!   by max and words by sum; it opens and closes the parallel scope
//!   itself, on every exit, so no caller can leave one unbalanced.
//!
//! # Examples
//!
//! ```
//! use mpc_sim::config::MpcConfig;
//! use mpc_sim::context::MpcContext;
//!
//! let cfg = MpcConfig::builder(1024, 0.5).build();
//! let mut ctx = MpcContext::new(cfg);
//! ctx.begin_phase("demo");
//! ctx.broadcast(64); // broadcast 64 words to all machines
//! let report = ctx.end_phase();
//! assert!(report.rounds >= 1);
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_macros
    )
)]

pub mod cluster;
pub mod config;
pub mod context;
pub mod error;
pub mod group;
pub mod primitives;
pub mod stats;

pub use config::MpcConfig;
pub use context::{MpcContext, MpcEvent};
pub use error::{MpcError, MpcStreamError};
pub use group::MachineGroup;
pub use stats::{BatchAudit, BatchReport, MaintainerStats, PhaseReport, SessionStats, Stats};
