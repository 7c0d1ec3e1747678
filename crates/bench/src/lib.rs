//! Experiment harness for the `mpc-stream` reproduction.
//!
//! The paper is a theory paper with no measured tables or figures, so
//! the "evaluation" this crate regenerates is the set of theorem
//! statements (the README's experiment table is the index). Every
//! function in [`experiments`] reproduces one experiment E1–E16 and
//! returns printable [`table::Table`]s; the `experiments` binary runs
//! them and prints the rows:
//!
//! ```sh
//! cargo run --release -p mpc-bench --bin experiments -- all
//! cargo run --release -p mpc-bench --bin experiments -- e1 e4
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::print_stdout,
    reason = "a tool crate: it times the engine and prints its tables"
)]

pub mod experiments;
pub mod table;

use mpc_sim::{MpcConfig, MpcContext};

/// The experiment cluster configuration: `s = 16·n^φ` words (the
/// constant standing in for the `Õ(·)` polylog slack on local
/// memory — the paper allows batches of `Õ(n^φ)` and each edge costs
/// a few words in the coordinator gathers).
pub fn experiment_context(n: usize, phi: f64) -> MpcContext {
    let s = (16.0 * (n as f64).powf(phi)).ceil() as u64;
    MpcContext::new(MpcConfig::builder(n, phi).local_capacity(s).build())
}

/// Largest batch size the model admits at this configuration
/// (coordinator gathers cost 4 words per update).
pub fn max_batch(ctx: &MpcContext) -> usize {
    (ctx.config().local_capacity() / 4) as usize
}
