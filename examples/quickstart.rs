//! Quickstart: maintain connectivity of an evolving graph in the
//! streaming MPC model through the unified [`Session`] driver.
//!
//! ```sh
//! cargo run --example quickstart
//! ```
//!
//! Builds a small cluster (`s = n^φ` words per machine, machine count
//! defaulted from the slack-provisioned `Θ(n log³ n)` budget),
//! registers the paper's connectivity algorithm in a `Session`, and
//! streams a few batches of edge insertions and deletions through it,
//! printing the per-batch round counts and memory — the quantities
//! Theorem 1.1 bounds.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::graph::gen;
use mpc_stream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 256;
    let phi = 0.5;
    // The default machine count provisions the n·log³n budget *with*
    // the sketch bank's constant slack folded in (STATE_SLACK), so
    // the standing state fits without a manual override. Strict mode:
    // any primitive that overflows s fails the example instead of
    // being absorbed as a permissive-mode violation.
    let cfg = MpcConfig::builder(n, phi)
        .local_capacity(1 << 16)
        .strict(true)
        .build();
    println!(
        "cluster: n = {n}, φ = {phi}, s = {} words, {} machines (strict mode)",
        cfg.local_capacity(),
        cfg.machines()
    );

    let mut session = Session::new(cfg);
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 42));

    // An oblivious mixed insert/delete stream.
    let stream = gen::random_mixed_stream(n, 10, 16, 0.7, 7);
    println!("\n batch | updates | rounds | comm words | components | live edges");
    println!(" ------+---------+--------+------------+------------+-----------");
    for (i, batch) in stream.batches.iter().enumerate() {
        let reports = session.apply_batch(batch)?;
        // One registered maintainer → at most one report (none if the
        // batch normalized to a no-op).
        let (rounds, words) = reports.first().map_or((0, 0), |r| (r.rounds, r.words));
        let c = session.get(conn);
        println!(
            " {:>5} | {:>7} | {:>6} | {:>10} | {:>10} | {:>9}",
            i,
            batch.len(),
            rounds,
            words,
            c.component_count(),
            c.live_edge_count(),
        );
    }

    let c = session.get(conn);
    println!(
        "\ninherent reads are free: vertex 0 is in component {} (maintained labelling)",
        c.component_of(0)
    );
    println!(
        "spanning forest has {} edges (maintained explicitly)",
        c.spanning_forest().len()
    );
    // The typed query plane charges the same answers against the
    // cluster and receipts them — O(1) rounds, because the solution
    // is maintained.
    let answer = session.ask(conn, &QueryRequest::ComponentCount)?;
    let receipt = &session.query_reports()[0];
    println!(
        "charged query: component_count = {answer} ({} rounds, {} words on the cluster)",
        receipt.rounds, receipt.words
    );
    println!(
        "peak memory: {} words on one machine, {} words total (budget O(n log³ n))",
        session.ctx().stats().peak_machine_words,
        session.ctx().stats().peak_total_words
    );
    println!("\nsession rollup:\n{}", session.stats().summary());
    println!("\nfull accounting:\n{}", session.ctx().stats().summary());
    Ok(())
}
