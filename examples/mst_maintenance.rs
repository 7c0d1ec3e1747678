//! Minimum-spanning-forest maintenance over a growing weighted
//! network (paper Section 7 / Theorem 1.2).
//!
//! ```sh
//! cargo run --example mst_maintenance
//! ```
//!
//! Streams weighted link insertions (think: network cables with
//! latencies) through **one `Session` driving three maintainers** on
//! a shared accounted cluster — the multi-maintainer workload the
//! unified surface exists for:
//!
//! * the **exact** insertion-only MSF (Euler tours + parallel
//!   Identify-Path swaps), checked against Kruskal after every batch;
//! * two **(1+ε)-approximate weight** estimators that also survive
//!   deletions, at ε ∈ {0.1, 0.5}.
//!
//! The maintainers run in parallel on disjoint machine groups, so
//! every batch costs the *maximum* maintainer's rounds, not the sum.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::graph::gen;
use mpc_stream::graph::oracle;
use mpc_stream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 128;
    let max_w = 64;
    // The (1+ε) estimators each run ⌈log_{1+ε} W⌉ + 1 parallel
    // connectivity instances (Section 7.2), so the cluster must hold
    // ~57 sketch banks, not one: provision machines for the whole
    // threshold stack or the session's capacity audit will flag it.
    let cfg = MpcConfig::builder(n, 0.5)
        .local_capacity(1 << 17)
        .machines(64)
        .build();
    let mut session = Session::new(cfg);
    let exact = session.register(ExactMsf::new(n));
    let tight = session.register(ApproxMsfWeight::new(n, 0.1, max_w, 5));
    let loose = session.register(ApproxMsfWeight::new(n, 0.5, max_w, 5));

    let stream = gen::random_weighted_insert_stream(n, 8, 20, max_w, 31);
    let mut all: Vec<WeightedEdge> = Vec::new();

    println!("weighted network on {n} nodes, weights in [1, {max_w}]\n");
    println!(" batch | rounds | kruskal | exact-MSF | swaps | est (ε=0.1) | est (ε=0.5)");
    println!(" ------+--------+---------+-----------+-------+-------------+------------");
    for (i, batch) in stream.batches.iter().enumerate() {
        let reports = session.apply_weighted(batch.iter())?;
        let batch_rounds: u64 = reports.iter().map(|r| r.rounds).max().unwrap_or(0);
        all.extend(batch.insertions());
        let kruskal = oracle::msf_weight(n, all.iter().copied());
        let ex = session.get(exact);
        println!(
            " {:>5} | {:>6} | {:>7} | {:>9} | {:>5} | {:>11.1} | {:>10.1}",
            i,
            batch_rounds,
            kruskal,
            ex.weight(),
            ex.last_iterations(),
            session.get(tight).weight_estimate(),
            session.get(loose).weight_estimate(),
        );
        assert_eq!(ex.weight(), kruskal, "exact MSF must match Kruskal");
    }

    // One ask_all cross-checks all three maintainers' weight answers
    // on the shared cluster (rounds max-compose across the fan-out).
    let answers = session.ask_all(&QueryRequest::ForestWeight)?;
    assert_eq!(answers.len(), 3);
    let exact_w = session.get(exact).weight() as f64;
    println!("\ncross-check (one ask_all, three charged answers):");
    for ((id, answer), report) in answers.iter().zip(session.query_reports()) {
        let est = answer.as_weight().expect("ForestWeight answers a weight");
        println!(
            "  {} (group {}): forest_weight = {est:.1} ({} rounds) — ratio {:.3}",
            report.maintainer,
            session.machine_group(*id).expect("registered"),
            report.rounds,
            est / exact_w,
        );
    }

    let ex = session.get(exact);
    println!(
        "\nexact forest: {} edges, total weight {} (matches Kruskal at every batch)",
        ex.forest().len(),
        ex.weight()
    );
    println!(
        "ε=0.1 instances: {}, ε=0.5 instances: {} (memory scales with log_1+ε W)",
        session.get(tight).instance_count(),
        session.get(loose).instance_count()
    );
    println!("\nsession rollup:\n{}", session.stats().summary());
    Ok(())
}
