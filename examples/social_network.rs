//! Social-network community tracking — the paper's motivating
//! scenario (Section 1: "the dynamic nature of social networks …
//! millions of edges may be added or removed per second").
//!
//! ```sh
//! cargo run --example social_network
//! ```
//!
//! Simulates friendship churn over clustered communities: batches
//! alternately bridge communities together and cut the bridges again,
//! the hardest pattern for the replacement-edge machinery (every cut
//! makes the sketches prove that no reconnection exists). Drives the
//! paper's algorithm through the unified [`Session`] engine, tracks
//! communities and rounds per batch, and compares total memory
//! against the store-everything `Θ(n+m)` baseline the prior work uses
//! (kept on the legacy per-structure API — both surfaces coexist).

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::baselines::FullMemoryBaseline;
use mpc_stream::graph::gen;
use mpc_stream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 8 communities of 12 users each.
    let stream = gen::merge_split_stream(8, 12, 4, 48, 2024);
    let n = stream.n;
    let cfg = MpcConfig::builder(n, 0.5).local_capacity(1 << 17).build();
    let mut session = Session::new(cfg.clone());
    let conn = session.register(Connectivity::new(n, ConnectivityConfig::default(), 9));
    let mut baseline_ctx = MpcContext::new(cfg);
    let mut baseline = FullMemoryBaseline::new(n);

    println!("social graph: {n} users, community merge/split churn\n");
    println!(" batch |     kind     | rounds | communities | ours (words) | Θ(n+m) (words)");
    println!(" ------+--------------+--------+-------------+--------------+---------------");
    for (i, batch) in stream.batches.iter().enumerate() {
        let kind = if batch.insertions().count() > 0 && batch.deletions().count() == 0 {
            if i == 0 {
                "build"
            } else {
                "bridge"
            }
        } else {
            "cut"
        };
        let reports = session.apply_batch(batch)?;
        baseline.apply_batch(batch, &mut baseline_ctx)?;
        let c = session.get(conn);
        println!(
            " {:>5} | {:>12} | {:>6} | {:>11} | {:>12} | {:>13}",
            i,
            kind,
            reports.first().map_or(0, |r| r.rounds),
            c.component_count(),
            c.words(),
            baseline.words(),
        );
    }

    // The headline comparison (Theorem 1.1 vs prior work): our state
    // is independent of m; the baseline stores the whole graph.
    let c = session.get(conn);
    println!(
        "\nwith {} live edges: ours {} words vs Θ(n+m) baseline {} words",
        c.live_edge_count(),
        c.words(),
        baseline.words()
    );
    println!(
        "note: at this toy scale the n·O(log³ n) sketch constants dominate; the point of\n\
         Theorem 1.1 is the *slope* — our footprint is flat in m while the baseline grows\n\
         linearly. Experiment E2/E3 (crates/bench) runs the densifying sweep that shows\n\
         the crossover at larger n."
    );
    println!("\nsession rollup:\n{}", session.stats().summary());
    Ok(())
}
