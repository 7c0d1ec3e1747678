//! Approximate maximum matching over a dynamic assignment market
//! (paper Section 8 / Theorem 1.3).
//!
//! ```sh
//! cargo run --example matching_stream
//! ```
//!
//! Streams a planted-matching workload (so true `OPT` is known
//! exactly) through three structures at several `α` targets:
//!
//! * the insertion-only capped-greedy matcher (Theorem 8.1),
//! * the AKLY dynamic sparsifier matcher (Theorem 8.2),
//! * the matching-size estimator (Theorem 8.5),
//!
//! and prints size, measured approximation ratio, and memory — the
//! `Õ(n/α)` vs `Õ(max{n²/α³, n/α})` trade-off of the theorems.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::matching::{AklyMatching, CappedGreedyMatching, MatchingSizeEstimator, StreamKind};
use mpc_stream::mpc::{MpcConfig, MpcContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let planted = 48;
    let (stream, opt) = gen::planted_matching_stream(planted, 64, 16, 77);
    let n = stream.n;
    let cfg = MpcConfig::builder(n, 0.5).local_capacity(1 << 17).build();
    let mut ctx = MpcContext::new(cfg);

    println!("assignment market: {n} vertices, planted OPT = {opt}\n");
    println!(
        "     α | greedy size (ratio) | AKLY size (ratio) | estimate | greedy words | AKLY words"
    );
    println!(
        " ------+---------------------+-------------------+----------+--------------+-----------"
    );
    for alpha in [1.0f64, 2.0, 4.0, 8.0] {
        let mut greedy = CappedGreedyMatching::for_alpha(n, alpha);
        let mut akly = AklyMatching::new(n, alpha, 9);
        let mut est = MatchingSizeEstimator::new(n, alpha, StreamKind::InsertionOnly, 3);
        for batch in &stream.batches {
            let ins: Vec<Edge> = batch.insertions().collect();
            greedy.apply_insert_batch(&ins, &mut ctx);
            akly.apply_batch(batch, &mut ctx)?;
            est.apply_batch(batch, &mut ctx)?;
        }
        let g = greedy.len().max(1);
        let a = akly.matching_size().max(1);
        println!(
            " {:>5} | {:>11} ({:>5.2}) | {:>9} ({:>5.2}) | {:>8} | {:>12} | {:>10}",
            alpha,
            greedy.len(),
            opt as f64 / g as f64,
            akly.matching_size(),
            opt as f64 / a as f64,
            est.estimate(),
            greedy.words(),
            akly.words(),
        );
    }

    // Sanity: the final snapshot's exact optimum equals the plant.
    let last = stream.replay().pop().expect("nonempty stream");
    let edges: Vec<Edge> = last.edges().collect();
    assert_eq!(oracle::maximum_matching_size(n, &edges), opt);
    println!("\n(true OPT verified with Edmonds' blossom algorithm)");
    Ok(())
}
