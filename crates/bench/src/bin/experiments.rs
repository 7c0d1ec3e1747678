//! Experiment runner: regenerates the theorem-level evaluation of the
//! paper (experiments E1–E16, indexed in the README's experiment
//! table).
//!
//! ```sh
//! cargo run --release -p mpc-bench --bin experiments -- all
//! cargo run --release -p mpc-bench --bin experiments -- e1 e4 e10
//! ```

#![expect(
    clippy::disallowed_types,
    clippy::print_stdout,
    reason = "a tool binary: it times the experiments and prints their tables"
)]

use mpc_bench::experiments;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ids: Vec<&str> = if args.is_empty() || args.iter().any(|a| a == "all") {
        experiments::ALL.to_vec()
    } else {
        args.iter().map(String::as_str).collect()
    };
    println!("# mpc-stream experiment run\n");
    let t0 = Instant::now();
    for id in ids {
        let start = Instant::now();
        let tables = experiments::run(id);
        for table in &tables {
            table.print();
        }
        println!(
            "({id} completed in {:.1}s)\n",
            start.elapsed().as_secs_f64()
        );
    }
    println!("total: {:.1}s", t0.elapsed().as_secs_f64());
}
