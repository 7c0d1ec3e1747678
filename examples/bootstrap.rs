//! Bootstrapping from an existing graph — the paper's pre-computation
//! phase (end of Section 1.1): instead of starting from an empty
//! graph, load an arbitrary snapshot with a static `O(log n)`-round
//! algorithm once, then stream updates dynamically at `O(1/φ)` rounds
//! per batch.
//!
//! ```sh
//! cargo run --example bootstrap
//! ```
//!
//! The snapshot is a preferential-attachment graph (heavy-tailed
//! degrees, like a crawled social network); the follow-on stream mixes
//! insertions and deletions.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::core_alg::{Connectivity, ConnectivityConfig};
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::graph::update::{Batch, Update};
use mpc_stream::mpc::{MpcConfig, MpcContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 512;
    let cfg = MpcConfig::builder(n, 0.5).local_capacity(1 << 17).build();
    let mut ctx = MpcContext::new(cfg);

    // A crawled snapshot: preferential attachment, 2 links per vertex.
    let snapshot = gen::preferential_attachment_stream(n, 2, usize::MAX, 7);
    let graph = snapshot.replay().pop().expect("nonempty");
    let edges: Vec<Edge> = graph.edges().collect();
    println!(
        "snapshot: {} vertices, {} edges (preferential attachment)",
        n,
        edges.len()
    );

    // One-time static bootstrap (Θ(log n) rounds), then dynamic.
    ctx.begin_phase("bootstrap");
    let mut conn = Connectivity::from_graph(
        n,
        ConnectivityConfig::default(),
        42,
        edges.iter().copied(),
        &mut ctx,
    )?;
    let boot = ctx.end_phase();
    println!(
        "bootstrap: {} rounds (one-time), components = {}",
        boot.rounds,
        conn.component_count()
    );
    assert_eq!(
        conn.component_labels(),
        &oracle::components(n, edges.iter().copied())[..]
    );

    // Follow-on dynamic phase: delete hub-adjacent edges, insert new
    // ones — each batch at the usual constant round cost.
    let forest = conn.spanning_forest();
    let victims: Vec<Edge> = forest.iter().copied().step_by(7).take(16).collect();
    let additions: Vec<Update> = (0..16u32)
        .map(|i| Update::Insert(Edge::new(i, n as u32 - 1 - i)))
        .filter(|u| !graph.contains(u.edge()))
        .collect();
    let mut batch = Batch::deleting(victims);
    batch.extend(additions);

    ctx.begin_phase("dynamic-batch");
    conn.apply_batch(&batch, &mut ctx)?;
    let dyn_phase = ctx.end_phase();
    println!(
        "dynamic batch of {} updates: {} rounds (vs {} for the bootstrap)",
        batch.len(),
        dyn_phase.rounds,
        boot.rounds
    );
    println!(
        "components now: {}, spanning forest {} edges",
        conn.component_count(),
        conn.spanning_forest().len()
    );
    Ok(())
}
