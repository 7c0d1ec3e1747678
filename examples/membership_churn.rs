//! Membership churn: a collaboration platform where users join,
//! connect, disconnect, and leave — exercising the Section 1.2
//! relaxation (dynamic vertex set) together with the adversarial-
//! robustness wrapper.
//!
//! ```sh
//! cargo run --example membership_churn
//! ```
//!
//! Two structures track the same workspace graph:
//!
//! * a [`VertexDynamicConnectivity`] with a fixed slot capacity (the
//!   paper's "the MPC machines stay the same"), recycling the ids of
//!   departed users;
//! * a [`RobustConnectivity`] over the full capacity space, showing
//!   what the adaptive-adversary guarantee costs in memory.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::core_alg::{ConnectivityConfig, RobustConnectivity, VertexDynamicConnectivity};
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::update::Batch;
use mpc_stream::hashing::rng::StdRng;
use mpc_stream::mpc::{MpcConfig, MpcContext};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let capacity = 128;
    let cfg = MpcConfig::builder(capacity, 0.5)
        .local_capacity(1 << 16)
        .build();
    println!(
        "workspace: capacity {capacity} member slots, s = {} words/machine",
        cfg.local_capacity()
    );
    let mut ctx = MpcContext::new(cfg);
    let mut members =
        VertexDynamicConnectivity::with_capacity(capacity, ConnectivityConfig::default(), 11);
    let mut robust = RobustConnectivity::new(capacity, 2, 32, ConnectivityConfig::default(), 12);

    let mut rng = StdRng::seed_from_u64(7);
    let mut roster: Vec<u32> = Vec::new();
    let mut links: Vec<Edge> = Vec::new();

    println!("\n epoch | join | leave | link | unlink | active | teams | robust words");
    println!(" ------+------+-------+------+--------+--------+-------+-------------");
    for epoch in 0..12 {
        let mut joined = 0;
        let mut left = 0;
        let mut linked = 0;
        let mut unlinked = 0;
        for _ in 0..24 {
            match rng.gen_range(0..4) {
                0 if members.active_count() < capacity => {
                    roster.push(members.add_vertex(&mut ctx)?);
                    joined += 1;
                }
                1 if roster.len() >= 2 => {
                    let a = roster[rng.gen_range(0..roster.len())];
                    let b = roster[rng.gen_range(0..roster.len())];
                    if a != b {
                        let e = Edge::new(a, b);
                        if !links.contains(&e) {
                            members.apply_batch(&Batch::inserting([e]), &mut ctx)?;
                            robust.apply_batch(&Batch::inserting([e]), &mut ctx)?;
                            links.push(e);
                            linked += 1;
                        }
                    }
                }
                2 if !links.is_empty() => {
                    let e = links.swap_remove(rng.gen_range(0..links.len()));
                    members.apply_batch(&Batch::deleting([e]), &mut ctx)?;
                    robust.apply_batch(&Batch::deleting([e]), &mut ctx)?;
                    unlinked += 1;
                }
                3 if !roster.is_empty() => {
                    let i = rng.gen_range(0..roster.len());
                    let v = roster[i];
                    if links.iter().all(|e| !e.touches(v)) {
                        members.remove_vertex(v, &mut ctx)?;
                        roster.swap_remove(i);
                        left += 1;
                    }
                }
                _ => {}
            }
        }
        println!(
            " {:>5} | {:>4} | {:>5} | {:>4} | {:>6} | {:>6} | {:>5} | {:>12}",
            epoch,
            joined,
            left,
            linked,
            unlinked,
            members.active_count(),
            members.component_count(),
            robust.words(),
        );
    }

    println!(
        "\nrobustness budget: {} adaptive batches consumed, {} remaining (instance {} exposed)",
        robust.exposures_spent(),
        robust.exposures_remaining(),
        robust.exposed_instance(),
    );
    if let Some(&v) = roster.first() {
        println!(
            "member {v}: degree {}, team label {}",
            members.degree(v)?,
            members.component_of(v)?,
        );
    }
    Ok(())
}
