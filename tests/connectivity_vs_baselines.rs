//! Integration: the paper's connectivity algorithm against both
//! baselines on shared streams (experiment E3's correctness layer).

use mpc_stream::baselines::{AgmBaseline, FullMemoryBaseline};
use mpc_stream::core_alg::{Connectivity, ConnectivityConfig};
use mpc_stream::graph::gen;
use mpc_stream::graph::ids::Edge;
use mpc_stream::graph::oracle;
use mpc_stream::mpc::{MpcConfig, MpcContext};

fn ctx_for(n: usize) -> MpcContext {
    MpcContext::new(MpcConfig::builder(n, 0.5).local_capacity(1 << 16).build())
}

#[test]
fn all_three_agree_with_the_oracle() {
    let n = 48;
    let stream = gen::random_mixed_stream(n, 8, 10, 0.7, 1234);
    let snaps = stream.replay();
    let mut ctx = ctx_for(n);
    let mut ours = Connectivity::new(n, ConnectivityConfig::default(), 1);
    let mut agm = AgmBaseline::new(n, 2);
    let mut full = FullMemoryBaseline::new(n);
    for (batch, snap) in stream.batches.iter().zip(&snaps) {
        ours.apply_batch(batch, &mut ctx).expect("ours");
        agm.apply_batch(batch, &mut ctx).expect("agm");
        full.apply_batch(batch, &mut ctx).expect("full");
        let expect = oracle::components(n, snap.edges());
        assert_eq!(ours.component_labels(), &expect[..], "ours diverged");
        assert_eq!(agm.query_components(&mut ctx), expect, "agm diverged");
        assert_eq!(full.query_components(&mut ctx), expect, "fullmem diverged");
    }
}

#[test]
fn our_queries_are_constant_rounds_agm_queries_are_not() {
    // A long path maximizes Borůvka depth for the AGM recompute.
    let n = 128;
    let mut ctx = ctx_for(n);
    let mut ours = Connectivity::new(n, ConnectivityConfig::default(), 3);
    let mut agm = AgmBaseline::new(n, 4);
    let batchify = gen::path_stream(n, 16, false);
    for batch in &batchify.batches {
        ours.apply_batch(batch, &mut ctx).expect("ours");
        agm.apply_batch(batch, &mut ctx).expect("agm");
    }
    // Our query: the labelling is maintained — zero additional rounds.
    ctx.begin_phase("our-query");
    let _ = ours.component_of(77);
    let _ = ours.spanning_forest();
    let ours_rounds = ctx.end_phase().rounds;
    // AGM query: full Borůvka cascade.
    let _ = agm.query_components(&mut ctx);
    let agm_rounds = agm.last_query_rounds();
    assert_eq!(ours_rounds, 0, "maintained solution needs no rounds");
    assert!(
        agm_rounds >= 4,
        "AGM recompute should need multiple levels, got {agm_rounds}"
    );
}

#[test]
fn total_memory_ours_flat_baseline_linear_in_m() {
    // Densify a fixed vertex set and watch the two memory curves.
    let n = 64;
    let stream = gen::densifying_stream(n, 800, 32, 5);
    let mut ctx = ctx_for(n);
    let mut ours = Connectivity::new(n, ConnectivityConfig::default(), 6);
    let mut full = FullMemoryBaseline::new(n);
    let mut ours_words = Vec::new();
    let mut full_words = Vec::new();
    for batch in &stream.batches {
        ours.apply_batch(batch, &mut ctx).expect("ours");
        full.apply_batch(batch, &mut ctx).expect("full");
        ours_words.push(ours.words());
        full_words.push(full.words());
    }
    let ours_growth = *ours_words.last().unwrap() as f64 / ours_words[0] as f64;
    let full_growth = *full_words.last().unwrap() as f64 / full_words[0] as f64;
    // The baseline's footprint grows ~linearly with m (>5x over this
    // sweep); ours grows only marginally (forest edges), well under 2x.
    assert!(
        full_growth > 5.0,
        "baseline growth {full_growth} unexpectedly flat"
    );
    assert!(
        ours_growth < 2.0,
        "our growth {ours_growth} should be nearly flat in m"
    );
}

#[test]
fn star_and_path_torture_streams() {
    for stream in [
        gen::path_stream(96, 12, true),
        gen::star_stream(96, 12, true),
    ] {
        let n = stream.n;
        let snaps = stream.replay();
        let mut ctx = ctx_for(n);
        let mut ours = Connectivity::new(n, ConnectivityConfig::default(), 8);
        for (batch, snap) in stream.batches.iter().zip(&snaps) {
            ours.apply_batch(batch, &mut ctx).expect("ours");
            let expect = oracle::components(n, snap.edges());
            assert_eq!(ours.component_labels(), &expect[..]);
        }
    }
}

#[test]
fn deep_component_replacement_search() {
    // A ladder: two parallel paths plus a rung at every position, so
    // deleting any set of path edges always has rung replacements.
    let n = 40usize;
    let half = n as u32 / 2;
    let mut edges: Vec<Edge> = Vec::new();
    for i in 0..half - 1 {
        edges.push(Edge::new(i, i + 1)); // path A
        edges.push(Edge::new(half + i, half + i + 1)); // path B
    }
    for i in 0..half {
        edges.push(Edge::new(i, half + i)); // rungs
    }
    let mut ctx = ctx_for(n);
    let mut ours = Connectivity::new(n, ConnectivityConfig::default(), 9);
    ours.apply_batch(
        &mpc_stream::graph::update::Batch::inserting(edges.clone()),
        &mut ctx,
    )
    .expect("build");
    assert_eq!(ours.component_count(), 1);
    // Delete a batch of interior path-A edges at once.
    let victims: Vec<Edge> = (4..12u32).map(|i| Edge::new(i, i + 1)).collect();
    ours.apply_batch(
        &mpc_stream::graph::update::Batch::deleting(victims.clone()),
        &mut ctx,
    )
    .expect("delete");
    let live: Vec<Edge> = edges.into_iter().filter(|e| !victims.contains(e)).collect();
    assert_eq!(
        ours.component_labels(),
        &oracle::components(n, live.iter().copied())[..],
    );
    assert_eq!(ours.component_count(), 1, "replacements must reconnect");
}
