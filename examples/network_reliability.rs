//! Network reliability monitoring with k-edge-connectivity
//! certificates (the Section 9 extension), driven through the
//! unified [`Session`] and its typed query plane.
//!
//! ```sh
//! cargo run --example network_reliability
//! ```
//!
//! Scenario: a datacenter fabric evolves as links are provisioned and
//! decommissioned. The operator wants to know, after every
//! maintenance window (= update batch), whether the fabric can
//! survive one or two link failures — i.e. whether it is 2- and
//! 3-edge-connected — and which links are single points of failure
//! (bridges). Storing the whole fabric would cost `Θ(m)` words; the
//! sparse certificate answers all cut questions up to size `k` with
//! `O(k·n)` words.
//!
//! The cut question goes through `Session::ask(monitor,
//! &QueryRequest::MinCutLowerBound)`: the peel's `Θ(k log n)` rounds
//! are charged on the session's cluster and receipted per query —
//! the measured shape of the paper's Section 9 open problem (cheap
//! updates, expensive dynamic cut queries). The bridge list is read
//! off the same certificate peeled on a scratch context, so it is
//! not charged to the session.

#![expect(clippy::print_stdout, reason = "an example: it prints what it shows")]

use mpc_stream::hashing::rng::StdRng;
use mpc_stream::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: u32 = 96; // racks
    let k = 3; // resolution: answer cut questions up to 3-conn
    let cfg = MpcConfig::builder(n as usize, 0.5)
        .local_capacity(1 << 16)
        .machines(8) // the monitor's machine group must hold k sketch banks
        .build();
    println!(
        "fabric monitor: {n} racks, certificate resolution k = {k}, s = {} words",
        cfg.local_capacity()
    );
    let mut session = Session::new(cfg);
    let monitor = session.register(DynamicKConn::new(n as usize, k, 0xFAB));
    let mut rng = StdRng::seed_from_u64(2024);
    let mut live: Vec<Edge> = Vec::new();

    // Window 0: bring up a ring backbone (survives 1 failure).
    let ring: Vec<Edge> = (0..n).map(|i| Edge::new(i, (i + 1) % n)).collect();
    live.extend(ring.iter().copied());
    session.apply(ring.into_iter().map(Update::Insert))?;
    report(&mut session, monitor, 0, live.len())?;

    // Window 1: add random cross-links (redundancy grows).
    let mut cross = Vec::new();
    while cross.len() < 64 {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            let e = Edge::new(a, b);
            if !live.contains(&e) && !cross.contains(&e) {
                cross.push(e);
            }
        }
    }
    live.extend(cross.iter().copied());
    session.apply(cross.into_iter().map(Update::Insert))?;
    report(&mut session, monitor, 1, live.len())?;

    // Window 2: decommission a quarter of the cross-links.
    let gone: Vec<Edge> = live.iter().skip(n as usize).step_by(4).copied().collect();
    live.retain(|e| !gone.contains(e));
    session.apply(gone.into_iter().map(Update::Delete))?;
    report(&mut session, monitor, 2, live.len())?;

    // Window 3: sever the ring at two points — bridges appear.
    let cut = vec![live[0], live[n as usize / 2]];
    live.retain(|e| !cut.contains(e));
    session.apply(cut.into_iter().map(Update::Delete))?;
    report(&mut session, monitor, 3, live.len())?;

    println!("\nsession rollup:\n{}", session.stats().summary());
    Ok(())
}

/// One maintenance-window report: the cut bound is a charged
/// `ask(MinCutLowerBound)`, whose Θ(k log n) certificate peel the
/// receipt prices; the bridge list comes from the same certificate
/// peeled on a scratch context, uncharged.
fn report(
    session: &mut Session,
    monitor: Handle<DynamicKConn>,
    window: usize,
    m: usize,
) -> Result<(), MpcStreamError> {
    let answer = session.ask(monitor, &QueryRequest::MinCutLowerBound)?;
    let receipt = session.query_reports()[0];
    let mut scratch = MpcContext::new(session.ctx().config().clone());
    let cert = session.get(monitor).certificate(&mut scratch);
    let (lower, exact) = match cert.min_cut() {
        MinCut::Exact(v) => (v, true),
        MinCut::AtLeast(v) => (v, false),
    };
    assert_eq!(
        answer.as_min_cut(),
        Some((lower, exact)),
        "ask == certificate"
    );
    let survives_one = cert.is_k_edge_connected(2).unwrap_or(false);
    let survives_two = cert.is_k_edge_connected(3).unwrap_or(false);
    let bridges = cert.bridges().expect("k >= 2");
    println!(
        "\nwindow {window}: {m} live links, certificate {} edges ({} words vs {} for the edge list)",
        cert.edge_count(),
        cert.words(),
        2 * m,
    );
    println!(
        "  {} ({}) | survives 1 failure: {survives_one} | survives 2: {survives_two} | \
         single points of failure: {} (uncharged) | charged: {} rounds, {} words",
        cert.min_cut(),
        if exact { "exact" } else { "at resolution" },
        bridges.len(),
        receipt.rounds,
        receipt.words,
    );
    if !bridges.is_empty() {
        let shown: Vec<String> = bridges.iter().take(4).map(|e| e.to_string()).collect();
        println!("  first bridges: {}", shown.join(", "));
    }
    assert!(lower <= 3, "resolution k = 3 caps the reported bound");
    assert!(receipt.rounds > 0, "dynamic cut queries are never free");
    Ok(())
}
