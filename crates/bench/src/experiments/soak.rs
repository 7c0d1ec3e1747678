//! Experiment E20: the million-scale soak.
//!
//! One sketch-heavy [`Session`] — batch-dynamic connectivity at a
//! fixed copy count — drives a power-law stream with adversarial
//! re-insert/delete churn ([`gen::powerlaw_churn_stream`]): hub cells
//! are repeatedly written, exactly cancelled, and refilled, which is
//! the worst case for the arena's live-mask bookkeeping and exactly
//! the loops of [`mpc_sketch::kernels`]. The loop
//! interleaves periodic `ask_all` component counts and periodic
//! `Session::checkpoint` calls, so the measured stream is the full
//! production surface (ingest + query fan-out + durability), not a
//! bare ingest microloop.
//!
//! The table reports end-to-end throughput plus p50/p95/p99
//! **per-batch latencies** (nearest-rank over every `apply_batch`
//! wall time, via the vendored harness's `percentile`).
//!
//! By default the soak runs a lite shape (`n = 10⁴`, ~6·10⁴ updates)
//! sized for CI smoke; set `MPC_SOAK_SCALE=full` for the committed
//! `BENCH_PR9_SIMD_SOAK.json` shapes (`n = 10⁵` and `10⁶`,
//! multi-million-update streams).

use crate::table::Table;
use mpc_graph::gen;
use mpc_sim::MpcConfig;
use mpc_stream_core::{Connectivity, ConnectivityConfig, QueryRequest, Session};
use std::time::{Duration, Instant};

/// Fixed copy count at every scale: enough for the deletion cascade
/// to stay reliable on churn, small enough that the `n = 10⁶` arena
/// fits a small host (full `⌈log₂ n⌉ + 6` copies would triple it).
const SOAK_COPIES: usize = 8;

fn soak_session(n: usize, seed: u64) -> Session {
    let cfg = MpcConfig::builder(2 * n, 0.5)
        .local_capacity(1 << 18)
        .build();
    let mut session = Session::new(cfg);
    session.register(Connectivity::new(
        n,
        ConnectivityConfig {
            sketch_copies: Some(SOAK_COPIES),
        },
        seed,
    ));
    session
}

/// E20 — the soak: power-law churn at `n = 10⁵`/`10⁶` with in-loop
/// queries and checkpoints, and batch-latency percentiles.
///
/// Shape expectations: `updates/s` is the headline; p99 sits well
/// above p50 because churn batches that trigger the replacement-edge
/// cascade pay converge-cast rounds that insert-only batches never
/// see; `components` is a pure function of the seed.
pub fn e20_simd_soak() -> Vec<Table> {
    let full = std::env::var("MPC_SOAK_SCALE").is_ok_and(|v| v == "full");
    // (n, batches, batch width, churn, query cadence, ckpt cadence).
    let shapes: &[(usize, usize, usize, f64, usize, usize)] = if full {
        &[
            (100_000, 4_000, 512, 0.15, 400, 1_000),
            (1_000_000, 3_000, 1_024, 0.15, 500, 1_500),
        ]
    } else {
        &[(10_000, 250, 256, 0.15, 50, 125)]
    };
    let mut t = Table::new(
        "E20 (soak): power-law churn, in-loop queries + checkpoints, batch-latency percentiles",
        &[
            "n",
            "updates",
            "wall s",
            "updates/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "asks",
            "ckpts",
            "components",
        ],
    );
    for &(n, batches, width, churn, ask_every, ckpt_every) in shapes {
        let stream = gen::powerlaw_churn_stream(n, batches, width, churn, 0xE20 + n as u64);
        let updates = stream.update_count();
        let path = std::env::temp_dir().join(format!("mpc-e20-{}-{n}.snap", std::process::id()));

        let mut session = soak_session(n, 0xE20);
        let mut latencies: Vec<Duration> = Vec::with_capacity(batches);
        let mut asks = 0u32;
        let mut ckpts = 0u32;
        let mut components = 0u64;
        let start = Instant::now();
        for (i, batch) in stream.batches.iter().enumerate() {
            let t0 = Instant::now();
            session.apply_batch(batch).expect("generated stream valid");
            latencies.push(t0.elapsed());
            if (i + 1) % ask_every == 0 || i + 1 == batches {
                let answers = session
                    .ask_all(&QueryRequest::ComponentCount)
                    .expect("connectivity answers");
                let (_, answer) = answers.first().expect("one maintainer");
                components = answer.as_count().expect("a count");
                asks += 1;
            }
            if (i + 1) % ckpt_every == 0 {
                session.checkpoint(&path).expect("checkpoint");
                ckpts += 1;
            }
        }
        let wall = start.elapsed();
        if ckpts > 0 {
            std::fs::remove_file(&path).expect("scratch snapshot removable");
        }
        latencies.sort_unstable();
        let pct = |q: f64| {
            criterion::percentile(&latencies, q)
                .expect("nonempty")
                .as_secs_f64()
                * 1e3
        };
        t.row(vec![
            n.to_string(),
            updates.to_string(),
            format!("{:.1}", wall.as_secs_f64()),
            format!("{:.0}", updates as f64 / wall.as_secs_f64()),
            format!("{:.2}", pct(50.0)),
            format!("{:.2}", pct(95.0)),
            format!("{:.2}", pct(99.0)),
            asks.to_string(),
            ckpts.to_string(),
            components.to_string(),
        ]);
    }
    vec![t]
}
