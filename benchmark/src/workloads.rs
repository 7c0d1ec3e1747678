//! The four named workloads: their shapes, sessions and rosters.
//!
//! Names and shapes are the benchmark's contract with every later
//! performance or simplicity change; see README.md for why each one
//! exists and what it must and must not move.

use crate::gen::StreamSpec;
use mpc_stream::prelude::{
    AgmBaseline, AklyMatching, ApproxMsfWeight, Bipartiteness, Connectivity, ConnectivityConfig,
    DynamicKConn, FullMemoryBaseline, Maintain, MaximalMatching, MpcConfig, Session,
};
use mpc_stream::sketch::SketchBank;

/// The default `--seed`.
pub const DEFAULT_SEED: u64 = 0xB11;

/// Seed of the engine's own randomness (sketch families). Fixed:
/// `--seed` varies the *inputs*, never the program under test.
const ENGINE_SEED: u64 = 0xE20;

/// Host worker lanes of every end-to-end session. The traced run
/// times `fanout` once more at [`POOL_WORKERS`].
///
/// One, because the sizing host has two shared cores: a two-lane run
/// needs both uncontended, and its median batch time moved by +30 %
/// between two back-to-back runs of identical code while every
/// single-threaded metric stayed within 3 %.
pub const WORKERS: usize = 1;

/// Lanes of the pool whose speed-up the traced run reports.
pub const POOL_WORKERS: usize = 2;

/// Independent sketch copies, as in the E20 soak: enough for the
/// deletion cascade on churn, a third of the `⌈log₂ n⌉ + 6` default.
pub const COPIES: usize = 8;

/// `Connected(u, v)` point queries per burst.
pub const BURST: usize = 1024;

/// A workload name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Insert-only bulk load.
    Grow,
    /// E20's opening regime: a sparse giant component under churn.
    Churn,
    /// Churn with a checkpoint/restore cycle every few batches.
    Durable,
    /// Eight maintainers on one session, reads beside writes.
    Fanout,
}

impl Workload {
    /// All four, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Grow,
        Workload::Churn,
        Workload::Durable,
        Workload::Fanout,
    ];

    /// The fixed name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Grow => "grow",
            Workload::Churn => "churn",
            Workload::Durable => "durable",
            Workload::Fanout => "fanout",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Everything that sizes one workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// The stream.
    pub spec: StreamSpec,
    /// Eight maintainers through `apply_weighted` instead of one
    /// `Connectivity` through `apply_batch`.
    pub fanout: bool,
    /// A query round follows every `query_every`-th batch.
    pub query_every: usize,
    /// A checkpoint → drop → restore cycle follows every
    /// `cycle_every`-th batch, and always the last one.
    pub cycle_every: usize,
}

/// The shape of `workload`; `smoke` shrinks it to finish in about a
/// second while keeping every code path (deletions, cascades, query
/// rounds, cycles) on it.
pub fn shape(workload: Workload, smoke: bool) -> Shape {
    // (n, batches, width, churn, max_weight, cycle_every)
    let (n, batches, width, churn, max_weight, cycle_every) = match (workload, smoke) {
        (Workload::Grow, false) => (16_384, 1024, 256, 0.0, 1, 1024),
        (Workload::Churn, false) => (16_384, 1024, 64, 0.15, 1, 1024),
        (Workload::Durable, false) => (16_384, 1024, 128, 0.15, 1, 256),
        (Workload::Fanout, false) => (1_024, 1024, 16, 0.15, 16, 1024),
        (Workload::Grow, true) => (2_048, 48, 128, 0.0, 1, 48),
        (Workload::Churn, true) => (2_048, 48, 128, 0.15, 1, 48),
        (Workload::Durable, true) => (1_024, 48, 128, 0.15, 1, 12),
        (Workload::Fanout, true) => (512, 32, 64, 0.15, 16, 32),
    };
    Shape {
        spec: StreamSpec {
            n,
            batches,
            width,
            churn,
            max_weight,
        },
        fanout: workload == Workload::Fanout,
        query_every: 16,
        cycle_every,
    }
}

/// The stream checksum on record for `workload` at full size and the
/// default seed — the frozen inputs every baseline was measured on.
/// Other seeds and the smoke sizes have none.
pub fn pinned_checksum(workload: Workload, smoke: bool, seed: u64) -> Option<u64> {
    if smoke || seed != DEFAULT_SEED {
        return None;
    }
    Some(match workload {
        Workload::Grow => 0x7023_e24a_ea8f_0812,
        Workload::Churn => 0x41ec_72c0_8665_07c7,
        Workload::Durable => 0x9e53_e07d_9480_f364,
        Workload::Fanout => 0x1447_9f85_26d8_966c,
    })
}

/// The cluster: the E20 soak's configuration; `fanout` provisions
/// eight times the single-maintainer machine count, one machine group
/// per maintainer.
pub fn cluster(shape: &Shape) -> MpcConfig {
    let builder = || MpcConfig::builder(2 * shape.spec.n, 0.5).local_capacity(1 << 18);
    if shape.fanout {
        let single = builder().build().machines();
        builder().machines(8 * single).build()
    } else {
        builder().build()
    }
}

/// The `Connectivity` maintainer every workload registers first.
pub fn connectivity(shape: &Shape) -> Connectivity {
    Connectivity::new(
        shape.spec.n,
        ConnectivityConfig {
            sketch_copies: Some(COPIES),
        },
        ENGINE_SEED,
    )
}

/// A sketch bank with the `n`, copies and seed of
/// [`connectivity`]'s own, so the two hold bit-identical cells.
pub fn connectivity_bank(shape: &Shape) -> SketchBank {
    SketchBank::new(shape.spec.n, COPIES, ENGINE_SEED)
}

/// The maintainers registered after `Connectivity`: none on the
/// single-maintainer workloads, seven on `fanout`.
pub fn companions(shape: &Shape) -> Vec<Box<dyn Maintain>> {
    if !shape.fanout {
        return Vec::new();
    }
    let n = shape.spec.n;
    vec![
        Box::new(Bipartiteness::new(n, ENGINE_SEED)),
        Box::new(ApproxMsfWeight::new(
            n,
            0.5,
            shape.spec.max_weight,
            ENGINE_SEED,
        )),
        Box::new(AklyMatching::new(n, 2.0, ENGINE_SEED)),
        Box::new(MaximalMatching::new(n)),
        Box::new(DynamicKConn::with_copies(n, 2, COPIES, ENGINE_SEED)),
        Box::new(AgmBaseline::new(n, ENGINE_SEED)),
        Box::new(FullMemoryBaseline::new(n)),
    ]
}

/// The registered names, in registration order (`Maintain::name`).
pub const FANOUT_NAMES: [&str; 8] = [
    "connectivity",
    "bipartiteness",
    "msf-approx-weight",
    "matching-akly",
    "matching-maximal",
    "kconn-dynamic",
    "agm-baseline",
    "fullmem-baseline",
];

/// A fresh session for `shape` at `workers` lanes, `Connectivity`
/// registered as maintainer 0.
pub fn session(shape: &Shape, workers: usize) -> Session {
    let mut session = Session::new(cluster(shape)).with_workers(workers);
    session.register(connectivity(shape));
    for m in companions(shape) {
        session.register_boxed(m);
    }
    session
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::BEYOND;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("soak"), None);
    }

    #[test]
    fn the_default_seed_streams_are_the_pinned_ones() {
        for w in Workload::ALL {
            let stream = crate::gen::generate(&shape(w, false).spec, DEFAULT_SEED);
            assert_eq!(
                Some(stream.checksum),
                pinned_checksum(w, false, DEFAULT_SEED),
                "{}: {:#018x}",
                w.name(),
                stream.checksum
            );
            assert_eq!(pinned_checksum(w, true, DEFAULT_SEED), None);
            assert_eq!(pinned_checksum(w, false, DEFAULT_SEED + 1), None);
        }
    }

    #[test]
    fn every_full_shape_supports_a_p99() {
        // Nearest-rank p99 over the N batches of a stream leaves
        // N − ⌈0.99·N⌉ of them beyond it.
        for w in Workload::ALL {
            let batches = shape(w, false).spec.batches;
            let beyond = batches - (batches * 99).div_ceil(100);
            assert!(beyond >= BEYOND, "{}: {beyond} beyond p99", w.name());
        }
    }

    #[test]
    fn every_shape_ends_on_a_cycle_and_runs_query_rounds() {
        for smoke in [false, true] {
            for w in Workload::ALL {
                let s = shape(w, smoke);
                assert_eq!(s.spec.batches % s.cycle_every, 0, "{}", w.name());
                assert!(s.spec.batches >= 2 * s.query_every, "{}", w.name());
            }
        }
    }

    #[test]
    fn fanout_registers_the_eight_named_maintainers() {
        let s = session(&shape(Workload::Fanout, true), 1);
        assert_eq!(s.names(), FANOUT_NAMES);
        let single = session(&shape(Workload::Churn, true), 1);
        assert_eq!(single.names(), ["connectivity"]);
    }
}
