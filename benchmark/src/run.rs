//! The closed-loop driver every workload shares, and the aggregation
//! of its repetitions into the end-to-end metrics.
//!
//! One client: batch `k + 1` is submitted when batch `k` returns (the
//! engine is a synchronous library, so sustainable throughput *is*
//! closed-loop throughput). One repetition ("rep") builds a fresh
//! session over the identical stream, times every submission, runs a
//! query round after every `query_every`-th batch and a checkpoint →
//! drop → restore cycle after every `cycle_every`-th, and checks the
//! final state against the sequential oracles. Every `Err` and every
//! mismatch is a failed operation.

use crate::gen::{generate, Stream};
use crate::json::Json;
use crate::rng::Rng;
use crate::span::{enter, exit, timed, Tracer};
use crate::stats::{median, nearest_rank, BEYOND};
use crate::workloads::{self, Shape, BURST, WORKERS};
use mpc_stream::graph::oracle;
use mpc_stream::prelude::{
    Batch, Edge, MaximalMatching, QueryRequest, QueryResponse, Session, SessionStats,
};
use mpc_stream::snapshot::{Snapshot, SnapshotWriter};
use std::any::Any;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The five `ask_all` requests of one query round, with the span each
/// is recorded under in a traced run.
pub const QUERY_ROUND: [(QueryRequest, &str); 5] = [
    (QueryRequest::ComponentCount, "query.component_count"),
    (QueryRequest::MatchingSize, "query.matching_size"),
    (QueryRequest::ForestWeight, "query.forest_weight"),
    (QueryRequest::MinCutLowerBound, "query.min_cut_lower_bound"),
    (QueryRequest::IsBipartite, "query.is_bipartite"),
];

/// Registration index of `Connectivity` in every workload's session.
const CONNECTIVITY: usize = 0;

/// Operations attempted and the ones that failed.
#[derive(Debug, Clone, Default)]
pub struct Ops {
    /// Applies, asks, checkpoints, restores and verifications tried.
    pub attempted: u64,
    /// One line per failure.
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts one operation; keeps its value if it succeeded.
    pub fn attempt<T, E: std::fmt::Display>(
        &mut self,
        what: &str,
        result: Result<T, E>,
    ) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.failures.push(format!("{what}: {e}"));
                None
            }
        }
    }

    /// Adds another tally to this one.
    pub fn absorb(&mut self, other: &Ops) {
        self.attempted += other.attempted;
        self.failures.extend(other.failures.iter().cloned());
    }

    /// Counts one verification.
    pub fn verify(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// Everything one repetition measured.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Stream generation + config + `Session::new` + `register`.
    pub setup_s: f64,
    /// One span per submitted batch, in milliseconds.
    pub batch_ms: Vec<f64>,
    /// One span per query round (its five `ask_all` calls).
    pub query_round_ms: Vec<f64>,
    /// One value per burst: burst span ÷ [`BURST`], in nanoseconds.
    pub ask_ns: Vec<f64>,
    /// One span per `Session::checkpoint`, in seconds.
    pub checkpoint_s: Vec<f64>,
    /// One span per `Session::restore`, in seconds.
    pub restore_s: Vec<f64>,
    /// FNV checksum of the generated stream.
    pub stream_fnv: u64,
    /// Deterministic counts; identical on every rep of one seed.
    pub exact: BTreeMap<&'static str, u64>,
    /// Attempted and failed operations.
    pub ops: Ops,
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// One full repetition of `shape` on the stream of `seed`, at
/// `workers` host lanes. `scratch` is where checkpoints are written
/// (and removed again). With a tracer, every call into the session is
/// also recorded as a span, and each cycle adds the encode-only and
/// read-verify probes of the `snapshot` layer.
pub fn rep(
    shape: &Shape,
    seed: u64,
    workers: usize,
    scratch: &Path,
    mut tracer: Option<&mut Tracer>,
) -> Rep {
    let mut out = Rep::default();
    let begun = Instant::now();
    let stream = generate(&shape.spec, seed);
    // Single-maintainer workloads submit through `apply_batch`, the
    // E20 path; `fanout` submits the weighted batches as they are.
    let plain: Vec<Batch> = if shape.fanout {
        Vec::new()
    } else {
        stream.batches.iter().map(|b| b.unweighted()).collect()
    };
    let mut session = workloads::session(shape, workers);
    out.setup_s = begun.elapsed().as_secs_f64();
    out.stream_fnv = stream.checksum;

    let n = shape.spec.n;
    // Query endpoints are inputs too: drawn from the seed, apart from
    // the stream's own draws.
    let mut pairs = Rng::seeded(seed ^ 0x5157_4552_5953);
    let snapshot_path = scratch.join(format!("checkpoint-{}.snap", std::process::id()));
    let mut snapshot_bytes = 0u64;
    for (k, weighted) in stream.batches.iter().enumerate() {
        let trace = k as u64;
        let root = enter(&mut tracer, "batch", trace);
        let (result, span) = timed(&mut tracer, "session.apply", trace, || {
            if shape.fanout {
                session.apply_weighted(weighted.iter())
            } else {
                session.apply_batch(&plain[k])
            }
        });
        out.ops.attempt("apply", result);
        out.batch_ms.push(ms(span));
        if (k + 1) % shape.query_every == 0 {
            query_round(&mut session, n, &mut pairs, &mut tracer, trace, &mut out);
        }
        if (k + 1) % shape.cycle_every == 0 {
            let cycled = cycle(
                session,
                workers,
                &snapshot_path,
                &mut tracer,
                trace,
                &mut out,
            );
            let Some((restored, bytes)) = cycled else {
                // No session to continue on: the failure is recorded.
                return out;
            };
            session = restored;
            snapshot_bytes = bytes;
        }
        exit(&mut tracer, root);
    }
    verify_final(&mut session, shape, &stream, &mut pairs, &mut out.ops);

    let stats = session.stats();
    out.exact = BTreeMap::from([
        ("batches", stats.batches),
        ("updates", stats.updates),
        ("rounds", stats.rounds),
        ("words", stats.words),
        ("max_batch_rounds", stats.max_batch_rounds),
        ("l0_failures", stats.l0_failures),
        ("capacity_violations", stats.capacity_violations),
        ("queries", stats.queries),
        ("query_rounds", stats.query_rounds),
        ("query_words", stats.query_words),
        ("state_words", session.state_words()),
        ("snapshot_bytes", snapshot_bytes),
        ("live_edges", stream.live.len() as u64),
    ]);
    out
}

/// One query round: the five `ask_all` calls (timed together), then a
/// burst of [`BURST`] `Connected(u, v)` point queries.
fn query_round(
    session: &mut Session,
    n: usize,
    pairs: &mut Rng,
    tracer: &mut Option<&mut Tracer>,
    trace: u64,
    out: &mut Rep,
) {
    let root = enter(tracer, "session.query_round", trace);
    let mut round = Duration::ZERO;
    for (request, span_name) in &QUERY_ROUND {
        let (result, span) = timed(tracer, span_name, trace, || session.ask_all(request));
        round += span;
        out.ops.attempt("ask_all", result);
    }
    out.query_round_ms.push(ms(round));

    let burst: Vec<QueryRequest> = (0..BURST)
        .map(|_| QueryRequest::Connected(pairs.below(n) as u32, pairs.below(n) as u32))
        .collect();
    let (failures, span) = timed(tracer, "session.ask_burst", trace, || {
        let mut failures = Vec::new();
        for request in &burst {
            // `Session::ask` is this call behind a handle type check;
            // the untyped form also works on a restored session.
            match session.ask_dyn(CONNECTIVITY, request) {
                Ok(answer) => {
                    black_box(answer);
                }
                Err(e) => failures.push(format!("ask: {e}")),
            }
        }
        failures
    });
    out.ask_ns.push(span.as_secs_f64() * 1e9 / BURST as f64);
    out.ops.attempted += BURST as u64;
    out.ops.failures.extend(failures);
    exit(tracer, root);
}

/// The component count every supporting maintainer reports, or `None`
/// (recorded as failures) if the fan-out failed or they disagree.
fn component_count(session: &mut Session, ops: &mut Ops) -> Option<u64> {
    let answers = ops.attempt("ask_all", session.ask_all(&QueryRequest::ComponentCount))?;
    let counts: Vec<Option<u64>> = answers.iter().map(|(_, a)| a.as_count()).collect();
    let first = counts.first().copied().flatten();
    ops.verify(
        first.is_some() && counts.iter().all(|&c| c == first),
        || format!("maintainers disagree on the component count: {counts:?}"),
    );
    first
}

/// Checkpoint → drop → restore. The restored session must equal the
/// dropped one in `stats()` and component count before ingest
/// continues on it. Returns the restored session and the snapshot
/// size, or `None` when the cycle failed.
fn cycle(
    mut session: Session,
    workers: usize,
    path: &Path,
    tracer: &mut Option<&mut Tracer>,
    trace: u64,
    out: &mut Rep,
) -> Option<(Session, u64)> {
    let root = enter(tracer, "session.cycle", trace);
    let count_before = component_count(&mut session, &mut out.ops);
    if tracer.is_some() {
        // The `snapshot` layer's encode half alone: every
        // maintainer's `save_state` into a writer, plus `finish`.
        let (bytes, _) = timed(tracer, "snapshot.encode", trace, || {
            let mut w = SnapshotWriter::new(session.stream_epoch());
            for id in 0..session.maintainer_count() {
                if let Some(m) = session.maintainer(id) {
                    w.begin_section(&format!("maintainer.{id}"));
                    m.save_state(&mut w);
                    w.end_section();
                }
            }
            w.finish().len()
        });
        black_box(bytes);
    }
    // The file system commits its journal every few seconds, and a
    // write that collides with a commit waits for it (measured here:
    // 0.05 s becomes 0.2–0.9 s for a 150 MB file, one write in six).
    // Two back-to-back attempts are not both hit; the cycle keeps the
    // faster one. Re-checkpointing is byte-identical by contract.
    let mut receipt = None;
    let mut fastest: Option<(Instant, Instant)> = None;
    for _ in 0..2 {
        let start = Instant::now();
        let result = session.checkpoint(path);
        let end = Instant::now();
        receipt = out.ops.attempt("checkpoint", result);
        if fastest.is_none_or(|(s, e)| end - start < e - s) {
            fastest = Some((start, end));
        }
    }
    if let Some((start, end)) = fastest {
        out.checkpoint_s.push((end - start).as_secs_f64());
        if let Some(t) = tracer {
            t.record("session.checkpoint", trace, start, end);
        }
    }
    let stats_before: SessionStats = session.stats().clone();
    drop(session);

    if tracer.is_some() && receipt.is_some() {
        // The decode half's first step alone: read the file and
        // verify every section checksum.
        let (snapshot, _) = timed(tracer, "snapshot.read_verify", trace, || {
            Snapshot::read_from(path)
        });
        black_box(snapshot.is_ok());
    }
    let (restored, span) = timed(tracer, "session.restore", trace, || {
        Session::restore(path, &mpc_stream::full_registry())
    });
    out.restore_s.push(span.as_secs_f64());
    let restored = out.ops.attempt("restore", restored);
    // Best effort: a leftover file is reported by the next cycle's
    // checkpoint if it matters.
    let _ = std::fs::remove_file(path);
    let mut restored = restored?;
    // Host knobs are not persisted; put the lanes back.
    restored.set_workers(workers);
    out.ops.verify(*restored.stats() == stats_before, || {
        "restored session's stats differ from the dropped one's".to_string()
    });
    let count_after = component_count(&mut restored, &mut out.ops);
    out.ops.verify(count_after == count_before, || {
        format!("component count {count_before:?} became {count_after:?} across restore")
    });
    exit(tracer, root);
    Some((restored, receipt?.bytes))
}

/// Final-state verification against the sequential oracles.
fn verify_final(
    session: &mut Session,
    shape: &Shape,
    stream: &Stream,
    pairs: &mut Rng,
    ops: &mut Ops,
) {
    let n = shape.spec.n;
    let edges: Vec<Edge> = stream.live.iter().map(|we| we.edge).collect();
    let labels = oracle::components(n, edges.iter().copied());

    let expected = oracle::component_count(n, edges.iter().copied()) as u64;
    let reported = component_count(session, ops);
    ops.verify(reported == Some(expected), || {
        format!("component count {reported:?}, oracle says {expected}")
    });

    let bipartite = oracle::is_bipartite(n, &edges);
    if let Some(answers) = ops.attempt("ask_all", session.ask_all(&QueryRequest::IsBipartite)) {
        for (id, answer) in answers {
            ops.verify(answer.as_bool() == Some(bipartite), || {
                format!("maintainer {id} says bipartite = {answer:?}, oracle says {bipartite}")
            });
        }
    }

    for _ in 0..BURST {
        let (u, v) = (pairs.below(n) as u32, pairs.below(n) as u32);
        let answer = ops.attempt(
            "ask",
            session.ask_dyn(CONNECTIVITY, &QueryRequest::Connected(u, v)),
        );
        let expected = labels[u as usize] == labels[v as usize];
        ops.verify(answer == Some(QueryResponse::Bool(expected)), || {
            format!("connected({u}, {v}) = {answer:?}, oracle says {expected}")
        });
    }

    for id in 0..session.maintainer_count() {
        let Some(m) = session.maintainer(id) else {
            continue;
        };
        let m: &dyn Any = m;
        if let Some(matching) = m.downcast_ref::<MaximalMatching>() {
            ops.verify(matching.is_maximal(), || {
                "the maximal matching is not maximal".to_string()
            });
        }
    }
    ops.attempt("validate_all", session.validate_all());
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The reported value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// Distinct operations behind the value (batches, rounds,
    /// cycles; reps for `setup_s`; 0 for counts).
    pub samples: usize,
    /// The same statistic with each rep left out in turn: how much
    /// the value depends on which reps ran — the run-to-run spread
    /// `compare` needs. Empty for counts.
    pub leave_one_out: Vec<f64>,
}

/// The aggregate of all reps of one workload.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Metrics by name.
    pub metrics: BTreeMap<&'static str, Metric>,
    /// Samples strictly beyond the reported p99.
    pub beyond_p99: usize,
    /// The stream checksum.
    pub stream_fnv: u64,
    /// The deterministic counts.
    pub exact: BTreeMap<&'static str, u64>,
    /// Attempted operations over all reps and checks.
    pub attempted: u64,
    /// Failure lines.
    pub failures: Vec<String>,
    /// Reps aggregated.
    pub reps: usize,
}

/// Operation `k` of the stream (a batch, a query round, a cycle) does
/// the same work in every rep, and interference from the host only
/// ever adds time, so its time is taken as the minimum over the reps.
fn quietest(reps: &[&Rep], series: fn(&Rep) -> &Vec<f64>) -> Vec<f64> {
    let len = reps.iter().map(|r| series(r).len()).min().unwrap_or(0);
    (0..len)
        .map(|k| {
            reps.iter()
                .map(|r| series(r)[k])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// `(name, unit, value, samples)` of one timing metric.
type Timing = (&'static str, &'static str, Option<f64>, usize);

/// Every timing metric over `reps`, plus the number of samples beyond
/// the p99.
fn timings(reps: &[&Rep]) -> (Vec<Timing>, usize) {
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut batch = quietest(reps, |r| &r.batch_ms);
    let busy_s = batch.iter().sum::<f64>() / 1e3;
    let updates = reps
        .first()
        .and_then(|r| r.exact.get("updates"))
        .copied()
        .unwrap_or(0) as f64;
    batch.sort_by(f64::total_cmp);
    let p99 = nearest_rank(&batch, 99.0);
    let mut out = vec![
        ("setup_s", "s", median(&setup), setup.len()),
        (
            "updates_per_s",
            "1/s",
            (busy_s > 0.0).then(|| updates / busy_s),
            batch.len(),
        ),
        (
            "batch_p50_ms",
            "ms",
            nearest_rank(&batch, 50.0).map(|p| p.0),
            batch.len(),
        ),
        ("batch_p99_ms", "ms", p99.map(|p| p.0), batch.len()),
    ];
    type Series = fn(&Rep) -> &Vec<f64>;
    let medians: [(&'static str, &'static str, Series); 4] = [
        ("query_round_ms", "ms", |r| &r.query_round_ms),
        ("ask_connected_ns", "ns", |r| &r.ask_ns),
        ("checkpoint_s", "s", |r| &r.checkpoint_s),
        ("restore_s", "s", |r| &r.restore_s),
    ];
    for (name, unit, series) in medians {
        let quiet = quietest(reps, series);
        out.push((name, unit, median(&quiet), quiet.len()));
    }
    (out, p99.map_or(0, |p| p.1))
}

/// Aggregates `reps`. `setup_s` is the median over the reps; every
/// other timing is a statistic of the per-operation minima over the
/// reps (see [`quietest`]): throughput over their sum, batch
/// percentiles nearest-rank over the batches, the rest their median.
/// Every deterministic count must be identical on every rep.
pub fn summarize(reps: &[Rep], peak_rss_mb: f64) -> Summary {
    let mut s = Summary {
        reps: reps.len(),
        ..Summary::default()
    };
    let Some(first) = reps.first() else {
        s.failures.push("no repetition ran".to_string());
        return s;
    };
    for rep in reps {
        s.attempted += rep.ops.attempted + 1;
        s.failures.extend(rep.ops.failures.iter().cloned());
        if rep.exact != first.exact || rep.stream_fnv != first.stream_fnv {
            s.failures.push(format!(
                "deterministic counts differ between reps: {:?} vs {:?}",
                first.exact, rep.exact
            ));
        }
    }
    s.stream_fnv = first.stream_fnv;
    s.exact = first.exact.clone();

    let all: Vec<&Rep> = reps.iter().collect();
    let (timed, beyond_p99) = timings(&all);
    s.beyond_p99 = beyond_p99;
    let mut leave_one_out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    // With a single rep there is nothing to leave out.
    for skip in 0..if reps.len() > 1 { reps.len() } else { 0 } {
        let rest: Vec<&Rep> = all
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, r)| *r)
            .collect();
        for (name, _, value, _) in timings(&rest).0 {
            leave_one_out.entry(name).or_default().extend(value);
        }
    }
    let count = |key: &str| first.exact.get(key).copied().unwrap_or(0) as f64;
    let counts = [
        ("snapshot_bytes", "B", Some(count("snapshot_bytes")), 0),
        ("peak_rss_mb", "MiB", Some(peak_rss_mb), 1),
        (
            "rounds_per_batch",
            "rounds",
            Some(count("rounds") / count("batches")),
            0,
        ),
        (
            "words_per_update",
            "words",
            Some(count("words") / count("updates")),
            0,
        ),
        ("state_words", "words", Some(count("state_words")), 0),
    ];
    for (name, unit, value, samples) in timed.into_iter().chain(counts) {
        // A metric that could not be measured is a failed operation,
        // never a silent zero.
        s.attempted += 1;
        match value {
            Some(value) if value.is_finite() && value > 0.0 => {
                s.metrics.insert(
                    name,
                    Metric {
                        value,
                        unit,
                        samples,
                        leave_one_out: leave_one_out.remove(name).unwrap_or_default(),
                    },
                );
            }
            _ => s.failures.push(format!("metric {name} has no value")),
        }
    }
    s
}

impl Summary {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The human-readable report: every end-to-end metric by name,
    /// with its unit and sample count.
    pub fn print(&self, workload: &str) {
        println!("== {workload}: end-to-end ({} reps) ==", self.reps);
        for (name, m) in &self.metrics {
            let note = match (*name, m.samples) {
                ("batch_p99_ms", n) if self.beyond_p99 < BEYOND => {
                    format!("{n} batches, only {} beyond: unsupported", self.beyond_p99)
                }
                ("batch_p99_ms", n) => format!("{n} batches, {} beyond", self.beyond_p99),
                (_, 0) => "exact".to_string(),
                ("setup_s", n) => format!("{n} samples"),
                ("peak_rss_mb", _) => "after the first rep".to_string(),
                (_, n) => format!("{n} samples, each the fastest of {} reps", self.reps),
            };
            println!("  {name:<18} {:>16.4} {:<6} ({note})", m.value, m.unit);
        }
        println!(
            "  {:<18} {:>16} {:<6} (of {} ops_attempted)",
            "failed_ops",
            self.failed(),
            "count",
            self.attempted
        );
        println!("  stream_fnv         {:#018x}", self.stream_fnv);
        for line in self.failures.iter().take(8) {
            println!("  FAILED: {line}");
        }
    }

    /// This workload's entry of a result file.
    pub fn to_json(&self) -> Json {
        Json::obj([
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, m)| {
                    (
                        *name,
                        Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.to_string())),
                            ("samples", Json::Num(m.samples as f64)),
                            (
                                "leave_one_out",
                                Json::Arr(m.leave_one_out.iter().map(|&v| Json::Num(v)).collect()),
                            ),
                        ]),
                    )
                })),
            ),
            (
                "exact",
                Json::obj(self.exact.iter().map(|(k, &v)| (*k, Json::Num(v as f64)))),
            ),
            (
                "stream_fnv",
                Json::Str(format!("{:#018x}", self.stream_fnv)),
            ),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed() as f64)),
            ("reps", Json::Num(self.reps as f64)),
        ])
    }
}

/// `VmHWM` of this process, in MiB (0 where `/proc` has none).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where checkpoints and result files go: `out/` beside the
/// benchmark's manifest, inside the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs whole reps of `shape` until `seconds` have passed, and never
/// fewer than three (the per-operation minima need them). `pinned`
/// is the checksum the stream must have, where one is on record.
pub fn measure(
    shape: &Shape,
    seed: u64,
    seconds: f64,
    pinned: Option<u64>,
) -> Result<Summary, String> {
    let scratch = out_dir()?;
    let begun = Instant::now();
    let mut reps = Vec::new();
    // Peak memory is read after the first rep: how many more follow
    // depends on the host's speed, and must not show in the number.
    let mut peak = 0.0;
    while reps.len() < 3 || begun.elapsed().as_secs_f64() < seconds {
        reps.push(rep(shape, seed, WORKERS, &scratch, None));
        if reps.len() == 1 {
            peak = peak_rss_mb();
        }
    }
    let mut summary = summarize(&reps, peak);
    if let Some(pinned) = pinned {
        summary.attempted += 1;
        if summary.stream_fnv != pinned {
            summary.failures.push(format!(
                "the frozen stream moved: checksum {:#018x}, pinned {pinned:#018x}",
                summary.stream_fnv
            ));
        }
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{shape, Workload};

    /// Tests run on parallel threads of one process: each gets its
    /// own checkpoint directory.
    fn scratch(test: &str) -> PathBuf {
        let dir = out_dir().expect("out dir").join(test);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn every_smoke_workload_runs_clean_and_repeats_exactly() {
        let scratch = scratch("test-smoke");
        for w in Workload::ALL {
            let s = shape(w, true);
            let a = rep(&s, 0xB11, WORKERS, &scratch, None);
            let b = rep(&s, 0xB11, WORKERS, &scratch, None);
            assert!(
                a.ops.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                a.ops.failures
            );
            assert_eq!(a.exact, b.exact, "{}", w.name());
            assert_eq!(a.batch_ms.len(), s.spec.batches);
            assert_eq!(a.checkpoint_s.len(), s.spec.batches / s.cycle_every);
            assert_eq!(a.query_round_ms.len(), s.spec.batches / s.query_every);
            let summary = summarize(&[a, b], 1.0);
            assert_eq!(summary.failed(), 0, "{:?}", summary.failures);
            assert_eq!(summary.metrics.len(), 13);
        }
    }

    #[test]
    fn a_second_seed_runs_clean_on_another_stream() {
        let scratch = scratch("test-seed");
        let s = shape(Workload::Fanout, true);
        let a = rep(&s, 0xB11, WORKERS, &scratch, None);
        let b = rep(&s, 0xB12, WORKERS, &scratch, None);
        assert!(b.ops.failures.is_empty(), "{:?}", b.ops.failures);
        assert_ne!(a.stream_fnv, b.stream_fnv);
    }

    #[test]
    fn differing_counts_between_reps_are_a_failed_operation() {
        let a = Rep {
            batch_ms: vec![1.0; 4],
            exact: BTreeMap::from([("updates", 8), ("batches", 4), ("rounds", 8), ("words", 8)]),
            ..Rep::default()
        };
        let mut b = a.clone();
        b.exact.insert("rounds", 9);
        let s = summarize(&[a, b], 1.0);
        assert!(s.failures.iter().any(|f| f.contains("differ between reps")));
    }

    #[test]
    fn failures_and_errors_are_counted_against_attempts() {
        let mut ops = Ops::default();
        assert_eq!(ops.attempt("ok", Ok::<_, String>(3)), Some(3));
        assert_eq!(ops.attempt::<u8, _>("bad", Err("boom")), None);
        ops.verify(true, || unreachable!());
        ops.verify(false, || "mismatch".to_string());
        assert_eq!(ops.attempted, 4);
        assert_eq!(ops.failures, ["bad: boom", "mismatch"]);
    }
}
