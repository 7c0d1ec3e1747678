//! The traced run: per-layer metrics from spans around the calls into
//! each layer's public functions.
//!
//! End-to-end numbers are measured with tracing off (`run`). This is
//! the separate run that says where the time goes. Its passes run
//! **one after another**, never in lockstep with each other or with
//! an end-to-end rep — twins sharing the cache inflate each other:
//!
//! 1. the *session pass*: a rep with a span around every `Session`
//!    call, plus the `snapshot` layer's encode-only and read-verify
//!    probes at each cycle;
//! 2. an untraced rep (what `trace.overhead_pct` compares it with);
//! 3. the *connectivity pass*: a bare `Connectivity` twin (same `n`,
//!    copies and seed, so bit-identical state) on a forked
//!    `MpcContext`, whose per-batch event log is replayed onto a
//!    second context (`mpc-sim`), and whose forest delta is recorded
//!    outside the spans;
//! 4. the *layers pass*: `SketchBank` and `DistEtf` twins fed that
//!    delta — sketch updates, the hashing they contain, ETF joins and
//!    splits, and one cascade level of column merges per split;
//! 5. on `fanout`, one *branch pass* per companion maintainer and one
//!    more rep on a two-lane pool, for the pool speed-up.
//!
//! A layer that is not on a workload's path reports 0.

use crate::gen::{generate, Stream};
use crate::json::Json;
use crate::run::{out_dir, rep, Ops, Rep, QUERY_ROUND};
use crate::span::{timed, Tracer};
use crate::stats::median;
use crate::workloads::{self, Shape, BURST, COPIES, FANOUT_NAMES, POOL_WORKERS, WORKERS};
use mpc_stream::etf::DistEtf;
use mpc_stream::graph::oracle::{self, UnionFind};
use mpc_stream::prelude::{Batch, Connectivity, Edge, Maintain, MpcContext, VertexId};
use mpc_stream::sketch::vertex::EdgeSample;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// What one batch did to the spanning forest, as the connectivity
/// pass observed it.
#[derive(Debug, Clone, Default, PartialEq)]
struct ForestDelta {
    /// `F_H`: the inserted edges that joined two components.
    joined: Vec<Edge>,
    /// Deleted edges that were forest edges.
    split: Vec<Edge>,
    /// Replacement edges the cascade found.
    replaced: Vec<Edge>,
}

/// The per-layer numbers of one pass set, by metric name.
type Values = BTreeMap<String, f64>;

fn put<const N: usize>(values: &mut Values, named: [(&str, f64); N]) {
    values.extend(named.map(|(name, value)| (name.to_string(), value)));
}

/// The batches as each maintainer's `ingest` sees them.
fn unweighted(stream: &Stream) -> Vec<Batch> {
    stream.batches.iter().map(|b| b.unweighted()).collect()
}

/// `F_H` of one batch: a spanning forest of the inserted edges over
/// the pre-batch component labels, built the way
/// `Connectivity::insert_edges` builds it.
fn spanning_joins(labels: &[VertexId], inserted: &[Edge]) -> Vec<Edge> {
    let mut index: BTreeMap<VertexId, u32> = BTreeMap::new();
    for e in inserted {
        for c in [labels[e.u() as usize], labels[e.v() as usize]] {
            let next = index.len() as u32;
            index.entry(c).or_insert(next);
        }
    }
    let mut uf = UnionFind::new(index.len());
    inserted
        .iter()
        .copied()
        .filter(|e| {
            let a = index[&labels[e.u() as usize]];
            let b = index[&labels[e.v() as usize]];
            a != b && uf.union(a, b)
        })
        .collect()
}

fn sorted_forest(conn: &Connectivity) -> Vec<Edge> {
    let mut forest: Vec<Edge> = conn.etf().forest_edges().collect();
    forest.sort_unstable();
    forest
}

/// Pass 3. Returns each batch's forest delta and the twin's final
/// forest.
fn connectivity_pass(
    shape: &Shape,
    stream: &Stream,
    tracer: &mut Tracer,
    ops: &mut Ops,
    values: &mut Values,
) -> (Vec<ForestDelta>, Vec<Edge>) {
    let mut conn = workloads::connectivity(shape);
    let mut master = MpcContext::new(workloads::cluster(shape));
    let mut accounting = MpcContext::new(workloads::cluster(shape));
    let plain = unweighted(stream);
    let mut deltas = Vec::with_capacity(plain.len());
    let mut forest = sorted_forest(&conn);
    let mut events = 0usize;
    for (k, batch) in plain.iter().enumerate() {
        let trace = k as u64;
        let root = tracer.enter("pass.connectivity", trace);
        let inserted: Vec<Edge> = batch.insertions().collect();
        let mut delta = ForestDelta {
            joined: spanning_joins(conn.component_labels(), &inserted),
            // An edge is toggled at most once per batch, so a deleted
            // edge's forest membership cannot change before its turn.
            split: batch
                .deletions()
                .filter(|&e| conn.etf().contains_edge(e))
                .collect(),
            replaced: Vec::new(),
        };
        let mut fork = master.fork_for_branch();
        let mut traced = Some(&mut *tracer);
        let (result, _) = timed(&mut traced, "connectivity.apply", trace, || {
            if shape.fanout {
                conn.ingest_weighted(&stream.batches[k], &mut fork)
            } else {
                conn.ingest(batch, &mut fork)
            }
        });
        ops.attempt("connectivity twin apply", result);
        let log = fork.take_log();
        events += log.len();
        let (result, _) = timed(&mut traced, "mpc-sim.replay", trace, || master.replay(&log));
        ops.attempt("replay", result);
        let (result, _) = timed(&mut traced, "connectivity.account", trace, || {
            conn.account(&mut accounting)
        });
        ops.attempt("account", result);

        let after = sorted_forest(&conn);
        if !delta.split.is_empty() {
            delta.replaced = after
                .iter()
                .copied()
                .filter(|e| forest.binary_search(e).is_err() && !delta.joined.contains(e))
                .collect();
        }
        forest = after;
        deltas.push(delta);
        tracer.exit(root);
    }
    let expected = oracle::component_count(shape.spec.n, stream.live.iter().map(|we| we.edge));
    ops.verify(conn.component_count() == expected, || {
        format!(
            "connectivity twin counts {} components, oracle says {expected}",
            conn.component_count()
        )
    });
    let count = |f: &dyn Fn(&ForestDelta) -> usize| deltas.iter().map(f).sum::<usize>() as f64;
    put(
        values,
        [
            ("connectivity.apply_s", tracer.total_s("connectivity.apply")),
            (
                "connectivity.account_s",
                tracer.total_s("connectivity.account"),
            ),
            ("connectivity.tree_inserts", count(&|d| d.joined.len())),
            ("connectivity.tree_deletes", count(&|d| d.split.len())),
            ("connectivity.replacements", count(&|d| d.replaced.len())),
            (
                "connectivity.cascade_batches",
                count(&|d| usize::from(!d.split.is_empty())),
            ),
            ("mpc-sim.replay_s", tracer.total_s("mpc-sim.replay")),
            ("mpc-sim.events", events as f64),
        ],
    );
    (deltas, forest)
}

/// Whether `edges` can be handed to `DistEtf::batch_join`: each joins
/// two distinct tours and no subset closes a cycle. The call panics
/// otherwise, and a diverged twin must be a failed operation instead.
fn joinable(etf: &DistEtf, edges: &[Edge]) -> bool {
    let mut index: BTreeMap<u64, u32> = BTreeMap::new();
    for e in edges {
        for t in [etf.tour_of(e.u()), etf.tour_of(e.v())] {
            let next = index.len() as u32;
            index.entry(t).or_insert(next);
        }
    }
    let mut uf = UnionFind::new(index.len());
    edges
        .iter()
        .all(|e| uf.union(index[&etf.tour_of(e.u())], index[&etf.tour_of(e.v())]))
}

/// Pass 4: the `sketch`, `hashing` and `etf` layers on twins fed the
/// recorded forest delta.
fn layers_pass(
    shape: &Shape,
    stream: &Stream,
    deltas: &[ForestDelta],
    engine_forest: &[Edge],
    tracer: &mut Tracer,
    ops: &mut Ops,
    values: &mut Values,
) {
    let n = shape.spec.n;
    // Same n, copies and seed as `workloads::connectivity`'s bank.
    let mut bank = workloads::connectivity_bank(shape);
    let mut etf = DistEtf::new(n);
    let mut ctx = MpcContext::new(workloads::cluster(shape));
    let mut scratch = bank.new_scratch();
    let (mut merged_columns, mut samples, mut sample_fails) = (0usize, 0usize, 0usize);
    let (mut joined_edges, mut split_edges) = (0usize, 0usize);
    for (k, (batch, delta)) in unweighted(stream).iter().zip(deltas).enumerate() {
        let trace = k as u64;
        let root = tracer.enter("pass.layers", trace);
        let mut traced = Some(&mut *tracer);
        timed(&mut traced, "sketch.update", trace, || {
            for u in batch.iter() {
                if u.is_insert() {
                    bank.insert_edge(u.edge());
                } else {
                    bank.delete_edge(u.edge());
                }
            }
        });
        // The hashing inside those updates, on its own: one level
        // hash and one fingerprint term per (update, copy).
        timed(&mut traced, "hashing.eval", trace, || {
            for u in batch.iter() {
                let index = u.edge().index(n);
                for copy in 0..COPIES {
                    let family = bank.arena().family(copy);
                    black_box(family.level_of(black_box(index)));
                    black_box(family.term(black_box(index)));
                }
            }
        });
        let legal =
            joinable(&etf, &delta.joined) && delta.split.iter().all(|&e| etf.contains_edge(e));
        ops.verify(legal, || {
            format!("batch {k}: the ETF twin left the engine's forest")
        });
        if !legal {
            tracer.exit(root);
            return;
        }
        timed(&mut traced, "etf.join", trace, || {
            etf.batch_join(&delta.joined, &mut ctx)
        });
        joined_edges += delta.joined.len();
        if !delta.split.is_empty() {
            let (pieces, _) = timed(&mut traced, "etf.split", trace, || {
                etf.batch_split(&delta.split, &mut ctx)
            });
            split_edges += delta.split.len();
            // One cascade level: every piece's columns merged at copy
            // 0 and sampled once, as `find_replacements` opens.
            timed(&mut traced, "sketch.merge", trace, || {
                for &piece in &pieces {
                    scratch.reset(0);
                    merged_columns += bank.merge_copy_into(etf.tour_members(piece), &mut scratch);
                    samples += 1;
                    sample_fails += usize::from(bank.sample_merged(&scratch) == EdgeSample::Fail);
                }
            });
            let legal = joinable(&etf, &delta.replaced);
            ops.verify(legal, || {
                format!("batch {k}: replacement edges do not fit the ETF twin")
            });
            if !legal {
                tracer.exit(root);
                return;
            }
            timed(&mut traced, "etf.join", trace, || {
                etf.batch_join(&delta.replaced, &mut ctx)
            });
            joined_edges += delta.replaced.len();
        }
        tracer.exit(root);
    }
    let mut forest: Vec<Edge> = etf.forest_edges().collect();
    forest.sort_unstable();
    ops.verify(forest == engine_forest, || {
        "the ETF twin's final forest differs from the engine's".to_string()
    });
    let updates = stream.updates as f64;
    put(
        values,
        [
            ("sketch.update_s", tracer.total_s("sketch.update")),
            ("sketch.updates", updates),
            ("sketch.merge_s", tracer.total_s("sketch.merge")),
            ("sketch.merged_columns", merged_columns as f64),
            ("sketch.samples", samples as f64),
            (
                "sketch.sample_fail_ratio",
                if samples == 0 {
                    0.0
                } else {
                    sample_fails as f64 / samples as f64
                },
            ),
            ("hashing.eval_s", tracer.total_s("hashing.eval")),
            ("hashing.evals", updates * COPIES as f64),
            ("etf.join_s", tracer.total_s("etf.join")),
            ("etf.joined_edges", joined_edges as f64),
            ("etf.split_s", tracer.total_s("etf.split")),
            ("etf.split_edges", split_edges as f64),
            ("etf.tours", etf.tours().count() as f64),
            (
                "etf.max_tour_len",
                etf.tours().map(|t| etf.tour_len(t)).max().unwrap_or(0) as f64,
            ),
        ],
    );
}

/// Pass 5: one companion maintainer alone on a bare context.
fn branch_pass(
    shape: &Shape,
    stream: &Stream,
    mut maintainer: Box<dyn Maintain>,
    tracer: &mut Tracer,
    ops: &mut Ops,
) -> f64 {
    let span = format!("branch.{}.apply", maintainer.name());
    let master = MpcContext::new(workloads::cluster(shape));
    for (k, batch) in stream.batches.iter().enumerate() {
        let mut fork = master.fork_for_branch();
        let (result, _) = timed(&mut Some(&mut *tracer), &span, k as u64, || {
            maintainer.ingest_weighted(batch, &mut fork)
        });
        ops.attempt(&span, result);
    }
    tracer.total_s(&span)
}

fn busy_s(rep: &Rep) -> f64 {
    rep.batch_ms.iter().sum::<f64>() / 1e3
}

/// One complete set of passes. Returns the per-layer values, the
/// operations it attempted, and the spans.
fn pass_set(shape: &Shape, seed: u64, scratch: &Path) -> (Values, Ops, Tracer) {
    let mut values = Values::new();
    let mut ops = Ops::default();
    let mut tracer = Tracer::start();
    let traced = rep(shape, seed, WORKERS, scratch, Some(&mut tracer));
    ops.absorb(&traced.ops);
    let untraced = rep(shape, seed, WORKERS, scratch, None);
    ops.absorb(&untraced.ops);
    ops.verify(traced.exact == untraced.exact, || {
        "the traced rep's counts differ from the untraced rep's".to_string()
    });
    let exact = |key: &str| traced.exact.get(key).copied().unwrap_or(0) as f64;
    let apply_s = tracer.total_s("session.apply");
    let rounds = traced.query_round_ms.len() as f64;
    let encode_s = tracer.total_s("snapshot.encode");
    let read_verify_s = tracer.total_s("snapshot.read_verify");
    put(
        &mut values,
        [
            ("session.apply_s", apply_s),
            ("session.chunks", exact("batches")),
            (
                "session.ask_s",
                tracer.total_s("session.query_round") - tracer.self_s("session.query_round"),
            ),
            ("session.asks", rounds * (QUERY_ROUND.len() + BURST) as f64),
            (
                "trace.overhead_pct",
                100.0 * (apply_s - busy_s(&untraced)) / busy_s(&untraced),
            ),
            ("sketch.l0_failures", exact("l0_failures")),
            ("snapshot.encode_s", encode_s),
            (
                "snapshot.write_s",
                tracer.total_s("session.checkpoint") - encode_s,
            ),
            ("snapshot.read_verify_s", read_verify_s),
            (
                "snapshot.decode_s",
                tracer.total_s("session.restore") - read_verify_s,
            ),
            (
                "snapshot.bytes_per_state_byte",
                exact("snapshot_bytes") / (8.0 * exact("state_words")),
            ),
        ],
    );
    for (_, span) in &QUERY_ROUND {
        values.insert(
            format!("{span}.ms"),
            median(&tracer.each_ms(span)).unwrap_or(0.0),
        );
    }

    let stream = generate(&shape.spec, seed);
    let (deltas, forest) = connectivity_pass(shape, &stream, &mut tracer, &mut ops, &mut values);
    layers_pass(
        shape,
        &stream,
        &deltas,
        &forest,
        &mut tracer,
        &mut ops,
        &mut values,
    );

    let mut branches: BTreeMap<&str, f64> = FANOUT_NAMES.iter().map(|&name| (name, 0.0)).collect();
    branches.insert("connectivity", values["connectivity.apply_s"]);
    let mut pool_speedup = 0.0;
    if shape.fanout {
        for maintainer in workloads::companions(shape) {
            let name = maintainer.name();
            let busy = branch_pass(shape, &stream, maintainer, &mut tracer, &mut ops);
            branches.insert(name, busy);
        }
        let pooled = rep(shape, seed, POOL_WORKERS, scratch, None);
        ops.absorb(&pooled.ops);
        ops.verify(pooled.exact == untraced.exact, || {
            "counts at two workers differ from counts at one".to_string()
        });
        pool_speedup = busy_s(&untraced) / busy_s(&pooled);
    }
    let branch_sum: f64 = branches.values().sum();
    let branch_max = branches.values().copied().fold(0.0, f64::max);
    for (name, busy) in &branches {
        values.insert(format!("branch.{name}.apply_s"), *busy);
    }
    let layers: f64 = [
        "connectivity.account_s",
        "sketch.update_s",
        "sketch.merge_s",
        "etf.join_s",
        "etf.split_s",
        "mpc-sim.replay_s",
    ]
    .iter()
    .map(|key| values[*key])
    .sum();
    let residual_s = values["connectivity.apply_s"] - layers;
    put(
        &mut values,
        [
            ("branch.max_share", branch_max / branch_sum),
            ("mpc-sim.pool_speedup", pool_speedup),
            ("session.self_s", apply_s - branch_sum),
            ("connectivity.residual_s", residual_s),
        ],
    );
    (values, ops, tracer)
}

/// The unit a per-layer metric is reported in, from its name.
pub fn unit_of(name: &str) -> &'static str {
    match name {
        n if n.ends_with("_s") => "s",
        n if n.ends_with(".ms") => "ms",
        n if n.ends_with("_pct") => "%",
        n if n.ends_with("_ratio") || n.ends_with("_share") || n.ends_with("_speedup") => "ratio",
        "snapshot.bytes_per_state_byte" => "ratio",
        _ => "count",
    }
}

/// The traced run's result.
#[derive(Debug, Clone)]
pub struct Report {
    /// Per-layer metrics by name (median over the pass sets).
    pub values: Values,
    /// Operations attempted over all sets.
    pub attempted: u64,
    /// Failure lines.
    pub failures: Vec<String>,
    /// Pass sets run.
    pub sets: usize,
    /// Where the spans of the last set were written.
    pub span_file: std::path::PathBuf,
    /// Spans in that file.
    pub spans: usize,
}

impl Report {
    /// Failed operations.
    pub fn failed(&self) -> u64 {
        self.failures.len() as u64
    }

    /// The `metrics` object of the result line.
    pub fn metrics_json(&self) -> Json {
        Json::obj(
            self.values
                .iter()
                .map(|(name, &value)| (name.clone(), Json::quantity(value, unit_of(name)))),
        )
    }

    /// The human-readable report; times also as a share of
    /// `session.apply_s`.
    pub fn print(&self, workload: &str, nproc: usize) {
        println!("== {workload}: per-layer ({} pass sets) ==", self.sets);
        let whole = self.values.get("session.apply_s").copied().unwrap_or(0.0);
        for (name, value) in &self.values {
            let unit = unit_of(name);
            let share = if unit == "s" && whole > 0.0 && !name.starts_with("snapshot.") {
                format!("{:6.1}% of session.apply_s", 100.0 * value / whole)
            } else {
                String::new()
            };
            println!("  {name:<34} {value:>16.4} {unit:<6} {share}");
        }
        let oversubscribed = if nproc < POOL_WORKERS {
            " — fewer cores than workers: oversubscribed, no speed-up is asserted"
        } else {
            ""
        };
        println!("  nproc = {nproc}{oversubscribed}");
        println!(
            "  failed_ops = {} of {} ops_attempted",
            self.failed(),
            self.attempted
        );
        println!(
            "  {} spans written to {}",
            self.spans,
            self.span_file.display()
        );
        for line in self.failures.iter().take(8) {
            println!("  FAILED: {line}");
        }
    }
}

/// Runs whole pass sets until `seconds` have passed (at least one),
/// reports the median of each metric over the sets, and writes the
/// last set's spans to `out/trace-<workload>.json`.
pub fn measure(workload: &str, shape: &Shape, seed: u64, seconds: f64) -> Result<Report, String> {
    let scratch = out_dir()?;
    let begun = Instant::now();
    let mut sets: Vec<Values> = Vec::new();
    let mut ops = Ops::default();
    let mut last = Tracer::start();
    // The first rep of a process grows the heap every later pass
    // reuses; run it before anything that is compared.
    let warm_up = rep(shape, seed, WORKERS, &scratch, None);
    ops.absorb(&warm_up.ops);
    while sets.is_empty() || begun.elapsed().as_secs_f64() < seconds {
        let (values, set_ops, tracer) = pass_set(shape, seed, &scratch);
        ops.absorb(&set_ops);
        sets.push(values);
        last = tracer;
    }
    let values: Values = sets[0]
        .keys()
        .map(|name| {
            let each: Vec<f64> = sets.iter().filter_map(|s| s.get(name).copied()).collect();
            (name.clone(), median(&each).unwrap_or(0.0))
        })
        .collect();
    let span_file = scratch.join(format!("trace-{workload}.json"));
    std::fs::write(&span_file, last.to_json().render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", span_file.display()))?;
    Ok(Report {
        values,
        attempted: ops.attempted,
        failures: ops.failures,
        sets: sets.len(),
        span_file,
        spans: last.spans().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{shape, Workload};

    #[test]
    fn f_h_is_a_spanning_forest_over_the_labels() {
        // Components {0,1}, {2}, {3}: (0,1) is internal, (1,2) and
        // (2,3) join, (0,3) would close the cycle.
        let labels = [0, 0, 2, 3];
        let inserted = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(2, 3),
            Edge::new(0, 3),
        ];
        assert_eq!(
            spanning_joins(&labels, &inserted),
            [Edge::new(1, 2), Edge::new(2, 3)]
        );
    }

    #[test]
    fn joinable_refuses_cycles_and_same_tour_edges() {
        let mut ctx = MpcContext::new(workloads::cluster(&shape(Workload::Churn, true)));
        let mut etf = DistEtf::new(4);
        assert!(joinable(&etf, &[Edge::new(0, 1), Edge::new(1, 2)]));
        assert!(!joinable(
            &etf,
            &[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]
        ));
        etf.batch_join(&[Edge::new(0, 1)], &mut ctx);
        assert!(!joinable(&etf, &[Edge::new(0, 1)]));
        assert!(joinable(&etf, &[Edge::new(1, 3)]));
    }

    #[test]
    fn units_follow_the_metric_names() {
        assert_eq!(unit_of("etf.join_s"), "s");
        assert_eq!(unit_of("query.is_bipartite.ms"), "ms");
        assert_eq!(unit_of("trace.overhead_pct"), "%");
        assert_eq!(unit_of("branch.max_share"), "ratio");
        assert_eq!(unit_of("mpc-sim.pool_speedup"), "ratio");
        assert_eq!(unit_of("sketch.sample_fail_ratio"), "ratio");
        assert_eq!(unit_of("snapshot.bytes_per_state_byte"), "ratio");
        assert_eq!(unit_of("etf.tours"), "count");
    }

    #[test]
    fn a_smoke_pass_set_keeps_the_twins_on_the_engine_and_names_every_layer() {
        let scratch = out_dir().expect("out dir").join("test-trace");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        for w in [Workload::Churn, Workload::Fanout] {
            let s = shape(w, true);
            let (values, ops, tracer) = pass_set(&s, 0xB11, &scratch);
            assert!(ops.failures.is_empty(), "{}: {:?}", w.name(), ops.failures);
            assert_eq!(values.len(), 50, "{:?}", values.keys());
            // Churn deletes forest edges, so every cascade counter moves.
            for key in [
                "connectivity.tree_deletes",
                "connectivity.replacements",
                "etf.split_edges",
                "sketch.merged_columns",
                "mpc-sim.events",
            ] {
                assert!(values[key] > 0.0, "{}: {key} = 0", w.name());
            }
            assert_eq!(
                values["etf.joined_edges"],
                values["connectivity.tree_inserts"] + values["connectivity.replacements"]
            );
            assert!(tracer.spans().iter().any(|s| s.parent.is_some()));
            assert_eq!(values["mpc-sim.pool_speedup"] > 0.0, s.fanout);
        }
    }
}
