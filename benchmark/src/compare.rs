//! `compare a b`: judge result set `b` (the change) against result
//! set `a` (the parent), one row per metric × workload.
//!
//! Directions and bounds come from `BENCHMARK.json` — one source of
//! truth. A row is `worse` when `b` is worse than `a` by more than
//! the metric's bound; `unresolved` when it is not, but the spread
//! between either side's own reps is wider than the bound (so "no
//! regression" is not shown either), unless every rep of `b` reads
//! better than every rep of `a`; `ok` otherwise. The deterministic
//! counts are compared for equality and reported beside the rows.

use crate::json::Json;
use std::path::Path;
use std::process::ExitCode;

/// One `end_to_end` entry of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    /// Metric name.
    pub name: String,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// Share of `a`'s value by which `b` may be worse.
    pub bound: f64,
}

/// A row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, and the runs resolve it.
    Ok,
    /// Worse than the parent by more than the bound.
    Worse,
    /// Within the bound, but the run-to-run spread exceeds it.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Reads the `end_to_end` bounds out of a parsed `BENCHMARK.json`.
pub fn bounds_of(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let better = entry.get("better").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(name), Some(better @ ("higher" | "lower")), Some(bound)) => Ok(Bound {
                    name: name.to_string(),
                    higher_is_better: better == "higher",
                    bound,
                }),
                _ => Err(format!("malformed end_to_end entry: {}", entry.render())),
            }
        })
        .collect()
}

/// By how much `b` is worse than `a`, as a share of `a` (negative
/// when it is better).
pub fn worsening(a: f64, b: f64, higher_is_better: bool) -> f64 {
    let delta = if higher_is_better { a - b } else { b - a };
    delta / a.abs()
}

/// Range of a side's own reps as a share of their middle: the
/// run-to-run spread a single result file can show.
fn spread(leave_one_out: &[f64]) -> f64 {
    let lo = leave_one_out.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = leave_one_out
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    match crate::stats::median(leave_one_out) {
        Some(mid) if mid != 0.0 => (hi - lo) / mid.abs(),
        _ => 0.0,
    }
}

/// The verdict for one metric on one workload. `reps_*` are each
/// side's per-rep values (empty for counts).
pub fn judge(bound: &Bound, a: f64, b: f64, reps_a: &[f64], reps_b: &[f64]) -> Verdict {
    if worsening(a, b, bound.higher_is_better) > bound.bound {
        return Verdict::Worse;
    }
    if spread(reps_a).max(spread(reps_b)) <= bound.bound {
        return Verdict::Ok;
    }
    let clearly_better = !reps_a.is_empty()
        && reps_b.iter().all(|&y| {
            reps_a
                .iter()
                .all(|&x| worsening(x, y, bound.higher_is_better) < 0.0)
        });
    if clearly_better {
        Verdict::Ok
    } else {
        Verdict::Unresolved
    }
}

fn numbers(list: Option<&Json>) -> Vec<f64> {
    list.and_then(Json::as_arr)
        .map(|items| items.iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

/// The outcome of comparing two result sets.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Comparison {
    /// The printed rows.
    pub rows: Vec<String>,
    /// Rows judged `worse`.
    pub worse: usize,
    /// Rows judged `unresolved`.
    pub unresolved: usize,
    /// Deterministic counts (and stream checksums) that differ.
    pub counts_changed: usize,
}

/// Compares every workload the two sets share.
pub fn compare_sets(bounds: &[Bound], a: &Json, b: &Json) -> Result<Comparison, String> {
    let workloads = |set: &Json| {
        set.get("workloads")
            .and_then(Json::as_obj)
            .cloned()
            .ok_or("a result file has no workloads object")
    };
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let same_inputs = a.get("seed") == b.get("seed") && a.get("smoke") == b.get("smoke");
    let mut out = Comparison::default();
    out.rows.push(format!(
        "{:<8} {:<18} {:>16} {:>16} {:>9} {:>7}  verdict",
        "workload", "metric", "a", "b", "change", "bound"
    ));
    for (workload, entry_a) in &in_a {
        let Some(entry_b) = in_b.get(workload) else {
            continue;
        };
        for bound in bounds {
            let metric = |entry: &Json| {
                entry
                    .get("metrics")
                    .and_then(|m| m.get(&bound.name))
                    .cloned()
            };
            let (Some(ma), Some(mb)) = (metric(entry_a), metric(entry_b)) else {
                return Err(format!("{workload}: metric {} is missing", bound.name));
            };
            let value = |m: &Json| m.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(&ma), value(&mb)) else {
                return Err(format!("{workload}: metric {} has no value", bound.name));
            };
            let verdict = judge(
                bound,
                va,
                vb,
                &numbers(ma.get("leave_one_out")),
                &numbers(mb.get("leave_one_out")),
            );
            out.worse += usize::from(verdict == Verdict::Worse);
            out.unresolved += usize::from(verdict == Verdict::Unresolved);
            out.rows.push(format!(
                "{workload:<8} {:<18} {va:>16.4} {vb:>16.4} {:>+8.2}% {:>6.0}%  {}",
                bound.name,
                100.0 * worsening(va, vb, bound.higher_is_better),
                100.0 * bound.bound,
                verdict.label()
            ));
        }
        if same_inputs {
            for key in ["exact", "stream_fnv", "failed"] {
                if entry_a.get(key) != entry_b.get(key) {
                    out.counts_changed += 1;
                    out.rows.push(format!(
                        "{workload:<8} {key}: {} -> {}",
                        entry_a.get(key).map_or_else(|| "none".into(), Json::render),
                        entry_b.get(key).map_or_else(|| "none".into(), Json::render),
                    ));
                }
            }
        }
    }
    out.rows.push(if same_inputs {
        format!(
            "deterministic counts: {}",
            match out.counts_changed {
                0 => "identical".to_string(),
                n => format!("{n} differ"),
            }
        )
    } else {
        "deterministic counts: not compared (different seed or sizes)".to_string()
    });
    out.rows.push(format!(
        "{} worse, {} unresolved (change > 0 means b is worse)",
        out.worse, out.unresolved
    ));
    Ok(out)
}

fn read_json(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The repository's `BENCHMARK.json`, beside this package's directory.
pub fn benchmark_json() -> Result<Json, String> {
    read_json(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"))
}

/// The `compare` subcommand: prints the rows, fails on any `worse`.
pub fn run(a: &Path, b: &Path) -> Result<ExitCode, String> {
    let bounds = bounds_of(&benchmark_json()?)?;
    let outcome = compare_sets(&bounds, &read_json(a)?, &read_json(b)?)?;
    for row in &outcome.rows {
        println!("{row}");
    }
    Ok(if outcome.worse == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bound(higher_is_better: bool, bound: f64) -> Bound {
        Bound {
            name: "m".to_string(),
            higher_is_better,
            bound,
        }
    }

    #[test]
    fn direction_decides_what_worse_means() {
        // Throughput: lower is worse. Latency: higher is worse.
        assert_eq!(worsening(100.0, 80.0, true), 0.2);
        assert_eq!(worsening(100.0, 120.0, true), -0.2);
        assert_eq!(worsening(100.0, 120.0, false), 0.2);
        assert_eq!(worsening(100.0, 80.0, false), -0.2);
    }

    #[test]
    fn the_bound_is_a_share_of_the_parent() {
        let rate = bound(true, 0.10);
        assert_eq!(judge(&rate, 100.0, 91.0, &[], &[]), Verdict::Ok);
        assert_eq!(judge(&rate, 100.0, 89.0, &[], &[]), Verdict::Worse);
        assert_eq!(judge(&rate, 100.0, 150.0, &[], &[]), Verdict::Ok);
        let latency = bound(false, 0.10);
        assert_eq!(judge(&latency, 10.0, 10.9, &[], &[]), Verdict::Ok);
        assert_eq!(judge(&latency, 10.0, 11.1, &[], &[]), Verdict::Worse);
        // An exact metric (bound 0) tolerates nothing.
        let exact = bound(false, 0.0);
        assert_eq!(judge(&exact, 10.0, 10.0, &[], &[]), Verdict::Ok);
        assert_eq!(judge(&exact, 10.0, 10.5, &[], &[]), Verdict::Worse);
    }

    #[test]
    fn a_spread_wider_than_the_bound_leaves_the_row_unresolved() {
        let latency = bound(false, 0.10);
        let noisy = [8.0, 10.0, 12.0];
        assert_eq!(
            judge(&latency, 10.0, 10.2, &noisy, &[10.1, 10.2, 10.3]),
            Verdict::Unresolved
        );
        // …unless every rep of the change beats every rep of the parent.
        assert_eq!(
            judge(&latency, 10.0, 7.0, &noisy, &[6.9, 7.0, 7.1]),
            Verdict::Ok
        );
        let steady = [9.9, 10.0, 10.1];
        assert_eq!(judge(&latency, 10.0, 10.2, &steady, &steady), Verdict::Ok);
        // Noise never excuses a regression beyond the bound.
        assert_eq!(judge(&latency, 10.0, 12.0, &noisy, &noisy), Verdict::Worse);
    }

    fn set(seed: f64, value: f64, rounds: f64) -> Json {
        let text = format!(
            r#"{{"seed": {seed}, "smoke": false, "workloads": {{"grow": {{
                "metrics": {{"updates_per_s": {{"value": {value}, "leave_one_out": [{value}]}}}},
                "exact": {{"rounds": {rounds}}}, "stream_fnv": "0x1", "failed": 0}}}}}}"#
        );
        Json::parse(&text).expect("valid")
    }

    #[test]
    fn sets_are_compared_row_by_row_with_counts_beside_them() {
        let benchmark = Json::parse(
            r#"{"end_to_end": [{"name": "updates_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}]}"#,
        )
        .expect("valid");
        let bounds = bounds_of(&benchmark).expect("well-formed");
        let same = compare_sets(&bounds, &set(1.0, 100.0, 7.0), &set(1.0, 99.0, 7.0)).expect("ok");
        assert_eq!(
            (same.worse, same.unresolved, same.counts_changed),
            (0, 0, 0)
        );
        let slower =
            compare_sets(&bounds, &set(1.0, 100.0, 7.0), &set(1.0, 80.0, 8.0)).expect("ok");
        assert_eq!((slower.worse, slower.counts_changed), (1, 1));
        // Another seed is another stream: counts are not comparable.
        let reseeded =
            compare_sets(&bounds, &set(1.0, 100.0, 7.0), &set(2.0, 100.0, 8.0)).expect("ok");
        assert_eq!(reseeded.counts_changed, 0);
        assert!(
            bounds_of(&Json::parse(r#"{"end_to_end": [{"name": "x"}]}"#).expect("valid")).is_err()
        );
    }

    #[test]
    fn the_repository_file_names_exactly_what_the_benchmark_reports() {
        use crate::workloads::{shape, Workload};
        let benchmark = benchmark_json().expect("BENCHMARK.json beside benchmark/");
        let listed = |key: &str, field: &str| -> Vec<(String, String)> {
            let mut names: Vec<(String, String)> = benchmark
                .get(key)
                .and_then(Json::as_arr)
                .expect("a list")
                .iter()
                .map(|e| {
                    let text = |f: &str| e.get(f).and_then(Json::as_str).expect("a string");
                    (text("name").to_string(), text(field).to_string())
                })
                .collect();
            names.sort();
            names
        };
        let scratch = crate::run::out_dir().expect("out dir").join("test-compare");
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let s = shape(Workload::Durable, true);

        let rep = crate::run::rep(&s, 0xB11, crate::workloads::WORKERS, &scratch, None);
        let reported: Vec<(String, String)> = crate::run::summarize(&[rep], 1.0)
            .metrics
            .iter()
            .map(|(name, m)| (name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(listed("end_to_end", "unit"), reported);
        for bound in bounds_of(&benchmark).expect("well-formed") {
            assert!((0.0..=0.25).contains(&bound.bound), "{bound:?}");
        }

        let traced = crate::trace::measure("test-compare", &s, 0xB11, 0.0).expect("traced run");
        let reported: Vec<(String, String)> = traced
            .values
            .keys()
            .map(|name| (name.clone(), crate::trace::unit_of(name).to_string()))
            .collect();
        assert_eq!(listed("per_layer", "unit"), reported);

        let names: Vec<String> = listed("workloads", "name")
            .into_iter()
            .map(|w| w.0)
            .collect();
        let mut ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        ours.sort_unstable();
        assert_eq!(names, ours);
    }
}
