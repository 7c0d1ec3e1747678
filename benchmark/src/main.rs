//! The engine benchmark. `BENCHMARK.json` at the repository root
//! names the workloads and metrics; README.md in this directory says
//! why each exists and how to run it.
//!
//! ```text
//! mpc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! mpc-benchmark run <workload>|all [--seed n] [--seconds s] [--smoke] [--out file]
//! mpc-benchmark trace <workload>   [--seed n] [--seconds s] [--smoke]
//! mpc-benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form is the one the driver calls; it is `run` (`--trace
//! 0`) or `trace` (`--trace 1`) of one workload. Every measuring form
//! prints its report and then, as the last line of standard output,
//! one JSON object `{correct, attempted, failed, metrics}`; it exits
//! non-zero when any operation failed.

#![forbid(unsafe_code)]

mod compare;
mod gen;
mod json;
mod rng;
mod run;
mod span;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Workload, DEFAULT_SEED};

/// What one invocation was asked to do.
#[derive(Debug, Clone, PartialEq)]
enum Command {
    /// End-to-end metrics of one workload, tracing off.
    Run(Workload),
    /// `Run` of all four, each in a process of its own.
    RunAll,
    /// Per-layer metrics of one workload from a traced run.
    Trace(Workload),
    /// Judge result file `b` against result file `a`.
    Compare(PathBuf, PathBuf),
}

/// The parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    command: Command,
    seed: u64,
    /// `None`: `run_seconds` of `BENCHMARK.json`.
    seconds: Option<f64>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut positional: Vec<&str> = Vec::new();
    let mut workload: Option<Workload> = None;
    let mut trace = false;
    let mut args = Args {
        command: Command::RunAll,
        seed: DEFAULT_SEED,
        seconds: None,
        smoke: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--seed" => {
                let v = value("--seed")?;
                args.seed = parse_u64(v).ok_or_else(|| format!("bad --seed {v}"))?;
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v}"))?;
                args.seconds = Some(seconds);
            }
            "--trace" => {
                trace = match value("--trace")? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                };
            }
            "--workload" => {
                let v = value("--workload")?;
                workload = Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v}"))?);
            }
            "--out" => args.out = Some(PathBuf::from(value("--out")?)),
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            word => positional.push(word),
        }
    }
    let named =
        |name: &str| Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"));
    args.command = match (positional.as_slice(), workload) {
        ([], Some(w)) if trace => Command::Trace(w),
        ([], Some(w)) => Command::Run(w),
        (["run", "all"], None) => Command::RunAll,
        (["run", name], None) => Command::Run(named(name)?),
        (["trace", name], None) => Command::Trace(named(name)?),
        (["compare", a, b], None) => Command::Compare(PathBuf::from(a), PathBuf::from(b)),
        _ => return Err("expected `--workload <name>`, `run <workload>|all`, `trace <workload>` or `compare <a> <b>`".to_string()),
    };
    Ok(args)
}

/// The host record stored with every result set.
fn host_record() -> Json {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "kernel",
            Json::Str(
                mpc_stream::sketch::KernelKind::selected()
                    .name()
                    .to_string(),
            ),
        ),
        ("workers", Json::Num(workloads::WORKERS as f64)),
        ("rustc", Json::Str(rustc)),
        ("scratch_fs", Json::Str(scratch_fs())),
        ("os", Json::Str(std::env::consts::OS.to_string())),
        ("arch", Json::Str(std::env::consts::ARCH.to_string())),
    ])
}

/// The filesystem type under `out/`, where checkpoints are written:
/// `checkpoint_s` and `restore_s` are only comparable on the same one.
fn scratch_fs() -> String {
    let Ok(dir) = run::out_dir().and_then(|d| d.canonicalize().map_err(|e| e.to_string())) else {
        return "unknown".to_string();
    };
    std::fs::read_to_string("/proc/mounts")
        .unwrap_or_default()
        .lines()
        .filter_map(|line| {
            let mut fields = line.split(' ');
            let (_, mount, fs) = (fields.next()?, fields.next()?, fields.next()?);
            dir.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// The contract's last line: `{correct, attempted, failed, metrics}`.
fn result_line(attempted: u64, failed: u64, metrics: Json) -> String {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted.max(1) as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", metrics),
    ])
    .render()
}

fn write_file(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    std::fs::write(path, doc.render() + "\n")
        .map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// A result file holding `workloads` (name → entry).
fn result_set(args: &Args, workloads: Json) -> Json {
    Json::obj([
        ("schema", Json::Num(1.0)),
        ("seed", Json::Num(args.seed as f64)),
        ("smoke", Json::Bool(args.smoke)),
        ("host", host_record()),
        ("workloads", workloads),
    ])
}

/// How long to measure: `--seconds`, else what the driver would pass.
fn seconds(args: &Args) -> Result<f64, String> {
    match args.seconds {
        Some(seconds) => Ok(seconds),
        None => compare::benchmark_json()?
            .get("run_seconds")
            .and_then(Json::as_f64)
            .ok_or_else(|| "BENCHMARK.json has no run_seconds".to_string()),
    }
}

fn run_one(args: &Args, workload: Workload) -> Result<ExitCode, String> {
    let shape = workloads::shape(workload, args.smoke);
    let pinned = workloads::pinned_checksum(workload, args.smoke, args.seed);
    let summary = run::measure(&shape, args.seed, seconds(args)?, pinned)?;
    summary.print(workload.name());
    let out = match &args.out {
        Some(path) => path.clone(),
        None => run::out_dir()?.join(format!("run-{}.json", workload.name())),
    };
    let set = result_set(args, Json::obj([(workload.name(), summary.to_json())]));
    write_file(&out, &set)?;
    println!("wrote {}", out.display());
    let metrics = Json::obj(
        summary
            .metrics
            .iter()
            .map(|(name, m)| (*name, Json::quantity(m.value, m.unit))),
    );
    println!(
        "{}",
        result_line(summary.attempted, summary.failed(), metrics)
    );
    Ok(exit_code(summary.failed()))
}

fn exit_code(failed: u64) -> ExitCode {
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// `run all`: every workload in a child process of its own, so each
/// one's peak RSS is its own; the children's result files are merged
/// into one set.
fn run_all(args: &Args) -> Result<ExitCode, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let dir = run::out_dir()?;
    let mut merged = std::collections::BTreeMap::new();
    let mut failed = 0u64;
    let seconds = seconds(args)?.to_string();
    for workload in Workload::ALL {
        let part = dir.join(format!("run-{}.json", workload.name()));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["run", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &seconds])
            .arg("--out")
            .arg(&part);
        if args.smoke {
            child.arg("--smoke");
        }
        let status = child
            .status()
            .map_err(|e| format!("cannot start the {} run: {e}", workload.name()))?;
        failed += u64::from(!status.success());
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("cannot read {}: {e}", part.display()))?;
        let entry = Json::parse(&text)?
            .get("workloads")
            .and_then(|w| w.get(workload.name()))
            .cloned()
            .ok_or_else(|| format!("{} holds no {} entry", part.display(), workload.name()))?;
        merged.insert(workload.name().to_string(), entry);
    }
    let out = match &args.out {
        Some(path) => path.clone(),
        None => dir.join("results.json"),
    };
    write_file(&out, &result_set(args, Json::Obj(merged)))?;
    println!("wrote {}", out.display());
    Ok(exit_code(failed))
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    match &args.command {
        Command::Run(workload) => run_one(args, *workload),
        Command::RunAll => run_all(args),
        Command::Trace(workload) => {
            let shape = workloads::shape(*workload, args.smoke);
            let report = trace::measure(workload.name(), &shape, args.seed, seconds(args)?)?;
            report.print(workload.name(), nproc());
            println!(
                "{}",
                result_line(report.attempted, report.failed(), report.metrics_json())
            );
            Ok(exit_code(report.failed()))
        }
        Command::Compare(a, b) => compare::run(a, b),
    }
}

fn main() -> ExitCode {
    // Host knobs the engine reads must not leak into a measurement:
    // the benchmark states its own worker count, and the kernel tier
    // is whatever the host dispatches to (recorded in the result).
    for knob in ["MPC_WORKERS", "MPC_KERNEL", "MPC_SOAK_SCALE"] {
        std::env::remove_var(knob);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&argv).and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("mpc-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(words: &[&str]) -> Result<Args, String> {
        parse_args(&words.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_form_selects_run_or_trace() {
        let a = parse(&[
            "--workload",
            "churn",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "0",
        ])
        .expect("parses");
        assert_eq!(a.command, Command::Run(Workload::Churn));
        assert_eq!((a.seed, a.seconds, a.smoke), (7, Some(12.0), false));
        let b = parse(&["--workload", "grow", "--trace", "1"]).expect("parses");
        assert_eq!(b.command, Command::Trace(Workload::Grow));
        assert_eq!((b.seed, b.seconds), (DEFAULT_SEED, None));
    }

    #[test]
    fn the_subcommands_parse() {
        assert_eq!(
            parse(&["run", "all"]).map(|a| a.command),
            Ok(Command::RunAll)
        );
        let smoke = parse(&["run", "fanout", "--smoke", "--seed", "0xB12"]).expect("parses");
        assert_eq!(smoke.command, Command::Run(Workload::Fanout));
        assert!(smoke.smoke);
        assert_eq!(smoke.seed, 0xB12);
        assert_eq!(
            parse(&["trace", "durable"]).map(|a| a.command),
            Ok(Command::Trace(Workload::Durable))
        );
        assert_eq!(
            parse(&["compare", "a.json", "b.json"]).map(|a| a.command),
            Ok(Command::Compare("a.json".into(), "b.json".into()))
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["run", "soak"][..],
            &["--workload", "grow", "--trace", "2"],
            &["--seed"],
            &["--frobnicate"],
            &["compare", "only-one.json"],
            &[],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let line = result_line(0, 0, Json::obj([("x", Json::Num(1.5))]));
        let parsed = Json::parse(&line).expect("valid JSON");
        let keys: Vec<&str> = parsed
            .as_obj()
            .expect("object")
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(parsed.get("attempted").and_then(Json::as_f64), Some(1.0));
        assert_eq!(parsed.get("correct"), Some(&Json::Bool(true)));
    }
}
