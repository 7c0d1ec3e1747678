//! Rule `determinism-hygiene`: nondeterminism sources are banned from
//! maintainer and accounting crates.
//!
//! Same-seed runs must stay bit-identical across worker counts (the
//! property the determinism suite checks dynamically). Statically,
//! that means library crates must not consult host wall-clock time,
//! must not iterate default-hasher maps (`RandomState` randomizes
//! iteration order per process), must not spawn raw threads or share
//! state through locks outside the executor (ordering races), must
//! not read environment variables (a host knob that changes behaviour
//! behind every caller — the library reads none), and must not print
//! (output interleaving under the worker pool, and a smell for
//! debugging leftovers). Tool crates (`mpc-bench`, `mpc-lint`) and
//! test/bench/example code are exempt by scope.

use super::{find_seq, FileCtx};
use crate::report::Finding;
use crate::scan;
use crate::RULE_DETERMINISM;
use std::collections::BTreeSet;

/// Checks one library source file. `is_executor` exempts the worker
/// pool from the raw-thread/lock sub-rule (it is the one sanctioned
/// home for host concurrency).
pub fn check(ctx: &FileCtx, is_executor: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    // One finding per (line, offender) even if a line repeats it.
    let mut seen: BTreeSet<(u32, &'static str)> = BTreeSet::new();
    let tokens = &ctx.lexed.tokens;
    let mut push = |seen: &mut BTreeSet<(u32, &'static str)>,
                    line: u32,
                    offender: &'static str,
                    message: String| {
        if seen.insert((line, offender)) {
            out.push(Finding {
                rule: RULE_DETERMINISM,
                file: ctx.rel_path.to_string(),
                line,
                message,
            });
        }
    };

    for (i, t) in tokens.iter().enumerate() {
        if scan::in_ranges(ctx.test_ranges, t.line) {
            continue;
        }
        let Some(id) = t.ident() else { continue };
        match id {
            "Instant" | "SystemTime" => {
                let offender = if id == "Instant" {
                    "Instant"
                } else {
                    "SystemTime"
                };
                push(
                    &mut seen,
                    t.line,
                    offender,
                    format!(
                        "host wall-clock (`{id}`) in a deterministic crate — time must \
                         never influence maintainer behavior; measure in mpc-bench instead"
                    ),
                );
            }
            "HashMap" | "HashSet" => {
                let offender = if id == "HashMap" {
                    "HashMap"
                } else {
                    "HashSet"
                };
                push(
                    &mut seen,
                    t.line,
                    offender,
                    format!(
                        "default-hasher `{id}` — `RandomState` randomizes iteration order \
                         per process; use `BTreeMap`/`BTreeSet` or a deterministically \
                         seeded hasher"
                    ),
                );
            }
            "Mutex" | "RwLock" | "Condvar" if !is_executor => {
                let offender = match id {
                    "Mutex" => "Mutex",
                    "RwLock" => "RwLock",
                    _ => "Condvar",
                };
                push(
                    &mut seen,
                    t.line,
                    offender,
                    format!(
                        "raw `{id}` outside the executor — host synchronization lives in \
                         crates/mpc/src/executor.rs only; route parallelism through the \
                         WorkerPool"
                    ),
                );
            }
            "thread"
                if !is_executor
                    && !find_seq(
                        tokens,
                        (i, (i + 4).min(tokens.len())),
                        &["thread", ":", ":", "spawn"],
                    )
                    .is_empty() =>
            {
                push(
                    &mut seen,
                    t.line,
                    "spawn",
                    "raw `std::thread::spawn` outside the executor — unscoped threads \
                     escape the pool's panic containment and shutdown join"
                        .to_string(),
                );
            }
            "env"
                if ["var", "var_os"].iter().any(|read| {
                    !find_seq(
                        tokens,
                        (i, (i + 4).min(tokens.len())),
                        &["env", ":", ":", read],
                    )
                    .is_empty()
                }) =>
            {
                push(
                    &mut seen,
                    t.line,
                    "env",
                    "`env::var` in a library crate — an environment variable is a host \
                     knob no caller can see or pin; take the value as a parameter"
                        .to_string(),
                );
            }
            "dbg" | "println" | "print" | "eprintln" | "eprint"
                if tokens.get(i + 1).is_some_and(|n| n.is_punct('!')) =>
            {
                push(
                    &mut seen,
                    t.line,
                    "print",
                    format!(
                        "`{id}!` in a library crate — output interleaves \
                         nondeterministically under the worker pool; return data or use \
                         the bench/report plumbing"
                    ),
                );
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str, is_executor: bool) -> Vec<Finding> {
        let lexed = lex(src);
        let ranges = scan::test_line_ranges(&lexed);
        check(
            &FileCtx {
                rel_path: "crates/core/src/x.rs",
                lexed: &lexed,
                test_ranges: &ranges,
            },
            is_executor,
        )
    }

    #[test]
    fn flags_each_offender_once_per_line() {
        let src = "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, HashMap<u32, u32>> = HashMap::new(); }";
        let f = run(src, false);
        assert_eq!(f.len(), 2, "line 1 once, line 2 once: {f:?}");
    }

    #[test]
    fn flags_time_locks_threads_prints() {
        let src = "fn f() {\n    let t = Instant::now();\n    let m = Mutex::new(0);\n    std::thread::spawn(|| {});\n    println!(\"x\");\n}";
        let f = run(src, false);
        assert_eq!(f.len(), 4);
        assert!(f.iter().any(|x| x.message.contains("wall-clock")));
        assert!(f.iter().any(|x| x.message.contains("Mutex")));
        assert!(f.iter().any(|x| x.message.contains("thread::spawn")));
        assert!(f.iter().any(|x| x.message.contains("interleaves")));
    }

    #[test]
    fn executor_may_lock_and_spawn_but_not_tell_time() {
        let src = "fn f() {\n    let m = Mutex::new(0);\n    std::thread::spawn(|| {});\n    let t = Instant::now();\n}";
        let f = run(src, true);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wall-clock"));
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    fn t() { println!(\"ok\"); }\n}";
        assert!(run(src, false).is_empty());
    }

    #[test]
    fn btree_collections_pass() {
        let src = "use std::collections::{BTreeMap, BTreeSet};\nfn f() -> BTreeMap<u32, u32> { BTreeMap::new() }";
        assert!(run(src, false).is_empty());
    }
}
