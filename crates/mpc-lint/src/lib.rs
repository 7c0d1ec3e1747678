//! `mpc-lint` — an offline workspace invariant linter for panic
//! freedom, allocation-free hot loops, determinism, and unsafe hygiene.
//!
//! The compiler cannot see the invariants this workspace actually
//! rests on: that no hot entry point reaches a panic through any chain
//! of helpers, that the merge loops never allocate, that same-seed
//! runs stay bit-identical across worker counts. `mpc-lint` turns
//! those conventions into machine-enforced rules, the same way the
//! deterministic-MPC line of work (Nowicki, arXiv:1912.04239;
//! Pai–Pemmaraju, arXiv:2205.12686) turns randomized guarantees into
//! failure-free ones. It is clean-room and dependency-free — its own
//! lightweight lexer, no `syn`, no registry access — and runs over the
//! whole workspace in well under a second.
//!
//! # The invariant catalog
//!
//! | rule id | invariant |
//! |---|---|
//! | `unsafe-hygiene` | `unsafe` is confined to an explicit allowlist — `crates/mpc/src/executor.rs`; every `unsafe` there carries a `// SAFETY:` argument within the preceding 8 lines; every other crate root carries `#![forbid(unsafe_code)]`. |
//! | `determinism-hygiene` | No `Instant`/`SystemTime`, no default-hasher `HashMap`/`HashSet`, no raw `Mutex`/`RwLock`/`Condvar`/`std::thread::spawn` outside the executor, no `env::var`/`env::var_os`, no `dbg!`/`println!` in library crates. Tool crates (`mpc-bench`, `mpc-lint`) and `#[cfg(test)]` code are out of scope. |
//! | `io-hygiene` | `std::fs`/`std::io` are confined to `crates/mpc-snapshot` (the one sanctioned persistence path — the checksummed snapshot container behind `Session::checkpoint`/`restore`) and the tool crates. |
//! | `allow-hygiene` | Meta rule: every inline allow must name a known rule and carry justification text. |
//! | `panic-reachability` | The PR-3 de-panicking contract, interprocedurally: a hot entry point (`ingest`, `ingest_weighted`, `apply_batch`, `answer`, the merge/sample/converge-cast loops) must neither contain nor *reach*, through any chain of workspace calls, `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`assert!`/`assert_eq!`/`assert_ne!` (but **not** `debug_assert!`). Local sites are reported at their line; reached ones print the shortest witness chain (`ExactMsf::apply_batch -> ExactMsf::one_iteration -> ...`). Site-level allows at the panic site are honored and routed around. |
//! | `alloc-hot-path` | The zero-alloc merge path (`merge_copy_into`, its subtracting twin `subtract_copy_from`, and the sketch loops of `crates/sketch/src/kernels.rs`) must not allocate (`Vec::new`/`with_capacity`/`vec!`/`to_vec`/`collect`/`Box::new`), directly or transitively. |
//!
//! # The interprocedural phase
//!
//! The first four rules are per-file. The last two run over a
//! workspace-wide symbol table and call graph ([`graph::Workspace`]):
//! every function is indexed with its owner `impl`, receiver, and
//! arity; call sites resolve by name with receiver/arity ranking
//! (dot-calls never resolve to associated functions), and unresolvable
//! names over-approximate to every candidate. On top of the graph,
//! [`summary`] computes per-function effect summaries — panics,
//! allocates — to a fixpoint, so a panic hidden two helpers deep is
//! reported at the hot entry point with the shortest witness chain.
//!
//! # The allowlist syntax
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // lint: allow(determinism-hygiene): lookup-only map keyed by edge,
//! let cache: HashMap<Edge, u64> = HashMap::new();
//! ```
//!
//! The justification after the closing parenthesis is **mandatory**
//! (≥ 10 characters); an allow without one, or naming an unknown
//! rule, suppresses nothing and is itself reported under
//! `allow-hygiene`. Every allow that fires is listed with its
//! justification in the JSON report, so suppressions stay auditable.
//!
//! # Scope
//!
//! The linter walks every `.rs` file under the workspace root except
//! `target/`, `vendor/` (clean-room stand-ins for external crates),
//! and `fixtures/` (the linter's own seeded-violation test inputs).
//! Rules then scope themselves by path: `panic-reachability` covers
//! library sources; `determinism-hygiene` covers library sources minus
//! the tool crates; `io-hygiene` covers library sources minus the
//! tool crates and the snapshot crate; `unsafe-hygiene` covers
//! everything walked.
//!
//! # Runtime counterparts
//!
//! Two invariants are beyond source analysis and are instead audited
//! at runtime in debug builds: `WorkerPool::steal_each` asserts each
//! element is claimed by exactly one lane, and the `Session` fan-out's
//! pooled runner asserts that a replayed branch charges exactly the
//! rounds and words its fork recorded (the differential fork/replay
//! audit).
//!
//! Four invariants that used to be rules here are now held elsewhere
//! (ROADMAP 4(e)): record/replay completeness of the accounting ledger
//! by the compiler (every `MpcContext` primitive is a call of the one
//! exhaustive `apply(MpcEvent)` that `replay` also runs, and clippy
//! denies a wildcard arm there); `Persist` save/load symmetry by
//! construction (`mpc_snapshot::persist_struct!` states each layout
//! once) and, for the by-hand remainder, by
//! `tests/snapshot_roundtrip.rs`; `supports`/`answer` pairing by the
//! compiler (both are required methods of `Maintain`); and "no answer
//! is free" by the executed matrix in `tests/session_query_plane.rs`,
//! whose roster is asserted equal to `full_registry()`. `alloc-hot-path` stays: no counting-
//! allocator test exists, so the lint is that invariant's only guard.
//!
//! # CLI
//!
//! ```text
//! cargo run -p mpc-lint --              # warn mode: report, exit 0
//! cargo run -p mpc-lint -- --deny       # CI mode: exit 2 on findings
//! cargo run -p mpc-lint -- --json       # machine-readable report
//! cargo run -p mpc-lint -- --explain panic-reachability
//! ```

#![forbid(unsafe_code)]

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod summary;

use graph::{FileIndex, Workspace};
use report::{AppliedAllow, Finding, Report};
use rules::FileCtx;
use std::path::{Path, PathBuf};

/// Rule id: `unsafe` confinement + `// SAFETY:` + `forbid(unsafe_code)`.
pub const RULE_UNSAFE: &str = "unsafe-hygiene";
/// Rule id: no wall-clock / default hashers / raw threads / prints.
pub const RULE_DETERMINISM: &str = "determinism-hygiene";
/// Rule id: `std::fs`/`std::io` confined to the snapshot crate.
pub const RULE_IO: &str = "io-hygiene";
/// Meta rule id: well-formed, justified allow comments.
pub const RULE_ALLOW_HYGIENE: &str = "allow-hygiene";
/// Rule id: hot paths neither contain nor reach a panic.
pub const RULE_PANIC_REACH: &str = "panic-reachability";
/// Rule id: no heap allocation reachable from the merge loops.
pub const RULE_ALLOC_HOT: &str = "alloc-hot-path";

/// Every rule id with a one-paragraph explanation (`--explain`).
pub const RULES: &[(&str, &str)] = &[
    (
        RULE_UNSAFE,
        "Confines `unsafe` to the reviewed allowlist — crates/mpc/src/executor.rs (the \
         work-stealing executor) — requires a `// SAFETY:` comment within 8 lines above \
         every unsafe use there, and requires `#![forbid(unsafe_code)]` on every other \
         crate root so the confinement is also compiler-enforced.",
    ),
    (
        RULE_DETERMINISM,
        "Bans nondeterminism sources from maintainer/accounting crates: Instant/SystemTime \
         (host time), default-hasher HashMap/HashSet (RandomState randomizes iteration \
         order per process), raw Mutex/RwLock/Condvar/std::thread::spawn outside the \
         executor (unordered host concurrency), env::var/env::var_os (a host knob no caller \
         can see), and dbg!/println!-family macros in library crates. Tool crates \
         (mpc-bench, mpc-lint) and #[cfg(test)] code are exempt.",
    ),
    (
        RULE_IO,
        "Confines `std::fs`/`std::io` to crates/mpc-snapshot (the one sanctioned \
         persistence path: the checksummed, versioned snapshot container behind \
         Session::checkpoint / Session::restore) and the tool crates (mpc-bench, \
         mpc-lint). File I/O anywhere else is either a second, unversioned persistence \
         path that restore would silently drop, or a hidden host dependency in code \
         that must stay a pure function of its seeds. Test code is exempt.",
    ),
    (
        RULE_ALLOW_HYGIENE,
        "Meta rule for the allowlist mechanism itself: `// lint: allow(<rule>)` must name a \
         known rule and carry mandatory justification text (>= 10 chars). Malformed allows \
         suppress nothing and are reported.",
    ),
    (
        RULE_PANIC_REACH,
        "The PR-3 de-panicking contract, interprocedurally: the hot roots (ingest, \
         ingest_weighted, apply_batch, answer, the arena merge/sample/converge-cast loops, \
         everything in crates/sketch/src/kernels.rs) return Result and run inside worker lanes \
         where a panic aborts the whole steal scope instead of surfacing a typed error. The \
         rule reports every unwrap/expect/panic!/todo!/unimplemented!/assert!/assert_eq!/\
         assert_ne! (debug_assert!* stays legal) in a hot root's own body at its line, and \
         walks the workspace call graph to report any call edge into a function whose effect \
         summary says it can reach one, printing the shortest witness chain — the panic hidden \
         two helpers deep loses the branch exactly the same way.",
    ),
    (
        RULE_ALLOC_HOT,
        "The sketch loops (crates/sketch/src/kernels.rs), merge_copy_into and subtract_copy_from run inside the \
         converge-cast inner loop with preallocated scratch; any \
         Vec::new/vec!/collect()/to_vec()/format!-style heap allocation there — or \
         reachable from there through workspace helpers — is a latency regression the \
         benchmark's `churn` workload would surface later. Flagged unless justified with \
         `// lint: allow(alloc-hot-path): …` at the reported line.",
    ),
];

/// The explanation paragraph for `rule`, if the id is known.
pub fn explain(rule: &str) -> Option<&'static str> {
    RULES.iter().find(|(id, _)| *id == rule).map(|(_, e)| *e)
}

/// Which rule families apply to a workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRoles {
    /// `panic-reachability` (which files can hold hot roots).
    pub panics: bool,
    /// `determinism-hygiene`.
    pub determinism: bool,
    /// `io-hygiene`.
    pub io: bool,
    /// This file is the sanctioned executor (lock/spawn exemption and
    /// the `// SAFETY:` regime instead of an outright unsafe ban).
    pub is_executor: bool,
}

/// Resolves rule scoping for one workspace-relative path
/// (`/`-separated).
pub fn roles_for(rel_path: &str) -> FileRoles {
    let in_crate_src = (rel_path.starts_with("crates/") && rel_path.contains("/src/"))
        || rel_path.starts_with("src/");
    let tool_crate =
        rel_path.starts_with("crates/bench/") || rel_path.starts_with("crates/mpc-lint/");
    FileRoles {
        panics: in_crate_src && !tool_crate,
        determinism: in_crate_src && !tool_crate,
        io: in_crate_src && !tool_crate && !rel_path.starts_with("crates/mpc-snapshot/"),
        is_executor: rel_path == "crates/mpc/src/executor.rs",
    }
}

/// Lints one source text as if it lived at `rel_path`, applying the
/// allowlist mechanism. Returns surviving findings and applied
/// allows. Interprocedural rules run over the one-file workspace;
/// this is the entry point most fixture self-tests drive.
pub fn lint_source(rel_path: &str, source: &str) -> (Vec<Finding>, Vec<AppliedAllow>) {
    lint_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Lints a set of `(rel_path, source)` files as one workspace: the
/// per-file rules run on each file, then the symbol table / call
/// graph is built across all of them and the interprocedural rules
/// (panic-reachability, alloc-hot-path) run over the whole set. Allow
/// comments suppress findings of both phases.
pub fn lint_sources(files: &[(String, String)]) -> (Vec<Finding>, Vec<AppliedAllow>) {
    // Phase 1: per-file rules, with each file's parsed allows kept
    // for post-hoc application to interprocedural findings.
    let mut indexed = Vec::with_capacity(files.len());
    let mut per_file_allows = Vec::with_capacity(files.len());
    let mut findings = Vec::new();
    let mut meta = Vec::new();
    let rule_ids: Vec<&'static str> = RULES.iter().map(|(id, _)| *id).collect();
    for (rel_path, source) in files {
        let file = FileIndex::new(rel_path, source);
        let ctx = FileCtx {
            rel_path,
            lexed: &file.lexed,
            test_ranges: &file.test_ranges,
        };
        let roles = roles_for(rel_path);
        if roles.determinism {
            findings.extend(rules::determinism::check(&ctx, roles.is_executor));
        }
        if roles.io {
            findings.extend(rules::io_hygiene::check(&ctx));
        }
        findings.extend(rules::unsafety::check(&ctx));
        per_file_allows.push(allow::collect(
            &file.lexed.line_comments,
            &rule_ids,
            rel_path,
            &mut meta,
        ));
        indexed.push(file);
    }

    // Phase 2: the workspace-wide symbol table, call graph, and
    // effect summaries feed the interprocedural rules.
    let ws = Workspace::build(indexed);
    let sums = summary::compute(&ws);
    findings.extend(rules::panic_reach::check(&ws, &sums));
    findings.extend(rules::alloc_hot::check(&ws, &sums));

    // Allows apply per file, to findings of either phase.
    let mut applied = Vec::new();
    let mut kept = Vec::new();
    for (fi, (rel_path, _)) in files.iter().enumerate() {
        let mine: Vec<Finding> = findings
            .iter()
            .filter(|f| f.file == *rel_path)
            .cloned()
            .collect();
        kept.extend(allow::apply(
            mine,
            &per_file_allows[fi],
            rel_path,
            &mut applied,
        ));
    }
    // Findings anchored to files outside the set (none today, but a
    // rule bug should not silently drop reports).
    kept.extend(
        findings
            .into_iter()
            .filter(|f| !files.iter().any(|(p, _)| *p == f.file)),
    );
    kept.extend(meta);
    // Site-level allows consumed inside the effect fixpoint are part
    // of the same audit trail as per-file ones.
    applied.extend(sums.applied);
    (kept, applied)
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`: every
/// `crates/<name>/src/lib.rs` except mpc-sim's (the executor is
/// allowlisted), plus the facade.
fn needs_forbid(rel_path: &str) -> bool {
    if rel_path == "src/lib.rs" {
        return true;
    }
    let Some(rest) = rel_path.strip_prefix("crates/") else {
        return false;
    };
    rest.ends_with("/src/lib.rs") && !rest.starts_with("mpc/")
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Propagates I/O errors from walking or reading the tree.
pub fn lint_workspace(root: &Path) -> std::io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut sources = Vec::with_capacity(files.len());
    for rel in &files {
        let source = std::fs::read_to_string(root.join(rel))?;
        sources.push((rel.replace('\\', "/"), source));
    }
    let mut report = Report::default();
    // One pass over the whole set, so the interprocedural rules see
    // every cross-crate call edge.
    let (findings, applied) = lint_sources(&sources);
    report.findings.extend(findings);
    report.allows.extend(applied);
    for (rel, source) in &sources {
        if needs_forbid(rel) {
            let lexed = lexer::lex(source);
            let ctx = FileCtx {
                rel_path: rel,
                lexed: &lexed,
                test_ranges: &[],
            };
            report.findings.extend(rules::unsafety::check_forbid(&ctx));
        }
        report.files_scanned += 1;
    }
    report.finalize();
    Ok(report)
}

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &["target", "vendor", "fixtures", ".git", ".github"];

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_string_lossy().replace('\\', "/"));
            }
        }
    }
    Ok(())
}

/// Resolves the workspace root for the CLI: an explicit argument, the
/// current directory if it looks like the workspace, or the crate's
/// own manifest dir walked two levels up.
pub fn resolve_root(arg: Option<PathBuf>) -> PathBuf {
    if let Some(p) = arg {
        return p;
    }
    let cwd = PathBuf::from(".");
    if cwd.join("Cargo.toml").exists() && cwd.join("crates").is_dir() {
        return cwd;
    }
    if let Ok(manifest) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = PathBuf::from(manifest);
        if let Some(ws) = p.parent().and_then(Path::parent) {
            return ws.to_path_buf();
        }
    }
    cwd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roles_scope_rules_by_path() {
        let ctx = roles_for("crates/mpc/src/context.rs");
        assert!(ctx.determinism && !ctx.is_executor);
        let exec = roles_for("crates/mpc/src/executor.rs");
        assert!(exec.is_executor);
        let bench = roles_for("crates/bench/src/experiments/micro.rs");
        assert!(!bench.determinism && !bench.panics);
        let lint = roles_for("crates/mpc-lint/src/main.rs");
        assert!(!lint.determinism);
        let test = roles_for("tests/determinism.rs");
        assert!(!test.determinism && !test.panics && !test.io);
        let facade = roles_for("src/lib.rs");
        assert!(facade.determinism && facade.io);
        let snap = roles_for("crates/mpc-snapshot/src/format.rs");
        assert!(
            snap.determinism && !snap.io,
            "snapshot crate may touch disk"
        );
        assert!(roles_for("crates/core/src/session.rs").io);
        assert!(!roles_for("crates/bench/src/experiments/micro.rs").io);
    }

    #[test]
    fn forbid_required_everywhere_but_mpc_sim() {
        assert!(needs_forbid("crates/graph/src/lib.rs"));
        assert!(needs_forbid("src/lib.rs"));
        assert!(needs_forbid("crates/mpc-lint/src/lib.rs"));
        assert!(!needs_forbid("crates/mpc/src/lib.rs"));
        assert!(!needs_forbid("crates/graph/src/ids.rs"));
        assert!(needs_forbid("crates/sketch/src/lib.rs"));
    }

    #[test]
    fn explain_knows_every_rule() {
        for (id, _) in RULES {
            assert!(explain(id).is_some());
        }
        assert!(explain("nope").is_none());
    }

    /// Drift guard for the rule registry: every `RULE_*` constant must
    /// appear in [`RULES`] exactly once with a non-empty explanation.
    /// `--list` and `--explain` both read [`RULES`], so this pins all
    /// three surfaces to the same set — adding a rule id without
    /// registering it (or vice versa) fails here, not in the field.
    #[test]
    fn rule_registry_is_complete_and_unique() {
        let consts = [
            RULE_UNSAFE,
            RULE_DETERMINISM,
            RULE_IO,
            RULE_ALLOW_HYGIENE,
            RULE_PANIC_REACH,
            RULE_ALLOC_HOT,
        ];
        assert_eq!(consts.len(), RULES.len(), "registry size drifted");
        for id in consts {
            let hits = RULES.iter().filter(|(r, _)| *r == id).count();
            assert_eq!(hits, 1, "rule `{id}` must be registered exactly once");
        }
        for (id, text) in RULES {
            assert!(!text.trim().is_empty(), "rule `{id}` has no explanation");
            assert!(
                id.chars().all(|c| c.is_ascii_lowercase() || c == '-'),
                "rule id `{id}` is not kebab-case"
            );
        }
    }

    #[test]
    fn lint_source_applies_allows_and_reports_malformed_ones() {
        let src = "\
// lint: allow(determinism-hygiene): lookup-only, never iterated anywhere
use std::collections::HashMap;
// lint: allow(determinism-hygiene)
use std::time::Instant;
";
        let (findings, applied) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(applied.len(), 1, "justified allow fired: {applied:?}");
        // Surviving: the Instant finding (unjustified allow does not
        // suppress) plus the allow-hygiene meta finding.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings.iter().any(|f| f.rule == RULE_DETERMINISM));
        assert!(findings.iter().any(|f| f.rule == RULE_ALLOW_HYGIENE));
    }
}
