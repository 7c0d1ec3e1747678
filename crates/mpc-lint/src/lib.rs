//! `mpc-lint` — an offline workspace invariant linter for panic
//! freedom and allocation-free hot loops.
//!
//! The compiler cannot see two invariants this workspace rests on:
//! that no hot entry point reaches a panic through any chain of
//! helpers, and that the merge loops never allocate. `mpc-lint` turns
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
//! | `allow-hygiene` | Meta rule: every inline allow must name a known rule and carry justification text. |
//! | `panic-reachability` | The PR-3 de-panicking contract, interprocedurally: a hot entry point (`ingest`, `ingest_weighted`, `apply_batch`, `answer`, the merge/sample/converge-cast loops) must neither contain nor *reach*, through any chain of workspace calls, `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`assert!`/`assert_eq!`/`assert_ne!` (but **not** `debug_assert!`). Local sites are reported at their line; reached ones print the shortest witness chain (`ExactMsf::apply_batch -> ExactMsf::one_iteration -> ...`). Site-level allows at the panic site are honored and routed around. |
//! | `alloc-hot-path` | The zero-alloc merge path (`merge_copy_into`, its subtracting twin `subtract_copy_from`, and the sketch loops of `crates/sketch/src/kernels.rs`) must not allocate (`Vec::new`/`with_capacity`/`vec!`/`to_vec`/`collect`/`Box::new`), directly or transitively. |
//!
//! # The interprocedural phase
//!
//! `allow-hygiene` is per-file. The other two run over a
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
//! // lint: allow(panic-reachability): documented precondition, len checked above
//! let head = xs.first().expect("non-empty");
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
//! Hot roots are looked for only in library sources outside the tool
//! crates (`mpc-bench`, `mpc-lint`); see [`FileRoles`].
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
//! Seven invariants that used to be rules here are now held elsewhere
//! (ROADMAP 4(e)). Determinism, I/O and unsafe hygiene are compiler
//! configuration: the root `clippy.toml` bans the clock, default
//! hashers, raw locks and threads, the environment, file I/O and the
//! standard streams, and `[workspace.lints]` forbids `unsafe` and
//! denies prints, `dbg!`, undocumented `unsafe` blocks and reasonless
//! `#[allow]`s; the executor and the snapshot container opt out where
//! they live with `#[expect(..., reason = "...")]`. The other four
//! are held as follows: record/replay completeness of the accounting
//! ledger by the compiler (every `MpcContext` primitive is a call of the one
//! exhaustive `apply(MpcEvent)` that `replay` also runs, and clippy
//! denies a wildcard arm there); `Persist` save/load symmetry by
//! construction (`mpc_snapshot::persist_struct!` states each layout
//! once) and, for the by-hand remainder, by
//! `tests/snapshot_roundtrip.rs`; `supports`/`answer` pairing by the
//! compiler (both are required methods of `Maintain`); and "no answer
//! is free" by the executed matrix in `tests/session_query_plane.rs`,
//! whose roster is asserted equal to `full_registry()`.
//! `alloc-hot-path` stays: a counting `#[global_allocator]` needs
//! `unsafe impl GlobalAlloc`, which the workspace forbids everywhere
//! but `mpc-sim`, and `mpc-sim` cannot reach the sketch merge path.
//!
//! # CLI
//!
//! ```text
//! cargo run -p mpc-lint --              # warn mode: report, exit 0
//! cargo run -p mpc-lint -- --deny       # CI mode: exit 2 on findings
//! cargo run -p mpc-lint -- --json       # machine-readable report
//! cargo run -p mpc-lint -- --explain panic-reachability
//! ```

#![expect(
    clippy::disallowed_methods,
    reason = "a tool crate: it walks and reads the workspace sources"
)]

pub mod allow;
pub mod graph;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;
pub mod summary;

use graph::{FileIndex, Workspace};
use report::{AppliedAllow, Finding, Report};
use std::path::{Path, PathBuf};

/// Meta rule id: well-formed, justified allow comments.
pub const RULE_ALLOW_HYGIENE: &str = "allow-hygiene";
/// Rule id: hot paths neither contain nor reach a panic.
pub const RULE_PANIC_REACH: &str = "panic-reachability";
/// Rule id: no heap allocation reachable from the merge loops.
pub const RULE_ALLOC_HOT: &str = "alloc-hot-path";

/// Every rule id with a one-paragraph explanation (`--explain`).
pub const RULES: &[(&str, &str)] = &[
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
    /// `panic-reachability` and `alloc-hot-path` (which files can
    /// hold hot roots).
    pub panics: bool,
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
    }
}

/// Lints one source text as if it lived at `rel_path`, applying the
/// allowlist mechanism. Returns surviving findings and applied
/// allows. Interprocedural rules run over the one-file workspace;
/// this is the entry point most fixture self-tests drive.
pub fn lint_source(rel_path: &str, source: &str) -> (Vec<Finding>, Vec<AppliedAllow>) {
    lint_sources(&[(rel_path.to_string(), source.to_string())])
}

/// Lints a set of `(rel_path, source)` files as one workspace: each
/// file's allow comments are parsed, then the symbol table / call
/// graph is built across all of them and the interprocedural rules
/// (panic-reachability, alloc-hot-path) run over the whole set. Allow
/// comments suppress their findings.
pub fn lint_sources(files: &[(String, String)]) -> (Vec<Finding>, Vec<AppliedAllow>) {
    // Phase 1: index each file and keep its parsed allows for
    // post-hoc application to interprocedural findings.
    let mut indexed = Vec::with_capacity(files.len());
    let mut per_file_allows = Vec::with_capacity(files.len());
    let mut meta = Vec::new();
    let rule_ids: Vec<&'static str> = RULES.iter().map(|(id, _)| *id).collect();
    for (rel_path, source) in files {
        let file = FileIndex::new(rel_path, source);
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
    let mut findings = rules::panic_reach::check(&ws, &sums);
    findings.extend(rules::alloc_hot::check(&ws, &sums));

    // Allows apply per file.
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
    // One pass over the whole set, so the interprocedural rules see
    // every cross-crate call edge.
    let (findings, allows) = lint_sources(&sources);
    let mut report = Report {
        findings,
        allows,
        files_scanned: sources.len(),
    };
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
        assert!(roles_for("crates/mpc/src/context.rs").panics);
        assert!(roles_for("crates/mpc-snapshot/src/format.rs").panics);
        assert!(roles_for("src/lib.rs").panics);
        assert!(!roles_for("crates/bench/src/experiments/micro.rs").panics);
        assert!(!roles_for("crates/mpc-lint/src/main.rs").panics);
        assert!(!roles_for("tests/determinism.rs").panics);
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
        let consts = [RULE_ALLOW_HYGIENE, RULE_PANIC_REACH, RULE_ALLOC_HOT];
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
pub fn apply_batch(xs: &[u32]) -> u32 {
    // lint: allow(panic-reachability): caller guarantees a non-empty batch
    let head = *xs.first().unwrap();
    // lint: allow(panic-reachability)
    head + *xs.last().unwrap()
}
";
        let (findings, applied) = lint_source("crates/core/src/x.rs", src);
        assert_eq!(applied.len(), 1, "justified allow fired: {applied:?}");
        // Surviving: the second unwrap (unjustified allow does not
        // suppress) plus the allow-hygiene meta finding.
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings
            .iter()
            .any(|f| f.rule == RULE_PANIC_REACH && f.line == 5));
        assert!(findings
            .iter()
            .any(|f| f.rule == RULE_ALLOW_HYGIENE && f.line == 4));
    }
}
