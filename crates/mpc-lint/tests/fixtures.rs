//! Fixture-based self-tests: one clean and one dirty source per rule
//! family, asserting the exact rule ids and line numbers the linter
//! reports, plus the end-to-end mutation drill on a *real* hot path
//! (hide a panic two helpers deep, watch `panic-reachability` print
//! the chain).

#![expect(
    clippy::disallowed_methods,
    reason = "reads the fixture sources and the real workspace from disk"
)]

use mpc_lint::report::{AppliedAllow, Finding, Report};
use mpc_lint::{lint_source, RULE_ALLOC_HOT, RULE_ALLOW_HYGIENE, RULE_PANIC_REACH};

fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

fn run(rel_path: &str, name: &str) -> (Vec<Finding>, Vec<AppliedAllow>) {
    lint_source(rel_path, &fixture(name))
}

/// `(rule, line)` pairs, sorted, for exact comparisons.
fn keys(findings: &[Finding]) -> Vec<(&'static str, u32)> {
    let mut k: Vec<_> = findings.iter().map(|f| (f.rule, f.line)).collect();
    k.sort();
    k
}

#[test]
fn allow_clean_fixture_suppresses_and_records_justifications() {
    let (findings, applied) = run("crates/core/src/cache.rs", "allow_clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(applied.len(), 2, "{applied:?}");
    assert!(applied.iter().all(|a| a.rule == RULE_PANIC_REACH));
    assert!(applied
        .iter()
        .any(|a| a.justification.contains("batch is non-empty")));
    assert!(applied
        .iter()
        .any(|a| a.justification.contains("same non-empty precondition")));
}

#[test]
fn allow_dirty_fixture_suppresses_nothing_and_reports_the_allows() {
    let (findings, applied) = run("crates/core/src/cache.rs", "allow_dirty.rs");
    assert!(applied.is_empty(), "{applied:?}");
    assert_eq!(
        keys(&findings),
        vec![
            (RULE_ALLOW_HYGIENE, 2), // missing justification
            (RULE_ALLOW_HYGIENE, 4), // unknown rule
            (RULE_PANIC_REACH, 3),   // survives the unjustified allow
            (RULE_PANIC_REACH, 5),   // survives the unknown-rule allow
            (RULE_PANIC_REACH, 6),   // the chain into `pick`
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains("mandatory")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("unknown rule `made-up-rule`")));
}

#[test]
fn json_report_carries_rule_ids_lines_and_allows() {
    let (findings, _) = run("crates/core/src/cache.rs", "allow_dirty.rs");
    let (_, allows) = run("crates/core/src/cache.rs", "allow_clean.rs");
    let mut report = Report {
        findings,
        allows,
        files_scanned: 2,
    };
    report.finalize();
    let json = report.to_json();
    assert!(json.contains("\"version\": 1"));
    assert!(json.contains("\"finding_count\": 5"));
    // Allows sit on lines 2 and 4 of the same path: line 3 is a finding's.
    assert!(json.contains(
        "{\"rule\":\"panic-reachability\",\"file\":\"crates/core/src/cache.rs\",\"line\":3,"
    ));
    assert!(json.contains("\"rule\":\"allow-hygiene\""));
    assert!(json.contains("\"justification\":\"caller checks the batch is non-empty\""));
}

/// The whole real workspace must lint clean — the same gate CI runs
/// via `cargo run -p mpc-lint -- --deny`.
#[test]
fn real_workspace_is_clean() {
    let root = format!("{}/../..", env!("CARGO_MANIFEST_DIR"));
    let report = mpc_lint::lint_workspace(std::path::Path::new(&root)).expect("walk workspace");
    assert!(report.findings.is_empty(), "{}", report.to_json());
    assert!(report.files_scanned > 50, "walker missed the tree");
}

// ----- interprocedural families (call-graph rules) ----------------

#[test]
fn panic_reach_clean_fixture_passes() {
    let (findings, _) = run("crates/sketch/src/arena.rs", "panic_reach_clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn panic_reach_dirty_fixture_prints_the_two_call_deep_chain() {
    let (findings, _) = run("crates/sketch/src/arena.rs", "panic_reach_dirty.rs");
    // Line 2 is the chain out of `apply_batch`; 11 and 12 are the
    // subtract entry, a root of both the allocation and the panic rule.
    assert_eq!(
        keys(&findings),
        vec![
            (RULE_ALLOC_HOT, 11),
            (RULE_PANIC_REACH, 2),
            (RULE_PANIC_REACH, 12)
        ],
        "{findings:?}"
    );
    let subtract = |f: &&Finding| f.message.contains("`subtract_copy_from`");
    assert_eq!(findings.iter().filter(subtract).count(), 2, "{findings:?}");
    let msg = &findings.iter().find(|f| f.line == 2).unwrap().message;
    assert!(msg.contains("apply_batch -> stage -> pick"), "{msg}");
    assert!(msg.contains(".unwrap()"), "{msg}");
    assert!(msg.contains("panic site"), "{msg}");
}

#[test]
fn alloc_hot_clean_fixture_passes() {
    let (findings, _) = run("crates/sketch/src/kernels.rs", "alloc_hot_clean.rs");
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn alloc_hot_dirty_fixture_reports_local_and_transitive_allocations() {
    let (findings, _) = run("crates/sketch/src/kernels.rs", "alloc_hot_dirty.rs");
    // Three findings: the root's local alloc, the transitive edge
    // into `scratch`, and `scratch`'s own local alloc (every fn in
    // the sketch loop module is a root).
    assert_eq!(
        keys(&findings),
        vec![
            (RULE_ALLOC_HOT, 2),
            (RULE_ALLOC_HOT, 3),
            (RULE_ALLOC_HOT, 6)
        ],
        "{findings:?}"
    );
    assert!(findings.iter().any(|f| f.message.contains(".to_vec()")));
    assert!(findings
        .iter()
        .any(|f| f.message.contains("fold_cells -> scratch") && f.message.contains("vec!")));
}

/// Mutation drill on the **real** MSF source: turn a helper's typed
/// error into an `.expect()` and panic-reachability must print the
/// hot-path chain into it.
#[test]
fn hiding_a_panic_in_a_real_helper_prints_the_chain() {
    let path = format!("{}/../msf/src/exact.rs", env!("CARGO_MANIFEST_DIR"));
    let source = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    let clean = lint_source("crates/msf/src/exact.rs", &source).0;
    let reach: Vec<_> = clean
        .iter()
        .filter(|f| f.rule == RULE_PANIC_REACH)
        .collect();
    assert!(reach.is_empty(), "real exact.rs is not clean: {reach:?}");

    let typed = "let heaviest = heaviest.ok_or_else(no_convergence)?;";
    assert!(
        source.contains(typed),
        "helper error shape changed — update this drill"
    );
    let mutated = source.replace(typed, "let heaviest = heaviest.expect(\"cycle edge\");");
    let findings = lint_source("crates/msf/src/exact.rs", &mutated).0;
    let hit = findings
        .iter()
        .find(|f| f.rule == RULE_PANIC_REACH)
        .expect("mutated exact must fail panic-reachability");
    assert!(
        hit.message
            .contains("ExactMsf::apply_batch -> ExactMsf::one_iteration"),
        "{}",
        hit.message
    );
    assert!(hit.message.contains(".expect()"), "{}", hit.message);
}

/// A site-level allow at a panic site must both suppress the finding
/// (routing chains around the site) and show up in the applied-allow
/// audit trail with its justification — suppressions are never
/// silent.
#[test]
fn site_allows_are_suppressive_and_audited() {
    let src = "\
impl Arena {
    pub fn merge_copy_into(&mut self, other: &Arena) {
        self.step(other);
    }
    fn step(&mut self, other: &Arena) {
        // lint: allow(panic-reachability): documented precondition — arenas share a layout
        let w = other.words.first().expect(\"layout\");
        self.acc += *w;
    }
}
";
    let (findings, applied) = lint_source("crates/sketch/src/arena.rs", src);
    assert!(
        !findings.iter().any(|f| f.rule == RULE_PANIC_REACH),
        "{findings:?}"
    );
    let site = applied
        .iter()
        .find(|a| a.rule == RULE_PANIC_REACH)
        .expect("site allow must be recorded as applied");
    assert_eq!(site.file, "crates/sketch/src/arena.rs");
    assert_eq!(site.line, 6);
    assert!(
        site.justification.contains("documented precondition"),
        "{site:?}"
    );
}
