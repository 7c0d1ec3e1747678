//! Rule `panic-reachability`: hot paths must not contain *or reach*
//! a panicking construct.
//!
//! The PR-3 de-panicking contract: the ingest and query entry points
//! return `Result` and must surface failures as errors, never aborts —
//! a panic inside a worker lane aborts the whole steal scope instead
//! of returning a typed error. A hot path that delegates to a helper
//! that unwraps two calls deep is exactly as broken as one that
//! unwraps itself, so this rule reports both: each panicking construct
//! in a hot root's own body (at its line), and, walking the call graph
//! from every hot root ([`HOT_FNS`] and everything in the sketch loop
//! module), each call edge into a function whose transitive effect
//! summary says it can panic, with the shortest witness chain printed
//! so the fix is obvious. `debug_assert!` (and friends) stay legal:
//! they vanish in release builds and are the documented way to state
//! invariants on these paths.
//!
//! Suppression is site-anchored: a justified
//! `// lint: allow(panic-reachability): …` **at the panic site**
//! (typically a documented precondition assert, e.g. "# Panics"
//! API contracts) removes that site from the effect summaries — one
//! justification where the invariant lives, not one per hot caller —
//! while any other, unallowed site in the same function still
//! propagates and prints its own witness chain.

use crate::graph::Workspace;
use crate::report::Finding;
use crate::summary::{Effect, Summaries};
use crate::RULE_PANIC_REACH;

/// Function names whose bodies are hot paths: the `Maintain` write
/// and read entries `Session` dispatches (`ingest`,
/// `ingest_weighted`, `answer`), the inherent `apply_batch` they
/// delegate to, and the sketch-arena merge / sample / converge-cast
/// entries.
pub const HOT_FNS: &[&str] = &[
    "apply_batch",
    "ingest",
    "ingest_weighted",
    "answer",
    "merge_into",
    "merge_copy_into",
    "subtract_from",
    "subtract_copy_from",
    "sample_merged",
    "sample_scratch",
    "converge_cast",
];

/// Whether `rel_path` is the sketch loop module, whose functions are
/// hot roots wholesale.
pub(crate) fn is_kernels_file(rel_path: &str) -> bool {
    rel_path == "crates/sketch/src/kernels.rs"
}

/// Whether workspace function `f` is a hot root for reachability.
pub(crate) fn is_hot_root(ws: &Workspace, f: usize) -> bool {
    let node = &ws.fns[f];
    if node.in_test {
        return false;
    }
    let path = ws.files[node.file].rel_path.as_str();
    let roles = crate::roles_for(path);
    if !roles.panics {
        return false;
    }
    HOT_FNS.contains(&node.name.as_str()) || is_kernels_file(path)
}

/// Checks every hot root's call edges against the panic summaries.
pub fn check(ws: &Workspace, sums: &Summaries) -> Vec<Finding> {
    let mut out = Vec::new();
    for root in 0..ws.fns.len() {
        if !is_hot_root(ws, root) {
            continue;
        }
        // Depth 0: the root's own unallowed sites, each at its line.
        for site in &sums.facts[root].panic_sites {
            out.push(Finding {
                rule: RULE_PANIC_REACH,
                file: ws.files[ws.fns[root].file].rel_path.clone(),
                line: site.line,
                message: format!(
                    "hot path `{}` contains `{}` — this path is panic-free by contract \
                     (PR-3); use `debug_assert!` for invariants or return an error",
                    ws.fns[root].name, site.what,
                ),
            });
        }
        // One finding per distinct panicking callee: the first call
        // site is the anchor, the chain names the rest.
        let mut reported: Vec<usize> = Vec::new();
        for call in &ws.calls[root] {
            if !sums.effects[call.callee].panics || reported.contains(&call.callee) {
                continue;
            }
            reported.push(call.callee);
            let Some((chain, site)) = sums.chain(ws, call.callee, Effect::Panic) else {
                continue; // effect bit without a witness: stale edge
            };
            let mut full = vec![root];
            full.extend(chain);
            let site_file = &ws.files[ws.fns[*full.last().unwrap()].file].rel_path;
            out.push(Finding {
                rule: RULE_PANIC_REACH,
                file: ws.files[ws.fns[root].file].rel_path.clone(),
                line: call.line,
                message: format!(
                    "hot path `{}` can reach `{}` through {} (panic site {}:{}) — every \
                     function on this chain must surface failures as errors, not aborts",
                    ws.fns[root].name,
                    site.what,
                    sums.render_chain(ws, &full),
                    site_file,
                    site.line,
                ),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileIndex;
    use crate::summary;

    fn run(src: &str) -> Vec<Finding> {
        let ws = Workspace::build(vec![FileIndex::new("crates/core/src/x.rs", src)]);
        let sums = summary::compute(&ws);
        check(&ws, &sums)
    }

    #[test]
    fn two_call_deep_panic_is_reported_with_chain() {
        let src = "pub fn apply_batch(xs: &[u32]) -> u32 { stage(xs) }\n\
                   fn stage(xs: &[u32]) -> u32 { pick(xs) }\n\
                   fn pick(xs: &[u32]) -> u32 { *xs.first().unwrap() }";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("apply_batch -> stage -> pick"));
        assert!(f[0].message.contains(".unwrap()"));
    }

    #[test]
    fn a_justified_allow_at_the_panic_site_silences_every_chain() {
        let src = "pub fn apply_batch(xs: &[u32]) -> u32 { stage(xs) }\n\
                   pub fn answer(xs: &[u32]) -> u32 { stage(xs) }\n\
                   fn stage(xs: &[u32]) -> u32 {\n\
                       // lint: allow(panic-reachability): documented precondition, callers check\n\
                       assert!(!xs.is_empty());\n\
                       xs[0]\n\
                   }";
        assert!(run(src).is_empty(), "{:?}", run(src));
        // An unjustified allow does not suppress.
        let bare = src.replace(": documented precondition, callers check", "");
        assert_eq!(run(&bare).len(), 2, "both roots report the chain");
    }

    #[test]
    fn local_sites_in_a_hot_root_are_reported_at_their_own_lines() {
        let src = "pub fn apply_batch(x: Option<u64>) -> Result<u64, ()> {\n\
                       let v = x.unwrap();\n\
                       assert!(v < 100);\n\
                       let w = x.unwrap_or(0);\n\
                       debug_assert!(w < 100);\n\
                       Ok(v)\n\
                   }\n\
                   pub fn ingest(y: Option<u64>) -> u64 {\n\
                       y.expect(\"always present\")\n\
                   }\n\
                   pub fn setup(x: Option<u64>) -> u64 { x.unwrap() }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn answer() { panic!(\"in tests\"); }\n\
                   }";
        let f = run(src);
        let lines: Vec<u32> = f.iter().map(|f| f.line).collect();
        assert_eq!(lines, vec![2, 3, 9], "{f:?}");
        assert!(f[0].message.contains("`.unwrap()`"), "{f:?}");
        assert!(f[1].message.contains("`assert!`"), "{f:?}");
        assert!(f[2].message.contains("`.expect()`"), "{f:?}");
    }

    #[test]
    fn clean_helpers_and_cold_callers_are_fine() {
        let src = "pub fn apply_batch(xs: &[u32]) -> u32 { total(xs) }\n\
                   fn total(xs: &[u32]) -> u32 { xs.iter().sum() }\n\
                   pub fn setup(xs: &[u32]) -> u32 { risky(xs) }\n\
                   fn risky(xs: &[u32]) -> u32 { xs[0] + panic_on_empty(xs) }\n\
                   fn panic_on_empty(xs: &[u32]) -> u32 { assert!(!xs.is_empty()); 0 }";
        assert!(run(src).is_empty(), "setup is not a hot root");
    }
}
