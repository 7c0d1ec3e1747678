//! Rule `alloc-hot-path`: no heap allocation reachable from the
//! sketch loops or the interleaved merged-copy fold.
//!
//! The loops of `crates/sketch/src/kernels.rs`, `merge_copy_into` and
//! its subtracting twin `subtract_copy_from` sit inside the
//! converge-cast inner loop; an allocation there shows
//! up directly in the per-merge latency the benchmark's `churn`
//! workload and the `sketch/merged_copy` microbench track. Scratch buffers are preallocated by design
//! (`new_scratch`, the SoA columns), so any `Vec::new`/`vec!`/
//! `collect()`/`to_vec()`/… in a loop body — or in anything a
//! loop body calls — is either a regression or needs an explicit
//! `// lint: allow(alloc-hot-path): …` justification at the reported
//! line.

use crate::graph::Workspace;
use crate::report::Finding;
use crate::rules::panic_reach::is_kernels_file;
use crate::summary::{Effect, Summaries};
use crate::RULE_ALLOC_HOT;

/// Function names that are allocation-free roots wherever they are
/// defined (the serial interleaved folds of the converge-cast loop).
const ROOT_FNS: &[&str] = &["merge_copy_into", "subtract_copy_from"];

/// Whether workspace function `f` is an allocation-free root.
fn is_alloc_root(ws: &Workspace, f: usize) -> bool {
    let node = &ws.fns[f];
    if node.in_test {
        return false;
    }
    let path = ws.files[node.file].rel_path.as_str();
    if !crate::roles_for(path).panics {
        return false; // tool crates / tests are out of scope
    }
    ROOT_FNS.contains(&node.name.as_str()) || is_kernels_file(path)
}

/// Reports local allocations in root bodies and call edges into
/// transitively allocating helpers.
pub fn check(ws: &Workspace, sums: &Summaries) -> Vec<Finding> {
    let mut out = Vec::new();
    for root in 0..ws.fns.len() {
        if !is_alloc_root(ws, root) {
            continue;
        }
        let file = ws.files[ws.fns[root].file].rel_path.clone();
        for site in &sums.facts[root].alloc_sites {
            out.push(Finding {
                rule: RULE_ALLOC_HOT,
                file: file.clone(),
                line: site.line,
                message: format!(
                    "`{}` allocates (`{}`) inside the kernel-adjacent hot path — use the \
                     preallocated scratch, or justify with `// lint: allow(alloc-hot-path): …`",
                    ws.fns[root].name, site.what,
                ),
            });
        }
        let mut reported: Vec<usize> = Vec::new();
        for call in &ws.calls[root] {
            if !sums.effects[call.callee].allocates || reported.contains(&call.callee) {
                continue;
            }
            reported.push(call.callee);
            let Some((chain, site)) = sums.chain(ws, call.callee, Effect::Alloc) else {
                continue;
            };
            let mut full = vec![root];
            full.extend(chain);
            let site_file = &ws.files[ws.fns[*full.last().unwrap()].file].rel_path;
            out.push(Finding {
                rule: RULE_ALLOC_HOT,
                file: file.clone(),
                line: call.line,
                message: format!(
                    "`{}` reaches a heap allocation (`{}`) through {} (alloc site {}:{}) — \
                     kernel-adjacent paths run inside the converge-cast inner loop",
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

    fn run(files: &[(&str, &str)]) -> Vec<Finding> {
        let ws = Workspace::build(files.iter().map(|(p, s)| FileIndex::new(p, s)).collect());
        let sums = summary::compute(&ws);
        check(&ws, &sums)
    }

    #[test]
    fn local_and_transitive_allocations_in_roots_are_flagged() {
        let f = run(&[(
            "crates/sketch/src/arena.rs",
            "pub fn merge_copy_into(dst: &mut [u64], src: &[u64]) -> usize {\n\
                 let staged = stage(src);\n\
                 let direct: Vec<u64> = src.to_vec();\n\
                 staged.len() + direct.len()\n\
             }\n\
             fn stage(src: &[u64]) -> Vec<u64> { src.iter().copied().collect() }",
        )]);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f
            .iter()
            .any(|x| x.line == 3 && x.message.contains(".to_vec()")));
        assert!(f
            .iter()
            .any(|x| x.line == 2 && x.message.contains("merge_copy_into -> stage")));
    }

    #[test]
    fn kernels_file_fns_are_roots() {
        let dirty = run(&[(
            "crates/sketch/src/kernels.rs",
            "pub(crate) fn fold_cells(dst: &mut [u64]) { let t = vec![0u64; dst.len()]; }",
        )]);
        assert_eq!(dirty.len(), 1);
    }
}
