//! The rule catalog. Each rule lives in its own module and produces
//! [`Finding`](crate::report::Finding)s from the workspace call graph
//! and its effect summaries.

pub mod alloc_hot;
pub mod panic_reach;

/// The justified `// lint: allow(<rule>): …` comment sitting on
/// `line` or the line above in `file`, as (comment line,
/// justification), if any.
///
/// The per-file allow machinery suppresses findings in the file they
/// are *anchored* in; the interprocedural rules use this to also
/// honor an allow at the **site** end of a witness chain — the file
/// holding the panic/alloc — which is usually a different file from
/// the hot root. A documented precondition assert deep in a library
/// is justified once, where it lives, instead of at every hot caller.
/// The returned justification feeds the report's applied-allow list,
/// so site allows stay as auditable as per-file ones.
pub(crate) fn site_allow(
    file: &crate::graph::FileIndex,
    line: u32,
    rule: &str,
) -> Option<(u32, String)> {
    let needle = format!("lint: allow({rule})");
    file.lexed.line_comments.iter().find_map(|(l, text)| {
        if (*l != line && *l + 1 != line) || text.starts_with('/') || text.starts_with('!') {
            return None;
        }
        let pos = text.find(&needle)?;
        let just = text[pos + needle.len()..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim();
        (just.chars().count() >= crate::allow::MIN_JUSTIFICATION).then(|| (*l, just.to_string()))
    })
}
