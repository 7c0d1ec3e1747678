//! The rule catalog. Each rule lives in its own module and produces
//! [`Finding`](crate::report::Finding)s; scoping (which rules see
//! which files) is decided by [`crate::lint_source`].

pub mod alloc_hot;
pub mod determinism;
pub mod io_hygiene;
pub mod panic_reach;
pub mod unsafety;

use crate::lexer::Lexed;

/// Everything a per-file rule needs to know about one source file.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// The lexed source.
    pub lexed: &'a Lexed,
    /// `#[cfg(test)]`/`#[test]` line ranges (rules skip these).
    pub test_ranges: &'a [(u32, u32)],
}

/// Searches `tokens[range]` for the token sequence `pattern`, where
/// each pattern element matches an identifier (`"name"`) or a single
/// punctuation character (`"."`, `"!"`, …). Returns matching start
/// indices.
pub(crate) fn find_seq(
    tokens: &[crate::lexer::Token],
    range: (usize, usize),
    pattern: &[&str],
) -> Vec<usize> {
    let mut out = Vec::new();
    let (lo, hi) = range;
    if pattern.is_empty() || hi > tokens.len() {
        return out;
    }
    'outer: for i in lo..hi.saturating_sub(pattern.len() - 1) {
        for (k, p) in pattern.iter().enumerate() {
            let t = &tokens[i + k];
            let ok = if p.len() == 1
                && !p.chars().next().unwrap().is_ascii_alphanumeric()
                && *p != "_"
            {
                t.is_punct(p.chars().next().unwrap())
            } else {
                t.is_ident(p)
            };
            if !ok {
                continue 'outer;
            }
        }
        out.push(i);
    }
    out
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_seq_matches_idents_and_puncts() {
        let l = crate::lexer::lex("self.record(MpcEvent::Sort(w));");
        let hits = find_seq(
            &l.tokens,
            (0, l.tokens.len()),
            &["self", ".", "record", "(", "MpcEvent", ":", ":", "Sort"],
        );
        assert_eq!(hits.len(), 1);
    }
}
