//! Rule `unsafe-hygiene`: `unsafe` is confined to an explicit
//! allowlist, and every use carries a `// SAFETY:` argument.
//!
//! The workspace has exactly one module with a legitimate need for
//! `unsafe` — the work-stealing executor (`crates/mpc/src/executor.rs`),
//! whose lifetime-erasure and disjoint-claim tricks are documented
//! and runtime-audited. Everywhere else `unsafe` is banned outright
//! (and statically excluded via `#![forbid(unsafe_code)]`, which this
//! rule also verifies on every crate root except `mpc-sim`'s).

use super::FileCtx;
use crate::report::Finding;
use crate::RULE_UNSAFE;

/// The only files allowed to contain `unsafe` code.
pub const UNSAFE_ALLOWLIST: &[&str] = &["crates/mpc/src/executor.rs"];

/// Whether `rel_path` is one of the [`UNSAFE_ALLOWLIST`] files.
pub fn is_allowlisted(rel_path: &str) -> bool {
    UNSAFE_ALLOWLIST.contains(&rel_path)
}

/// How many lines above an `unsafe` token a `// SAFETY:` comment may
/// sit (comment blocks directly above the statement count).
const SAFETY_LOOKBACK: u32 = 8;

/// Checks one file for unsafe placement and SAFETY comments.
pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let allowed = is_allowlisted(ctx.rel_path);
    for t in &ctx.lexed.tokens {
        if !t.is_ident("unsafe") {
            continue;
        }
        if !allowed {
            out.push(Finding {
                rule: RULE_UNSAFE,
                file: ctx.rel_path.to_string(),
                line: t.line,
                message: format!(
                    "`unsafe` outside the reviewed allowlist ({}) — extend the \
                     allowlist deliberately or find a safe formulation",
                    UNSAFE_ALLOWLIST.join(", ")
                ),
            });
            continue;
        }
        let lo = t.line.saturating_sub(SAFETY_LOOKBACK);
        let documented = ctx
            .lexed
            .line_comments
            .iter()
            .any(|(l, text)| *l >= lo && *l <= t.line && text.contains("SAFETY:"));
        if !documented {
            out.push(Finding {
                rule: RULE_UNSAFE,
                file: ctx.rel_path.to_string(),
                line: t.line,
                message: format!(
                    "`unsafe` without a `// SAFETY:` comment within the preceding \
                     {SAFETY_LOOKBACK} lines — every unsafe block must argue its soundness \
                     in place"
                ),
            });
        }
    }
    out
}

/// Verifies that a crate root opts out of unsafe code entirely.
/// Returns a finding when `#![forbid(unsafe_code)]` is absent.
pub fn check_forbid(ctx: &FileCtx) -> Option<Finding> {
    let hit = super::find_seq(
        &ctx.lexed.tokens,
        (0, ctx.lexed.tokens.len()),
        &["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"],
    );
    if hit.is_empty() {
        Some(Finding {
            rule: RULE_UNSAFE,
            file: ctx.rel_path.to_string(),
            line: 1,
            message: "crate root is missing `#![forbid(unsafe_code)]` — every crate except \
                      mpc-sim forbids unsafe at the compiler level"
                .to_string(),
        })
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::scan;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ranges = scan::test_line_ranges(&lexed);
        check(&FileCtx {
            rel_path: path,
            lexed: &lexed,
            test_ranges: &ranges,
        })
    }

    #[test]
    fn allowlist_matches_files_exactly() {
        assert!(is_allowlisted("crates/mpc/src/executor.rs"));
        // An exact-file entry does not allowlist its siblings.
        assert!(!is_allowlisted("crates/mpc/src/executor2.rs"));
        assert!(!is_allowlisted("crates/mpc/src/context.rs"));
        assert!(!is_allowlisted("crates/sketch/src/kernels.rs"));
        assert!(!is_allowlisted("crates/sketch/src/arena.rs"));
    }

    #[test]
    fn unsafe_outside_allowlist_is_flagged() {
        let f = run("crates/core/src/session.rs", "fn f() { unsafe { g() } }");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("allowlist"));
        let f = run("crates/sketch/src/kernels.rs", "fn f() { unsafe { g() } }");
        assert_eq!(f.len(), 1, "the sketch loops are not allowlisted");
    }

    #[test]
    fn allowlisted_unsafe_needs_safety_comment() {
        let dirty = "fn f() {\n    let x = unsafe { g() };\n}";
        let clean = "fn f() {\n    // SAFETY: g is sound here because reasons.\n    let x = unsafe { g() };\n}";
        let path = "crates/mpc/src/executor.rs";
        let f = run(path, dirty);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("SAFETY"));
        assert!(run(path, clean).is_empty());
    }

    fn opt_out_ctx(src: &str) -> (crate::lexer::Lexed, &'static str) {
        (lex(src), "crates/graph/src/lib.rs")
    }

    #[test]
    fn forbid_attribute_is_required() {
        let (lexed, rel_path) = opt_out_ctx("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n");
        let ctx = FileCtx {
            rel_path,
            lexed: &lexed,
            test_ranges: &[],
        };
        assert!(check_forbid(&ctx).is_none());
        let (lexed, rel_path) = opt_out_ctx("//! docs\npub fn f() {}\n");
        let ctx = FileCtx {
            rel_path,
            lexed: &lexed,
            test_ranges: &[],
        };
        assert!(check_forbid(&ctx).is_some());
    }
}
