//! The workspace symbol table and call graph.
//!
//! Interprocedural rules (panic-reachability, alloc-hot-path) need
//! to see *through* calls: a hot path that
//! delegates to a panicking helper is just as broken as one that
//! unwraps inline. This module indexes every function item in the
//! workspace — name, owning `impl` type, crate, visibility, body span
//! — and resolves call sites by name, the same clean-room way the
//! rest of the linter works: no `syn`, no type inference, just the
//! token stream plus the workspace's own naming conventions.
//!
//! # Resolution policy
//!
//! A call site resolves only to functions *defined in this
//! workspace*; `.push(..)`, `.iter()` and friends that match nothing
//! produce no edge. Candidates are ranked the way Rust's own name
//! lookup would find them:
//!
//! * `Type::name(..)` — functions owned by `impl Type`; `Self::`
//!   maps to the enclosing impl's type; a lowercase qualifier is
//!   treated as a module path and preferred to functions defined in a
//!   file of that name (`portable::fold_cells_soa`).
//! * `self.name(..)` — methods of the enclosing impl's type first.
//! * `.name(..)` on any other receiver — methods anywhere, same
//!   crate preferred, then `pub` methods across crates. Only
//!   functions with a `self` receiver qualify: dot syntax cannot
//!   dispatch to an associated function, so `counter.load(Ordering)`
//!   never resolves to a `Persist::load` constructor.
//! * bare `name(..)` — free functions, same crate preferred, then
//!   `pub` across crates. Uppercase bare calls are tuple-struct /
//!   enum-variant constructors, never function calls, and are
//!   skipped.
//!
//! Where several candidates survive ranking the edge goes to **all**
//! of them — reachability rules over-approximate rather than miss a
//! path. One exception narrows instead of widening: when the call
//! site's argument count matches *some* candidate's parameter count,
//! candidates with a different arity are dropped (`cfg.capacity()`
//! must not resolve to a one-argument builder setter of the same
//! name). If no candidate matches the computed arity — closures,
//! macros and shift operators can confuse the comma counter — the
//! filter backs off and every ranked candidate keeps its edge.

use crate::lexer::{Lexed, Token};
use crate::scan;
use std::collections::BTreeMap;

/// One lexed workspace file, ready for indexing.
pub struct FileIndex {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: String,
    /// The lexed source.
    pub lexed: Lexed,
    /// `#[cfg(test)]`/`#[test]` line ranges.
    pub test_ranges: Vec<(u32, u32)>,
}

impl FileIndex {
    /// Lexes `source` as the file at `rel_path`.
    pub fn new(rel_path: &str, source: &str) -> Self {
        let lexed = crate::lexer::lex(source);
        let test_ranges = scan::test_line_ranges(&lexed);
        FileIndex {
            rel_path: rel_path.to_string(),
            lexed,
            test_ranges,
        }
    }
}

/// One function item in the workspace symbol table.
pub struct FnNode {
    /// The function name.
    pub name: String,
    /// The `impl` type that owns this method, if any.
    pub owner: Option<String>,
    /// The crate this function lives in (`crates/<k>/…` → `k`).
    pub krate: String,
    /// Index into [`Workspace::files`].
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared with bare `pub` (visible across crates).
    pub cross_pub: bool,
    /// Declared with any `pub` marker, including `pub(crate)`.
    pub visible: bool,
    /// Token range of the signature (`fn` up to the body `{`).
    pub sig: (usize, usize),
    /// Parameter count, excluding any `self` receiver.
    pub arity: usize,
    /// Takes a `self` receiver (dot calls dispatch only to these).
    pub has_self: bool,
    /// Token range of the body, excluding the outer braces.
    pub body: (usize, usize),
    /// Defined inside a `#[cfg(test)]`/`#[test]` region.
    pub in_test: bool,
}

/// One `impl` block, with its trait and self-type names resolved.
pub struct ImplInfo {
    /// Trait being implemented (`impl Trait for T`), if any.
    pub trait_name: Option<String>,
    /// The self type `T` (first path segment).
    pub type_name: Option<String>,
    /// 1-based line of the `impl` keyword.
    pub line: u32,
    /// Token range of the body, excluding the outer braces.
    pub body: (usize, usize),
}

/// One resolved call edge out of a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the callee in [`Workspace::fns`].
    pub callee: usize,
    /// Token index of the callee-name token in the caller's file.
    pub token: usize,
    /// 1-based line of the call site.
    pub line: u32,
}

/// The indexed workspace: files, functions, impls, and call edges.
pub struct Workspace {
    /// Every indexed file.
    pub files: Vec<FileIndex>,
    /// Every function item, across all files.
    pub fns: Vec<FnNode>,
    /// `impl` blocks per file (parallel to [`Workspace::files`]).
    pub impls: Vec<Vec<ImplInfo>>,
    /// Resolved call edges per function (parallel to
    /// [`Workspace::fns`]).
    pub calls: Vec<Vec<CallSite>>,
}

/// Keywords that look like `name(` call sites but never are.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "match", "for", "return", "loop", "in", "as", "move", "fn", "let", "else",
    "unsafe", "box", "await", "impl", "where", "pub", "use", "mod", "crate", "super", "mut", "ref",
    "dyn", "break", "continue", "struct", "enum", "union", "trait", "type", "static", "const",
    "self",
];

/// The crate a workspace-relative path belongs to.
pub fn crate_of(rel_path: &str) -> &str {
    if let Some(rest) = rel_path.strip_prefix("crates/") {
        rest.split('/').next().unwrap_or(rest)
    } else {
        // The facade (`src/lib.rs`) and stray roots.
        "mpc_stream"
    }
}

/// Extracts `(trait, type)` names from an `impl` header token range:
/// `impl<G> Maintain for ExactMsf<G>` → `(Some("Maintain"),
/// Some("ExactMsf"))`; `impl SketchArena` → `(None,
/// Some("SketchArena"))`.
fn impl_names(tokens: &[Token], header: (usize, usize)) -> (Option<String>, Option<String>) {
    let (mut i, hi) = header;
    // Skip leading generic parameters `<...>`.
    if i < hi && tokens[i].is_punct('<') {
        let mut depth = 0i32;
        while i < hi {
            if tokens[i].is_punct('<') && !(i > header.0 && tokens[i - 1].is_punct('-')) {
                depth += 1;
            } else if tokens[i].is_punct('>') && !(i > header.0 && tokens[i - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    i += 1;
                    break;
                }
            }
            i += 1;
        }
    }
    let idents: Vec<&str> = tokens[i..hi].iter().filter_map(|t| t.ident()).collect();
    if let Some(pos) = idents.iter().position(|s| *s == "for") {
        let trait_name = pos.checked_sub(1).map(|p| idents[p].to_string());
        let type_name = idents.get(pos + 1).map(|s| s.to_string());
        (trait_name, type_name)
    } else {
        (None, idents.first().map(|s| s.to_string()))
    }
}

/// Visibility of the tokens immediately before `fn` (at
/// `sig_start`): `(any pub marker, bare cross-crate pub)` —
/// `pub(crate)` and friends set only the first flag.
fn visibility(tokens: &[Token], sig_start: usize) -> (bool, bool) {
    let mut j = sig_start;
    while j > 0 {
        j -= 1;
        let t = &tokens[j];
        let modifier = matches!(
            t.ident(),
            Some("unsafe" | "const" | "async" | "extern" | "default" | "crate" | "super" | "in")
        ) || t.is_punct('(')
            || t.is_punct(')')
            || matches!(t.kind, crate::lexer::TokenKind::Literal);
        if t.is_ident("pub") {
            return (true, !tokens.get(j + 1).is_some_and(|n| n.is_punct('(')));
        }
        if !modifier {
            return (false, false);
        }
    }
    (false, false)
}

/// Counts comma-separated items between the `(` at `open` and its
/// matching `)`, nesting-aware for `()[]{}<>` and closure pipes.
/// Returns `None` when the parens never close inside `hi`.
fn count_args(tokens: &[Token], open: usize, hi: usize) -> Option<usize> {
    let mut depth = 0i32; // () [] {}
    let mut angle = 0i32; // <>, clamped: `a < b` never closes
    let mut in_closure = false;
    let mut items = 0usize;
    let mut item_has_tokens = false;
    let mut i = open;
    while i < hi {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                if item_has_tokens {
                    items += 1;
                }
                return Some(items);
            }
        } else if depth == 1 && angle == 0 {
            if t.is_punct('|') {
                in_closure = !in_closure;
            } else if t.is_punct('<') && !tokens.get(i + 1).is_some_and(|n| n.is_punct('-')) {
                angle += 1;
            } else if t.is_punct(',') && !in_closure {
                items += 1;
                item_has_tokens = false;
                i += 1;
                continue;
            }
        } else if depth == 1 && angle > 0 {
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(i > 0 && tokens[i - 1].is_punct('-')) {
                angle -= 1;
            }
        }
        if i > open && depth >= 1 {
            item_has_tokens = true;
        }
        i += 1;
    }
    None
}

/// Parameter count of the signature range (excluding a `self`
/// receiver) plus whether a receiver is present. Falls back to
/// `(usize::MAX, true)` — an arity that matches nothing, so the
/// filter backs off, and a receiver bit that keeps the function a
/// dot-call candidate — when the parameter list cannot be found.
fn count_params(tokens: &[Token], sig: (usize, usize)) -> (usize, bool) {
    // `fn name` then either `(` or a generic `<...>` group first —
    // skipped whole, so an `Fn(u32)` bound is not taken for the
    // parameter list.
    let mut open = sig.0 + 2;
    if open < sig.1 && tokens[open].is_punct('<') {
        let mut angle = 0i32;
        while open < sig.1 {
            let t = &tokens[open];
            if t.is_punct('<') {
                angle += 1;
            } else if t.is_punct('>') && !(open > 0 && tokens[open - 1].is_punct('-')) {
                angle -= 1;
                if angle == 0 {
                    open += 1;
                    break;
                }
            }
            open += 1;
        }
    }
    if open >= sig.1 || !tokens[open].is_punct('(') {
        return (usize::MAX, true);
    }
    let Some(n) = count_args(tokens, open, sig.1) else {
        return (usize::MAX, true);
    };
    // A receiver is a first parameter mentioning `self` before any
    // top-level `,` — `&self`, `&'a mut self`, `self: Arc<Self>`.
    let mut depth = 0i32;
    for t in &tokens[open..sig.1] {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                break;
            }
        } else if depth == 1 && t.is_punct(',') {
            break;
        } else if t.is_ident("self") {
            return (n.saturating_sub(1), true);
        }
    }
    (n, false)
}

impl Workspace {
    /// Indexes `files` and resolves every call site.
    pub fn build(files: Vec<FileIndex>) -> Workspace {
        let mut fns = Vec::new();
        let mut impls = Vec::new();
        for (fi, file) in files.iter().enumerate() {
            let tokens = &file.lexed.tokens;
            let file_impls: Vec<ImplInfo> = scan::impls(&file.lexed)
                .into_iter()
                .map(|im| {
                    let (trait_name, type_name) = impl_names(tokens, im.header);
                    ImplInfo {
                        trait_name,
                        type_name,
                        line: im.line,
                        body: im.body,
                    }
                })
                .collect();
            for f in scan::functions(&file.lexed) {
                let owner = file_impls
                    .iter()
                    .find(|im| im.body.0 <= f.sig.0 && f.sig.0 < im.body.1)
                    .and_then(|im| im.type_name.clone());
                let (visible, cross_pub) = visibility(tokens, f.sig.0);
                let (arity, has_self) = count_params(tokens, f.sig);
                fns.push(FnNode {
                    name: f.name.clone(),
                    owner,
                    krate: crate_of(&file.rel_path).to_string(),
                    file: fi,
                    line: f.line,
                    cross_pub,
                    visible,
                    sig: f.sig,
                    arity,
                    has_self,
                    body: f.body,
                    in_test: scan::in_ranges(&file.test_ranges, f.line),
                });
            }
            impls.push(file_impls);
        }

        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in fns.iter().enumerate() {
            by_name.entry(f.name.as_str()).or_default().push(i);
        }

        let mut calls = vec![Vec::new(); fns.len()];
        for (ci, caller) in fns.iter().enumerate() {
            let file = &files[caller.file];
            let tokens = &file.lexed.tokens;
            let (lo, hi) = caller.body;
            for i in lo..hi {
                let Some(name) = tokens[i].ident() else {
                    continue;
                };
                if !tokens.get(i + 1).is_some_and(|t| t.is_punct('(')) || i + 1 >= hi {
                    continue;
                }
                let Some(candidates) = by_name.get(name) else {
                    continue;
                };
                let prev = (i > 0).then(|| &tokens[i - 1]);
                let resolved: Vec<usize> = if prev.is_some_and(|p| p.is_punct('.')) {
                    // Method call: `recv.name(..)`.
                    let recv_self = i >= 2 && tokens[i - 2].is_ident("self");
                    rank_methods(&fns, candidates, caller, recv_self)
                } else if i >= 2 && tokens[i - 1].is_punct(':') && tokens[i - 2].is_punct(':') {
                    // Qualified call: `Qual::name(..)`.
                    let qual = (i >= 3).then(|| &tokens[i - 3]).and_then(|t| t.ident());
                    rank_qualified(&fns, &files, candidates, caller, qual)
                } else {
                    // Bare call: `name(..)` — skip keywords, macro-ish
                    // positions, and constructor casing.
                    if NON_CALL_KEYWORDS.contains(&name)
                        || name.starts_with(|c: char| c.is_ascii_uppercase())
                        || prev.is_some_and(|p| p.is_ident("fn") || p.is_punct(':'))
                    {
                        continue;
                    }
                    rank_free(&fns, candidates, caller)
                };
                // Arity filter: if the argument count matches some
                // candidate, drop the mismatched ones; otherwise the
                // counter was confused and every candidate stays.
                let resolved = match count_args(tokens, i + 1, tokens.len()) {
                    Some(n) if resolved.iter().any(|&c| fns[c].arity == n) => resolved
                        .into_iter()
                        .filter(|&c| fns[c].arity == n)
                        .collect(),
                    _ => resolved,
                };
                for callee in resolved {
                    if callee == ci {
                        continue; // self-recursion adds nothing
                    }
                    calls[ci].push(CallSite {
                        callee,
                        token: i,
                        line: tokens[i].line,
                    });
                }
            }
        }

        Workspace {
            files,
            fns,
            impls,
            calls,
        }
    }
}

/// Keeps the best-ranked non-empty candidate tier: same crate first,
/// then cross-crate `pub`.
fn prefer_same_crate(fns: &[FnNode], candidates: Vec<usize>, krate: &str) -> Vec<usize> {
    let same: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].krate == krate)
        .collect();
    if !same.is_empty() {
        return same;
    }
    candidates
        .into_iter()
        .filter(|&c| fns[c].cross_pub)
        .collect()
}

fn rank_methods(
    fns: &[FnNode],
    candidates: &[usize],
    caller: &FnNode,
    recv_self: bool,
) -> Vec<usize> {
    let methods: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].owner.is_some() && fns[c].has_self && !fns[c].in_test)
        .collect();
    if recv_self {
        if let Some(owner) = &caller.owner {
            let own: Vec<usize> = methods
                .iter()
                .copied()
                .filter(|&c| fns[c].owner.as_deref() == Some(owner))
                .collect();
            if !own.is_empty() {
                return prefer_same_crate(fns, own, &caller.krate);
            }
        }
    }
    prefer_same_crate(fns, methods, &caller.krate)
}

fn rank_qualified(
    fns: &[FnNode],
    files: &[FileIndex],
    candidates: &[usize],
    caller: &FnNode,
    qual: Option<&str>,
) -> Vec<usize> {
    let Some(qual) = qual else {
        return Vec::new();
    };
    let qual = if qual == "Self" {
        match &caller.owner {
            Some(t) => t.as_str(),
            None => return Vec::new(),
        }
    } else {
        qual
    };
    if qual.starts_with(|c: char| c.is_ascii_uppercase()) {
        let owned: Vec<usize> = candidates
            .iter()
            .copied()
            .filter(|&c| fns[c].owner.as_deref() == Some(qual) && !fns[c].in_test)
            .collect();
        return prefer_same_crate(fns, owned, &caller.krate);
    }
    // Lowercase qualifier: a module path. Prefer free functions whose
    // defining file is named after the last path segment.
    let free: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].owner.is_none() && !fns[c].in_test)
        .collect();
    let in_module: Vec<usize> = free
        .iter()
        .copied()
        .filter(|&c| {
            files[fns[c].file]
                .rel_path
                .rsplit('/')
                .next()
                .is_some_and(|stem| stem == format!("{qual}.rs"))
        })
        .collect();
    if !in_module.is_empty() {
        return prefer_same_crate(fns, in_module, &caller.krate);
    }
    prefer_same_crate(fns, free, &caller.krate)
}

fn rank_free(fns: &[FnNode], candidates: &[usize], caller: &FnNode) -> Vec<usize> {
    let free: Vec<usize> = candidates
        .iter()
        .copied()
        .filter(|&c| fns[c].owner.is_none() && !fns[c].in_test)
        .collect();
    prefer_same_crate(fns, free, &caller.krate)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(files.iter().map(|(p, s)| FileIndex::new(p, s)).collect())
    }

    fn fn_idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    fn callee_names(ws: &Workspace, caller: &str) -> Vec<String> {
        let ci = fn_idx(ws, caller);
        let mut names: Vec<String> = ws.calls[ci]
            .iter()
            .map(|c| ws.fns[c.callee].name.clone())
            .collect();
        names.sort();
        names.dedup();
        names
    }

    #[test]
    fn free_calls_resolve_same_crate_then_pub() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { helper(); cross(); std_only(); }\nfn helper() {}",
            ),
            ("crates/b/src/lib.rs", "pub fn cross() {}\nfn hidden() {}"),
        ]);
        assert_eq!(callee_names(&w, "entry"), vec!["cross", "helper"]);
    }

    #[test]
    fn self_method_prefers_enclosing_impl_type() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct A; struct B;\n\
             impl A { fn go(&self) { self.step(); } fn step(&self) {} }\n\
             impl B { fn step(&self) {} }",
        )]);
        let go = fn_idx(&w, "go");
        assert_eq!(w.calls[go].len(), 1);
        assert_eq!(w.fns[w.calls[go][0].callee].owner.as_deref(), Some("A"));
    }

    #[test]
    fn qualified_calls_use_owner_and_module_stems() {
        let w = ws(&[
            (
                "crates/a/src/lib.rs",
                "pub fn entry() { B::make(); portable::fold(); Self_less(); }\n\
                 struct B; impl B { pub fn make() {} }\n\
                 fn Self_less() {}",
            ),
            ("crates/a/src/portable.rs", "pub(crate) fn fold() {}"),
            ("crates/a/src/avx2.rs", "pub(crate) fn fold() {}"),
        ]);
        let entry = fn_idx(&w, "entry");
        let folds: Vec<&str> = w.calls[entry]
            .iter()
            .filter(|c| w.fns[c.callee].name == "fold")
            .map(|c| w.files[w.fns[c.callee].file].rel_path.as_str())
            .collect();
        assert_eq!(folds, vec!["crates/a/src/portable.rs"]);
        assert!(callee_names(&w, "entry").contains(&"make".to_string()));
    }

    #[test]
    fn constructors_keywords_and_test_fns_produce_no_edges() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn entry(x: Option<u32>) -> u32 { if check(x) { Wrapper(3).0 } else { 0 } }\n\
             fn check(_x: Option<u32>) -> bool { true }\n\
             struct Wrapper(u32);\n\
             fn Wrapper_like() {}\n\
             #[cfg(test)] mod tests { pub fn check(_x: Option<u32>) -> bool { false } }",
        )]);
        assert_eq!(callee_names(&w, "entry"), vec!["check"]);
        let entry = fn_idx(&w, "entry");
        for c in &w.calls[entry] {
            assert!(!w.fns[c.callee].in_test);
        }
    }

    #[test]
    fn impl_headers_resolve_trait_and_type() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "impl<G: Graph> Maintain for ExactMsf<G> { fn answer(&mut self) {} }\n\
             impl SketchArena { fn tidy(&mut self) {} }",
        )]);
        let im = &w.impls[0];
        assert_eq!(im[0].trait_name.as_deref(), Some("Maintain"));
        assert_eq!(im[0].type_name.as_deref(), Some("ExactMsf"));
        assert_eq!(im[1].trait_name, None);
        assert_eq!(im[1].type_name.as_deref(), Some("SketchArena"));
        assert_eq!(
            ws(&[("crates/a/src/x.rs", "impl Persist for Vec<T> { }")]).impls[0][0]
                .trait_name
                .as_deref(),
            Some("Persist")
        );
    }

    #[test]
    fn arity_filters_same_name_candidates_and_backs_off_when_confused() {
        // A zero-argument getter and a one-argument builder setter
        // share the name `capacity`; only the matching arity gets an
        // edge from each call.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Cfg; struct Builder;\n\
             impl Cfg { fn capacity(&self) -> u64 { 4 } }\n\
             impl Builder { fn capacity(mut self, words: u64) -> Self { self } }\n\
             struct User; impl User {\n\
               fn read(&self) -> u64 { self.cfg.capacity() }\n\
               fn write(&self, b: Builder) -> Builder { b.capacity(8) }\n\
             }",
        )]);
        let read = fn_idx(&w, "read");
        let owners: Vec<&str> = w.calls[read]
            .iter()
            .map(|c| w.fns[c.callee].owner.as_deref().unwrap())
            .collect();
        assert_eq!(owners, vec!["Cfg"]);
        let write = fn_idx(&w, "write");
        let owners: Vec<&str> = w.calls[write]
            .iter()
            .map(|c| w.fns[c.callee].owner.as_deref().unwrap())
            .collect();
        assert_eq!(owners, vec!["Builder"]);
        // Closure pipes keep their commas out of the count; a bitwise
        // `|` confuses the toggle, and the filter backs off to the
        // ranked candidates instead of dropping the real callee.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "fn apply(f: impl Fn(u64, u64) -> u64) -> u64 { f(1, 2) }\n\
             fn two(a: u64, b: u64) -> u64 { a + b }\n\
             fn run() -> u64 { apply(|a, b| a + b) + two(1 | 2, 3) }",
        )]);
        let run = fn_idx(&w, "run");
        assert_eq!(callee_names(&w, "run"), vec!["apply", "two"]);
        assert_eq!(w.calls[run].len(), 2);
    }

    #[test]
    fn dot_calls_never_resolve_to_associated_functions() {
        // `counter.load(Ordering)` must not pick up a `Persist::load`
        // constructor: dot syntax needs a `self` receiver.
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "struct Cfg; impl Cfg { pub fn load(r: u64) -> Cfg { Cfg } }\n\
             struct Cell; impl Cell { pub fn load(&self, o: u64) -> u64 { o } }\n\
             pub fn poll(c: &Cell) -> u64 { c.load(1) }\n\
             pub fn restore() -> Cfg { Cfg::load(7) }",
        )]);
        let poll = fn_idx(&w, "poll");
        let owners: Vec<&str> = w.calls[poll]
            .iter()
            .map(|c| w.fns[c.callee].owner.as_deref().unwrap())
            .collect();
        assert_eq!(owners, vec!["Cell"]);
        let restore = fn_idx(&w, "restore");
        let owners: Vec<&str> = w.calls[restore]
            .iter()
            .map(|c| w.fns[c.callee].owner.as_deref().unwrap())
            .collect();
        assert_eq!(owners, vec!["Cfg"], "path calls still reach it");
    }

    #[test]
    fn visibility_and_crates_are_recorded() {
        let w = ws(&[(
            "crates/a/src/lib.rs",
            "pub fn a() {}\npub(crate) fn b() {}\nfn c() {}\npub unsafe fn d() {}",
        )]);
        let vis: Vec<bool> = w.fns.iter().map(|f| f.cross_pub).collect();
        assert_eq!(vis, vec![true, false, false, true]);
        assert_eq!(w.fns[0].krate, "a");
        assert_eq!(crate_of("src/lib.rs"), "mpc_stream");
        assert_eq!(crate_of("crates/mpc-lint/src/lib.rs"), "mpc-lint");
    }
}
