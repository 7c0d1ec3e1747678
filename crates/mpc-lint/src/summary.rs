//! Per-function effect summaries over the call graph.
//!
//! Each function gets a *local* fact set — panicking constructs and
//! heap-allocating constructs, found by the same token patterns the
//! body-local rules use — and a *transitive* effect vector computed
//! to fixpoint over [`Workspace::calls`]: a function panics if its
//! body panics or any callee panics, and likewise for allocation. Rules
//! then ask reachability questions (`does this hot path reach a
//! panic?`) and print the witness chain.
//!
//! A site carrying a justified site-level allow
//! (`// lint: allow(panic-reachability): …` /
//! `// lint: allow(alloc-hot-path): …`) is dropped from the facts
//! *here*, before the fixpoint — the documented precondition assert
//! stops poisoning every transitive caller, while any *other*,
//! unallowed site in the same function still propagates and gets its
//! own witness chain.

use crate::graph::Workspace;
use crate::lexer::Token;

/// Macros that abort (`debug_assert!*` are distinct identifiers and
/// stay legal).
pub const PANIC_MACROS: &[&str] = &[
    "panic",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Methods that abort on the error/none side.
pub const PANIC_METHODS: &[&str] = &["unwrap", "expect"];

/// Heap-allocating constructs flagged on kernel-adjacent paths. Each
/// entry is a token pattern for [`find_seq`].
const ALLOC_PATTERNS: &[(&[&str], &str)] = &[
    (&["Vec", ":", ":", "new"], "Vec::new"),
    (&["Vec", ":", ":", "with_capacity"], "Vec::with_capacity"),
    (&["vec", "!"], "vec!"),
    (&["Box", ":", ":", "new"], "Box::new"),
    (&["String", ":", ":", "new"], "String::new"),
    (&["String", ":", ":", "from"], "String::from"),
    (&["format", "!"], "format!"),
    (&["BTreeMap", ":", ":", "new"], "BTreeMap::new"),
    (&["BTreeSet", ":", ":", "new"], "BTreeSet::new"),
    (&[".", "to_vec", "("], ".to_vec()"),
    (&[".", "to_string", "("], ".to_string()"),
    (&[".", "to_owned", "("], ".to_owned()"),
    (&[".", "collect", "("], ".collect()"),
];

/// One construct occurrence inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// Token index in the defining file.
    pub token: usize,
    /// 1-based line.
    pub line: u32,
    /// Human-readable construct name (`unwrap`, `vec!`, …).
    pub what: String,
}

/// Local facts for one function body.
#[derive(Debug, Default)]
pub struct FnFacts {
    /// Panicking constructs in the body.
    pub panic_sites: Vec<Site>,
    /// Heap-allocating constructs in the body.
    pub alloc_sites: Vec<Site>,
}

/// Transitive effects of one function.
#[derive(Debug, Default, Clone, Copy)]
pub struct Effects {
    /// Body or any transitive callee can panic.
    pub panics: bool,
    /// Body or any transitive callee heap-allocates.
    pub allocates: bool,
}

/// Local facts plus fixpoint effects for every workspace function.
pub struct Summaries {
    /// Parallel to [`Workspace::fns`].
    pub facts: Vec<FnFacts>,
    /// Parallel to [`Workspace::fns`].
    pub effects: Vec<Effects>,
    /// Site-level allows that actually gated a panic/alloc site, for
    /// the report's audit trail (deduplicated by file, line, rule).
    pub applied: Vec<crate::report::AppliedAllow>,
}

/// Computes local facts and runs the effect fixpoint.
pub fn compute(ws: &Workspace) -> Summaries {
    let mut facts = Vec::with_capacity(ws.fns.len());
    let mut applied: Vec<crate::report::AppliedAllow> = Vec::new();
    let mut record =
        |file: &crate::graph::FileIndex, comment_line: u32, rule: &str, just: String| {
            let dup = applied
                .iter()
                .any(|a| a.file == file.rel_path && a.line == comment_line && a.rule == rule);
            if !dup {
                applied.push(crate::report::AppliedAllow {
                    rule: rule.to_string(),
                    file: file.rel_path.clone(),
                    line: comment_line,
                    justification: just,
                });
            }
        };
    for f in &ws.fns {
        if f.in_test {
            // Test bodies panic and allocate on purpose and are never
            // call targets of production code.
            facts.push(FnFacts::default());
            continue;
        }
        let file = &ws.files[f.file];
        let tokens = &file.lexed.tokens;
        let mut ff = FnFacts::default();
        for m in PANIC_METHODS {
            for hit in find_seq(tokens, f.body, &[".", m, "("]) {
                if let Some((l, just)) =
                    crate::rules::site_allow(file, tokens[hit].line, crate::RULE_PANIC_REACH)
                {
                    record(file, l, crate::RULE_PANIC_REACH, just);
                    continue;
                }
                ff.panic_sites.push(Site {
                    token: hit,
                    line: tokens[hit].line,
                    what: format!(".{m}()"),
                });
            }
        }
        for m in PANIC_MACROS {
            for hit in find_seq(tokens, f.body, &[m, "!"]) {
                if let Some((l, just)) =
                    crate::rules::site_allow(file, tokens[hit].line, crate::RULE_PANIC_REACH)
                {
                    record(file, l, crate::RULE_PANIC_REACH, just);
                    continue;
                }
                ff.panic_sites.push(Site {
                    token: hit,
                    line: tokens[hit].line,
                    what: format!("{m}!"),
                });
            }
        }
        for (pat, what) in ALLOC_PATTERNS {
            for hit in find_seq(tokens, f.body, pat) {
                if let Some((l, just)) =
                    crate::rules::site_allow(file, tokens[hit].line, crate::RULE_ALLOC_HOT)
                {
                    record(file, l, crate::RULE_ALLOC_HOT, just);
                    continue;
                }
                ff.alloc_sites.push(Site {
                    token: hit,
                    line: tokens[hit].line,
                    what: (*what).to_string(),
                });
            }
        }
        ff.panic_sites.sort_by_key(|s| s.token);
        ff.alloc_sites.sort_by_key(|s| s.token);
        facts.push(ff);
    }

    let mut effects: Vec<Effects> = facts
        .iter()
        .map(|f| Effects {
            panics: !f.panic_sites.is_empty(),
            allocates: !f.alloc_sites.is_empty(),
        })
        .collect();
    // Fixpoint: propagate callee effects up. Terminates because each
    // pass can only flip flags from false to true.
    loop {
        let mut changed = false;
        for (i, calls) in ws.calls.iter().enumerate() {
            for c in calls {
                let e = effects[c.callee];
                let mine = &mut effects[i];
                if (e.panics && !mine.panics) || (e.allocates && !mine.allocates) {
                    mine.panics |= e.panics;
                    mine.allocates |= e.allocates;
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }

    applied.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Summaries {
        facts,
        effects,
        applied,
    }
}

/// Searches `tokens[range]` for the token sequence `pattern`, where
/// each pattern element matches an identifier (`"name"`) or a single
/// punctuation character (`"."`, `"!"`, …). Returns matching start
/// indices.
fn find_seq(tokens: &[Token], range: (usize, usize), pattern: &[&str]) -> Vec<usize> {
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

/// Which effect a chain query is about.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// Panicking constructs.
    Panic,
    /// Heap-allocating constructs.
    Alloc,
}

impl Summaries {
    /// Shortest call chain from `start` to a function with a local
    /// site of `effect`, as (`fn chain including start`, `site`). The
    /// chain is found by breadth-first search, so the printed witness
    /// is minimal.
    pub fn chain(
        &self,
        ws: &Workspace,
        start: usize,
        effect: Effect,
    ) -> Option<(Vec<usize>, Site)> {
        let local = |f: usize| -> Option<&Site> {
            let ff = &self.facts[f];
            match effect {
                Effect::Panic => ff.panic_sites.first(),
                Effect::Alloc => ff.alloc_sites.first(),
            }
        };
        let mut parent: Vec<Option<usize>> = vec![None; ws.fns.len()];
        let mut seen = vec![false; ws.fns.len()];
        let mut queue = std::collections::VecDeque::new();
        seen[start] = true;
        queue.push_back(start);
        while let Some(f) = queue.pop_front() {
            if let Some(site) = local(f) {
                let mut path = vec![f];
                let mut cur = f;
                while let Some(p) = parent[cur] {
                    path.push(p);
                    cur = p;
                }
                path.reverse();
                return Some((path, site.clone()));
            }
            for c in &ws.calls[f] {
                if !seen[c.callee] {
                    seen[c.callee] = true;
                    parent[c.callee] = Some(f);
                    queue.push_back(c.callee);
                }
            }
        }
        None
    }

    /// Renders a call chain as `a → b → c` using fn names.
    pub fn render_chain(&self, ws: &Workspace, chain: &[usize]) -> String {
        chain
            .iter()
            .map(|&f| {
                let node = &ws.fns[f];
                match &node.owner {
                    Some(o) => format!("{o}::{}", node.name),
                    None => node.name.clone(),
                }
            })
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::FileIndex;

    fn ws(src: &str) -> Workspace {
        Workspace::build(vec![FileIndex::new("crates/a/src/lib.rs", src)])
    }

    fn idx(ws: &Workspace, name: &str) -> usize {
        ws.fns.iter().position(|f| f.name == name).unwrap()
    }

    #[test]
    fn effects_propagate_through_two_levels() {
        let w = ws("pub fn top() { mid(); }\n\
                    fn mid() { deep(); }\n\
                    fn deep() { x.unwrap(); let v = Vec::new(); }");
        let s = compute(&w);
        let top = idx(&w, "top");
        assert!(s.effects[top].panics && s.effects[top].allocates);
        assert!(s.facts[top].panic_sites.is_empty(), "top is clean locally");
        let (chain, site) = s.chain(&w, top, Effect::Panic).unwrap();
        assert_eq!(s.render_chain(&w, &chain), "top -> mid -> deep");
        assert_eq!(site.what, ".unwrap()");
        let (chain, site) = s.chain(&w, top, Effect::Alloc).unwrap();
        assert_eq!(chain.len(), 3);
        assert_eq!(site.what, "Vec::new");
    }

    #[test]
    fn recursion_terminates_and_allocations_propagate() {
        let w = ws("pub fn a(out: &mut Out) { b(out); }\n\
                    fn b(out: &mut Out) { a(out); out.v = Vec::new(); }");
        let s = compute(&w);
        assert!(s.effects[idx(&w, "a")].allocates);
        assert!(s.effects[idx(&w, "b")].allocates);
        assert!(!s.effects[idx(&w, "a")].panics);
    }

    #[test]
    fn debug_assert_and_test_bodies_are_not_panics() {
        let w = ws("pub fn a() { debug_assert!(ok()); }\n\
                    #[cfg(test)] mod t { fn boom() { panic!(\"x\"); } }");
        let s = compute(&w);
        assert!(!s.effects[idx(&w, "a")].panics);
        assert!(!s.effects[idx(&w, "boom")].panics, "test fns excluded");
    }

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
