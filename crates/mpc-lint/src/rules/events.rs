//! Rule `event-completeness`: every mutating `MpcContext` primitive
//! must be mirrored in the `MpcEvent` record/replay machinery.
//!
//! The parallel executor runs maintainer branches against *forked*
//! contexts and reproduces their accounting on the master by
//! replaying each fork's event log. That round-trip is only exact if
//! three sets stay in lock-step:
//!
//! 1. every `&mut self` primitive of `MpcContext` records an
//!    `MpcEvent` (or delegates to one that does),
//! 2. every `MpcEvent` variant is recorded by some primitive,
//! 3. every `MpcEvent` variant has a dedicated arm in `replay_inner`
//!    (and the match has **no wildcard arm** that could silently
//!    swallow a new variant).
//!
//! A primitive missing any leg of the triangle makes parallel
//! accounting drift from serial accounting without any test noticing
//! until the equivalence suite happens to exercise it — this rule
//! fails the build instead, naming the primitive.

use super::{camel, find_seq, snake, FileCtx};
use crate::report::Finding;
use crate::scan;
use crate::RULE_EVENT;
use std::collections::{BTreeMap, BTreeSet};

/// Methods that are part of the record/replay machinery itself (or
/// host-execution glue) and legitimately mutate without recording.
const INFRA_METHODS: &[&str] = &["record", "replay", "replay_inner", "take_log"];

/// Checks the accounting-context source (`crates/mpc/src/context.rs`
/// in the real workspace).
pub fn check(ctx: &FileCtx) -> Vec<Finding> {
    let mut out = Vec::new();
    let tokens = &ctx.lexed.tokens;
    let mk = |line: u32, message: String| Finding {
        rule: RULE_EVENT,
        file: ctx.rel_path.to_string(),
        line,
        message,
    };

    // --- leg 0: locate the three structures --------------------------
    let Some(variants) = enum_variants(ctx) else {
        out.push(mk(
            1,
            "no `enum MpcEvent` found in the context source".into(),
        ));
        return out;
    };
    let fns = scan::functions(ctx.lexed);
    let impl_methods: Vec<&scan::FnSpan> = scan::impls(ctx.lexed)
        .into_iter()
        .filter(|im| {
            let header: Vec<&str> = tokens[im.header.0..im.header.1]
                .iter()
                .filter_map(|t| t.ident())
                .collect();
            header == ["MpcContext"]
        })
        .flat_map(|im| {
            fns.iter()
                .filter(move |f| f.body.0 > im.body.0 && f.body.1 <= im.body.1)
                .collect::<Vec<_>>()
        })
        .collect();
    if impl_methods.is_empty() {
        out.push(mk(1, "no inherent `impl MpcContext` block found".into()));
        return out;
    }
    let Some(replay) = impl_methods.iter().find(|f| f.name == "replay_inner") else {
        out.push(mk(
            1,
            "no `fn replay_inner` found — recorded events have nowhere to be re-charged".into(),
        ));
        return out;
    };

    // --- leg 1: what does each mutating primitive record? ------------
    let mut recorded_by: BTreeMap<String, String> = BTreeMap::new(); // variant -> method
    let mut recording_methods: BTreeSet<String> = BTreeSet::new();
    for f in &impl_methods {
        for hit in find_seq(
            tokens,
            f.body,
            &["self", ".", "record", "(", "MpcEvent", ":", ":"],
        ) {
            if let Some(variant) = tokens.get(hit + 7).and_then(|t| t.ident()) {
                recorded_by
                    .entry(variant.to_string())
                    .or_insert_with(|| f.name.clone());
                recording_methods.insert(f.name.clone());
            }
        }
    }

    for f in &impl_methods {
        if !takes_mut_self(ctx, f) || INFRA_METHODS.contains(&f.name.as_str()) {
            continue;
        }
        if recording_methods.contains(&f.name) {
            continue;
        }
        // Delegators are fine: `alloc_vertex` charges through `alloc`.
        let delegates = recording_methods
            .iter()
            .any(|m| !find_seq(tokens, f.body, &["self", ".", m.as_str(), "("]).is_empty());
        if !delegates {
            out.push(mk(
                f.line,
                format!(
                    "mutating primitive `{}` records no MpcEvent — a parallel fork would \
                     silently drop its accounting on replay; record `MpcEvent::{}` (or \
                     delegate to a recording primitive)",
                    f.name,
                    camel(&f.name)
                ),
            ));
        }
    }

    // --- legs 2+3: every variant recorded and replayed ---------------
    let arm_variants: BTreeSet<String> = find_seq(tokens, replay.body, &["MpcEvent", ":", ":"])
        .into_iter()
        .filter_map(|hit| tokens.get(hit + 3).and_then(|t| t.ident()))
        .map(str::to_string)
        .collect();
    for (variant, line) in &variants {
        if !recorded_by.contains_key(variant) {
            out.push(mk(
                *line,
                format!(
                    "MpcEvent::{variant} is never recorded by any MpcContext primitive — \
                     dead variant or missing `self.record(...)` call in `{}`",
                    snake(variant)
                ),
            ));
        }
        if !arm_variants.contains(variant) {
            let primitive = recorded_by
                .get(variant)
                .cloned()
                .unwrap_or_else(|| snake(variant));
            out.push(mk(
                replay.line,
                format!(
                    "MpcEvent::{variant} has no match arm in `replay_inner` — primitive \
                     `{primitive}` would not be re-charged when a parallel branch's log is \
                     replayed, so parallel accounting would drift from serial"
                ),
            ));
        }
    }
    if !find_seq(tokens, replay.body, &["_", "=", ">"]).is_empty() {
        out.push(mk(
            replay.line,
            "`replay_inner` has a wildcard `_ =>` arm — it would silently swallow newly \
             added MpcEvent variants instead of forcing an explicit replay decision"
                .into(),
        ));
    }
    out
}

/// The `MpcEvent` variants with their lines, or `None` if the enum is
/// absent.
fn enum_variants(ctx: &FileCtx) -> Option<Vec<(String, u32)>> {
    let tokens = &ctx.lexed.tokens;
    let start = find_seq(tokens, (0, tokens.len()), &["enum", "MpcEvent", "{"])
        .into_iter()
        .next()?;
    let open = start + 2;
    let close = scan::matching_brace(tokens, open);
    let mut variants = Vec::new();
    let mut depth = 0i32; // paren/bracket/brace depth inside the body
    let mut expect_variant = true;
    for t in &tokens[(open + 1)..close] {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 {
            if t.is_punct(',') {
                expect_variant = true;
            } else if expect_variant {
                if let Some(name) = t.ident() {
                    variants.push((name.to_string(), t.line));
                    expect_variant = false;
                }
            }
        }
    }
    Some(variants)
}

/// Whether the signature contains `&mut self`.
fn takes_mut_self(ctx: &FileCtx, f: &scan::FnSpan) -> bool {
    !find_seq(&ctx.lexed.tokens, f.sig, &["mut", "self"]).is_empty()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn run(src: &str) -> Vec<Finding> {
        let lexed = lex(src);
        let ranges = scan::test_line_ranges(&lexed);
        check(&FileCtx {
            rel_path: "crates/mpc/src/context.rs",
            lexed: &lexed,
            test_ranges: &ranges,
        })
    }

    const CLEAN: &str = r#"
pub enum MpcEvent {
    Exchange(u64),
    Sort(u64),
}
impl MpcContext {
    pub fn exchange(&mut self, words: u64) {
        self.record(MpcEvent::Exchange(words));
    }
    pub fn sort(&mut self, words: u64) {
        self.record(MpcEvent::Sort(words));
    }
    pub fn exchange_twice(&mut self, words: u64) {
        self.exchange(words);
        self.exchange(words);
    }
    pub fn rounds(&self) -> u64 { 0 }
    fn record(&mut self, e: MpcEvent) {}
    fn replay_inner(&mut self, events: &[MpcEvent]) {
        for e in events {
            match e {
                MpcEvent::Exchange(w) => self.exchange(*w),
                MpcEvent::Sort(w) => self.sort(*w),
            }
        }
    }
}
"#;

    #[test]
    fn clean_context_passes() {
        assert!(run(CLEAN).is_empty(), "{:?}", run(CLEAN));
    }

    #[test]
    fn missing_replay_arm_names_the_primitive() {
        let src = CLEAN.replace("MpcEvent::Sort(w) => self.sort(*w),", "");
        let f = run(&src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("MpcEvent::Sort"));
        assert!(f[0].message.contains("`sort`"));
    }

    #[test]
    fn unrecorded_primitive_is_flagged() {
        let src = CLEAN.replace(
            "self.record(MpcEvent::Sort(words));",
            "let _ = words; // forgot to record",
        );
        let f = run(&src);
        assert!(
            f.iter()
                .any(|f| f.message.contains("`sort` records no MpcEvent")),
            "{f:?}"
        );
        // Sort is now also an orphaned variant with no replay source.
        assert!(f.iter().any(|f| f.message.contains("never recorded")));
    }

    #[test]
    fn wildcard_arm_is_flagged() {
        let src = CLEAN.replace(
            "MpcEvent::Sort(w) => self.sort(*w),",
            "MpcEvent::Sort(w) => self.sort(*w),\n                _ => {}",
        );
        let f = run(&src);
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("wildcard"));
    }
}
