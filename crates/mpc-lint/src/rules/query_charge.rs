//! Rule `query-charging`: every `Maintain::answer` arm that returns
//! `Ok` must charge the accounting context first.
//!
//! The paper's guarantee is that maintained answers cost O(1) rounds
//! — a claim the workspace makes *measurable* by charging every
//! answer through `MpcContext` (`exchange`/`broadcast`/
//! `converge_cast`/`sort`/`gather`). An `answer` arm that returns
//! `Ok(..)` without a charge isn't faster, it's unaccounted: the
//! rounds/words ledger silently undercounts and every experiment
//! comparing maintained vs. recompute cost reads wrong. This rule
//! splits each production `impl Maintain`'s `answer` body into match
//! arms and requires a charge point — a direct charging call or a
//! call into a helper whose transitive summary charges — in the
//! pre-`match` prefix or anywhere in each `Ok`-returning arm (a
//! charging helper inside the `Ok(..)` expression itself counts).
//! `Err` arms are exempt by construction (they contain no `Ok`).

use crate::graph::Workspace;
use crate::lexer::Token;
use crate::report::Finding;
use crate::rules::find_seq;
use crate::scan;
use crate::summary::Summaries;
use crate::RULE_QUERY_CHARGE;

/// `(pattern_end, body_range)` for each arm of the match whose `{` is
/// at `open`; arm bodies are token ranges.
fn match_arms(tokens: &[Token], open: usize) -> Vec<(usize, usize)> {
    let close = scan::matching_brace(tokens, open);
    let mut arms = Vec::new();
    let mut i = open + 1;
    let mut depth = 0i32;
    while i < close {
        let t = &tokens[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0
            && t.is_punct('=')
            && tokens.get(i + 1).is_some_and(|n| n.is_punct('>'))
        {
            // Arm body: a braced block to its matching `}`, else up
            // to the next depth-0 `,` (or the match's `}`).
            let body_start = i + 2;
            let body_end = if tokens.get(body_start).is_some_and(|n| n.is_punct('{')) {
                scan::matching_brace(tokens, body_start) + 1
            } else {
                let mut j = body_start;
                let mut d = 0i32;
                while j < close {
                    let u = &tokens[j];
                    if u.is_punct('(') || u.is_punct('[') || u.is_punct('{') {
                        d += 1;
                    } else if u.is_punct(')') || u.is_punct(']') || u.is_punct('}') {
                        d -= 1;
                    } else if d == 0 && u.is_punct(',') {
                        break;
                    }
                    j += 1;
                }
                j
            };
            arms.push((body_start, body_end));
            i = body_end;
            continue;
        }
        i += 1;
    }
    arms
}

/// The token index of the first depth-0 `match` in `body`, if any.
fn top_level_match(tokens: &[Token], body: (usize, usize)) -> Option<usize> {
    let mut depth = 0i32;
    for (i, t) in tokens.iter().enumerate().take(body.1).skip(body.0) {
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_ident("match") {
            return Some(i);
        }
    }
    None
}

/// Whether function `f` has a charge point with a token index in
/// `[lo, hi)`: a direct charging call, or a call edge into a
/// transitively charging workspace function.
fn charged_in(ws: &Workspace, sums: &Summaries, f: usize, lo: usize, hi: usize) -> bool {
    sums.facts[f]
        .charge_sites
        .iter()
        .any(|&t| lo <= t && t < hi)
        || ws
            .calls_in_range(f, lo, hi)
            .any(|c| sums.effects[c.callee].charges)
}

/// Checks every production `Maintain::answer` body.
pub fn check(ws: &Workspace, sums: &Summaries) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if !crate::roles_for(&file.rel_path).maintain {
            continue;
        }
        let tokens = &file.lexed.tokens;
        for im in &ws.impls[fi] {
            if im.trait_name.as_deref() != Some("Maintain")
                || scan::in_ranges(&file.test_ranges, im.line)
            {
                continue;
            }
            let ty = im.type_name.clone().unwrap_or_else(|| "?".to_string());
            for (ai, node) in ws.fns.iter().enumerate() {
                if node.file != fi
                    || node.name != "answer"
                    || !(im.body.0 <= node.sig.0 && node.sig.0 < im.body.1)
                {
                    continue;
                }
                // Segments: (pre-match prefix, arm body) pairs; with
                // no top-level match the whole body is one segment.
                let segments: Vec<(usize, usize)> = match top_level_match(tokens, node.body) {
                    Some(m) => {
                        let Some(open) = (m..node.body.1).find(|&j| tokens[j].is_punct('{')) else {
                            continue;
                        };
                        match_arms(tokens, open)
                    }
                    None => vec![node.body],
                };
                let prefix_end = top_level_match(tokens, node.body).unwrap_or(node.body.0);
                for (alo, ahi) in segments {
                    for ok_at in find_seq(tokens, (alo, ahi), &["Ok", "("]) {
                        // A charge anywhere in the arm counts — the
                        // common shapes are a charge statement before
                        // the return *and* a charging helper inside
                        // the `Ok(..)` expression itself
                        // (`Ok(Count(self.count(ctx)))`).
                        let charged = charged_in(ws, sums, ai, node.body.0, prefix_end)
                            || charged_in(ws, sums, ai, alo, ahi);
                        if !charged {
                            out.push(Finding {
                                rule: RULE_QUERY_CHARGE,
                                file: file.rel_path.clone(),
                                line: tokens[ok_at].line,
                                message: format!(
                                    "`answer` for `{ty}` returns `Ok` without charging the \
                                     accounting context in this arm — maintained answers must \
                                     stay on the rounds/words ledger (exchange/broadcast/\
                                     converge_cast/sort/gather, directly or via a helper)",
                                ),
                            });
                        }
                    }
                }
            }
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
        let ws = Workspace::build(vec![FileIndex::new("crates/msf/src/x.rs", src)]);
        let sums = summary::compute(&ws);
        check(&ws, &sums)
    }

    const CHARGED: &str = "impl Maintain for ExactMsf {\n\
         fn answer(&mut self, ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
             match q {\n\
                 Query::Weight => { ctx.exchange(2); Ok(QueryResponse::W(self.w)) }\n\
                 Query::Count => { self.charge(ctx); Ok(QueryResponse::C(self.n)) }\n\
                 _ => Err(unsupported(q)),\n\
             }\n\
         }\n\
     }\n\
     impl ExactMsf { fn charge(&self, ctx: &mut MpcContext) { ctx.gather(1); } }";

    #[test]
    fn direct_and_helper_charges_both_satisfy_the_rule() {
        assert!(run(CHARGED).is_empty());
    }

    #[test]
    fn an_uncharged_arm_is_flagged_even_when_siblings_charge() {
        let src = "impl Maintain for Half {\n\
             fn answer(&mut self, ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
                 match q {\n\
                     Query::A => { ctx.sort(self.n); Ok(QueryResponse::A) }\n\
                     Query::B => Ok(QueryResponse::B),\n\
                     _ => Err(unsupported(q)),\n\
                 }\n\
             }\n\
         }";
        let f = run(src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 5);
        assert!(f[0].message.contains("Half"));
    }

    #[test]
    fn a_charging_helper_inside_the_ok_expression_counts() {
        // The workspace idiom: `Ok(Count(self.count(ctx) as u64))`
        // where the helper itself charges.
        let src = "impl Maintain for Inline {\n\
             fn answer(&mut self, ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
                 match q {\n\
                     Query::Count => Ok(QueryResponse::C(self.count(ctx) as u64)),\n\
                     _ => Err(unsupported(q)),\n\
                 }\n\
             }\n\
         }\n\
         impl Inline { fn count(&self, ctx: &mut MpcContext) -> usize { ctx.sort(2); 0 } }";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn a_charge_before_the_match_covers_every_arm() {
        let src = "impl Maintain for Pre {\n\
             fn answer(&mut self, ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
                 ctx.broadcast(1);\n\
                 match q { Query::A => Ok(QueryResponse::A), _ => Err(unsupported(q)) }\n\
             }\n\
         }";
        assert!(run(src).is_empty());
    }

    #[test]
    fn matchless_bodies_and_err_only_arms_are_handled() {
        let free = "impl Maintain for Free {\n\
             fn answer(&mut self, _ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
                 Ok(QueryResponse::N)\n\
             }\n\
         }";
        assert_eq!(run(free).len(), 1);
        let err_only = "impl Maintain for Never {\n\
             fn answer(&mut self, _ctx: &mut MpcContext, q: &Query) -> Result<QueryResponse, E> {\n\
                 Err(unsupported(q))\n\
             }\n\
         }";
        assert!(run(err_only).is_empty());
    }
}
