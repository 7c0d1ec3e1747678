//! The inline allowlist mechanism.
//!
//! A finding on line `L` is suppressed by a comment of the form
//!
//! ```text
//! // lint: allow(<rule-id>): <mandatory justification text>
//! ```
//!
//! placed either at the end of line `L` or on its own on line `L-1`.
//! The justification is not optional: an allow with fewer than
//! [`MIN_JUSTIFICATION`] characters of justification text does not
//! suppress anything and is itself reported under the
//! [`allow-hygiene`](crate::RULE_ALLOW_HYGIENE) meta rule, as is an
//! allow naming an unknown rule. Every allow that *does* fire is
//! listed (with its justification) in the JSON report, so suppressions
//! stay auditable.

use crate::report::{AppliedAllow, Finding};
use crate::RULE_ALLOW_HYGIENE;

/// Minimum justification length, in characters, after trimming.
pub const MIN_JUSTIFICATION: usize = 10;

/// A parsed, well-formed allow comment.
#[derive(Debug, Clone)]
pub struct Allow {
    /// The rule id being allowed.
    pub rule: String,
    /// 1-based line of the comment.
    pub line: u32,
    /// Justification text.
    pub justification: String,
}

/// Extracts allow comments from `(line, text)` line comments.
/// Malformed allows (missing justification, unknown rule) become
/// `allow-hygiene` findings instead of suppressions.
pub fn collect(
    comments: &[(u32, String)],
    known_rules: &[&'static str],
    file: &str,
    findings: &mut Vec<Finding>,
) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (line, text) in comments {
        // Doc comments (`///`, `//!`) describe the mechanism; only a
        // plain `//` comment can be an allow.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(start) = text.find("lint: allow(") else {
            continue;
        };
        let rest = &text[start + "lint: allow(".len()..];
        let Some(close) = rest.find(')') else {
            findings.push(Finding {
                rule: RULE_ALLOW_HYGIENE,
                file: file.to_string(),
                line: *line,
                message: "malformed allow comment: missing `)`".to_string(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        let justification = rest[close + 1..]
            .trim_start_matches([':', '-', '—', ' '])
            .trim()
            .to_string();
        if !known_rules.contains(&rule.as_str()) {
            findings.push(Finding {
                rule: RULE_ALLOW_HYGIENE,
                file: file.to_string(),
                line: *line,
                message: format!("allow names unknown rule `{rule}`"),
            });
            continue;
        }
        if justification.chars().count() < MIN_JUSTIFICATION {
            findings.push(Finding {
                rule: RULE_ALLOW_HYGIENE,
                file: file.to_string(),
                line: *line,
                message: format!(
                    "allow({rule}) has no justification text — a reason of at least \
                     {MIN_JUSTIFICATION} characters is mandatory"
                ),
            });
            continue;
        }
        allows.push(Allow {
            rule,
            line: *line,
            justification,
        });
    }
    allows
}

/// Applies `allows` to `findings`: a finding suppressed by an allow on
/// its own line or the line above is removed, and the allow is
/// recorded in `applied`.
pub fn apply(
    findings: Vec<Finding>,
    allows: &[Allow],
    file: &str,
    applied: &mut Vec<AppliedAllow>,
) -> Vec<Finding> {
    let mut kept = Vec::with_capacity(findings.len());
    for f in findings {
        let hit = allows
            .iter()
            .find(|a| a.rule == f.rule && (a.line == f.line || a.line + 1 == f.line));
        match hit {
            Some(a) => {
                // The same allow may legitimately cover several
                // findings on one line; record it once per use.
                applied.push(AppliedAllow {
                    rule: a.rule.clone(),
                    file: file.to_string(),
                    line: a.line,
                    justification: a.justification.clone(),
                });
            }
            None => kept.push(f),
        }
    }
    kept
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: &[&str] = &["panic-reachability", "alloc-hot-path"];

    #[test]
    fn justified_allow_suppresses_and_is_recorded() {
        let comments = vec![(
            4u32,
            " lint: allow(panic-reachability): documented precondition, never empty".to_string(),
        )];
        let mut meta = Vec::new();
        let allows = collect(&comments, RULES, "f.rs", &mut meta);
        assert!(meta.is_empty());
        assert_eq!(allows.len(), 1);
        let findings = vec![Finding {
            rule: "panic-reachability",
            file: "f.rs".into(),
            line: 5,
            message: "m".into(),
        }];
        let mut applied = Vec::new();
        let kept = apply(findings, &allows, "f.rs", &mut applied);
        assert!(kept.is_empty());
        assert_eq!(applied.len(), 1);
        assert!(applied[0].justification.contains("never empty"));
    }

    #[test]
    fn unjustified_or_unknown_allows_become_findings() {
        let comments = vec![
            (1u32, " lint: allow(panic-reachability)".to_string()),
            (
                2u32,
                " lint: allow(not-a-rule): some justification".to_string(),
            ),
        ];
        let mut meta = Vec::new();
        let allows = collect(&comments, RULES, "f.rs", &mut meta);
        assert!(allows.is_empty());
        assert_eq!(meta.len(), 2);
        assert!(meta[0].message.contains("mandatory"));
        assert!(meta[1].message.contains("unknown rule"));
    }

    #[test]
    fn doc_comments_describing_the_syntax_are_not_allows() {
        let comments = vec![
            (
                1u32,
                "/ Docs: ` lint: allow(<rule-id>): reason`".to_string(),
            ),
            (2u32, "! lint: allow(not-a-rule): module docs".to_string()),
        ];
        let mut meta = Vec::new();
        let allows = collect(&comments, RULES, "f.rs", &mut meta);
        assert!(allows.is_empty());
        assert!(meta.is_empty());
    }

    #[test]
    fn allow_does_not_reach_two_lines_down() {
        let allows = vec![Allow {
            rule: "panic-reachability".into(),
            line: 3,
            justification: "long enough reason".into(),
        }];
        let findings = vec![Finding {
            rule: "panic-reachability",
            file: "f.rs".into(),
            line: 5,
            message: "m".into(),
        }];
        let mut applied = Vec::new();
        let kept = apply(findings, &allows, "f.rs", &mut applied);
        assert_eq!(kept.len(), 1);
        assert!(applied.is_empty());
    }
}
