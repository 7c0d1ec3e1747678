//! Findings, applied allows, and the machine-readable JSON report.

use std::fmt::Write as _;

/// One rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Stable rule id (e.g. `panic-reachability`).
    pub rule: &'static str,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

/// One *applied* `// lint: allow(rule): justification` suppression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AppliedAllow {
    /// The rule that was suppressed.
    pub rule: String,
    /// Workspace-relative path of the allow comment.
    pub file: String,
    /// 1-based line of the allow comment.
    pub line: u32,
    /// The mandatory justification text.
    pub justification: String,
}

/// The result of linting a workspace (or a single source).
#[derive(Debug, Default)]
pub struct Report {
    /// Surviving findings, sorted by `(file, line, rule)`.
    pub findings: Vec<Finding>,
    /// Every allow comment that actually suppressed a finding.
    pub allows: Vec<AppliedAllow>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// Sorts findings and applied allows into a stable order.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.allows
            .sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    }

    /// Renders the machine-readable JSON report.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"version\": 1,");
        let _ = writeln!(s, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(s, "  \"finding_count\": {},", self.findings.len());
        s.push_str("  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\":{},\"file\":{},\"line\":{},\"message\":{}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
            s.push_str(if i + 1 < self.findings.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ],\n  \"allows\": [\n");
        for (i, a) in self.allows.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"rule\":{},\"file\":{},\"line\":{},\"justification\":{}}}",
                json_str(&a.rule),
                json_str(&a.file),
                a.line,
                json_str(&a.justification)
            );
            s.push_str(if i + 1 < self.allows.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Escapes `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_sorts() {
        let mut r = Report {
            findings: vec![
                Finding {
                    rule: "b-rule",
                    file: "z.rs".into(),
                    line: 2,
                    message: "has \"quotes\"\nand newline".into(),
                },
                Finding {
                    rule: "a-rule",
                    file: "a.rs".into(),
                    line: 9,
                    message: "m".into(),
                },
            ],
            allows: vec![],
            files_scanned: 2,
        };
        r.finalize();
        assert_eq!(r.findings[0].file, "a.rs");
        let json = r.to_json();
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"finding_count\": 2"));
    }
}
