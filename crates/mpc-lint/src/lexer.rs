//! A minimal Rust lexer: just enough structure for invariant linting.
//!
//! The linter deliberately avoids `syn` (this environment has no
//! registry access) and full parsing: every rule in this crate needs
//! only a comment-and-literal-free token stream with line numbers,
//! plus the line comments themselves (for `// lint: allow(...)`
//! detection). The lexer therefore handles the parts of Rust lexical
//! structure that would otherwise produce false positives — nested
//! block comments, string/raw-string/byte-string literals, char
//! literals vs. lifetimes — and flattens everything else to
//! identifiers and single-character punctuation.

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`fn`, `unsafe`, `HashMap`, …).
    Ident(String),
    /// A single punctuation character (`{`, `!`, `:`, …).
    Punct(char),
    /// A string/char/number literal (contents discarded).
    Literal,
}

/// A token with its 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token {
    /// What was lexed.
    pub kind: TokenKind,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// Whether this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokenKind::Ident(t) if t == s)
    }

    /// Whether this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        matches!(&self.kind, TokenKind::Punct(p) if *p == c)
    }
}

/// A lexed source file: the token stream plus its line comments.
#[derive(Debug, Default)]
pub struct Lexed {
    /// All tokens, in source order.
    pub tokens: Vec<Token>,
    /// `(line, text)` for every `//` comment, text excluding the
    /// leading slashes (doc comments included).
    pub line_comments: Vec<(u32, String)>,
}

/// Lexes `source` into tokens and line comments.
pub fn lex(source: &str) -> Lexed {
    let bytes = source.as_bytes();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line = 1u32;
    let n = bytes.len();

    let count_newlines = |s: &[u8]| s.iter().filter(|&&b| b == b'\n').count() as u32;

    while i < n {
        let b = bytes[i];
        match b {
            b'\n' => {
                line += 1;
                i += 1;
            }
            b' ' | b'\t' | b'\r' => i += 1,
            b'/' if i + 1 < n && bytes[i + 1] == b'/' => {
                let start = i + 2;
                let mut j = start;
                while j < n && bytes[j] != b'\n' {
                    j += 1;
                }
                let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
                out.line_comments.push((line, text));
                i = j;
            }
            b'/' if i + 1 < n && bytes[i + 1] == b'*' => {
                // Nested block comment.
                let mut depth = 1usize;
                let mut j = i + 2;
                while j < n && depth > 0 {
                    if j + 1 < n && bytes[j] == b'/' && bytes[j + 1] == b'*' {
                        depth += 1;
                        j += 2;
                    } else if j + 1 < n && bytes[j] == b'*' && bytes[j + 1] == b'/' {
                        depth -= 1;
                        j += 2;
                    } else {
                        if bytes[j] == b'\n' {
                            line += 1;
                        }
                        j += 1;
                    }
                }
                i = j;
            }
            b'"' => {
                let (j, newlines) = skip_string(bytes, i);
                line += newlines;
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = j;
            }
            b'r' | b'b' if starts_raw_or_byte_string(bytes, i) => {
                let start_line = line;
                let (j, newlines) = skip_raw_or_byte_string(bytes, i);
                line += newlines;
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line: start_line,
                });
                i = j;
            }
            b'\'' => {
                // Char literal or lifetime.
                if i + 1 < n && bytes[i + 1] == b'\\' {
                    // Escaped char literal: scan to the closing quote.
                    let mut j = i + 2;
                    if j < n {
                        j += 1; // the escaped character itself
                    }
                    while j < n && bytes[j] != b'\'' {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                    i = (j + 1).min(n);
                } else if i + 1 < n && is_ident_start(bytes[i + 1]) {
                    let mut j = i + 1;
                    while j < n && is_ident_continue(bytes[j]) {
                        j += 1;
                    }
                    if j < n && bytes[j] == b'\'' {
                        // 'a' — a char literal.
                        out.tokens.push(Token {
                            kind: TokenKind::Literal,
                            line,
                        });
                        i = j + 1;
                    } else {
                        // 'a — a lifetime; keep the name as an ident
                        // so no source text is silently swallowed.
                        let text = String::from_utf8_lossy(&bytes[i + 1..j]).into_owned();
                        out.tokens.push(Token {
                            kind: TokenKind::Ident(text),
                            line,
                        });
                        i = j;
                    }
                } else if i + 1 < n {
                    // Non-identifier char literal like '(' or '0'.
                    let mut j = i + 1;
                    while j < n && bytes[j] != b'\'' {
                        line += count_newlines(&bytes[j..j + 1]);
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        line,
                    });
                    i = (j + 1).min(n);
                } else {
                    i += 1;
                }
            }
            _ if is_ident_start(b) => {
                let start = i;
                let mut j = i + 1;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                let text = String::from_utf8_lossy(&bytes[start..j]).into_owned();
                out.tokens.push(Token {
                    kind: TokenKind::Ident(text),
                    line,
                });
                i = j;
            }
            b'0'..=b'9' => {
                // Number literal; suffixes and hex digits ride along,
                // `.` deliberately excluded so ranges stay punctuation.
                let mut j = i + 1;
                while j < n && is_ident_continue(bytes[j]) {
                    j += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Literal,
                    line,
                });
                i = j;
            }
            _ => {
                out.tokens.push(Token {
                    kind: TokenKind::Punct(b as char),
                    line,
                });
                i += 1;
            }
        }
    }
    out
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_'
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Whether position `i` starts a raw string (`r"`, `r#"`), byte
/// string (`b"`), or raw byte string (`br#"`).
fn starts_raw_or_byte_string(bytes: &[u8], i: usize) -> bool {
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
        if j >= n {
            return false;
        }
    }
    if j < n && bytes[j] == b'r' {
        j += 1;
        while j < n && bytes[j] == b'#' {
            j += 1;
        }
    }
    j < n && bytes[j] == b'"' && j > i
}

/// Skips a plain string literal starting at the opening quote.
/// Returns `(index past the closing quote, newlines crossed)`.
fn skip_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let n = bytes.len();
    let mut j = i + 1;
    let mut newlines = 0u32;
    while j < n {
        match bytes[j] {
            b'\\' => j += 2,
            b'"' => return (j + 1, newlines),
            b'\n' => {
                newlines += 1;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (n, newlines)
}

/// Skips a raw/byte/raw-byte string starting at `r`/`b`.
fn skip_raw_or_byte_string(bytes: &[u8], i: usize) -> (usize, u32) {
    let n = bytes.len();
    let mut j = i;
    if bytes[j] == b'b' {
        j += 1;
    }
    let raw = j < n && bytes[j] == b'r';
    if raw {
        j += 1;
    }
    let mut hashes = 0usize;
    while j < n && bytes[j] == b'#' {
        hashes += 1;
        j += 1;
    }
    debug_assert!(j < n && bytes[j] == b'"');
    j += 1; // opening quote
    let mut newlines = 0u32;
    while j < n {
        if bytes[j] == b'\n' {
            newlines += 1;
            j += 1;
        } else if !raw && bytes[j] == b'\\' {
            j += 2;
        } else if bytes[j] == b'"' {
            // A raw string closes only on `"` followed by its hashes.
            let mut k = j + 1;
            let mut seen = 0usize;
            while k < n && seen < hashes && bytes[k] == b'#' {
                seen += 1;
                k += 1;
            }
            if seen == hashes {
                return (k, newlines);
            }
            j += 1;
        } else {
            j += 1;
        }
    }
    (n, newlines)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn comments_and_strings_do_not_leak_tokens() {
        let src = r##"
            // unsafe in a comment
            /* HashMap in /* a nested */ block */
            let s = "unsafe HashMap";
            let r = r#"panic! inside "raw" string"#;
            let c = '\'';
            let lt: &'static str = "x";
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(!ids.contains(&"HashMap".to_string()));
        assert!(!ids.contains(&"panic".to_string()));
        assert!(
            ids.contains(&"static".to_string()),
            "lifetime ident kept out of literals: {ids:?}"
        );
    }

    #[test]
    fn line_numbers_track_multiline_constructs() {
        let src = "fn a() {}\n/* x\ny */\nfn b() {}\n";
        let l = lex(src);
        let b_line = l
            .tokens
            .iter()
            .find(|t| t.is_ident("b"))
            .map(|t| t.line)
            .unwrap_or(0);
        assert_eq!(b_line, 4);
    }

    #[test]
    fn line_comments_are_captured_with_lines() {
        let src = "let x = 1; // trailing note\n// lint: allow(x): because\n";
        let l = lex(src);
        assert_eq!(l.line_comments.len(), 2);
        assert_eq!(l.line_comments[0].0, 1);
        assert!(l.line_comments[0].1.contains("trailing note"));
        assert_eq!(l.line_comments[1].0, 2);
        assert!(l.line_comments[1].1.contains("lint: allow"));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str, c: char) -> &'a str { let _y = 'z'; x }";
        let l = lex(src);
        // The trailing content after 'z' must still lex: `x` before `}`.
        let last_ident = l.tokens.iter().rev().find_map(|t| t.ident());
        assert_eq!(last_ident, Some("x"));
    }

    #[test]
    fn numbers_do_not_swallow_range_dots() {
        let src = "for i in 0..n {}";
        let l = lex(src);
        let dots = l.tokens.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(dots, 2);
    }
}
