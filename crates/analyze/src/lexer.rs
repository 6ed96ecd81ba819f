//! A hand-rolled token-level Rust lexer.
//!
//! The rule engine in [`crate::rules`] only needs a *token stream with
//! line numbers* — no AST, no spans into macro expansions — so this
//! lexer deliberately stops at the token level (consistent with the
//! workspace's no-external-dependencies policy: no `syn`, no
//! `proc-macro2`). It understands exactly enough of the lexical grammar
//! that rules never fire inside places a textual grep would be fooled
//! by:
//!
//! * line comments (`//`, `///`, `//!`) and **nested** block comments;
//! * string literals: plain, byte (`b"…"`), raw (`r"…"`, `r#"…"#`
//!   with any number of hashes, `br#"…"#`), including multi-line;
//! * char literals vs. lifetimes (`'a'` vs. `'a`), raw identifiers
//!   (`r#fn`);
//! * numeric literals with separators, base prefixes, exponents and
//!   type suffixes — classified into [`TokenKind::Int`] vs.
//!   [`TokenKind::Float`] so the float-equality rule can anchor on
//!   genuine float literal operands;
//! * maximal-munch multi-char operators, so `==` / `!=` arrive as a
//!   single token and `=>` is never mistaken for a comparison.
//!
//! Comments are *kept* in the stream ([`TokenKind::LineComment`] /
//! [`TokenKind::BlockComment`]): the rule engine reads them for the
//! `// wsyn: allow(<rule>)` escape hatch and for `// ORDERING:`
//! justifications, then filters them out of the code-matching view.
//!
//! The lexer is lenient by design: an unterminated literal or comment
//! consumes the rest of the file rather than erroring. A linter must
//! never crash on the code it scans; `rustc` itself is the authority on
//! well-formedness.

/// Lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (including `as`, `unsafe`, …).
    Ident,
    /// Integer literal (`42`, `0xff_u64`, `0b1010`).
    Int,
    /// Float literal (`0.0`, `1e-9`, `2.5f32`).
    Float,
    /// String literal of any flavour (plain, byte, raw).
    Str,
    /// Char or byte-char literal (`'x'`, `b'\n'`).
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// `// …` comment (incl. doc comments), without the newline.
    LineComment,
    /// `/* … */` comment, possibly spanning lines, possibly nested.
    BlockComment,
    /// Operator or punctuation, maximal munch (`==`, `..=`, `(`, …).
    Punct,
}

/// One lexed token: its class, verbatim text, and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token<'a> {
    /// Lexical class.
    pub kind: TokenKind,
    /// The token's text, borrowed from the source.
    pub text: &'a str,
    /// 1-based line the token starts on.
    pub line: u32,
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Three-then-two-character operators, longest first (maximal munch).
const PUNCT3: &[&str] = &["<<=", ">>=", "..=", "..."];
const PUNCT2: &[&str] = &[
    "::", "->", "=>", "==", "!=", "<=", ">=", "&&", "||", "+=", "-=", "*=", "/=", "%=", "^=", "&=",
    "|=", "<<", ">>", "..",
];

/// Incremental cursor over the source bytes.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self, ahead: usize) -> u8 {
        *self.bytes.get(self.pos + ahead).unwrap_or(&0)
    }

    /// Advances one byte, maintaining the line counter.
    fn bump(&mut self) {
        if self.peek(0) == b'\n' {
            self.line += 1;
        }
        self.pos += 1;
    }

    fn bump_while(&mut self, pred: impl Fn(u8) -> bool) {
        while self.pos < self.bytes.len() && pred(self.peek(0)) {
            self.bump();
        }
    }

    /// Consumes a `"…"` body (opening quote already consumed).
    fn string_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'"' => {
                    self.bump();
                    return;
                }
                _ => self.bump(),
            }
        }
    }

    /// Consumes a raw-string body starting at the `#…"` run; `hashes` is
    /// the number of `#` before the opening quote.
    fn raw_string_body(&mut self) {
        let mut hashes = 0usize;
        while self.peek(0) == b'#' {
            hashes += 1;
            self.bump();
        }
        if self.peek(0) != b'"' {
            return; // `r#ident` handled by the caller; nothing to do
        }
        self.bump();
        while self.pos < self.bytes.len() {
            if self.peek(0) == b'"' {
                let mut matched = 0usize;
                while matched < hashes && self.peek(1 + matched) == b'#' {
                    matched += 1;
                }
                if matched == hashes {
                    for _ in 0..=hashes {
                        self.bump();
                    }
                    return;
                }
            }
            self.bump();
        }
    }

    /// Consumes a `'…'` char-literal body (opening quote consumed).
    fn char_body(&mut self) {
        while self.pos < self.bytes.len() {
            match self.peek(0) {
                b'\\' => {
                    self.bump();
                    self.bump();
                }
                b'\'' => {
                    self.bump();
                    return;
                }
                b'\n' => return, // unterminated; stay lenient
                _ => self.bump(),
            }
        }
    }

    /// Consumes a numeric literal; returns its kind.
    fn number(&mut self) -> TokenKind {
        let mut float = false;
        if self.peek(0) == b'0' && matches!(self.peek(1), b'x' | b'o' | b'b') {
            self.bump();
            self.bump();
            self.bump_while(|b| b.is_ascii_hexdigit() || b == b'_');
        } else {
            self.bump_while(|b| b.is_ascii_digit() || b == b'_');
            // A fractional part: `.` followed by a digit, or a trailing
            // `.` not starting a range (`1..2`) or method call (`1.max`).
            if self.peek(0) == b'.' {
                let after = self.peek(1);
                if after.is_ascii_digit() {
                    self.bump();
                    self.bump_while(|b| b.is_ascii_digit() || b == b'_');
                    float = true;
                } else if after != b'.' && !is_ident_start(after) {
                    self.bump();
                    float = true;
                }
            }
            // Exponent: `e`/`E` with an optionally signed digit run.
            if matches!(self.peek(0), b'e' | b'E') {
                let (sign, digit) = (self.peek(1), self.peek(2));
                if sign.is_ascii_digit() || (matches!(sign, b'+' | b'-') && digit.is_ascii_digit())
                {
                    self.bump();
                    if matches!(self.peek(0), b'+' | b'-') {
                        self.bump();
                    }
                    self.bump_while(|b| b.is_ascii_digit() || b == b'_');
                    float = true;
                }
            }
        }
        // Type suffix (`u32`, `f64`, `usize`, …) folds into the token.
        if is_ident_start(self.peek(0)) {
            if self.peek(0) == b'f' {
                float = true;
            }
            self.bump_while(is_ident_continue);
        }
        if float {
            TokenKind::Float
        } else {
            TokenKind::Int
        }
    }
}

/// Lexes `src` into a token vector (comments included, whitespace
/// dropped). Never fails: malformed trailing literals are absorbed.
#[must_use]
pub fn lex(src: &str) -> Vec<Token<'_>> {
    let mut c = Cursor {
        bytes: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    // A shebang line (`#!/usr/bin/env …`) is not Rust tokens; skip it
    // like a comment. `#![…]` is an inner attribute, not a shebang.
    if c.peek(0) == b'#' && c.peek(1) == b'!' && c.peek(2) != b'[' {
        c.bump_while(|b| b != b'\n');
    }
    while c.pos < c.bytes.len() {
        let b = c.peek(0);
        if b.is_ascii_whitespace() {
            c.bump();
            continue;
        }
        let start = c.pos;
        let line = c.line;
        let kind = match b {
            b'/' if c.peek(1) == b'/' => {
                c.bump_while(|b| b != b'\n');
                TokenKind::LineComment
            }
            b'/' if c.peek(1) == b'*' => {
                c.bump();
                c.bump();
                let mut depth = 1usize;
                while c.pos < c.bytes.len() && depth > 0 {
                    if c.peek(0) == b'/' && c.peek(1) == b'*' {
                        depth += 1;
                        c.bump();
                        c.bump();
                    } else if c.peek(0) == b'*' && c.peek(1) == b'/' {
                        depth -= 1;
                        c.bump();
                        c.bump();
                    } else {
                        c.bump();
                    }
                }
                TokenKind::BlockComment
            }
            b'"' => {
                c.bump();
                c.string_body();
                TokenKind::Str
            }
            b'r' if c.peek(1) == b'"' => {
                c.bump();
                c.bump();
                // `r"…"`: raw with zero hashes terminates at the next `"`.
                c.bump_while(|b| b != b'"');
                c.bump();
                TokenKind::Str
            }
            b'r' if c.peek(1) == b'#' && c.peek(2) == b'"'
                || c.peek(1) == b'#' && c.peek(2) == b'#' =>
            {
                c.bump();
                c.raw_string_body();
                TokenKind::Str
            }
            b'r' if c.peek(1) == b'#' && is_ident_start(c.peek(2)) => {
                // Raw identifier `r#fn`.
                c.bump();
                c.bump();
                c.bump_while(is_ident_continue);
                TokenKind::Ident
            }
            b'b' if c.peek(1) == b'"' => {
                c.bump();
                c.bump();
                c.string_body();
                TokenKind::Str
            }
            b'b' if c.peek(1) == b'r' && (c.peek(2) == b'"' || c.peek(2) == b'#') => {
                c.bump();
                c.bump();
                c.raw_string_body();
                TokenKind::Str
            }
            b'b' if c.peek(1) == b'\'' => {
                c.bump();
                c.bump();
                c.char_body();
                TokenKind::Char
            }
            b'\'' => {
                // Lifetime (`'a`) or char literal (`'a'`, `'\n'`).
                if is_ident_start(c.peek(1)) && c.peek(1) != b'\\' {
                    let mut end = 2usize;
                    while is_ident_continue(c.peek(end)) {
                        end += 1;
                    }
                    if c.peek(end) == b'\'' {
                        c.bump();
                        c.char_body();
                        TokenKind::Char
                    } else {
                        c.bump();
                        c.bump_while(is_ident_continue);
                        TokenKind::Lifetime
                    }
                } else {
                    c.bump();
                    c.char_body();
                    TokenKind::Char
                }
            }
            b if b.is_ascii_digit() => c.number(),
            b if is_ident_start(b) => {
                c.bump_while(is_ident_continue);
                TokenKind::Ident
            }
            _ => {
                let rest = &src[c.pos..];
                let run = PUNCT3
                    .iter()
                    .chain(PUNCT2)
                    .find(|p| rest.starts_with(**p))
                    .map_or(1, |p| p.len());
                for _ in 0..run {
                    c.bump();
                }
                TokenKind::Punct
            }
        };
        out.push(Token {
            kind,
            text: &src[start..c.pos],
            line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, &str)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn comments_and_strings_are_opaque() {
        let src = r#"
            // a == 0.0 in a comment, and .unwrap() too
            let s = "x == 0.0 .unwrap()"; /* HashMap */
        "#;
        let toks = lex(src);
        assert!(toks
            .iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .all(|t| t.text != "HashMap" && t.text != "unwrap"));
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
        assert_eq!(
            toks.iter()
                .filter(|t| t.kind == TokenKind::LineComment)
                .count(),
            1
        );
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still comment */ b");
        assert_eq!(
            toks,
            vec![
                (TokenKind::Ident, "a"),
                (
                    TokenKind::BlockComment,
                    "/* outer /* inner */ still comment */"
                ),
                (TokenKind::Ident, "b"),
            ]
        );
    }

    #[test]
    fn raw_strings_with_hashes() {
        let src = r####"let x = r#"contains "quotes" and == 0.0"# ;"####;
        let toks = lex(src);
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("quotes"));
        // Nothing after the raw string was swallowed.
        assert_eq!(toks.last().map(|t| t.text), Some(";"));
    }

    #[test]
    fn raw_strings_containing_comment_markers() {
        // `//` and `/*` inside a raw string are string bytes, not
        // comments — nothing after must be swallowed or re-typed.
        let src = "let url = r\"https://example.com/*x\"; let y = 1.0; y == 1.0";
        let toks = lex(src);
        assert!(toks
            .iter()
            .all(|t| t.kind != TokenKind::LineComment && t.kind != TokenKind::BlockComment));
        let strs: Vec<_> = toks.iter().filter(|t| t.kind == TokenKind::Str).collect();
        assert_eq!(strs.len(), 1);
        assert!(strs[0].text.contains("//"));
        // The float comparison after the string is still visible.
        assert!(toks.iter().any(|t| t.text == "=="));
        // Hashed form with an embedded quote before the `//`.
        let src = r####"r#"quote " then // not a comment"# == x"####;
        let toks = lex(src);
        assert_eq!(toks.iter().filter(|t| t.kind == TokenKind::Str).count(), 1);
        assert!(toks.iter().any(|t| t.text == "=="));
    }

    #[test]
    fn shebang_line_is_skipped() {
        let toks = lex("#!/usr/bin/env run-cargo-script\nfn main() {}");
        assert_eq!(toks.first().map(|t| t.text), Some("fn"));
        assert_eq!(toks.first().map(|t| t.line), Some(2));
        // An inner attribute is NOT a shebang: its tokens survive.
        let toks = lex("#![forbid(unsafe_code)]\nfn main() {}");
        assert_eq!(toks.first().map(|t| t.text), Some("#"));
        assert!(toks.iter().any(|t| t.text == "forbid"));
        // A shebang-only file lexes to nothing without panicking.
        assert!(lex("#!/bin/sh").is_empty());
    }

    #[test]
    fn lifetimes_vs_char_literals() {
        let toks = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        let lifetimes: Vec<_> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Lifetime)
            .collect();
        let chars: Vec<_> = toks.iter().filter(|(k, _)| *k == TokenKind::Char).collect();
        assert_eq!(lifetimes.len(), 2);
        assert_eq!(chars.len(), 2);
    }

    #[test]
    fn numeric_classification() {
        for (src, kind) in [
            ("42", TokenKind::Int),
            ("0xff_u64", TokenKind::Int),
            ("0b1010", TokenKind::Int),
            ("1_000", TokenKind::Int),
            ("0.0", TokenKind::Float),
            ("1e-9", TokenKind::Float),
            ("2.5f32", TokenKind::Float),
            ("7f64", TokenKind::Float),
            ("1.", TokenKind::Float),
        ] {
            let toks = lex(src);
            assert_eq!(toks.len(), 1, "{src}");
            assert_eq!(toks[0].kind, kind, "{src}");
        }
    }

    #[test]
    fn ranges_and_method_calls_are_not_floats() {
        let toks = kinds("1..2; 3..=4; 5.max(6)");
        assert!(toks.iter().all(|(k, _)| *k != TokenKind::Float));
        assert!(toks.contains(&(TokenKind::Punct, "..")));
        assert!(toks.contains(&(TokenKind::Punct, "..=")));
    }

    #[test]
    fn comparison_operators_are_single_tokens() {
        let toks = kinds("a == b != c <= d >= e => f");
        let puncts: Vec<&str> = toks
            .iter()
            .filter(|(k, _)| *k == TokenKind::Punct)
            .map(|&(_, t)| t)
            .collect();
        assert_eq!(puncts, vec!["==", "!=", "<=", ">=", "=>"]);
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let src = "a\n/* two\nlines */\nb";
        let toks = lex(src);
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn raw_identifiers() {
        let toks = kinds("let r#fn = 1;");
        assert!(toks.contains(&(TokenKind::Ident, "r#fn")));
    }

    #[test]
    fn lenient_on_unterminated_literals() {
        // Must not panic or loop; absorbs to EOF.
        for src in ["\"open", "/* open", "'", "r#\"open"] {
            let _ = lex(src);
        }
    }
}
