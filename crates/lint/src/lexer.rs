//! A spanned Rust lexer for the lint engine.
//!
//! [`lex`] splits a source file into a *complete* sequence of tokens: every
//! byte of the input belongs to exactly one token, so concatenating the
//! token texts reproduces the file verbatim (a property test in
//! `tests/engine.rs` enforces this over the whole workspace). Rule passes
//! then match on [`Kind::Ident`]/[`Kind::Punct`] tokens and are immune by
//! construction to the failure modes of the old line-regex core: patterns
//! inside string literals (including raw strings with `unwrap(` in them),
//! nested block comments, `'a` lifetimes next to `'x'` char literals, and
//! expressions split across lines.
//!
//! The lexer is deliberately forgiving: unterminated literals run to end of
//! file and unknown bytes become one-byte [`Kind::Punct`] tokens, because a
//! linter must never panic on the code it judges.

/// Token classification. Trivia ([`Kind::Ws`], the comment kinds) is kept
/// in the stream for lossless reassembly and filtered out before rule
/// matching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Whitespace run.
    Ws,
    /// `// ...` (and `/// ...`) to end of line, newline excluded.
    LineComment,
    /// `/* ... */`, nesting-aware.
    BlockComment,
    /// Identifier or keyword (also raw identifiers like `r#type`).
    Ident,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
    /// A char or byte-char literal: `'x'`, `b'\n'`.
    Char,
    /// A string literal of any flavour: `"…"`, `b"…"`, `r#"…"#`.
    Str,
    /// An integer literal, suffix included (`42`, `0xFF_u32`).
    Int,
    /// A float literal, suffix included (`1.0`, `2e-3`, `1f64`).
    Float,
    /// Operator or delimiter, maximal-munch (`..=` is one token).
    Punct,
}

/// One token: classification plus the byte span and 1-based start line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Token {
    /// What the token is.
    pub kind: Kind,
    /// Byte offset of the first byte.
    pub start: usize,
    /// Byte offset one past the last byte.
    pub end: usize,
    /// 1-based line number of `start`.
    pub line: u32,
}

impl Token {
    /// The token's text, sliced from the source it was lexed from.
    pub fn text<'a>(&self, src: &'a str) -> &'a str {
        src.get(self.start..self.end).unwrap_or("")
    }
}

/// True for bytes that can begin an identifier. Non-ASCII bytes are
/// treated as identifier material so multi-byte UTF-8 stays intact.
fn ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

/// True for bytes that can continue an identifier.
fn ident_continue(b: u8) -> bool {
    ident_start(b) || b.is_ascii_digit()
}

/// Multi-byte operators, longest first so maximal munch works by scanning
/// the table in order.
const PUNCTS: &[&str] = &[
    "<<=", ">>=", "..=", "...", "&&", "||", "<<", ">>", "<=", ">=", "==", "!=", "+=", "-=", "*=",
    "/=", "%=", "^=", "&=", "|=", "::", "->", "=>", "..",
];

struct Lexer<'a> {
    b: &'a [u8],
    i: usize,
    line: u32,
    /// The last significant token was a lone `.` (tuple-index context).
    after_dot: bool,
}

impl<'a> Lexer<'a> {
    fn peek(&self, off: usize) -> Option<u8> {
        self.b.get(self.i + off).copied()
    }

    /// Advances one byte, counting newlines.
    fn bump(&mut self) {
        if self.peek(0) == Some(b'\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    /// Advances `n` bytes, counting newlines.
    fn bump_n(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn whitespace(&mut self) -> Kind {
        while self.peek(0).is_some_and(|c| c.is_ascii_whitespace()) {
            self.bump();
        }
        Kind::Ws
    }

    fn line_comment(&mut self) -> Kind {
        while self.peek(0).is_some_and(|c| c != b'\n') {
            self.bump();
        }
        Kind::LineComment
    }

    fn block_comment(&mut self) -> Kind {
        self.bump_n(2);
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(0), self.peek(1)) {
                (Some(b'/'), Some(b'*')) => {
                    depth += 1;
                    self.bump_n(2);
                }
                (Some(b'*'), Some(b'/')) => {
                    depth -= 1;
                    self.bump_n(2);
                }
                (Some(_), _) => self.bump(),
                (None, _) => break,
            }
        }
        Kind::BlockComment
    }

    /// Consumes a `"..."` body starting at the opening quote.
    fn quoted_string(&mut self) -> Kind {
        self.bump();
        loop {
            match self.peek(0) {
                Some(b'\\') => self.bump_n(2),
                Some(b'"') => {
                    self.bump();
                    break;
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        Kind::Str
    }

    /// Consumes `r"…"`/`r#"…"#` starting at the `r` (hash count already
    /// known). The prefix length up to and including the opening quote is
    /// `prefix`.
    fn raw_string(&mut self, prefix: usize, hashes: usize) -> Kind {
        self.bump_n(prefix);
        loop {
            match self.peek(0) {
                Some(b'"') => {
                    let closed = (1..=hashes).all(|k| self.peek(k) == Some(b'#'));
                    self.bump();
                    if closed {
                        self.bump_n(hashes);
                        break;
                    }
                }
                Some(_) => self.bump(),
                None => break,
            }
        }
        Kind::Str
    }

    fn ident(&mut self) -> Kind {
        while self.peek(0).is_some_and(ident_continue) {
            self.bump();
        }
        Kind::Ident
    }

    /// At a `'`: char literal, byte-char tail, or lifetime.
    fn char_or_lifetime(&mut self) -> Kind {
        match self.peek(1) {
            // Escaped char: `'\n'`, `'\u{1F600}'` — find the close quote
            // within a short window (escapes are at most 10 bytes).
            Some(b'\\') => {
                for k in 3..14 {
                    if self.peek(k) == Some(b'\'') {
                        self.bump_n(k + 1);
                        return Kind::Char;
                    }
                }
                self.bump();
                Kind::Punct
            }
            Some(c) if ident_start(c) || c.is_ascii_digit() => {
                // `'x'` is a char; `'x` (no close after one character) is
                // a lifetime. Multi-byte chars advance by their UTF-8 len.
                let char_len = match c {
                    0x00..=0x7F => 1,
                    0xC0..=0xDF => 2,
                    0xE0..=0xEF => 3,
                    _ => 4,
                };
                if self.peek(1 + char_len) == Some(b'\'') {
                    self.bump_n(char_len + 2);
                    Kind::Char
                } else {
                    self.bump();
                    while self.peek(0).is_some_and(ident_continue) {
                        self.bump();
                    }
                    Kind::Lifetime
                }
            }
            // `'('`, `' '` and friends — anything but a quote or newline.
            Some(c) if c != b'\'' && c != b'\n' && self.peek(2) == Some(b'\'') => {
                self.bump_n(3);
                Kind::Char
            }
            Some(c) if c != b'\'' && c != b'\n' => {
                self.bump();
                Kind::Punct
            }
            _ => {
                self.bump();
                Kind::Punct
            }
        }
    }

    fn number(&mut self) -> Kind {
        // Right after a `.` a digit run is a tuple index (`t.0`, `x.1.2`),
        // never a float literal.
        if self.after_dot {
            while self.peek(0).is_some_and(|c| c.is_ascii_digit()) {
                self.bump();
            }
            return Kind::Int;
        }
        let mut float = false;
        if self.peek(0) == Some(b'0') && matches!(self.peek(1), Some(b'x' | b'o' | b'b')) {
            self.bump_n(2);
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_hexdigit() || c == b'_')
            {
                self.bump();
            }
        } else {
            while self
                .peek(0)
                .is_some_and(|c| c.is_ascii_digit() || c == b'_')
            {
                self.bump();
            }
            // A decimal point only belongs to the number when it is not a
            // range (`1..2`) or a field/method access (`x.0.1` tuples are
            // lexed as separate tokens after the dot).
            if self.peek(0) == Some(b'.') {
                match self.peek(1) {
                    Some(c) if c.is_ascii_digit() => {
                        float = true;
                        self.bump();
                        while self
                            .peek(0)
                            .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                        {
                            self.bump();
                        }
                    }
                    Some(c) if c == b'.' || ident_start(c) => {}
                    _ => {
                        // Trailing-dot float `1.`
                        float = true;
                        self.bump();
                    }
                }
            }
            // Exponent: `1e9`, `2.5E-3`.
            if matches!(self.peek(0), Some(b'e' | b'E')) {
                let (skip, digit) = match self.peek(1) {
                    Some(b'+' | b'-') => (2, self.peek(2)),
                    other => (1, other),
                };
                if digit.is_some_and(|c| c.is_ascii_digit()) {
                    float = true;
                    self.bump_n(skip);
                    while self
                        .peek(0)
                        .is_some_and(|c| c.is_ascii_digit() || c == b'_')
                    {
                        self.bump();
                    }
                }
            }
        }
        // Suffix: `u64`, `f32`, `usize` … (any identifier tail).
        let suffix_start = self.i;
        while self.peek(0).is_some_and(ident_continue) {
            self.bump();
        }
        let is_float_suffix = self
            .b
            .get(suffix_start..self.i)
            .is_some_and(|s| s == b"f32" || s == b"f64");
        if float || is_float_suffix {
            Kind::Float
        } else {
            Kind::Int
        }
    }

    fn punct(&mut self) -> Kind {
        for p in PUNCTS {
            let pb = p.as_bytes();
            if self.b.len() >= self.i + pb.len() && self.b[self.i..].starts_with(pb) {
                self.bump_n(pb.len());
                return Kind::Punct;
            }
        }
        self.bump();
        Kind::Punct
    }

    /// Handles the `r`/`b`/`br` prefixes that can start a raw string, byte
    /// string, byte char, or raw identifier; falls back to a plain ident.
    fn r_or_b(&mut self) -> Kind {
        let first = self.peek(0);
        // `j` = index just past the prefix letters: 1 for `r`/`b`, 2 for `br`.
        let j = if first == Some(b'b') && self.peek(1) == Some(b'r') {
            2
        } else {
            1
        };
        let raw = first == Some(b'r') || j == 2;
        if raw {
            let mut hashes = 0usize;
            while self.peek(j + hashes) == Some(b'#') {
                hashes += 1;
            }
            if self.peek(j + hashes) == Some(b'"') {
                return self.raw_string(j + hashes + 1, hashes);
            }
            // Raw identifier `r#foo` (only the plain-`r` form exists).
            if first == Some(b'r') && hashes == 1 && self.peek(2).is_some_and(ident_start) {
                self.bump_n(2);
                return self.ident();
            }
        } else {
            // `b"…"` or `b'…'`.
            if self.peek(1) == Some(b'"') {
                self.bump();
                return self.quoted_string();
            }
            if self.peek(1) == Some(b'\'') {
                self.bump();
                return self.char_or_lifetime();
            }
        }
        self.ident()
    }
}

/// Lexes `src` into a lossless token stream (trivia included).
pub fn lex(src: &str) -> Vec<Token> {
    let mut lx = Lexer {
        b: src.as_bytes(),
        i: 0,
        line: 1,
        after_dot: false,
    };
    let mut out = Vec::new();
    while let Some(c) = lx.peek(0) {
        let start = lx.i;
        let line = lx.line;
        let kind = if c.is_ascii_whitespace() {
            lx.whitespace()
        } else if c == b'/' && lx.peek(1) == Some(b'/') {
            lx.line_comment()
        } else if c == b'/' && lx.peek(1) == Some(b'*') {
            lx.block_comment()
        } else if c == b'r' || c == b'b' {
            lx.r_or_b()
        } else if ident_start(c) {
            lx.ident()
        } else if c.is_ascii_digit() {
            lx.number()
        } else if c == b'"' {
            lx.quoted_string()
        } else if c == b'\'' {
            lx.char_or_lifetime()
        } else {
            lx.punct()
        };
        debug_assert!(lx.i > start, "lexer must always advance");
        if lx.i == start {
            // Defensive: never loop forever on a byte we failed to class.
            lx.bump();
        }
        if !matches!(kind, Kind::Ws | Kind::LineComment | Kind::BlockComment) {
            lx.after_dot = kind == Kind::Punct && &lx.b[start..lx.i] == b".";
        }
        out.push(Token {
            kind,
            start,
            end: lx.i,
            line,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn texts(src: &str) -> Vec<(Kind, &str)> {
        lex(src)
            .iter()
            .filter(|t| !matches!(t.kind, Kind::Ws | Kind::LineComment | Kind::BlockComment))
            .map(|t| (t.kind, t.text(src)))
            .collect()
    }

    fn roundtrip(src: &str) {
        let got: String = lex(src).iter().map(|t| t.text(src)).collect();
        assert_eq!(got, src);
    }

    #[test]
    fn reassembly_is_lossless() {
        for src in [
            "fn main() { let x = 1; }\n",
            "let s = r#\"has \"quotes\" and unwrap( inside\"#;\n",
            "/* outer /* inner */ still comment */ let y = 'a';\n",
            "let c: char = 'x'; fn f<'a>(s: &'a str) {}\n",
            "let f = 1.0e-3_f64; let h = 0xFF_u32; let r = 0..=10;\n",
            "let b = b\"bytes\"; let bc = b'\\n'; let emoji = '\\u{1F600}';\n",
            "x.unwrap\n    ();\n",
            "весь мир 'λ' идент\n",
            "let t = (1, 2); let v = t.0;\n",
        ] {
            roundtrip(src);
        }
    }

    #[test]
    fn raw_strings_hide_their_contents_from_ident_matching() {
        let src = "let s = r#\"x.unwrap() Instant::now\"#; let ok = 1;\n";
        let ts = texts(src);
        assert!(ts
            .iter()
            .any(|(k, t)| *k == Kind::Str && t.contains("unwrap")));
        assert!(!ts.iter().any(|(k, t)| *k == Kind::Ident && *t == "unwrap"));
        roundtrip(src);
    }

    #[test]
    fn lifetimes_and_chars_are_distinguished() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\n";
        let ts = texts(src);
        assert!(ts.contains(&(Kind::Lifetime, "'a")));
        assert!(ts.contains(&(Kind::Char, "'x'")));
        roundtrip(src);
    }

    #[test]
    fn numeric_literals_classify_with_suffixes() {
        let ts = texts("let a = 1.5; let b = 2e3; let c = 7u64; let d = 1f64; let e = 0b1010;");
        assert!(ts.contains(&(Kind::Float, "1.5")));
        assert!(ts.contains(&(Kind::Float, "2e3")));
        assert!(ts.contains(&(Kind::Int, "7u64")));
        assert!(ts.contains(&(Kind::Float, "1f64")));
        assert!(ts.contains(&(Kind::Int, "0b1010")));
    }

    #[test]
    fn ranges_do_not_eat_dots() {
        let ts = texts("for i in 0..10 { } for f in 0.0..=1.0 { }");
        assert!(ts.contains(&(Kind::Int, "0")));
        assert!(ts.contains(&(Kind::Punct, "..")));
        assert!(ts.contains(&(Kind::Float, "0.0")));
        assert!(ts.contains(&(Kind::Punct, "..=")));
        assert!(ts.contains(&(Kind::Float, "1.0")));
    }

    #[test]
    fn tuple_field_access_is_not_a_float() {
        let ts = texts("let v = t.0; let w = x.1.2;");
        assert!(ts.contains(&(Kind::Int, "0")));
        assert!(!ts.iter().any(|(k, _)| *k == Kind::Float));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "let a = 1;\n/* c\nc */ \"s\ns\" x\n";
        let toks = lex(src);
        let x = toks
            .iter()
            .find(|t| t.kind == Kind::Ident && t.text(src) == "x")
            .expect("x token");
        assert_eq!(x.line, 4);
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        roundtrip("let s = \"never closed");
        roundtrip("let r = r#\"never closed");
        roundtrip("/* never closed");
        roundtrip("let c = '");
    }

    #[test]
    fn raw_identifiers_stay_idents() {
        let ts = texts("let r#type = 1; let r = 2;");
        assert!(ts.contains(&(Kind::Ident, "r#type")));
        assert!(ts.contains(&(Kind::Ident, "r")));
    }
}
