//! Item/scope tracking over the token stream.
//!
//! Rule passes need three pieces of context per token: is it inside a
//! `#[cfg(test)]`/`#[test]` region (exempt from every rule), which `fn`
//! item encloses it (for diagnostics), and where statement boundaries lie.
//! This module computes the first two in one pass over the *significant*
//! (trivia-free) token slice. Because it walks tokens rather than raw
//! text, braces inside strings or comments can never desynchronise the
//! matcher — a failure mode the old character-walking mask had to scrub
//! its way around.

use crate::lexer::Kind;

/// A significant token as seen by scope analysis and rule passes: the
/// original [`crate::lexer::Token`] resolved against its source.
#[derive(Debug, Clone, Copy)]
pub struct Sig<'a> {
    /// Token classification.
    pub kind: Kind,
    /// Token text.
    pub text: &'a str,
    /// 1-based line of the token's first byte.
    pub line: u32,
}

/// Per-token scope context for one file.
#[derive(Debug)]
pub struct Scopes {
    /// `true` when the token at this index is inside a `#[test]` or
    /// `#[cfg(test)]` item (attribute included).
    pub in_test: Vec<bool>,
    /// Index into [`Scopes::fn_names`] of the innermost enclosing `fn`,
    /// if any.
    pub fn_of: Vec<Option<usize>>,
    /// Names of every `fn` item, in source order.
    pub fn_names: Vec<String>,
}

impl Scopes {
    /// Name of the innermost function enclosing token `i`, for messages.
    pub fn fn_name(&self, i: usize) -> Option<&str> {
        let idx = *self.fn_of.get(i)?;
        self.fn_names.get(idx?).map(String::as_str)
    }
}

/// Finds the matching `}` for the `{` at `open` (indices into `toks`),
/// returning the index of the closer (or the last token when unbalanced).
fn match_brace(toks: &[Sig<'_>], open: usize) -> usize {
    let mut depth = 0usize;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == Kind::Punct {
            match t.text {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return k;
                    }
                }
                _ => {}
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Scans forward from `i` to the end of an attribute's item: skips any
/// further `#[...]` attributes, then runs to the item's opening `{` (whose
/// matching `}` ends the item) or a terminating `;`. Returns the index of
/// the item's final token.
fn item_end(toks: &[Sig<'_>], mut i: usize) -> usize {
    // Skip stacked attributes.
    while i + 1 < toks.len() && toks[i].text == "#" && toks[i + 1].text == "[" {
        let mut depth = 0usize;
        let mut j = i + 1;
        while j < toks.len() {
            match toks[j].text {
                "[" => depth += 1,
                "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        i = j + 1;
    }
    while i < toks.len() {
        match toks[i].text {
            "{" => return match_brace(toks, i),
            ";" => return i,
            _ => i += 1,
        }
    }
    toks.len().saturating_sub(1)
}

/// True when the attribute body `toks[start..end]` (exclusive of the
/// surrounding `#[`/`]`) marks a test region: `test`, `cfg(test)`, or any
/// `cfg(...)` whose arguments mention `test`.
fn is_test_attr(toks: &[Sig<'_>]) -> bool {
    let idents: Vec<&str> = toks
        .iter()
        .filter(|t| t.kind == Kind::Ident)
        .map(|t| t.text)
        .collect();
    match idents.first() {
        Some(&"test") => idents.len() == 1,
        // `cfg(test)` / `cfg(all(test, …))` mask; `cfg(not(test))` is
        // live code and must not.
        Some(&"cfg") => idents.iter().any(|&t| t == "test") && !idents.iter().any(|&t| t == "not"),
        _ => false,
    }
}

/// Computes test masking and enclosing-`fn` context for a significant
/// token slice.
pub fn analyze(toks: &[Sig<'_>]) -> Scopes {
    let n = toks.len();
    let mut in_test = vec![false; n];
    let mut fn_of: Vec<Option<usize>> = vec![None; n];
    let mut fn_names: Vec<String> = Vec::new();

    // Test regions: every `#[test]` / `#[cfg(test)]` attribute claims its
    // item, attribute through closing brace (or semicolon).
    let mut i = 0;
    while i + 1 < n {
        if toks[i].text == "#" && toks[i + 1].text == "[" {
            let mut depth = 0usize;
            let mut j = i + 1;
            while j < n {
                match toks[j].text {
                    "[" => depth += 1,
                    "]" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            if j < n && is_test_attr(&toks[i + 2..j]) {
                let end = item_end(toks, i);
                for flag in in_test.iter_mut().take(end + 1).skip(i) {
                    *flag = true;
                }
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }

    // Function extents: `fn name … { … }`. Later (nested) intervals
    // overwrite earlier ones, so each token maps to its innermost fn.
    let mut k = 0;
    while k + 1 < n {
        if toks[k].kind == Kind::Ident && toks[k].text == "fn" && toks[k + 1].kind == Kind::Ident {
            let name = toks[k + 1].text.to_string();
            // Walk to the body's `{` (a `;` first means a trait method
            // signature or extern decl — no body, nothing to claim).
            let mut j = k + 2;
            let mut body = None;
            while j < n {
                match toks[j].text {
                    "{" => {
                        body = Some(j);
                        break;
                    }
                    ";" => break,
                    _ => j += 1,
                }
            }
            if let Some(open) = body {
                let close = match_brace(toks, open);
                let idx = fn_names.len();
                fn_names.push(name);
                for slot in fn_of.iter_mut().take(close + 1).skip(k) {
                    *slot = Some(idx);
                }
            }
        }
        k += 1;
    }

    Scopes {
        in_test,
        fn_of,
        fn_names,
    }
}

/// Builds the significant-token view of a lexed file: trivia dropped,
/// texts resolved.
pub fn significant<'a>(src: &'a str, tokens: &[crate::lexer::Token]) -> Vec<Sig<'a>> {
    tokens
        .iter()
        .filter(|t| !matches!(t.kind, Kind::Ws | Kind::LineComment | Kind::BlockComment))
        .map(|t| Sig {
            kind: t.kind,
            text: t.text(src),
            line: t.line,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn scopes_of(src: &str) -> (Vec<Sig<'_>>, Scopes) {
        let toks = lex(src);
        let sig = significant(src, &toks);
        let sc = analyze(&sig);
        (sig, sc)
    }

    fn idx_of<'a>(sig: &[Sig<'a>], text: &str) -> usize {
        sig.iter()
            .position(|t| t.text == text)
            .unwrap_or_else(|| panic!("token `{text}` not found"))
    }

    #[test]
    fn cfg_test_masks_the_whole_module() {
        let src = "fn lib() { work(); }\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); }\n}\nfn after() { more(); }\n";
        let (sig, sc) = scopes_of(src);
        assert!(!sc.in_test[idx_of(&sig, "work")]);
        assert!(sc.in_test[idx_of(&sig, "unwrap")]);
        assert!(!sc.in_test[idx_of(&sig, "more")]);
    }

    #[test]
    fn braces_inside_strings_do_not_desync_the_mask() {
        let src =
            "#[cfg(test)]\nmod tests { const S: &str = \"}}}{{{\"; }\nfn live() { x.unwrap(); }\n";
        let (sig, sc) = scopes_of(src);
        assert!(
            !sc.in_test[idx_of(&sig, "unwrap")],
            "code after the test module must be live"
        );
    }

    #[test]
    fn stacked_attributes_are_skipped_to_the_item() {
        let src = "#[test]\n#[ignore]\nfn t() { boom(); }\nfn live() {}\n";
        let (sig, sc) = scopes_of(src);
        assert!(sc.in_test[idx_of(&sig, "boom")]);
        assert!(!sc.in_test[idx_of(&sig, "live")]);
    }

    #[test]
    fn fn_names_resolve_innermost() {
        let src = "fn outer() { fn inner() { deep(); } shallow(); }\n";
        let (sig, sc) = scopes_of(src);
        assert_eq!(sc.fn_name(idx_of(&sig, "deep")), Some("inner"));
        assert_eq!(sc.fn_name(idx_of(&sig, "shallow")), Some("outer"));
    }

    #[test]
    fn cfg_not_test_is_not_masked() {
        let src = "#[cfg(feature = \"extra\")]\nfn v() { x.unwrap(); }\n";
        let (sig, sc) = scopes_of(src);
        assert!(!sc.in_test[idx_of(&sig, "unwrap")]);
    }
}
