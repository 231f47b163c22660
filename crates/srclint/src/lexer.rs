//! A minimal, dependency-free Rust tokenizer.
//!
//! `ktrace-lint` does not need full Rust parsing — only enough token
//! structure to recognize `fn` boundaries, hazard tokens on the logging
//! hot path and lock acquisitions.
//! This lexer produces exactly that: identifiers, numbers, string/char
//! literals, punctuation (with `::`, `=>`, `->` joined), and the
//! `// ktrace-lint:` control comments that carry suppressions. Everything
//! else, including doc and ordinary comments, is dropped.

/// Token classification.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Numeric literal (raw text, suffix included).
    Number,
    /// String literal; `text` is the unescaped content.
    Str,
    /// Char literal (content, unescaped best-effort).
    Char,
    /// Punctuation; `::`, `=>`, `->` are single tokens, all else one char.
    Punct,
    /// `// ktrace-lint: …` control comment; `text` is the full body.
    LintComment,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Tok {
    /// True for a `Punct` token with exactly this text.
    pub fn is_punct(&self, p: &str) -> bool {
        self.kind == TokKind::Punct && self.text == p
    }

    /// True for an `Ident` token with exactly this text.
    pub fn is_ident(&self, id: &str) -> bool {
        self.kind == TokKind::Ident && self.text == id
    }
}

/// Tokenizes `src`. Unterminated literals are tolerated (the remainder of
/// the file becomes one token) — a linter must not panic on bad input.
pub fn tokenize(src: &str) -> Vec<Tok> {
    let chars: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0;
    let mut line: u32 = 1;
    let n = chars.len();

    let is_id_start = |c: char| c.is_alphabetic() || c == '_';
    let is_id_cont = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        if c == '\n' {
            line += 1;
            i += 1;
            continue;
        }
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && chars[i + 1] == '/' {
            let start = i + 2;
            let mut j = start;
            while j < n && chars[j] != '\n' {
                j += 1;
            }
            let body: String = chars[start..j].iter().collect();
            if body.contains("ktrace-lint:") {
                toks.push(Tok {
                    kind: TokKind::LintComment,
                    text: body.trim().to_string(),
                    line,
                });
            }
            i = j;
            continue;
        }
        if c == '/' && i + 1 < n && chars[i + 1] == '*' {
            // Nested block comment (doc block comments also dropped).
            let mut depth = 1;
            let mut j = i + 2;
            while j < n && depth > 0 {
                if chars[j] == '\n' {
                    line += 1;
                    j += 1;
                } else if chars[j] == '/' && j + 1 < n && chars[j + 1] == '*' {
                    depth += 1;
                    j += 2;
                } else if chars[j] == '*' && j + 1 < n && chars[j + 1] == '/' {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            i = j;
            continue;
        }
        // Raw strings: r"…", r#"…"#, br"…", br#"…"#.
        if (c == 'r' || (c == 'b' && i + 1 < n && chars[i + 1] == 'r'))
            && raw_string_starts(&chars, i)
        {
            let start_line = line;
            let rstart = if c == 'b' { i + 1 } else { i };
            let mut hashes = 0;
            let mut j = rstart + 1;
            while j < n && chars[j] == '#' {
                hashes += 1;
                j += 1;
            }
            // chars[j] == '"'
            j += 1;
            let content_start = j;
            let closer: String = std::iter::once('"')
                .chain(std::iter::repeat_n('#', hashes))
                .collect();
            let mut content_end = n;
            while j < n {
                if chars[j] == '\n' {
                    line += 1;
                }
                if chars[j] == '"' && matches_at(&chars, j, &closer) {
                    content_end = j;
                    j += closer.len();
                    break;
                }
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: chars[content_start..content_end.min(n)].iter().collect(),
                line: start_line,
            });
            i = j;
            continue;
        }
        // Raw identifiers: `r#type` is the identifier `type`, not a raw
        // string (no quote after the hashes) — must not split into r/#/type.
        if c == 'r' && i + 2 < n && chars[i + 1] == '#' && is_id_start(chars[i + 2]) {
            let mut j = i + 3;
            while j < n && is_id_cont(chars[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i + 2..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Byte strings / normal strings.
        if c == '"' || (c == 'b' && i + 1 < n && chars[i + 1] == '"') {
            let start_line = line;
            let mut j = if c == 'b' { i + 2 } else { i + 1 };
            let mut out = String::new();
            while j < n && chars[j] != '"' {
                if chars[j] == '\n' {
                    line += 1;
                }
                if chars[j] == '\\' && j + 1 < n {
                    out.push(unescape(chars[j + 1]));
                    j += 2;
                } else {
                    out.push(chars[j]);
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Str,
                text: out,
                line: start_line,
            });
            i = j + 1;
            continue;
        }
        // Lifetimes vs char literals.
        if c == '\'' {
            let next = chars.get(i + 1).copied();
            let after = chars.get(i + 2).copied();
            if let Some(nc) = next {
                if (is_id_start(nc)) && after != Some('\'') {
                    // Lifetime: skip `'ident`.
                    let mut j = i + 1;
                    while j < n && is_id_cont(chars[j]) {
                        j += 1;
                    }
                    i = j;
                    continue;
                }
            }
            // Char literal.
            let mut j = i + 1;
            let mut out = String::new();
            while j < n && chars[j] != '\'' {
                if chars[j] == '\\' && j + 1 < n {
                    out.push(unescape(chars[j + 1]));
                    j += 2;
                } else {
                    out.push(chars[j]);
                    j += 1;
                }
            }
            toks.push(Tok {
                kind: TokKind::Char,
                text: out,
                line,
            });
            i = j + 1;
            continue;
        }
        if is_id_start(c) {
            let mut j = i + 1;
            while j < n && is_id_cont(chars[j]) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        if c.is_ascii_digit() {
            let mut j = i + 1;
            while j < n && (is_id_cont(chars[j])) {
                j += 1;
            }
            toks.push(Tok {
                kind: TokKind::Number,
                text: chars[i..j].iter().collect(),
                line,
            });
            i = j;
            continue;
        }
        // Punctuation; join the pairs the parsers rely on.
        let pair: String = chars[i..n.min(i + 2)].iter().collect();
        if pair == "::" || pair == "=>" || pair == "->" {
            toks.push(Tok {
                kind: TokKind::Punct,
                text: pair,
                line,
            });
            i += 2;
            continue;
        }
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }
    toks
}

fn raw_string_starts(chars: &[char], i: usize) -> bool {
    let mut j = if chars[i] == 'b' { i + 2 } else { i + 1 };
    while j < chars.len() && chars[j] == '#' {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

fn matches_at(chars: &[char], at: usize, pat: &str) -> bool {
    pat.chars()
        .enumerate()
        .all(|(k, p)| chars.get(at + k) == Some(&p))
}

fn unescape(c: char) -> char {
    match c {
        'n' => '\n',
        't' => '\t',
        'r' => '\r',
        '0' => '\0',
        other => other,
    }
}

/// Returns the index just past the brace-balanced group opening at `open`
/// (which must point at `{`, `(`, or `[`). Balances all three bracket kinds
/// together, which is sufficient for well-formed Rust.
pub fn skip_group(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        if toks[i].kind == TokKind::Punct {
            match toks[i].text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return i + 1;
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// The receiver identifier of the method call at `toks[k]` (`toks[k]` is
/// the method name, `toks[k - 1]` the `.`): the last plain identifier
/// before the dot, skipping back over one `[…]` index group, so
/// `self.committed[slot].fetch_add(…)` resolves to `committed`. `None` for
/// chained calls (`f().m()`) and other unresolvable receivers.
pub fn receiver_ident(toks: &[Tok], k: usize) -> Option<&str> {
    if k < 2 || !toks[k - 1].is_punct(".") {
        return None;
    }
    let mut r = k - 2;
    if toks[r].is_punct("]") {
        let mut depth = 1usize;
        while depth > 0 {
            if r == 0 {
                return None;
            }
            r -= 1;
            if toks[r].is_punct("]") {
                depth += 1;
            } else if toks[r].is_punct("[") {
                depth -= 1;
            }
        }
        if r == 0 {
            return None;
        }
        r -= 1;
    }
    (toks[r].kind == TokKind::Ident).then(|| toks[r].text.as_str())
}

/// Removes every `#[cfg(test)] mod … { … }` region: unit-test blocks are
/// exempt from instrumentation linting (they log scratch events by design).
pub fn strip_test_modules(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct("#") && matches_seq(&toks, i + 1, &["[", "cfg", "(", "test", ")", "]"])
        {
            // Skip over any further attributes to the item they decorate.
            let mut j = i + 7;
            while j < toks.len() && toks[j].is_punct("#") {
                if toks.get(j + 1).is_some_and(|t| t.is_punct("[")) {
                    j = skip_group(&toks, j + 1);
                } else {
                    break;
                }
            }
            if toks.get(j).is_some_and(|t| t.is_ident("mod")) {
                // Skip `mod name { … }` entirely.
                let mut k = j;
                while k < toks.len() && !toks[k].is_punct("{") {
                    k += 1;
                }
                i = skip_group(&toks, k);
                continue;
            }
            // `#[cfg(test)]` on a non-mod item: drop just the attribute.
            i += 7;
            continue;
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

fn matches_seq(toks: &[Tok], at: usize, pat: &[&str]) -> bool {
    pat.iter()
        .enumerate()
        .all(|(k, p)| toks.get(at + k).is_some_and(|t| t.text == *p))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_calls_docs_and_strings() {
        let toks = tokenize(
            "/// Doc: `[a, b]`.\nh.log(MajorId::SCHED, sched::X, &[a, b]); // ktrace-lint: allow(hot-path)\nlet s = \"str \\\" lit\";",
        );
        // The doc comment is dropped: the first token is the receiver.
        assert!(toks[0].is_ident("h"));
        assert_eq!(toks[0].line, 2);
        assert!(toks.iter().any(|t| t.is_ident("MajorId")));
        assert!(toks.iter().any(|t| t.is_punct("::")));
        assert!(toks.iter().any(|t| t.kind == TokKind::LintComment));
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text == "str \" lit"));
    }

    #[test]
    fn lifetimes_and_chars_disambiguated() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; let d = '\\''; }");
        let chars: Vec<&Tok> = toks.iter().filter(|t| t.kind == TokKind::Char).collect();
        assert_eq!(chars.len(), 2);
        assert_eq!(chars[0].text, "x");
        assert_eq!(chars[1].text, "'");
    }

    #[test]
    fn raw_strings_and_nesting() {
        let toks = tokenize("let x = r#\"a \"quoted\" b\"#; /* outer /* inner */ still */ y");
        assert!(toks
            .iter()
            .any(|t| t.kind == TokKind::Str && t.text.contains("quoted")));
        assert!(toks.iter().any(|t| t.is_ident("y")));
    }

    #[test]
    fn strip_test_modules_removes_unit_tests() {
        let toks = tokenize(
            "fn live() {} #[cfg(test)] mod tests { fn gone() { h.log(MajorId::SCHED, 1, &[]); } } fn also_live() {}",
        );
        let stripped = strip_test_modules(toks);
        assert!(stripped.iter().any(|t| t.is_ident("live")));
        assert!(stripped.iter().any(|t| t.is_ident("also_live")));
        assert!(!stripped.iter().any(|t| t.is_ident("gone")));
    }

    #[test]
    fn raw_strings_report_their_start_line() {
        let toks = tokenize("let x = r#\"line1\nline2\nline3\"#;\nlet y = 1;");
        let s = toks.iter().find(|t| t.kind == TokKind::Str).unwrap();
        assert_eq!(s.line, 1, "a multi-line raw string starts on line 1");
        let y = toks.iter().find(|t| t.is_ident("y")).unwrap();
        assert_eq!(y.line, 4);
    }

    #[test]
    fn raw_identifiers_lex_as_one_ident() {
        let toks = tokenize("let r#type = r#match.r#fn();");
        assert!(toks.iter().any(|t| t.is_ident("type")));
        assert!(toks.iter().any(|t| t.is_ident("match")));
        assert!(toks.iter().any(|t| t.is_ident("fn")));
        assert!(!toks.iter().any(|t| t.is_punct("#")));
    }

    #[test]
    fn only_lint_comments_are_kept() {
        let toks = tokenize(
            "// ktrace-lint: allow(hot-path)\nlet a = 1;\n// SAFETY: bounds checked above.\nlet b = 2;\n// plain comment\nlet c = 3;",
        );
        let lints: Vec<&Tok> = toks
            .iter()
            .filter(|t| t.kind == TokKind::LintComment)
            .collect();
        assert_eq!(lints.len(), 1);
        assert!(lints[0].text.contains("ktrace-lint:"));
        assert_eq!(lints[0].line, 1);
    }
}
