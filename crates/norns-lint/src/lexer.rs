//! A hand-rolled Rust lexer, sufficient for static analysis: it
//! separates code tokens from comments so no rule ever fires on the
//! word `unsafe` inside a string literal or a doc sentence, and it
//! preserves line numbers so findings and `allow` markers anchor to
//! real source locations.
//!
//! It is deliberately not a parser. String literals (cooked, raw,
//! byte), char literals vs. lifetimes, nested block comments, and
//! numeric literals are recognized precisely; everything else is an
//! identifier or a single punctuation character. The analyses built on
//! top work on this flat token stream with their own scope tracking.

/// One code token. Punctuation is emitted one character at a time
/// (`::` is two `Punct(':')` tokens); consumers match sequences.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident(String),
    /// Single punctuation character.
    Punct(char),
    /// String literal (cooked/raw/byte) with its unprocessed content —
    /// needed to recognize `extern "C"`.
    Str(String),
    /// Any other literal: number, char, lifetime.
    Lit,
}

/// A token with the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub kind: Tok,
    pub line: u32,
}

/// A comment with its span and content (without the `//` / `/* */`
/// markers). `trailing` means code appeared earlier on the same line.
#[derive(Debug, Clone)]
pub struct Comment {
    pub line: u32,
    pub end_line: u32,
    pub text: String,
    pub trailing: bool,
}

/// Lexed file: code tokens and comments, both in source order.
#[derive(Debug, Default)]
pub struct Lexed {
    pub tokens: Vec<Token>,
    pub comments: Vec<Comment>,
}

impl Lexed {
    /// Line numbers that carry at least one code token.
    pub fn code_lines(&self) -> std::collections::BTreeSet<u32> {
        self.tokens.iter().map(|t| t.line).collect()
    }
}

/// Does `pattern` match the tokens from `i` on? `…` in a pattern stands
/// for any tokens inside the enclosing bracket, and a string literal
/// matches every literal containing it.
pub fn matches_at(toks: &[Token], mut i: usize, pattern: &[Token]) -> bool {
    for (k, want) in pattern.iter().enumerate() {
        if want.kind == Tok::Punct('…') {
            // Try the rest at every token up to the enclosing closer.
            let mut depth = 0u32;
            while let Some(t) = toks.get(i) {
                if matches_at(toks, i, &pattern[k + 1..]) {
                    return true;
                }
                match t.kind {
                    Tok::Punct('>') if toks[i - 1].kind == Tok::Punct('-') => {}
                    Tok::Punct('(' | '[' | '{' | '<') => depth += 1,
                    Tok::Punct(')' | ']' | '}' | '>') if depth > 0 => depth -= 1,
                    Tok::Punct(')' | ']' | '}' | '>' | ';') => return false,
                    _ => {}
                }
                i += 1;
            }
            return false;
        }
        let hit = match (toks.get(i).map(|t| &t.kind), &want.kind) {
            (Some(Tok::Str(have)), Tok::Str(text)) => have.contains(text.as_str()),
            (have, want) => have == Some(want),
        };
        if !hit {
            return false;
        }
        i += 1;
    }
    true
}

/// The index of the token ending the item that starts at `from`: its
/// first top-level `;`, or the `}` closing its first `{`.
pub fn item_end(toks: &[Token], from: usize) -> usize {
    let mut depth = 0;
    for (j, t) in toks.iter().enumerate().skip(from) {
        match t.kind {
            Tok::Punct('(' | '[' | '{') => depth += 1,
            Tok::Punct('}') if depth == 1 => return j,
            Tok::Punct(')' | ']' | '}') => depth -= 1,
            Tok::Punct(';') if depth == 0 => return j,
            _ => {}
        }
    }
    toks.len()
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Tokenize `src`. Malformed input (unterminated strings or comments)
/// does not panic: the remainder is swallowed into the open literal or
/// comment, which is the right behavior for an analysis tool.
pub fn lex(src: &str) -> Lexed {
    let mut out = Lexed::default();
    let chars: Vec<char> = src.chars().collect();
    let mut i = 0usize;
    let mut line: u32 = 1;
    let mut code_on_line = false;

    macro_rules! bump_line {
        () => {{
            line += 1;
            code_on_line = false;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        match c {
            '\n' => {
                i += 1;
                bump_line!();
            }
            c if c.is_whitespace() => i += 1,
            '/' if chars.get(i + 1) == Some(&'/') => {
                // Line comment (incl. `///` and `//!`).
                let start = i + 2;
                let mut j = start;
                while j < chars.len() && chars[j] != '\n' {
                    j += 1;
                }
                out.comments.push(Comment {
                    line,
                    end_line: line,
                    text: chars[start..j].iter().collect(),
                    trailing: code_on_line,
                });
                i = j;
            }
            '/' if chars.get(i + 1) == Some(&'*') => {
                // Block comment; Rust block comments nest.
                let start_line = line;
                let trailing = code_on_line;
                let mut depth = 1usize;
                let mut j = i + 2;
                let text_start = j;
                while j < chars.len() && depth > 0 {
                    if chars[j] == '\n' {
                        bump_line!();
                        j += 1;
                    } else if chars[j] == '/' && chars.get(j + 1) == Some(&'*') {
                        depth += 1;
                        j += 2;
                    } else if chars[j] == '*' && chars.get(j + 1) == Some(&'/') {
                        depth -= 1;
                        j += 2;
                    } else {
                        j += 1;
                    }
                }
                let text_end = if depth == 0 { j - 2 } else { j };
                out.comments.push(Comment {
                    line: start_line,
                    end_line: line,
                    text: chars[text_start..text_end].iter().collect(),
                    trailing,
                });
                i = j;
            }
            '"' => {
                let tok_line = line;
                let (content, next) = cooked_string(&chars, i + 1, &mut line, &mut code_on_line);
                out.tokens.push(Token {
                    kind: Tok::Str(content),
                    line: tok_line,
                });
                code_on_line = true;
                i = next;
            }
            '\'' => {
                let tok_line = line;
                // Lifetime vs char literal: `'ident` not followed by a
                // closing quote is a lifetime.
                let next_is_ident = chars.get(i + 1).is_some_and(|&n| is_ident_start(n));
                let closes_as_char = chars.get(i + 2) == Some(&'\'');
                if next_is_ident && !closes_as_char {
                    let mut j = i + 1;
                    while j < chars.len() && is_ident_continue(chars[j]) {
                        j += 1;
                    }
                    out.tokens.push(Token {
                        kind: Tok::Lit,
                        line: tok_line,
                    });
                    code_on_line = true;
                    i = j;
                } else {
                    // Char literal, escapes included.
                    let mut j = i + 1;
                    while j < chars.len() {
                        match chars[j] {
                            '\\' => j += 2,
                            '\'' => {
                                j += 1;
                                break;
                            }
                            '\n' => break, // malformed; don't eat the file
                            _ => j += 1,
                        }
                    }
                    out.tokens.push(Token {
                        kind: Tok::Lit,
                        line: tok_line,
                    });
                    code_on_line = true;
                    i = j;
                }
            }
            c if c.is_ascii_digit() => {
                let tok_line = line;
                let mut j = i;
                while j < chars.len() {
                    let d = chars[j];
                    if d.is_alphanumeric() || d == '_' {
                        j += 1;
                    } else if d == '.'
                        && chars.get(j + 1).is_some_and(|n| n.is_ascii_digit())
                        && chars.get(j + 1) != Some(&'.')
                    {
                        // Fraction digit — but never eat a `..` range.
                        j += 1;
                    } else {
                        break;
                    }
                }
                out.tokens.push(Token {
                    kind: Tok::Lit,
                    line: tok_line,
                });
                code_on_line = true;
                i = j;
            }
            c if is_ident_start(c) => {
                let tok_line = line;
                let mut j = i;
                while j < chars.len() && is_ident_continue(chars[j]) {
                    j += 1;
                }
                let word: String = chars[i..j].iter().collect();
                // Raw / byte string prefixes: r" r#" b" br" br#".
                let is_str_prefix = matches!(word.as_str(), "r" | "b" | "br" | "rb");
                if is_str_prefix && (chars.get(j) == Some(&'"') || chars.get(j) == Some(&'#')) {
                    let raw = word.contains('r');
                    if chars.get(j) == Some(&'"') && !raw {
                        // b"..." — cooked byte string.
                        let (content, next) =
                            cooked_string(&chars, j + 1, &mut line, &mut code_on_line);
                        out.tokens.push(Token {
                            kind: Tok::Str(content),
                            line: tok_line,
                        });
                        code_on_line = true;
                        i = next;
                        continue;
                    }
                    // Count hashes; require a quote after them for a
                    // raw string (otherwise it's a raw ident like r#fn).
                    let mut hashes = 0usize;
                    let mut k = j;
                    while chars.get(k) == Some(&'#') {
                        hashes += 1;
                        k += 1;
                    }
                    if chars.get(k) == Some(&'"') && raw {
                        let (content, next) =
                            raw_string(&chars, k + 1, hashes, &mut line, &mut code_on_line);
                        out.tokens.push(Token {
                            kind: Tok::Str(content),
                            line: tok_line,
                        });
                        code_on_line = true;
                        i = next;
                        continue;
                    }
                    if hashes > 0 && raw && chars.get(k).is_some_and(|&n| is_ident_start(n)) {
                        // Raw identifier r#ident.
                        let mut m = k;
                        while m < chars.len() && is_ident_continue(chars[m]) {
                            m += 1;
                        }
                        out.tokens.push(Token {
                            kind: Tok::Ident(chars[k..m].iter().collect()),
                            line: tok_line,
                        });
                        code_on_line = true;
                        i = m;
                        continue;
                    }
                }
                out.tokens.push(Token {
                    kind: Tok::Ident(word),
                    line: tok_line,
                });
                code_on_line = true;
                i = j;
            }
            other => {
                out.tokens.push(Token {
                    kind: Tok::Punct(other),
                    line,
                });
                code_on_line = true;
                i += 1;
            }
        }
    }
    out
}

/// Scan a cooked string body starting just after the opening quote.
/// Returns (content, index just past the closing quote).
fn cooked_string(
    chars: &[char],
    start: usize,
    line: &mut u32,
    code_on_line: &mut bool,
) -> (String, usize) {
    let mut j = start;
    while j < chars.len() {
        match chars[j] {
            '\\' => {
                // An escaped character can be a newline (the `\` line
                // continuation); it must still bump the line counter or
                // every later token anchors one line short.
                if chars.get(j + 1) == Some(&'\n') {
                    *line += 1;
                    *code_on_line = false;
                }
                j += 2;
            }
            '"' => {
                return (chars[start..j].iter().collect(), j + 1);
            }
            '\n' => {
                *line += 1;
                *code_on_line = false;
                j += 1;
            }
            _ => j += 1,
        }
    }
    (chars[start..].iter().collect(), chars.len())
}

/// Scan a raw string body (no escapes) terminated by `"` + `hashes`
/// `#` characters.
fn raw_string(
    chars: &[char],
    start: usize,
    hashes: usize,
    line: &mut u32,
    code_on_line: &mut bool,
) -> (String, usize) {
    let mut j = start;
    while j < chars.len() {
        if chars[j] == '\n' {
            *line += 1;
            *code_on_line = false;
            j += 1;
            continue;
        }
        if chars[j] == '"'
            && chars[j + 1..]
                .iter()
                .take(hashes)
                .filter(|&&c| c == '#')
                .count()
                == hashes
        {
            return (chars[start..j].iter().collect(), j + 1 + hashes);
        }
        j += 1;
    }
    (chars[start..].iter().collect(), chars.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .iter()
            .filter_map(|t| match &t.kind {
                Tok::Ident(s) => Some(s.clone()),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn keywords_in_strings_and_comments_are_not_tokens() {
        let src = r##"
            // unsafe in a comment
            /* unsafe in /* a nested */ block */
            let a = "unsafe { extern }";
            let b = r#"unsafe"#;
            let c = b"unsafe";
            let real = 1;
        "##;
        let ids = idents(src);
        assert!(!ids.contains(&"unsafe".to_string()));
        assert!(ids.contains(&"real".to_string()));
    }

    #[test]
    fn lifetimes_and_chars_do_not_break_lexing() {
        let src = "fn f<'a>(x: &'a str) -> char { let c = '\\''; let d = 'x'; 'y' }";
        let ids = idents(src);
        // Lifetimes and char literals become `Lit`, not idents.
        assert_eq!(
            ids,
            vec!["fn", "f", "x", "str", "char", "let", "c", "let", "d"]
        );
    }

    #[test]
    fn comments_carry_lines_and_trailing_flag() {
        let src = "let x = 1; // trailing\n// standalone\nlet y = 2;\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert!(lexed.comments[0].trailing);
        assert_eq!(lexed.comments[0].line, 1);
        assert!(!lexed.comments[1].trailing);
        assert_eq!(lexed.comments[1].line, 2);
        assert_eq!(lexed.tokens.last().unwrap().line, 3);
    }

    #[test]
    fn extern_c_is_visible_as_ident_plus_string() {
        let lexed = lex("extern \"C\" { fn close(fd: i32) -> i32; }");
        assert!(matches!(&lexed.tokens[0].kind, Tok::Ident(s) if s == "extern"));
        assert!(matches!(&lexed.tokens[1].kind, Tok::Str(s) if s == "C"));
    }

    fn line_of(src: &str, ident: &str) -> u32 {
        lex(src)
            .tokens
            .iter()
            .find(|t| matches!(&t.kind, Tok::Ident(s) if s == ident))
            .unwrap_or_else(|| panic!("ident `{ident}` not lexed"))
            .line
    }

    #[test]
    fn raw_strings_do_not_desynchronize_lines_or_tokens() {
        // Hash-guarded raw string spanning lines, with an embedded
        // quote and a `"#`-lookalike that must not terminate early.
        let src = "let a = r##\"one \"# two\nthree \"quoted\" \\\nfour\"##;\nlet after = 1;\n";
        assert_eq!(line_of(src, "after"), 4, "raw string spans lines 1-3");
        // The `\\` before the newline is literal in a raw string — it
        // must not swallow the line break.
        let src2 = "let s = r\"tail\\\nnext\";\nlet mark = 2;\n";
        assert_eq!(line_of(src2, "mark"), 3);
        // A raw string closing mid-line leaves the rest as code.
        let ids = idents("let x = r#\"text\"#; unsafe { }");
        assert!(ids.contains(&"unsafe".to_string()));
    }

    #[test]
    fn string_escape_line_continuation_keeps_line_numbers() {
        // `"...\` + newline is a cooked-string line continuation; the
        // skipped newline must still count.
        let src = "let s = \"one\\\n   two\";\nlet after = 1;\n";
        assert_eq!(line_of(src, "after"), 3);
        // Double backslash before the newline is NOT a continuation of
        // the escape — the newline is literal content.
        let src2 = "let s = \"one\\\\\n two\";\nlet after = 1;\n";
        assert_eq!(line_of(src2, "after"), 3);
    }

    #[test]
    fn nested_block_comments_do_not_desynchronize() {
        let src = "/* outer /* inner\n /* deeper */ */ still comment\n*/ let after = 1;\n";
        assert_eq!(line_of(src, "after"), 3);
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 1);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[0].end_line, 3);
        // `/*/` does not open-and-close at once, `**/` closes.
        let ids = idents("/*/ still a comment **/ let real = 1;");
        assert_eq!(ids, vec!["let", "real"]);
    }

    #[test]
    fn numbers_do_not_eat_ranges_or_methods() {
        let src = "for i in 0..10 { let f = 1.5; let h = 0xff_u32; }";
        let toks = lex(src);
        let puncts: Vec<char> = toks
            .tokens
            .iter()
            .filter_map(|t| match t.kind {
                Tok::Punct(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            puncts.iter().filter(|&&c| c == '.').count(),
            2,
            "the .. survives"
        );
    }
}
