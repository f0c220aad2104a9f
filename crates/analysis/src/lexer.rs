//! A small self-contained Rust lexer for the invariant linter.
//!
//! The build environment is offline, so `syn` is unavailable; the item
//! parser ([`crate::parser`]) and the L7 pass ([`crate::lints`]) only need
//! a token stream with line numbers and comment awareness, which this
//! ~300-line scanner provides. It understands line/block comments (nested), string, raw
//! string, byte string, and char literals, lifetimes, numbers, identifiers
//! and punctuation — enough to never misread `".unwrap()"` inside a string
//! literal as a method call.

/// Kinds of lexical token the linter distinguishes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// Any punctuation character (one token per char; `::` arrives as two).
    Punct,
    /// String / raw string / byte string / char literal.
    Literal,
    /// Numeric literal.
    Number,
    /// Lifetime (`'a`) — kept distinct so char literals are not confused.
    Lifetime,
}

/// One lexical token with its 1-based source line.
#[derive(Clone, Debug)]
pub struct Token {
    /// Token kind.
    pub kind: TokenKind,
    /// Source text (single char for punctuation).
    pub text: String,
    /// 1-based line number.
    pub line: u32,
}

/// A comment with its 1-based line span, kept separately from the token
/// stream so lint-exemption markers (`impliance-lint: allow(Lx)`) can be
/// matched to the code lines they cover.
#[derive(Clone, Debug)]
pub struct Comment {
    /// Comment text including delimiters.
    pub text: String,
    /// 1-based first line.
    pub line: u32,
    /// 1-based last line (equal to `line` for `//` comments).
    pub end_line: u32,
}

/// Lexer output: tokens plus the comment side-channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens in source order.
    pub tokens: Vec<Token>,
    /// Comments in source order.
    pub comments: Vec<Comment>,
}

/// Tokenize Rust source. Never fails: unterminated constructs consume to
/// end-of-input, which is the forgiving behaviour a linter wants.
pub fn lex(source: &str) -> Lexed {
    let bytes: Vec<char> = source.chars().collect();
    let mut out = Lexed::default();
    let mut i = 0usize;
    let mut line: u32 = 1;

    macro_rules! bump_lines {
        ($ch:expr) => {
            if $ch == '\n' {
                line += 1;
            }
        };
    }

    while i < bytes.len() {
        let c = bytes[i];

        // whitespace
        if c.is_whitespace() {
            bump_lines!(c);
            i += 1;
            continue;
        }

        // line comment
        if c == '/' && bytes.get(i + 1) == Some(&'/') {
            let start_line = line;
            let mut text = String::new();
            while i < bytes.len() && bytes[i] != '\n' {
                text.push(bytes[i]);
                i += 1;
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                end_line: start_line,
            });
            continue;
        }

        // block comment (nested)
        if c == '/' && bytes.get(i + 1) == Some(&'*') {
            let start_line = line;
            let mut text = String::new();
            let mut depth = 0usize;
            while i < bytes.len() {
                if bytes[i] == '/' && bytes.get(i + 1) == Some(&'*') {
                    depth += 1;
                    text.push_str("/*");
                    i += 2;
                } else if bytes[i] == '*' && bytes.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    text.push_str("*/");
                    i += 2;
                    if depth == 0 {
                        break;
                    }
                } else {
                    bump_lines!(bytes[i]);
                    text.push(bytes[i]);
                    i += 1;
                }
            }
            out.comments.push(Comment {
                text,
                line: start_line,
                end_line: line,
            });
            continue;
        }

        // raw string / raw byte string: r"..", r#".."#, br#".."#
        if c == 'r' || c == 'b' {
            let mut j = i;
            if bytes[j] == 'b' && bytes.get(j + 1) == Some(&'r') {
                j += 1;
            }
            if bytes[j] == 'r' {
                let mut k = j + 1;
                let mut hashes = 0usize;
                while bytes.get(k) == Some(&'#') {
                    hashes += 1;
                    k += 1;
                }
                if bytes.get(k) == Some(&'"') {
                    let start_line = line;
                    k += 1;
                    // scan to closing quote + hashes
                    'raw: while k < bytes.len() {
                        if bytes[k] == '"' {
                            let mut h = 0usize;
                            while bytes.get(k + 1 + h) == Some(&'#') {
                                h += 1;
                            }
                            if h >= hashes {
                                k += 1 + hashes;
                                break 'raw;
                            }
                        }
                        bump_lines!(bytes[k]);
                        k += 1;
                    }
                    out.tokens.push(Token {
                        kind: TokenKind::Literal,
                        text: bytes[i..k.min(bytes.len())].iter().collect(),
                        line: start_line,
                    });
                    i = k;
                    continue;
                }
            }
        }

        // byte string b".." handled via the string path below
        if c == 'b' && bytes.get(i + 1) == Some(&'"') {
            i += 1; // fall into string with leading quote; prefix dropped
        }

        // string literal
        if bytes[i] == '"' {
            let start_line = line;
            let mut text = String::from('"');
            i += 1;
            while i < bytes.len() {
                let ch = bytes[i];
                if ch == '\\' && i + 1 < bytes.len() {
                    text.push(ch);
                    text.push(bytes[i + 1]);
                    bump_lines!(bytes[i + 1]);
                    i += 2;
                    continue;
                }
                bump_lines!(ch);
                text.push(ch);
                i += 1;
                if ch == '"' {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line: start_line,
            });
            continue;
        }

        // lifetime or char literal
        if c == '\'' {
            // lifetime: 'ident not followed by closing quote
            let is_lifetime = match (bytes.get(i + 1), bytes.get(i + 2)) {
                (Some(c1), next) => (c1.is_alphabetic() || *c1 == '_') && next != Some(&'\''),
                _ => false,
            };
            if is_lifetime {
                let mut text = String::from('\'');
                i += 1;
                while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    i += 1;
                }
                out.tokens.push(Token {
                    kind: TokenKind::Lifetime,
                    text,
                    line,
                });
                continue;
            }
            // char literal: '\n', 'x', '\u{..}'
            let start_line = line;
            let mut text = String::from('\'');
            i += 1;
            while i < bytes.len() {
                let ch = bytes[i];
                if ch == '\\' && i + 1 < bytes.len() {
                    text.push(ch);
                    text.push(bytes[i + 1]);
                    i += 2;
                    continue;
                }
                text.push(ch);
                i += 1;
                if ch == '\'' {
                    break;
                }
            }
            out.tokens.push(Token {
                kind: TokenKind::Literal,
                text,
                line: start_line,
            });
            continue;
        }

        // identifier / keyword
        if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            while i < bytes.len() && (bytes[i].is_alphanumeric() || bytes[i] == '_') {
                text.push(bytes[i]);
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Ident,
                text,
                line,
            });
            continue;
        }

        // number (digits plus the usual suffix/underscore/dot soup)
        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < bytes.len()
                && (bytes[i].is_alphanumeric()
                    || bytes[i] == '_'
                    || (bytes[i] == '.' && bytes.get(i + 1).is_some_and(|n| n.is_ascii_digit())))
            {
                text.push(bytes[i]);
                i += 1;
            }
            out.tokens.push(Token {
                kind: TokenKind::Number,
                text,
                line,
            });
            continue;
        }

        // punctuation: one char per token
        out.tokens.push(Token {
            kind: TokenKind::Punct,
            text: c.to_string(),
            line,
        });
        i += 1;
    }

    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        lex(src)
            .tokens
            .into_iter()
            .filter(|t| t.kind == TokenKind::Ident)
            .map(|t| t.text)
            .collect()
    }

    #[test]
    fn strings_hide_method_calls() {
        let src = r#"let s = "call .unwrap() here"; s.len();"#;
        let ids = idents(src);
        assert!(!ids.contains(&"unwrap".to_string()));
        assert!(ids.contains(&"len".to_string()));
    }

    #[test]
    fn raw_strings_and_hashes() {
        let src = r##"let s = r#"raw "quoted" .expect() text"#; x.expect("m");"##;
        let lexed = lex(src);
        let expects: Vec<_> = lexed.tokens.iter().filter(|t| t.text == "expect").collect();
        assert_eq!(expects.len(), 1, "only the real call survives");
    }

    #[test]
    fn comments_are_side_channel() {
        let src = "// impliance-lint: allow(L9)\nx.unwrap();\n/* block\ncomment */\n";
        let lexed = lex(src);
        assert_eq!(lexed.comments.len(), 2);
        assert_eq!(lexed.comments[0].line, 1);
        assert_eq!(lexed.comments[1].end_line, 4);
        assert!(lexed
            .tokens
            .iter()
            .any(|t| t.text == "unwrap" && t.line == 2));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Lifetime)
                .count(),
            3
        );
        assert!(!lexed.tokens.iter().any(|t| t.kind == TokenKind::Literal));
    }

    #[test]
    fn char_literals_ok() {
        let src = "let c = '\\n'; let q = '\"'; let z = 'z';";
        let lexed = lex(src);
        assert_eq!(
            lexed
                .tokens
                .iter()
                .filter(|t| t.kind == TokenKind::Literal)
                .count(),
            3
        );
    }

    #[test]
    fn line_numbers_track_newlines() {
        let src = "a\nb\n\nc";
        let lexed = lex(src);
        let lines: Vec<u32> = lexed.tokens.iter().map(|t| t.line).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn multiline_string_advances_lines() {
        let src = "let s = \"line1\nline2\";\nafter";
        let lexed = lex(src);
        let after = lexed.tokens.iter().find(|t| t.text == "after").unwrap();
        assert_eq!(after.line, 3);
    }
}
