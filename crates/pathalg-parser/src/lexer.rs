//! Tokenizer for the extended-GQL query syntax.
//!
//! Keywords are case-insensitive (as in GQL); identifiers, labels and property
//! names are case-sensitive. The bracketed regular-expression part of an edge
//! pattern (`-[ … ]->`) is *not* tokenised here — the parser captures its raw
//! text and hands it to the dedicated regex parser in `pathalg-rpq`, which has
//! its own operators (`/`, `*`, `+`, `{m,n}`) that would clash with the query
//! lexer's rules.

use crate::error::ParseError;
use std::fmt;

/// A lexical token together with its byte offset in the input.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct SpannedToken {
    /// The token.
    pub token: Token,
    /// Byte offset where the token starts.
    pub offset: usize,
}

/// The tokens of the query language.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Token {
    /// A keyword (uppercased), e.g. `MATCH`, `ALL`, `TRAIL`, `WHERE`.
    Keyword(String),
    /// An identifier (variable, label or property name), case-preserved.
    Ident(String),
    /// An integer literal.
    Int(i64),
    /// A floating-point literal.
    Float(f64),
    /// A double-quoted string literal (quotes stripped, escapes resolved).
    Str(String),
    /// `(`
    LParen,
    /// `)`
    RParen,
    /// `{`
    LBrace,
    /// `}`
    RBrace,
    /// `=`
    Eq,
    /// `!=` or `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `,`
    Comma,
    /// `:`
    Colon,
    /// `.`
    Dot,
    /// `?`
    Question,
    /// `-[ raw regex text ]->`: an edge pattern with its raw regex body.
    EdgePattern(String),
    /// End of input.
    Eof,
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Keyword(k) => write!(f, "{k}"),
            Token::Ident(i) => write!(f, "{i}"),
            Token::Int(n) => write!(f, "{n}"),
            Token::Float(x) => write!(f, "{x}"),
            Token::Str(s) => write!(f, "\"{s}\""),
            Token::LParen => write!(f, "("),
            Token::RParen => write!(f, ")"),
            Token::LBrace => write!(f, "{{"),
            Token::RBrace => write!(f, "}}"),
            Token::Eq => write!(f, "="),
            Token::Ne => write!(f, "!="),
            Token::Lt => write!(f, "<"),
            Token::Le => write!(f, "<="),
            Token::Gt => write!(f, ">"),
            Token::Ge => write!(f, ">="),
            Token::Comma => write!(f, ","),
            Token::Colon => write!(f, ":"),
            Token::Dot => write!(f, "."),
            Token::Question => write!(f, "?"),
            Token::EdgePattern(r) => write!(f, "-[{r}]->"),
            Token::Eof => write!(f, "<eof>"),
        }
    }
}

/// Keywords recognised by the language (matched case-insensitively).
const KEYWORDS: &[&str] = &[
    "MATCH",
    "ALL",
    "ANY",
    "SHORTEST",
    "WALK",
    "TRAIL",
    "SIMPLE",
    "ACYCLIC",
    "PARTITIONS",
    "GROUPS",
    "PATHS",
    "GROUP",
    "ORDER",
    "BY",
    "SOURCE",
    "TARGET",
    "LENGTH",
    "PARTITION",
    "PATH",
    "WHERE",
    "AND",
    "OR",
    "NOT",
    "LABEL",
    "FIRST",
    "LAST",
    "NODE",
    "EDGE",
    "LEN",
    "BOUND",
    "SUBSTR",
    "TRUE",
    "FALSE",
    "NULL",
];

/// Tokenises a query string.
pub(crate) fn tokenize(input: &str) -> Result<Vec<SpannedToken>, ParseError> {
    // Characters and their byte offsets, from one pass over the input.
    let (offsets, bytes): (Vec<usize>, Vec<char>) = input.char_indices().unzip();
    let mut out = Vec::new();
    let mut i = 0usize;

    while i < bytes.len() {
        let c = bytes[i];
        let offset = offsets[i];
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            '(' => {
                out.push(SpannedToken {
                    token: Token::LParen,
                    offset,
                });
                i += 1;
            }
            ')' => {
                out.push(SpannedToken {
                    token: Token::RParen,
                    offset,
                });
                i += 1;
            }
            '{' => {
                out.push(SpannedToken {
                    token: Token::LBrace,
                    offset,
                });
                i += 1;
            }
            '}' => {
                out.push(SpannedToken {
                    token: Token::RBrace,
                    offset,
                });
                i += 1;
            }
            ',' => {
                out.push(SpannedToken {
                    token: Token::Comma,
                    offset,
                });
                i += 1;
            }
            ':' => {
                out.push(SpannedToken {
                    token: Token::Colon,
                    offset,
                });
                i += 1;
            }
            '.' => {
                out.push(SpannedToken {
                    token: Token::Dot,
                    offset,
                });
                i += 1;
            }
            '?' => {
                out.push(SpannedToken {
                    token: Token::Question,
                    offset,
                });
                i += 1;
            }
            '=' => {
                out.push(SpannedToken {
                    token: Token::Eq,
                    offset,
                });
                i += 1;
            }
            '!' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(SpannedToken {
                        token: Token::Ne,
                        offset,
                    });
                    i += 2;
                } else {
                    return Err(ParseError::new(offset, "unexpected '!'"));
                }
            }
            '<' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(SpannedToken {
                        token: Token::Le,
                        offset,
                    });
                    i += 2;
                } else if bytes.get(i + 1) == Some(&'>') {
                    out.push(SpannedToken {
                        token: Token::Ne,
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(SpannedToken {
                        token: Token::Lt,
                        offset,
                    });
                    i += 1;
                }
            }
            '>' => {
                if bytes.get(i + 1) == Some(&'=') {
                    out.push(SpannedToken {
                        token: Token::Ge,
                        offset,
                    });
                    i += 2;
                } else {
                    out.push(SpannedToken {
                        token: Token::Gt,
                        offset,
                    });
                    i += 1;
                }
            }
            '-' => {
                // Either the start of an edge pattern `-[...]->` or a negative
                // number.
                if bytes.get(i + 1) == Some(&'[') {
                    // Scan to the matching `]` (regexes contain no brackets),
                    // then require `->`.
                    let mut j = i + 2;
                    while j < bytes.len() && bytes[j] != ']' {
                        j += 1;
                    }
                    if j >= bytes.len() {
                        return Err(ParseError::new(
                            offset,
                            "unterminated edge pattern: missing ']'",
                        ));
                    }
                    let regex_text: String = bytes[i + 2..j].iter().collect();
                    if bytes.get(j + 1) != Some(&'-') || bytes.get(j + 2) != Some(&'>') {
                        return Err(ParseError::new(
                            offsets[j],
                            "edge pattern must be closed with ']->'",
                        ));
                    }
                    out.push(SpannedToken {
                        token: Token::EdgePattern(regex_text),
                        offset,
                    });
                    i = j + 3;
                } else if bytes.get(i + 1).is_some_and(|c| c.is_ascii_digit()) {
                    let (tok, next) = lex_number(&bytes, i, offset)?;
                    out.push(SpannedToken { token: tok, offset });
                    i = next;
                } else {
                    return Err(ParseError::new(
                        offset,
                        "unexpected '-' (edge patterns are written -[regex]->)",
                    ));
                }
            }
            '"' => {
                let mut j = i + 1;
                let mut value = String::new();
                while j < bytes.len() && bytes[j] != '"' {
                    if bytes[j] == '\\' && j + 1 < bytes.len() {
                        value.push(bytes[j + 1]);
                        j += 2;
                    } else {
                        value.push(bytes[j]);
                        j += 1;
                    }
                }
                if j >= bytes.len() {
                    return Err(ParseError::new(offset, "unterminated string literal"));
                }
                out.push(SpannedToken {
                    token: Token::Str(value),
                    offset,
                });
                i = j + 1;
            }
            c if c.is_ascii_digit() => {
                let (tok, next) = lex_number(&bytes, i, offset)?;
                out.push(SpannedToken { token: tok, offset });
                i = next;
            }
            c if c.is_alphabetic() || c == '_' => {
                let mut j = i;
                while j < bytes.len() && (bytes[j].is_alphanumeric() || bytes[j] == '_') {
                    j += 1;
                }
                let word: String = bytes[i..j].iter().collect();
                let upper = word.to_ascii_uppercase();
                let token = if KEYWORDS.contains(&upper.as_str()) {
                    Token::Keyword(upper)
                } else {
                    Token::Ident(word)
                };
                out.push(SpannedToken { token, offset });
                i = j;
            }
            other => {
                return Err(ParseError::new(
                    offset,
                    format!("unexpected character '{other}'"),
                ));
            }
        }
    }
    out.push(SpannedToken {
        token: Token::Eof,
        offset: input.len(),
    });
    Ok(out)
}

fn lex_number(bytes: &[char], start: usize, offset: usize) -> Result<(Token, usize), ParseError> {
    let mut j = start;
    if bytes[j] == '-' {
        j += 1;
    }
    while j < bytes.len() && bytes[j].is_ascii_digit() {
        j += 1;
    }
    let mut is_float = false;
    if j < bytes.len() && bytes[j] == '.' && bytes.get(j + 1).is_some_and(|c| c.is_ascii_digit()) {
        is_float = true;
        j += 1;
        while j < bytes.len() && bytes[j].is_ascii_digit() {
            j += 1;
        }
    }
    let text: String = bytes[start..j].iter().collect();
    let token = if is_float {
        Token::Float(
            text.parse()
                .map_err(|_| ParseError::new(offset, "invalid float literal"))?,
        )
    } else {
        Token::Int(
            text.parse()
                .map_err(|_| ParseError::new(offset, "invalid integer literal"))?,
        )
    };
    Ok((token, j))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(input: &str) -> Vec<Token> {
        tokenize(input)
            .unwrap()
            .into_iter()
            .map(|t| t.token)
            .collect()
    }

    #[test]
    fn lexes_the_paper_query() {
        let tokens = toks(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        );
        assert_eq!(tokens[0], Token::Keyword("MATCH".into()));
        assert!(tokens.contains(&Token::Keyword("PARTITIONS".into())));
        assert!(tokens.contains(&Token::Int(1)));
        assert!(tokens.contains(&Token::Ident("p".into())));
        assert!(tokens.contains(&Token::EdgePattern("(:Knows)*".into())));
        assert!(tokens.contains(&Token::Keyword("TARGET".into())));
        assert_eq!(tokens.last(), Some(&Token::Eof));
    }

    #[test]
    fn keywords_are_case_insensitive_but_identifiers_preserved() {
        let tokens = toks("match Any shortest walk MyVar");
        assert_eq!(tokens[0], Token::Keyword("MATCH".into()));
        assert_eq!(tokens[1], Token::Keyword("ANY".into()));
        assert_eq!(tokens[2], Token::Keyword("SHORTEST".into()));
        assert_eq!(tokens[3], Token::Keyword("WALK".into()));
        assert_eq!(tokens[4], Token::Ident("MyVar".into()));
    }

    #[test]
    fn lexes_property_maps_and_literals() {
        let tokens = toks("(?x {name:\"Moe\", age: 42, score: 3.5, ok: TRUE})");
        assert!(tokens.contains(&Token::Str("Moe".into())));
        assert!(tokens.contains(&Token::Int(42)));
        assert!(tokens.contains(&Token::Float(3.5)));
        assert!(tokens.contains(&Token::Keyword("TRUE".into())));
        assert!(tokens.contains(&Token::LBrace));
        assert!(tokens.contains(&Token::RBrace));
        assert!(tokens.contains(&Token::Comma));
    }

    #[test]
    fn lexes_comparison_operators() {
        let tokens = toks("a = 1 AND b != 2 OR c <> 3 AND d <= 4 AND e >= 5 AND f < 6 AND g > 7");
        assert!(tokens.contains(&Token::Eq));
        assert_eq!(tokens.iter().filter(|t| **t == Token::Ne).count(), 2);
        assert!(tokens.contains(&Token::Le));
        assert!(tokens.contains(&Token::Ge));
        assert!(tokens.contains(&Token::Lt));
        assert!(tokens.contains(&Token::Gt));
    }

    #[test]
    fn edge_pattern_captures_raw_regex() {
        let tokens = toks("(?x)-[(:Knows+)|(:Likes/:Has_creator)*]->(?y)");
        assert!(tokens.iter().any(
            |t| matches!(t, Token::EdgePattern(r) if r == "(:Knows+)|(:Likes/:Has_creator)*")
        ));
    }

    #[test]
    fn string_escapes_are_resolved() {
        let tokens = toks(r#"x = "a\"b""#);
        assert!(tokens.contains(&Token::Str("a\"b".into())));
    }

    #[test]
    fn negative_numbers() {
        let tokens = toks("x = -5");
        assert!(tokens.contains(&Token::Int(-5)));
    }

    #[test]
    fn errors_report_positions() {
        assert!(tokenize("x = \"unterminated").is_err());
        assert!(tokenize("x - y").is_err());
        assert!(tokenize("-[:Knows]-").is_err());
        assert!(tokenize("-[:Knows").is_err());
        assert!(tokenize("a ! b").is_err());
        assert!(tokenize("a @ b").is_err());
        let err = tokenize("abc $").unwrap_err();
        assert_eq!(err.position, 4);
    }

    #[test]
    fn offsets_are_byte_offsets_on_multibyte_input() {
        let spanned = tokenize("\"πé\" = ab").unwrap();
        let offsets: Vec<usize> = spanned.iter().map(|t| t.offset).collect();
        assert_eq!(offsets, [0, 7, 9, 11]);
        assert_eq!(tokenize("π $").unwrap_err().position, 3);
    }

    #[test]
    fn a_one_mebibyte_line_lexes_in_linear_time() {
        // 74 000 six-token terms: 444 000 tokens in just under 1 MiB.
        let line = format!(
            "MATCH ALL TRAIL p = (?x)-[:Knows]->(?y) WHERE {}",
            vec!["len() = 1"; 74_000].join(" AND ")
        );
        assert!(line.len() <= 1 << 20);
        let started = std::time::Instant::now();
        let tokens = tokenize(&line).unwrap();
        assert!(tokens.len() > 200_000);
        assert!(
            started.elapsed() < std::time::Duration::from_secs(10),
            "lexing took {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn token_display() {
        assert_eq!(Token::Keyword("MATCH".into()).to_string(), "MATCH");
        assert_eq!(Token::Str("x".into()).to_string(), "\"x\"");
        assert_eq!(Token::EdgePattern(":a".into()).to_string(), "-[:a]->");
        assert_eq!(Token::Eof.to_string(), "<eof>");
        assert_eq!(Token::Le.to_string(), "<=");
    }
}
