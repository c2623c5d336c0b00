//! Parser for the GQL-flavoured regular-expression syntax used in the paper.
//!
//! Grammar (precedence from loosest to tightest):
//!
//! ```text
//! regex   := concat ('|' concat)*
//! concat  := repeat ('/' repeat)*
//! repeat  := atom ('*' | '+' | '?' | '{' n (',' n?)? '}')*
//! atom    := ':' IDENT | IDENT | '(' regex ')' | ':_'
//! ```
//!
//! Labels may be written with the GQL-style leading colon (`:Knows`) or bare
//! (`Knows`); `:_` matches any label. Whitespace is insignificant.
//!
//! Both the parentheses open at once and the height of the parsed tree are
//! bounded by [`MAX_NESTING_DEPTH`]. A repetition `{m,n}` unrolls into up to
//! `n` joined copies of its operand when compiled, so it counts as `n`
//! stacked copies of the operand's height.
//!
//! That bound is also what bounds the compiled size. A repetition `{m,n}`
//! compiles ([`crate::compile::compile_to_algebra`]) to the union of its
//! exact repetitions, Σₖ₌ₘⁿ k copies of its operand, and the NFA
//! ([`crate::nfa`]) to `n` copies; nested repetitions multiply. The height
//! bound keeps the product of nested counts at most 128, so no atom of the
//! input appears more than 128 · 129 / 2 = 8 256 times in a compiled plan,
//! or 128 times in an NFA: the compiled size is linear in the input, whose
//! length the server bounds by its request line. The factor is large:
//! measured, a 786 KB `(2¹⁷-leaf alternation){0,3}` line compiled in 0.58 s
//! to a plan whose `Display` is 33 MB.

use crate::regex::LabelRegex;
use std::fmt;

/// The deepest tree any query parser builds. Each enclosing parenthesis and
/// each chained operator (`a/b/c` is two levels, `NOT NOT x` two, a JSON
/// array in an array two) counts one level. Every query surface refuses
/// deeper input with its own typed parse error, so no request can make a
/// parser, or a later recursive walk over the tree it built, overflow the
/// stack. On the 2 MiB stack of a connection thread, the shallowest input
/// measured to overflow nested 3 000 levels in a release build and about
/// 250 joins in a debug build, whose frames are far larger.
pub const MAX_NESTING_DEPTH: usize = 128;

/// A parse error with the byte offset where it occurred.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RegexParseError {
    /// Byte offset in the input.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for RegexParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "regex parse error at offset {}: {}",
            self.position, self.message
        )
    }
}

impl std::error::Error for RegexParseError {}

/// Parses a label regular expression, e.g. `(:Knows+)|(:Likes/:Has_creator)*`.
pub fn parse_regex(input: &str) -> Result<LabelRegex, RegexParseError> {
    let mut parser = Parser {
        chars: input.char_indices().collect(),
        pos: 0,
        depth: 0,
    };
    parser.skip_ws();
    if parser.at_end() {
        return Ok(LabelRegex::Epsilon);
    }
    let (re, _) = parser.parse_alt()?;
    parser.skip_ws();
    if !parser.at_end() {
        return Err(parser.error("unexpected trailing input"));
    }
    Ok(re)
}

/// The parse functions return each subtree with its height: the operator
/// levels below it (parentheses add none).
struct Parser {
    chars: Vec<(usize, char)>,
    pos: usize,
    /// Parentheses open at the current position.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.chars.len()
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).map(|&(_, c)| c)
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek();
        if c.is_some() {
            self.pos += 1;
        }
        c
    }

    fn offset(&self) -> usize {
        self.chars
            .get(self.pos)
            .map(|&(o, _)| o)
            .unwrap_or_else(|| {
                self.chars
                    .last()
                    .map(|&(o, c)| o + c.len_utf8())
                    .unwrap_or(0)
            })
    }

    fn error(&self, message: &str) -> RegexParseError {
        RegexParseError {
            position: self.offset(),
            message: message.to_owned(),
        }
    }

    /// `height`, or an error past [`MAX_NESTING_DEPTH`].
    fn bounded(&self, height: usize) -> Result<usize, RegexParseError> {
        if height > MAX_NESTING_DEPTH {
            return Err(self.error(&format!(
                "expression nests deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        Ok(height)
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.pos += 1;
        }
    }

    fn parse_alt(&mut self) -> Result<(LabelRegex, usize), RegexParseError> {
        let (mut left, mut height) = self.parse_concat()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('|') {
                self.bump();
                let (right, h) = self.parse_concat()?;
                height = self.bounded(height.max(h) + 1)?;
                left = left.or(right);
            } else {
                return Ok((left, height));
            }
        }
    }

    fn parse_concat(&mut self) -> Result<(LabelRegex, usize), RegexParseError> {
        let (mut left, mut height) = self.parse_repeat()?;
        loop {
            self.skip_ws();
            if self.peek() == Some('/') {
                self.bump();
                let (right, h) = self.parse_repeat()?;
                height = self.bounded(height.max(h) + 1)?;
                left = left.then(right);
            } else {
                return Ok((left, height));
            }
        }
    }

    fn parse_repeat(&mut self) -> Result<(LabelRegex, usize), RegexParseError> {
        let (mut inner, mut height) = self.parse_atom()?;
        loop {
            self.skip_ws();
            if matches!(self.peek(), Some('*' | '+' | '?' | '{')) {
                height = self.bounded(height + 1)?;
            }
            match self.peek() {
                Some('*') => {
                    self.bump();
                    inner = inner.star();
                }
                Some('+') => {
                    self.bump();
                    inner = inner.plus();
                }
                Some('?') => {
                    self.bump();
                    inner = inner.optional();
                }
                Some('{') => {
                    self.bump();
                    let (min, max) = self.parse_bounds()?;
                    // Up to `n` joined copies of the operand (see the module
                    // docs); `height` already counts this node.
                    let copies = max.unwrap_or(min).max(1);
                    height = self.bounded(height.saturating_mul(copies))?;
                    inner = inner.repeat(min, max);
                }
                _ => return Ok((inner, height)),
            }
        }
    }

    fn parse_bounds(&mut self) -> Result<(usize, Option<usize>), RegexParseError> {
        self.skip_ws();
        let min = self.parse_number()?;
        self.skip_ws();
        match self.peek() {
            Some('}') => {
                self.bump();
                Ok((min, Some(min)))
            }
            Some(',') => {
                self.bump();
                self.skip_ws();
                if self.peek() == Some('}') {
                    self.bump();
                    Ok((min, None))
                } else {
                    let max = self.parse_number()?;
                    self.skip_ws();
                    if self.bump() != Some('}') {
                        return Err(self.error("expected '}' to close repetition bounds"));
                    }
                    if max < min {
                        return Err(
                            self.error("repetition upper bound is smaller than lower bound")
                        );
                    }
                    Ok((min, Some(max)))
                }
            }
            _ => Err(self.error("expected ',' or '}' in repetition bounds")),
        }
    }

    fn parse_number(&mut self) -> Result<usize, RegexParseError> {
        let mut digits = String::new();
        while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
            digits.push(self.bump().unwrap());
        }
        if digits.is_empty() {
            return Err(self.error("expected a number"));
        }
        digits
            .parse()
            .map_err(|_| self.error("repetition bound does not fit in usize"))
    }

    fn parse_atom(&mut self) -> Result<(LabelRegex, usize), RegexParseError> {
        self.skip_ws();
        if self.peek() == Some('(') {
            self.depth = self.bounded(self.depth + 1)?;
            self.bump();
            let inner = self.parse_alt()?;
            self.skip_ws();
            if self.bump() != Some(')') {
                return Err(self.error("expected ')'"));
            }
            self.depth -= 1;
            return Ok(inner);
        }
        Ok((self.parse_label()?, 0))
    }

    fn parse_label(&mut self) -> Result<LabelRegex, RegexParseError> {
        match self.peek() {
            Some(':') => {
                self.bump();
                if self.peek() == Some('_') {
                    self.bump();
                    // A bare `_` means any label.
                    if !matches!(self.peek(), Some(c) if is_ident_char(c)) {
                        return Ok(LabelRegex::AnyLabel);
                    }
                    // Otherwise it was the start of an identifier such as `_x`.
                    let rest = self.parse_ident()?;
                    return Ok(LabelRegex::label(format!("_{rest}")));
                }
                let ident = self.parse_ident()?;
                Ok(LabelRegex::label(ident))
            }
            Some(c) if is_ident_start(c) => {
                let ident = self.parse_ident()?;
                Ok(LabelRegex::label(ident))
            }
            Some(c) => Err(self.error(&format!("unexpected character '{c}'"))),
            None => Err(self.error("unexpected end of input")),
        }
    }

    fn parse_ident(&mut self) -> Result<String, RegexParseError> {
        let mut ident = String::new();
        while matches!(self.peek(), Some(c) if is_ident_char(c)) {
            ident.push(self.bump().unwrap());
        }
        if ident.is_empty() {
            return Err(self.error("expected a label name"));
        }
        Ok(ident)
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_paper_expressions() {
        let re = parse_regex("(:Knows+)|(:Likes/:Has_creator)*").unwrap();
        assert_eq!(
            re,
            LabelRegex::label("Knows")
                .plus()
                .or(LabelRegex::label("Likes")
                    .then(LabelRegex::label("Has_creator"))
                    .star())
        );

        let re = parse_regex("Knows|(Knows/Knows)").unwrap();
        assert_eq!(
            re,
            LabelRegex::label("Knows")
                .or(LabelRegex::label("Knows").then(LabelRegex::label("Knows")))
        );

        let re = parse_regex("(:Knows)*").unwrap();
        assert_eq!(re, LabelRegex::label("Knows").star());
    }

    #[test]
    fn precedence_concat_binds_tighter_than_alt() {
        let re = parse_regex("a/b|c").unwrap();
        assert_eq!(
            re,
            LabelRegex::label("a")
                .then(LabelRegex::label("b"))
                .or(LabelRegex::label("c"))
        );
        // Postfix binds tighter than concatenation.
        let re = parse_regex("a/b+").unwrap();
        assert_eq!(
            re,
            LabelRegex::label("a").then(LabelRegex::label("b").plus())
        );
        let re = parse_regex("(a/b)+").unwrap();
        assert_eq!(
            re,
            LabelRegex::label("a").then(LabelRegex::label("b")).plus()
        );
    }

    #[test]
    fn parses_quantifiers() {
        assert_eq!(
            parse_regex("a{3}").unwrap(),
            LabelRegex::label("a").repeat(3, Some(3))
        );
        assert_eq!(
            parse_regex("a{2,5}").unwrap(),
            LabelRegex::label("a").repeat(2, Some(5))
        );
        assert_eq!(
            parse_regex("a{2,}").unwrap(),
            LabelRegex::label("a").repeat(2, None)
        );
        assert_eq!(
            parse_regex("a?").unwrap(),
            LabelRegex::label("a").optional()
        );
    }

    #[test]
    fn any_label_and_underscored_identifiers() {
        assert_eq!(parse_regex(":_").unwrap(), LabelRegex::AnyLabel);
        assert_eq!(
            parse_regex(":_private").unwrap(),
            LabelRegex::label("_private")
        );
        assert_eq!(
            parse_regex(":Has_creator").unwrap(),
            LabelRegex::label("Has_creator")
        );
    }

    #[test]
    fn whitespace_is_insignificant() {
        assert_eq!(
            parse_regex("  ( :Knows + ) | ( :Likes / :Has_creator ) *  ").unwrap(),
            parse_regex("(:Knows+)|(:Likes/:Has_creator)*").unwrap()
        );
    }

    #[test]
    fn empty_input_is_epsilon() {
        assert_eq!(parse_regex("").unwrap(), LabelRegex::Epsilon);
        assert_eq!(parse_regex("   ").unwrap(), LabelRegex::Epsilon);
    }

    #[test]
    fn errors_carry_positions_and_messages() {
        let err = parse_regex("(:Knows").unwrap_err();
        assert!(err.message.contains("')'"));
        let err = parse_regex("a||b").unwrap_err();
        assert!(err.position >= 2);
        let err = parse_regex("a{,3}").unwrap_err();
        assert!(err.message.contains("number"));
        let err = parse_regex("a{5,2}").unwrap_err();
        assert!(err.message.contains("upper bound"));
        let err = parse_regex("a)b").unwrap_err();
        assert!(err.message.contains("trailing"));
        let err = parse_regex("*").unwrap_err();
        assert!(err.message.contains("unexpected character"));
        assert!(err.to_string().contains("offset"));
    }

    #[test]
    fn nesting_past_the_bound_is_a_typed_error() {
        let n = MAX_NESTING_DEPTH;
        let parens = |k: usize| format!("{}a{}", "(".repeat(k), ")".repeat(k));
        let chain = |k: usize, op: &str| vec!["a"; k + 1].join(op);
        assert!(parse_regex(&parens(n)).is_ok());
        assert!(parse_regex(&chain(n, "/")).is_ok());
        assert!(parse_regex(&format!("a{{{n}}}")).is_ok());
        for deep in [
            parens(n + 1),
            chain(n + 1, "/"),
            chain(n + 1, "|"),
            format!("a{}", "+".repeat(n + 1)),
            format!("a{{{}}}", n + 1),
            "(a{0,16}){0,16}".to_string(),
            format!("({})+", chain(n, "/")),
            parens(100_000),
        ] {
            let err = parse_regex(&deep).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{}", err.message);
        }
    }

    #[test]
    fn nested_groups() {
        let re = parse_regex("((a|b)/c)+|d").unwrap();
        assert!(re.matches(&["a", "c"]));
        assert!(re.matches(&["b", "c", "a", "c"]));
        assert!(re.matches(&["d"]));
        assert!(!re.matches(&["a"]));
    }
}
