//! Recursive-descent parser for extended-GQL path queries (Section 7.1).
//!
//! The grammar, with the standard GQL selector form accepted alongside the
//! paper's extended projection form:
//!
//! ```text
//! pathQuery  := MATCH output restrictor pathPattern groupby? orderby?
//! output     := projection | selector?
//! projection := (ALL | int) PARTITIONS (ALL | int) GROUPS (ALL | int) PATHS
//! selector   := ALL | ANY SHORTEST | ALL SHORTEST | ANY int? |
//!               SHORTEST int GROUP?
//! restrictor := WALK | TRAIL | SIMPLE | ACYCLIC | SHORTEST
//! pathPattern:= (ident '=')? nodePattern edgePattern nodePattern (WHERE condition)?
//! nodePattern:= '(' '?'? ident? (':' ident)? propertyMap? ')'
//! groupby    := GROUP BY (SOURCE | TARGET | LENGTH)+
//! orderby    := ORDER BY (PARTITION | GROUP | PATH)+
//! ```
//!
//! The `WHERE` condition may nest at most [`MAX_NESTING_DEPTH`] levels deep,
//! counting parentheses, `NOT`s and chained `AND`/`OR`s alike.
//!
//! The parser emits the surface-independent [`QueryIr`] directly. Variable
//! names are read only to reject a repeat: a name bound twice would be an
//! equality join between the positions it names, which the IR cannot say.

use crate::error::ParseError;
use crate::ir::{IrNode, IrOutput, QueryIr};
use crate::lexer::{tokenize, SpannedToken, Token};
use pathalg_core::condition::{Accessor, CompareOp, Condition, Position};
use pathalg_core::gql::{Restrictor, Selector};
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::order_by::OrderKey;
use pathalg_core::ops::projection::{ProjectionSpec, Take};
use pathalg_graph::value::Value;
use pathalg_rpq::parse::{parse_regex, MAX_NESTING_DEPTH};

/// Parses a path query into the [`QueryIr`] every surface produces.
pub fn parse_query(input: &str) -> Result<QueryIr, ParseError> {
    let mut parser = QueryParser::new(input)?;
    let query = parser.parse_query()?;
    parser.expect_eof()?;
    Ok(query)
}

/// The condition parsers return each subtree with its nesting height: the
/// enclosing parentheses and `NOT`s plus the operator levels below them.
struct QueryParser {
    tokens: Vec<SpannedToken>,
    pos: usize,
    /// Parentheses and `NOT`s open at the current position.
    depth: usize,
}

impl QueryParser {
    fn new(input: &str) -> Result<Self, ParseError> {
        Ok(Self {
            tokens: tokenize(input)?,
            pos: 0,
            depth: 0,
        })
    }

    fn peek(&self) -> &Token {
        &self.tokens[self.pos.min(self.tokens.len() - 1)].token
    }

    fn peek_ahead(&self, n: usize) -> &Token {
        &self.tokens[(self.pos + n).min(self.tokens.len() - 1)].token
    }

    fn offset(&self) -> usize {
        self.tokens[self.pos.min(self.tokens.len() - 1)].offset
    }

    fn bump(&mut self) -> Token {
        let t = self.peek().clone();
        if self.pos < self.tokens.len() - 1 {
            self.pos += 1;
        }
        t
    }

    fn error(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.offset(), message)
    }

    /// `height`, or an error past [`MAX_NESTING_DEPTH`].
    fn bounded(&self, height: usize) -> Result<usize, ParseError> {
        if height > MAX_NESTING_DEPTH {
            return Err(self.error(format!(
                "condition nests deeper than {MAX_NESTING_DEPTH} levels"
            )));
        }
        Ok(height)
    }

    fn is_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Token::Keyword(k) if k == kw)
    }

    fn is_keyword_ahead(&self, n: usize, kw: &str) -> bool {
        matches!(self.peek_ahead(n), Token::Keyword(k) if k == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.is_keyword(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.error(format!("expected {kw}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), ParseError> {
        if matches!(self.peek(), Token::Eof) {
            Ok(())
        } else {
            Err(self.error(format!("unexpected trailing input: {}", self.peek())))
        }
    }

    fn parse_query(&mut self) -> Result<QueryIr, ParseError> {
        self.expect_keyword("MATCH")?;
        let output = self.parse_output()?;
        let restrictor = self.parse_restrictor()?;
        let mut bound = Vec::new();
        self.parse_path_variable(&mut bound)?;
        let source = self.parse_node_pattern(&mut bound)?;
        let regex_text = match self.bump() {
            Token::EdgePattern(text) => text,
            other => {
                return Err(self.error(format!("expected an edge pattern -[…]->, found {other}")))
            }
        };
        let regex = parse_regex(&regex_text)
            .map_err(|e| self.error(format!("invalid regular expression: {e}")))?;
        let target = self.parse_node_pattern(&mut bound)?;
        let where_clause = if self.eat_keyword("WHERE") {
            Some(self.parse_condition()?)
        } else {
            None
        };
        let group_by = self.parse_group_by()?;
        let order_by = self.parse_order_by()?;
        Ok(QueryIr {
            output,
            restrictor,
            source,
            regex,
            target,
            where_clause,
            group_by,
            order_by,
        })
    }

    /// `output`: either the extended projection (`… PARTITIONS … GROUPS …
    /// PATHS`) or a GQL selector (possibly absent, defaulting to `ALL`).
    fn parse_output(&mut self) -> Result<IrOutput, ParseError> {
        // Extended form: (ALL | int) PARTITIONS …
        let starts_projection = match self.peek() {
            Token::Keyword(k) if k == "ALL" => self.is_keyword_ahead(1, "PARTITIONS"),
            Token::Int(_) => self.is_keyword_ahead(1, "PARTITIONS"),
            _ => false,
        };
        if starts_projection {
            let partitions = self.parse_take()?;
            self.expect_keyword("PARTITIONS")?;
            let groups = self.parse_take()?;
            self.expect_keyword("GROUPS")?;
            let paths = self.parse_take()?;
            self.expect_keyword("PATHS")?;
            return Ok(IrOutput::Slice(ProjectionSpec::new(
                partitions, groups, paths,
            )));
        }

        // Selector form.
        if self.is_keyword("ALL") && self.is_keyword_ahead(1, "SHORTEST") {
            // Careful: ALL SHORTEST (selector) vs ALL + SHORTEST (restrictor).
            // `ALL SHORTEST` followed by another restrictor keyword or a path
            // pattern start means the SHORTEST belongs to the selector.
            self.bump();
            self.bump();
            return Ok(IrOutput::Selector(Selector::AllShortest));
        }
        if self.eat_keyword("ANY") {
            if self.eat_keyword("SHORTEST") {
                return Ok(IrOutput::Selector(Selector::AnyShortest));
            }
            if let Token::Int(k) = self.peek() {
                let k = *k as usize;
                self.bump();
                return Ok(IrOutput::Selector(Selector::AnyK(k)));
            }
            return Ok(IrOutput::Selector(Selector::Any));
        }
        if self.is_keyword("SHORTEST") && matches!(self.peek_ahead(1), Token::Int(_)) {
            self.bump();
            let k = match self.bump() {
                Token::Int(k) => k as usize,
                _ => unreachable!("checked by peek_ahead"),
            };
            if self.eat_keyword("GROUP") {
                return Ok(IrOutput::Selector(Selector::ShortestKGroup(k)));
            }
            return Ok(IrOutput::Selector(Selector::ShortestK(k)));
        }
        if self.is_keyword("ALL") && !self.is_keyword_ahead(1, "PARTITIONS") {
            self.bump();
            return Ok(IrOutput::Selector(Selector::All));
        }
        // No selector: default ALL (e.g. `MATCH TRAIL p = …`).
        Ok(IrOutput::Selector(Selector::All))
    }

    fn parse_take(&mut self) -> Result<Take, ParseError> {
        match self.bump() {
            Token::Keyword(k) if k == "ALL" => Ok(Take::All),
            Token::Int(n) if n > 0 => Ok(Take::Count(n as usize)),
            Token::Int(_) => Err(self.error("projection counts must be positive")),
            other => Err(self.error(format!("expected ALL or a positive integer, found {other}"))),
        }
    }

    fn parse_restrictor(&mut self) -> Result<Restrictor, ParseError> {
        let restrictor = match self.peek() {
            Token::Keyword(k) if k == "WALK" => Restrictor::Walk,
            Token::Keyword(k) if k == "TRAIL" => Restrictor::Trail,
            Token::Keyword(k) if k == "SIMPLE" => Restrictor::Simple,
            Token::Keyword(k) if k == "ACYCLIC" => Restrictor::Acyclic,
            Token::Keyword(k) if k == "SHORTEST" => Restrictor::Shortest,
            other => {
                return Err(self.error(format!(
                    "expected a restrictor (WALK, TRAIL, SIMPLE, ACYCLIC or SHORTEST), \
                     found {other}"
                )))
            }
        };
        self.bump();
        Ok(restrictor)
    }

    fn parse_path_variable(&mut self, bound: &mut Vec<String>) -> Result<(), ParseError> {
        if let Token::Ident(name) = self.peek() {
            if matches!(self.peek_ahead(1), Token::Eq) {
                bind(bound, name, self.offset())?;
                self.bump();
                self.bump();
            }
        }
        Ok(())
    }

    /// A node pattern's constraints; its variable, if any, joins `bound`.
    fn parse_node_pattern(&mut self, bound: &mut Vec<String>) -> Result<IrNode, ParseError> {
        if !matches!(self.bump(), Token::LParen) {
            return Err(self.error("expected '(' to start a node pattern"));
        }
        let mut pattern = IrNode::any();
        // Optional '?' before the variable.
        if matches!(self.peek(), Token::Question) {
            self.bump();
        }
        if let Token::Ident(name) = self.peek() {
            bind(bound, name, self.offset())?;
            self.bump();
        }
        if matches!(self.peek(), Token::Colon) {
            self.bump();
            match self.bump() {
                Token::Ident(label) => pattern.label = Some(label),
                Token::Keyword(label) => pattern.label = Some(label),
                other => {
                    return Err(self.error(format!("expected a label after ':', found {other}")))
                }
            }
        }
        if matches!(self.peek(), Token::LBrace) {
            self.bump();
            loop {
                if matches!(self.peek(), Token::RBrace) {
                    self.bump();
                    break;
                }
                let key = match self.bump() {
                    Token::Ident(k) => k,
                    Token::Keyword(k) => k.to_lowercase(),
                    other => {
                        return Err(self.error(format!("expected a property name, found {other}")))
                    }
                };
                if !matches!(self.bump(), Token::Colon) {
                    return Err(self.error("expected ':' between property name and value"));
                }
                let value = self.parse_value()?;
                pattern.properties.push((key, value));
                if matches!(self.peek(), Token::Comma) {
                    self.bump();
                }
            }
        }
        if !matches!(self.bump(), Token::RParen) {
            return Err(self.error("expected ')' to close the node pattern"));
        }
        Ok(pattern)
    }

    fn parse_value(&mut self) -> Result<Value, ParseError> {
        match self.bump() {
            Token::Str(s) => Ok(Value::Str(s)),
            Token::Int(i) => Ok(Value::Int(i)),
            Token::Float(f) => Ok(Value::Float(f)),
            Token::Keyword(k) if k == "TRUE" => Ok(Value::Bool(true)),
            Token::Keyword(k) if k == "FALSE" => Ok(Value::Bool(false)),
            Token::Keyword(k) if k == "NULL" => Ok(Value::Null),
            other => Err(self.error(format!("expected a literal value, found {other}"))),
        }
    }

    fn parse_group_by(&mut self) -> Result<Option<GroupKey>, ParseError> {
        if !(self.is_keyword("GROUP") && self.is_keyword_ahead(1, "BY")) {
            return Ok(None);
        }
        self.bump();
        self.bump();
        let mut source = false;
        let mut target = false;
        let mut length = false;
        loop {
            if self.eat_keyword("SOURCE") {
                source = true;
            } else if self.eat_keyword("TARGET") {
                target = true;
            } else if self.eat_keyword("LENGTH") {
                length = true;
            } else {
                break;
            }
        }
        if !(source || target || length) {
            return Err(self.error("GROUP BY needs at least one of SOURCE, TARGET, LENGTH"));
        }
        Ok(Some(GroupKey::from_flags(source, target, length)))
    }

    fn parse_order_by(&mut self) -> Result<Option<OrderKey>, ParseError> {
        if !(self.is_keyword("ORDER") && self.is_keyword_ahead(1, "BY")) {
            return Ok(None);
        }
        self.bump();
        self.bump();
        let mut partition = false;
        let mut group = false;
        let mut path = false;
        loop {
            if self.eat_keyword("PARTITION") {
                partition = true;
            } else if self.eat_keyword("GROUP") {
                group = true;
            } else if self.eat_keyword("PATH") {
                path = true;
            } else {
                break;
            }
        }
        match OrderKey::from_flags(partition, group, path) {
            Some(key) => Ok(Some(key)),
            None => Err(self.error("ORDER BY needs at least one of PARTITION, GROUP, PATH")),
        }
    }

    // ---- selection conditions ----

    fn parse_condition(&mut self) -> Result<Condition, ParseError> {
        Ok(self.parse_or()?.0)
    }

    fn parse_or(&mut self) -> Result<(Condition, usize), ParseError> {
        let (mut left, mut height) = self.parse_and()?;
        while self.eat_keyword("OR") {
            let (right, h) = self.parse_and()?;
            height = self.bounded(height.max(h) + 1)?;
            left = left.or(right);
        }
        Ok((left, height))
    }

    fn parse_and(&mut self) -> Result<(Condition, usize), ParseError> {
        let (mut left, mut height) = self.parse_not()?;
        while self.eat_keyword("AND") {
            let (right, h) = self.parse_not()?;
            height = self.bounded(height.max(h) + 1)?;
            left = left.and(right);
        }
        Ok((left, height))
    }

    /// `NOT` and `(` nest: each raises the depth of everything inside it.
    fn parse_not(&mut self) -> Result<(Condition, usize), ParseError> {
        let negated = self.is_keyword("NOT");
        let grouped = matches!(self.peek(), Token::LParen);
        if !negated && !grouped {
            return Ok((self.parse_condition_primary()?, self.depth));
        }
        self.depth = self.bounded(self.depth + 1)?;
        self.bump();
        let (inner, height) = if negated {
            let (inner, height) = self.parse_not()?;
            (inner.not(), height)
        } else {
            let inner = self.parse_or()?;
            if !matches!(self.bump(), Token::RParen) {
                return Err(self.error("expected ')'"));
            }
            inner
        };
        self.depth -= 1;
        Ok((inner, height))
    }

    fn parse_condition_primary(&mut self) -> Result<Condition, ParseError> {
        match self.peek().clone() {
            Token::Keyword(k) if k == "BOUND" => {
                self.bump();
                if !matches!(self.bump(), Token::LParen) {
                    return Err(self.error("expected '(' after BOUND"));
                }
                let accessor = self.parse_accessor()?;
                if !matches!(self.bump(), Token::RParen) {
                    return Err(self.error("expected ')' after BOUND argument"));
                }
                Ok(Condition::Bound(accessor))
            }
            Token::Keyword(k) if k == "SUBSTR" => {
                self.bump();
                if !matches!(self.bump(), Token::LParen) {
                    return Err(self.error("expected '(' after SUBSTR"));
                }
                let accessor = self.parse_accessor()?;
                if !matches!(self.bump(), Token::Comma) {
                    return Err(self.error("expected ',' between SUBSTR arguments"));
                }
                let needle = match self.bump() {
                    Token::Str(s) => s,
                    other => {
                        return Err(self.error(format!("expected a string literal, found {other}")))
                    }
                };
                if !matches!(self.bump(), Token::RParen) {
                    return Err(self.error("expected ')' after SUBSTR arguments"));
                }
                Ok(Condition::Substr(accessor, needle))
            }
            _ => {
                let accessor = self.parse_accessor()?;
                let op = match self.bump() {
                    Token::Eq => CompareOp::Eq,
                    Token::Ne => CompareOp::Ne,
                    Token::Lt => CompareOp::Lt,
                    Token::Le => CompareOp::Le,
                    Token::Gt => CompareOp::Gt,
                    Token::Ge => CompareOp::Ge,
                    other => {
                        return Err(
                            self.error(format!("expected a comparison operator, found {other}"))
                        )
                    }
                };
                let value = self.parse_value()?;
                Ok(Condition::Compare {
                    accessor,
                    op,
                    value,
                })
            }
        }
    }

    fn parse_accessor(&mut self) -> Result<Accessor, ParseError> {
        match self.bump() {
            Token::Keyword(k) if k == "LABEL" => {
                if !matches!(self.bump(), Token::LParen) {
                    return Err(self.error("expected '(' after label"));
                }
                let accessor = match self.bump() {
                    Token::Keyword(k) if k == "FIRST" => Accessor::NodeLabel(Position::First),
                    Token::Keyword(k) if k == "LAST" => Accessor::NodeLabel(Position::Last),
                    Token::Keyword(k) if k == "NODE" => {
                        let i = self.parse_indexed_position()?;
                        Accessor::NodeLabel(Position::Index(i))
                    }
                    Token::Keyword(k) if k == "EDGE" => {
                        let i = self.parse_indexed_position()?;
                        Accessor::EdgeLabel(Position::Index(i))
                    }
                    other => {
                        return Err(self.error(format!(
                            "expected first, last, node(i) or edge(i) inside label(), found {other}"
                        )))
                    }
                };
                if !matches!(self.bump(), Token::RParen) {
                    return Err(self.error("expected ')' to close label()"));
                }
                Ok(accessor)
            }
            Token::Keyword(k) if k == "LEN" => {
                if !matches!(self.bump(), Token::LParen) {
                    return Err(self.error("expected '(' after len"));
                }
                if !matches!(self.bump(), Token::RParen) {
                    return Err(self.error("expected ')' after len("));
                }
                Ok(Accessor::Len)
            }
            Token::Keyword(k) if k == "FIRST" => {
                let prop = self.parse_property_suffix()?;
                Ok(Accessor::NodeProperty(Position::First, prop))
            }
            Token::Keyword(k) if k == "LAST" => {
                let prop = self.parse_property_suffix()?;
                Ok(Accessor::NodeProperty(Position::Last, prop))
            }
            Token::Keyword(k) if k == "NODE" => {
                let i = self.parse_indexed_position()?;
                let prop = self.parse_property_suffix()?;
                Ok(Accessor::NodeProperty(Position::Index(i), prop))
            }
            Token::Keyword(k) if k == "EDGE" => {
                let i = self.parse_indexed_position()?;
                let prop = self.parse_property_suffix()?;
                Ok(Accessor::EdgeProperty(Position::Index(i), prop))
            }
            other => Err(self.error(format!(
                "expected an accessor (label(…), first.…, last.…, node(i).…, edge(i).…, len()), found {other}"
            ))),
        }
    }

    fn parse_indexed_position(&mut self) -> Result<usize, ParseError> {
        if !matches!(self.bump(), Token::LParen) {
            return Err(self.error("expected '('"));
        }
        let i = match self.bump() {
            Token::Int(i) if i >= 1 => i as usize,
            other => return Err(self.error(format!("expected a 1-based position, found {other}"))),
        };
        if !matches!(self.bump(), Token::RParen) {
            return Err(self.error("expected ')'"));
        }
        Ok(i)
    }

    fn parse_property_suffix(&mut self) -> Result<String, ParseError> {
        if !matches!(self.bump(), Token::Dot) {
            return Err(self.error("expected '.' before a property name"));
        }
        match self.bump() {
            Token::Ident(p) => Ok(p),
            Token::Keyword(p) => Ok(p.to_lowercase()),
            other => Err(self.error(format!("expected a property name, found {other}"))),
        }
    }
}

/// Parses a standalone selection condition — the RPQ surface's `where(…)`
/// clause reuses the full GQL condition grammar through this entry point.
pub(crate) fn parse_condition_text(input: &str) -> Result<Condition, ParseError> {
    let mut parser = QueryParser::new(input)?;
    let condition = parser.parse_condition()?;
    parser.expect_eof()?;
    Ok(condition)
}

/// Parses a standalone node pattern such as `(?x:Person {name:"Moe"})` — the
/// RPQ surface's head-argument syntax reuses the GQL node-pattern grammar.
/// Its variable, if any, joins `bound`, as in [`parse_query`].
pub(crate) fn parse_node_pattern_text(
    input: &str,
    bound: &mut Vec<String>,
) -> Result<IrNode, ParseError> {
    let mut parser = QueryParser::new(input)?;
    let pattern = parser.parse_node_pattern(bound)?;
    parser.expect_eof()?;
    Ok(pattern)
}

/// Adds a variable to those `bound` so far, or rejects it if it is there
/// already: a repeated variable is an equality join between the positions it
/// names, and the IR keeps positions only.
fn bind(bound: &mut Vec<String>, name: &str, offset: usize) -> Result<(), ParseError> {
    if bound.iter().any(|b| b == name) {
        return Err(ParseError::new(
            offset,
            format!("variable {name} is bound twice; a repeated variable is not supported"),
        ));
    }
    bound.push(name.to_owned());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_rpq::regex::LabelRegex;

    #[test]
    fn parses_the_section_7_1_example() {
        let q = parse_query(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        )
        .unwrap();
        assert_eq!(
            q.output,
            IrOutput::Slice(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)))
        );
        assert_eq!(q.restrictor, Restrictor::Trail);
        assert_eq!(q.source, IrNode::any());
        assert_eq!(q.target, IrNode::any());
        assert_eq!(q.regex, LabelRegex::label("Knows").star());
        assert_eq!(q.group_by, Some(GroupKey::Target));
        assert_eq!(q.order_by, Some(OrderKey::Path));
        assert!(q.where_clause.is_none());
    }

    #[test]
    fn parses_standard_gql_selector_form() {
        let q = parse_query("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::AnyShortest));
        assert_eq!(q.restrictor, Restrictor::Trail);
        assert_eq!(q.regex, LabelRegex::label("Knows").plus());

        let q = parse_query("MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::AllShortest));
        assert_eq!(q.restrictor, Restrictor::Walk);

        let q = parse_query("MATCH SHORTEST 3 GROUP ACYCLIC p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::ShortestKGroup(3)));
        assert_eq!(q.restrictor, Restrictor::Acyclic);

        let q = parse_query("MATCH SHORTEST 2 SIMPLE p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::ShortestK(2)));

        let q = parse_query("MATCH ANY 4 WALK p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::AnyK(4)));

        let q = parse_query("MATCH ANY TRAIL p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::Any));

        let q = parse_query("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::All));
    }

    #[test]
    fn selector_defaults_to_all_when_absent() {
        let q = parse_query("MATCH TRAIL p = (?x)-[:Knows]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::All));
        assert_eq!(q.restrictor, Restrictor::Trail);
    }

    #[test]
    fn shortest_restrictor_without_count_is_a_restrictor() {
        let q = parse_query("MATCH SHORTEST p = (?x)-[:Knows+]->(?y)").unwrap();
        assert_eq!(q.output, IrOutput::Selector(Selector::All));
        assert_eq!(q.restrictor, Restrictor::Shortest);
    }

    #[test]
    fn parses_node_patterns_with_labels_and_properties() {
        let q = parse_query(
            "MATCH ALL TRAIL p = (?x:Person {name:\"Moe\"})-[:Knows+]->(?y:Person {name:\"Apu\", age: 39})",
        )
        .unwrap();
        assert_eq!(q.source.label.as_deref(), Some("Person"));
        assert_eq!(
            q.source.properties,
            vec![("name".into(), Value::str("Moe"))]
        );
        assert_eq!(q.target.properties.len(), 2);
        assert_eq!(q.target.properties[1], ("age".into(), Value::Int(39)));
    }

    #[test]
    fn parses_anonymous_and_unconstrained_nodes() {
        let q = parse_query("MATCH ALL WALK ()-[:Knows]->()").unwrap();
        assert_eq!(q.source, IrNode::any());
        assert_eq!(q.target, IrNode::any());
        let q = parse_query("MATCH ALL WALK (x)-[:Knows]->(y {name:\"Apu\"})").unwrap();
        assert_eq!(q.source, IrNode::any());
        assert_eq!(
            q.target,
            IrNode::any().with_property("name", Value::str("Apu"))
        );
    }

    #[test]
    fn a_repeated_variable_is_a_parse_error_at_its_second_binding() {
        for (text, name, offset) in [
            ("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?x)", "x", 38),
            ("MATCH ALL WALK (x)-[:Knows]->(x)", "x", 30),
            ("MATCH ALL TRAIL p = (?p)-[:Knows+]->(?y)", "p", 22),
            ("MATCH ALL TRAIL x = (?y)-[:Knows+]->(?x)", "x", 38),
        ] {
            let err = parse_query(text).unwrap_err();
            assert_eq!(err.position, offset, "{text}: {err}");
            assert!(
                err.message
                    .contains(&format!("variable {name} is bound twice")),
                "{text}: {err}"
            );
        }
        // Distinct names, and anonymous nodes, still parse.
        assert!(parse_query("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)").is_ok());
        assert!(parse_query("MATCH ALL TRAIL p = ()-[:Knows+]->()").is_ok());
    }

    #[test]
    fn parses_where_conditions() {
        let q = parse_query(
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y) \
             WHERE first.name = \"Moe\" AND NOT (last.age < 30 OR len() >= 4)",
        )
        .unwrap();
        let w = q.where_clause.unwrap();
        let text = w.to_string();
        assert!(text.contains("first.name = \"Moe\""));
        assert!(text.contains("NOT"));
        assert!(text.contains("last.age < 30"));
        assert!(text.contains("len() >= 4"));
    }

    #[test]
    fn parses_label_and_builtin_conditions() {
        let q = parse_query(
            "MATCH ALL TRAIL p = (?x)-[:_+]->(?y) \
             WHERE label(edge(1)) = \"Knows\" AND label(first) = \"Person\" \
               AND bound(edge(2).since) AND substr(first.name, \"o\") \
               AND node(2).name != \"Bart\" AND edge(1).since > 2005",
        )
        .unwrap();
        let text = q.where_clause.unwrap().to_string();
        assert!(text.contains("label(edge(1)) = \"Knows\""));
        assert!(text.contains("label(first) = \"Person\""));
        assert!(text.contains("bound(edge(2).since)"));
        assert!(text.contains("substr(first.name, \"o\")"));
        assert!(text.contains("node(2).name != \"Bart\""));
        assert!(text.contains("edge(1).since > 2005"));
    }

    #[test]
    fn parses_all_group_by_and_order_by_combinations() {
        let cases = [
            ("GROUP BY SOURCE", GroupKey::Source),
            ("GROUP BY TARGET", GroupKey::Target),
            ("GROUP BY LENGTH", GroupKey::Length),
            ("GROUP BY SOURCE TARGET", GroupKey::SourceTarget),
            ("GROUP BY SOURCE LENGTH", GroupKey::SourceLength),
            ("GROUP BY TARGET LENGTH", GroupKey::TargetLength),
            (
                "GROUP BY SOURCE TARGET LENGTH",
                GroupKey::SourceTargetLength,
            ),
        ];
        for (clause, expected) in cases {
            let q = parse_query(&format!(
                "MATCH ALL PARTITIONS ALL GROUPS ALL PATHS TRAIL p = (?x)-[:Knows+]->(?y) {clause}"
            ))
            .unwrap();
            assert_eq!(q.group_by, Some(expected), "{clause}");
        }
        let cases = [
            ("ORDER BY PARTITION", OrderKey::Partition),
            ("ORDER BY GROUP", OrderKey::Group),
            ("ORDER BY PATH", OrderKey::Path),
            ("ORDER BY PARTITION GROUP", OrderKey::PartitionGroup),
            ("ORDER BY PARTITION PATH", OrderKey::PartitionPath),
            ("ORDER BY GROUP PATH", OrderKey::GroupPath),
            (
                "ORDER BY PARTITION GROUP PATH",
                OrderKey::PartitionGroupPath,
            ),
        ];
        for (clause, expected) in cases {
            let q = parse_query(&format!(
                "MATCH ALL PARTITIONS ALL GROUPS ALL PATHS TRAIL p = (?x)-[:Knows+]->(?y) \
                 GROUP BY SOURCE TARGET {clause}"
            ))
            .unwrap();
            assert_eq!(q.order_by, Some(expected), "{clause}");
        }
    }

    #[test]
    fn parse_errors_are_informative() {
        let err = parse_query("RETURN p").unwrap_err();
        assert!(err.message.contains("MATCH"));
        let err = parse_query("MATCH ALL BOGUS p = (?x)-[:a]->(?y)").unwrap_err();
        assert!(err.message.contains("restrictor"));
        let err = parse_query("MATCH ALL TRAIL p = (?x)-[:a]->(?y) WHERE name = 1").unwrap_err();
        assert!(err.message.contains("accessor"));
        let err = parse_query("MATCH ALL TRAIL p = (?x)(?y)").unwrap_err();
        assert!(err.message.contains("edge pattern"));
        let err = parse_query("MATCH ALL TRAIL p = (?x)-[:a(]->(?y)").unwrap_err();
        assert!(err.message.contains("regular expression"));
        let err = parse_query("MATCH 0 PARTITIONS ALL GROUPS ALL PATHS TRAIL p = (?x)-[:a]->(?y)")
            .unwrap_err();
        assert!(err.message.contains("positive"));
        let err = parse_query("MATCH ALL TRAIL p = (?x)-[:a]->(?y) GROUP BY").unwrap_err();
        assert!(err.message.contains("GROUP BY"));
        let err = parse_query("MATCH ALL TRAIL p = (?x)-[:a]->(?y) trailing garbage").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn condition_nesting_past_the_bound_is_a_parse_error() {
        let query = |condition: String| {
            parse_query(&format!(
                "MATCH ALL TRAIL p = (?x)-[:Knows]->(?y) WHERE {condition}"
            ))
        };
        let n = MAX_NESTING_DEPTH;
        let chain = |k: usize, op: &str| vec!["len() = 1"; k + 1].join(op);
        let parens = |k: usize| format!("{}len() = 1{}", "(".repeat(k), ")".repeat(k));
        assert!(query(chain(n, " AND ")).is_ok());
        assert!(query(parens(n)).is_ok());
        for deep in [
            chain(n + 1, " AND "),
            chain(n + 1, " OR "),
            format!("{}len() = 1", "NOT ".repeat(n + 1)),
            parens(n + 1),
            parens(100_000),
        ] {
            let err = query(deep).unwrap_err();
            assert!(err.message.contains("nests deeper"), "{}", err.message);
        }
    }

    #[test]
    fn query_display_round_trips_key_clauses() {
        let q = parse_query(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        )
        .unwrap();
        let text = q.to_string();
        assert!(text.contains("MATCH (*,*,1) TRAIL"));
        assert!(text.contains("GROUP BY T"));
        assert!(text.contains("ORDER BY A"));
        // Node patterns keep their constraints and lose their variables.
        let q =
            parse_query("MATCH ANY SHORTEST TRAIL p = (?x:Person {name:\"Moe\"})-[:Knows]->(?y)")
                .unwrap();
        let text = q.to_string();
        assert!(
            text.starts_with("MATCH ANY SHORTEST TRAIL (:Person {name:\"Moe\"})-["),
            "{text}"
        );
        assert!(text.ends_with("]->()"), "{text}");
    }
}
