//! The datalog-ish RPQ surface — the second textual query surface.
//!
//! Queries are written as a single rule: a head naming the reachability
//! predicate and its two endpoint arguments, and a body whose first atom is a
//! regular path expression, optionally followed by clauses refining the
//! restrictor, the output shape and the path filter:
//!
//! ```text
//! reach(x, y) :- (:Likes/:Has_creator)+, trail, any_shortest.
//! reach(x:Person {name:"Moe"}, y) :- :Knows+, simple, where(len() <= 4).
//! reach(x, y) :- (:Knows)*, trail, slice(*, *, 1), group_by(target), order_by(path).
//! ```
//!
//! Grammar (clauses are comma-separated at the top level; the trailing `.`
//! is optional):
//!
//! ```text
//! rule       := ident '(' nodespec ',' nodespec ')' ':-' regex (',' clause)* '.'?
//! nodespec   := ident (':' label)? properties?          // GQL node-pattern body
//! clause     := restrictor | selector | 'semantics' '(' restrictor ')'
//!             | 'slice' '(' take ',' take ',' take ')'
//!             | 'group_by' '(' groupkey+ ')' | 'order_by' '(' orderkey+ ')'
//!             | 'where' '(' condition ')'
//! restrictor := 'walk' | 'trail' | 'acyclic' | 'simple' | 'shortest'
//! selector   := 'all' | 'any' | 'any' '(' int ')' | 'any_shortest'
//!             | 'all_shortest' | 'shortest' '(' int ')' | 'shortest_group' '(' int ')'
//! take       := '*' | int
//! ```
//!
//! The regex reuses the RPQ grammar of [`pathalg_rpq::parse`], node specs and
//! the `where(…)` condition reuse the GQL grammar, and the result is a
//! [`QueryIr`] — the same IR the GQL parser and the JSON codec produce — so
//! the surface inherits the whole checked lowering pipeline (and the plan
//! cache key) unchanged. Defaults when a clause is omitted: `walk` restrictor
//! and the `all` selector, mirroring a bare RPQ's semantics.

use crate::error::ParseError;
use crate::ir::{IrNode, IrOutput, QueryIr};
use crate::parser::{parse_condition_text, parse_node_pattern_text};
use pathalg_core::condition::Condition;
use pathalg_core::gql::{Restrictor, Selector};
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::order_by::OrderKey;
use pathalg_core::ops::projection::{ProjectionSpec, Take};
use pathalg_rpq::parse::parse_regex;

/// Parses one datalog-ish RPQ rule into the surface-independent [`QueryIr`].
pub(crate) fn parse_rpq(input: &str) -> Result<QueryIr, ParseError> {
    let trimmed = input.trim_end();
    let trimmed = trimmed.strip_suffix('.').unwrap_or(trimmed);
    let neck = trimmed
        .find(":-")
        .ok_or_else(|| ParseError::new(trimmed.len(), "expected ':-' between head and body"))?;
    let (head, body) = (&trimmed[..neck], &trimmed[neck + 2..]);

    let (source, target) = parse_head(head)?;
    let body_offset = neck + 2;

    let mut clauses = split_top_level(body, body_offset);
    if clauses.is_empty() || clauses[0].text.trim().is_empty() {
        return Err(ParseError::new(
            body_offset,
            "the body needs a regular path expression as its first atom",
        ));
    }
    let regex_clause = clauses.remove(0);
    let regex = parse_regex(regex_clause.text.trim()).map_err(|e| {
        ParseError::new(
            regex_clause.offset,
            format!("invalid regular expression: {e}"),
        )
    })?;

    let mut restrictor: Option<Restrictor> = None;
    let mut selector: Option<Selector> = None;
    let mut slice: Option<ProjectionSpec> = None;
    let mut group_by: Option<GroupKey> = None;
    let mut order_by: Option<OrderKey> = None;
    let mut where_clause: Option<Condition> = None;

    for clause in clauses {
        let parsed = parse_clause(&clause)?;
        match parsed {
            Clause::Restrictor(r) => set_once(&mut restrictor, r, "restrictor", &clause)?,
            Clause::Selector(s) => set_once(&mut selector, s, "selector", &clause)?,
            Clause::Slice(spec) => set_once(&mut slice, spec, "slice", &clause)?,
            Clause::GroupBy(key) => set_once(&mut group_by, key, "group_by", &clause)?,
            Clause::OrderBy(key) => set_once(&mut order_by, key, "order_by", &clause)?,
            Clause::Where(cond) => set_once(&mut where_clause, cond, "where", &clause)?,
        }
    }

    let output = match (selector, slice) {
        (Some(_), Some(_)) => {
            return Err(ParseError::new(
                body_offset,
                "a rule cannot carry both a selector and a slice clause",
            ))
        }
        (None, Some(spec)) => IrOutput::Slice(spec),
        (Some(s), None) => IrOutput::Selector(s),
        (None, None) => IrOutput::Selector(Selector::All),
    };

    Ok(QueryIr {
        output,
        restrictor: restrictor.unwrap_or(Restrictor::Walk),
        source,
        regex,
        target,
        where_clause,
        group_by,
        order_by,
    })
}

/// One comma-separated body clause with its byte offset in the input (for
/// error positions).
struct RawClause {
    text: String,
    offset: usize,
}

enum Clause {
    Restrictor(Restrictor),
    Selector(Selector),
    Slice(ProjectionSpec),
    GroupBy(GroupKey),
    OrderBy(OrderKey),
    Where(Condition),
}

fn set_once<T>(
    slot: &mut Option<T>,
    value: T,
    what: &str,
    clause: &RawClause,
) -> Result<(), ParseError> {
    if slot.is_some() {
        return Err(ParseError::new(
            clause.offset,
            format!("duplicate {what} clause"),
        ));
    }
    *slot = Some(value);
    Ok(())
}

/// Parses the rule head `ident(nodespec, nodespec)` into the two endpoint
/// constraints. The predicate name and the variable names are syntax only —
/// the IR is α-canonical and drops them — but a variable named twice is
/// rejected, as in GQL.
fn parse_head(head: &str) -> Result<(IrNode, IrNode), ParseError> {
    let head_trim = head.trim();
    let base = head.len() - head.trim_start().len();
    let open = head_trim
        .find('(')
        .ok_or_else(|| ParseError::new(base, "expected a head like reach(x, y)"))?;
    let name = head_trim[..open].trim();
    if !name
        .chars()
        .next()
        .is_some_and(|c| c.is_alphabetic() || c == '_')
        || !name.chars().all(|c| c.is_alphanumeric() || c == '_')
    {
        return Err(ParseError::new(
            base,
            format!("invalid predicate name '{name}'"),
        ));
    }
    let close = head_trim
        .rfind(')')
        .filter(|end| *end > open)
        .ok_or_else(|| ParseError::new(base + open, "unclosed head argument list"))?;
    if !head_trim[close + 1..].trim().is_empty() {
        return Err(ParseError::new(
            base + close + 1,
            "unexpected input after the head argument list",
        ));
    }
    let args = split_top_level(&head_trim[open + 1..close], base + open + 1);
    if args.len() != 2 {
        return Err(ParseError::new(
            base + open,
            format!("the head takes exactly 2 arguments, found {}", args.len()),
        ));
    }
    let mut bound = Vec::new();
    Ok((
        parse_nodespec(&args[0], &mut bound)?,
        parse_nodespec(&args[1], &mut bound)?,
    ))
}

/// A head argument is the body of a GQL node pattern (`x`, `x:Person`,
/// `x:Person {name:"Moe"}`); wrap it and reuse the GQL parser.
fn parse_nodespec(arg: &RawClause, bound: &mut Vec<String>) -> Result<IrNode, ParseError> {
    let spec = arg.text.trim();
    let offset = arg.offset + arg.text.len() - arg.text.trim_start().len();
    if spec.is_empty() {
        return Err(ParseError::new(offset, "empty head argument"));
    }
    parse_node_pattern_text(&format!("(?{spec})"), bound)
        .map_err(|e| ParseError::new(offset, format!("invalid head argument: {}", e.message)))
}

fn parse_clause(clause: &RawClause) -> Result<Clause, ParseError> {
    let text = clause.text.trim();
    let err = |msg: String| ParseError::new(clause.offset, msg);

    // Split `name(args)` from bare keywords.
    let (name, args) = match text.find('(') {
        None => (text, None),
        Some(open) => {
            let close = text
                .rfind(')')
                .filter(|end| *end > open)
                .ok_or_else(|| err(format!("unclosed clause '{text}'")))?;
            if !text[close + 1..].trim().is_empty() {
                return Err(err(format!("unexpected input after clause '{text}'")));
            }
            (text[..open].trim(), Some(&text[open + 1..close]))
        }
    };
    let keyword = name.to_ascii_lowercase();

    match (keyword.as_str(), args) {
        ("walk", None) => Ok(Clause::Restrictor(Restrictor::Walk)),
        ("trail", None) => Ok(Clause::Restrictor(Restrictor::Trail)),
        ("acyclic", None) => Ok(Clause::Restrictor(Restrictor::Acyclic)),
        ("simple", None) => Ok(Clause::Restrictor(Restrictor::Simple)),
        ("shortest", None) => Ok(Clause::Restrictor(Restrictor::Shortest)),
        ("semantics", Some(arg)) => match arg.trim().to_ascii_lowercase().as_str() {
            "walk" => Ok(Clause::Restrictor(Restrictor::Walk)),
            "trail" => Ok(Clause::Restrictor(Restrictor::Trail)),
            "acyclic" => Ok(Clause::Restrictor(Restrictor::Acyclic)),
            "simple" => Ok(Clause::Restrictor(Restrictor::Simple)),
            "shortest" => Ok(Clause::Restrictor(Restrictor::Shortest)),
            other => Err(err(format!("unknown restrictor '{other}'"))),
        },
        ("all", None) => Ok(Clause::Selector(Selector::All)),
        ("any", None) => Ok(Clause::Selector(Selector::Any)),
        ("any_shortest", None) => Ok(Clause::Selector(Selector::AnyShortest)),
        ("all_shortest", None) => Ok(Clause::Selector(Selector::AllShortest)),
        ("any", Some(arg)) => Ok(Clause::Selector(Selector::AnyK(parse_k(arg, &err)?))),
        ("shortest", Some(arg)) => Ok(Clause::Selector(Selector::ShortestK(parse_k(arg, &err)?))),
        ("shortest_group", Some(arg)) => Ok(Clause::Selector(Selector::ShortestKGroup(parse_k(
            arg, &err,
        )?))),
        ("slice", Some(arg)) => {
            let takes: Vec<&str> = arg.split(',').map(str::trim).collect();
            if takes.len() != 3 {
                return Err(err(format!(
                    "slice takes exactly 3 counts (partitions, groups, paths), found {}",
                    takes.len()
                )));
            }
            let take = |t: &str| -> Result<Take, ParseError> {
                if t == "*" {
                    Ok(Take::All)
                } else {
                    t.parse::<usize>()
                        .ok()
                        .filter(|k| *k >= 1)
                        .map(Take::Count)
                        .ok_or_else(|| {
                            err(format!("expected '*' or a positive count, found '{t}'"))
                        })
                }
            };
            Ok(Clause::Slice(ProjectionSpec::new(
                take(takes[0])?,
                take(takes[1])?,
                take(takes[2])?,
            )))
        }
        ("group_by", Some(arg)) => {
            let (mut s, mut t, mut l) = (false, false, false);
            for key in arg.split(',').map(str::trim) {
                match key.to_ascii_lowercase().as_str() {
                    "source" => s = true,
                    "target" => t = true,
                    "length" => l = true,
                    other => return Err(err(format!("unknown group_by key '{other}'"))),
                }
            }
            Ok(Clause::GroupBy(GroupKey::from_flags(s, t, l)))
        }
        ("order_by", Some(arg)) => {
            let (mut p, mut g, mut a) = (false, false, false);
            for key in arg.split(',').map(str::trim) {
                match key.to_ascii_lowercase().as_str() {
                    "partition" => p = true,
                    "group" => g = true,
                    "path" => a = true,
                    other => return Err(err(format!("unknown order_by key '{other}'"))),
                }
            }
            OrderKey::from_flags(p, g, a)
                .map(Clause::OrderBy)
                .ok_or_else(|| err("order_by needs at least one key".to_string()))
        }
        ("where", Some(arg)) => {
            let condition = parse_condition_text(arg)
                .map_err(|e| err(format!("invalid where condition: {}", e.message)))?;
            Ok(Clause::Where(condition))
        }
        _ => Err(err(format!("unknown clause '{text}'"))),
    }
}

fn parse_k(arg: &str, err: &dyn Fn(String) -> ParseError) -> Result<usize, ParseError> {
    arg.trim()
        .parse::<usize>()
        .ok()
        .filter(|k| *k >= 1)
        .ok_or_else(|| err(format!("expected a positive count, found '{}'", arg.trim())))
}

/// Splits `text` on commas that are not nested inside parentheses, braces,
/// brackets or string literals. `base` is the byte offset of `text` in the
/// original input, so each piece carries an absolute error position.
fn split_top_level(text: &str, base: usize) -> Vec<RawClause> {
    let mut pieces = Vec::new();
    let mut depth = 0usize;
    let mut in_string = false;
    let mut start = 0usize;
    let bytes = text.as_bytes();
    let mut i = 0usize;
    while i < bytes.len() {
        let c = bytes[i];
        if in_string {
            match c {
                b'\\' => i += 1, // skip the escaped byte
                b'"' => in_string = false,
                _ => {}
            }
        } else {
            match c {
                b'"' => in_string = true,
                b'(' | b'{' | b'[' => depth += 1,
                b')' | b'}' | b']' => depth = depth.saturating_sub(1),
                b',' if depth == 0 => {
                    pieces.push(RawClause {
                        text: text[start..i].to_string(),
                        offset: base + start,
                    });
                    start = i + 1;
                }
                _ => {}
            }
        }
        i += 1;
    }
    if start < text.len() || !pieces.is_empty() || !text.is_empty() {
        pieces.push(RawClause {
            text: text[start..].to_string(),
            offset: base + start,
        });
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use pathalg_core::condition::CompareOp;

    #[test]
    fn a_rule_lowers_to_the_same_ir_as_its_gql_twin() {
        let cases = [
            (
                "reach(x {name:\"Moe\"}, y) :- (:Likes/:Has_creator)+, trail, any_shortest.",
                "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)",
            ),
            (
                "reach(x, y) :- (:Knows)*, trail, slice(*, *, 1), group_by(target), order_by(path)",
                "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
                 GROUP BY TARGET ORDER BY PATH",
            ),
            (
                "reach(x:Person, y:Person) :- :Knows+, simple, where(len() <= 4), shortest_group(2).",
                "MATCH SHORTEST 2 GROUP SIMPLE p = (?x:Person)-[:Knows+]->(?y:Person) \
                 WHERE len() <= 4",
            ),
            (
                "reach(x, y) :- :Likes/:Has_creator, acyclic.",
                "MATCH ALL ACYCLIC p = (?x)-[:Likes/:Has_creator]->(?y)",
            ),
        ];
        for (rule, gql) in cases {
            let from_rule = parse_rpq(rule).unwrap();
            let from_gql = parse_query(gql).unwrap();
            assert_eq!(from_rule, from_gql, "{rule}");
        }
    }

    #[test]
    fn defaults_are_walk_and_all() {
        let ir = parse_rpq("reach(x, y) :- :Knows").unwrap();
        assert_eq!(ir.restrictor, Restrictor::Walk);
        assert_eq!(ir.output, IrOutput::Selector(Selector::All));
    }

    #[test]
    fn semantics_clause_is_an_alternative_restrictor_spelling() {
        let a = parse_rpq("reach(x, y) :- :Knows+, trail").unwrap();
        let b = parse_rpq("reach(x, y) :- :Knows+, semantics(trail)").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn selector_arguments_parse() {
        let ir = parse_rpq("reach(x, y) :- :Knows+, trail, any(3)").unwrap();
        assert_eq!(ir.output, IrOutput::Selector(Selector::AnyK(3)));
        let ir = parse_rpq("reach(x, y) :- :Knows+, trail, shortest(2)").unwrap();
        assert_eq!(ir.output, IrOutput::Selector(Selector::ShortestK(2)));
    }

    #[test]
    fn where_commas_do_not_split_clauses() {
        let ir = parse_rpq(
            "reach(x, y) :- :Knows+, trail, where(substr(first.name, \"o\") AND len() <= 3)",
        )
        .unwrap();
        let w = ir.where_clause.expect("where clause");
        assert!(matches!(w, Condition::And(_, _)));

        // A comma inside a property map must not split head arguments either.
        let ir =
            parse_rpq("reach(x {name:\"Moe\", age:39}, y) :- :Knows+, trail, where(len() <= 3)")
                .unwrap();
        assert_eq!(ir.source.properties.len(), 2);
        assert!(matches!(
            ir.where_clause,
            Some(Condition::Compare {
                op: CompareOp::Le,
                ..
            })
        ));
    }

    #[test]
    fn errors_name_the_offending_clause() {
        let cases = [
            ("reach(x, y)", "expected ':-'"),
            ("reach(x) :- :Knows", "exactly 2 arguments"),
            ("reach(x, y) :- ", "regular path expression"),
            ("reach(x, y) :- :Knows, sideways", "unknown clause"),
            ("reach(x, y) :- :Knows, trail, walk", "duplicate restrictor"),
            ("reach(x, y) :- :Knows, any(0)", "positive count"),
            ("reach(x, y) :- :Knows, slice(1, 2)", "exactly 3 counts"),
            (
                "reach(x, y) :- :Knows, all, slice(*, *, 1)",
                "both a selector and a slice",
            ),
            (
                "reach(x, y) :- :Knows, group_by(diagonal)",
                "unknown group_by key",
            ),
            (
                "reach(x, y) :- :Knows, where(len() <)",
                "invalid where condition",
            ),
            ("1dent(x, y) :- :Knows", "invalid predicate name"),
            (
                "reach(x, x) :- :Knows+, trail, all.",
                "variable x is bound twice",
            ),
        ];
        for (rule, needle) in cases {
            let err = parse_rpq(rule).unwrap_err();
            assert!(err.to_string().contains(needle), "{rule}: got {err}");
        }
        // The repeat is reported at the argument that repeats it.
        let err = parse_rpq("reach(x:Person, x) :- :Knows+").unwrap_err();
        assert_eq!(err.position, 16, "{err}");
    }
}
