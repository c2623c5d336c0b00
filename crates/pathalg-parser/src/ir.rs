//! The query IR — the single lowering target of every query surface.
//!
//! [`QueryIr`] is the surface-independent description of one path query:
//! what to match (source/target node constraints, a [`LabelRegex`] edge
//! pattern, an optional `WHERE` condition), under which restrictor, and how
//! to shape the output (a GQL selector or an explicit γ/τ/π slice). The GQL
//! parser ([`crate::parse_query`]), the datalog-ish RPQ surface
//! ([`crate::rpq_surface`]) and raw JSON documents (this module's codec) all
//! produce `QueryIr` values, and [`lower_to_checked_plan`] is the one
//! checked path from any of them to a validated [`PlanExpr`] — so the plan
//! cache key, admission control, in-flight deduplication and every engine
//! strategy apply identically regardless of how the query was written.
//!
//! Two properties make the IR the right cache boundary:
//!
//! * **α-canonical.** Surface variable names (`?x`, `reach(x, y)`) are
//!   dropped at IR construction — the IR stores only positional constraints
//!   — so α-equivalent queries from *any* surface are structurally equal
//!   before a plan is ever built. A name bound twice would be an equality
//!   join the IR cannot say, so the surface parsers reject it.
//! * **Serializable.** [`QueryIr::to_json_string`] / [`QueryIr::from_json_str`]
//!   give a versioned (`query_ir_v1`) JSON form whose serializer is
//!   canonical: serialize → parse → serialize is byte-identical, which the
//!   golden-file round-trip test pins.

use crate::json::{parse_json, Json};
use pathalg_core::condition::{Accessor, CompareOp, Condition, Position};
use pathalg_core::error::AlgebraError;
use pathalg_core::expr::PlanExpr;
use pathalg_core::gql::{Restrictor, Selector};
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::order_by::OrderKey;
use pathalg_core::ops::projection::{ProjectionSpec, Take};
use pathalg_graph::value::Value;
use pathalg_rpq::compile::compile_to_algebra;
use pathalg_rpq::parse::MAX_NESTING_DEPTH;
use pathalg_rpq::regex::LabelRegex;
use std::fmt;

/// The version tag every serialized IR document carries (and the decoder
/// requires).
pub(crate) const QUERY_IR_VERSION: &str = "query_ir_v1";

/// Endpoint constraints of one node pattern, without the surface variable
/// name (the IR is α-canonical; see the module docs).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct IrNode {
    /// Label constraint, if any.
    pub label: Option<String>,
    /// Property constraints (name, required value).
    pub properties: Vec<(String, Value)>,
}

impl IrNode {
    /// A node with no constraints (matches any node).
    pub fn any() -> Self {
        Self::default()
    }

    /// A node constrained to the given label.
    #[cfg(test)]
    pub(crate) fn labeled(label: impl Into<String>) -> Self {
        Self {
            label: Some(label.into()),
            properties: Vec::new(),
        }
    }

    /// Adds a property constraint.
    #[cfg(test)]
    pub(crate) fn with_property(
        mut self,
        name: impl Into<String>,
        value: impl Into<Value>,
    ) -> Self {
        self.properties.push((name.into(), value.into()));
        self
    }
}

/// The GQL node pattern without a variable: `(:Person {name:"Moe"})`.
impl fmt::Display for IrNode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        if let Some(l) = &self.label {
            write!(f, ":{l}")?;
        }
        if !self.properties.is_empty() {
            write!(f, " {{")?;
            for (i, (k, v)) in self.properties.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{k}:{v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, ")")
    }
}

/// How the matched paths are shaped on output: a GQL selector (Table 1) or
/// an explicit projection slice (the paper's extended §7.1 form).
#[derive(Clone, Debug, PartialEq)]
pub enum IrOutput {
    /// A GQL selector, lowered via the Table-7 γ/τ/π templates.
    Selector(Selector),
    /// An explicit `(#P, #G, #A)` slice, combined with the IR's `group_by` /
    /// `order_by` clauses.
    Slice(ProjectionSpec),
}

/// One path query, independent of the surface it was written in. See the
/// module docs for the role this type plays.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryIr {
    /// Output shaping: selector or explicit slice.
    pub output: IrOutput,
    /// The restrictor (path semantics of ϕ).
    pub restrictor: Restrictor,
    /// Source-endpoint constraints.
    pub source: IrNode,
    /// The regular expression over edge labels.
    pub regex: LabelRegex,
    /// Target-endpoint constraints.
    pub target: IrNode,
    /// Optional `WHERE` condition over the whole path.
    pub where_clause: Option<Condition>,
    /// Optional grouping key (only meaningful with [`IrOutput::Slice`]).
    pub group_by: Option<GroupKey>,
    /// Optional ordering key (only meaningful with [`IrOutput::Slice`]).
    pub order_by: Option<OrderKey>,
}

/// The query in GQL syntax, without variable names (the IR has none).
impl fmt::Display for QueryIr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.output {
            IrOutput::Selector(s) => write!(f, "MATCH {s} ")?,
            IrOutput::Slice(spec) => write!(f, "MATCH {spec} ")?,
        }
        write!(
            f,
            "{} {}-[{}]->{}",
            self.restrictor, self.source, self.regex, self.target
        )?;
        if let Some(w) = &self.where_clause {
            write!(f, " WHERE {w}")?;
        }
        if let Some(g) = &self.group_by {
            write!(f, " GROUP BY {g}")?;
        }
        if let Some(o) = &self.order_by {
            write!(f, " ORDER BY {o}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Lowering: IR → plan
// ---------------------------------------------------------------------------

impl QueryIr {
    /// Generates the logical plan for this IR (Section 7.2):
    ///
    /// 1. compile the regex under the restrictor's semantics;
    /// 2. fold endpoint constraints, the `WHERE` clause and (where the
    ///    compiled shape requires it) an explicit whole-path restrictor
    ///    predicate into one root selection;
    /// 3. apply the selector's Table-7 pipeline, or the explicit γ/τ/π of a
    ///    slice output.
    pub fn to_plan(&self) -> PlanExpr {
        let compiled = compile_to_algebra(&self.regex, self.restrictor.semantics());
        let filtered = match self.pattern_condition() {
            Some(c) => compiled.select(c),
            None => compiled,
        };
        match &self.output {
            IrOutput::Selector(selector) => filtered.with_selector(*selector),
            IrOutput::Slice(spec) => {
                let grouped = filtered.group_by(self.group_by.unwrap_or(GroupKey::Empty));
                let ordered = match self.order_by {
                    Some(key) => grouped.order_by(key),
                    None => grouped,
                };
                ordered.project(*spec)
            }
        }
    }

    /// Structural validation, before a plan is built: slice counts must be
    /// positive, parameterised selectors need `k ≥ 1`, a selector output
    /// cannot be combined with explicit `group_by` / `order_by` clauses
    /// (the selector *is* the γ/τ/π pipeline), and the two endpoints may
    /// carry at most [`MAX_NESTING_DEPTH`] properties together — they fold
    /// into one chain of `AND`s, which nests one level per property.
    pub fn validate(&self) -> Result<(), AlgebraError> {
        let properties = self.source.properties.len() + self.target.properties.len();
        if properties > MAX_NESTING_DEPTH {
            return Err(AlgebraError::IrValidation {
                field: "properties",
                message: format!(
                    "{properties} endpoint properties nest deeper than {MAX_NESTING_DEPTH} levels"
                ),
            });
        }
        match &self.output {
            IrOutput::Slice(spec) => spec.validate().map_err(|e| AlgebraError::IrValidation {
                field: "output",
                message: e.to_string(),
            })?,
            IrOutput::Selector(selector) => {
                if matches!(
                    selector,
                    Selector::AnyK(0) | Selector::ShortestK(0) | Selector::ShortestKGroup(0)
                ) {
                    return Err(AlgebraError::IrValidation {
                        field: "output",
                        message: format!("selector {selector} requires k >= 1"),
                    });
                }
                if self.group_by.is_some() || self.order_by.is_some() {
                    return Err(AlgebraError::IrValidation {
                        field: "output",
                        message: format!(
                            "selector {selector} already fixes the group/order pipeline; \
                             group_by/order_by are only valid with a slice output"
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Builds the combined endpoint/WHERE/restrictor condition, if any.
    fn pattern_condition(&self) -> Option<Condition> {
        let mut parts: Vec<Condition> = Vec::new();
        parts.extend(node_conditions(&self.source, true));
        parts.extend(node_conditions(&self.target, false));
        if let Some(w) = &self.where_clause {
            parts.push(w.clone());
        }
        // The recursive operator enforces the restrictor on everything it
        // produces, but parts of the pattern that compile without recursion
        // (plain labels, concatenations, bounded repetitions) are built from
        // σ, ⋈ and ∪ only — there the restrictor must be enforced with an
        // explicit whole-path predicate (GQL applies restrictors to the
        // entire matched path, not only to its repeated portions).
        if let Some(predicate) = restrictor_filter(self.restrictor, &self.regex) {
            parts.push(predicate);
        }
        parts.into_iter().reduce(|a, b| a.and(b))
    }
}

/// Validates and lowers an IR to a type-checked plan — **the** single entry
/// point from any query surface to an executable plan. Both failure modes
/// surface as typed [`AlgebraError::IrValidation`] variants.
pub fn lower_to_checked_plan(ir: &QueryIr) -> Result<PlanExpr, AlgebraError> {
    ir.validate()?;
    let plan = ir.to_plan();
    plan.type_check()
        .map_err(|msg| AlgebraError::IrValidation {
            field: "plan",
            message: format!("plan does not type-check: {msg}"),
        })?;
    Ok(plan)
}

/// The whole-path predicate needed to enforce `restrictor` on paths matched
/// by `regex`, or `None` when the compiled plan already enforces it (every
/// way of matching goes through a recursive operator, or the restrictor is
/// trivially satisfied by the shapes the regex can produce).
fn restrictor_filter(restrictor: Restrictor, regex: &LabelRegex) -> Option<Condition> {
    let predicate = match restrictor {
        Restrictor::Walk | Restrictor::Shortest => return None,
        Restrictor::Trail => Condition::IsTrail,
        Restrictor::Acyclic => Condition::IsAcyclic,
        Restrictor::Simple => Condition::IsSimple,
    };
    if fully_guarded(regex, restrictor) {
        None
    } else {
        Some(predicate)
    }
}

/// True if every path matched by `regex` is guaranteed to satisfy the
/// restrictor already — either because it is produced by a recursive
/// operator (which filters), or because its shape cannot violate the
/// restrictor (a single edge is always a trail; the empty path satisfies
/// everything).
fn fully_guarded(regex: &LabelRegex, restrictor: Restrictor) -> bool {
    match regex {
        LabelRegex::Epsilon => true,
        // A single edge always is a trail and is simple (a self loop has
        // first = last); it is *not* necessarily acyclic (self loops).
        LabelRegex::Label(_) | LabelRegex::AnyLabel => {
            matches!(restrictor, Restrictor::Trail | Restrictor::Simple)
        }
        LabelRegex::Alt(a, b) => fully_guarded(a, restrictor) && fully_guarded(b, restrictor),
        LabelRegex::Optional(a) => fully_guarded(a, restrictor),
        // Plus and Star compile to ϕ, which enforces the restrictor on the
        // complete concatenation.
        LabelRegex::Plus(_) | LabelRegex::Star(_) => true,
        // Concatenations and bounded repetitions compile to plain joins.
        LabelRegex::Concat(_, _) | LabelRegex::Repeat { .. } => false,
    }
}

fn node_conditions(node: &IrNode, is_source: bool) -> Vec<Condition> {
    let mut out = Vec::new();
    if let Some(label) = &node.label {
        out.push(if is_source {
            Condition::first_label(label.clone())
        } else {
            Condition::last_label(label.clone())
        });
    }
    for (prop, value) in &node.properties {
        out.push(if is_source {
            Condition::first_property(prop.clone(), value.clone())
        } else {
            Condition::last_property(prop.clone(), value.clone())
        });
    }
    out
}

// ---------------------------------------------------------------------------
// JSON codec
// ---------------------------------------------------------------------------

/// A failure while decoding a JSON document into a [`QueryIr`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct IrError {
    /// Dotted path of the offending field (e.g. `regex.left.op`), or
    /// `"json"` for a syntax error in the document itself.
    pub path: String,
    /// What went wrong.
    pub message: String,
}

impl IrError {
    fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for IrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid query IR at {}: {}", self.path, self.message)
    }
}

impl std::error::Error for IrError {}

impl QueryIr {
    /// Encodes the IR as a JSON tree (version tag included).
    pub(crate) fn to_json(&self) -> Json {
        Json::object([
            ("version", Json::str(QUERY_IR_VERSION)),
            ("output", encode_output(&self.output)),
            ("restrictor", Json::str(restrictor_name(self.restrictor))),
            ("source", encode_node(&self.source)),
            ("regex", encode_regex(&self.regex)),
            ("target", encode_node(&self.target)),
            (
                "where",
                match &self.where_clause {
                    Some(c) => encode_condition(c),
                    None => Json::Null,
                },
            ),
            ("group_by", encode_group_by(self.group_by)),
            ("order_by", encode_order_by(self.order_by)),
        ])
    }

    /// Compact single-line JSON form.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_compact()
    }

    /// Pretty-printed JSON form (what `repro surfaces` and fixtures show).
    pub fn to_json_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// Decodes an IR from a JSON tree, checking the version tag.
    pub fn from_json(json: &Json) -> Result<Self, IrError> {
        let version = require(json, "version")?
            .as_str()
            .ok_or_else(|| IrError::new("version", "expected a string"))?;
        if version != QUERY_IR_VERSION {
            return Err(IrError::new(
                "version",
                format!("unsupported version '{version}' (expected '{QUERY_IR_VERSION}')"),
            ));
        }
        Ok(QueryIr {
            output: decode_output(require(json, "output")?)?,
            restrictor: decode_restrictor(require(json, "restrictor")?)?,
            source: decode_node(require(json, "source")?, "source")?,
            regex: decode_regex(require(json, "regex")?, "regex")?,
            target: decode_node(require(json, "target")?, "target")?,
            where_clause: match optional(json, "where") {
                Some(c) => Some(decode_condition(c, "where")?),
                None => None,
            },
            group_by: decode_group_by(optional(json, "group_by"))?,
            order_by: decode_order_by(optional(json, "order_by"))?,
        })
    }

    /// Parses a JSON document and decodes it.
    pub fn from_json_str(text: &str) -> Result<Self, IrError> {
        let json = parse_json(text).map_err(|e| IrError::new("json", e.to_string()))?;
        Self::from_json(&json)
    }
}

fn require<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, IrError> {
    match obj.get(key) {
        Some(Json::Null) | None => Err(IrError::new(key, "missing required field")),
        Some(value) => Ok(value),
    }
}

fn optional<'a>(obj: &'a Json, key: &str) -> Option<&'a Json> {
    match obj.get(key) {
        Some(Json::Null) | None => None,
        Some(value) => Some(value),
    }
}

fn restrictor_name(r: Restrictor) -> &'static str {
    match r {
        Restrictor::Walk => "walk",
        Restrictor::Trail => "trail",
        Restrictor::Acyclic => "acyclic",
        Restrictor::Simple => "simple",
        Restrictor::Shortest => "shortest",
    }
}

fn decode_restrictor(json: &Json) -> Result<Restrictor, IrError> {
    match json.as_str() {
        Some("walk") => Ok(Restrictor::Walk),
        Some("trail") => Ok(Restrictor::Trail),
        Some("acyclic") => Ok(Restrictor::Acyclic),
        Some("simple") => Ok(Restrictor::Simple),
        Some("shortest") => Ok(Restrictor::Shortest),
        Some(other) => Err(IrError::new(
            "restrictor",
            format!("unknown restrictor '{other}'"),
        )),
        None => Err(IrError::new("restrictor", "expected a string")),
    }
}

fn encode_output(output: &IrOutput) -> Json {
    match output {
        IrOutput::Selector(selector) => {
            let (name, k) = match selector {
                Selector::All => ("all", None),
                Selector::AnyShortest => ("any_shortest", None),
                Selector::AllShortest => ("all_shortest", None),
                Selector::Any => ("any", None),
                Selector::AnyK(k) => ("any_k", Some(*k)),
                Selector::ShortestK(k) => ("shortest_k", Some(*k)),
                Selector::ShortestKGroup(k) => ("shortest_k_group", Some(*k)),
            };
            let mut members = vec![("selector", Json::str(name))];
            if let Some(k) = k {
                members.push(("k", Json::Int(k as i64)));
            }
            Json::object(members)
        }
        IrOutput::Slice(spec) => Json::object([(
            "slice",
            Json::object([
                ("partitions", encode_take(spec.partitions)),
                ("groups", encode_take(spec.groups)),
                ("paths", encode_take(spec.paths)),
            ]),
        )]),
    }
}

fn encode_take(take: Take) -> Json {
    match take {
        Take::All => Json::str("all"),
        Take::Count(k) => Json::Int(k as i64),
    }
}

fn decode_take(json: &Json, path: &str) -> Result<Take, IrError> {
    match json {
        Json::Str(s) if s == "all" => Ok(Take::All),
        Json::Int(k) if *k >= 1 => Ok(Take::Count(*k as usize)),
        _ => Err(IrError::new(path, "expected \"all\" or a positive integer")),
    }
}

fn decode_output(json: &Json) -> Result<IrOutput, IrError> {
    if let Some(slice) = optional(json, "slice") {
        let spec = ProjectionSpec::new(
            decode_take(require(slice, "partitions")?, "output.slice.partitions")?,
            decode_take(require(slice, "groups")?, "output.slice.groups")?,
            decode_take(require(slice, "paths")?, "output.slice.paths")?,
        );
        return Ok(IrOutput::Slice(spec));
    }
    let name = optional(json, "selector")
        .and_then(Json::as_str)
        .ok_or_else(|| IrError::new("output", "expected a \"selector\" or \"slice\" member"))?;
    let k = || -> Result<usize, IrError> {
        optional(json, "k")
            .and_then(Json::as_int)
            .filter(|k| *k >= 1)
            .map(|k| k as usize)
            .ok_or_else(|| {
                IrError::new("output.k", format!("selector '{name}' needs a positive k"))
            })
    };
    let selector = match name {
        "all" => Selector::All,
        "any_shortest" => Selector::AnyShortest,
        "all_shortest" => Selector::AllShortest,
        "any" => Selector::Any,
        "any_k" => Selector::AnyK(k()?),
        "shortest_k" => Selector::ShortestK(k()?),
        "shortest_k_group" => Selector::ShortestKGroup(k()?),
        other => {
            return Err(IrError::new(
                "output.selector",
                format!("unknown selector '{other}'"),
            ))
        }
    };
    Ok(IrOutput::Selector(selector))
}

fn encode_node(node: &IrNode) -> Json {
    Json::object([
        (
            "label",
            match &node.label {
                Some(l) => Json::str(l.clone()),
                None => Json::Null,
            },
        ),
        (
            "properties",
            Json::Object(
                node.properties
                    .iter()
                    .map(|(k, v)| (k.clone(), encode_value(v)))
                    .collect(),
            ),
        ),
    ])
}

fn decode_node(json: &Json, path: &str) -> Result<IrNode, IrError> {
    if !matches!(json, Json::Object(_)) {
        return Err(IrError::new(path, "expected an object"));
    }
    let label = match optional(json, "label") {
        Some(l) => Some(
            l.as_str()
                .ok_or_else(|| IrError::new(format!("{path}.label"), "expected a string"))?
                .to_string(),
        ),
        None => None,
    };
    let mut properties = Vec::new();
    if let Some(props) = optional(json, "properties") {
        let Json::Object(members) = props else {
            return Err(IrError::new(
                format!("{path}.properties"),
                "expected an object",
            ));
        };
        for (name, value) in members {
            properties.push((
                name.clone(),
                decode_value(value, &format!("{path}.properties.{name}"))?,
            ));
        }
    }
    Ok(IrNode { label, properties })
}

fn encode_value(value: &Value) -> Json {
    match value {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::str(s.clone()),
    }
}

fn decode_value(json: &Json, path: &str) -> Result<Value, IrError> {
    match json {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Int(i) => Ok(Value::Int(*i)),
        Json::Float(f) => Ok(Value::Float(*f)),
        Json::Str(s) => Ok(Value::Str(s.clone())),
        other => Err(IrError::new(
            path,
            format!("expected a literal value, found {}", other.type_name()),
        )),
    }
}

fn encode_regex(regex: &LabelRegex) -> Json {
    match regex {
        LabelRegex::Epsilon => Json::object([("op", Json::str("epsilon"))]),
        LabelRegex::Label(l) => {
            Json::object([("op", Json::str("label")), ("label", Json::str(l.clone()))])
        }
        LabelRegex::AnyLabel => Json::object([("op", Json::str("any_label"))]),
        LabelRegex::Concat(a, b) => Json::object([
            ("op", Json::str("concat")),
            ("left", encode_regex(a)),
            ("right", encode_regex(b)),
        ]),
        LabelRegex::Alt(a, b) => Json::object([
            ("op", Json::str("alt")),
            ("left", encode_regex(a)),
            ("right", encode_regex(b)),
        ]),
        LabelRegex::Star(a) => {
            Json::object([("op", Json::str("star")), ("inner", encode_regex(a))])
        }
        LabelRegex::Plus(a) => {
            Json::object([("op", Json::str("plus")), ("inner", encode_regex(a))])
        }
        LabelRegex::Optional(a) => {
            Json::object([("op", Json::str("optional")), ("inner", encode_regex(a))])
        }
        LabelRegex::Repeat { inner, min, max } => Json::object([
            ("op", Json::str("repeat")),
            ("inner", encode_regex(inner)),
            ("min", Json::Int(*min as i64)),
            (
                "max",
                match max {
                    Some(m) => Json::Int(*m as i64),
                    None => Json::Null,
                },
            ),
        ]),
    }
}

fn decode_regex(json: &Json, path: &str) -> Result<LabelRegex, IrError> {
    let op = require_at(json, "op", path)?
        .as_str()
        .ok_or_else(|| IrError::new(format!("{path}.op"), "expected a string"))?;
    let child = |key: &str| -> Result<LabelRegex, IrError> {
        decode_regex(require_at(json, key, path)?, &format!("{path}.{key}"))
    };
    match op {
        "epsilon" => Ok(LabelRegex::Epsilon),
        "any_label" => Ok(LabelRegex::AnyLabel),
        "label" => Ok(LabelRegex::Label(
            require_at(json, "label", path)?
                .as_str()
                .ok_or_else(|| IrError::new(format!("{path}.label"), "expected a string"))?
                .to_string(),
        )),
        "concat" => Ok(child("left")?.then(child("right")?)),
        "alt" => Ok(child("left")?.or(child("right")?)),
        "star" => Ok(child("inner")?.star()),
        "plus" => Ok(child("inner")?.plus()),
        "optional" => Ok(child("inner")?.optional()),
        "repeat" => {
            let min = require_at(json, "min", path)?
                .as_int()
                .filter(|m| *m >= 0)
                .ok_or_else(|| {
                    IrError::new(format!("{path}.min"), "expected a non-negative integer")
                })? as usize;
            let max = match optional(json, "max") {
                None => None,
                Some(m) => Some(m.as_int().filter(|m| *m >= 0).ok_or_else(|| {
                    IrError::new(format!("{path}.max"), "expected a non-negative integer")
                })? as usize),
            };
            Ok(child("inner")?.repeat(min, max))
        }
        other => Err(IrError::new(
            format!("{path}.op"),
            format!("unknown regex operator '{other}'"),
        )),
    }
}

fn require_at<'a>(obj: &'a Json, key: &str, path: &str) -> Result<&'a Json, IrError> {
    match obj.get(key) {
        Some(Json::Null) | None => Err(IrError::new(
            format!("{path}.{key}"),
            "missing required field",
        )),
        Some(value) => Ok(value),
    }
}

fn encode_position(pos: Position) -> Json {
    match pos {
        Position::First => Json::str("first"),
        Position::Last => Json::str("last"),
        Position::Index(i) => Json::Int(i as i64),
    }
}

fn decode_position(json: &Json, path: &str) -> Result<Position, IrError> {
    match json {
        Json::Str(s) if s == "first" => Ok(Position::First),
        Json::Str(s) if s == "last" => Ok(Position::Last),
        Json::Int(i) if *i >= 1 => Ok(Position::Index(*i as usize)),
        _ => Err(IrError::new(
            path,
            "expected \"first\", \"last\" or a 1-based index",
        )),
    }
}

fn encode_accessor(accessor: &Accessor) -> Json {
    match accessor {
        Accessor::NodeLabel(pos) => Json::object([
            ("kind", Json::str("node_label")),
            ("at", encode_position(*pos)),
        ]),
        Accessor::EdgeLabel(pos) => Json::object([
            ("kind", Json::str("edge_label")),
            ("at", encode_position(*pos)),
        ]),
        Accessor::NodeProperty(pos, prop) => Json::object([
            ("kind", Json::str("node_property")),
            ("at", encode_position(*pos)),
            ("property", Json::str(prop.clone())),
        ]),
        Accessor::EdgeProperty(pos, prop) => Json::object([
            ("kind", Json::str("edge_property")),
            ("at", encode_position(*pos)),
            ("property", Json::str(prop.clone())),
        ]),
        Accessor::Len => Json::object([("kind", Json::str("len"))]),
    }
}

fn decode_accessor(json: &Json, path: &str) -> Result<Accessor, IrError> {
    let kind = require_at(json, "kind", path)?
        .as_str()
        .ok_or_else(|| IrError::new(format!("{path}.kind"), "expected a string"))?;
    if kind == "len" {
        return Ok(Accessor::Len);
    }
    let at = decode_position(require_at(json, "at", path)?, &format!("{path}.at"))?;
    let property = || -> Result<String, IrError> {
        Ok(require_at(json, "property", path)?
            .as_str()
            .ok_or_else(|| IrError::new(format!("{path}.property"), "expected a string"))?
            .to_string())
    };
    match kind {
        "node_label" => Ok(Accessor::NodeLabel(at)),
        "edge_label" => Ok(Accessor::EdgeLabel(at)),
        "node_property" => Ok(Accessor::NodeProperty(at, property()?)),
        "edge_property" => Ok(Accessor::EdgeProperty(at, property()?)),
        other => Err(IrError::new(
            format!("{path}.kind"),
            format!("unknown accessor kind '{other}'"),
        )),
    }
}

fn compare_op_name(op: CompareOp) -> &'static str {
    match op {
        CompareOp::Eq => "eq",
        CompareOp::Ne => "ne",
        CompareOp::Lt => "lt",
        CompareOp::Le => "le",
        CompareOp::Gt => "gt",
        CompareOp::Ge => "ge",
    }
}

fn decode_compare_op(json: &Json, path: &str) -> Result<CompareOp, IrError> {
    match json.as_str() {
        Some("eq") => Ok(CompareOp::Eq),
        Some("ne") => Ok(CompareOp::Ne),
        Some("lt") => Ok(CompareOp::Lt),
        Some("le") => Ok(CompareOp::Le),
        Some("gt") => Ok(CompareOp::Gt),
        Some("ge") => Ok(CompareOp::Ge),
        _ => Err(IrError::new(path, "expected one of eq, ne, lt, le, gt, ge")),
    }
}

fn encode_condition(condition: &Condition) -> Json {
    match condition {
        Condition::Compare {
            accessor,
            op,
            value,
        } => Json::object([
            ("op", Json::str("compare")),
            ("accessor", encode_accessor(accessor)),
            ("cmp", Json::str(compare_op_name(*op))),
            ("value", encode_value(value)),
        ]),
        Condition::Bound(accessor) => Json::object([
            ("op", Json::str("bound")),
            ("accessor", encode_accessor(accessor)),
        ]),
        Condition::Substr(accessor, needle) => Json::object([
            ("op", Json::str("substr")),
            ("accessor", encode_accessor(accessor)),
            ("needle", Json::str(needle.clone())),
        ]),
        Condition::IsTrail => Json::object([("op", Json::str("is_trail"))]),
        Condition::IsAcyclic => Json::object([("op", Json::str("is_acyclic"))]),
        Condition::IsSimple => Json::object([("op", Json::str("is_simple"))]),
        Condition::And(a, b) => Json::object([
            ("op", Json::str("and")),
            ("left", encode_condition(a)),
            ("right", encode_condition(b)),
        ]),
        Condition::Or(a, b) => Json::object([
            ("op", Json::str("or")),
            ("left", encode_condition(a)),
            ("right", encode_condition(b)),
        ]),
        Condition::Not(c) => {
            Json::object([("op", Json::str("not")), ("inner", encode_condition(c))])
        }
        Condition::True => Json::object([("op", Json::str("true"))]),
    }
}

fn decode_condition(json: &Json, path: &str) -> Result<Condition, IrError> {
    let op = require_at(json, "op", path)?
        .as_str()
        .ok_or_else(|| IrError::new(format!("{path}.op"), "expected a string"))?;
    let child = |key: &str| -> Result<Condition, IrError> {
        decode_condition(require_at(json, key, path)?, &format!("{path}.{key}"))
    };
    let accessor = || -> Result<Accessor, IrError> {
        decode_accessor(
            require_at(json, "accessor", path)?,
            &format!("{path}.accessor"),
        )
    };
    match op {
        "compare" => Ok(Condition::Compare {
            accessor: accessor()?,
            op: decode_compare_op(require_at(json, "cmp", path)?, &format!("{path}.cmp"))?,
            value: decode_value(require_at(json, "value", path)?, &format!("{path}.value"))?,
        }),
        "bound" => Ok(Condition::Bound(accessor()?)),
        "substr" => Ok(Condition::Substr(
            accessor()?,
            require_at(json, "needle", path)?
                .as_str()
                .ok_or_else(|| IrError::new(format!("{path}.needle"), "expected a string"))?
                .to_string(),
        )),
        "is_trail" => Ok(Condition::IsTrail),
        "is_acyclic" => Ok(Condition::IsAcyclic),
        "is_simple" => Ok(Condition::IsSimple),
        "and" => Ok(child("left")?.and(child("right")?)),
        "or" => Ok(child("left")?.or(child("right")?)),
        "not" => Ok(child("inner")?.not()),
        "true" => Ok(Condition::True),
        other => Err(IrError::new(
            format!("{path}.op"),
            format!("unknown condition operator '{other}'"),
        )),
    }
}

fn encode_group_by(key: Option<GroupKey>) -> Json {
    let Some(key) = key else { return Json::Null };
    encode_flags([
        (key.partitions_by_source(), "source"),
        (key.partitions_by_target(), "target"),
        (key.groups_by_length(), "length"),
    ])
}

/// The names of the set flags, in order, as a JSON array of strings.
fn encode_flags(flags: [(bool, &str); 3]) -> Json {
    Json::Array(
        flags
            .into_iter()
            .filter(|&(set, _)| set)
            .map(|(_, name)| Json::str(name))
            .collect(),
    )
}

fn decode_group_by(json: Option<&Json>) -> Result<Option<GroupKey>, IrError> {
    let Some(json) = json else { return Ok(None) };
    let items = json
        .as_array()
        .ok_or_else(|| IrError::new("group_by", "expected an array of keys"))?;
    let (mut s, mut t, mut l) = (false, false, false);
    for item in items {
        match item.as_str() {
            Some("source") => s = true,
            Some("target") => t = true,
            Some("length") => l = true,
            _ => {
                return Err(IrError::new(
                    "group_by",
                    "expected \"source\", \"target\" or \"length\"",
                ))
            }
        }
    }
    Ok(Some(GroupKey::from_flags(s, t, l)))
}

fn encode_order_by(key: Option<OrderKey>) -> Json {
    let Some(key) = key else { return Json::Null };
    encode_flags([
        (key.orders_partitions(), "partition"),
        (key.orders_groups(), "group"),
        (key.orders_paths(), "path"),
    ])
}

fn decode_order_by(json: Option<&Json>) -> Result<Option<OrderKey>, IrError> {
    let Some(json) = json else { return Ok(None) };
    let items = json
        .as_array()
        .ok_or_else(|| IrError::new("order_by", "expected an array of keys"))?;
    let (mut p, mut g, mut a) = (false, false, false);
    for item in items {
        match item.as_str() {
            Some("partition") => p = true,
            Some("group") => g = true,
            Some("path") => a = true,
            _ => {
                return Err(IrError::new(
                    "order_by",
                    "expected \"partition\", \"group\" or \"path\"",
                ))
            }
        }
    }
    OrderKey::from_flags(p, g, a)
        .map(Some)
        .ok_or_else(|| IrError::new("order_by", "needs at least one key"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;

    fn moe_ir() -> QueryIr {
        QueryIr {
            output: IrOutput::Selector(Selector::AnyShortest),
            restrictor: Restrictor::Trail,
            source: IrNode::any().with_property("name", Value::str("Moe")),
            regex: LabelRegex::label("Likes")
                .then(LabelRegex::label("Has_creator"))
                .plus(),
            target: IrNode::any(),
            where_clause: None,
            group_by: None,
            order_by: None,
        }
    }

    #[test]
    fn gql_lowers_through_the_ir_unchanged() {
        // A parsed query's plan survives the IR's JSON codec unchanged.
        for text in [
            "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)",
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
            "MATCH ALL ACYCLIC p = (?x)-[:Likes/:Has_creator]->(?y)",
            "MATCH SHORTEST 2 GROUP SIMPLE p = (?x:Person)-[:Knows+]->(?y) WHERE len() <= 4",
        ] {
            let q = parse_query(text).unwrap();
            let decoded = QueryIr::from_json_str(&q.to_json_string()).unwrap();
            assert_eq!(decoded.to_plan(), q.to_plan(), "{text}");
        }
    }

    #[test]
    fn node_display_shows_constraints_without_a_variable() {
        let node = IrNode::labeled("Person").with_property("name", Value::str("Moe"));
        assert_eq!(node.to_string(), "(:Person {name:\"Moe\"})");
        assert_eq!(IrNode::any().to_string(), "()");
    }

    #[test]
    fn ir_is_alpha_canonical() {
        let a = parse_query("MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)").unwrap();
        let b = parse_query("MATCH ANY SHORTEST TRAIL route = (?from)-[(:Knows)+]->(?to)").unwrap();
        assert_eq!(a, b, "IRs are structurally equal");
    }

    #[test]
    fn json_round_trip_preserves_the_ir() {
        let ir = moe_ir();
        let text = ir.to_json_string();
        let back = QueryIr::from_json_str(&text).unwrap();
        assert_eq!(back, ir);
        // Serialize → parse → serialize is byte-identical (canonical form).
        assert_eq!(back.to_json_string(), text);
        // Pretty form decodes to the same IR too.
        assert_eq!(QueryIr::from_json_str(&ir.to_json_pretty()).unwrap(), ir);
    }

    #[test]
    fn json_round_trip_covers_every_construct() {
        let ir = QueryIr {
            output: IrOutput::Slice(ProjectionSpec::new(
                Take::Count(2),
                Take::All,
                Take::Count(1),
            )),
            restrictor: Restrictor::Simple,
            source: IrNode::labeled("Person")
                .with_property("name", Value::str("Moe"))
                .with_property("age", Value::Int(39))
                .with_property("score", Value::Float(1.5))
                .with_property("active", Value::Bool(true))
                .with_property("nick", Value::Null),
            regex: LabelRegex::label("Knows")
                .or(LabelRegex::label("Likes").then(LabelRegex::AnyLabel))
                .star()
                .then(LabelRegex::label("Has_creator").optional())
                .then(LabelRegex::label("Knows").repeat(1, Some(3)))
                .then(LabelRegex::Epsilon)
                .then(LabelRegex::label("Knows").repeat(2, None)),
            target: IrNode::labeled("Message"),
            where_clause: Some(
                Condition::edge_label(1, "Knows")
                    .and(Condition::Bound(Accessor::EdgeProperty(
                        Position::Index(2),
                        "since".into(),
                    )))
                    .and(Condition::Substr(
                        Accessor::NodeProperty(Position::First, "name".into()),
                        "o".into(),
                    ))
                    .or(Condition::IsTrail
                        .and(Condition::IsAcyclic)
                        .and(Condition::IsSimple)
                        .and(Condition::True)
                        .not())
                    .and(Condition::len_cmp(CompareOp::Le, 5))
                    .and(Condition::Compare {
                        accessor: Accessor::NodeLabel(Position::Last),
                        op: CompareOp::Ne,
                        value: Value::str("Forum"),
                    }),
            ),
            group_by: Some(GroupKey::SourceTargetLength),
            order_by: Some(OrderKey::PartitionGroupPath),
        };
        let text = ir.to_json_string();
        let back = QueryIr::from_json_str(&text).unwrap();
        assert_eq!(back, ir);
        assert_eq!(back.to_json_string(), text);
    }

    #[test]
    fn every_group_and_order_key_round_trips() {
        for key in [
            GroupKey::Empty,
            GroupKey::Source,
            GroupKey::Target,
            GroupKey::Length,
            GroupKey::SourceTarget,
            GroupKey::SourceLength,
            GroupKey::TargetLength,
            GroupKey::SourceTargetLength,
        ] {
            let mut ir = moe_ir();
            ir.output = IrOutput::Slice(ProjectionSpec::all());
            ir.group_by = Some(key);
            let back = QueryIr::from_json_str(&ir.to_json_string()).unwrap();
            assert_eq!(back.group_by, Some(key));
        }
        for key in [
            OrderKey::Partition,
            OrderKey::Group,
            OrderKey::Path,
            OrderKey::PartitionGroup,
            OrderKey::PartitionPath,
            OrderKey::GroupPath,
            OrderKey::PartitionGroupPath,
        ] {
            let mut ir = moe_ir();
            ir.output = IrOutput::Slice(ProjectionSpec::all());
            ir.order_by = Some(key);
            let back = QueryIr::from_json_str(&ir.to_json_string()).unwrap();
            assert_eq!(back.order_by, Some(key));
        }
    }

    #[test]
    fn decode_errors_carry_field_paths() {
        let cases = [
            (r#"{}"#, "version"),
            (r#"{"version":"query_ir_v99"}"#, "unsupported version"),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"bogus"},"restrictor":"trail",
                   "source":{},"regex":{"op":"epsilon"},"target":{}}"#,
                "unknown selector",
            ),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"any_k"},"restrictor":"trail",
                   "source":{},"regex":{"op":"epsilon"},"target":{}}"#,
                "positive k",
            ),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"all"},"restrictor":"hop",
                   "source":{},"regex":{"op":"epsilon"},"target":{}}"#,
                "unknown restrictor",
            ),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"all"},"restrictor":"trail",
                   "source":{},"regex":{"op":"concat","left":{"op":"label","label":"a"}},
                   "target":{}}"#,
                "regex.right",
            ),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"all"},"restrictor":"trail",
                   "source":{},"regex":{"op":"epsilon"},"target":{},
                   "where":{"op":"compare","accessor":{"kind":"len"},"cmp":"weird","value":1}}"#,
                "where.cmp",
            ),
            (
                r#"{"version":"query_ir_v1","output":{"selector":"all"},"restrictor":"trail",
                   "source":{},"regex":{"op":"epsilon"},"target":{},"group_by":["diagonal"]}"#,
                "group_by",
            ),
            ("{not json", "JSON syntax error"),
        ];
        for (text, needle) in cases {
            let err = QueryIr::from_json_str(text).unwrap_err();
            let rendered = err.to_string();
            assert!(rendered.contains(needle), "{text}: got {rendered}");
        }
    }

    #[test]
    fn lower_to_checked_plan_validates_and_type_checks() {
        let plan = lower_to_checked_plan(&moe_ir()).unwrap();
        let text = plan.to_string();
        assert!(text.starts_with("π(*,*,1)(τA(γST(σ["), "got {text}");
        assert!(text.contains("ϕTRAIL("), "got {text}");

        // Zero slice counts are a typed IR validation error.
        let mut bad = moe_ir();
        bad.output = IrOutput::Slice(ProjectionSpec::new(Take::Count(0), Take::All, Take::All));
        let err = lower_to_checked_plan(&bad).unwrap_err();
        assert!(matches!(
            err,
            AlgebraError::IrValidation {
                field: "output",
                ..
            }
        ));

        // k = 0 selectors are rejected before plan generation.
        let mut bad = moe_ir();
        bad.output = IrOutput::Selector(Selector::AnyK(0));
        assert!(lower_to_checked_plan(&bad).is_err());

        // A selector output cannot carry explicit group_by/order_by.
        let mut bad = moe_ir();
        bad.group_by = Some(GroupKey::Target);
        let err = lower_to_checked_plan(&bad).unwrap_err();
        assert!(err.to_string().contains("slice output"), "{err}");

        // Endpoint properties fold into one AND chain: its height is bounded.
        let mut bad = moe_ir();
        bad.target.properties = vec![("k".into(), Value::Int(1)); MAX_NESTING_DEPTH];
        let err = lower_to_checked_plan(&bad).unwrap_err();
        assert!(err.to_string().contains("nest deeper"), "{err}");
    }

    #[test]
    fn selector_ks_survive_the_codec() {
        for selector in [
            Selector::AnyK(3),
            Selector::ShortestK(2),
            Selector::ShortestKGroup(4),
        ] {
            let mut ir = moe_ir();
            ir.output = IrOutput::Selector(selector);
            let back = QueryIr::from_json_str(&ir.to_json_string()).unwrap();
            assert_eq!(back.output, IrOutput::Selector(selector));
        }
    }
}
