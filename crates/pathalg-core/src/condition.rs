//! Selection conditions (Section 3.1).
//!
//! A *simple* selection condition compares a value extracted from a path — a
//! node/edge label, a node/edge property, or the path length — against a
//! constant. The paper's footnote 1 extends simple conditions with the
//! inequality comparators and built-in functions such as `substr` and
//! `bound`; we support all of those. Complex conditions combine simpler ones
//! with `∧`, `∨` and `¬`.
//!
//! The evaluation function `ev(c, p)` follows the paper: a simple condition is
//! true only when the referenced object exists and the comparison holds —
//! referencing a position outside the path (e.g. `edge(3)` on a path of length
//! one) or a property that is not set yields false, not an error.

use crate::path::Path;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::ObjectId;
use pathalg_graph::value::Value;
use std::cmp::Ordering;
use std::fmt;

/// Which node or edge of the path an accessor refers to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Position {
    /// `first`: the first node of the path (`Node(p, 1)`).
    First,
    /// `last`: the last node of the path (`Node(p, Len(p)+1)`).
    Last,
    /// `node(i)` / `edge(i)` with the paper's 1-based index.
    Index(usize),
}

/// A value extracted from a path, the left-hand side of a simple condition.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Accessor {
    /// `label(node(i))`, `label(first)`, `label(last)`.
    NodeLabel(Position),
    /// `label(edge(i))`.
    EdgeLabel(Position),
    /// `node(i).prop`, `first.prop`, `last.prop`.
    NodeProperty(Position, String),
    /// `edge(i).prop`.
    EdgeProperty(Position, String),
    /// `len()`.
    Len,
}

/// Comparison operators (footnote 1 of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `≠`
    Ne,
    /// `<`
    Lt,
    /// `≤`
    Le,
    /// `>`
    Gt,
    /// `≥`
    Ge,
}

/// A selection condition over a single path.
#[derive(Clone, Debug, PartialEq)]
pub enum Condition {
    /// A simple condition `accessor op value`.
    Compare {
        /// The value extracted from the path.
        accessor: Accessor,
        /// The comparison operator.
        op: CompareOp,
        /// The constant to compare against.
        value: Value,
    },
    /// `bound(accessor)` — true if the accessor yields a value (the property
    /// is set / the position exists).
    Bound(Accessor),
    /// `substr(accessor, needle)` — true if the accessed string value contains
    /// `needle`.
    Substr(Accessor, String),
    /// `is_trail()` — true if the path repeats no edge. Together with
    /// [`Condition::IsAcyclic`] and [`Condition::IsSimple`] these expose the
    /// restrictor predicates as built-in selection functions (footnote 1 of
    /// the paper allows extending the condition language with built-ins);
    /// the plan generator uses them to enforce a restrictor on path patterns
    /// whose compilation contains no recursive operator.
    IsTrail,
    /// `is_acyclic()` — true if the path repeats no node.
    IsAcyclic,
    /// `is_simple()` — true if the path repeats no node except first = last.
    IsSimple,
    /// Conjunction `c1 ∧ c2`.
    And(Box<Condition>, Box<Condition>),
    /// Disjunction `c1 ∨ c2`.
    Or(Box<Condition>, Box<Condition>),
    /// Negation `¬ c`.
    Not(Box<Condition>),
    /// The always-true condition (useful as a neutral element when composing
    /// filters programmatically).
    True,
}

impl Condition {
    // ------ convenience constructors mirroring the paper's syntax ------

    /// `label(edge(i)) = label`.
    pub fn edge_label(i: usize, label: impl Into<String>) -> Self {
        Condition::Compare {
            accessor: Accessor::EdgeLabel(Position::Index(i)),
            op: CompareOp::Eq,
            value: Value::Str(label.into()),
        }
    }

    /// `label(first) = label`.
    pub fn first_label(label: impl Into<String>) -> Self {
        Condition::Compare {
            accessor: Accessor::NodeLabel(Position::First),
            op: CompareOp::Eq,
            value: Value::Str(label.into()),
        }
    }

    /// `label(last) = label`.
    pub fn last_label(label: impl Into<String>) -> Self {
        Condition::Compare {
            accessor: Accessor::NodeLabel(Position::Last),
            op: CompareOp::Eq,
            value: Value::Str(label.into()),
        }
    }

    /// `first.prop = value`.
    pub fn first_property(prop: impl Into<String>, value: impl Into<Value>) -> Self {
        Condition::Compare {
            accessor: Accessor::NodeProperty(Position::First, prop.into()),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// `last.prop = value`.
    pub fn last_property(prop: impl Into<String>, value: impl Into<Value>) -> Self {
        Condition::Compare {
            accessor: Accessor::NodeProperty(Position::Last, prop.into()),
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    /// `len() = k`.
    pub fn len_eq(k: usize) -> Self {
        Condition::Compare {
            accessor: Accessor::Len,
            op: CompareOp::Eq,
            value: Value::Int(k as i64),
        }
    }

    /// `len() op k` with an arbitrary comparator.
    pub fn len_cmp(op: CompareOp, k: usize) -> Self {
        Condition::Compare {
            accessor: Accessor::Len,
            op,
            value: Value::Int(k as i64),
        }
    }

    /// `self ∧ other`.
    pub fn and(self, other: Condition) -> Self {
        Condition::And(Box::new(self), Box::new(other))
    }

    /// `self ∨ other`.
    pub fn or(self, other: Condition) -> Self {
        Condition::Or(Box::new(self), Box::new(other))
    }

    /// `¬ self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Self {
        Condition::Not(Box::new(self))
    }

    // ------ evaluation ------

    /// Resolves an accessor against a path, returning the extracted value if
    /// the referenced object exists and carries the requested information.
    /// Labels and properties are borrowed from the graph, so evaluating a
    /// condition allocates nothing.
    fn resolve<'g>(
        accessor: &Accessor,
        path: &Path,
        graph: &'g PropertyGraph,
    ) -> Option<Resolved<'g>> {
        fn node_at(path: &Path, pos: Position) -> Option<ObjectId> {
            let node = match pos {
                Position::First => path.node_at(1),
                Position::Last => path.node_at(path.len() + 1),
                Position::Index(i) => path.node_at(i),
            }?;
            Some(ObjectId::Node(node))
        }
        fn edge_at(path: &Path, pos: Position) -> Option<ObjectId> {
            let edge = match pos {
                Position::First => path.edge_at(1),
                Position::Last => path.edge_at(path.len()),
                Position::Index(i) => path.edge_at(i),
            }?;
            Some(ObjectId::Edge(edge))
        }
        match accessor {
            Accessor::NodeLabel(pos) => graph.label(node_at(path, *pos)?).map(Resolved::Label),
            Accessor::EdgeLabel(pos) => graph.label(edge_at(path, *pos)?).map(Resolved::Label),
            Accessor::NodeProperty(pos, prop) => graph
                .property(node_at(path, *pos)?, prop)
                .map(Resolved::Property),
            Accessor::EdgeProperty(pos, prop) => graph
                .property(edge_at(path, *pos)?, prop)
                .map(Resolved::Property),
            Accessor::Len => Some(Resolved::Len(path.len())),
        }
    }

    /// The evaluation function `ev(c, p)` of the paper.
    pub fn eval(&self, path: &Path, graph: &PropertyGraph) -> bool {
        match self {
            Condition::Compare {
                accessor,
                op,
                value,
            } => match Condition::resolve(accessor, path, graph).and_then(|a| a.compare(value)) {
                None => false,
                Some(ord) => match op {
                    CompareOp::Eq => ord == Ordering::Equal,
                    CompareOp::Ne => ord != Ordering::Equal,
                    CompareOp::Lt => ord == Ordering::Less,
                    CompareOp::Le => ord != Ordering::Greater,
                    CompareOp::Gt => ord == Ordering::Greater,
                    CompareOp::Ge => ord != Ordering::Less,
                },
            },
            Condition::Bound(accessor) => Condition::resolve(accessor, path, graph).is_some(),
            Condition::Substr(accessor, needle) => {
                let text = match Condition::resolve(accessor, path, graph) {
                    Some(Resolved::Label(s)) => Some(s),
                    Some(Resolved::Property(value)) => value.as_str(),
                    Some(Resolved::Len(_)) | None => None,
                };
                text.is_some_and(|s| s.contains(needle.as_str()))
            }
            Condition::IsTrail => path.is_trail(),
            Condition::IsAcyclic => path.is_acyclic(),
            Condition::IsSimple => path.is_simple(),
            Condition::And(a, b) => a.eval(path, graph) && b.eval(path, graph),
            Condition::Or(a, b) => a.eval(path, graph) || b.eval(path, graph),
            Condition::Not(c) => !c.eval(path, graph),
            Condition::True => true,
        }
    }

    /// True if the condition contains one of the whole-path predicates
    /// (`is_trail()`, `is_acyclic()`, `is_simple()`), which inspect the entire
    /// path and therefore can never be pushed below a join.
    pub(crate) fn contains_path_predicate(&self) -> bool {
        match self {
            Condition::IsTrail | Condition::IsAcyclic | Condition::IsSimple => true,
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.contains_path_predicate() || b.contains_path_predicate()
            }
            Condition::Not(c) => c.contains_path_predicate(),
            _ => false,
        }
    }

    /// True if the condition only inspects the first node of the path
    /// (`first.*` / `label(first)` / `label(node(1))` / `node(1).*`).
    ///
    /// Such conditions can be pushed through a join into its left input
    /// (predicate pushdown, Section 7.3).
    pub(crate) fn only_references_first_node(&self) -> bool {
        !self.contains_path_predicate()
            && self.accessors().iter().all(|a| {
                matches!(
                    a,
                    Accessor::NodeLabel(Position::First)
                        | Accessor::NodeProperty(Position::First, _)
                        | Accessor::NodeLabel(Position::Index(1))
                        | Accessor::NodeProperty(Position::Index(1), _)
                )
            })
    }

    /// True if the condition only inspects the last node of the path.
    pub(crate) fn only_references_last_node(&self) -> bool {
        !self.contains_path_predicate()
            && self.accessors().iter().all(|a| {
                matches!(
                    a,
                    Accessor::NodeLabel(Position::Last) | Accessor::NodeProperty(Position::Last, _)
                )
            })
    }

    /// Splits the condition into independent first-node and last-node parts,
    /// `c ≡ c_first ∧ c_last`, or `None` when no such decomposition exists
    /// (a conjunct mixes both endpoints under `∨`/`¬`, or inspects interior
    /// positions, edges, or whole-path predicates).
    ///
    /// Because each part depends only on one endpoint, it can be evaluated
    /// per *node* — `c_first` on `Node(p,1)`, `c_last` on `Node(p,Len(p)+1)`
    /// — which is what lets the engine push a `σ` over a recursive closure
    /// down into the expansion as a source restriction plus a target mask
    /// (see `pathalg_core::slice::SlicePlan`).
    pub fn endpoint_split(&self) -> Option<(Option<Condition>, Option<Condition>)> {
        if matches!(self, Condition::True) {
            return Some((None, None));
        }
        if self.only_references_first_node() {
            return Some((Some(self.clone()), None));
        }
        if self.only_references_last_node() {
            return Some((None, Some(self.clone())));
        }
        if let Condition::And(a, b) = self {
            let (first_a, last_a) = a.endpoint_split()?;
            let (first_b, last_b) = b.endpoint_split()?;
            let merge = |x: Option<Condition>, y: Option<Condition>| match (x, y) {
                (Some(a), Some(b)) => Some(a.and(b)),
                (some, None) | (None, some) => some,
            };
            return Some((merge(first_a, first_b), merge(last_a, last_b)));
        }
        None
    }

    /// All accessors mentioned anywhere in the condition.
    pub fn accessors(&self) -> Vec<&Accessor> {
        let mut out = Vec::new();
        self.collect_accessors(&mut out);
        out
    }

    fn collect_accessors<'a>(&'a self, out: &mut Vec<&'a Accessor>) {
        match self {
            Condition::Compare { accessor, .. } => out.push(accessor),
            Condition::Bound(a) | Condition::Substr(a, _) => out.push(a),
            Condition::And(a, b) | Condition::Or(a, b) => {
                a.collect_accessors(out);
                b.collect_accessors(out);
            }
            Condition::Not(c) => c.collect_accessors(out),
            Condition::True | Condition::IsTrail | Condition::IsAcyclic | Condition::IsSimple => {}
        }
    }
}

/// What an [`Accessor`] extracts from a path, borrowed from the graph.
enum Resolved<'g> {
    /// A node or edge label: a string value.
    Label(&'g str),
    /// A node or edge property value.
    Property(&'g Value),
    /// The path length: an integer value.
    Len(usize),
}

impl Resolved<'_> {
    /// [`Value::compare`] of the extracted value against a constant.
    fn compare(&self, constant: &Value) -> Option<Ordering> {
        match (self, constant) {
            (Resolved::Label(label), Value::Str(c)) => Some((*label).cmp(c.as_str())),
            (Resolved::Label(_), _) => None,
            (Resolved::Property(value), _) => value.compare(constant),
            (Resolved::Len(len), _) => Value::Int(*len as i64).compare(constant),
        }
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Position::First => write!(f, "first"),
            Position::Last => write!(f, "last"),
            Position::Index(i) => write!(f, "{i}"),
        }
    }
}

impl fmt::Display for Accessor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Accessor::NodeLabel(Position::Index(i)) => write!(f, "label(node({i}))"),
            Accessor::NodeLabel(p) => write!(f, "label({p})"),
            Accessor::EdgeLabel(Position::Index(i)) => write!(f, "label(edge({i}))"),
            Accessor::EdgeLabel(p) => write!(f, "label(edge({p}))"),
            Accessor::NodeProperty(Position::Index(i), prop) => write!(f, "node({i}).{prop}"),
            Accessor::NodeProperty(p, prop) => write!(f, "{p}.{prop}"),
            Accessor::EdgeProperty(Position::Index(i), prop) => write!(f, "edge({i}).{prop}"),
            Accessor::EdgeProperty(p, prop) => write!(f, "edge({p}).{prop}"),
            Accessor::Len => write!(f, "len()"),
        }
    }
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CompareOp::Eq => "=",
            CompareOp::Ne => "!=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        };
        write!(f, "{s}")
    }
}

impl fmt::Display for Condition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Condition::Compare {
                accessor,
                op,
                value,
            } => write!(f, "{accessor} {op} {value}"),
            Condition::Bound(a) => write!(f, "bound({a})"),
            Condition::Substr(a, s) => write!(f, "substr({a}, \"{s}\")"),
            Condition::IsTrail => write!(f, "is_trail()"),
            Condition::IsAcyclic => write!(f, "is_acyclic()"),
            Condition::IsSimple => write!(f, "is_simple()"),
            Condition::And(a, b) => write!(f, "({a} AND {b})"),
            Condition::Or(a, b) => write!(f, "({a} OR {b})"),
            Condition::Not(c) => write!(f, "NOT ({c})"),
            Condition::True => write!(f, "true"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::graph::GraphBuilder;

    /// The literal comparison `accessor = value`.
    fn eq(accessor: Accessor, value: impl Into<Value>) -> Condition {
        Condition::Compare {
            accessor,
            op: CompareOp::Eq,
            value: value.into(),
        }
    }

    fn knows_path(f: &Figure1) -> Path {
        // (n1, e1, n2, e4, n4): Moe -Knows-> Lisa -Knows-> Apu
        Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap()
    }

    #[test]
    fn simple_label_conditions() {
        let f = Figure1::new();
        let p = knows_path(&f);
        assert!(Condition::edge_label(1, "Knows").eval(&p, &f.graph));
        assert!(Condition::edge_label(2, "Knows").eval(&p, &f.graph));
        assert!(!Condition::edge_label(1, "Likes").eval(&p, &f.graph));
        assert!(Condition::first_label("Person").eval(&p, &f.graph));
        assert!(Condition::last_label("Person").eval(&p, &f.graph));
        assert!(eq(Accessor::NodeLabel(Position::Index(2)), "Person").eval(&p, &f.graph));
        assert!(!eq(Accessor::NodeLabel(Position::Index(2)), "Message").eval(&p, &f.graph));
    }

    #[test]
    fn property_conditions_match_paper_examples() {
        let f = Figure1::new();
        let p = knows_path(&f);
        // σ first.name = "Moe" ∧ last.name = "Apu" — the root filter of Fig. 2.
        let cond =
            Condition::first_property("name", "Moe").and(Condition::last_property("name", "Apu"));
        assert!(cond.eval(&p, &f.graph));
        let wrong = Condition::first_property("name", "Apu");
        assert!(!wrong.eval(&p, &f.graph));
        assert!(eq(
            Accessor::NodeProperty(Position::Index(2), "name".into()),
            "Lisa"
        )
        .eval(&p, &f.graph));
        assert!(eq(
            Accessor::EdgeProperty(Position::Index(1), "since".into()),
            2010i64
        )
        .eval(&p, &f.graph));
    }

    #[test]
    fn out_of_range_positions_and_missing_properties_are_false() {
        let f = Figure1::new();
        let p = Path::edge(&f.graph, f.e1);
        assert!(!Condition::edge_label(3, "Knows").eval(&p, &f.graph));
        assert!(!eq(Accessor::NodeLabel(Position::Index(5)), "Person").eval(&p, &f.graph));
        assert!(!Condition::first_property("nonexistent", 1i64).eval(&p, &f.graph));
        // But their negation is true (ev returns False, ¬False = True).
        assert!(Condition::edge_label(3, "Knows").not().eval(&p, &f.graph));
    }

    #[test]
    fn len_conditions_with_all_comparators() {
        let f = Figure1::new();
        let p = knows_path(&f); // length 2
        assert!(Condition::len_eq(2).eval(&p, &f.graph));
        assert!(!Condition::len_eq(3).eval(&p, &f.graph));
        assert!(Condition::len_cmp(CompareOp::Lt, 3).eval(&p, &f.graph));
        assert!(Condition::len_cmp(CompareOp::Le, 2).eval(&p, &f.graph));
        assert!(Condition::len_cmp(CompareOp::Gt, 1).eval(&p, &f.graph));
        assert!(Condition::len_cmp(CompareOp::Ge, 2).eval(&p, &f.graph));
        assert!(Condition::len_cmp(CompareOp::Ne, 5).eval(&p, &f.graph));
        assert!(!Condition::len_cmp(CompareOp::Gt, 2).eval(&p, &f.graph));
    }

    #[test]
    fn inequality_on_properties() {
        let f = Figure1::new();
        let p = knows_path(&f);
        // edge(1).since = 2010, so since >= 2005 and since < 2015.
        let c = Condition::Compare {
            accessor: Accessor::EdgeProperty(Position::Index(1), "since".into()),
            op: CompareOp::Ge,
            value: Value::Int(2005),
        };
        assert!(c.eval(&p, &f.graph));
        let c = Condition::Compare {
            accessor: Accessor::EdgeProperty(Position::Index(1), "since".into()),
            op: CompareOp::Lt,
            value: Value::Int(2005),
        };
        assert!(!c.eval(&p, &f.graph));
    }

    #[test]
    fn boolean_connectives() {
        let f = Figure1::new();
        let p = knows_path(&f);
        let t = Condition::first_property("name", "Moe");
        let ff = Condition::first_property("name", "Apu");
        assert!(t.clone().and(t.clone()).eval(&p, &f.graph));
        assert!(!t.clone().and(ff.clone()).eval(&p, &f.graph));
        assert!(t.clone().or(ff.clone()).eval(&p, &f.graph));
        assert!(!ff.clone().or(ff.clone()).eval(&p, &f.graph));
        assert!(ff.clone().not().eval(&p, &f.graph));
        assert!(Condition::True.eval(&p, &f.graph));
    }

    #[test]
    fn builtins_bound_and_substr() {
        let f = Figure1::new();
        let p = knows_path(&f);
        assert!(
            Condition::Bound(Accessor::NodeProperty(Position::First, "name".into()))
                .eval(&p, &f.graph)
        );
        assert!(
            !Condition::Bound(Accessor::NodeProperty(Position::First, "email".into()))
                .eval(&p, &f.graph)
        );
        assert!(Condition::Bound(Accessor::Len).eval(&p, &f.graph));
        assert!(Condition::Substr(
            Accessor::NodeProperty(Position::First, "name".into()),
            "Mo".into()
        )
        .eval(&p, &f.graph));
        assert!(!Condition::Substr(
            Accessor::NodeProperty(Position::First, "name".into()),
            "Apu".into()
        )
        .eval(&p, &f.graph));
        // substr on a non-string value is false.
        assert!(!Condition::Substr(Accessor::Len, "1".into()).eval(&p, &f.graph));
    }

    #[test]
    fn type_mismatch_comparisons_are_false() {
        let f = Figure1::new();
        let p = knows_path(&f);
        // name is a string; comparing with an integer is not an error, just false.
        let c = Condition::first_property("name", 42i64);
        assert!(!c.eval(&p, &f.graph));
    }

    /// Property equality is decided by `Value::compare`: `Int(2)` equals
    /// `Float(2.0)`, and `Null` equals nothing, not even `Null`.
    #[test]
    fn property_equality_follows_sql_null_semantics() {
        let mut b = GraphBuilder::new();
        let n = b.add_node(
            "Person",
            [
                ("none", Value::Null),
                ("int", Value::Int(2)),
                ("float", Value::Float(2.0)),
            ],
        );
        let g = b.build();
        let p = Path::node(n);
        let holds = |prop: &str, op: CompareOp, value: Value| {
            Condition::Compare {
                accessor: Accessor::NodeProperty(Position::First, prop.into()),
                op,
                value,
            }
            .eval(&p, &g)
        };
        assert!(holds("int", CompareOp::Eq, Value::Float(2.0)));
        assert!(holds("float", CompareOp::Eq, Value::Int(2)));
        assert!(holds("int", CompareOp::Eq, Value::Int(2)));
        assert!(!holds("int", CompareOp::Eq, Value::Int(3)));
        assert!(!holds("int", CompareOp::Eq, Value::str("2")));
        assert!(!holds("none", CompareOp::Eq, Value::Null));
        assert!(!holds("none", CompareOp::Ne, Value::Null));
        assert!(!holds("int", CompareOp::Eq, Value::Null));
    }

    #[test]
    fn pushdown_analysis_helpers() {
        let first_only =
            Condition::first_property("name", "Moe").and(Condition::first_label("Person"));
        assert!(first_only.only_references_first_node());
        assert!(!first_only.only_references_last_node());

        let last_only = Condition::last_property("name", "Apu");
        assert!(last_only.only_references_last_node());
        assert!(!last_only.only_references_first_node());

        let mixed =
            Condition::first_property("name", "Moe").and(Condition::last_property("name", "Apu"));
        assert!(!mixed.only_references_first_node());
        assert!(!mixed.only_references_last_node());

        let edge_cond = Condition::edge_label(1, "Knows");
        assert!(!edge_cond.only_references_first_node());
        assert_eq!(mixed.accessors().len(), 2);
    }

    #[test]
    fn path_predicates_match_the_restrictor_definitions() {
        let f = Figure1::new();
        // (n2, e2, n3, e3, n2): a trail and simple, but not acyclic.
        let cycle = Path::edge(&f.graph, f.e2)
            .concat(&Path::edge(&f.graph, f.e3))
            .unwrap();
        assert!(Condition::IsTrail.eval(&cycle, &f.graph));
        assert!(Condition::IsSimple.eval(&cycle, &f.graph));
        assert!(!Condition::IsAcyclic.eval(&cycle, &f.graph));
        let straight = knows_path(&f);
        assert!(Condition::IsAcyclic.eval(&straight, &f.graph));
        // Path predicates block endpoint-only pushdown analysis.
        let mixed = Condition::IsAcyclic.and(Condition::first_property("name", "Moe"));
        assert!(mixed.contains_path_predicate());
        assert!(!mixed.only_references_first_node());
        assert!(!Condition::IsAcyclic.only_references_last_node());
        assert!(!Condition::first_property("name", "Moe").contains_path_predicate());
        assert_eq!(Condition::IsTrail.to_string(), "is_trail()");
        assert_eq!(Condition::IsAcyclic.to_string(), "is_acyclic()");
        assert_eq!(Condition::IsSimple.to_string(), "is_simple()");
        assert!(Condition::IsTrail.accessors().is_empty());
    }

    #[test]
    fn zero_length_path_first_equals_last() {
        let f = Figure1::new();
        let p = Path::node(f.n1);
        assert!(Condition::first_property("name", "Moe").eval(&p, &f.graph));
        assert!(Condition::last_property("name", "Moe").eval(&p, &f.graph));
        assert!(Condition::len_eq(0).eval(&p, &f.graph));
        assert!(!Condition::edge_label(1, "Knows").eval(&p, &f.graph));
    }

    #[test]
    fn display_round_trips_readably() {
        let c =
            Condition::edge_label(1, "Knows").and(Condition::first_property("name", "Moe").not());
        let text = c.to_string();
        assert!(text.contains("label(edge(1)) = \"Knows\""));
        assert!(text.contains("NOT"));
        assert!(text.contains("first.name"));
        assert_eq!(Condition::len_eq(3).to_string(), "len() = 3");
        assert_eq!(
            Condition::Bound(Accessor::EdgeProperty(Position::Index(2), "w".into())).to_string(),
            "bound(edge(2).w)"
        );
    }
}
