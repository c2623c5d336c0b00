//! The plan evaluator: interprets a [`PlanExpr`] over a property graph.
//!
//! This is the reference, tuple-at-a-time-free implementation of the algebra:
//! each operator is evaluated bottom-up by calling the corresponding function
//! from [`crate::ops`], materialising its full result. The paper's Section 7.2
//! points out that a sound reference implementation of GQL / SQL-PGQ only
//! needs an algorithm per operator — this module is exactly that.
//!
//! The walk has one extension point, [`Physical`]: [`Evaluator::eval_with`]
//! offers every node, in pre-order, to a physical implementation before the
//! node's reference operator runs, and a node the implementation takes is not
//! walked further. The `pathalg-engine` crate plugs its kernel drains in
//! there, so the engine and this evaluator share one walk, one set of
//! [`EvalStats`] and one set of type errors. The unit type `()` takes no
//! node, so [`Evaluator::eval`] is `eval_with(expr, &mut ())` and stays the
//! oracle the engine's answers are cross-checked against.

use crate::error::AlgebraError;
use crate::expr::PlanExpr;
use crate::ops::group_by::group_by;
use crate::ops::join::join;
use crate::ops::order_by::order_by;
use crate::ops::projection::projection;
use crate::ops::recursive::{recursive, RecursionConfig};
use crate::ops::selection::selection;
use crate::ops::union::union;
use crate::pathset::PathSet;
use crate::solution_space::SolutionSpace;
use pathalg_graph::graph::PropertyGraph;
use std::fmt;

/// The result of evaluating an algebra expression: a set of paths, or a
/// solution space when the root operator is γ or τ.
#[derive(Clone, Debug)]
pub enum EvalOutput {
    /// A set of paths.
    Paths(PathSet),
    /// A solution space.
    Space(SolutionSpace),
}

impl EvalOutput {
    /// Unwraps a set of paths, failing with a type error otherwise.
    pub fn into_paths(self) -> Result<PathSet, AlgebraError> {
        self.paths_operand("evaluation result")
    }

    /// Unwraps the set of paths `operator` takes as its operand, failing
    /// with a type error that names `operator` otherwise.
    pub fn paths_operand(self, operator: &'static str) -> Result<PathSet, AlgebraError> {
        match self {
            EvalOutput::Paths(p) => Ok(p),
            EvalOutput::Space(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a set of paths",
                found: "a solution space",
            }),
        }
    }

    /// Unwraps the solution space `operator` takes as its operand, failing
    /// with a type error that names `operator` otherwise.
    fn space_operand(self, operator: &'static str) -> Result<SolutionSpace, AlgebraError> {
        match self {
            EvalOutput::Space(s) => Ok(s),
            EvalOutput::Paths(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a solution space",
                found: "a set of paths",
            }),
        }
    }

    /// Number of paths contained in the output (for either variant).
    pub fn path_count(&self) -> usize {
        match self {
            EvalOutput::Paths(p) => p.len(),
            EvalOutput::Space(s) => s.path_count(),
        }
    }
}

/// Evaluation-time configuration.
#[derive(Clone, Copy, Debug, Default)]
pub struct EvalConfig {
    /// Bounds applied to every recursive operator in the plan; its
    /// `max_paths` also bounds every join.
    pub recursion: RecursionConfig,
}

impl EvalConfig {
    /// Default configuration with an explicit walk length bound, convenient
    /// for evaluating ϕ-Walk plans over cyclic graphs.
    pub fn with_walk_bound(bound: usize) -> Self {
        Self {
            recursion: RecursionConfig {
                max_length: Some(bound),
                ..RecursionConfig::default()
            },
        }
    }
}

/// Counters collected during evaluation; the raw material for the paper's
/// optimization discussion (Section 7.3): how many intermediate paths each
/// plan materialises.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EvalStats {
    /// Number of operators evaluated.
    pub operators_evaluated: usize,
    /// Sum of the sizes (in paths) of every intermediate result.
    pub intermediate_paths: usize,
    /// Largest single intermediate result.
    pub max_intermediate: usize,
    /// Number of ϕ operators evaluated.
    pub recursive_calls: usize,
    /// Number of ⋈ operators evaluated.
    pub join_calls: usize,
}

impl EvalStats {
    /// Counts one evaluated operator whose output holds `paths` paths.
    pub fn charge(&mut self, paths: usize) {
        self.operators_evaluated += 1;
        self.intermediate_paths += paths;
        self.max_intermediate = self.max_intermediate.max(paths);
    }
}

impl fmt::Display for EvalStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "EvalStats {{ operators: {}, intermediate paths: {}, max intermediate: {}, ϕ: {}, ⋈: {} }}",
            self.operators_evaluated,
            self.intermediate_paths,
            self.max_intermediate,
            self.recursive_calls,
            self.join_calls
        )
    }
}

/// A physical implementation plugged into the reference walk (see the
/// module docs).
pub trait Physical {
    /// Offered `expr` before its reference operator runs. `Ok(Some(out))`
    /// takes the node: the walk charges it once with `out` and does not
    /// visit its operands, so the implementation charges any operator it
    /// evaluated beneath it to `walk`'s statistics ([`EvalStats::charge`],
    /// plus the ϕ and ⋈ counts); an operand it evaluates through
    /// `walk.eval_with(operand, self)` is walked as usual. `Ok(None)`
    /// leaves the node to its reference operator; an error ends the
    /// evaluation.
    fn take(
        &mut self,
        walk: &mut Evaluator<'_>,
        expr: &PlanExpr,
    ) -> Result<Option<EvalOutput>, AlgebraError>;
}

/// The reference evaluator itself: takes no node.
impl Physical for () {
    fn take(
        &mut self,
        _walk: &mut Evaluator<'_>,
        _expr: &PlanExpr,
    ) -> Result<Option<EvalOutput>, AlgebraError> {
        Ok(None)
    }
}

/// Evaluates algebra expressions over one graph.
pub struct Evaluator<'g> {
    graph: &'g PropertyGraph,
    config: EvalConfig,
    stats: EvalStats,
}

impl<'g> Evaluator<'g> {
    /// Creates an evaluator with the default configuration.
    pub fn new(graph: &'g PropertyGraph) -> Self {
        Self::with_config(graph, EvalConfig::default())
    }

    /// Creates an evaluator with an explicit configuration.
    pub fn with_config(graph: &'g PropertyGraph, config: EvalConfig) -> Self {
        Self {
            graph,
            config,
            stats: EvalStats::default(),
        }
    }

    /// The statistics collected so far.
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The statistics a [`Physical`] implementation charges the operators
    /// it evaluated beneath a node it took.
    pub fn stats_mut(&mut self) -> &mut EvalStats {
        &mut self.stats
    }

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Evaluates an expression, returning paths or a solution space according
    /// to the root operator.
    pub fn eval(&mut self, expr: &PlanExpr) -> Result<EvalOutput, AlgebraError> {
        self.eval_with(expr, &mut ())
    }

    /// [`Evaluator::eval`] with `physical` plugged in: every node is offered
    /// to it, in pre-order, before its reference operator runs (see
    /// [`Physical::take`]). Every node evaluated, taken or not, is charged
    /// once with its output.
    pub fn eval_with(
        &mut self,
        expr: &PlanExpr,
        physical: &mut impl Physical,
    ) -> Result<EvalOutput, AlgebraError> {
        let out = match physical.take(self, expr)? {
            Some(out) => out,
            None => self.operator(expr, physical)?,
        };
        self.stats.charge(out.path_count());
        Ok(out)
    }

    /// The reference operator of `expr`'s root over its operands, each
    /// evaluated by [`Evaluator::eval_with`].
    fn operator(
        &mut self,
        expr: &PlanExpr,
        physical: &mut impl Physical,
    ) -> Result<EvalOutput, AlgebraError> {
        Ok(match expr {
            PlanExpr::Nodes => EvalOutput::Paths(PathSet::nodes(self.graph)),
            PlanExpr::Edges => EvalOutput::Paths(PathSet::edges(self.graph)),
            PlanExpr::Selection { condition, input } => {
                let input = self
                    .eval_with(input, physical)?
                    .paths_operand("selection")?;
                EvalOutput::Paths(selection(self.graph, condition, &input))
            }
            PlanExpr::Join { left, right } => {
                self.stats.join_calls += 1;
                let l = self.eval_with(left, physical)?.paths_operand("join")?;
                let r = self.eval_with(right, physical)?.paths_operand("join")?;
                EvalOutput::Paths(join(&l, &r, self.config.recursion.max_paths)?)
            }
            PlanExpr::Union { left, right } => {
                let l = self.eval_with(left, physical)?.paths_operand("union")?;
                let r = self.eval_with(right, physical)?.paths_operand("union")?;
                EvalOutput::Paths(union(&l, &r))
            }
            PlanExpr::Recursive { semantics, input } => {
                self.stats.recursive_calls += 1;
                let input = self
                    .eval_with(input, physical)?
                    .paths_operand("recursive")?;
                EvalOutput::Paths(recursive(*semantics, &input, &self.config.recursion)?)
            }
            PlanExpr::GroupBy { key, input } => {
                let input = self.eval_with(input, physical)?.paths_operand("group-by")?;
                EvalOutput::Space(group_by(*key, &input))
            }
            PlanExpr::OrderBy { key, input } => {
                let input = self.eval_with(input, physical)?.space_operand("order-by")?;
                EvalOutput::Space(order_by(*key, &input))
            }
            PlanExpr::Projection { spec, input } => {
                spec.validate()?;
                let input = self
                    .eval_with(input, physical)?
                    .space_operand("projection")?;
                EvalOutput::Paths(projection(spec, &input))
            }
        })
    }

    /// Evaluates an expression that must produce a set of paths.
    pub fn eval_paths(&mut self, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        self.eval(expr)?.into_paths()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::projection::{ProjectionSpec, Take};
    use crate::ops::recursive::PathSemantics;
    use crate::path::Path;
    use crate::GroupKey;
    use crate::OrderKey;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn evaluate(graph: &PropertyGraph, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        Evaluator::new(graph).eval_paths(expr)
    }

    #[test]
    fn leaves_evaluate_to_the_graph_atoms() {
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        assert_eq!(ev.eval_paths(&PlanExpr::nodes()).unwrap().len(), 7);
        assert_eq!(ev.eval_paths(&PlanExpr::edges()).unwrap().len(), 11);
    }

    #[test]
    fn figure3_core_plan_friends_and_friends_of_friends() {
        // σ first.name="Moe" ( σKnows(E) ∪ (σKnows(E) ⋈ σKnows(E)) )
        let f = Figure1::new();
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let plan = knows
            .clone()
            .union(knows.clone().join(knows))
            .select(Condition::first_property("name", "Moe"));
        let out = evaluate(&f.graph, &plan).unwrap();
        // Moe's 1-hop: (n1,e1,n2); 2-hop: (n1,e1,n2,e2,n3) and (n1,e1,n2,e4,n4).
        assert_eq!(out.len(), 3);
        let one_hop = Path::edge(&f.graph, f.e1);
        let to_bart = one_hop.concat(&Path::edge(&f.graph, f.e2)).unwrap();
        let to_apu = one_hop.concat(&Path::edge(&f.graph, f.e4)).unwrap();
        assert!(out.contains(&one_hop));
        assert!(out.contains(&to_bart));
        assert!(out.contains(&to_apu));
    }

    #[test]
    fn figure2_recursive_plan_under_simple_semantics() {
        // The introduction: exactly path1 and path2 connect Moe to Apu under
        // ϕSimple over Knows+ ∪ (Likes/Has_creator)+.
        let f = Figure1::new();
        let knows = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Simple);
        let outer = PlanExpr::edges()
            .select(Condition::edge_label(1, "Likes"))
            .join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")))
            .recursive(PathSemantics::Simple);
        let plan = knows.union(outer).select(
            Condition::first_property("name", "Moe").and(Condition::last_property("name", "Apu")),
        );
        let out = evaluate(&f.graph, &plan).unwrap();
        let path1 = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap();
        let path2 = Path::edge(&f.graph, f.e8)
            .concat(&Path::edge(&f.graph, f.e11))
            .unwrap()
            .concat(&Path::edge(&f.graph, f.e7))
            .unwrap()
            .concat(&Path::edge(&f.graph, f.e10))
            .unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.contains(&path1));
        assert!(out.contains(&path2));
    }

    #[test]
    fn figure5_extended_pipeline_evaluates_end_to_end() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let out = evaluate(&f.graph, &plan).unwrap();
        assert_eq!(out.len(), 9);
        assert!(out.contains(&Path::edge(&f.graph, f.e1)));
    }

    #[test]
    fn group_by_root_returns_a_solution_space() {
        let f = Figure1::new();
        let plan = PlanExpr::edges().group_by(GroupKey::Source);
        let mut ev = Evaluator::new(&f.graph);
        let EvalOutput::Space(space) = ev.eval(&plan).unwrap() else {
            panic!("γ yields a solution space");
        };
        assert_eq!(space.path_count(), 11);
        assert!(ev.eval_paths(&plan).is_err());
    }

    #[test]
    fn type_errors_are_reported() {
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        // σ over a solution space.
        let bad = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .select(Condition::True);
        assert!(matches!(
            ev.eval(&bad),
            Err(AlgebraError::TypeMismatch { .. })
        ));
        // τ over a path set.
        let bad = PlanExpr::edges().order_by(OrderKey::Path);
        assert!(matches!(
            ev.eval(&bad),
            Err(AlgebraError::TypeMismatch { .. })
        ));
        // π over a path set.
        let bad = PlanExpr::edges().project(ProjectionSpec::all());
        assert!(matches!(
            ev.eval(&bad),
            Err(AlgebraError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn invalid_projection_spec_is_rejected_at_eval_time() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .project(ProjectionSpec::new(Take::Count(0), Take::All, Take::All));
        assert!(matches!(
            evaluate(&f.graph, &plan),
            Err(AlgebraError::InvalidArgument(_))
        ));
    }

    #[test]
    fn walk_bound_comes_from_the_config() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Walk);
        // Unbounded over a cyclic graph: error.
        let mut ev = Evaluator::with_config(
            &f.graph,
            EvalConfig {
                recursion: RecursionConfig::unbounded(),
            },
        );
        assert!(ev.eval_paths(&plan).is_err());
        // Bounded: fine.
        let mut ev = Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(4));
        let walks = ev.eval_paths(&plan).unwrap();
        assert!(walks.iter().all(|p| p.len() <= 4));
        assert!(walks.len() >= 14);
    }

    #[test]
    fn stats_count_operators_and_intermediates() {
        let f = Figure1::new();
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let plan = knows
            .clone()
            .join(knows)
            .select(Condition::first_property("name", "Moe"));
        let mut ev = Evaluator::new(&f.graph);
        let _ = ev.eval_paths(&plan).unwrap();
        let stats = ev.stats();
        assert_eq!(stats.operators_evaluated, 6);
        assert_eq!(stats.join_calls, 1);
        assert_eq!(stats.recursive_calls, 0);
        assert!(stats.intermediate_paths > 0);
        assert!(stats.max_intermediate >= 11);
        ev.reset_stats();
        assert_eq!(ev.stats(), EvalStats::default());
        assert!(stats.to_string().contains("operators: 6"));
    }

    /// The plans of the tests above: every operator, a type error and an
    /// invalid projection among them.
    fn plans() -> Vec<PlanExpr> {
        let knows = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let outer = PlanExpr::edges()
            .select(Condition::edge_label(1, "Likes"))
            .join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")));
        vec![
            PlanExpr::nodes(),
            knows()
                .union(knows().join(knows()))
                .select(Condition::first_property("name", "Moe")),
            knows()
                .recursive(PathSemantics::Simple)
                .union(outer.recursive(PathSemantics::Simple)),
            knows()
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Path)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1))),
            PlanExpr::edges().group_by(GroupKey::Source),
            PlanExpr::edges().order_by(OrderKey::Path),
            PlanExpr::edges()
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::new(Take::Count(0), Take::All, Take::All)),
        ]
    }

    /// Records every node it is offered and takes the ⋈ nodes, answering
    /// each with `taken`.
    struct Recorder {
        seen: Vec<String>,
        taken: PathSet,
    }

    impl Physical for Recorder {
        fn take(
            &mut self,
            _walk: &mut Evaluator<'_>,
            expr: &PlanExpr,
        ) -> Result<Option<EvalOutput>, AlgebraError> {
            self.seen.push(expr.to_string());
            Ok(
                matches!(expr, PlanExpr::Join { .. })
                    .then(|| EvalOutput::Paths(self.taken.clone())),
            )
        }
    }

    /// `expr`'s nodes in pre-order, without descending below a ⋈.
    fn pre_order(expr: &PlanExpr, out: &mut Vec<String>) {
        out.push(expr.to_string());
        if !matches!(expr, PlanExpr::Join { .. }) {
            for child in expr.children() {
                pre_order(child, out);
            }
        }
    }

    #[test]
    fn a_physical_sees_each_node_once_in_pre_order() {
        let f = Figure1::new();
        for plan in plans() {
            let mut recorder = Recorder {
                seen: Vec::new(),
                taken: PathSet::new(),
            };
            let answered = Evaluator::new(&f.graph)
                .eval_with(&plan, &mut recorder)
                .is_ok();
            let mut expected = Vec::new();
            pre_order(&plan, &mut expected);
            if answered {
                assert_eq!(recorder.seen, expected, "{plan}");
            } else {
                // The walk stops at the first error: a prefix is seen.
                assert!(!recorder.seen.is_empty(), "{plan}");
                assert!(expected.starts_with(&recorder.seen), "{plan}");
            }
        }
    }

    #[test]
    fn a_taken_node_is_charged_once_with_its_output() {
        // σ first.name="Moe" (σKnows(E) ⋈ σKnows(E)), the ⋈ answered with
        // Moe's and Lisa's Knows edges.
        let f = Figure1::new();
        let knows = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let plan = knows()
            .join(knows())
            .select(Condition::first_property("name", "Moe"));
        let taken =
            PathSet::from_distinct(vec![Path::edge(&f.graph, f.e1), Path::edge(&f.graph, f.e2)]);
        let mut recorder = Recorder {
            seen: Vec::new(),
            taken: taken.clone(),
        };
        let mut ev = Evaluator::new(&f.graph);
        let out = ev
            .eval_with(&plan, &mut recorder)
            .unwrap()
            .into_paths()
            .unwrap();
        assert_eq!(out.as_slice(), [Path::edge(&f.graph, f.e1)]);
        // The σ and the taken ⋈, whose operands were never offered.
        assert_eq!(recorder.seen.len(), 2);
        assert_eq!(
            ev.stats(),
            EvalStats {
                operators_evaluated: 2,
                intermediate_paths: 2 + 1,
                max_intermediate: 2,
                recursive_calls: 0,
                join_calls: 0,
            }
        );
    }

    #[test]
    fn the_unit_physical_is_the_reference_walk() {
        let f = Figure1::new();
        let config = EvalConfig::with_walk_bound(4);
        for plan in plans() {
            let mut reference = Evaluator::with_config(&f.graph, config);
            let mut walk = Evaluator::with_config(&f.graph, config);
            let expected = reference.eval(&plan).map(|out| out.into_paths());
            let out = walk.eval_with(&plan, &mut ()).map(|out| out.into_paths());
            assert_eq!(format!("{out:?}"), format!("{expected:?}"), "{plan}");
            assert_eq!(walk.stats(), reference.stats(), "{plan}");
        }
    }
}
