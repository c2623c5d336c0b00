//! The plan evaluator: interprets a [`PlanExpr`] over a property graph.
//!
//! This is the reference, tuple-at-a-time-free implementation of the algebra:
//! each operator is evaluated bottom-up by calling the corresponding function
//! from [`crate::ops`], materialising its full result. The paper's Section 7.2
//! points out that a sound reference implementation of GQL / SQL-PGQ only
//! needs an algorithm per operator — this module is exactly that. The
//! `pathalg-engine` crate layers smarter physical algorithms on top; their
//! results are cross-checked against this evaluator in the integration tests.

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
        match self {
            EvalOutput::Paths(p) => Ok(p),
            EvalOutput::Space(_) => Err(AlgebraError::TypeMismatch {
                operator: "evaluation result",
                expected: "a set of paths",
                found: "a solution space",
            }),
        }
    }

    /// Unwraps a solution space, failing with a type error otherwise.
    pub fn into_space(self) -> Result<SolutionSpace, AlgebraError> {
        match self {
            EvalOutput::Space(s) => Ok(s),
            EvalOutput::Paths(_) => Err(AlgebraError::TypeMismatch {
                operator: "evaluation result",
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

    /// Resets the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = EvalStats::default();
    }

    /// Evaluates an expression, returning paths or a solution space according
    /// to the root operator.
    pub fn eval(&mut self, expr: &PlanExpr) -> Result<EvalOutput, AlgebraError> {
        self.stats.operators_evaluated += 1;
        let out = match expr {
            PlanExpr::Nodes => EvalOutput::Paths(PathSet::nodes(self.graph)),
            PlanExpr::Edges => EvalOutput::Paths(PathSet::edges(self.graph)),
            PlanExpr::Selection { condition, input } => {
                let input = self.eval_paths_internal(input, "selection")?;
                EvalOutput::Paths(selection(self.graph, condition, &input))
            }
            PlanExpr::Join { left, right } => {
                self.stats.join_calls += 1;
                let l = self.eval_paths_internal(left, "join")?;
                let r = self.eval_paths_internal(right, "join")?;
                EvalOutput::Paths(join(&l, &r, self.config.recursion.max_paths)?)
            }
            PlanExpr::Union { left, right } => {
                let l = self.eval_paths_internal(left, "union")?;
                let r = self.eval_paths_internal(right, "union")?;
                EvalOutput::Paths(union(&l, &r))
            }
            PlanExpr::Recursive { semantics, input } => {
                self.stats.recursive_calls += 1;
                let input = self.eval_paths_internal(input, "recursive")?;
                EvalOutput::Paths(recursive(*semantics, &input, &self.config.recursion)?)
            }
            PlanExpr::GroupBy { key, input } => {
                let input = self.eval_paths_internal(input, "group-by")?;
                EvalOutput::Space(group_by(*key, &input))
            }
            PlanExpr::OrderBy { key, input } => {
                let input = self.eval_space_internal(input, "order-by")?;
                EvalOutput::Space(order_by(*key, &input))
            }
            PlanExpr::Projection { spec, input } => {
                spec.validate()?;
                let input = self.eval_space_internal(input, "projection")?;
                EvalOutput::Paths(projection(spec, &input))
            }
        };
        let n = out.path_count();
        self.stats.intermediate_paths += n;
        self.stats.max_intermediate = self.stats.max_intermediate.max(n);
        Ok(out)
    }

    /// Evaluates an expression that must produce a set of paths.
    pub fn eval_paths(&mut self, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        self.eval(expr)?.into_paths()
    }

    /// Evaluates an expression that must produce a solution space.
    pub fn eval_space(&mut self, expr: &PlanExpr) -> Result<SolutionSpace, AlgebraError> {
        self.eval(expr)?.into_space()
    }

    fn eval_paths_internal(
        &mut self,
        expr: &PlanExpr,
        operator: &'static str,
    ) -> Result<PathSet, AlgebraError> {
        match self.eval(expr)? {
            EvalOutput::Paths(p) => Ok(p),
            EvalOutput::Space(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a set of paths",
                found: "a solution space",
            }),
        }
    }

    fn eval_space_internal(
        &mut self,
        expr: &PlanExpr,
        operator: &'static str,
    ) -> Result<SolutionSpace, AlgebraError> {
        match self.eval(expr)? {
            EvalOutput::Space(s) => Ok(s),
            EvalOutput::Paths(_) => Err(AlgebraError::TypeMismatch {
                operator,
                expected: "a solution space",
                found: "a set of paths",
            }),
        }
    }
}

/// One-shot convenience: evaluates `expr` over `graph` with the default
/// configuration and expects a set of paths.
pub fn evaluate(graph: &PropertyGraph, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
    Evaluator::new(graph).eval_paths(expr)
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
        let space = ev.eval_space(&plan).unwrap();
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
}
