//! End-to-end baseline evaluation using the classical automaton-product
//! algorithm instead of the algebra.
//!
//! Section 8.2 of the paper surveys the algorithmic approaches engines use
//! today; the automaton product is the canonical one. This module evaluates a
//! *parsed query* with that algorithm — compiling only the regular expression
//! to an NFA, running the product search, then applying the endpoint
//! constraints, the `WHERE` filter and the selector pipeline with the ordinary
//! algebra operators. Because it shares no code with the ϕ fixpoint, it serves
//! as an independent correctness oracle for the whole algebraic stack and as
//! the comparator in the fixpoint-vs-automaton ablation bench.

use pathalg_core::error::AlgebraError;
use pathalg_core::expr::PlanExpr;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::pathset::PathSet;
use pathalg_graph::graph::PropertyGraph;
use pathalg_parser::{parse_query, QueryIr};
use pathalg_rpq::automaton_eval::AutomatonEvaluator;

/// Evaluates a query text against a graph using the automaton-product
/// baseline.
pub fn evaluate_query_with_automaton(
    graph: &PropertyGraph,
    query_text: &str,
    recursion: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    let query = parse_query(query_text)
        .map_err(|e| AlgebraError::InvalidArgument(format!("parse error: {e}")))?;
    evaluate_parsed_with_automaton(graph, &query, recursion)
}

/// Evaluates an already-parsed query using the automaton-product baseline.
pub(crate) fn evaluate_parsed_with_automaton(
    graph: &PropertyGraph,
    query: &QueryIr,
    recursion: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    // 1. Match the regular path pattern with the product construction.
    let matches = AutomatonEvaluator::new(graph, &query.regex)
        .eval_all(query.restrictor.semantics(), recursion)?;

    // 2. Apply endpoint constraints and the WHERE clause, then the selector /
    //    projection pipeline, reusing the algebra operators over the
    //    materialised match set. We do this by building the same plan the
    //    plan generator would, but rooted at a pre-computed set of paths —
    //    which is exactly the composability argument of the paper: any set of
    //    paths can feed any operator.
    let full_plan = query.to_plan();
    let pipeline = strip_regex_subplan(&full_plan);
    apply_pipeline(graph, &pipeline, matches)
}

/// The part of a generated plan that sits *above* the compiled regular
/// expression (selection on endpoints, γ/τ/π). Returns the operators from the
/// root down to (and excluding) the first operator that belongs to the
/// compiled regex — recognised as the first Recursive/Join/Union/Edges/Nodes
/// node reached while walking single-child operators from the root.
fn strip_regex_subplan(plan: &PlanExpr) -> Vec<PipelineStep> {
    let mut steps = Vec::new();
    let mut current = plan;
    loop {
        match current {
            PlanExpr::Projection { spec, input } => {
                steps.push(PipelineStep::Project(*spec));
                current = input;
            }
            PlanExpr::OrderBy { key, input } => {
                steps.push(PipelineStep::OrderBy(*key));
                current = input;
            }
            PlanExpr::GroupBy { key, input } => {
                steps.push(PipelineStep::GroupBy(*key));
                current = input;
            }
            PlanExpr::Selection { condition, input } => {
                steps.push(PipelineStep::Select(condition.clone()));
                current = input;
            }
            _ => break,
        }
    }
    steps.reverse();
    steps
}

enum PipelineStep {
    Select(pathalg_core::condition::Condition),
    GroupBy(pathalg_core::ops::group_by::GroupKey),
    OrderBy(pathalg_core::ops::order_by::OrderKey),
    Project(pathalg_core::ops::projection::ProjectionSpec),
}

fn apply_pipeline(
    graph: &PropertyGraph,
    steps: &[PipelineStep],
    matches: PathSet,
) -> Result<PathSet, AlgebraError> {
    use pathalg_core::ops::{group_by, order_by, projection, selection};

    let mut paths = matches;
    let mut space: Option<pathalg_core::solution_space::SolutionSpace> = None;
    for step in steps {
        match step {
            PipelineStep::Select(cond) => {
                paths = selection::selection(graph, cond, &paths);
            }
            PipelineStep::GroupBy(key) => {
                space = Some(group_by::group_by(*key, &paths));
            }
            PipelineStep::OrderBy(key) => {
                let s = space.take().ok_or(AlgebraError::TypeMismatch {
                    operator: "order-by",
                    expected: "a solution space",
                    found: "a set of paths",
                })?;
                space = Some(order_by::order_by(*key, &s));
            }
            PipelineStep::Project(spec) => {
                let s = space.take().ok_or(AlgebraError::TypeMismatch {
                    operator: "projection",
                    expected: "a solution space",
                    found: "a set of paths",
                })?;
                paths = projection::projection(spec, &s);
            }
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{QueryRunner, RunnerConfig};
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    fn agree(graph: &PropertyGraph, query: &str) {
        // A walk bound keeps the WALK-restrictor queries finite on cyclic
        // graphs; it applies identically to both evaluation strategies.
        let recursion = RecursionConfig {
            max_length: Some(6),
            ..RecursionConfig::default()
        };
        let baseline = evaluate_query_with_automaton(graph, query, &recursion).unwrap();
        let runner = QueryRunner::with_config(
            graph,
            RunnerConfig {
                optimize: true,
                recursion,
                ..RunnerConfig::default()
            },
        );
        let algebraic = runner.run(query).unwrap();
        assert_eq!(
            &baseline,
            algebraic.paths(),
            "baseline and algebra disagree on {query}: {} vs {} paths",
            baseline.len(),
            algebraic.paths().len()
        );
    }

    #[test]
    fn baseline_agrees_with_the_algebra_on_figure1_queries() {
        let f = Figure1::new();
        let queries = [
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
            "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL PARTITIONS 1 GROUPS ALL PATHS TRAIL p = (?x)-[(:Knows)+]->(?y) GROUP BY TARGET LENGTH ORDER BY GROUP",
            "MATCH ALL TRAIL p = (?x:Person)-[:Likes/:Has_creator]->(?y:Person) WHERE len() = 2",
        ];
        for q in queries {
            agree(&f.graph, q);
        }
    }

    #[test]
    fn baseline_agrees_on_a_synthetic_snb_graph() {
        let g = snb_like_graph(&SnbConfig::scale(20, 7));
        let queries = [
            "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL ACYCLIC p = (?x)-[:Likes/:Has_creator]->(?y)",
            "MATCH ALL SHORTEST TRAIL p = (?x)-[:Likes/:Has_creator]->(?y)",
        ];
        for q in queries {
            agree(&g, q);
        }
    }

    #[test]
    fn parse_errors_surface_as_invalid_argument() {
        let f = Figure1::new();
        let err =
            evaluate_query_with_automaton(&f.graph, "NOT A QUERY", &RecursionConfig::default());
        assert!(matches!(err, Err(AlgebraError::InvalidArgument(_))));
    }
}
