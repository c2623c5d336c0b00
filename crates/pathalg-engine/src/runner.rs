//! The end-to-end query runner: parse → type-check → plan → evaluate.
//!
//! [`QueryRunner`] is the "sound proof-of-concept implementation of the GQL
//! and SQL/PGQ standards" the paper argues becomes easy once the algebra and
//! an algorithm per operator exist. It strings the crates together:
//!
//! 1. `pathalg-parser` turns the query text into a [`QueryIr`] and a logical
//!    plan, through the same front door as the query service
//!    (`parse_surface` + `lower_to_checked_plan`);
//! 2. the plan is type-checked (paths vs. solution spaces);
//! 3. the [`Planner`] rewrites it with `pathalg-core`'s optimizer (predicate
//!    pushdown, ϕWalk→ϕShortest, redundant-τ elimination) and estimates
//!    every ϕ node's closure against the graph's [`GraphStats`];
//! 4. the engine's physical evaluator ([`crate::exec::EngineEvaluator`]),
//!    built by the same planner, executes it, collecting statistics — every
//!    ϕ drains the `pathalg-pmr` kernel, serial per query.
//!
//! The [`Planner`] is the one plan stage of the workspace: the query service
//! (`pathalg-server`) plans and builds its evaluators through it too, so a
//! runner and a service over the same graph run the same optimized plan
//! with the same strategy decisions. It computes the graph's statistics
//! once, when it is built; the graph is immutable, so nothing recomputes
//! them.
//!
//! The result carries the original and optimized plans, the rewrite trace and
//! the evaluation statistics, so callers can print an `EXPLAIN ANALYZE`-style
//! report.

use crate::cost::{collect_plan_closures, estimate, ClosureEstimate, CostEstimate};
use crate::exec::{ran_lazy_pipeline, EngineEvaluator, ExecutionConfig, StrategyDecision};
use pathalg_core::error::AlgebraError;
use pathalg_core::eval::EvalStats;
use pathalg_core::expr::PlanExpr;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::optimizer::{Optimizer, RewriteEvent};
use pathalg_core::pathset::PathSet;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::stats::GraphStats;
use pathalg_parser::{lower_to_checked_plan, parse_surface, QueryIr, QuerySurface};
use std::fmt;
use std::sync::Arc;

/// Configuration of the query runner.
#[derive(Clone, Copy, Debug)]
pub struct RunnerConfig {
    /// Whether to run the logical optimizer before evaluation.
    pub optimize: bool,
    /// Bounds applied to the recursive operators.
    pub recursion: RecursionConfig,
    /// The engine's execution configuration; it holds nothing that changes
    /// evaluation (see [`ExecutionConfig`]).
    pub execution: ExecutionConfig,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            optimize: true,
            recursion: RecursionConfig::default(),
            execution: ExecutionConfig::default(),
        }
    }
}

impl RunnerConfig {
    /// A configuration with a walk-length bound, for ϕ-Walk plans over cyclic
    /// graphs.
    pub fn with_walk_bound(bound: usize) -> Self {
        Self {
            recursion: RecursionConfig {
                max_length: Some(bound),
                ..RecursionConfig::default()
            },
            ..Self::default()
        }
    }

    /// Disables the optimizer (useful for A/B comparisons).
    pub fn without_optimizer(mut self) -> Self {
        self.optimize = false;
        self
    }
}

/// What planning produced for one checked plan: the unit the query
/// service's plan cache stores and every execution consumes.
#[derive(Debug)]
pub struct PlannedQuery {
    /// The optimized plan that executions run.
    pub plan: PlanExpr,
    /// The optimizer rewrites that fired.
    pub rewrites: Vec<RewriteEvent>,
    /// Closure estimates of every kernel drain, outermost first, priced as
    /// its strategy decision records it — the service's admission evidence.
    pub closures: Vec<(String, ClosureEstimate)>,
}

/// The plan stage over one graph: its statistics, the optimizer, and the
/// evaluators that run what it planned. Shared by [`QueryRunner`] and the
/// query service. Statistics are computed once, in [`Planner::new`], and
/// only ever annotate strategy decisions and admission estimates: they
/// never change results or which implementation runs.
pub struct Planner {
    stats: Arc<GraphStats>,
    optimizer: Optimizer,
    optimize: bool,
}

impl Planner {
    /// A planner over `graph`; `optimize` says whether
    /// [`Planner::plan`] runs the logical optimizer.
    pub fn new(graph: &PropertyGraph, optimize: bool) -> Self {
        Self {
            stats: Arc::new(GraphStats::compute(graph)),
            optimizer: Optimizer::new(),
            optimize,
        }
    }

    /// Optimizes a checked plan (when enabled) and estimates its closures on
    /// `graph` under `recursion`, as [`Planner::evaluator`]'s decisions do.
    pub fn plan(
        &self,
        graph: &PropertyGraph,
        checked: &PlanExpr,
        recursion: &RecursionConfig,
    ) -> PlannedQuery {
        let (plan, rewrites) = if self.optimize {
            self.optimizer.optimize_with_trace(checked)
        } else {
            (checked.clone(), Vec::new())
        };
        let mut closures = Vec::new();
        collect_plan_closures(&plan, &self.stats, Some(graph), recursion, &mut closures);
        PlannedQuery {
            plan,
            rewrites,
            closures,
        }
    }

    /// An evaluator over `graph` under `recursion`, with the planner's
    /// statistics attached so every strategy decision carries its estimate.
    pub fn evaluator<'a>(
        &'a self,
        graph: &'a PropertyGraph,
        recursion: RecursionConfig,
    ) -> EngineEvaluator<'a> {
        EngineEvaluator::new(graph, recursion, ExecutionConfig::default())
            .with_graph_stats(&self.stats)
    }
}

/// The result of running a query.
#[derive(Clone, Debug)]
pub struct QueryResult {
    paths: PathSet,
    query: QueryIr,
    plan: PlanExpr,
    optimized_plan: PlanExpr,
    rewrites: Vec<RewriteEvent>,
    stats: EvalStats,
    graph_stats: Arc<GraphStats>,
    decisions: Vec<StrategyDecision>,
}

impl QueryResult {
    /// The result paths.
    pub fn paths(&self) -> &PathSet {
        &self.paths
    }

    /// The parsed query.
    pub fn query(&self) -> &QueryIr {
        &self.query
    }

    /// The logical plan before optimization.
    pub fn plan(&self) -> &PlanExpr {
        &self.plan
    }

    /// The logical plan that was actually executed.
    pub fn optimized_plan(&self) -> &PlanExpr {
        &self.optimized_plan
    }

    /// The optimizer rewrites that fired.
    pub fn rewrites(&self) -> &[RewriteEvent] {
        &self.rewrites
    }

    /// Cost estimates before and after optimization, computed on request
    /// against the graph statistics the query was planned with.
    pub(crate) fn cost_estimates(&self) -> (CostEstimate, CostEstimate) {
        (
            estimate(&self.plan, &self.graph_stats),
            estimate(&self.optimized_plan, &self.graph_stats),
        )
    }

    /// True if the executed plan was a sliceable γ/τ/π pipeline evaluated
    /// through the lazy path-multiset representation (`pathalg-pmr`) — i.e.
    /// the engine pulled only the paths the projection keeps instead of
    /// materialising the recursive closure. Read off the recorded strategy
    /// decisions, so it reflects what actually executed.
    pub fn used_lazy_pipeline(&self) -> bool {
        ran_lazy_pipeline(&self.decisions)
    }

    /// The adaptive strategy decisions the evaluator recorded, in evaluation
    /// order — one per dispatched ϕ node or sliced pipeline, each carrying
    /// the [`crate::cost::ClosureEstimate`] that justified it.
    pub fn strategy_decisions(&self) -> &[StrategyDecision] {
        &self.decisions
    }

    /// An `EXPLAIN ANALYZE`-style textual report.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        out.push_str("== parsed query ==\n");
        out.push_str(&format!("{}\n", self.query));
        out.push_str("== logical plan ==\n");
        out.push_str(&pathalg_core::display::plan_tree(&self.plan));
        if self.plan != self.optimized_plan {
            out.push_str("== optimized plan ==\n");
            out.push_str(&pathalg_core::display::plan_tree(&self.optimized_plan));
            for rewrite in &self.rewrites {
                out.push_str(&format!("  {rewrite}\n"));
            }
        }
        let (before, after) = self.cost_estimates();
        out.push_str(&format!(
            "== cost estimate ==\n  before: {:.1} (card {:.1})\n  after:  {:.1} (card {:.1})\n",
            before.cost, before.cardinality, after.cost, after.cardinality
        ));
        out.push_str(&format!(
            "== execution ==\n  {}\n  {} result paths\n",
            self.stats,
            self.paths.len()
        ));
        if self.used_lazy_pipeline() {
            out.push_str("  strategy: lazy sliced pipeline (PMR top-k enumeration)\n");
        }
        if !self.decisions.is_empty() {
            out.push_str("== strategy ==\n");
            for decision in &self.decisions {
                out.push_str(&format!("  {decision}\n"));
            }
        }
        out
    }
}

impl fmt::Display for QueryResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} paths", self.paths.len())
    }
}

/// Runs path queries against one graph.
pub struct QueryRunner<'g> {
    graph: &'g PropertyGraph,
    config: RunnerConfig,
    planner: Planner,
}

impl<'g> QueryRunner<'g> {
    /// Creates a runner with the default configuration (optimizer on, default
    /// recursion bounds).
    pub fn new(graph: &'g PropertyGraph) -> Self {
        Self::with_config(graph, RunnerConfig::default())
    }

    /// Creates a runner with an explicit configuration.
    pub fn with_config(graph: &'g PropertyGraph, config: RunnerConfig) -> Self {
        Self {
            graph,
            config,
            planner: Planner::new(graph, config.optimize),
        }
    }

    /// Parses a GQL query text, then optimizes and evaluates it.
    pub fn run(&self, query_text: &str) -> Result<QueryResult, AlgebraError> {
        let query = parse_surface(QuerySurface::Gql, query_text)
            .map_err(|e| AlgebraError::InvalidArgument(format!("parse error: {e}")))?;
        let plan = lower_to_checked_plan(&query)?;
        let (planned, paths, evaluator) = self.evaluate(&plan)?;
        Ok(QueryResult {
            paths,
            query,
            plan,
            optimized_plan: planned.plan,
            rewrites: planned.rewrites,
            stats: evaluator.stats(),
            graph_stats: self.planner.stats.clone(),
            decisions: evaluator.decisions().to_vec(),
        })
    }

    /// Optimizes and evaluates a hand-built plan (no query text involved).
    pub fn run_plan(&self, plan: &PlanExpr) -> Result<(PathSet, EvalStats), AlgebraError> {
        let (_, paths, evaluator) = self.evaluate(plan)?;
        Ok((paths, evaluator.stats()))
    }

    /// Plans a checked plan and evaluates the result.
    fn evaluate(
        &self,
        checked: &PlanExpr,
    ) -> Result<(PlannedQuery, PathSet, EngineEvaluator<'_>), AlgebraError> {
        let (graph, recursion) = (self.graph, self.config.recursion);
        let planned = self.planner.plan(graph, checked, &recursion);
        let mut evaluator = self.planner.evaluator(graph, recursion);
        let paths = evaluator.eval_paths(&planned.plan)?;
        Ok((planned, paths, evaluator))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::recursive::PathSemantics;
    use pathalg_core::path::Path;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    #[test]
    fn runs_the_introduction_query_end_to_end() {
        let f = Figure1::new();
        let runner = QueryRunner::new(&f.graph);
        let result = runner
            .run(
                "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
            )
            .unwrap();
        assert_eq!(result.paths().len(), 2);
        let path1 = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap();
        assert!(result.paths().contains(&path1));
        assert!(result.to_string().contains("2 paths"));
    }

    #[test]
    fn optimizer_rewrites_are_reported_and_preserve_results() {
        let f = Figure1::new();
        let query = "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)";
        let optimized = QueryRunner::new(&f.graph).run(query).unwrap();
        // The ALL SHORTEST WALK pipeline is rewritten to ϕShortest, so it runs
        // even without a walk bound.
        assert!(optimized.optimized_plan().to_string().contains("ϕSHORTEST"));
        assert!(!optimized.rewrites().is_empty());

        // Without the optimizer the same query needs an explicit bound.
        let unoptimized_runner = QueryRunner::with_config(
            &f.graph,
            RunnerConfig::with_walk_bound(6).without_optimizer(),
        );
        let unoptimized = unoptimized_runner.run(query).unwrap();
        assert_eq!(optimized.paths(), unoptimized.paths());
        assert!(unoptimized.rewrites().is_empty());
        assert_eq!(unoptimized.plan(), unoptimized.optimized_plan());
    }

    #[test]
    fn unbounded_walk_without_rewrite_is_an_error_not_a_hang() {
        let f = Figure1::new();
        let runner =
            QueryRunner::with_config(&f.graph, RunnerConfig::default().without_optimizer());
        let err = runner.run("MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)");
        assert!(matches!(
            err,
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
    }

    #[test]
    fn parse_errors_are_reported_as_invalid_argument() {
        let f = Figure1::new();
        let err = QueryRunner::new(&f.graph).run("THIS IS NOT GQL");
        assert!(
            matches!(err, Err(AlgebraError::InvalidArgument(msg)) if msg.contains("parse error"))
        );
    }

    #[test]
    fn run_plan_accepts_hand_built_plans() {
        let f = Figure1::new();
        let runner = QueryRunner::new(&f.graph);
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail);
        let (paths, stats) = runner.run_plan(&plan).unwrap();
        assert_eq!(paths.len(), 12);
        assert!(stats.operators_evaluated >= 3);
    }

    #[test]
    fn explain_report_contains_plans_costs_and_stats() {
        let f = Figure1::new();
        let result = QueryRunner::new(&f.graph)
            .run("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)")
            .unwrap();
        let text = result.explain();
        assert!(text.contains("== parsed query =="));
        assert!(text.contains("== logical plan =="));
        assert!(text.contains("== optimized plan =="));
        assert!(text.contains("== cost estimate =="));
        assert!(text.contains("== execution =="));
        assert!(text.contains("result paths"));
        let (before, after) = result.cost_estimates();
        assert!(before.cost > 0.0 && after.cost > 0.0);
    }

    #[test]
    fn thread_count_never_changes_query_results() {
        let f = Figure1::new();
        let queries = [
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
        ];
        let serial = QueryRunner::new(&f.graph);
        // The thread count is accepted and ignored.
        let eight = QueryRunner::with_config(
            &f.graph,
            RunnerConfig {
                execution: ExecutionConfig::with_threads(8),
                ..RunnerConfig::default()
            },
        );
        for query in queries {
            let reference = serial.run(query).unwrap();
            let result = eight.run(query).unwrap();
            assert_eq!(
                result.paths().as_slice(),
                reference.paths().as_slice(),
                "{query}"
            );
        }
    }

    #[test]
    fn slicing_selector_queries_run_through_the_lazy_pipeline() {
        let f = Figure1::new();
        let runner = QueryRunner::new(&f.graph);
        // ANY SHORTEST WALK is rewritten to π(*,*,1)(γST(ϕShortest(scan))) —
        // a sliceable pipeline over a label scan.
        let lazy = runner
            .run("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)")
            .unwrap();
        assert!(lazy.used_lazy_pipeline());
        assert!(lazy.explain().contains("lazy sliced pipeline"));
        assert_eq!(lazy.paths().len(), 9);
        // ALL SHORTEST regroups the stream by target pair: a slice too.
        let all_shortest = runner
            .run("MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)")
            .unwrap();
        assert!(all_shortest.used_lazy_pipeline());
        // ALL keeps everything in stream order: a plain drain.
        let all = runner
            .run("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)")
            .unwrap();
        assert!(!all.used_lazy_pipeline());
        assert!(!all.explain().contains("lazy sliced pipeline"));
        // Endpoint filters sit between γ and ϕ and are pushed into the
        // expansion as a source restriction / target mask — filtered
        // selector queries go lazy too.
        let filtered = runner
            .run("MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[:Knows+]->(?y)")
            .unwrap();
        assert!(filtered.used_lazy_pipeline());
        assert!(filtered.explain().contains("endpoint-σ pushed"));
        // A non-endpoint WHERE clause (interior node) keeps materialising.
        let interior = runner
            .run("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y) WHERE node(2).name = \"Lisa\"")
            .unwrap();
        assert!(!interior.used_lazy_pipeline());
        // Join-chain bases go lazy through the endpoint-keyed arena join.
        let chain = runner
            .run("MATCH ANY 2 SIMPLE p = (?x)-[(:Likes/:Has_creator)+]->(?y)")
            .unwrap();
        assert!(chain.used_lazy_pipeline());
        assert!(chain.explain().contains("join chain"));
        // For unoptimized runs the tag on the generated plan predicts the
        // executed strategy exactly.
        let config = RunnerConfig::default().without_optimizer();
        let no_opt = QueryRunner::with_config(&f.graph, config);
        for q in [
            "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ANY 2 SIMPLE p = (?x)-[:Knows+]->(?y)",
            "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[:Knows+]->(?y)",
            "MATCH ANY 2 SIMPLE p = (?x)-[(:Likes/:Has_creator)+]->(?y)",
        ] {
            let result = no_opt.run(q).unwrap();
            let tagged = result
                .plan()
                .sliceable_pipeline()
                .is_some_and(|sliced| sliced.lazy_eligible(&config.recursion));
            assert_eq!(
                tagged,
                result.used_lazy_pipeline(),
                "{q}: the plan's tag disagrees with the executed strategy"
            );
        }
    }

    #[test]
    fn queries_scale_to_synthetic_snb_graphs() {
        let g = snb_like_graph(&SnbConfig::scale(60, 11));
        let runner = QueryRunner::new(&g);
        let shortest = runner
            .run("MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)")
            .unwrap();
        assert!(!shortest.paths().is_empty());
        // Every returned path is a shortest Knows-walk between its endpoints.
        let two_hop = runner
            .run("MATCH ALL WALK p = (?x:Person)-[:Likes/:Has_creator]->(?y:Person)")
            .unwrap();
        assert!(two_hop.paths().iter().all(|p| p.len() == 2));
    }

    #[test]
    fn group_variables_style_queries_via_where_clause() {
        // Filtering on interior positions exercises the condition accessors
        // end to end.
        let f = Figure1::new();
        let result = QueryRunner::new(&f.graph)
            .run(
                "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y) \
                 WHERE node(2).name = \"Lisa\" AND len() >= 2",
            )
            .unwrap();
        assert!(!result.paths().is_empty());
        for p in result.paths().iter() {
            assert!(p.len() >= 2);
            assert_eq!(
                f.graph.property(p.node_at(2).unwrap(), "name"),
                Some(&pathalg_graph::value::Value::str("Lisa"))
            );
        }
    }
}
