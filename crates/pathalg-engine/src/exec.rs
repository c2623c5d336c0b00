//! Execution configuration and the engine-level plan evaluator.
//!
//! `pathalg-core`'s [`pathalg_core::eval::Evaluator`] is the
//! *reference* interpreter: one algorithm per operator, single-threaded,
//! always the semi-naïve fixpoint for ϕ. [`EngineEvaluator`] is the engine's
//! physical counterpart: it walks the same logical plans and calls the same
//! `pathalg-core` operator implementations for σ/⋈/∪/γ/τ/π, and realises
//! every ϕ node one of two ways, decided by the shape of its base alone —
//! no estimate, threshold or configuration value takes part:
//!
//! * a base of the shape `σℓ1(Edges) ⋈ … ⋈ σℓk(Edges)` — the base relation
//!   of every `[:ℓ+]` and `[(:ℓ1/…/:ℓk)+]` pattern — is never materialised:
//!   the engine drains the lazy scan/chain kernel ([`pathalg_pmr::Pmr`]) over
//!   the graph's stored label CSRs ([`PropertyGraph::label_csr`]), one per
//!   hop, shared rather than built per evaluation;
//! * every other base is evaluated first and expanded by the per-source
//!   frontier engine ([`crate::physical::frontier::phi_frontier`]).
//!
//! A sliceable `π(τ?(γ(σ?(ϕ(…)))))` pipeline over a scan/chain base runs the
//! same kernel with the limits pushed into the enumeration
//! (`crate::cost::choose_pipeline_strategy`). The collected [`EvalStats`]
//! charge the skipped operators exactly as the reference evaluator would, so
//! `EXPLAIN ANALYZE` output stays comparable between the two interpreters.
//!
//! Evaluation is serial per query: one thread runs every operator of a plan,
//! and a service runs queries concurrently, one per connection. Results are
//! identical to the reference evaluator as *sets* for every plan
//! (cross-validated in `tests/cross_validation.rs`).

use crate::cost::{choose_pipeline_strategy, estimate_closure, estimate_phi, ClosureEstimate};
use pathalg_core::budget::CancelToken;
use pathalg_core::condition::Condition;
use pathalg_core::error::AlgebraError;
use pathalg_core::eval::{EvalOutput, EvalStats};
use pathalg_core::expr::PlanExpr;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::{group_by, GroupKey};
use pathalg_core::ops::join::join;
use pathalg_core::ops::order_by::order_by;
use pathalg_core::ops::projection::{projection, ProjectionSpec};
use pathalg_core::ops::recursive::PathSemantics;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::ops::selection::selection;
use pathalg_core::ops::union::union;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::solution_space::SolutionSpace;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use pathalg_graph::stats::GraphStats;
use pathalg_pmr::{EndpointFilter, Pmr};
use std::sync::Arc;

use crate::physical::frontier::phi_frontier_with_cancel;

/// One recorded strategy decision: which physical implementation a ϕ node or
/// sliced pipeline was dispatched to, and the closure estimate (when graph
/// statistics were available) that justified it. Surfaced by
/// `QueryResult::explain` and the `repro joins` decision table.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyDecision {
    /// Display form of the operator the decision applies to.
    pub operator: String,
    /// Short name of the chosen implementation: `"pmr-lazy"` (a full kernel
    /// drain) or `"frontier"` for a ϕ node, and `"lazy-sliced-pipeline"`
    /// for a sliced pipeline.
    pub chosen: &'static str,
    /// The estimate behind the choice, if statistics were available.
    pub estimate: Option<ClosureEstimate>,
}

impl std::fmt::Display for StrategyDecision {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} -> {}", self.operator, self.chosen)?;
        if let Some(est) = &self.estimate {
            write!(f, " ({est})")?;
        }
        Ok(())
    }
}

/// [`StrategyDecision::chosen`] of a sliced pipeline.
const LAZY_SLICED_PIPELINE: &str = "lazy-sliced-pipeline";
/// [`StrategyDecision::chosen`] of a ϕ over a label scan or join chain: a
/// full drain of the lazy scan/chain kernel.
const PMR_LAZY: &str = "pmr-lazy";
/// [`StrategyDecision::chosen`] of a ϕ over any other base: the base is
/// materialised and expanded by the per-source frontier engine.
const FRONTIER: &str = "frontier";

/// True when `decisions` record a sliced pipeline: the lazy PMR evaluated a
/// γ/τ/π pipeline, pulling only the paths the projection keeps.
pub(crate) fn ran_lazy_pipeline(decisions: &[StrategyDecision]) -> bool {
    decisions.iter().any(|d| d.chosen == LAZY_SLICED_PIPELINE)
}

/// The execution configuration handed to the
/// [`QueryRunner`](crate::runner::QueryRunner), the query service and the
/// [`EngineEvaluator`]. It holds nothing that changes evaluation: every
/// query runs serial per query (see the module docs), and which
/// implementation of ϕ runs is decided by the shape of its base alone.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecutionConfig {}

impl ExecutionConfig {
    /// The execution configuration. The thread count is accepted and
    /// ignored: evaluation is serial per query, and a service gets its
    /// parallelism from running queries concurrently.
    pub fn with_threads(_threads: usize) -> Self {
        Self {}
    }
}

/// The engine's physical plan interpreter (see the module docs).
pub struct EngineEvaluator<'g> {
    graph: &'g PropertyGraph,
    recursion: RecursionConfig,
    graph_stats: Option<&'g GraphStats>,
    cancel: Option<Arc<CancelToken>>,
    stats: EvalStats,
    work: WorkCounters,
    decisions: Vec<StrategyDecision>,
}

impl<'g> EngineEvaluator<'g> {
    /// Creates an evaluator over `graph` with the given recursion bounds (the
    /// [`ExecutionConfig`] holds nothing that changes evaluation). Attach
    /// statistics with [`EngineEvaluator::with_graph_stats`] to have every
    /// strategy decision carry its closure estimate.
    pub fn new(
        graph: &'g PropertyGraph,
        recursion: RecursionConfig,
        _exec: ExecutionConfig,
    ) -> Self {
        Self {
            graph,
            recursion,
            graph_stats: None,
            cancel: None,
            stats: EvalStats::default(),
            work: WorkCounters::default(),
            decisions: Vec::new(),
        }
    }

    /// Attaches precomputed [`GraphStats`]: every ϕ dispatch then records its
    /// closure estimate (`crate::cost::estimate_phi`) next to the strategy
    /// it ran. The runner always does this; statistics never change results
    /// or which implementation runs.
    pub fn with_graph_stats(mut self, stats: &'g GraphStats) -> Self {
        self.graph_stats = Some(stats);
        self
    }

    /// Attaches a shared [`CancelToken`]: every ϕ dispatch (full drains and
    /// sliced pipelines) threads the token into its enumeration loops, so
    /// firing it — or its deadline passing — aborts the evaluation with a
    /// typed [`AlgebraError::Cancelled`] / [`AlgebraError::DeadlineExceeded`]
    /// within one expansion level or source. A token that never fires leaves
    /// results byte-identical.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// The evaluator-level cancellation point, polled at every ϕ dispatch.
    fn check_cancel(&self) -> Result<(), AlgebraError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// The statistics collected so far (same counters as the reference
    /// evaluator).
    pub fn stats(&self) -> EvalStats {
        self.stats
    }

    /// The deterministic work counters accumulated across every ϕ this
    /// evaluator dispatched: the kernel's own [`Pmr::work_counters`] for
    /// scan/chain bases (full drains and sliced pipelines), the emission
    /// count for materialised bases.
    pub fn work_counters(&self) -> WorkCounters {
        self.work
    }

    /// The strategy decisions recorded so far, in evaluation order — one per
    /// dispatched ϕ node or sliced pipeline.
    pub fn decisions(&self) -> &[StrategyDecision] {
        &self.decisions
    }

    /// True if a sliceable pipeline was actually evaluated through the lazy
    /// PMR during this evaluator's lifetime — read off the recorded
    /// decisions, so an observation of what ran, not a prediction.
    pub fn used_lazy_pipeline(&self) -> bool {
        ran_lazy_pipeline(&self.decisions)
    }

    /// Evaluates an expression, returning paths or a solution space according
    /// to the root operator. Every operator polls the cancellation token
    /// before it runs, so a deadline also stops plans without ϕ.
    pub fn eval(&mut self, expr: &PlanExpr) -> Result<EvalOutput, AlgebraError> {
        self.check_cancel()?;
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
                EvalOutput::Paths(join(&l, &r, self.recursion.max_paths)?)
            }
            PlanExpr::Union { left, right } => {
                let l = self.eval_paths_internal(left, "union")?;
                let r = self.eval_paths_internal(right, "union")?;
                EvalOutput::Paths(union(&l, &r))
            }
            PlanExpr::Recursive { semantics, input } => {
                self.stats.recursive_calls += 1;
                let out = match input.label_scan_chain() {
                    Some(labels) => {
                        self.drain_chain_kernel(&labels, *semantics, Pmr::enumerate_all)?
                    }
                    None => {
                        let estimate = self
                            .graph_stats
                            .map(|stats| estimate_phi(stats, *semantics, input, &self.recursion));
                        let base = self.eval_paths_internal(input, "recursive")?;
                        self.record_decision(
                            format!(
                                "ϕ{} over materialised base ({} paths)",
                                semantics.keyword(),
                                base.len()
                            ),
                            FRONTIER,
                            estimate,
                        );
                        let out = phi_frontier_with_cancel(
                            *semantics,
                            &base,
                            &self.recursion,
                            self.cancel.as_deref(),
                        )?;
                        // The frontier emits exactly its output; count it so
                        // closures that never touch the kernel still report
                        // work.
                        self.work.paths_emitted += out.len() as u64;
                        out
                    }
                };
                EvalOutput::Paths(out)
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
                if let Some(paths) = self.try_sliced_pipeline(expr)? {
                    EvalOutput::Paths(paths)
                } else {
                    let input = self.eval_space_internal(input, "projection")?;
                    EvalOutput::Paths(projection(spec, &input))
                }
            }
        };
        self.charge_output(out.path_count());
        Ok(out)
    }

    /// Charges an operator's output size to the collected [`EvalStats`].
    fn charge_output(&mut self, paths: usize) {
        self.stats.intermediate_paths += paths;
        self.stats.max_intermediate = self.stats.max_intermediate.max(paths);
    }

    /// Evaluates a recognised sliceable pipeline
    /// (`π(τA?(γψ(σ?(ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))))))`, see
    /// [`pathalg_core::slice`]) through the lazy PMR, pulling only the paths
    /// the projection keeps. Endpoint filters are pushed into the expansion:
    /// the first-node part restricts the source schedule, the last-node part
    /// becomes a target mask consulted before any path is reconstructed and
    /// inside the reachability-based source stop. Returns `None` when the
    /// plan is not a lazily evaluable sliceable pipeline.
    ///
    /// The collected [`EvalStats`] charge the bypassed operators with the
    /// work the lazy evaluation actually performed (arena steps generated,
    /// kept paths flowing through γ/τ) — deliberately *not* the counts the
    /// reference evaluator would report, since avoiding that work is the
    /// point of the strategy.
    fn try_sliced_pipeline(&mut self, expr: &PlanExpr) -> Result<Option<PathSet>, AlgebraError> {
        let Some((plan, estimate)) =
            choose_pipeline_strategy(expr, &self.recursion, self.graph_stats)
        else {
            return Ok(None);
        };
        let chain = plan
            .base
            .label_scan_chain()
            .expect("lazy_eligible checked the base is a scan chain");
        let (source_mask, target_mask) = match plan.filter {
            Some(condition) => {
                let (first, last) = condition
                    .endpoint_split()
                    .expect("lazy_eligible checked the filter splits");
                (
                    first.map(|c| self.node_mask(&c)),
                    last.map(|c| self.node_mask(&c)),
                )
            }
            None => (None, None),
        };
        self.record_decision(
            format!(
                "sliced pipeline over ϕ{}{}{}",
                plan.semantics.keyword(),
                if chain.len() > 1 {
                    format!(" join chain {chain:?}")
                } else {
                    format!(" label scan :{}", chain[0])
                },
                if plan.filter.is_some() {
                    " with endpoint-σ pushdown"
                } else {
                    ""
                }
            ),
            LAZY_SLICED_PIPELINE,
            estimate,
        );
        let mut pmr = self.kernel(
            self.chain_hops(&chain),
            plan.semantics,
            EndpointFilter {
                sources: source_mask,
                targets: target_mask,
            },
        );
        let out = pmr.sliced(&plan.spec)?;
        self.work.merge(&pmr.work_counters());
        let generated = pmr.steps_generated();
        // Bypassed operators: Edges and σ per hop, the k−1 joins, ϕ, the
        // endpoint σ (when present), γ and (when present) τ; the π node
        // itself is charged by the caller.
        self.stats.recursive_calls += 1;
        self.stats.join_calls += chain.len() - 1;
        self.stats.operators_evaluated += 2 * chain.len()
            + (chain.len() - 1)
            + 2
            + usize::from(plan.filter.is_some())
            + usize::from(plan.spec.ordered_by_length);
        self.stats.intermediate_paths += generated
            + out.len()
                * (1 + usize::from(plan.spec.ordered_by_length)
                    + usize::from(plan.filter.is_some()));
        self.stats.max_intermediate = self.stats.max_intermediate.max(generated);
        Ok(Some(out))
    }

    /// Materialising `ϕ_semantics(σℓ1(E) ⋈ … ⋈ σℓk(E))` is draining the
    /// scan/chain kernel: neither a join side, the join result, nor the base
    /// `PathSet` is built. Charges the bypassed Edges/σ/⋈ operators as the
    /// reference evaluator would, the joins with the slice of their output
    /// the expansion actually generated.
    ///
    /// `drain` pulls the kernel: [`Pmr::enumerate_all`] to materialise, or a
    /// [`Pmr::for_each_path`] visitor to stream.
    fn drain_chain_kernel<T>(
        &mut self,
        labels: &[&str],
        semantics: PathSemantics,
        drain: impl FnOnce(&mut Pmr) -> Result<T, AlgebraError>,
    ) -> Result<T, AlgebraError> {
        let estimate = self
            .graph_stats
            .map(|stats| estimate_closure(stats, labels, semantics, &self.recursion));
        self.record_decision(
            match labels {
                [label] => format!("ϕ{} over label scan :{label}", semantics.keyword()),
                _ => format!("ϕ{} over join chain {labels:?}", semantics.keyword()),
            },
            PMR_LAZY,
            estimate,
        );
        let hops = self.chain_hops(labels);
        for csr in hops.iter() {
            self.charge_skipped(self.graph.edge_count()); // Edges(G)
            self.charge_skipped(csr.edge_count()); // σ label
        }
        let mut pmr = self.kernel(hops, semantics, EndpointFilter::default());
        let out = drain(&mut pmr)?;
        let work = pmr.work_counters();
        self.work.merge(&work);
        let segments = work.base_segments as usize;
        self.stats.join_calls += labels.len() - 1;
        for _ in 1..labels.len() {
            self.charge_skipped(segments);
        }
        Ok(out)
    }

    /// The graph's label CSR of each hop of a scan chain (a label scan is the
    /// one-hop chain); the clones share the graph's columns.
    fn chain_hops(&self, labels: &[&str]) -> Arc<[CsrGraph]> {
        labels
            .iter()
            .map(|l| self.graph.label_csr(l).clone())
            .collect()
    }

    /// Builds a fresh, unpulled kernel over `hops` with the endpoint-σ
    /// pushdown and this evaluator's cancellation token installed.
    fn kernel(
        &self,
        hops: Arc<[CsrGraph]>,
        semantics: PathSemantics,
        filter: EndpointFilter,
    ) -> Pmr {
        let mut pmr = Pmr::from_shared_join(hops, semantics, self.recursion);
        pmr.restrict_endpoints(filter);
        if let Some(token) = &self.cancel {
            pmr.share_cancel(token.clone());
        }
        pmr
    }

    /// Evaluates a per-node condition (a pure first- or last-node predicate,
    /// see [`Condition::endpoint_split`]) over every node of the graph,
    /// yielding the keep-mask pushed into the PMR expansion.
    fn node_mask(&self, condition: &Condition) -> Vec<bool> {
        (0..self.graph.node_count() as u32)
            .map(|v| condition.eval(&Path::node(NodeId(v)), self.graph))
            .collect()
    }

    fn record_decision(
        &mut self,
        operator: String,
        chosen: &'static str,
        estimate: Option<ClosureEstimate>,
    ) {
        self.decisions.push(StrategyDecision {
            operator,
            chosen,
            estimate,
        });
    }

    /// Evaluates an expression that must produce a set of paths.
    pub fn eval_paths(&mut self, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        self.eval(expr)?.into_paths()
    }

    /// [`EngineEvaluator::eval_paths`] into a visitor: `visit(nodes, edges)`
    /// sees every result path, in result order, as its node and edge
    /// sequences. A ϕ over a scan or chain at the root — bare, or under the
    /// ALL selector's `π(*,*,*)(γ∅(…))`, which keeps its one group whole and
    /// in order — streams its kernel drain straight into the visitor
    /// ([`Pmr::for_each_path`]): no `Path` and no `PathSet` is built. Every
    /// other root is evaluated as usual and its `PathSet` walked. Paths,
    /// order, statistics, work counters and decisions are those of
    /// `eval_paths`. Returns the paths visited.
    pub fn for_each_path(
        &mut self,
        expr: &PlanExpr,
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let (root, wrappers) = match expr {
            PlanExpr::Projection { spec, input } if *spec == ProjectionSpec::all() => {
                match &**input {
                    PlanExpr::GroupBy {
                        key: GroupKey::Empty,
                        input,
                    } => (&**input, 2),
                    _ => (expr, 0),
                }
            }
            _ => (expr, 0),
        };
        if let PlanExpr::Recursive { semantics, input } = root {
            if let Some(labels) = input.label_scan_chain() {
                // `eval`'s bookkeeping for the wrappers and the ϕ arm,
                // around a streamed drain.
                self.stats.operators_evaluated += 1 + wrappers;
                self.check_cancel()?;
                self.stats.recursive_calls += 1;
                let n = self
                    .drain_chain_kernel(&labels, *semantics, |pmr| pmr.for_each_path(&mut visit))?;
                for _ in 0..=wrappers {
                    self.charge_output(n);
                }
                return Ok(n);
            }
        }
        let paths = self.eval_paths(expr)?;
        for path in &paths {
            visit(path.nodes(), path.edges());
        }
        Ok(paths.len())
    }

    /// Evaluates an expression that must produce a solution space.
    pub fn eval_space(&mut self, expr: &PlanExpr) -> Result<SolutionSpace, AlgebraError> {
        self.eval(expr)?.into_space()
    }

    /// Accounts for an operator the CSR fast path evaluated implicitly, with
    /// the same counters the reference evaluator would have charged.
    fn charge_skipped(&mut self, paths: usize) {
        self.stats.operators_evaluated += 1;
        self.stats.intermediate_paths += paths;
        self.stats.max_intermediate = self.stats.max_intermediate.max(paths);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::choose_pipeline_impl;
    use crate::physical::frontier::phi_frontier;
    use pathalg_core::condition::Condition;
    use pathalg_core::eval::Evaluator;
    use pathalg_core::ops::projection::ProjectionSpec;
    use pathalg_core::GroupKey;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    fn plans() -> Vec<PlanExpr> {
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let outer = PlanExpr::edges()
            .select(Condition::edge_label(1, "Likes"))
            .join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")));
        vec![
            knows.clone().recursive(PathSemantics::Trail),
            knows.clone().recursive(PathSemantics::Shortest),
            outer.clone().recursive(PathSemantics::Simple),
            knows
                .clone()
                .recursive(PathSemantics::Acyclic)
                .union(outer.recursive(PathSemantics::Acyclic)),
            knows
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::all()),
        ]
    }

    #[test]
    fn engine_evaluator_matches_the_reference_on_every_plan() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        for plan in plans() {
            let reference = Evaluator::new(&f.graph).eval_paths(&plan).unwrap();
            let mut engine = EngineEvaluator::new(&f.graph, cfg, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            assert_eq!(out, reference, "plan {plan}");
        }
    }

    #[test]
    fn streamed_evaluation_is_eval_paths_in_every_observable() {
        let f = Figure1::new();
        let knows = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let mut cases = plans();
        cases.extend([
            // The ALL selector over a scan and over a chain: streamed.
            knows()
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            knows()
                .join(knows())
                .recursive(PathSemantics::Walk)
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            // Not the identity: evaluated, then walked.
            knows()
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::Source)
                .project(ProjectionSpec::all()),
        ]);
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        for plan in cases {
            let mut engine = EngineEvaluator::new(&f.graph, cfg, ExecutionConfig::default());
            let expected: Vec<String> = engine
                .eval_paths(&plan)
                .unwrap()
                .iter()
                .map(Path::display_ids)
                .collect();
            let mut streaming = EngineEvaluator::new(&f.graph, cfg, ExecutionConfig::default());
            let mut seen = Vec::new();
            let n = streaming
                .for_each_path(&plan, |nodes, edges| {
                    let mut line = Vec::new();
                    pathalg_core::path::write_ids(nodes, edges, &mut line);
                    seen.push(String::from_utf8(line).unwrap());
                })
                .unwrap();
            assert_eq!(seen, expected, "{plan}");
            assert_eq!(n, expected.len(), "{plan}");
            assert_eq!(streaming.stats(), engine.stats(), "{plan}");
            // Every counter, the arena-bytes gauge included: both sides run
            // the same drain over fresh kernel state.
            assert_eq!(streaming.work_counters(), engine.work_counters(), "{plan}");
            assert_eq!(streaming.decisions(), engine.decisions(), "{plan}");
        }
    }

    #[test]
    fn csr_fast_path_charges_the_same_stats_as_the_reference() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail);
        let mut reference = Evaluator::new(&f.graph);
        reference.eval_paths(&plan).unwrap();
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        engine.eval_paths(&plan).unwrap();
        assert_eq!(engine.stats(), reference.stats());
    }

    #[test]
    fn dispatch_is_decided_by_the_shape_of_the_base_alone() {
        let f = Figure1::new();
        let knows = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let likes = || PlanExpr::edges().select(Condition::edge_label(1, "Likes"));
        let chain = likes().join(PlanExpr::edges().select(Condition::edge_label(1, "Has_creator")));
        let cases = [
            (knows().recursive(PathSemantics::Trail), "pmr-lazy"),
            (chain.recursive(PathSemantics::Trail), "pmr-lazy"),
            // A union is neither a scan nor a chain: materialise, then the
            // frontier — tiny base or not.
            (
                knows().union(likes()).recursive(PathSemantics::Trail),
                "frontier",
            ),
        ];
        for (plan, expected) in cases {
            let mut engine = EngineEvaluator::new(
                &f.graph,
                RecursionConfig::default(),
                ExecutionConfig::default(),
            );
            engine.eval_paths(&plan).unwrap();
            let chosen: Vec<_> = engine.decisions().iter().map(|d| d.chosen).collect();
            assert_eq!(chosen, [expected], "{plan}");
        }
    }

    #[test]
    fn unbounded_walk_over_a_cyclic_scan_errors_through_the_kernel_drain() {
        let f = Figure1::new();
        let walk = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Walk);
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::unbounded(),
            ExecutionConfig::default(),
        );
        let err = engine.eval_paths(&walk).unwrap_err();
        assert!(
            matches!(err, AlgebraError::RecursionLimitExceeded { .. }),
            "{err}"
        );
    }

    #[test]
    fn label_scan_shape_detection() {
        let scan = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        assert_eq!(scan.label_scan_target(), Some("Knows"));
        // Wrong position, extra operator, or non-label condition: no match.
        let wrong_pos = PlanExpr::edges().select(Condition::edge_label(2, "Knows"));
        assert_eq!(wrong_pos.label_scan_target(), None);
        let not_edges = PlanExpr::nodes().select(Condition::edge_label(1, "Knows"));
        assert_eq!(not_edges.label_scan_target(), None);
        let nested = scan.select(Condition::first_property("name", "Moe"));
        assert_eq!(nested.label_scan_target(), None);
    }

    #[test]
    fn sliced_pipelines_are_byte_identical_to_the_materialised_engine() {
        use pathalg_core::ops::order_by::OrderKey;
        use pathalg_core::ops::projection::Take;
        use pathalg_core::PathSemantics;

        let f = Figure1::new();
        let scan = || PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let cases: Vec<(PlanExpr, Option<OrderKey>, GroupKey, ProjectionSpec)> = vec![
            (
                scan().recursive(PathSemantics::Trail),
                Some(OrderKey::Path),
                GroupKey::SourceTarget,
                ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
            ),
            (
                scan().recursive(PathSemantics::Shortest),
                None,
                GroupKey::SourceTarget,
                ProjectionSpec::new(Take::All, Take::All, Take::Count(2)),
            ),
            (
                scan().recursive(PathSemantics::Simple),
                None,
                GroupKey::Source,
                ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(3)),
            ),
        ];
        for (phi, order, gkey, spec) in cases {
            // The materialised pipeline: frontier over σℓ(Edges) + core γ/τ/π.
            let PlanExpr::Recursive { semantics, .. } = &phi else {
                unreachable!()
            };
            let base = selection(
                &f.graph,
                &Condition::edge_label(1, "Knows"),
                &PathSet::edges(&f.graph),
            );
            let closure = phi_frontier(*semantics, &base, &RecursionConfig::default()).unwrap();
            let grouped = group_by(gkey, &closure);
            let ranked = match order {
                Some(key) => order_by(key, &grouped),
                None => grouped,
            };
            let expected = projection(&spec, &ranked);

            let mut plan = phi.group_by(gkey);
            if let Some(key) = order {
                plan = plan.order_by(key);
            }
            let plan = plan.project(spec);
            assert!(
                choose_pipeline_impl(&plan, &RecursionConfig::default()).is_some(),
                "{plan} should go lazy"
            );
            let mut engine = EngineEvaluator::new(
                &f.graph,
                RecursionConfig::default(),
                ExecutionConfig::default(),
            );
            let out = engine.eval_paths(&plan).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "{plan} diverged");
        }
    }

    #[test]
    fn bigger_graphs_agree_between_interpreters() {
        let g = snb_like_graph(&SnbConfig::scale(40, 21));
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Shortest);
        let reference = Evaluator::new(&g).eval_paths(&plan).unwrap();
        let mut engine =
            EngineEvaluator::new(&g, RecursionConfig::default(), ExecutionConfig::default());
        assert_eq!(engine.eval_paths(&plan).unwrap(), reference);
    }
}
