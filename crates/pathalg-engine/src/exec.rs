//! Execution configuration and the engine-level plan evaluator.
//!
//! `pathalg-core`'s [`Evaluator`] is the *reference* interpreter: one
//! algorithm per operator, single-threaded, always the semi-naïve fixpoint
//! for ϕ. [`EngineEvaluator`] is that same walk with the kernel drains
//! plugged in ([`Physical`]): the walk offers every node to the engine's
//! kernel half before its reference operator runs, the kernel half takes
//! every node that runs as one drain of `pathalg-pmr`'s [`Pmr`], and every
//! other node runs the core operator it names. So the walk, the
//! [`EvalStats`] and the type errors are the reference evaluator's own. The
//! shape of a ϕ's base alone decides what the kernel walks — no estimate,
//! threshold or configuration value takes part:
//!
//! * a base of the shape `σℓ1(Edges) ⋈ … ⋈ σℓk(Edges)` — the base relation
//!   of every `[:ℓ+]` and `[(:ℓ1/…/:ℓk)+]` pattern — is never materialised:
//!   the kernel walks the graph's stored label CSRs
//!   ([`PropertyGraph::label_csr`]), one per hop, shared rather than built
//!   per evaluation;
//! * every other base is evaluated first, by the walk, and the kernel walks
//!   its paths as segments indexed by first node ([`Pmr::from_base`]).
//!
//! An anchored ϕ is one drain. A σ over a ϕ whose condition splits into
//! first- and last-node parts ([`Condition::endpoint_split`]) becomes node
//! masks (unbounded Walk excepted), the ALL selector's `π(*,*,*)(γ∅(…))`
//! keeps the drain beneath it whole and in order, and a sliceable
//! `π(τ?(γ(σ?(ϕ(…)))))` pipeline over a scan/chain base
//! ([`choose_pipeline_impl`]) — every other GQL selector — becomes a slice:
//! its limits pushed into the enumeration. One function decides the masks,
//! the direction — a scan or chain whose marked targets have fewer in-edges
//! on its last hop than its marked sources have out-edges on its first is
//! searched backwards over the graph's reverse label CSRs
//! ([`PropertyGraph::reverse_label_csr`]) and put back in the forward
//! canonical order, a slice only where that keeps its early stop
//! ([`Pmr::slices_backwards`]) — the recorded decision and the
//! [`EvalStats`] of the operators the drain skips. Those are charged
//! exactly as the reference evaluator would charge them, except that the ϕ
//! beneath a pushed σ or a slice is charged the work it performed, so
//! `EXPLAIN ANALYZE` output stays comparable between the two interpreters.
//! Every drain hands its paths to a `(nodes, edges)` visitor straight off
//! the kernel: [`EngineEvaluator::for_each_path`] streams a root drain into
//! the caller's renderer, and a `Path` is built only where a `PathSet` is
//! asked for.
//!
//! Evaluation is serial per query: one thread runs every operator of a plan,
//! and a service runs queries concurrently, one per connection. Results are
//! identical to the reference evaluator as *sets* for every plan
//! (cross-validated in `tests/cross_validation.rs`).

use crate::cost::{choose_pipeline_impl, estimate_drain, smallest_posting, ClosureEstimate};
use pathalg_core::budget::CancelToken;
use pathalg_core::condition::Condition;
use pathalg_core::error::AlgebraError;
use pathalg_core::eval::{EvalConfig, EvalOutput, EvalStats, Evaluator, Physical};
use pathalg_core::expr::PlanExpr;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::projection::ProjectionSpec;
use pathalg_core::ops::recursive::PathSemantics;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::slice::SliceSpec;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use pathalg_graph::stats::GraphStats;
use pathalg_pmr::{EndpointFilter, Pmr};
use std::sync::Arc;

/// One recorded strategy decision: how a ϕ node or sliced pipeline ran —
/// its base, any pushed endpoint σ with the two frontier sums that chose the
/// direction — and the closure estimate (when graph statistics were
/// available) next to it. Surfaced by `QueryResult::explain` and the
/// `repro joins` decision table.
#[derive(Clone, Debug, PartialEq)]
pub struct StrategyDecision {
    /// Display form of the operator the decision applies to.
    pub operator: String,
    /// Short name of the chosen implementation: `"pmr-lazy"` for a full
    /// kernel drain, whatever its base, and `"lazy-sliced-pipeline"` for a
    /// drain with a slice.
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
/// [`StrategyDecision::chosen`] of a ϕ node: a full drain of the kernel.
const PMR_LAZY: &str = "pmr-lazy";

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

/// The engine's physical plan interpreter (see the module docs): the
/// reference walk with the kernel half plugged in.
pub struct EngineEvaluator<'g> {
    walk: Evaluator<'g>,
    kernel: Kernel<'g>,
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
            walk: Evaluator::with_config(graph, EvalConfig { recursion }),
            kernel: Kernel {
                graph,
                recursion,
                graph_stats: None,
                cancel: None,
                work: WorkCounters::default(),
                decisions: Vec::new(),
            },
        }
    }

    /// Attaches precomputed [`GraphStats`]: every ϕ dispatch then records its
    /// closure estimate (`crate::cost::estimate_drain`) next to the strategy
    /// it ran. The runner always does this; statistics never change results
    /// or which implementation runs.
    pub fn with_graph_stats(mut self, stats: &'g GraphStats) -> Self {
        self.kernel.graph_stats = Some(stats);
        self
    }

    /// Attaches a shared [`CancelToken`]: it is polled before every operator
    /// runs, so a deadline also stops plans without ϕ, and every drain
    /// threads it into its enumeration loops, so firing it — or its deadline
    /// passing — aborts the evaluation with a typed
    /// [`AlgebraError::Cancelled`] / [`AlgebraError::DeadlineExceeded`]
    /// within one expansion level or source. A token that never fires leaves
    /// results byte-identical.
    pub fn with_cancel(mut self, cancel: Arc<CancelToken>) -> Self {
        self.kernel.cancel = Some(cancel);
        self
    }

    /// The statistics collected so far (same counters as the reference
    /// evaluator).
    pub fn stats(&self) -> EvalStats {
        self.walk.stats()
    }

    /// The deterministic work counters accumulated across every ϕ this
    /// evaluator dispatched: the kernel's own [`Pmr::work_counters`] of each
    /// full drain and sliced pipeline.
    pub fn work_counters(&self) -> WorkCounters {
        self.kernel.work
    }

    /// The strategy decisions recorded so far, in evaluation order — one per
    /// dispatched ϕ node or sliced pipeline.
    pub fn decisions(&self) -> &[StrategyDecision] {
        &self.kernel.decisions
    }

    /// True if a sliceable pipeline was actually evaluated through the lazy
    /// PMR during this evaluator's lifetime — read off the recorded
    /// decisions, so an observation of what ran, not a prediction.
    pub fn used_lazy_pipeline(&self) -> bool {
        ran_lazy_pipeline(&self.kernel.decisions)
    }

    /// Evaluates an expression, returning paths or a solution space according
    /// to the root operator: [`Evaluator::eval_with`] with the kernel half
    /// plugged in.
    pub fn eval(&mut self, expr: &PlanExpr) -> Result<EvalOutput, AlgebraError> {
        self.walk.eval_with(expr, &mut self.kernel)
    }

    /// Evaluates an expression that must produce a set of paths.
    pub fn eval_paths(&mut self, expr: &PlanExpr) -> Result<PathSet, AlgebraError> {
        self.eval(expr)?.into_paths()
    }

    /// [`EngineEvaluator::eval_paths`] into a visitor: `visit(nodes, edges)`
    /// sees every result path, in result order, as its node and edge
    /// sequences. A root the kernel half takes — a ϕ, a σ the drain takes as
    /// endpoint masks, either under the ALL selector, or a sliced pipeline —
    /// streams straight into the visitor ([`Pmr::for_each_path`],
    /// [`Pmr::for_each_sliced`]): no result `Path` and no result `PathSet`
    /// is built (a materialised base still is, and a drain searched
    /// backwards collects its answer's ids to sort them). Every other root's
    /// `PathSet` is walked once evaluated. Paths, order, statistics, work
    /// counters and decisions are those of `eval_paths`. Returns the paths
    /// visited.
    pub fn for_each_path(
        &mut self,
        expr: &PlanExpr,
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let Some(drain) = kernel_drain(expr, &self.kernel.recursion) else {
            let paths = self.eval_paths(expr)?;
            for path in &paths {
                visit(path.nodes(), path.edges());
            }
            return Ok(paths.len());
        };
        // The walk's poll and charge of the root, around a streamed drain.
        self.kernel.check_cancel()?;
        let n = self
            .kernel
            .drain_kernel(&mut self.walk, drain, &mut visit)?;
        self.walk.stats_mut().charge(n);
        Ok(n)
    }
}

/// The kernel half of an [`EngineEvaluator`]: the [`Physical`]
/// implementation that takes every node running as one kernel drain, and
/// what those drains record.
struct Kernel<'g> {
    graph: &'g PropertyGraph,
    recursion: RecursionConfig,
    graph_stats: Option<&'g GraphStats>,
    cancel: Option<Arc<CancelToken>>,
    work: WorkCounters,
    decisions: Vec<StrategyDecision>,
}

impl Physical for Kernel<'_> {
    /// Polls the cancellation token before every operator, and takes every
    /// node [`kernel_drain`] recognises.
    fn take(
        &mut self,
        walk: &mut Evaluator<'_>,
        expr: &PlanExpr,
    ) -> Result<Option<EvalOutput>, AlgebraError> {
        self.check_cancel()?;
        match kernel_drain(expr, &self.recursion) {
            Some(drain) => Ok(Some(EvalOutput::Paths(self.collect_drain(walk, drain)?))),
            None => Ok(None),
        }
    }
}

impl Kernel<'_> {
    /// The evaluator-level cancellation point, polled before every operator.
    fn check_cancel(&self) -> Result<(), AlgebraError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// [`Kernel::drain_kernel`] collected into a `PathSet`, in order: the
    /// one place the engine builds a `Path` from a drain. The kernel never
    /// emits a path twice, so none is hashed.
    fn collect_drain(
        &mut self,
        walk: &mut Evaluator<'_>,
        drain: KernelDrain,
    ) -> Result<PathSet, AlgebraError> {
        let mut paths = Vec::new();
        self.drain_kernel(walk, drain, |nodes, edges| {
            paths.push(owned_path(nodes, edges))
        })?;
        Ok(PathSet::from_distinct(paths))
    }

    /// Runs `ϕ_semantics(base)` on the kernel — the one place a ϕ runs —
    /// with a pushed endpoint σ's masks and a sliced pipeline's limits. A
    /// base `σℓ1(E) ⋈ … ⋈ σℓk(E)` is never evaluated: the kernel walks the
    /// graph's label CSRs, and the bypassed Edges/σ/⋈ operators are charged
    /// as the reference evaluator would, the joins with the slice of their
    /// output the expansion generated. Any other base is evaluated first and
    /// handed to the kernel as a segment index ([`Pmr::from_base`]).
    ///
    /// A side that marks no node, or no edge of a scan's or chain's hop,
    /// answers at once. A scan or chain whose marked targets have fewer
    /// in-edges on the last hop than its marked sources have out-edges on
    /// the first (an absent mask counts every edge of its hop; ties run
    /// forward) is searched backwards, over the hops' reverse CSRs in
    /// reverse order with the masks swapped, and [`Pmr::for_each_reversed`]
    /// puts the paths in the forward canonical order; Walk, Trail, Acyclic
    /// and Simple are closed under reversal and Shortest keeps the shortest
    /// paths per endpoint pair, so they are the forward drain's. A slice
    /// runs forward as [`Pmr::for_each_sliced`], and backwards only where
    /// that keeps an early stop as strong ([`Pmr::slices_backwards`]: a
    /// slice keyed by `(s, t)` with no partition limit); any other slice
    /// runs forward whatever the edge sums say.
    ///
    /// `visit` sees every path of the answer, a slice's kept paths in the
    /// slice's order; returns how many. The [`EvalStats`] beneath the root
    /// are charged here, to `walk`'s: the ϕ beneath a pushed σ or a slice
    /// with the arena steps generated, a slice's σ, γ and τ with its kept
    /// set, and the ALL selectors' wrappers with the answer. The walk
    /// charges the root.
    fn drain_kernel(
        &mut self,
        walk: &mut Evaluator<'_>,
        drain: KernelDrain,
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let KernelDrain {
            semantics,
            base,
            split,
            slice,
            wrappers,
        } = drain;
        walk.stats_mut().recursive_calls += 1;
        let (split, pushed) = (split.as_ref(), split.is_some());
        let mut filter = split
            .map(|(first, last)| EndpointFilter {
                sources: first.as_ref().map(|c| self.node_mask(c)),
                targets: last.as_ref().map(|c| self.node_mask(c)),
            })
            .unwrap_or_default();
        let labels = base.label_scan_chain();
        let graph = self.graph;
        let first_hop = labels.as_ref().map(|l| graph.label_csr(l[0]));
        // A reverse CSR is read, and so built, only under a target mask.
        let last_hop = labels.as_ref().map(|l| match filter.targets {
            Some(_) => graph.reverse_label_csr(l[l.len() - 1]),
            None => graph.label_csr(l[l.len() - 1]),
        });
        let (sources, targets) = (
            self.side(&filter.sources, first_hop),
            self.side(&filter.targets, last_hop),
        );
        let empty = pushed
            && [sources, targets]
                .iter()
                .any(|&(nodes, edges)| nodes == 0 || labels.is_some() && edges == 0);
        let reversed = pushed
            && !empty
            && labels.is_some()
            && targets.1 < sources.1
            && slice.as_ref().is_none_or(Pmr::slices_backwards);
        let estimate = self.graph_stats.map(|stats| {
            estimate_drain(stats, Some(graph), semantics, base, split, &self.recursion)
        });
        let (shape, pmr) = match &labels {
            Some(labels) => {
                let hops: Arc<[CsrGraph]> = if reversed {
                    labels
                        .iter()
                        .rev()
                        .map(|l| graph.reverse_label_csr(l).clone())
                        .collect()
                } else {
                    self.chain_hops(labels)
                };
                for csr in hops.iter() {
                    walk.stats_mut().charge(graph.edge_count()); // Edges(G)
                    walk.stats_mut().charge(csr.edge_count()); // σ label
                }
                let shape = match &labels[..] {
                    [label] => format!("label scan :{label}"),
                    _ => format!("join chain {labels:?}"),
                };
                let pmr = (!empty).then(|| Pmr::from_shared_join(hops, semantics, self.recursion));
                (shape, pmr)
            }
            None => {
                let base = walk.eval_with(base, self)?.paths_operand("recursive")?;
                let shape = format!("materialised base ({} paths)", base.len());
                (
                    shape,
                    (!empty).then(|| Pmr::from_base(&base, semantics, self.recursion)),
                )
            }
        };
        let (sliced, chosen) = match slice {
            Some(_) => ("sliced pipeline over ", LAZY_SLICED_PIPELINE),
            None => ("", PMR_LAZY),
        };
        let mut operator = format!("{sliced}ϕ{} over {shape}", semantics.keyword());
        if pushed {
            operator += &match labels {
                Some(_) => format!(
                    ", endpoint-σ pushed (sources {} with {} out-edges, targets {} with {} in-edges)",
                    sources.0, sources.1, targets.0, targets.1
                ),
                None => format!(", endpoint-σ pushed (sources {}, targets {})", sources.0, targets.0),
            };
        }
        if reversed {
            operator += ", reversed";
        }
        self.decisions.push(StrategyDecision {
            operator,
            chosen,
            estimate,
        });
        let (n, work) = match pmr {
            None => (0, WorkCounters::default()),
            Some(mut pmr) => {
                if reversed {
                    std::mem::swap(&mut filter.sources, &mut filter.targets);
                }
                pmr.restrict_endpoints(filter);
                if let Some(token) = &self.cancel {
                    pmr.share_cancel(token.clone());
                }
                let forward = labels.as_ref().filter(|_| reversed);
                let forward = forward.map(|labels| self.chain_hops(labels));
                let n = match (&forward, &slice) {
                    (Some(hops), _) => pmr.for_each_reversed(slice.as_ref(), hops, &mut visit)?,
                    (None, Some(spec)) => pmr.for_each_sliced(spec, &mut visit)?,
                    (None, None) => pmr.for_each_path(&mut visit)?,
                };
                (n, pmr.work_counters())
            }
        };
        self.work.merge(&work);
        let stats = walk.stats_mut();
        if let Some(labels) = labels {
            stats.join_calls += labels.len() - 1;
            for _ in 1..labels.len() {
                stats.charge(work.base_segments as usize);
            }
        }
        if pushed || slice.is_some() {
            stats.charge(work.arena_steps as usize); // ϕ beneath the root
        }
        // A slice's σ (when pushed), γ and τ (when present).
        let above = slice.map_or(0, |spec| {
            1 + usize::from(pushed) + usize::from(spec.ordered_by_length)
        });
        for _ in 0..above + wrappers {
            stats.charge(n);
        }
        Ok(n)
    }

    /// One side of a drain: the nodes `mask` marks and the edges of `hop`
    /// leaving them, an absent mask marking every node (and so counting
    /// every edge of the hop); no hop, no edges.
    fn side(&self, mask: &Option<Vec<bool>>, hop: Option<&CsrGraph>) -> (usize, usize) {
        match mask {
            None => (self.graph.node_count(), hop.map_or(0, CsrGraph::edge_count)),
            Some(mask) => self
                .graph
                .nodes()
                .zip(mask)
                .filter(|&(_, &marked)| marked)
                .fold((0, 0), |(nodes, edges), (v, _)| {
                    (nodes + 1, edges + hop.map_or(0, |h| h.out_degree(v)))
                }),
        }
    }

    /// The graph's label CSR of each hop of a scan chain (a label scan is the
    /// one-hop chain); the clones share the graph's columns.
    fn chain_hops(&self, labels: &[&str]) -> Arc<[CsrGraph]> {
        labels
            .iter()
            .map(|l| self.graph.label_csr(l).clone())
            .collect()
    }

    /// The keep-mask of a per-node condition (a pure first- or last-node
    /// predicate, see [`Condition::endpoint_split`]), pushed into the PMR
    /// expansion. When the graph's posting index answers a conjunct
    /// ([`smallest_posting`]), the condition is evaluated only on that
    /// conjunct's postings: no other node can satisfy it. Otherwise it is
    /// evaluated on every node.
    fn node_mask(&self, condition: &Condition) -> Vec<bool> {
        let holds = |v: NodeId| condition.eval(&Path::node(v), self.graph);
        let Some(postings) = smallest_posting(self.graph, condition) else {
            return self.graph.nodes().map(holds).collect();
        };
        let mut mask = vec![false; self.graph.node_count()];
        for &v in postings {
            mask[v.index()] = holds(v);
        }
        mask
    }
}

/// Recognises a node that runs as one kernel drain: a ϕ; `σc(ϕ(base))`
/// whose `c` splits into first- and last-node parts
/// ([`Condition::endpoint_split`]), taken as endpoint masks; either of
/// them under the ALL selector's `π(*,*,*)(γ∅(…))`, which keeps its one
/// group whole and in order; or a sliceable
/// `π(τ?(γ(σ?(ϕ(scan or chain)))))` pipeline ([`choose_pipeline_impl`]),
/// its limits taken as a slice. Unbounded Walk keeps its σ above the
/// drain and its pipeline materialised, as in
/// [`pathalg_core::slice::SlicePlan::lazy_eligible`]: the kernel proves
/// that answer infinite by expanding every source, and a source mask or
/// an early stop could hide the cycle. The one recogniser: the kernel half
/// runs what it returns, and admission
/// ([`crate::cost::estimate_plan_closures`]) prices it.
pub(crate) fn kernel_drain<'p>(
    expr: &'p PlanExpr,
    recursion: &RecursionConfig,
) -> Option<KernelDrain<'p>> {
    let (semantics, base, split, slice) = match expr {
        PlanExpr::Recursive { semantics, input } => (*semantics, &**input, None, None),
        PlanExpr::Selection { condition, input } => {
            let PlanExpr::Recursive { semantics, input } = &**input else {
                return None;
            };
            if *semantics == PathSemantics::Walk && recursion.max_length.is_none() {
                return None;
            }
            let split = condition.endpoint_split()?;
            (*semantics, &**input, Some(split), None)
        }
        // A projection the walk refuses is left to it.
        PlanExpr::Projection { spec, input } if spec.validate().is_ok() => {
            if let PlanExpr::GroupBy { key, input } = &**input {
                if *key == GroupKey::Empty && *spec == ProjectionSpec::all() {
                    let drain = kernel_drain(input, recursion)?;
                    return Some(KernelDrain {
                        wrappers: drain.wrappers + 2,
                        ..drain
                    });
                }
            }
            let plan = choose_pipeline_impl(expr, recursion)?;
            let split = plan.filter.map(|c| {
                c.endpoint_split()
                    .expect("lazy_eligible checked the filter splits")
            });
            (plan.semantics, plan.base, split, Some(plan.spec))
        }
        _ => return None,
    };
    Some(KernelDrain {
        semantics,
        base,
        split,
        slice,
        wrappers: 0,
    })
}

/// The first-node and last-node parts of an endpoint σ
/// ([`Condition::endpoint_split`]); an absent part constrains nothing.
pub(crate) type EndpointSplit = (Option<Condition>, Option<Condition>);

/// A plan node that runs as one kernel drain: `ϕ_semantics(base)`,
/// `σc(ϕ_semantics(base))` whose σ the drain takes as endpoint masks, or a
/// sliced pipeline over either, under any number of ALL selectors.
pub(crate) struct KernelDrain<'p> {
    pub(crate) semantics: PathSemantics,
    pub(crate) base: &'p PlanExpr,
    /// The pushed σ's parts; `None` for a bare ϕ.
    pub(crate) split: Option<EndpointSplit>,
    /// The sliced pipeline's limits; `None` for a drain.
    slice: Option<SliceSpec>,
    /// The ALL selectors' `π(*,*,*)` and `γ∅` between the node taken and
    /// the drain's own root, each charged with the answer.
    wrappers: usize,
}

/// An owned [`Path`] over copies of a drain's node and edge sequences.
fn owned_path(nodes: &[NodeId], edges: &[EdgeId]) -> Path {
    Path::from_sequence(nodes.to_vec(), edges.to_vec(), None)
        .expect("kernel drains emit well-formed paths")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::choose_pipeline_impl;
    use pathalg_core::condition::{Accessor, CompareOp, Condition, Position};
    use pathalg_core::ops::group_by::group_by;
    use pathalg_core::ops::order_by::order_by;
    use pathalg_core::ops::projection::projection;
    use pathalg_core::ops::recursive::recursive;
    use pathalg_core::ops::selection::selection;
    use pathalg_core::solution_space::SolutionSpace;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};
    use pathalg_pmr::canonical_order;

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
            // Over a materialised base: bare, and under the ALL selector.
            knows()
                .union(PlanExpr::edges().select(Condition::edge_label(1, "Likes")))
                .recursive(PathSemantics::Simple),
            knows()
                .union(PlanExpr::nodes())
                .recursive(PathSemantics::Shortest)
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            // Not the identity: evaluated, then walked.
            knows()
                .recursive(PathSemantics::Trail)
                .group_by(GroupKey::Source)
                .project(ProjectionSpec::all()),
            // The ALL selector over an endpoint σ: source-anchored, streamed
            // forward; target-anchored, searched backwards and sorted.
            knows()
                .recursive(PathSemantics::Trail)
                .select(Condition::first_property("name", "Moe"))
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            knows()
                .recursive(PathSemantics::Walk)
                .select(Condition::last_property("name", "Lisa"))
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            // A σ root that does not split: drained, then filtered.
            knows().recursive(PathSemantics::Trail).select(
                Condition::first_property("name", "Moe")
                    .or(Condition::last_property("name", "Apu")),
            ),
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

    /// The kernel half polls the token before every operator, so a fired
    /// token stops a plan without ϕ before any operator runs.
    #[test]
    fn a_fired_token_stops_a_plan_without_phi() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .join(PlanExpr::edges())
            .select(Condition::first_property("name", "Moe"));
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        )
        .with_cancel(token);
        assert_eq!(engine.eval(&plan).unwrap_err(), AlgebraError::Cancelled);
        assert_eq!(engine.stats(), EvalStats::default());
        assert!(engine.decisions().is_empty());
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
            // A union is neither a scan nor a chain: materialised, then the
            // same kernel over its segments.
            (
                knows().union(likes()).recursive(PathSemantics::Trail),
                "pmr-lazy",
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

    /// The kernel proves an unbounded Walk infinite by expanding every
    /// source, so its σ is never pushed: anchored on Apu, who knows nobody
    /// and so reaches no cycle, the answer still errors as the reference's
    /// does. Bounded, the same σ is pushed.
    #[test]
    fn a_source_anchored_unbounded_walk_still_errors() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Walk)
            .select(Condition::first_property("name", "Apu"));
        let err = Evaluator::with_config(
            &f.graph,
            pathalg_core::EvalConfig {
                recursion: RecursionConfig::unbounded(),
            },
        )
        .eval_paths(&plan)
        .unwrap_err();
        assert!(matches!(err, AlgebraError::RecursionLimitExceeded { .. }));
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::unbounded(),
            ExecutionConfig::default(),
        );
        let err = engine.eval_paths(&plan).unwrap_err();
        assert!(
            matches!(err, AlgebraError::RecursionLimitExceeded { .. }),
            "{err}"
        );
        assert_eq!(
            engine.decisions()[0].operator,
            "ϕWALK over label scan :Knows"
        );

        let bounded = RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        };
        let mut engine = EngineEvaluator::new(&f.graph, bounded, ExecutionConfig::default());
        assert!(engine.eval_paths(&plan).unwrap().is_empty());
        assert_eq!(
            engine.decisions()[0].operator,
            "ϕWALK over label scan :Knows, endpoint-σ pushed \
             (sources 1 with 0 out-edges, targets 7 with 4 in-edges)"
        );
    }

    /// `max_paths` counts generated paths. The Knows trails of Figure 1
    /// number 12, so a budget of 4 stops the reference, which materialises
    /// them all before its σ; a drain with the source mask pushed generates
    /// Bart's 3 and answers. The documented delta of DESIGN.md §8.
    #[test]
    fn a_pushed_source_mask_answers_within_a_budget_the_closure_exceeds() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .select(Condition::first_property("name", "Bart"));
        let budget = RecursionConfig {
            max_length: None,
            max_paths: Some(4),
        };
        let config = |recursion| pathalg_core::EvalConfig { recursion };
        let err = Evaluator::with_config(&f.graph, config(budget))
            .eval_paths(&plan)
            .unwrap_err();
        assert_eq!(err, AlgebraError::ResultLimitExceeded { limit: 4 });
        let unbudgeted = Evaluator::with_config(&f.graph, config(RecursionConfig::default()))
            .eval_paths(&plan)
            .unwrap();
        assert_eq!(unbudgeted.len(), 3);
        let mut engine = EngineEvaluator::new(&f.graph, budget, ExecutionConfig::default());
        assert_eq!(engine.eval_paths(&plan).unwrap(), unbudgeted);
        assert_eq!(engine.work_counters().budget_claimed, 3);
    }

    /// With both ends anchored the drain starts from the side with fewer
    /// frontier edges — out of the marked sources, into the marked targets —
    /// whatever the marked node counts; a tie runs forward. Every direction
    /// answers the same. (Figure 1's Knows edges: Moe→Lisa, Lisa→Bart,
    /// Bart→Lisa, Lisa→Apu.)
    #[test]
    fn both_anchored_drains_start_from_the_side_with_fewer_frontier_edges() {
        let f = Figure1::new();
        let first = |name: &str| Condition::first_property("name", name);
        let last = |name: &str| Condition::last_property("name", name);
        let cases = [
            (
                Condition::first_label("Person").and(last("Apu")),
                "(sources 4 with 4 out-edges, targets 1 with 1 in-edges), reversed",
            ),
            (
                first("Moe").and(Condition::last_label("Person")),
                "(sources 1 with 1 out-edges, targets 4 with 4 in-edges)",
            ),
            (
                first("Moe").and(last("Apu")),
                "(sources 1 with 1 out-edges, targets 1 with 1 in-edges)",
            ),
            // One marked node each, but Lisa has two out-edges and Apu one
            // in-edge: backwards.
            (
                first("Lisa").and(last("Apu")),
                "(sources 1 with 2 out-edges, targets 1 with 1 in-edges), reversed",
            ),
            // Fewer marked targets, as many frontier edges: forward.
            (
                first("Moe").or(first("Bart")).and(last("Lisa")),
                "(sources 2 with 2 out-edges, targets 1 with 2 in-edges)",
            ),
        ];
        for (filter, pushdown) in cases {
            let plan = PlanExpr::edges()
                .select(Condition::edge_label(1, "Knows"))
                .recursive(PathSemantics::Trail)
                .select(filter);
            let reference = Evaluator::new(&f.graph).eval_paths(&plan).unwrap();
            assert!(!reference.is_empty(), "{plan}");
            let mut engine = EngineEvaluator::new(
                &f.graph,
                RecursionConfig::default(),
                ExecutionConfig::default(),
            );
            assert_eq!(engine.eval_paths(&plan).unwrap(), reference, "{plan}");
            assert_eq!(
                engine.decisions()[0].operator,
                format!("ϕTRAIL over label scan :Knows, endpoint-σ pushed {pushdown}")
            );
        }
    }

    /// A side with no marked node, or whose marked nodes have no edge on
    /// the hop they anchor, answers at once: no arena step is generated on a
    /// drain, on a target-anchored drain the old node rule searched
    /// backwards, on a sliced pipeline and over a chain. A materialised base
    /// is still evaluated, so its errors would surface.
    #[test]
    fn an_empty_side_answers_without_expanding() {
        use pathalg_core::ops::projection::Take;

        let f = Figure1::new();
        let scan = |label| PlanExpr::edges().select(Condition::edge_label(1, label));
        let nobody = |first| match first {
            true => Condition::first_property("name", "Nobody"),
            false => Condition::last_property("name", "Nobody"),
        };
        let any = ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
        let trail = |base: PlanExpr| base.recursive(PathSemantics::Trail);
        let cases = [
            trail(scan("Knows")).select(nobody(true)),
            trail(scan("Knows")).select(nobody(false)),
            // Moe marks one node, but no Knows edge enters it.
            trail(scan("Knows")).select(Condition::last_property("name", "Moe")),
            trail(scan("Knows"))
                .select(nobody(false))
                .group_by(GroupKey::SourceTarget)
                .project(any),
            trail(scan("Likes").join(scan("Has_creator"))).select(nobody(false)),
            trail(scan("Knows").union(scan("Likes"))).select(nobody(true)),
        ];
        for plan in cases {
            assert!(Evaluator::new(&f.graph)
                .eval_paths(&plan)
                .unwrap()
                .is_empty());
            let mut engine = EngineEvaluator::new(
                &f.graph,
                RecursionConfig::default(),
                ExecutionConfig::default(),
            );
            assert!(engine.eval_paths(&plan).unwrap().is_empty(), "{plan}");
            assert_eq!(engine.work_counters(), WorkCounters::default(), "{plan}");
            let [decision] = engine.decisions() else {
                panic!("{plan}: one ϕ, one decision");
            };
            assert!(!decision.operator.ends_with("reversed"), "{decision}");
        }
    }

    /// A sliceable pipeline always runs as a sliced drain, whatever its
    /// closure estimate predicts, and its decision carries that estimate
    /// when statistics are attached.
    #[test]
    fn sliced_drains_are_always_lazy_and_carry_the_estimate() {
        use pathalg_core::ops::projection::Take;
        use pathalg_graph::generator::structured::{chain_graph, complete_graph};

        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let recursion = RecursionConfig::with_max_length(4);
        // A provably tiny closure and a predicted blow-up.
        for (graph, blows_up) in [
            (chain_graph(6, "Knows"), false),
            (complete_graph(6, "Knows"), true),
        ] {
            let stats = GraphStats::compute(&graph);
            let mut engine = EngineEvaluator::new(&graph, recursion, ExecutionConfig::default())
                .with_graph_stats(&stats);
            engine.eval_paths(&plan).unwrap();
            let [decision] = engine.decisions() else {
                panic!("{plan}: one ϕ, one decision");
            };
            assert_eq!(decision.chosen, "lazy-sliced-pipeline");
            assert_eq!(decision.estimate.map(|e| e.blows_up()), Some(blows_up));
            let mut bare = EngineEvaluator::new(&graph, recursion, ExecutionConfig::default());
            bare.eval_paths(&plan).unwrap();
            assert_eq!(bare.decisions()[0].chosen, "lazy-sliced-pipeline");
            assert!(bare.decisions()[0].estimate.is_none());
        }
    }

    /// A weak target mask — half of a complete graph's nodes, so half its
    /// in-edges — sends a drain backwards, into a closure over the path
    /// budget. A slice goes backwards only where it keeps an early stop:
    /// `π(*,*,1)` under γ∅ or γS and the partition limit `π(2,*,1)(γST)`
    /// end the forward stream after a few paths, so they run forward and
    /// generate exactly the arena steps of the forward kernel's
    /// `Pmr::sliced`; `π(*,*,k)(γST)` runs backwards and abandons each
    /// target once its groups are full, within the forward kernel's steps.
    /// All of them answer within the budget, byte for byte as the forward
    /// kernel does.
    #[test]
    fn weak_target_masks_keep_the_early_stops_of_a_slice() {
        use pathalg_core::ops::projection::Take;
        use pathalg_graph::generator::structured::complete_graph;
        use pathalg_graph::value::Value;

        let g = complete_graph(8, "Knows");
        let limit = 5_000;
        let budget = RecursionConfig {
            max_length: Some(6),
            max_paths: Some(limit),
        };
        let half = Condition::Compare {
            accessor: Accessor::NodeProperty(Position::Last, "id".into()),
            op: CompareOp::Lt,
            value: Value::Int(4),
        };
        let sigma = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Walk)
            .select(half.clone());
        let mut drain = EngineEvaluator::new(&g, budget, ExecutionConfig::default());
        let err = drain.eval_paths(&sigma).unwrap_err();
        assert_eq!(err, AlgebraError::ResultLimitExceeded { limit });
        assert!(drain.decisions()[0].operator.ends_with(", reversed"));

        let take =
            |partitions, paths| ProjectionSpec::new(partitions, Take::All, Take::Count(paths));
        for (key, spec, backwards) in [
            (GroupKey::Empty, take(Take::All, 1), false),
            (GroupKey::Source, take(Take::All, 1), false),
            (GroupKey::SourceTarget, take(Take::Count(2), 1), false),
            (GroupKey::SourceTarget, take(Take::All, 1), true),
            (GroupKey::SourceTarget, take(Take::All, 2), true),
        ] {
            let plan = sigma.clone().group_by(key).project(spec);
            let slice = choose_pipeline_impl(&plan, &budget).unwrap().spec;
            let csr = Arc::new(g.label_csr("Knows").clone());
            let mut forward = Pmr::from_shared_csr(csr, PathSemantics::Walk, budget);
            forward.restrict_endpoints(EndpointFilter {
                sources: None,
                targets: Some(drain.kernel.node_mask(&half)),
            });
            let expected = forward.sliced(&slice).unwrap();
            let mut engine = EngineEvaluator::new(&g, budget, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "{plan}");
            let decision = &engine.decisions()[0];
            assert_eq!(
                decision.operator.ends_with(", reversed"),
                backwards,
                "{decision}"
            );
            let steps = engine.work_counters().arena_steps;
            let forward_steps = forward.work_counters().arena_steps;
            if backwards {
                // Four targets settle as soon as eight sources do: 224
                // steps, against 252 and 448 forward.
                assert!(steps <= forward_steps, "{plan}: {steps} > {forward_steps}");
            } else {
                assert_eq!(steps, forward_steps, "{plan}");
            }
        }
    }

    /// A σ with `∨` across the two endpoints does not split into masks: the
    /// whole closure is drained and the σ filters it afterwards.
    #[test]
    fn an_endpoint_disjunction_filters_after_the_drain() {
        let f = Figure1::new();
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .select(
                Condition::first_property("name", "Moe")
                    .or(Condition::last_property("name", "Apu")),
            );
        let mut reference = Evaluator::new(&f.graph);
        let expected = reference.eval_paths(&plan).unwrap();
        let mut engine = EngineEvaluator::new(
            &f.graph,
            RecursionConfig::default(),
            ExecutionConfig::default(),
        );
        assert_eq!(engine.eval_paths(&plan).unwrap(), expected);
        assert_eq!(
            engine.decisions()[0].operator,
            "ϕTRAIL over label scan :Knows"
        );
        // Drained in full, every Knows trail emitted, and charged as the
        // reference charges a σ over a ϕ.
        assert_eq!(engine.work_counters().paths_emitted, 12);
        assert_eq!(engine.stats(), reference.stats());
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
            // The materialised pipeline: the fixpoint over σℓ(Edges) in
            // canonical order, then core γ/τ/π.
            let PlanExpr::Recursive { semantics, .. } = &phi else {
                unreachable!()
            };
            let base = selection(
                &f.graph,
                &Condition::edge_label(1, "Knows"),
                &PathSet::edges(&f.graph),
            );
            let closure = canonical_order(
                &recursive(*semantics, &base, &RecursionConfig::default()).unwrap(),
                std::slice::from_ref(f.graph.label_csr("Knows")),
            );
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

    /// `condition::tests::property_equality_follows_sql_null_semantics`
    /// through a sliced pipeline: the endpoint σ reaches the kernel as a
    /// node mask, posting-index-backed or scanned, and either way `Int(2)`
    /// finds the `Float(2.0)` node and `Null` finds nothing.
    #[test]
    fn anchored_pipelines_follow_sql_null_equality() {
        use pathalg_core::ops::projection::Take;
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;
        use std::collections::BTreeSet;

        let mut b = GraphBuilder::new();
        let hub = b.add_node("Hub", Vec::<(&str, Value)>::new());
        let int = b.add_node("N", [("p", Value::Int(2)), ("q", Value::Int(2))]);
        let float = b.add_node("N", [("p", Value::Float(2.0)), ("q", Value::Int(3))]);
        let null = b.add_node("N", [("p", Value::Null)]);
        let text = b.add_node("N", [("p", Value::str("2"))]);
        for n in [int, float, null, text] {
            b.add_edge(n, hub, "Knows", Vec::<(&str, Value)>::new());
            b.add_edge(hub, n, "Knows", Vec::<(&str, Value)>::new());
        }
        let g = b.build();
        let anchored = |accessor: Accessor, op: CompareOp, value: Value| {
            let first = matches!(accessor, Accessor::NodeProperty(Position::First, _));
            let plan = PlanExpr::edges()
                .select(Condition::edge_label(1, "Knows"))
                .recursive(PathSemantics::Shortest)
                .select(Condition::Compare {
                    accessor,
                    op,
                    value,
                })
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
            let mut engine =
                EngineEvaluator::new(&g, RecursionConfig::default(), ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            assert!(engine.used_lazy_pipeline(), "{plan}");
            let ends: BTreeSet<NodeId> = out
                .iter()
                .map(|p| if first { p.first() } else { p.last() })
                .collect();
            ends.into_iter().collect::<Vec<_>>()
        };
        for side in [Position::First, Position::Last] {
            let at = |key: &str| Accessor::NodeProperty(side, key.into());
            let eq = |key: &str, value: Value| anchored(at(key), CompareOp::Eq, value);
            // `p` holds a Float, so an Int anchor scans; `q` holds none, so
            // the posting index answers it.
            assert_eq!(g.nodes_with_property_value("p", &Value::Int(2)), None);
            assert!(g.nodes_with_property_value("q", &Value::Int(2)).is_some());
            assert_eq!(eq("p", Value::Int(2)), [int, float]);
            assert_eq!(eq("p", Value::Float(2.0)), [int, float]);
            assert_eq!(eq("q", Value::Int(2)), [int]);
            assert_eq!(eq("q", Value::Int(4)), []);
            assert_eq!(eq("p", Value::str("2")), [text]);
            assert_eq!(eq("p", Value::Null), []);
            assert_eq!(anchored(at("p"), CompareOp::Ne, Value::Null), []);
        }
    }

    /// A splitmix64 step: the generated cases below are pure functions of
    /// the seed proptest draws.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A fair coin from the same stream.
    fn coin(state: &mut u64) -> bool {
        next(state) & 1 == 0
    }

    /// The property values the generated graphs and conditions draw from:
    /// strings, ints (one beyond 2⁵³, equal to a float under
    /// `Value::compare`), integral and fractional floats, NaN, booleans and
    /// null.
    fn value(state: &mut u64, floats: bool) -> pathalg_graph::value::Value {
        use pathalg_graph::value::Value;
        let beyond = (1i64 << 53) + 1;
        let pool = [
            Value::str("a"),
            Value::str("b"),
            Value::Int(2),
            Value::Int(-1),
            Value::Int(beyond),
            Value::Bool(true),
            Value::Null,
            Value::Float(2.0),
            Value::Float(f64::NAN),
            Value::Float(beyond as f64),
            Value::Float(0.5),
        ];
        let kinds = if floats { pool.len() } else { 7 };
        pool[(next(state) % kinds as u64) as usize].clone()
    }

    /// A graph of 3–12 nodes labelled `A`/`B`, whose properties `k` and `j`
    /// are each set on about three nodes in four, up to 24 `Knows` edges and
    /// up to 12 `Likes` edges. Each key holds floats or not, decided per
    /// graph, so both the index's exact Int answer and its Float fallback
    /// are exercised.
    fn property_graph(seed: u64) -> PropertyGraph {
        use pathalg_graph::graph::GraphBuilder;
        let mut state = seed;
        let nodes = 3 + (next(&mut state) % 10) as usize;
        let floats = [coin(&mut state), coin(&mut state)];
        let mut b = GraphBuilder::new();
        for _ in 0..nodes {
            let label = if coin(&mut state) { "A" } else { "B" };
            let mut props = Vec::new();
            for (key, floats) in ["k", "j"].into_iter().zip(floats) {
                if !next(&mut state).is_multiple_of(4) {
                    props.push((key, value(&mut state, floats)));
                }
            }
            b.add_node(label, props);
        }
        for (label, most) in [("Knows", 2 * nodes), ("Likes", nodes)] {
            for _ in 0..next(&mut state) % (most as u64 + 1) {
                let s = NodeId((next(&mut state) % nodes as u64) as u32);
                let t = NodeId((next(&mut state) % nodes as u64) as u32);
                b.add_edge(
                    s,
                    t,
                    label,
                    Vec::<(&str, pathalg_graph::value::Value)>::new(),
                );
            }
        }
        b.build()
    }

    /// A random condition on the node at `pos`: `=` (most often), `≠` and
    /// ranges on `k`/`j`, labels and `bound`, under `∧`, `∨` and `¬`.
    fn node_condition(state: &mut u64, pos: Position, depth: u32) -> Condition {
        let key = if coin(state) { "k" } else { "j" };
        let leaves = 6;
        let pick = next(state) % if depth == 0 { leaves } else { leaves + 4 };
        let sub = |state: &mut u64| Box::new(node_condition(state, pos, depth - 1));
        match pick {
            0..=2 => {
                let op = match next(state) % 9 {
                    0 => CompareOp::Ne,
                    1 => CompareOp::Lt,
                    2 => CompareOp::Le,
                    3 => CompareOp::Gt,
                    4 => CompareOp::Ge,
                    _ => CompareOp::Eq,
                };
                Condition::Compare {
                    accessor: Accessor::NodeProperty(pos, key.into()),
                    op,
                    value: value(state, true),
                }
            }
            3 | 4 => Condition::Compare {
                accessor: Accessor::NodeLabel(pos),
                op: CompareOp::Eq,
                value: pathalg_graph::value::Value::str(if pick == 3 { "A" } else { "B" }),
            },
            5 => Condition::Bound(Accessor::NodeProperty(pos, key.into())),
            6 | 7 => Condition::And(sub(state), sub(state)),
            8 => Condition::Or(sub(state), sub(state)),
            _ => Condition::Not(sub(state)),
        }
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The index-backed node mask is the per-node `Condition::eval`
        /// scan, bit for bit, on either endpoint.
        #[test]
        fn node_masks_equal_the_per_node_scan(seed in 0u64..u64::MAX, pos in 0usize..3) {
            let g = property_graph(seed);
            let mut state = !seed;
            let pos = [Position::First, Position::Index(1), Position::Last][pos];
            let condition = node_condition(&mut state, pos, 3);
            let engine =
                EngineEvaluator::new(&g, RecursionConfig::default(), ExecutionConfig::default());
            let scan: Vec<bool> = g
                .nodes()
                .map(|v| condition.eval(&Path::node(v), &g))
                .collect();
            prop_assert_eq!(engine.kernel.node_mask(&condition), scan, "{}", condition);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// A sliced pipeline anchored on both endpoints answers what the
        /// reference evaluator does, under every path semantics.
        #[test]
        fn anchored_sliced_pipelines_equal_the_reference(
            seed in 0u64..u64::MAX,
            semantics in 0usize..5,
        ) {
            use pathalg_core::ops::projection::Take;
            use pathalg_core::EvalConfig;

            let g = property_graph(seed);
            let mut state = !seed;
            let filter = node_condition(&mut state, Position::First, 2)
                .and(node_condition(&mut state, Position::Last, 2));
            let semantics = [
                PathSemantics::Walk,
                PathSemantics::Trail,
                PathSemantics::Acyclic,
                PathSemantics::Simple,
                PathSemantics::Shortest,
            ][semantics];
            let recursion = RecursionConfig {
                max_length: Some(4),
                ..RecursionConfig::default()
            };
            // Every path of each group is kept, so the answer is the same
            // set whatever order either side enumerates in.
            let plan = PlanExpr::edges()
                .select(Condition::edge_label(1, "Knows"))
                .recursive(semantics)
                .select(filter)
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(usize::MAX)));
            let reference = Evaluator::with_config(&g, EvalConfig { recursion })
                .eval_paths(&plan)
                .unwrap();
            let mut engine = EngineEvaluator::new(&g, recursion, ExecutionConfig::default());
            prop_assert_eq!(engine.eval_paths(&plan).unwrap(), reference, "{}", plan);
            prop_assert!(engine.used_lazy_pipeline(), "{}", plan);
        }
    }

    /// One generated σ-over-ϕ case: the graph of `seed`; a `:Knows` scan
    /// or a `(:Knows/:Likes)` chain; a filter on the first node, the last,
    /// both, or one that does not split (`∨` across the endpoints); and
    /// the σ bare (shape 0), under the ALL selector (1), under
    /// `π(*,1,*)(τG(γST))` (2), which keeps each pair's one group whole and
    /// is materialised, or under a sliced pipeline: SHORTEST 1
    /// `π(*,*,1)(τA(γST))` (3), `π(*,*,2)(γS)` (4), the partition limit
    /// `π(2,*,1)(γST)` (5), `π(*,*,2)(γST)` (6), `π(*,*,2)(γ∅)` (7), ALL
    /// SHORTEST WALK's optimized form `π(*,*,*)(γST)` (8), ALL SHORTEST
    /// `π(*,1,*)(τG(γSTL))` (9) and SHORTEST 2 GROUP `π(*,2,*)(τG(γSTL))`
    /// (10).
    ///
    /// Every answer is byte for byte the plan's γ/τ/π over the reference
    /// fixpoint in canonical order with the σ applied; the shapes whose
    /// answer does not depend on the order of the stream (0–2 and 8–10)
    /// also answer what the reference evaluator does (any other slice keeps
    /// the first paths of the order it is fed, so only the canonical one
    /// agrees). `for_each_path` is `eval_paths` in every observable.
    /// Returns whether the drain searched backwards; panics on a mismatch.
    fn pushed_drain_case(
        seed: u64,
        semantics: PathSemantics,
        max_length: usize,
        chain: bool,
        filter: usize,
        shape: usize,
    ) -> bool {
        use pathalg_core::ops::order_by::OrderKey;
        use pathalg_core::ops::projection::Take;
        use pathalg_core::EvalConfig;

        let g = property_graph(seed);
        let mut state = !seed;
        let first = node_condition(&mut state, Position::First, 2);
        let last = node_condition(&mut state, Position::Last, 2);
        let filter = match filter {
            0 => first,
            1 => last,
            2 => first.and(last),
            _ => first.or(last),
        };
        let scan = |label: &str| PlanExpr::edges().select(Condition::edge_label(1, label));
        let (base, labels) = if chain {
            (scan("Knows").join(scan("Likes")), vec!["Knows", "Likes"])
        } else {
            (scan("Knows"), vec!["Knows"])
        };
        let sigma = base.clone().recursive(semantics).select(filter.clone());
        let take = |p: Take, a: Take| ProjectionSpec::new(p, Take::All, a);
        let plan = match shape {
            0 => sigma,
            1 => sigma
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            2 => sigma
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Group)
                .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All)),
            3 => sigma
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Path)
                .project(take(Take::All, Take::Count(1))),
            4 => sigma
                .group_by(GroupKey::Source)
                .project(take(Take::All, Take::Count(2))),
            5 => sigma
                .group_by(GroupKey::SourceTarget)
                .project(take(Take::Count(2), Take::Count(1))),
            6 => sigma
                .group_by(GroupKey::SourceTarget)
                .project(take(Take::All, Take::Count(2))),
            7 => sigma
                .group_by(GroupKey::Empty)
                .project(take(Take::All, Take::Count(2))),
            8 => sigma
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::all()),
            _ => sigma
                .group_by(GroupKey::SourceTargetLength)
                .order_by(OrderKey::Group)
                .project(ProjectionSpec::new(
                    Take::All,
                    Take::Count(shape - 8),
                    Take::All,
                )),
        };
        let recursion = RecursionConfig {
            max_length: Some(max_length),
            max_paths: None,
        };
        let mut engine = EngineEvaluator::new(&g, recursion, ExecutionConfig::default());
        let out = engine.eval_paths(&plan).unwrap();
        let sliced = shape >= 3;
        if matches!(shape, 0..=2 | 8..) {
            let reference = Evaluator::with_config(&g, EvalConfig { recursion })
                .eval_paths(&plan)
                .unwrap();
            assert_eq!(&out, &reference, "{}", plan);
        }
        let hops: Vec<CsrGraph> = labels.iter().map(|l| g.label_csr(l).clone()).collect();
        let base = Evaluator::new(&g).eval_paths(&base).unwrap();
        let closure = canonical_order(&recursive(semantics, &base, &recursion).unwrap(), &hops);
        let expected = above_sigma(&plan, selection(&g, &filter, &closure));
        assert_eq!(out.as_slice(), expected.as_slice(), "{}", plan);

        let mut streaming = EngineEvaluator::new(&g, recursion, ExecutionConfig::default());
        let mut seen = Vec::new();
        streaming
            .for_each_path(&plan, |nodes, edges| {
                seen.push((nodes.to_vec(), edges.to_vec()))
            })
            .unwrap();
        let paths: Vec<_> = out
            .iter()
            .map(|p| (p.nodes().to_vec(), p.edges().to_vec()))
            .collect();
        assert_eq!(seen, paths, "{}", plan);
        assert_eq!(streaming.stats(), engine.stats(), "{}", plan);
        assert_eq!(
            streaming.work_counters(),
            engine.work_counters(),
            "{}",
            plan
        );
        assert_eq!(streaming.decisions(), engine.decisions(), "{}", plan);

        let [decision] = engine.decisions() else {
            panic!("{plan}: one ϕ, one decision");
        };
        let pushed = filter.endpoint_split().is_some();
        assert_eq!(
            decision.operator.contains("endpoint-σ pushed"),
            pushed,
            "{}",
            decision
        );
        // A slice whose σ splits runs on the kernel; one that does not is
        // evaluated over the drained, filtered closure.
        assert_eq!(engine.used_lazy_pipeline(), sliced && pushed, "{}", plan);
        decision.operator.ends_with(", reversed")
    }

    /// The γ/τ/π operators of a generated plan above its σ, applied to
    /// `paths` by the core operators.
    fn above_sigma(plan: &PlanExpr, paths: PathSet) -> PathSet {
        fn space(plan: &PlanExpr, paths: PathSet) -> SolutionSpace {
            match plan {
                PlanExpr::OrderBy { key, input } => order_by(*key, &space(input, paths)),
                PlanExpr::GroupBy { key, .. } => group_by(*key, &paths),
                other => unreachable!("{other} is not a γ or τ"),
            }
        }
        match plan {
            PlanExpr::Projection { spec, input } => projection(spec, &space(input, paths)),
            _ => paths,
        }
    }

    const SEMANTICS: [PathSemantics; 5] = [
        PathSemantics::Walk,
        PathSemantics::Trail,
        PathSemantics::Acyclic,
        PathSemantics::Simple,
        PathSemantics::Shortest,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// Every σ over ϕ, pushed into the drain or a slice, searched
        /// backwards, or evaluated over it, answers what the materialised
        /// plan does.
        #[test]
        fn pushed_and_reversed_drains_equal_the_reference(
            seed in 0u64..u64::MAX,
            semantics in 0usize..5,
            max_length in 1usize..5,
            kind in 0usize..88,
        ) {
            // Base (2) × filter (4) × shape (11).
            let (chain, filter, shape) = (kind % 2 == 1, kind / 2 % 4, kind / 8);
            pushed_drain_case(seed, SEMANTICS[semantics], max_length, chain, filter, shape);
        }
    }

    /// A backward slice settles a target once each of its groups is full,
    /// but drains the rest of the current level before abandoning it: a
    /// path of the same length as a group's k-th can come first in the
    /// forward order. Generated cases that lose such a tie when the target
    /// is abandoned at once.
    #[test]
    fn a_settled_target_keeps_the_ties_of_its_level() {
        for (seed, semantics, max_length, shape) in [
            (4, PathSemantics::Walk, 4, 6),
            (4, PathSemantics::Simple, 4, 6),
            (67, PathSemantics::Walk, 2, 3),
        ] {
            assert!(pushed_drain_case(
                seed, semantics, max_length, false, 1, shape
            ));
        }
    }

    /// The generator above reaches the backward search: over a fixed grid
    /// of its target-anchored cases, some drain and some case of each slice
    /// keyed by `(s, t)` without a partition limit — γST with a cap (shapes
    /// 3 and 6) and without (8), γSTL's length groups (9 and 10) — runs
    /// reversed, while the γS, partition-limited and γ∅ slices (4, 5 and
    /// 7), whose forward stops a backward search would lose, never do. A
    /// first-node filter alone never reverses a scan: its marked sources
    /// cannot have more out-edges than the scan has edges.
    #[test]
    fn generated_target_anchored_drains_run_reversed() {
        for shape in [0, 3, 4, 5, 6, 7, 8, 9, 10] {
            let mut reversed = 0;
            for seed in 0..24u64 {
                let semantics = SEMANTICS[seed as usize % 5];
                let chain = seed % 2 == 0;
                reversed += usize::from(pushed_drain_case(seed, semantics, 3, chain, 1, shape));
                assert!(!pushed_drain_case(seed, semantics, 3, false, 0, shape));
            }
            let forward_only = matches!(shape, 4 | 5 | 7);
            assert_eq!(
                reversed == 0,
                forward_only,
                "shape {shape}: {reversed} generated cases searched backwards"
            );
        }
    }
}
