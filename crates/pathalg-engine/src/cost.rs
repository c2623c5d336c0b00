//! A simple cardinality and cost model for algebra plans.
//!
//! Section 7.3 argues that the whole point of an algebra is to enable
//! cost-based optimization. This module provides the minimal ingredient: a
//! bottom-up cardinality estimator over [`GraphStats`] plus a cost function
//! that charges each operator for the paths it is expected to touch. The
//! numbers are deliberately coarse (textbook selectivity heuristics), but they
//! are already enough to rank the Figure 6 plans correctly — which is what the
//! `fig6_pushdown` bench demonstrates.
//!
//! Evaluation is serial per query, so no estimate here picks a thread count
//! or a schedule: the closure estimates decide admission and annotate the
//! strategy report, and the shape of a ϕ base alone picks its
//! implementation (see [`crate::exec`]).

use crate::exec::{kernel_drain, EndpointSplit};
use pathalg_core::condition::{Accessor, CompareOp, Condition, Position};
use pathalg_core::expr::PlanExpr;
use pathalg_core::ops::projection::Take;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use pathalg_graph::stats::GraphStats;

/// Default selectivity of a property-equality predicate when nothing better is
/// known (the classic 1/10 heuristic).
const DEFAULT_PROPERTY_SELECTIVITY: f64 = 0.1;

/// Expected number of expansion levels charged to a recursive operator when
/// the expansion factor is at least one (bounded by graph size in reality; we
/// charge a fixed horizon to keep the model simple and monotone).
const RECURSION_HORIZON: f64 = 8.0;

/// The estimated cardinality (number of paths) and cumulative cost of a plan.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// Estimated number of output paths.
    pub cardinality: f64,
    /// Estimated total work (paths touched across all operators).
    pub cost: f64,
}

/// Estimates the cardinality and cost of a plan against graph statistics.
pub fn estimate(plan: &PlanExpr, stats: &GraphStats) -> CostEstimate {
    match plan {
        PlanExpr::Nodes => leaf(stats.node_count() as f64),
        PlanExpr::Edges => leaf(stats.edge_count() as f64),
        PlanExpr::Selection { condition, input } => {
            let child = estimate(input, stats);
            let selectivity = condition_selectivity(condition, stats);
            CostEstimate {
                cardinality: child.cardinality * selectivity,
                cost: child.cost + child.cardinality,
            }
        }
        PlanExpr::Join { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            // Paths join on a single endpoint: expected matches per left path
            // is |right| / #nodes.
            let nodes = stats.node_count().max(1) as f64;
            let cardinality = (l.cardinality * r.cardinality / nodes).max(0.0);
            CostEstimate {
                cardinality,
                cost: l.cost + r.cost + l.cardinality + r.cardinality + cardinality,
            }
        }
        PlanExpr::Union { left, right } => {
            let l = estimate(left, stats);
            let r = estimate(right, stats);
            CostEstimate {
                cardinality: l.cardinality + r.cardinality,
                cost: l.cost + r.cost + l.cardinality + r.cardinality,
            }
        }
        PlanExpr::Recursive { semantics, input } => {
            let child = estimate(input, stats);
            let nodes = stats.node_count().max(1) as f64;
            // Expansion factor of one self-join round, capped by how fast
            // the semantics lets the closure actually grow.
            let expansion = (child.cardinality / nodes).max(0.0);
            let growth = semantics_growth_cap(*semantics, expansion);
            let cardinality = if growth <= 1.0 {
                child.cardinality * RECURSION_HORIZON.min(1.0 / (1.0 - growth + 1e-9)).max(1.0)
            } else {
                child.cardinality * growth.powf(RECURSION_HORIZON)
            };
            CostEstimate {
                cardinality,
                cost: child.cost + cardinality,
            }
        }
        PlanExpr::GroupBy { input, .. } | PlanExpr::OrderBy { input, .. } => {
            let child = estimate(input, stats);
            CostEstimate {
                cardinality: child.cardinality,
                cost: child.cost + child.cardinality,
            }
        }
        PlanExpr::Projection { spec, input } => {
            let child = estimate(input, stats);
            let keep = |take: Take| match take {
                Take::All => 1.0,
                Take::Count(_) => 0.5,
            };
            let fraction = keep(spec.partitions) * keep(spec.groups) * keep(spec.paths);
            CostEstimate {
                cardinality: child.cardinality * fraction,
                cost: child.cost + child.cardinality,
            }
        }
    }
}

fn leaf(cardinality: f64) -> CostEstimate {
    CostEstimate {
        cardinality,
        cost: cardinality,
    }
}

/// A stats-driven estimate of one recursive closure: what admission control
/// ([`estimate_plan_closures`]) judges a query on and what `EXPLAIN` prints
/// next to a strategy. The numbers are coarse on purpose — they never change
/// results.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ClosureEstimate {
    /// Estimated cardinality of the base relation (segments for a join
    /// chain).
    pub base: f64,
    /// Estimated fan-out of one expansion step (one segment appended).
    pub expansion: f64,
    /// Whether the base's subgraph can cycle — the signal separating
    /// saturating closures from exponential blow-ups. For multi-label chains
    /// this falls back to whole-graph cyclicity (a sound over-approximation:
    /// it can only make the model more cautious).
    pub cyclic: bool,
    /// The expansion horizon charged (levels).
    pub levels: f64,
    /// Estimated closure cardinality.
    pub paths: f64,
}

impl ClosureEstimate {
    /// True when the model predicts a super-linear closure: a cyclic base
    /// subgraph whose per-step fan-out exceeds one keeps discovering new
    /// paths at every level instead of saturating.
    pub fn blows_up(&self) -> bool {
        self.cyclic && self.expansion > 1.0
    }
}

impl std::fmt::Display for ClosureEstimate {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "base≈{:.1} expansion≈{:.2} {} closure≈{:.0}",
            self.base,
            self.expansion,
            if self.cyclic { "cyclic" } else { "acyclic" },
            self.paths
        )
    }
}

/// Caps a raw per-step expansion factor by the path semantics: restricted
/// semantics saturate (their admission predicates kill most candidates
/// after a few levels), unrestricted walks compound fully. Shared by the
/// generic cardinality model ([`estimate`]) and the closure estimators.
fn semantics_growth_cap(semantics: PathSemantics, expansion: f64) -> f64 {
    match semantics {
        PathSemantics::Shortest | PathSemantics::Acyclic | PathSemantics::Simple => {
            expansion.min(2.0)
        }
        PathSemantics::Trail => expansion.min(4.0),
        PathSemantics::Walk => expansion,
    }
}

/// Assembles a [`ClosureEstimate`] from its raw ingredients: a cyclic base
/// with super-unit capped growth compounds geometrically over the horizon;
/// anything else dies out and is charged the (capped) geometric sum.
fn closure_estimate_from(
    base: f64,
    expansion: f64,
    cyclic: bool,
    semantics: PathSemantics,
    levels: f64,
) -> ClosureEstimate {
    let growth = semantics_growth_cap(semantics, expansion);
    let paths = if cyclic && growth > 1.0 {
        base * growth.powf(levels)
    } else {
        base * levels.min(1.0 / (1.0 - growth.min(1.0) + 1e-9)).max(1.0)
    };
    ClosureEstimate {
        base,
        expansion,
        cyclic,
        levels,
        paths,
    }
}

/// The expansion horizon charged to a closure estimate: the recursion bound
/// expressed in `seg_len`-edge levels when one is set, capped by the fixed
/// [`RECURSION_HORIZON`].
fn closure_levels(recursion: &RecursionConfig, seg_len: f64) -> f64 {
    recursion
        .max_length
        .map(|l| (l as f64 / seg_len).floor().max(1.0))
        .unwrap_or(RECURSION_HORIZON)
        .min(RECURSION_HORIZON)
}

/// The expected fan-out of a `to`-labelled hop taken at the end of a
/// `from`-labelled hop: the degree-distribution-aware pair factor
/// ([`GraphStats::pair_expansion`], which weights hubs by in-degree) when
/// pair statistics exist, the source-mean [`GraphStats::label_expansion`]
/// otherwise.
fn hop_expansion(stats: &GraphStats, from: &str, to: &str) -> f64 {
    stats
        .pair_expansion(from, to)
        .unwrap_or_else(|| stats.label_expansion(to))
}

/// Estimates the closure of `ϕ_semantics` over a base described by `labels`
/// (a label scan for one entry, a join chain for several) from graph
/// statistics: degree-distribution-aware per-hop expansion factors multiply
/// into the segment fan-out (each hop conditioned on the label of the hop
/// before it, wrapping around for the repeated segment), composite
/// cyclicity ([`GraphStats::chain_cyclic`] — exact for one- and two-label
/// chains) decides whether growth compounds, and the recursion bound caps
/// the horizon.
pub(crate) fn estimate_closure(
    stats: &GraphStats,
    labels: &[&str],
    semantics: PathSemantics,
    recursion: &RecursionConfig,
) -> ClosureEstimate {
    let seg_len = labels.len().max(1) as f64;
    let base = labels
        .split_first()
        .map(|(first, rest)| {
            let mut n = stats.edges_with_label(first) as f64;
            let mut prev = *first;
            for l in rest {
                n *= hop_expansion(stats, prev, l);
                prev = l;
            }
            n
        })
        .unwrap_or(0.0);
    // One appended segment multiplies the fan-out by every hop in turn; the
    // first hop of the new segment is conditioned on the last hop of the
    // previous one (the wrap-around of the repeated chain).
    let expansion: f64 = labels
        .iter()
        .enumerate()
        .map(|(i, l)| {
            let prev = labels[(i + labels.len() - 1) % labels.len()];
            hop_expansion(stats, prev, l)
        })
        .product();
    let cyclic = stats.chain_cyclic(labels);
    let levels = closure_levels(recursion, seg_len);
    closure_estimate_from(base, expansion, cyclic, semantics, levels)
}

/// Estimates the closure of an arbitrary ϕ node: label-chain bases use the
/// per-label statistics ([`estimate_closure`]); anything else falls back to
/// the generic cardinality model with whole-graph cyclicity.
pub(crate) fn estimate_phi(
    stats: &GraphStats,
    semantics: PathSemantics,
    base_plan: &PlanExpr,
    recursion: &RecursionConfig,
) -> ClosureEstimate {
    if let Some(chain) = base_plan.label_scan_chain() {
        return estimate_closure(stats, &chain, semantics, recursion);
    }
    let base = estimate(base_plan, stats).cardinality;
    let nodes = stats.node_count().max(1) as f64;
    let levels = closure_levels(recursion, 1.0);
    closure_estimate_from(base, base / nodes, stats.is_cyclic(), semantics, levels)
}

/// Estimates every recursive closure of a plan: one `(ϕ rendering,
/// estimate)` pair per drain the engine runs (`exec`'s one recogniser),
/// outermost first, each priced as its strategy decision records it
/// (`estimate_drain`), here without the graph's posting index.
/// This is the admission-control view of the cost model — a serving layer
/// calls it *before* evaluation starts, so a query whose closure is
/// predicted to blow up past the service's ceiling can be rejected with a
/// typed error instead of aborting mid-enumeration (the blow-up predicate
/// is [`ClosureEstimate::blows_up`]).
pub fn estimate_plan_closures(
    plan: &PlanExpr,
    stats: &GraphStats,
    recursion: &RecursionConfig,
) -> Vec<(String, ClosureEstimate)> {
    let mut out = Vec::new();
    collect_plan_closures(plan, stats, None, recursion, &mut out);
    out
}

/// Appends [`estimate_plan_closures`]' pairs to `out`, reading the posting
/// index of `graph` when given: the planner's admission estimates.
pub(crate) fn collect_plan_closures(
    plan: &PlanExpr,
    stats: &GraphStats,
    graph: Option<&PropertyGraph>,
    recursion: &RecursionConfig,
    out: &mut Vec<(String, ClosureEstimate)>,
) {
    let Some(drain) = kernel_drain(plan, recursion) else {
        for child in plan.children() {
            collect_plan_closures(child, stats, graph, recursion, out);
        }
        return;
    };
    let (semantics, base, split) = (drain.semantics, drain.base, drain.split.as_ref());
    let estimate = estimate_drain(stats, graph, semantics, base, split, recursion);
    out.push((format!("ϕ{}({base})", semantics.keyword()), estimate));
    collect_plan_closures(base, stats, graph, recursion, out);
}

/// The estimate of one drain, `ϕ_semantics(base)` under an endpoint σ's
/// parts: [`estimate_phi`] times each part's share of the nodes — its
/// posting length over the node count where the graph's posting index
/// answers it ([`smallest_posting`]), its `condition_selectivity`
/// otherwise. Admission and the engine's strategy decision read this.
pub(crate) fn estimate_drain(
    stats: &GraphStats,
    graph: Option<&PropertyGraph>,
    semantics: PathSemantics,
    base: &PlanExpr,
    split: Option<&EndpointSplit>,
    recursion: &RecursionConfig,
) -> ClosureEstimate {
    let mut estimate = estimate_phi(stats, semantics, base, recursion);
    let nodes = stats.node_count().max(1) as f64;
    let share = |part: &Condition| match graph.and_then(|g| smallest_posting(g, part)) {
        Some(postings) => postings.len() as f64 / nodes,
        None => condition_selectivity(part, stats),
    };
    if let Some((first, last)) = split {
        let parts = [first, last].into_iter().flatten();
        estimate.paths *= parts.map(share).product::<f64>();
    }
    estimate
}

/// The smallest posting list of a conjunct `first|last.key = c` of
/// `condition` that the graph's posting index answers exactly
/// ([`PropertyGraph::nodes_with_property_value`]), the leftmost on a tie:
/// no node outside it satisfies the condition.
pub(crate) fn smallest_posting<'g>(
    graph: &'g PropertyGraph,
    condition: &Condition,
) -> Option<&'g [NodeId]> {
    match condition {
        Condition::And(a, b) => match (smallest_posting(graph, a), smallest_posting(graph, b)) {
            (Some(a), Some(b)) => Some(if b.len() < a.len() { b } else { a }),
            (a, b) => a.or(b),
        },
        Condition::Compare {
            accessor:
                Accessor::NodeProperty(Position::First | Position::Last | Position::Index(1), key),
            op: CompareOp::Eq,
            value,
        } => graph.nodes_with_property_value(key, value),
        _ => None,
    }
}

/// Recognises a whole plan whose root is a *slicing* γ/τ/π pipeline over a
/// recursive label scan or label-scan join chain (optionally with an
/// endpoint σ between γ and ϕ) — the shapes where lazy top-k enumeration
/// by the `pathalg-pmr` kernel over label CSRs turns a worst-case-exponential
/// evaluation into an output-linear one — and returns the recognised
/// [`pathalg_core::slice::SlicePlan`] so the
/// evaluator need not re-derive it. Returns `None` when the plan must be
/// evaluated by materialising (not sliceable, base not a scan chain, a
/// non-endpoint filter, or an unbounded Walk, whose infinite-answer
/// detection requires driving the expansion — see
/// [`pathalg_core::slice::SlicePlan::lazy_eligible`]).
pub fn choose_pipeline_impl<'a>(
    plan: &'a pathalg_core::expr::PlanExpr,
    recursion: &RecursionConfig,
) -> Option<pathalg_core::slice::SlicePlan<'a>> {
    plan.sliceable_pipeline()
        .filter(|sliced| sliced.lazy_eligible(recursion))
}

/// Estimated fraction of paths satisfying a condition.
pub(crate) fn condition_selectivity(condition: &Condition, stats: &GraphStats) -> f64 {
    match condition {
        Condition::True => 1.0,
        Condition::And(a, b) => condition_selectivity(a, stats) * condition_selectivity(b, stats),
        Condition::Or(a, b) => {
            let sa = condition_selectivity(a, stats);
            let sb = condition_selectivity(b, stats);
            (sa + sb - sa * sb).clamp(0.0, 1.0)
        }
        Condition::Not(c) => 1.0 - condition_selectivity(c, stats),
        Condition::Bound(_) => 0.9,
        Condition::Substr(_, _) => 0.25,
        // Whole-path restrictor predicates: most short paths satisfy them.
        Condition::IsTrail | Condition::IsAcyclic | Condition::IsSimple => 0.8,
        Condition::Compare {
            accessor,
            op,
            value,
        } => {
            use pathalg_core::condition::CompareOp::*;
            let equality = match accessor {
                Accessor::EdgeLabel(_) => value
                    .as_str()
                    .map(|l| stats.edge_label_selectivity(l))
                    .unwrap_or(DEFAULT_PROPERTY_SELECTIVITY),
                Accessor::NodeLabel(_) => value
                    .as_str()
                    .map(|l| {
                        let total = stats.node_count().max(1) as f64;
                        stats.nodes_with_label(l) as f64 / total
                    })
                    .unwrap_or(DEFAULT_PROPERTY_SELECTIVITY),
                Accessor::NodeProperty(Position::First, _)
                | Accessor::NodeProperty(Position::Last, _)
                | Accessor::NodeProperty(Position::Index(_), _)
                | Accessor::EdgeProperty(_, _) => DEFAULT_PROPERTY_SELECTIVITY,
                Accessor::Len => 0.2,
            };
            match op {
                Eq => equality,
                Ne => 1.0 - equality,
                Lt | Le | Gt | Ge => 0.33,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::projection::ProjectionSpec;
    use pathalg_core::ops::recursive::RecursionConfig;
    use pathalg_core::GroupKey;
    use pathalg_graph::fixtures::figure1::figure1_graph;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};

    fn stats() -> GraphStats {
        GraphStats::compute(&figure1_graph())
    }

    fn knows_scan() -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, "Knows"))
    }

    #[test]
    fn leaves_estimate_exact_counts() {
        let s = stats();
        assert_eq!(estimate(&PlanExpr::nodes(), &s).cardinality, 7.0);
        assert_eq!(estimate(&PlanExpr::edges(), &s).cardinality, 11.0);
    }

    #[test]
    fn label_selection_uses_real_selectivity() {
        let s = stats();
        let est = estimate(&knows_scan(), &s);
        // 4 of 11 edges are Knows.
        assert!((est.cardinality - 4.0).abs() < 1e-6);
        assert!(est.cost > est.cardinality);
    }

    #[test]
    fn condition_selectivities_are_sane() {
        let s = stats();
        assert!(
            (condition_selectivity(&Condition::edge_label(1, "Knows"), &s) - 4.0 / 11.0).abs()
                < 1e-9
        );
        assert_eq!(condition_selectivity(&Condition::True, &s), 1.0);
        let and = Condition::edge_label(1, "Knows").and(Condition::first_property("name", "Moe"));
        assert!(condition_selectivity(&and, &s) < 4.0 / 11.0);
        let or = Condition::edge_label(1, "Knows").or(Condition::edge_label(1, "Likes"));
        let sel_or = condition_selectivity(&or, &s);
        assert!(sel_or > 4.0 / 11.0 && sel_or <= 1.0);
        let not = Condition::edge_label(1, "Knows").not();
        assert!((condition_selectivity(&not, &s) - (1.0 - 4.0 / 11.0)).abs() < 1e-9);
        assert!(condition_selectivity(&Condition::first_label("Person"), &s) > 0.5);
    }

    #[test]
    fn pushed_down_plans_cost_less() {
        // Figure 6: filtering before the join must be estimated cheaper than
        // filtering after it.
        let s = stats();
        let filter = Condition::first_property("name", "Moe");
        let unpushed = knows_scan().join(knows_scan()).select(filter.clone());
        let pushed = knows_scan().select(filter).join(knows_scan());
        let a = estimate(&unpushed, &s);
        let b = estimate(&pushed, &s);
        assert!(b.cost < a.cost, "pushed {} vs unpushed {}", b.cost, a.cost);
        // Cardinality of the final result is (approximately) the same.
        assert!((a.cardinality - b.cardinality).abs() < 1e-6);
    }

    #[test]
    fn restricted_recursion_is_estimated_cheaper_than_walks() {
        let s = GraphStats::compute(&snb_like_graph(&SnbConfig::scale(50, 4)));
        let base = knows_scan();
        let walk = base.clone().recursive(PathSemantics::Walk);
        let shortest = base.recursive(PathSemantics::Shortest);
        let cw = estimate(&walk, &s);
        let cs = estimate(&shortest, &s);
        assert!(cs.cost <= cw.cost);
    }

    #[test]
    fn closure_estimates_separate_blowups_from_saturating_closures() {
        use pathalg_graph::generator::structured::{chain_graph, complete_graph};
        let recursion = RecursionConfig::default();
        // A complete graph's label subgraph is cyclic with fan-out n−1: the
        // model must predict a blow-up for walks/trails.
        let dense = GraphStats::compute(&complete_graph(6, "k"));
        let est = estimate_closure(&dense, &["k"], PathSemantics::Trail, &recursion);
        assert!(est.cyclic);
        assert!(est.expansion > 1.0);
        assert!(est.blows_up());
        assert!(est.paths > est.base);
        // A chain saturates: no cycle, expansion ≤ 1.
        let sparse = GraphStats::compute(&chain_graph(30, "k"));
        let est = estimate_closure(&sparse, &["k"], PathSemantics::Trail, &recursion);
        assert!(!est.cyclic);
        assert!(!est.blows_up());
        // Chains multiply per-hop expansions into the segment fan-out.
        let f = GraphStats::compute(&figure1_graph());
        let est = estimate_closure(
            &f,
            &["Likes", "Has_creator"],
            PathSemantics::Simple,
            &recursion,
        );
        assert!(est.base > 0.0);
        assert!(est.expansion > 0.0);
        // A length bound caps the horizon in segment units.
        let bounded = RecursionConfig::with_max_length(4);
        let est_bounded = estimate_closure(&dense, &["k", "k"], PathSemantics::Walk, &bounded);
        assert!(est_bounded.levels <= 2.0);
    }

    #[test]
    fn pipeline_recogniser_accepts_slicing_shapes_only() {
        use pathalg_core::ops::projection::Take;

        let recursion = RecursionConfig::default();
        let sliced = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        assert!(choose_pipeline_impl(&sliced, &recursion).is_some());
        // π(*,*,*) over γ∅ (the ALL selector) slices nothing; over γST
        // (ALL SHORTEST WALK's optimized form) it regroups by target.
        let all = |key| {
            knows_scan()
                .recursive(PathSemantics::Trail)
                .group_by(key)
                .project(ProjectionSpec::all())
        };
        assert!(choose_pipeline_impl(&all(GroupKey::Empty), &recursion).is_none());
        assert!(choose_pipeline_impl(&all(GroupKey::SourceTarget), &recursion).is_some());
        // Unbounded Walk must keep the materialised infinite-answer check;
        // with a bound the lazy pipeline applies.
        let walk = knows_scan()
            .recursive(PathSemantics::Walk)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        assert!(choose_pipeline_impl(&walk, &RecursionConfig::unbounded()).is_none());
        assert!(choose_pipeline_impl(&walk, &RecursionConfig::with_max_length(4)).is_some());
    }

    #[test]
    fn pair_statistics_sharpen_chain_estimates() {
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;
        let recursion = RecursionConfig::default();
        // a: u→v, b: v→u — each label subgraph acyclic, the (a/b)+ composite
        // cyclic. Whole-graph cyclicity agrees here; the pair table is what
        // proves it per chain.
        let mut builder = GraphBuilder::new();
        let u = builder.add_node("N", Vec::<(&str, Value)>::new());
        let v = builder.add_node("N", Vec::<(&str, Value)>::new());
        builder.add_edge(u, v, "a", Vec::<(&str, Value)>::new());
        builder.add_edge(v, u, "b", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&builder.build());
        let est = estimate_closure(&stats, &["a", "b"], PathSemantics::Trail, &recursion);
        assert!(est.cyclic, "the composite 2-cycle must be seen");
        // The reverse: a cyclic graph whose (a/b) composite is empty — the
        // whole-graph fallback would call this cyclic, the pair table knows
        // better and the estimate stays saturating.
        let mut builder = GraphBuilder::new();
        let x = builder.add_node("N", Vec::<(&str, Value)>::new());
        let y = builder.add_node("N", Vec::<(&str, Value)>::new());
        let w1 = builder.add_node("N", Vec::<(&str, Value)>::new());
        let w2 = builder.add_node("N", Vec::<(&str, Value)>::new());
        builder.add_edge(x, y, "a", Vec::<(&str, Value)>::new());
        builder.add_edge(x, y, "b", Vec::<(&str, Value)>::new());
        builder.add_edge(w1, w2, "c", Vec::<(&str, Value)>::new());
        builder.add_edge(w2, w1, "c", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&builder.build());
        assert!(stats.is_cyclic());
        let est = estimate_closure(&stats, &["a", "b"], PathSemantics::Walk, &recursion);
        assert!(!est.cyclic, "the empty (a,b) composite cannot cycle");
        assert!(!est.blows_up());
    }

    #[test]
    fn plan_closure_walk_finds_every_phi_node() {
        use pathalg_graph::generator::structured::complete_graph;
        let s = GraphStats::compute(&complete_graph(6, "Knows"));
        let recursion = RecursionConfig::default();
        // No ϕ node: nothing to estimate.
        assert!(estimate_plan_closures(&knows_scan(), &s, &recursion).is_empty());
        // A sliced pipeline over a blow-up closure: one estimate, exploding.
        let pipeline = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        let ests = estimate_plan_closures(&pipeline, &s, &recursion);
        assert_eq!(ests.len(), 1);
        assert!(ests[0].0.starts_with("ϕ"));
        assert!(ests[0].1.blows_up());
        // A union of two closures reports both.
        let two = knows_scan()
            .recursive(PathSemantics::Trail)
            .union(knows_scan().recursive(PathSemantics::Acyclic));
        assert_eq!(estimate_plan_closures(&two, &s, &recursion).len(), 2);
    }

    #[test]
    fn an_endpoint_sigma_prices_only_the_anchored_closure() {
        let s = GraphStats::compute(&snb_like_graph(&SnbConfig::scale(200, 11)));
        let bounded = RecursionConfig {
            max_length: Some(5),
            max_paths: None,
        };
        let anchor =
            Condition::first_property("name", "Lisa2").and(Condition::last_label("Person"));
        let selectivity = condition_selectivity(&Condition::first_property("name", "Lisa2"), &s)
            * condition_selectivity(&Condition::last_label("Person"), &s);
        assert!(selectivity < 1.0);
        for semantics in [PathSemantics::Walk, PathSemantics::Shortest] {
            let phi = knows_scan().recursive(semantics);
            let bare = estimate_plan_closures(&phi, &s, &bounded);
            let anchored =
                estimate_plan_closures(&phi.clone().select(anchor.clone()), &s, &bounded);
            assert_eq!(anchored.len(), 1);
            assert_eq!(anchored[0].0, bare[0].0, "the ϕ itself is reported");
            assert!(
                (anchored[0].1.paths - bare[0].1.paths * selectivity).abs()
                    <= 1e-9 * bare[0].1.paths,
                "{semantics:?}: {} vs {} × {selectivity}",
                anchored[0].1.paths,
                bare[0].1.paths
            );
            assert_eq!(anchored[0].1.blows_up(), bare[0].1.blows_up());
        }
        // Unbounded Walk evaluates the σ above the closure: not scaled.
        let unbounded = RecursionConfig::default();
        assert_eq!(unbounded.max_length, None);
        let walk = knows_scan().recursive(PathSemantics::Walk);
        assert_eq!(
            estimate_plan_closures(&walk.clone().select(anchor), &s, &unbounded),
            estimate_plan_closures(&walk, &s, &unbounded)
        );
        // A σ that does not split (it reads an edge) is not scaled either.
        let interior = knows_scan()
            .recursive(PathSemantics::Shortest)
            .select(Condition::edge_label(1, "Knows"));
        assert_eq!(
            estimate_plan_closures(&interior, &s, &bounded)[0].1,
            estimate_plan_closures(
                &knows_scan().recursive(PathSemantics::Shortest),
                &s,
                &bounded
            )[0]
            .1
        );
    }

    /// An anchor value many nodes hold: with the graph, admission prices
    /// the anchored ϕ at the value's posting share (15 of 20 nodes), not
    /// the flat 0.1, and the engine's decision records the same estimate.
    #[test]
    fn a_posting_anchor_is_priced_at_its_posting_share() {
        use crate::exec::{EngineEvaluator, ExecutionConfig};
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;

        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..20)
            .map(|i| {
                b.add_node(
                    "Person",
                    [("team", if i % 4 == 0 { "red" } else { "blue" })],
                )
            })
            .collect();
        for i in 0..20 {
            for hop in [1, 3] {
                b.add_edge(
                    nodes[i],
                    nodes[(i + hop) % 20],
                    "Knows",
                    Vec::<(&str, Value)>::new(),
                );
            }
        }
        let g = b.build();
        let s = GraphStats::compute(&g);
        let recursion = RecursionConfig::with_max_length(4);
        let phi = knows_scan().recursive(PathSemantics::Shortest);
        let anchored = phi
            .clone()
            .select(Condition::first_property("team", "blue"));
        let bare = estimate_plan_closures(&phi, &s, &recursion)[0].1.paths;
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b;
        let stats_only = estimate_plan_closures(&anchored, &s, &recursion)[0].1;
        assert!(close(stats_only.paths, bare * 0.1), "{stats_only}");
        let mut priced = Vec::new();
        collect_plan_closures(&anchored, &s, Some(&g), &recursion, &mut priced);
        let [(_, priced)] = priced[..] else {
            panic!("one ϕ, one estimate");
        };
        assert!(close(priced.paths, bare * 0.75), "{priced}");
        let mut engine =
            EngineEvaluator::new(&g, recursion, ExecutionConfig::default()).with_graph_stats(&s);
        engine.eval_paths(&anchored).unwrap();
        assert_eq!(engine.decisions()[0].estimate, Some(priced));
    }

    #[test]
    fn extended_operators_add_their_input_cost() {
        let s = stats();
        let plan = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .project(ProjectionSpec::all());
        let est = estimate(&plan, &s);
        assert!(est.cost > 0.0);
        assert!(est.cardinality > 0.0);
        let inner = estimate(&knows_scan().recursive(PathSemantics::Trail), &s);
        assert!(est.cost > inner.cost);
    }
}
