//! Rule-based logical optimization of algebra plans (Section 7.3).
//!
//! Having a query algebra is what makes plan rewriting possible in the first
//! place; this module provides the rewrites the paper discusses:
//!
//! * `rules::PushdownSelection` — the classical predicate pushdown of
//!   Figure 6: selections distribute over unions, and selections that only
//!   constrain the first (resp. last) node of a path move below a join into
//!   its left (resp. right) input.
//! * `rules::SplitConjunctiveSelection` — σ(a ∧ b) → σa(σb(·)) above joins
//!   and unions, which exposes more pushdown opportunities.
//! * `rules::WalkToShortestRewrite` — the ϕWalk → ϕShortest rewrite of
//!   Section 7.3: `ANY SHORTEST WALK` / `ALL SHORTEST WALK` pipelines are
//!   answered with the shortest-path semantics, turning a potentially
//!   non-terminating plan into a terminating one.
//! * `rules::RemoveRedundantOrderBy` — drops order-by operators whose
//!   ranking cannot influence the downstream projection (the paper's
//!   "redundant and unnecessarily complex" example at the end of Section 6).
//!
//! The [`Optimizer`] applies a rule set bottom-up until a fixpoint (with a
//! pass budget so a misbehaving rule cannot loop forever).

pub mod rules;

use crate::expr::PlanExpr;
use rules::RewriteRule;
use std::fmt;

/// A record of one applied rewrite, for EXPLAIN-style output.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RewriteEvent {
    /// Name of the rule that fired.
    pub rule: &'static str,
    /// The expression fragment before the rewrite (inline notation).
    pub before: String,
    /// The fragment after the rewrite.
    pub after: String,
}

impl fmt::Display for RewriteEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}  ==>  {}", self.rule, self.before, self.after)
    }
}

/// A rule-based plan optimizer.
pub struct Optimizer {
    rules: Vec<Box<dyn RewriteRule>>,
    max_passes: usize,
}

impl Optimizer {
    /// An optimizer with the default rule set (all rules described in the
    /// module documentation, in a sensible order).
    pub fn new() -> Self {
        Self {
            rules: rules::default_rules(),
            max_passes: 16,
        }
    }

    /// Optimizes a plan, returning the rewritten plan.
    pub fn optimize(&self, plan: &PlanExpr) -> PlanExpr {
        self.optimize_with_trace(plan).0
    }

    /// Optimizes a plan and returns the list of rewrites that fired.
    pub fn optimize_with_trace(&self, plan: &PlanExpr) -> (PlanExpr, Vec<RewriteEvent>) {
        let mut current = plan.clone();
        let mut trace = Vec::new();
        for _ in 0..self.max_passes {
            let mut changed = false;
            for rule in &self.rules {
                let rewritten = apply_everywhere(rule.as_ref(), &current, &mut trace);
                if rewritten != current {
                    current = rewritten;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        (current, trace)
    }
}

impl Default for Optimizer {
    fn default() -> Self {
        Self::new()
    }
}

/// Applies a rule at every node of the tree, bottom-up, collecting trace
/// events for each site where the rule fired.
fn apply_everywhere(
    rule: &dyn RewriteRule,
    expr: &PlanExpr,
    trace: &mut Vec<RewriteEvent>,
) -> PlanExpr {
    // First rewrite the children.
    let rebuilt = match expr {
        PlanExpr::Nodes | PlanExpr::Edges => expr.clone(),
        PlanExpr::Selection { condition, input } => PlanExpr::Selection {
            condition: condition.clone(),
            input: Box::new(apply_everywhere(rule, input, trace)),
        },
        PlanExpr::Join { left, right } => PlanExpr::Join {
            left: Box::new(apply_everywhere(rule, left, trace)),
            right: Box::new(apply_everywhere(rule, right, trace)),
        },
        PlanExpr::Union { left, right } => PlanExpr::Union {
            left: Box::new(apply_everywhere(rule, left, trace)),
            right: Box::new(apply_everywhere(rule, right, trace)),
        },
        PlanExpr::Recursive { semantics, input } => PlanExpr::Recursive {
            semantics: *semantics,
            input: Box::new(apply_everywhere(rule, input, trace)),
        },
        PlanExpr::GroupBy { key, input } => PlanExpr::GroupBy {
            key: *key,
            input: Box::new(apply_everywhere(rule, input, trace)),
        },
        PlanExpr::OrderBy { key, input } => PlanExpr::OrderBy {
            key: *key,
            input: Box::new(apply_everywhere(rule, input, trace)),
        },
        PlanExpr::Projection { spec, input } => PlanExpr::Projection {
            spec: *spec,
            input: Box::new(apply_everywhere(rule, input, trace)),
        },
    };
    // Then try the rule at this node.
    match rule.apply(&rebuilt) {
        Some(rewritten) if rewritten != rebuilt => {
            trace.push(RewriteEvent {
                rule: rule.name(),
                before: rebuilt.to_string(),
                after: rewritten.to_string(),
            });
            rewritten
        }
        _ => rebuilt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::eval::{EvalConfig, Evaluator};
    use crate::gql::{translate, Restrictor, Selector};
    use crate::ops::projection::{ProjectionSpec, Take};
    use crate::ops::recursive::PathSemantics;
    use crate::GroupKey;
    use crate::OrderKey;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn knows_scan() -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, "Knows"))
    }

    #[test]
    fn figure6_pushdown_moves_the_filter_below_the_join() {
        // Figure 6a: σ first.name="Moe" ( σKnows(E) ⋈ σKnows(E) )
        let plan = knows_scan()
            .join(knows_scan())
            .select(Condition::first_property("name", "Moe"));
        let optimizer = Optimizer::new();
        let (optimized, trace) = optimizer.optimize_with_trace(&plan);
        // Figure 6b: the selection sits on the left join input.
        match &optimized {
            PlanExpr::Join { left, .. } => {
                assert!(
                    left.to_string().contains("first.name"),
                    "selection should be pushed into the left input, got {optimized}"
                );
            }
            other => panic!("expected a join at the root, got {other}"),
        }
        assert!(trace.iter().any(|e| e.rule == "pushdown-selection"));

        // The rewrite preserves the result.
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        let before = ev.eval_paths(&plan).unwrap();
        let after = ev.eval_paths(&optimized).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn pushdown_distributes_over_union() {
        let plan = knows_scan()
            .union(knows_scan())
            .select(Condition::first_property("name", "Moe"));
        let optimized = Optimizer::new().optimize(&plan);
        match &optimized {
            PlanExpr::Union { left, right } => {
                assert!(left.to_string().contains("first.name"));
                assert!(right.to_string().contains("first.name"));
            }
            other => panic!("expected a union at the root, got {other}"),
        }
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        assert_eq!(
            ev.eval_paths(&plan).unwrap(),
            ev.eval_paths(&optimized).unwrap()
        );
    }

    #[test]
    fn conjunctive_filters_are_split_and_routed_to_both_join_sides() {
        let plan = knows_scan().join(knows_scan()).select(
            Condition::first_property("name", "Moe").and(Condition::last_property("name", "Apu")),
        );
        let optimized = Optimizer::new().optimize(&plan);
        match &optimized {
            PlanExpr::Join { left, right } => {
                assert!(left.to_string().contains("first.name"));
                assert!(right.to_string().contains("last.name"));
            }
            other => panic!("expected a join at the root, got {other}"),
        }
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        assert_eq!(
            ev.eval_paths(&plan).unwrap(),
            ev.eval_paths(&optimized).unwrap()
        );
    }

    #[test]
    fn any_shortest_walk_is_rewritten_to_shortest_semantics() {
        // π(*,*,1)(τA(γST(ϕWalk(RE)))) → π(*,*,1)(γST(ϕShortest(RE))).
        let plan = translate(Selector::AnyShortest, Restrictor::Walk, knows_scan());
        let (optimized, trace) = Optimizer::new().optimize_with_trace(&plan);
        assert!(
            optimized.to_string().contains("ϕSHORTEST"),
            "got {optimized}"
        );
        assert!(!optimized.to_string().contains("ϕWALK"));
        assert!(trace.iter().any(|e| e.rule == "walk-to-shortest"));

        // The unoptimized plan cannot even run unbounded on the cyclic Figure 1
        // graph, while the optimized one terminates — exactly the paper's point.
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph); // unbounded walk
        assert!(ev.eval_paths(&plan).is_err());
        let shortest = ev.eval_paths(&optimized).unwrap();
        assert_eq!(shortest.len(), 9);

        // With a bound, both agree.
        let mut ev = Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(6));
        let bounded = ev.eval_paths(&plan).unwrap();
        assert_eq!(bounded, shortest);
    }

    #[test]
    fn all_shortest_walk_is_rewritten_and_equivalent() {
        let plan = translate(Selector::AllShortest, Restrictor::Walk, knows_scan());
        let optimized = Optimizer::new().optimize(&plan);
        assert!(optimized.to_string().contains("ϕSHORTEST"));
        let f = Figure1::new();
        let mut ev = Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(6));
        assert_eq!(
            ev.eval_paths(&plan).unwrap(),
            ev.eval_paths(&optimized).unwrap()
        );
    }

    #[test]
    fn walk_rewrite_does_not_touch_other_restrictors() {
        let plan = translate(Selector::AnyShortest, Restrictor::Trail, knows_scan());
        let optimized = Optimizer::new().optimize(&plan);
        assert!(optimized.to_string().contains("ϕTRAIL"));
    }

    #[test]
    fn redundant_order_by_over_trivial_grouping_is_removed() {
        // The Section 6 example: τPG over γ∅ is pointless because there is a
        // single partition with a single group.
        let plan = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::Empty)
            .order_by(OrderKey::PartitionGroup)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let (optimized, trace) = Optimizer::new().optimize_with_trace(&plan);
        assert!(!optimized.to_string().contains("τPG"), "got {optimized}");
        assert!(trace.iter().any(|e| e.rule == "remove-redundant-order-by"));
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        assert_eq!(
            ev.eval_paths(&plan).unwrap(),
            ev.eval_paths(&optimized).unwrap()
        );
    }

    #[test]
    fn order_by_before_project_all_is_removed() {
        let plan = knows_scan()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::PartitionGroupPath)
            .project(ProjectionSpec::all());
        let optimized = Optimizer::new().optimize(&plan);
        assert!(!optimized.to_string().contains("τ"), "got {optimized}");
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        assert_eq!(
            ev.eval_paths(&plan).unwrap(),
            ev.eval_paths(&optimized).unwrap()
        );
    }

    #[test]
    fn optimizer_is_idempotent() {
        let plan = knows_scan()
            .join(knows_scan())
            .select(Condition::first_property("name", "Moe"));
        let optimizer = Optimizer::new();
        let once = optimizer.optimize(&plan);
        let twice = optimizer.optimize(&once);
        assert_eq!(once, twice);
    }

    #[test]
    fn optimizer_leaves_already_optimal_plans_alone() {
        let plan = knows_scan();
        let (optimized, trace) = Optimizer::new().optimize_with_trace(&plan);
        assert_eq!(optimized, plan);
        assert!(trace.is_empty());
    }

    #[test]
    fn rule_names_are_exposed_and_events_render() {
        let plan = knows_scan()
            .union(knows_scan())
            .select(Condition::first_property("name", "Moe"));
        let (_, trace) = Optimizer::new().optimize_with_trace(&plan);
        assert!(trace.iter().any(|e| e.rule == "pushdown-selection"));
        assert!(trace[0].to_string().contains("==>"));
    }
}
