//! The individual rewrite rules used by the [`crate::optimizer::Optimizer`].
//!
//! Every rule is a small, local, semantics-preserving pattern match on a
//! [`PlanExpr`] node; the optimizer driver applies them bottom-up until a
//! fixpoint. Each rule documents why it is sound.

use crate::condition::Condition;
use crate::expr::PlanExpr;
use crate::ops::group_by::GroupKey;
use crate::ops::order_by::OrderKey;
use crate::ops::projection::{ProjectionSpec, Take};
use crate::ops::recursive::PathSemantics;

/// A local plan-rewrite rule. Rules are stateless and shared by reference
/// from concurrent planning threads (the query service plans under a lock
/// but hands `Optimizer` around inside `Sync` containers), hence the
/// `Send + Sync` bound.
pub(crate) trait RewriteRule: Send + Sync {
    /// A stable, kebab-case rule name, used in EXPLAIN traces.
    fn name(&self) -> &'static str;
    /// Attempts to rewrite the given node. Returning `None` (or an expression
    /// equal to the input) means the rule does not apply here.
    fn apply(&self, expr: &PlanExpr) -> Option<PlanExpr>;
}

/// The default rule set, in application order.
pub(crate) fn default_rules() -> Vec<Box<dyn RewriteRule>> {
    vec![
        Box::new(SplitConjunctiveSelection),
        Box::new(PushdownSelection),
        Box::new(WalkToShortestRewrite),
        Box::new(RemoveRedundantOrderBy),
    ]
}

/// σ(a ∧ b)(X) → σa(σb(X)) when `X` is a join or a union.
///
/// Splitting is always sound (both sides keep exactly the paths satisfying
/// `a ∧ b`); it is only *useful* when the conjuncts can subsequently be pushed
/// in different directions, so the rule fires only above joins and unions to
/// avoid churning filters that sit directly on a scan.
pub(crate) struct SplitConjunctiveSelection;

impl RewriteRule for SplitConjunctiveSelection {
    fn name(&self) -> &'static str {
        "split-conjunctive-selection"
    }

    fn apply(&self, expr: &PlanExpr) -> Option<PlanExpr> {
        let PlanExpr::Selection { condition, input } = expr else {
            return None;
        };
        if !matches!(**input, PlanExpr::Join { .. } | PlanExpr::Union { .. }) {
            return None;
        }
        let Condition::And(a, b) = condition else {
            return None;
        };
        Some(
            input
                .as_ref()
                .clone()
                .select((**b).clone())
                .select((**a).clone()),
        )
    }
}

/// Predicate pushdown (Figure 6 of the paper).
///
/// * `σc(A ∪ B) → σc(A) ∪ σc(B)` — sound because union is set union and the
///   filter applies path-wise.
/// * `σc(A ⋈ B) → σc(A) ⋈ B` when `c` only constrains the first node of the
///   path — sound because `First(p1 ∘ p2) = First(p1)`.
/// * `σc(A ⋈ B) → A ⋈ σc(B)` when `c` only constrains the last node — sound
///   because `Last(p1 ∘ p2) = Last(p2)`.
pub(crate) struct PushdownSelection;

impl RewriteRule for PushdownSelection {
    fn name(&self) -> &'static str {
        "pushdown-selection"
    }

    fn apply(&self, expr: &PlanExpr) -> Option<PlanExpr> {
        let PlanExpr::Selection { condition, input } = expr else {
            return None;
        };
        match input.as_ref() {
            PlanExpr::Union { left, right } => Some(
                left.as_ref()
                    .clone()
                    .select(condition.clone())
                    .union(right.as_ref().clone().select(condition.clone())),
            ),
            PlanExpr::Join { left, right } => {
                if condition.only_references_first_node() {
                    Some(
                        left.as_ref()
                            .clone()
                            .select(condition.clone())
                            .join(right.as_ref().clone()),
                    )
                } else if condition.only_references_last_node() {
                    Some(
                        left.as_ref()
                            .clone()
                            .join(right.as_ref().clone().select(condition.clone())),
                    )
                } else {
                    None
                }
            }
            _ => None,
        }
    }
}

/// The ϕWalk → ϕShortest rewrite of Section 7.3.
///
/// * `π(*,*,1)(τA(γST(ϕWalk(X)))) → π(*,*,1)(γST(ϕShortest(X)))` — the
///   `ANY SHORTEST WALK` pipeline asks for one minimal-length walk per
///   endpoint pair; ϕShortest computes exactly the minimal-length walks, so
///   picking one per ST-partition is equivalent (the selector is
///   non-deterministic either way).
/// * `π(*,1,*)(τG(γSTL(ϕWalk(X)))) → π(*,*,*)(γST(ϕShortest(X)))` — the
///   `ALL SHORTEST WALK` pipeline keeps the whole minimal-length group per
///   endpoint pair, which is precisely the result of ϕShortest.
///
/// Both rewrites turn a plan that does not terminate on cyclic graphs into
/// one that always terminates.
pub(crate) struct WalkToShortestRewrite;

impl RewriteRule for WalkToShortestRewrite {
    fn name(&self) -> &'static str {
        "walk-to-shortest"
    }

    fn apply(&self, expr: &PlanExpr) -> Option<PlanExpr> {
        let PlanExpr::Projection { spec, input } = expr else {
            return None;
        };
        let PlanExpr::OrderBy {
            key,
            input: ob_input,
        } = input.as_ref()
        else {
            return None;
        };
        let PlanExpr::GroupBy {
            key: gkey,
            input: gb_input,
        } = ob_input.as_ref()
        else {
            return None;
        };
        let PlanExpr::Recursive {
            semantics,
            input: rec_input,
        } = gb_input.as_ref()
        else {
            return None;
        };
        if *semantics != PathSemantics::Walk {
            return None;
        }

        let any_shortest_shape = *key == OrderKey::Path
            && *gkey == GroupKey::SourceTarget
            && *spec == ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
        let all_shortest_shape = *key == OrderKey::Group
            && *gkey == GroupKey::SourceTargetLength
            && *spec == ProjectionSpec::new(Take::All, Take::Count(1), Take::All);

        if any_shortest_shape {
            Some(
                rec_input
                    .as_ref()
                    .clone()
                    .recursive(PathSemantics::Shortest)
                    .group_by(GroupKey::SourceTarget)
                    .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1))),
            )
        } else if all_shortest_shape {
            Some(
                rec_input
                    .as_ref()
                    .clone()
                    .recursive(PathSemantics::Shortest)
                    .group_by(GroupKey::SourceTarget)
                    .project(ProjectionSpec::all()),
            )
        } else {
            None
        }
    }
}

/// Removes order-by operators that cannot influence the final result.
///
/// * `τθ(γ∅(X)) → γ∅(X)` when θ only ranks partitions and/or groups: γ∅
///   produces a single partition with a single group, so ranking them is the
///   "redundant and unnecessarily complex" situation the paper calls out at
///   the end of Section 6.
/// * `π(*,*,*)(τθ(X)) → π(*,*,*)(X)`: a projection that keeps everything is
///   insensitive to order.
pub(crate) struct RemoveRedundantOrderBy;

impl RewriteRule for RemoveRedundantOrderBy {
    fn name(&self) -> &'static str {
        "remove-redundant-order-by"
    }

    fn apply(&self, expr: &PlanExpr) -> Option<PlanExpr> {
        match expr {
            PlanExpr::OrderBy { key, input } if !key.orders_paths() => {
                if let PlanExpr::GroupBy {
                    key: GroupKey::Empty,
                    ..
                } = input.as_ref()
                {
                    return Some(input.as_ref().clone());
                }
                None
            }
            PlanExpr::Projection { spec, input } if *spec == ProjectionSpec::all() => {
                if let PlanExpr::OrderBy {
                    input: ob_input, ..
                } = input.as_ref()
                {
                    return Some(ob_input.as_ref().clone().project(*spec));
                }
                None
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;

    fn knows() -> PlanExpr {
        PlanExpr::edges().select(Condition::edge_label(1, "Knows"))
    }

    #[test]
    fn split_only_fires_above_joins_and_unions() {
        let rule = SplitConjunctiveSelection;
        let cond =
            Condition::first_property("name", "Moe").and(Condition::last_property("name", "Apu"));
        let over_join = knows().join(knows()).select(cond.clone());
        assert!(rule.apply(&over_join).is_some());
        let over_scan = PlanExpr::edges().select(cond);
        assert!(rule.apply(&over_scan).is_none());
        let non_conjunctive = knows().join(knows()).select(Condition::True);
        assert!(rule.apply(&non_conjunctive).is_none());
    }

    #[test]
    fn pushdown_requires_first_or_last_only_conditions_on_joins() {
        let rule = PushdownSelection;
        let join = knows().join(knows());
        let first = join
            .clone()
            .select(Condition::first_property("name", "Moe"));
        assert!(matches!(rule.apply(&first), Some(PlanExpr::Join { .. })));
        let last = join.clone().select(Condition::last_property("name", "Apu"));
        assert!(matches!(rule.apply(&last), Some(PlanExpr::Join { .. })));
        // An edge-label condition constrains the middle of the concatenation:
        // not pushable by this rule.
        let middle = join.clone().select(Condition::edge_label(2, "Knows"));
        assert!(rule.apply(&middle).is_none());
        // Selections over scans are left alone.
        let scan = PlanExpr::edges().select(Condition::first_property("name", "Moe"));
        assert!(rule.apply(&scan).is_none());
    }

    #[test]
    fn walk_to_shortest_only_matches_the_two_table7_shapes() {
        let rule = WalkToShortestRewrite;
        let any_shortest = knows()
            .recursive(PathSemantics::Walk)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        assert!(rule.apply(&any_shortest).is_some());

        // SHORTEST k with k > 1 must not be rewritten (not equivalent).
        let shortest_2 = knows()
            .recursive(PathSemantics::Walk)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(2)));
        assert!(rule.apply(&shortest_2).is_none());

        // Trail pipelines are untouched.
        let trail = knows()
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        assert!(rule.apply(&trail).is_none());

        let all_shortest = knows()
            .recursive(PathSemantics::Walk)
            .group_by(GroupKey::SourceTargetLength)
            .order_by(OrderKey::Group)
            .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All));
        let rewritten = rule.apply(&all_shortest).unwrap();
        assert!(rewritten.to_string().contains("ϕSHORTEST"));
    }

    #[test]
    fn redundant_order_by_detection() {
        let rule = RemoveRedundantOrderBy;
        let trivial = knows()
            .group_by(GroupKey::Empty)
            .order_by(OrderKey::PartitionGroup);
        assert!(rule.apply(&trivial).is_some());
        // τA over γ∅ ranks paths, which a k-limited projection would observe:
        // keep it.
        let path_rank = knows().group_by(GroupKey::Empty).order_by(OrderKey::Path);
        assert!(rule.apply(&path_rank).is_none());
        // τ over a non-trivial grouping: keep it.
        let nontrivial = knows()
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::PartitionGroup);
        assert!(rule.apply(&nontrivial).is_none());
        // π(*,*,*) above any τ drops the τ.
        let take_all = knows()
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::PartitionGroupPath)
            .project(ProjectionSpec::all());
        let rewritten = rule.apply(&take_all).unwrap();
        assert!(!rewritten.to_string().contains("τ"));
        // π(*,*,1) above τ keeps the τ.
        let take_one = knows()
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        assert!(rule.apply(&take_one).is_none());
    }

    #[test]
    fn default_rule_set_is_complete() {
        let names: Vec<_> = default_rules().iter().map(|r| r.name()).collect();
        assert_eq!(
            names,
            vec![
                "split-conjunctive-selection",
                "pushdown-selection",
                "walk-to-shortest",
                "remove-redundant-order-by"
            ]
        );
    }
}
