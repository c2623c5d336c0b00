//! Algebra expressions as logical plans.
//!
//! An evaluation tree of path-algebra operators *is* a logical plan for a path
//! query (Section 7 of the paper); [`PlanExpr`] is that tree. Leaves are the
//! `Nodes(G)` and `Edges(G)` atoms, inner nodes are the algebra operators.
//!
//! The builder methods mirror how the paper writes expressions, so the plan of
//! Figure 3 reads almost literally:
//!
//! ```
//! use pathalg_core::condition::Condition;
//! use pathalg_core::expr::PlanExpr;
//!
//! let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
//! let fof = knows.clone().join(knows.clone());
//! let plan = knows.union(fof).select(Condition::first_property("name", "Moe"));
//! assert_eq!(plan.operator_count(), 9);
//! ```

use crate::condition::Condition;
use crate::ops::group_by::GroupKey;
use crate::ops::order_by::OrderKey;
use crate::ops::projection::ProjectionSpec;
use crate::ops::recursive::PathSemantics;
use std::fmt;

/// A logical plan: an evaluation tree of path-algebra operators.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanExpr {
    /// The `Nodes(G)` atom: all paths of length zero.
    Nodes,
    /// The `Edges(G)` atom: all paths of length one.
    Edges,
    /// σ condition (input).
    Selection {
        /// The filter condition.
        condition: Condition,
        /// The operand.
        input: Box<PlanExpr>,
    },
    /// left ⋈ right.
    Join {
        /// Left operand.
        left: Box<PlanExpr>,
        /// Right operand.
        right: Box<PlanExpr>,
    },
    /// left ∪ right.
    Union {
        /// Left operand.
        left: Box<PlanExpr>,
        /// Right operand.
        right: Box<PlanExpr>,
    },
    /// ϕ semantics (input).
    Recursive {
        /// The path semantics (restrictor) of this ϕ.
        semantics: PathSemantics,
        /// The operand.
        input: Box<PlanExpr>,
    },
    /// γ key (input): produces a solution space.
    GroupBy {
        /// The grouping parameter ψ.
        key: GroupKey,
        /// The operand (must produce a set of paths).
        input: Box<PlanExpr>,
    },
    /// τ key (input): re-ranks a solution space.
    OrderBy {
        /// The ordering parameter θ.
        key: OrderKey,
        /// The operand (must produce a solution space).
        input: Box<PlanExpr>,
    },
    /// π spec (input): slices a solution space back into a set of paths.
    Projection {
        /// The (#P, #G, #A) parameter.
        spec: ProjectionSpec,
        /// The operand (must produce a solution space).
        input: Box<PlanExpr>,
    },
}

impl PlanExpr {
    /// The `Nodes(G)` leaf.
    pub fn nodes() -> Self {
        PlanExpr::Nodes
    }

    /// The `Edges(G)` leaf.
    pub fn edges() -> Self {
        PlanExpr::Edges
    }

    /// Wraps the expression in a selection.
    pub fn select(self, condition: Condition) -> Self {
        PlanExpr::Selection {
            condition,
            input: Box::new(self),
        }
    }

    /// Joins this expression with another.
    pub fn join(self, right: PlanExpr) -> Self {
        PlanExpr::Join {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Unions this expression with another.
    pub fn union(self, right: PlanExpr) -> Self {
        PlanExpr::Union {
            left: Box::new(self),
            right: Box::new(right),
        }
    }

    /// Wraps the expression in the recursive operator under `semantics`.
    pub fn recursive(self, semantics: PathSemantics) -> Self {
        PlanExpr::Recursive {
            semantics,
            input: Box::new(self),
        }
    }

    /// Wraps the expression in a group-by.
    pub fn group_by(self, key: GroupKey) -> Self {
        PlanExpr::GroupBy {
            key,
            input: Box::new(self),
        }
    }

    /// Wraps the expression in an order-by.
    pub fn order_by(self, key: OrderKey) -> Self {
        PlanExpr::OrderBy {
            key,
            input: Box::new(self),
        }
    }

    /// Wraps the expression in a projection.
    pub fn project(self, spec: ProjectionSpec) -> Self {
        PlanExpr::Projection {
            spec,
            input: Box::new(self),
        }
    }

    /// A short, human-readable name of the root operator.
    pub(crate) fn operator_name(&self) -> &'static str {
        match self {
            PlanExpr::Nodes => "Nodes(G)",
            PlanExpr::Edges => "Edges(G)",
            PlanExpr::Selection { .. } => "Selection",
            PlanExpr::Join { .. } => "Join",
            PlanExpr::Union { .. } => "Union",
            PlanExpr::Recursive { .. } => "Recursive",
            PlanExpr::GroupBy { .. } => "GroupBy",
            PlanExpr::OrderBy { .. } => "OrderBy",
            PlanExpr::Projection { .. } => "Projection",
        }
    }

    /// The direct children of this operator.
    pub fn children(&self) -> Vec<&PlanExpr> {
        match self {
            PlanExpr::Nodes | PlanExpr::Edges => vec![],
            PlanExpr::Selection { input, .. }
            | PlanExpr::Recursive { input, .. }
            | PlanExpr::GroupBy { input, .. }
            | PlanExpr::OrderBy { input, .. }
            | PlanExpr::Projection { input, .. } => vec![input],
            PlanExpr::Join { left, right } | PlanExpr::Union { left, right } => {
                vec![left, right]
            }
        }
    }

    /// Number of operators in the tree (including leaves).
    pub fn operator_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.operator_count())
            .sum::<usize>()
    }

    /// True if the expression produces a *solution space* (its root is γ or τ)
    /// rather than a set of paths.
    pub(crate) fn produces_solution_space(&self) -> bool {
        matches!(self, PlanExpr::GroupBy { .. } | PlanExpr::OrderBy { .. })
    }

    /// Checks that solution spaces and path sets are used consistently:
    /// γ takes paths, τ and π take a solution space, everything else takes
    /// paths. Returns the first offending operator if any.
    pub fn type_check(&self) -> Result<(), String> {
        match self {
            PlanExpr::Nodes | PlanExpr::Edges => Ok(()),
            PlanExpr::Selection { input, .. }
            | PlanExpr::Recursive { input, .. }
            | PlanExpr::GroupBy { input, .. } => {
                if input.produces_solution_space() {
                    return Err(format!(
                        "{} expects a set of paths but its input {} produces a solution space",
                        self.operator_name(),
                        input.operator_name()
                    ));
                }
                input.type_check()
            }
            PlanExpr::Join { left, right } | PlanExpr::Union { left, right } => {
                for side in [left, right] {
                    if side.produces_solution_space() {
                        return Err(format!(
                            "{} expects sets of paths but {} produces a solution space",
                            self.operator_name(),
                            side.operator_name()
                        ));
                    }
                }
                left.type_check()?;
                right.type_check()
            }
            PlanExpr::OrderBy { input, .. } | PlanExpr::Projection { input, .. } => {
                if !input.produces_solution_space() {
                    return Err(format!(
                        "{} expects a solution space but its input {} produces a set of paths",
                        self.operator_name(),
                        input.operator_name()
                    ));
                }
                input.type_check()
            }
        }
    }
}

impl fmt::Display for PlanExpr {
    /// Renders the expression in the paper's inline notation, e.g.
    /// `π(*,*,1)(τA(γST(ϕTRAIL(σ[label(edge(1)) = "Knows"](Edges(G))))))`.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PlanExpr::Nodes => write!(f, "Nodes(G)"),
            PlanExpr::Edges => write!(f, "Edges(G)"),
            PlanExpr::Selection { condition, input } => {
                write!(f, "σ[{condition}]({input})")
            }
            PlanExpr::Join { left, right } => write!(f, "({left} ⋈ {right})"),
            PlanExpr::Union { left, right } => write!(f, "({left} ∪ {right})"),
            PlanExpr::Recursive { semantics, input } => {
                write!(f, "ϕ{}({input})", semantics.keyword())
            }
            PlanExpr::GroupBy { key, input } => write!(f, "γ{key}({input})"),
            PlanExpr::OrderBy { key, input } => write!(f, "τ{key}({input})"),
            PlanExpr::Projection { spec, input } => write!(f, "π{spec}({input})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::projection::Take;

    fn figure2_plan() -> PlanExpr {
        // σ first.name="Moe" ∧ last.name="Apu" ( ϕ(σKnows(Edges)) ∪ ϕ(σLikes(Edges) ⋈ σHas_creator(Edges)) )
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let likes = PlanExpr::edges().select(Condition::edge_label(1, "Likes"));
        let creator = PlanExpr::edges().select(Condition::edge_label(1, "Has_creator"));
        knows
            .recursive(PathSemantics::Simple)
            .union(likes.join(creator).recursive(PathSemantics::Simple))
            .select(
                Condition::first_property("name", "Moe")
                    .and(Condition::last_property("name", "Apu")),
            )
    }

    #[test]
    fn builders_produce_the_expected_shape() {
        let plan = figure2_plan();
        assert_eq!(plan.operator_name(), "Selection");
        assert_eq!(plan.operator_count(), 11);
        plan.type_check().unwrap();
    }

    #[test]
    fn children_and_counts() {
        let leaf = PlanExpr::nodes();
        assert!(leaf.children().is_empty());
        assert_eq!(leaf.operator_count(), 1);
        let join = PlanExpr::edges().join(PlanExpr::edges());
        assert_eq!(join.children().len(), 2);
        assert_eq!(join.operator_count(), 3);
    }

    #[test]
    fn type_check_accepts_the_extended_pipeline() {
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        plan.type_check().unwrap();
        assert!(!plan.produces_solution_space());
    }

    #[test]
    fn type_check_rejects_misplaced_operators() {
        // order-by directly over a path set.
        let bad = PlanExpr::edges().order_by(OrderKey::Path);
        assert!(bad.type_check().is_err());
        // projection directly over a path set.
        let bad = PlanExpr::edges().project(ProjectionSpec::all());
        assert!(bad.type_check().is_err());
        // selection over a solution space.
        let bad = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .select(Condition::True);
        assert!(bad.type_check().is_err());
        // join of a solution space.
        let bad = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .join(PlanExpr::edges());
        assert!(bad.type_check().is_err());
        // recursive over a solution space.
        let bad = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .recursive(PathSemantics::Walk);
        assert!(bad.type_check().is_err());
        // group-by over a solution space (γ of γ).
        let bad = PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .group_by(GroupKey::Source);
        assert!(bad.type_check().is_err());
    }

    #[test]
    fn solution_space_detection() {
        assert!(PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .produces_solution_space());
        assert!(PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .order_by(OrderKey::Path)
            .produces_solution_space());
        assert!(!PlanExpr::edges().produces_solution_space());
        assert!(!PlanExpr::edges()
            .group_by(GroupKey::Empty)
            .project(ProjectionSpec::all())
            .produces_solution_space());
    }

    #[test]
    fn display_uses_paper_notation() {
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::SourceTarget)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let text = plan.to_string();
        assert!(text.starts_with("π(*,*,1)(τA(γST(ϕTRAIL(σ["));
        assert!(text.contains("Edges(G)"));
        let fig2 = figure2_plan().to_string();
        assert!(fig2.contains("∪"));
        assert!(fig2.contains("⋈"));
    }

    #[test]
    fn equality_is_structural() {
        assert_eq!(figure2_plan(), figure2_plan());
        assert_ne!(figure2_plan(), PlanExpr::edges());
    }
}
