//! Fluent plan construction: label scans, scan chains, closures, and the
//! Table-7 selector pipeline as chainable combinators.
//!
//! Hand-assembling [`PlanExpr`] trees out of enum variants gets noisy fast —
//! a label scan alone is `PlanExpr::edges().select(Condition::edge_label(1,
//! label))`, and the γ/τ/π pipeline of a selector is four more wrappings.
//! This module is the builder layer the tests, the benches, and the query-IR
//! lowering share, so a plan reads like the paper writes it:
//!
//! ```
//! use pathalg_core::gql::Selector;
//! use pathalg_core::ops::recursive::PathSemantics;
//! use pathalg_core::plan::scan;
//!
//! // π(*,*,1)(τA(γST(ϕTRAIL(σLikes(E) ⋈ σHas_creator(E)))))
//! let plan = scan(":Likes")
//!     .join(scan(":Has_creator"))
//!     .recursive(PathSemantics::Trail)
//!     .with_selector(Selector::AnyShortest);
//! assert!(plan.to_string().starts_with("π(*,*,1)(τA(γST(ϕTRAIL("));
//! ```
//!
//! [`PlanExpr::with_selector`] is the single implementation of the Table-7
//! selector → γ/τ/π templates; [`crate::gql::translate`] and the parser's
//! plan generator both delegate to it, so a selector's pipeline can never
//! drift between the surfaces.

use crate::condition::Condition;
use crate::expr::PlanExpr;
use crate::gql::Selector;
use crate::ops::group_by::GroupKey;
use crate::ops::order_by::OrderKey;
use crate::ops::projection::{ProjectionSpec, Take};

/// A label scan: `σ label(edge(1))=label (Edges(G))`. A leading `:` on the
/// label (GQL spelling, `":Likes"`) is accepted and stripped.
pub fn scan(label: impl AsRef<str>) -> PlanExpr {
    let label = label.as_ref();
    let label = label.strip_prefix(':').unwrap_or(label);
    PlanExpr::edges().select(Condition::edge_label(1, label))
}

/// A left-deep join chain of label scans: `scan(l1) ⋈ scan(l2) ⋈ …`.
/// An empty slice yields the `Nodes(G)` atom (the ⋈ identity on paths of
/// length zero).
pub fn chain<I, S>(labels: I) -> PlanExpr
where
    I: IntoIterator<Item = S>,
    S: AsRef<str>,
{
    let mut iter = labels.into_iter();
    let Some(first) = iter.next() else {
        return PlanExpr::nodes();
    };
    iter.fold(scan(first), |acc, label| acc.join(scan(label)))
}

impl PlanExpr {
    /// Applies the γ/τ/π pipeline of a GQL selector (Table 7) to this
    /// expression. The expression is expected to already produce the matched
    /// path set (ϕ applied where the pattern requires it); this adds only
    /// the selector's group-by / order-by / projection stages.
    pub fn with_selector(self, selector: Selector) -> Self {
        match selector {
            // ALL: π(*,*,*)(γ∅(RE))
            Selector::All => self
                .group_by(GroupKey::Empty)
                .project(ProjectionSpec::all()),
            // ANY SHORTEST: π(*,*,1)(τA(γST(RE)))
            Selector::AnyShortest => self
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Path)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1))),
            // ALL SHORTEST: π(*,1,*)(τG(γSTL(RE)))
            Selector::AllShortest => self
                .group_by(GroupKey::SourceTargetLength)
                .order_by(OrderKey::Group)
                .project(ProjectionSpec::new(Take::All, Take::Count(1), Take::All)),
            // ANY: π(*,*,1)(γST(RE))
            Selector::Any => self
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1))),
            // ANY k: π(*,*,k)(γST(RE))
            Selector::AnyK(k) => self
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(k))),
            // SHORTEST k: π(*,*,k)(τA(γST(RE)))
            Selector::ShortestK(k) => self
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Path)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(k))),
            // SHORTEST k GROUP: π(*,k,*)(τG(γSTL(RE)))
            Selector::ShortestKGroup(k) => self
                .group_by(GroupKey::SourceTargetLength)
                .order_by(OrderKey::Group)
                .project(ProjectionSpec::new(Take::All, Take::Count(k), Take::All)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::recursive::PathSemantics;

    #[test]
    fn scan_strips_the_gql_colon() {
        assert_eq!(scan(":Knows"), scan("Knows"));
        assert_eq!(
            scan("Knows"),
            PlanExpr::edges().select(Condition::edge_label(1, "Knows"))
        );
    }

    #[test]
    fn chain_builds_a_left_deep_join() {
        assert_eq!(
            chain([":Likes", ":Has_creator", ":Knows"]),
            scan("Likes").join(scan("Has_creator")).join(scan("Knows"))
        );
        assert_eq!(chain([":Knows"]), scan("Knows"));
        assert_eq!(chain(Vec::<String>::new()), PlanExpr::nodes());
    }

    #[test]
    fn with_selector_matches_the_table7_templates() {
        let base = || scan("Knows").recursive(PathSemantics::Walk);
        let expected = [
            (Selector::All, "π(*,*,*)(γ∅("),
            (Selector::AnyShortest, "π(*,*,1)(τA(γST("),
            (Selector::AllShortest, "π(*,1,*)(τG(γSTL("),
            (Selector::Any, "π(*,*,1)(γST("),
            (Selector::AnyK(2), "π(*,*,2)(γST("),
            (Selector::ShortestK(2), "π(*,*,2)(τA(γST("),
            (Selector::ShortestKGroup(2), "π(*,2,*)(τG(γSTL("),
        ];
        for (sel, prefix) in expected {
            let text = base().with_selector(sel).to_string();
            assert!(text.starts_with(prefix), "{sel}: got {text}");
        }
    }
}
