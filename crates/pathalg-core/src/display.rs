//! Rendering logical plans as textual trees.
//!
//! Section 7.2 of the paper shows the parser's output format: one line per
//! operator, indentation indicating depth. [`plan_tree`] produces the same
//! style for any [`PlanExpr`], and is what the `repro` binaries print when
//! regenerating Figures 2–6.

use crate::expr::PlanExpr;
use std::fmt::Write as _;

/// Renders a plan as an indented textual tree, root first.
///
/// ```
/// use pathalg_core::condition::Condition;
/// use pathalg_core::display::plan_tree;
/// use pathalg_core::expr::PlanExpr;
///
/// let plan = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
/// let text = plan_tree(&plan);
/// assert!(text.contains("-> Select"));
/// assert!(text.contains("EDGES(G)"));
/// ```
pub fn plan_tree(expr: &PlanExpr) -> String {
    let mut out = String::new();
    render(expr, 0, &mut out);
    out
}

fn render(expr: &PlanExpr, depth: usize, out: &mut String) {
    let indent = "    ".repeat(depth);
    let line = match expr {
        PlanExpr::Nodes => "NODES(G)".to_string(),
        PlanExpr::Edges => "EDGES(G)".to_string(),
        PlanExpr::Selection { condition, .. } => format!("Select: ({condition})"),
        PlanExpr::Join { .. } => "Join (on Last = First)".to_string(),
        PlanExpr::Union { .. } => "Union".to_string(),
        PlanExpr::Recursive { semantics, .. } => {
            format!("Recursive Join (restrictor: {})", semantics.keyword())
        }
        PlanExpr::GroupBy { key, .. } => format!("Group ({key})"),
        PlanExpr::OrderBy { key, .. } => format!("OrderBy ({key})"),
        PlanExpr::Projection { spec, .. } => format!("Projection {spec}"),
    };
    let _ = writeln!(out, "{indent}-> {line}");
    for child in expr.children() {
        render(child, depth + 1, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::projection::{ProjectionSpec, Take};
    use crate::ops::recursive::PathSemantics;
    use crate::GroupKey;
    use crate::OrderKey;

    #[test]
    fn tree_structure_matches_the_section_7_2_example() {
        // MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y)
        // GROUP BY TARGET ORDER BY PATH
        let plan = PlanExpr::edges()
            .select(Condition::edge_label(1, "Knows"))
            .recursive(PathSemantics::Trail)
            .group_by(GroupKey::Target)
            .order_by(OrderKey::Path)
            .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
        let text = plan_tree(&plan);
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 6);
        assert!(lines[0].contains("Projection (*,*,1)"));
        assert!(lines[1].contains("OrderBy (A)"));
        assert!(lines[2].contains("Group (T)"));
        assert!(lines[3].contains("Recursive Join (restrictor: TRAIL)"));
        assert!(lines[4].contains("Select: (label(edge(1)) = \"Knows\")"));
        assert!(lines[5].contains("EDGES(G)"));
        // Indentation grows with depth.
        assert!(lines[5].starts_with("                    "));
    }

    #[test]
    fn binary_operators_render_both_children() {
        let knows = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
        let plan = knows.clone().union(knows.clone().join(knows));
        let text = plan_tree(&plan);
        assert_eq!(text.matches("EDGES(G)").count(), 3);
        assert_eq!(text.matches("Select").count(), 3);
        assert!(text.contains("Union"));
        assert!(text.contains("Join"));
    }
}
