//! The Section 7.2 plan renderer.
//!
//! Plan generation itself is [`QueryIr::to_plan`] (checked:
//! [`crate::ir::lower_to_checked_plan`]), shared by every surface. This
//! module renders a query and its plan in the paper's textual format
//! ([`QueryIr::explain`]) and holds the plan-generation tests of the GQL
//! surface.

use crate::ir::{IrOutput, QueryIr};
use pathalg_core::display::plan_tree;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::order_by::OrderKey;
use pathalg_core::ops::projection::Take;

impl QueryIr {
    /// Renders the query and its plan in the Section 7.2 output format:
    ///
    /// ```text
    /// Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)
    /// OrderBy (Path)
    /// Group (Target)
    /// Restrictor (TRAIL)
    /// -> Recursive Join (restrictor: TRAIL)
    ///     -> Select: (label(edge(1)) = "Knows" , EDGES(G))
    /// ```
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match &self.output {
            IrOutput::Slice(spec) => {
                out.push_str(&format!(
                    "Projection ({} PARTITIONS {} GROUPS {} PATHS)\n",
                    take_word(spec.partitions),
                    take_word(spec.groups),
                    take_word(spec.paths)
                ));
            }
            IrOutput::Selector(sel) => {
                out.push_str(&format!("Selector ({sel})\n"));
            }
        }
        if let Some(order) = self.order_by {
            out.push_str(&format!("OrderBy ({})\n", order_word(order)));
        }
        if let Some(group) = self.group_by {
            out.push_str(&format!("Group ({})\n", group_word(group)));
        }
        out.push_str(&format!("Restrictor ({})\n", self.restrictor));
        out.push_str(&plan_tree(&self.to_plan()));
        out
    }
}

fn take_word(take: Take) -> String {
    match take {
        Take::All => "ALL".to_owned(),
        Take::Count(k) => k.to_string(),
    }
}

fn group_word(key: GroupKey) -> &'static str {
    match key {
        GroupKey::Empty => "None",
        GroupKey::Source => "Source",
        GroupKey::Target => "Target",
        GroupKey::Length => "Length",
        GroupKey::SourceTarget => "Source-Target",
        GroupKey::SourceLength => "Source-Length",
        GroupKey::TargetLength => "Target-Length",
        GroupKey::SourceTargetLength => "Source-Target-Length",
    }
}

fn order_word(key: OrderKey) -> &'static str {
    match key {
        OrderKey::Partition => "Partition",
        OrderKey::Group => "Group",
        OrderKey::Path => "Path",
        OrderKey::PartitionGroup => "Partition-Group",
        OrderKey::PartitionPath => "Partition-Path",
        OrderKey::GroupPath => "Group-Path",
        OrderKey::PartitionGroupPath => "Partition-Group-Path",
    }
}

#[cfg(test)]
mod tests {
    use crate::ir::lower_to_checked_plan;
    use crate::parser::parse_query;
    use pathalg_core::eval::{EvalConfig, Evaluator};
    use pathalg_core::ops::recursive::RecursionConfig;
    use pathalg_core::path::Path;
    use pathalg_graph::fixtures::figure1::Figure1;

    #[test]
    fn section_7_1_example_produces_the_published_algebra_expression() {
        // The paper: MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y)
        //            GROUP BY TARGET ORDER BY PATH
        // corresponds to π(*,*,1)(τA(γT(ϕTrail(σ label(edge(1))="Knows" (Edges(G)))))).
        let q = parse_query(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)+]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        )
        .unwrap();
        let plan = q.to_plan();
        assert_eq!(
            plan.to_string(),
            "π(*,*,1)(τA(γT(ϕTRAIL(σ[label(edge(1)) = \"Knows\"](Edges(G))))))"
        );
        plan.type_check().unwrap();
    }

    #[test]
    fn kleene_star_pattern_adds_the_nodes_union() {
        let q = parse_query(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        )
        .unwrap();
        let text = q.to_plan().to_string();
        assert!(text.contains("∪ Nodes(G)"));
    }

    #[test]
    fn selector_form_matches_table7_pipeline() {
        let q = parse_query("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)").unwrap();
        let text = q.to_plan().to_string();
        assert!(text.starts_with("π(*,*,1)(τA(γST(ϕTRAIL("));
        let q = parse_query("MATCH SHORTEST 2 GROUP WALK p = (?x)-[:Knows+]->(?y)").unwrap();
        assert!(q
            .to_plan()
            .to_string()
            .starts_with("π(*,2,*)(τG(γSTL(ϕWALK("));
        let q = parse_query("MATCH ANY 3 ACYCLIC p = (?x)-[:Knows+]->(?y)").unwrap();
        assert!(q
            .to_plan()
            .to_string()
            .starts_with("π(*,*,3)(γST(ϕACYCLIC("));
    }

    #[test]
    fn node_pattern_constraints_become_the_root_selection() {
        // The introduction's query: Moe to Apu over Knows+ | (Likes/Has_creator)+.
        let q = parse_query(
            "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
        )
        .unwrap();
        let plan = q.to_plan();
        let text = plan.to_string();
        assert!(text.contains("first.name = \"Moe\""));
        assert!(text.contains("last.name = \"Apu\""));
        // Evaluating it over Figure 1 returns exactly path1 and path2.
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        let out = ev.eval_paths(&plan).unwrap();
        assert_eq!(out.len(), 2);
        let path1 = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap();
        assert!(out.contains(&path1));
    }

    #[test]
    fn label_constraints_and_where_clause_are_combined() {
        let q =
            parse_query("MATCH ALL TRAIL p = (?x:Person)-[:Knows+]->(?y:Person) WHERE len() <= 2")
                .unwrap();
        let text = q.to_plan().to_string();
        assert!(text.contains("label(first) = \"Person\""));
        assert!(text.contains("label(last) = \"Person\""));
        assert!(text.contains("len() <= 2"));
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        let out = ev.eval_paths(&q.to_plan()).unwrap();
        assert!(out.iter().all(|p| p.len() <= 2));
        assert!(!out.is_empty());
    }

    #[test]
    fn extended_form_without_group_by_defaults_to_a_single_partition() {
        let q =
            parse_query("MATCH ALL PARTITIONS ALL GROUPS 2 PATHS TRAIL p = (?x)-[:Knows+]->(?y)")
                .unwrap();
        let text = q.to_plan().to_string();
        assert!(text.starts_with("π(*,*,2)(γ∅("));
        // Without ORDER BY there is no τ operator.
        assert!(!text.contains("τ"));
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        let out = ev.eval_paths(&q.to_plan()).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn end_to_end_evaluation_of_the_section_5_query() {
        // MATCH ANY SHORTEST TRAIL p = (x)-[:Knows]->+(y): one shortest trail
        // per endpoint pair — the Figure 5 pipeline.
        let q = parse_query("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)").unwrap();
        let f = Figure1::new();
        let mut ev = Evaluator::with_config(&f.graph, EvalConfig::default());
        let out = ev.eval_paths(&q.to_plan()).unwrap();
        assert_eq!(out.len(), 9);
    }

    #[test]
    fn non_recursive_patterns_get_an_explicit_restrictor_filter() {
        // :Likes/:Has_creator compiles to a join, so the ACYCLIC restrictor
        // must be enforced with a whole-path predicate…
        let q = parse_query("MATCH ALL ACYCLIC p = (?x)-[:Likes/:Has_creator]->(?y)").unwrap();
        let text = q.to_plan().to_string();
        assert!(text.contains("is_acyclic()"), "got {text}");
        // …and the self-loop-free evaluation result reflects it.
        let f = Figure1::new();
        let mut ev = Evaluator::new(&f.graph);
        let out = ev.eval_paths(&q.to_plan()).unwrap();
        assert!(out.iter().all(|p| p.is_acyclic()));

        // :Knows+ is fully guarded by ϕ, so no extra predicate is added.
        let q = parse_query("MATCH ALL ACYCLIC p = (?x)-[:Knows+]->(?y)").unwrap();
        assert!(!q.to_plan().to_string().contains("is_acyclic()"));
        // WALK never needs a filter.
        let q = parse_query("MATCH ALL WALK p = (?x)-[:Likes/:Has_creator]->(?y)").unwrap();
        assert!(!q.to_plan().to_string().contains("is_"));
        // A single-edge pattern is always a trail but not necessarily acyclic.
        let q = parse_query("MATCH ALL TRAIL p = (?x)-[:Knows]->(?y)").unwrap();
        assert!(!q.to_plan().to_string().contains("is_trail()"));
        let q = parse_query("MATCH ALL ACYCLIC p = (?x)-[:Knows]->(?y)").unwrap();
        assert!(q.to_plan().to_string().contains("is_acyclic()"));
    }

    #[test]
    fn explain_output_matches_the_section_7_2_format() {
        let q = parse_query(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)+]->(?y) \
             GROUP BY TARGET ORDER BY PATH",
        )
        .unwrap();
        let text = q.explain();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines[0], "Projection (ALL PARTITIONS ALL GROUPS 1 PATHS)");
        assert_eq!(lines[1], "OrderBy (Path)");
        assert_eq!(lines[2], "Group (Target)");
        assert_eq!(lines[3], "Restrictor (TRAIL)");
        assert!(lines[4].contains("Projection (*,*,1)"));
        assert!(text.contains("Recursive Join (restrictor: TRAIL)"));
        assert!(text.contains("Select: (label(edge(1)) = \"Knows\")"));
        assert!(text.contains("EDGES(G)"));
    }

    #[test]
    fn explain_selector_form_mentions_the_selector() {
        let q = parse_query("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)").unwrap();
        let text = q.explain();
        assert!(text.starts_with("Selector (ANY SHORTEST)\n"));
        assert!(text.contains("Restrictor (WALK)"));
    }

    #[test]
    fn all_parsed_plans_type_check() -> Result<(), String> {
        let queries = [
            "MATCH ALL WALK p = (?x)-[:Knows]->(?y)",
            "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ALL SHORTEST ACYCLIC p = (?x)-[:Knows+]->(?y)",
            "MATCH SHORTEST 3 GROUP SIMPLE p = (?x)-[:Knows+]->(?y)",
            "MATCH 2 PARTITIONS 1 GROUPS ALL PATHS TRAIL p = (?x)-[:Knows+]->(?y) \
             GROUP BY SOURCE TARGET LENGTH ORDER BY PARTITION GROUP PATH",
            "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)*]->(?y) \
             WHERE NOT label(last) = \"Message\"",
        ];
        for q in queries {
            let parsed = parse_query(q).map_err(|e| format!("{q}: {e}"))?;
            lower_to_checked_plan(&parsed).map_err(|e| format!("{q}: {e}"))?;
        }
        Ok(())
    }

    /// True if the query's plan is a sliceable γ/τ/π pipeline that the lazy
    /// (PMR-backed) evaluation takes end to end under `recursion` — the
    /// decision the engine's `choose_pipeline_impl` makes on the plan.
    fn lazy(query: &str, recursion: &RecursionConfig) -> bool {
        parse_query(query)
            .unwrap()
            .to_plan()
            .sliceable_pipeline()
            .is_some_and(|sliced| sliced.lazy_eligible(recursion))
    }

    #[test]
    fn lazy_eligible_plans_tag_the_slicing_selector_queries() {
        // ANY SHORTEST / SHORTEST k translate to π(*,*,k)(τA(γST(ϕ(scan)))).
        // The recogniser covers the whole fragment: plain scans, endpoint
        // filters (pushed into the expansion as source/target masks), and
        // join chains of label scans (the lazy endpoint-keyed arena join).
        for q in [
            "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH SHORTEST 2 TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ANY 3 SIMPLE p = (?x)-[:Knows+]->(?y)",
            "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[:Knows+]->(?y)",
            "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Likes/:Has_creator)+]->(?y)",
            "MATCH ANY 2 SIMPLE p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
        ] {
            assert!(lazy(q, &RecursionConfig::default()), "{q}");
        }
        // ALL keeps everything; non-endpoint WHERE clauses cannot be pushed;
        // and a union base is not a scan chain.
        for q in [
            "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
            "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y) WHERE node(2).name = \"Lisa\"",
            "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows|:Likes)+]->(?y)",
        ] {
            assert!(!lazy(q, &RecursionConfig::default()), "{q}");
        }
        // Walk queries are only lazy when a length bound makes them finite.
        let walk = "MATCH ANY 2 WALK p = (?x)-[:Knows+]->(?y)";
        assert!(!lazy(walk, &RecursionConfig::unbounded()));
        assert!(lazy(walk, &RecursionConfig::with_max_length(4)));
    }
}
