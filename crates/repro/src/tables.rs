//! Regeneration of the paper's tables.

use pathalg_core::condition::Condition;
use pathalg_core::eval::{EvalConfig, Evaluator};
use pathalg_core::expr::PlanExpr;
use pathalg_core::gql::{translate, Restrictor, Selector};
use pathalg_core::ops::group_by::{group_by, GroupKey};
use pathalg_core::ops::order_by::OrderKey;
use pathalg_core::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg_core::ops::selection::selection;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_graph::fixtures::figure1::Figure1;

/// Renders a path in the paper's notation with paper object names,
/// e.g. `(n1, e1, n2, e4, n4)`.
pub fn paper_path(f: &Figure1, p: &Path) -> String {
    let mut parts = Vec::new();
    for (i, &n) in p.nodes().iter().enumerate() {
        if i > 0 {
            parts.push(f.object_name(p.edges()[i - 1]));
        }
        parts.push(f.object_name(n));
    }
    format!("({})", parts.join(", "))
}

/// Table 1: the GQL selectors and their informal semantics.
pub fn table1() {
    println!(
        "{:<22} {:<15} Algebra template (over WALK)",
        "Selector", "Deterministic"
    );
    for selector in Selector::all_with_k(2) {
        let plan = translate(selector, Restrictor::Walk, PlanExpr::edges());
        println!(
            "{:<22} {:<15} {}",
            selector.keyword(),
            if selector.is_deterministic() {
                "yes"
            } else {
                "no"
            },
            plan
        );
    }
}

/// Table 2: the GQL restrictors and the path semantics they map to.
pub fn table2() {
    println!("{:<10} Path semantics enforced by ϕ", "Restrictor");
    for restrictor in Restrictor::GQL {
        println!("{:<10} {}", restrictor.keyword(), restrictor.semantics());
    }
    println!(
        "{:<10} {} (extended restrictor of Section 7.1)",
        "SHORTEST",
        Restrictor::Shortest.semantics()
    );
}

/// The 14 paths of Table 3, constructed from the Figure 1 edge names.
fn table3_paths(f: &Figure1) -> Vec<(&'static str, Path)> {
    let e = |id| Path::edge(&f.graph, id);
    let cat = |paths: &[Path]| -> Path {
        paths
            .iter()
            .skip(1)
            .fold(paths[0].clone(), |acc, p| acc.concat(p).unwrap())
    };
    vec![
        ("p1", e(f.e1)),
        ("p2", cat(&[e(f.e1), e(f.e2), e(f.e3)])),
        ("p3", cat(&[e(f.e1), e(f.e2)])),
        ("p4", cat(&[e(f.e1), e(f.e2), e(f.e3), e(f.e2)])),
        ("p5", cat(&[e(f.e1), e(f.e4)])),
        ("p6", cat(&[e(f.e1), e(f.e2), e(f.e3), e(f.e4)])),
        ("p7", cat(&[e(f.e2), e(f.e3)])),
        ("p8", cat(&[e(f.e2), e(f.e3), e(f.e2), e(f.e3)])),
        ("p9", e(f.e2)),
        ("p10", cat(&[e(f.e2), e(f.e3), e(f.e2)])),
        ("p11", e(f.e4)),
        ("p12", cat(&[e(f.e2), e(f.e3), e(f.e4)])),
        ("p13", cat(&[e(f.e3), e(f.e4)])),
        ("p14", cat(&[e(f.e3), e(f.e2), e(f.e3), e(f.e4)])),
    ]
}

/// Computes ϕ over the Knows edges of Figure 1 under one semantics.
/// Walk semantics is bounded to the longest path length listed in Table 3.
pub fn knows_plus(f: &Figure1, semantics: PathSemantics) -> PathSet {
    let knows = selection(
        &f.graph,
        &Condition::edge_label(1, "Knows"),
        &PathSet::edges(&f.graph),
    );
    let config = if semantics == PathSemantics::Walk {
        RecursionConfig::with_max_length(4)
    } else {
        RecursionConfig::default()
    };
    recursive(semantics, &knows, &config).unwrap()
}

/// Table 3: which of the listed paths satisfy Knows+ under each semantics.
pub fn table3() {
    let f = Figure1::new();
    let by_semantics: Vec<(char, PathSet)> = vec![
        ('W', knows_plus(&f, PathSemantics::Walk)),
        ('T', knows_plus(&f, PathSemantics::Trail)),
        ('A', knows_plus(&f, PathSemantics::Acyclic)),
        ('S', knows_plus(&f, PathSemantics::Simple)),
        ('h', knows_plus(&f, PathSemantics::Shortest)),
    ];
    println!(
        "{:<5} {:<42} {:^3} {:^3} {:^3} {:^3} {:^3}",
        "ID", "Path", "W", "T", "A", "S", "Sh"
    );
    for (id, path) in table3_paths(&f) {
        let marks: Vec<String> = by_semantics
            .iter()
            .map(|(_, set)| {
                if set.contains(&path) {
                    "✓".into()
                } else {
                    " ".into()
                }
            })
            .collect();
        println!(
            "{:<5} {:<42} {:^3} {:^3} {:^3} {:^3} {:^3}",
            id,
            paper_path(&f, &path),
            marks[0],
            marks[1],
            marks[2],
            marks[3],
            marks[4]
        );
    }
    println!();
    println!(
        "(Walk column computed with a length bound of 4 — the unbounded set is infinite, \
         as the paper notes.)"
    );
}

/// Table 4: the solution-space organisation of every group-by variant.
pub fn table4() {
    let f = Figure1::new();
    let trails = knows_plus(&f, PathSemantics::Trail);
    println!(
        "{:<6} {:<12} {:<18} interpretation",
        "γψ", "partitions", "groups/partition"
    );
    for key in GroupKey::ALL {
        let ss = group_by(key, &trails);
        let max_groups = ss
            .partitions()
            .iter()
            .map(|p| p.groups.len())
            .max()
            .unwrap_or(0);
        let interpretation = match key {
            GroupKey::Empty => "1 partition, 1 group",
            GroupKey::Source => "N partitions (by source), 1 group each",
            GroupKey::Target => "N partitions (by target), 1 group each",
            GroupKey::Length => "1 partition, M groups (by length)",
            GroupKey::SourceTarget => "N partitions (by endpoints), 1 group each",
            GroupKey::SourceLength => "N partitions (by source), M groups (by length)",
            GroupKey::TargetLength => "N partitions (by target), M groups (by length)",
            GroupKey::SourceTargetLength => "N partitions (by endpoints), M groups (by length)",
        };
        println!(
            "{:<6} {:<12} {:<18} {}",
            key.symbol(),
            ss.partition_count(),
            max_groups,
            interpretation
        );
    }
    println!("(counts computed over ϕTrail(Knows+) on the Figure 1 graph)");
}

/// Table 5: the solution space produced by γST over ϕTrail(Knows+).
pub fn table5() {
    let f = Figure1::new();
    let trails = knows_plus(&f, PathSemantics::Trail);
    let ss = group_by(GroupKey::SourceTarget, &trails);
    println!(
        "{:<12} {:<12} {:<42} {:>8} {:>8} {:>7}",
        "Partition", "Group", "Path", "MinL(P)", "MinL(G)", "Len(p)"
    );
    for (pi, partition) in ss.partitions().iter().enumerate() {
        for &gi in &partition.groups {
            for &xi in &ss.groups()[gi].paths {
                let p = ss.path(xi);
                println!(
                    "{:<12} {:<12} {:<42} {:>8} {:>8} {:>7}",
                    format!("part{}", pi + 1),
                    format!("group{}1", pi + 1),
                    paper_path(&f, p),
                    ss.min_len_of_partition(pi),
                    ss.min_len_of_group(gi),
                    p.len()
                );
            }
        }
    }
    println!();
    println!(
        "(The paper's Table 5 lists the 7 partitions whose trails it had introduced in \
         Table 3; the full trail set also contains the trails starting at n3, giving {} \
         partitions here.)",
        ss.partition_count()
    );
}

/// Table 6: the order-by semantics (which △ values each θ rewrites).
pub fn table6() {
    println!("{:<5} {:<14} {:<14} △'(p)", "τθ", "△'(P)", "△'(G)");
    for key in OrderKey::ALL {
        let p = if key.orders_partitions() {
            "MinL(P)"
        } else {
            "△(P)"
        };
        let g = if key.orders_groups() {
            "MinL(G)"
        } else {
            "△(G)"
        };
        let a = if key.orders_paths() {
            "Len(p)"
        } else {
            "△(p)"
        };
        println!("{:<5} {:<14} {:<14} {}", key.symbol(), p, g, a);
    }
}

/// Table 7: the algebra translation of every selector with the WALK
/// restrictor, plus the count of all 28 selector×restrictor combinations.
pub fn table7() {
    let re = PlanExpr::edges().select(Condition::edge_label(1, "Knows"));
    println!("{:<28} Path algebra expression", "GQL expression");
    for selector in Selector::all_with_k(2) {
        let plan = translate(selector, Restrictor::Walk, re.clone());
        println!(
            "{:<28} {}",
            format!("{} WALK ppe", selector.keyword()),
            plan
        );
    }
    println!();
    println!(
        "All {} selector × restrictor combinations evaluate on Figure 1:",
        7 * 4
    );
    let f = Figure1::new();
    for restrictor in Restrictor::GQL {
        for selector in Selector::all_with_k(2) {
            let plan = translate(selector, restrictor, re.clone());
            let mut ev = Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(4));
            let n = ev.eval_paths(&plan).map(|p| p.len()).unwrap_or(0);
            print!("{:>4}", n);
        }
        println!(
            "   <- {} (columns = selectors in Table 1 order)",
            restrictor.keyword()
        );
    }
}

/// The strategy decision table (DESIGN.md §9): for the SNB and K-graph
/// fixtures, each query's executed plan, what ran it — a full kernel drain
/// (`pmr-lazy`) or a sliced pipeline on the same kernel
/// (`lazy-sliced-pipeline`) — and the closure estimate recorded next to it.
/// Cross-linked from EXPERIMENTS.md.
pub fn joins() {
    use pathalg_engine::runner::QueryRunner;
    use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};
    use pathalg_graph::generator::structured::complete_graph;

    let queries = [
        "MATCH ANY 3 SIMPLE p = (?x)-[(:Likes/:Has_creator)+]->(?y)",
        "MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
        "MATCH ANY SHORTEST TRAIL p = (?x:Person)-[:Knows+]->(?y:Person)",
        "MATCH ALL TRAIL p = (?x)-[(:Likes/:Has_creator)+]->(?y)",
        "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
    ];
    let graphs: Vec<(&str, pathalg_graph::graph::PropertyGraph)> = vec![
        (
            "snb-200",
            snb_like_graph(&SnbConfig::scale(200, 0xBEEF + 200)),
        ),
        ("K6 (complete, :Knows)", complete_graph(6, "Knows")),
    ];
    for (name, graph) in &graphs {
        println!("-- fixture {name} --");
        let runner = QueryRunner::with_config(
            graph,
            pathalg_engine::runner::RunnerConfig::with_walk_bound(4),
        );
        for query in queries {
            let result = match runner.run(query) {
                Ok(r) => r,
                Err(e) => {
                    println!("{query}\n    -> error: {e}");
                    continue;
                }
            };
            println!("{query}");
            println!("    executed plan: {}", result.optimized_plan());
            for decision in result.strategy_decisions() {
                println!("    {decision}");
            }
            println!("    -> {} result paths", result.paths().len());
        }
        println!();
    }
}

/// The beyond-GQL expressions of Section 6.
pub fn beyond_gql() {
    let f = Figure1::new();
    // π(*,*,1)(τG(γL(ϕTrail(σKnows(Edges(G)))))): a sample trail of each length.
    let plan = PlanExpr::edges()
        .select(Condition::edge_label(1, "Knows"))
        .recursive(PathSemantics::Trail)
        .group_by(GroupKey::Length)
        .order_by(OrderKey::Group)
        .project(pathalg_core::ops::projection::ProjectionSpec::new(
            pathalg_core::ops::projection::Take::All,
            pathalg_core::ops::projection::Take::All,
            pathalg_core::ops::projection::Take::Count(1),
        ));
    println!("Expression (not expressible as a GQL selector/restrictor):");
    println!("  {plan}");
    let mut ev = Evaluator::new(&f.graph);
    let out = ev.eval_paths(&plan).unwrap();
    println!("Result — one sample trail per length:");
    let mut rows: Vec<_> = out.iter().collect();
    rows.sort_by_key(|p| p.len());
    for p in rows {
        println!("  length {}: {}", p.len(), paper_path(&f, p));
    }
    println!();
    println!(
        "The algebra admits 8 group-by × 7 order-by × unbounded projections × 5 recursions \
         — far beyond the 28 selector/restrictor combinations of GQL (Section 6)."
    );
}
