//! Cross-validation of the independent evaluation strategies.
//!
//! Three stacks compute the same queries through completely different code
//! paths — the algebraic evaluator (ϕ fixpoint), the engine's kernel (over
//! label CSRs or over a materialised base's segments), and the classical
//! automaton-product baseline. They must agree on every graph. Where the
//! kernel's emission order is checked too, the oracle is the fixpoint's set
//! put in canonical order (`pathalg::pmr::canonical_order`).

use pathalg::algebra::condition::Condition;
use pathalg::algebra::eval::{EvalConfig, Evaluator};
use pathalg::algebra::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg::algebra::ops::selection::selection;
use pathalg::algebra::pathset::PathSet;
use pathalg::engine::baseline::evaluate_query_with_automaton;
use pathalg::engine::exec::ExecutionConfig;
use pathalg::engine::runner::{QueryRunner, RunnerConfig};
use pathalg::graph::csr::CsrGraph;
use pathalg::graph::fixtures::figure1::Figure1;
use pathalg::graph::generator::random::{random_labeled_graph, RandomGraphConfig};
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::generator::structured::{chain_graph, cycle_graph, grid_graph, ladder_graph};
use pathalg::graph::graph::PropertyGraph;
use pathalg::pmr::canonical_order;
use pathalg::rpq::automaton_eval::AutomatonEvaluator;
use pathalg::rpq::compile::compile_to_algebra;
use pathalg::rpq::parse::parse_regex;
use proptest::prelude::*;
use std::sync::Arc;

fn test_graphs() -> Vec<(String, PropertyGraph)> {
    let mut graphs = vec![
        ("figure1".to_string(), Figure1::new().graph),
        ("chain8".to_string(), chain_graph(8, "Knows")),
        ("cycle7".to_string(), cycle_graph(7, "Knows")),
        ("ladder3".to_string(), ladder_graph(3, "Knows")),
        ("grid3x3".to_string(), grid_graph(3, 3, "Knows")),
        // Small SNB-shaped graph: kept deliberately sparse so the full
        // trail/simple closures computed below stay small.
        (
            "snb8".to_string(),
            snb_like_graph(&SnbConfig {
                persons: 8,
                messages: 10,
                knows_per_person: 2,
                likes_per_person: 1,
                seed: 3,
                ..SnbConfig::default()
            }),
        ),
    ];
    for seed in [1u64, 2, 3] {
        graphs.push((
            format!("random{seed}"),
            random_labeled_graph(&RandomGraphConfig {
                nodes: 10,
                edges: 16,
                edge_labels: vec!["Knows".into(), "Likes".into()],
                node_labels: vec!["Person".into()],
                seed,
            }),
        ));
    }
    graphs
}

fn knows_base(graph: &PropertyGraph) -> PathSet {
    selection(
        graph,
        &Condition::edge_label(1, "Knows"),
        &PathSet::edges(graph),
    )
}

/// The graph's stored label CSR of each hop of a chain.
fn chain_hops(graph: &PropertyGraph, labels: &[&str]) -> Arc<[CsrGraph]> {
    labels.iter().map(|l| graph.label_csr(l).clone()).collect()
}

/// The engine's ϕ — over a label scan, and over the bases it materialises
/// and indexes as segments (a union, a join that is not a label chain, and
/// a base with node paths) — against the executable specification: on every
/// test graph and restricted semantics, the canonical (sorted) rendering of
/// the engine's output is byte-identical to `recursive`'s.
#[test]
fn engine_phi_agrees_with_seminaive_everywhere() {
    use pathalg::algebra::plan::scan;
    use pathalg::algebra::PlanExpr;
    use pathalg::engine::EngineEvaluator;

    let cfg = RecursionConfig::default();
    let bases = [
        scan("Knows"),
        scan("Knows").union(scan("Likes")),
        scan("Knows").join(scan("Knows").union(scan("Likes"))),
        scan("Knows").union(PlanExpr::nodes()),
    ];
    for (name, graph) in test_graphs() {
        for base in &bases {
            let base_paths = Evaluator::new(&graph).eval_paths(base).unwrap();
            for semantics in [
                PathSemantics::Trail,
                PathSemantics::Acyclic,
                PathSemantics::Simple,
                PathSemantics::Shortest,
            ] {
                let reference = recursive(semantics, &base_paths, &cfg).unwrap();
                let reference_canonical: Vec<String> =
                    reference.sorted().iter().map(|p| p.display_ids()).collect();
                let plan = base.clone().recursive(semantics);
                let engine = EngineEvaluator::new(&graph, cfg, ExecutionConfig::default())
                    .eval_paths(&plan)
                    .unwrap();
                let engine_canonical: Vec<String> =
                    engine.sorted().iter().map(|p| p.display_ids()).collect();
                assert_eq!(
                    engine_canonical, reference_canonical,
                    "{name}: {plan} differs from seminaive"
                );
            }
        }
    }
}

/// The γ/π pipeline of a `SliceSpec` without an order-by or a group
/// limit, run by the core operators over `paths` in their order.
fn materialised_slice(spec: &pathalg::algebra::slice::SliceSpec, paths: &PathSet) -> PathSet {
    use pathalg::algebra::ops::group_by::group_by;
    use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
    let take = |limit: Option<usize>| limit.map_or(Take::All, Take::Count);
    let pi = ProjectionSpec::new(take(spec.max_partitions), Take::All, take(spec.per_group));
    projection(&pi, &group_by(spec.group_key, paths))
}

/// The lazy scan kernel over the label CSR against the fixpoint over the
/// materialised `σℓ(Edges(G))`, put in canonical order: identical output, in
/// the same order, on every test graph, for the full drain and for the
/// sliced evaluation (uncoupled, partition-limited and γ∅ specs) against
/// slicing the ordered reference.
#[test]
fn csr_native_frontier_agrees_with_the_pathset_frontier() {
    use pathalg::algebra::ops::group_by::GroupKey;
    use pathalg::algebra::slice::SliceSpec;
    use pathalg::pmr::Pmr;

    let specs = [
        // Uncoupled: ANY 1 per endpoint pair.
        SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(1),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: false,
        },
        // Partition-limited γST — exercises the sharp stop.
        SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(2),
            max_partitions: Some(3),
            max_groups: None,
            ordered_by_length: false,
        },
        // Partition-limited γS.
        SliceSpec {
            group_key: GroupKey::Source,
            per_group: Some(2),
            max_partitions: Some(2),
            max_groups: None,
            ordered_by_length: false,
        },
        // γ∅ global prefix.
        SliceSpec {
            group_key: GroupKey::Empty,
            per_group: Some(4),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: false,
        },
    ];
    let bounded = RecursionConfig::with_max_length(3);
    for (name, graph) in test_graphs() {
        let base = knows_base(&graph);
        let csr = Arc::new(CsrGraph::with_label(&graph, "Knows"));
        for (semantics, cfg) in [
            (PathSemantics::Trail, RecursionConfig::default()),
            (PathSemantics::Acyclic, RecursionConfig::default()),
            (PathSemantics::Simple, RecursionConfig::default()),
            (PathSemantics::Shortest, RecursionConfig::default()),
            (PathSemantics::Walk, bounded),
        ] {
            let via_paths = canonical_order(
                &recursive(semantics, &base, &cfg).unwrap(),
                std::slice::from_ref(&*csr),
            );
            let via_csr = Pmr::from_shared_csr(csr.clone(), semantics, cfg)
                .enumerate_all()
                .unwrap();
            assert_eq!(
                via_paths.as_slice(),
                via_csr.as_slice(),
                "{name}: scan kernel diverged under {semantics:?}"
            );
            for spec in &specs {
                let expected = materialised_slice(spec, &via_paths);
                let sliced = Pmr::from_shared_csr(csr.clone(), semantics, cfg)
                    .sliced(spec)
                    .unwrap();
                assert_eq!(
                    sliced.as_slice(),
                    expected.as_slice(),
                    "{name}: sliced scan kernel diverged under {semantics:?} for {spec:?}"
                );
            }
        }
    }
}

/// End to end: a thread count handed to the runner is accepted and ignored —
/// identical result sets on every test graph.
#[test]
fn runner_results_are_thread_count_invariant() {
    let queries = [
        "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
        "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
        "MATCH ALL ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)",
    ];
    let recursion = RecursionConfig {
        max_length: Some(6),
        ..RecursionConfig::default()
    };
    for (name, graph) in test_graphs() {
        let serial = QueryRunner::with_config(
            &graph,
            RunnerConfig {
                optimize: true,
                recursion,
                ..RunnerConfig::default()
            },
        );
        let eight = QueryRunner::with_config(
            &graph,
            RunnerConfig {
                optimize: true,
                recursion,
                execution: ExecutionConfig::with_threads(8),
            },
        );
        for query in queries {
            let reference = serial.run(query).unwrap();
            let result = eight.run(query).unwrap();
            assert_eq!(
                result.paths().as_slice(),
                reference.paths().as_slice(),
                "{name}: {query} changed results with a thread count"
            );
        }
    }
}

#[test]
fn automaton_product_agrees_with_compiled_algebra_everywhere() {
    // Non-recursive patterns are compared under Walk only: the bare algebra
    // translation enforces restrictors inside ϕ (the plan generator adds the
    // explicit whole-path predicate for such patterns — that layer is covered
    // by `end_to_end_queries_agree_between_runner_and_baseline`).
    let patterns = [
        (":Knows+", true),
        (":Knows/:Knows", false),
        ("(:Knows|:Likes)+", true),
        (":Knows*", true),
    ];
    for (name, graph) in test_graphs() {
        for (pattern, recursive_pattern) in patterns {
            let semantics_to_check: &[PathSemantics] = if recursive_pattern {
                &[
                    PathSemantics::Trail,
                    PathSemantics::Acyclic,
                    PathSemantics::Simple,
                    PathSemantics::Shortest,
                ]
            } else {
                &[PathSemantics::Walk]
            };
            for &semantics in semantics_to_check {
                let re = parse_regex(pattern).unwrap();
                let via_automaton = AutomatonEvaluator::new(&graph, &re)
                    .eval_all(semantics, &RecursionConfig::default())
                    .unwrap();
                let plan = compile_to_algebra(&re, semantics);
                let via_algebra = Evaluator::new(&graph).eval_paths(&plan).unwrap();
                assert_eq!(
                    via_automaton,
                    via_algebra,
                    "{name}: {pattern} under {semantics:?} ({} vs {} paths)",
                    via_automaton.len(),
                    via_algebra.len()
                );
            }
        }
    }
}

#[test]
fn end_to_end_queries_agree_between_runner_and_baseline() {
    let queries = [
        "MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y)",
        "MATCH ALL ACYCLIC p = (?x)-[(:Knows|:Likes)+]->(?y)",
        "MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)",
        "MATCH ALL SIMPLE p = (?x)-[:Knows+]->(?y) WHERE len() >= 2",
    ];
    let recursion = RecursionConfig {
        max_length: Some(6),
        ..RecursionConfig::default()
    };
    for (name, graph) in test_graphs() {
        let runner = QueryRunner::with_config(
            &graph,
            RunnerConfig {
                optimize: true,
                recursion,
                ..RunnerConfig::default()
            },
        );
        for query in queries {
            let algebraic = runner.run(query).unwrap();
            let baseline = evaluate_query_with_automaton(&graph, query, &recursion).unwrap();
            assert_eq!(
                algebraic.paths(),
                &baseline,
                "{name}: {query} ({} vs {} paths)",
                algebraic.paths().len(),
                baseline.len()
            );
        }
    }
}

/// The lazy-pipeline contract of the PMR subsystem (DESIGN.md §8): on every
/// test graph, a slicing γ/τ/π pipeline over a recursive label scan —
/// evaluated lazily by the engine — produces byte-identical canonical output
/// to the materialised evaluation (the fixpoint in canonical order, then the
/// γ/τ/π operators).
#[test]
fn lazy_sliced_pipelines_match_materialized_evaluation_byte_for_byte() {
    use pathalg::algebra::ops::group_by::{group_by, GroupKey};
    use pathalg::algebra::ops::order_by::{order_by, OrderKey};
    use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
    use pathalg::algebra::PlanExpr;
    use pathalg::engine::cost::choose_pipeline_impl;
    use pathalg::engine::EngineEvaluator;

    let bounded = RecursionConfig {
        max_length: Some(4),
        ..RecursionConfig::default()
    };
    let cases: Vec<(
        PathSemantics,
        RecursionConfig,
        GroupKey,
        Option<OrderKey>,
        ProjectionSpec,
    )> = vec![
        // SHORTEST 1 (= ANY SHORTEST) over trails.
        (
            PathSemantics::Trail,
            RecursionConfig::default(),
            GroupKey::SourceTarget,
            Some(OrderKey::Path),
            ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
        ),
        // ANY 2 over the Shortest restrictor.
        (
            PathSemantics::Shortest,
            RecursionConfig::default(),
            GroupKey::SourceTarget,
            None,
            ProjectionSpec::new(Take::All, Take::All, Take::Count(2)),
        ),
        // Bounded walks, k per endpoint pair — the workload where the full
        // multiset explodes while the sliced answer stays tiny.
        (
            PathSemantics::Walk,
            bounded,
            GroupKey::SourceTarget,
            Some(OrderKey::Path),
            ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
        ),
        // Extended form: first two source partitions, three paths each.
        (
            PathSemantics::Simple,
            RecursionConfig::default(),
            GroupKey::Source,
            None,
            ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(3)),
        ),
    ];
    for (name, graph) in test_graphs() {
        for (semantics, recursion, gkey, order, spec) in &cases {
            // The materialised evaluation: the ordered closure of
            // σℓ(Edges), then γ/τ/π.
            let closure =
                reference_join_closure(&graph, &["Knows"], *semantics, recursion).unwrap();
            let grouped = group_by(*gkey, &closure);
            let ranked = match order {
                Some(key) => order_by(*key, &grouped),
                None => grouped,
            };
            let expected = projection(spec, &ranked);
            let expected_canonical: Vec<String> =
                expected.iter().map(|p| p.display_ids()).collect();

            let mut plan = PlanExpr::edges()
                .select(Condition::edge_label(1, "Knows"))
                .recursive(*semantics)
                .group_by(*gkey);
            if let Some(key) = order {
                plan = plan.order_by(*key);
            }
            let plan = plan.project(*spec);
            assert!(
                choose_pipeline_impl(&plan, recursion).is_some(),
                "{name}: {plan} should be evaluated lazily"
            );
            let mut engine = EngineEvaluator::new(&graph, *recursion, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            let canonical: Vec<String> = out.iter().map(|p| p.display_ids()).collect();
            assert_eq!(
                canonical, expected_canonical,
                "{name}: lazy {plan} diverged from materialised"
            );
            assert_eq!(out.as_slice(), expected.as_slice(), "{name}: {plan}");
        }
    }
}

/// The five path semantics with recursion bounds that keep every fixture's
/// closure finite (Walk needs a length bound on cyclic graphs).
fn join_semantics_cases() -> Vec<(PathSemantics, RecursionConfig)> {
    let bounded = RecursionConfig {
        max_length: Some(4),
        ..RecursionConfig::default()
    };
    vec![
        (PathSemantics::Walk, bounded),
        (PathSemantics::Trail, RecursionConfig::default()),
        (PathSemantics::Acyclic, RecursionConfig::default()),
        (PathSemantics::Simple, RecursionConfig::default()),
        (PathSemantics::Shortest, RecursionConfig::default()),
    ]
}

/// The materialised evaluation of `ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))`: hash-join the
/// label scans, run the reference fixpoint, and put its answer in the
/// kernel's canonical order.
fn reference_join_closure(
    graph: &PropertyGraph,
    labels: &[&str],
    semantics: PathSemantics,
    cfg: &RecursionConfig,
) -> Result<PathSet, pathalg::algebra::error::AlgebraError> {
    use pathalg::algebra::ops::join::join;
    let base = labels
        .iter()
        .map(|l| selection(graph, &Condition::edge_label(1, *l), &PathSet::edges(graph)))
        .reduce(|a, b| join(&a, &b, None).unwrap())
        .expect("at least one label");
    recursive(semantics, &base, cfg)
        .map(|paths| canonical_order(&paths, &chain_hops(graph, labels)))
}

#[test]
fn lazy_arena_join_matches_materialised_join_then_phi_byte_for_byte() {
    use pathalg::pmr::Pmr;
    // Two- and three-hop chains; same-label chains exercise the Trail edge
    // dedup across segment boundaries.
    let chains: Vec<Vec<&str>> = vec![
        vec!["Likes", "Has_creator"],
        vec!["Knows", "Knows"],
        vec!["Knows", "Likes", "Has_creator"],
    ];
    for (name, graph) in test_graphs() {
        for labels in &chains {
            for (semantics, cfg) in join_semantics_cases() {
                let expected = reference_join_closure(&graph, labels, semantics, &cfg);
                let mut pmr = Pmr::from_shared_join(chain_hops(&graph, labels), semantics, cfg);
                let out = pmr.enumerate_all();
                match (expected, out) {
                    (Ok(e), Ok(o)) => assert_eq!(
                        o.as_slice(),
                        e.as_slice(),
                        "{name}: ϕ{semantics:?}({labels:?}) lazy join diverged"
                    ),
                    (Err(a), Err(b)) => assert_eq!(
                        std::mem::discriminant(&a),
                        std::mem::discriminant(&b),
                        "{name}: {labels:?} error variants diverged ({a:?} vs {b:?})"
                    ),
                    (e, o) => {
                        panic!("{name}: {labels:?} ϕ{semantics:?} diverged: {e:?} vs {o:?}")
                    }
                }
            }
        }
    }
}

fn proptest_graph() -> impl Strategy<Value = PropertyGraph> {
    (4usize..10)
        .prop_flat_map(|nodes| (Just(nodes), 0usize..nodes * 2, 0u64..1_000_000))
        .prop_map(|(nodes, edges, seed)| {
            random_labeled_graph(&RandomGraphConfig {
                nodes,
                edges,
                edge_labels: vec!["a".into(), "b".into()],
                node_labels: vec!["N".into(), "M".into()],
                seed,
            })
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random graphs: the lazy arena join is byte-order identical to
    /// materialising the ⋈ and ordering the fixpoint's answer, for all five
    /// path semantics and several chain shapes (including same-label chains,
    /// which exercise cross-segment edge dedup under Trail).
    #[test]
    fn lazy_join_byte_parity_on_random_graphs(
        g in proptest_graph(),
        sem in 0usize..5,
        chain_sel in 0usize..3,
    ) {
        let (semantics, cfg) = join_semantics_cases()[sem % 5];
        let labels: Vec<&str> = match chain_sel {
            0 => vec!["a", "b"],
            1 => vec!["a", "a"],
            _ => vec!["b", "a", "b"],
        };
        let expected = reference_join_closure(&g, &labels, semantics, &cfg);
        let mut pmr = pathalg::pmr::Pmr::from_shared_join(chain_hops(&g, &labels), semantics, cfg);
        let out = pmr.enumerate_all();
        match (expected, out) {
            (Ok(e), Ok(o)) => prop_assert_eq!(o.as_slice(), e.as_slice()),
            (Err(a), Err(b)) => prop_assert_eq!(
                std::mem::discriminant(&a),
                std::mem::discriminant(&b)
            ),
            (e, o) => prop_assert!(false, "diverged: {:?} vs {:?}", e, o),
        }
    }

    /// Random graphs: σ-pushdown equivalence — the filtered lazy pipeline
    /// equals filter-after-materialise, byte for byte, over both single-scan
    /// and join-chain bases (the latter exercises the source restriction and
    /// target mask inside the composite `(node, phase)` reachability stop).
    #[test]
    fn sigma_pushdown_byte_parity_on_random_graphs(
        g in proptest_graph(),
        sem in 0usize..5,
        side in 0usize..3,
        chained in 0usize..2,
    ) {
        use pathalg::algebra::ops::group_by::{group_by, GroupKey};
        use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
            use pathalg::engine::EngineEvaluator;

        let (semantics, cfg) = join_semantics_cases()[sem % 5];
        let condition = match side {
            0 => Condition::first_label("N"),
            1 => Condition::last_label("M"),
            _ => Condition::first_label("N").and(Condition::last_label("M")),
        };
        let labels: Vec<&str> = if chained == 1 { vec!["a", "b"] } else { vec!["a"] };
        // An Err means an infinite unbounded-Walk fixpoint: nothing to slice.
        if let Ok(closure) = reference_join_closure(&g, &labels, semantics, &cfg) {
            let filtered = selection(&g, &condition, &closure);
            let expected = projection(
                &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                &group_by(GroupKey::SourceTarget, &filtered),
            );
            let base = pathalg::algebra::plan::chain(labels.iter().copied());
            let plan = base
                .recursive(semantics)
                .select(condition)
                .group_by(GroupKey::SourceTarget)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
            let mut engine = EngineEvaluator::new(&g, cfg, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            prop_assert_eq!(out.as_slice(), expected.as_slice());
            prop_assert!(engine.used_lazy_pipeline());
        }
    }
}

#[test]
fn lazy_arena_join_walk_errors_match_the_frontier_on_cyclic_composites() {
    use pathalg::pmr::Pmr;
    // The Likes∘Has_creator composite of Figure 1 is cyclic: unbounded Walk
    // must abort exactly like the reference fixpoint does.
    let f = Figure1::new();
    let labels = ["Likes", "Has_creator"];
    let cfg = RecursionConfig::unbounded();
    let expected = reference_join_closure(&f.graph, &labels, PathSemantics::Walk, &cfg);
    let mut pmr = Pmr::from_shared_join(chain_hops(&f.graph, &labels), PathSemantics::Walk, cfg);
    let out = pmr.enumerate_all();
    assert!(matches!(
        expected,
        Err(pathalg::algebra::error::AlgebraError::RecursionLimitExceeded { .. })
    ));
    assert!(matches!(
        out,
        Err(pathalg::algebra::error::AlgebraError::RecursionLimitExceeded { .. })
    ));
    // On a DAG composite the unbounded walk closure is finite and identical.
    let dag = chain_graph(6, "Knows");
    let expected =
        reference_join_closure(&dag, &["Knows", "Knows"], PathSemantics::Walk, &cfg).unwrap();
    let mut pmr = Pmr::from_shared_join(
        chain_hops(&dag, &["Knows", "Knows"]),
        PathSemantics::Walk,
        cfg,
    );
    assert_eq!(pmr.enumerate_all().unwrap().as_slice(), expected.as_slice());
}

#[test]
fn sigma_pushdown_lazy_equals_filter_after_materialise() {
    use pathalg::algebra::ops::group_by::{group_by, GroupKey};
    use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
    use pathalg::algebra::PlanExpr;
    use pathalg::engine::EngineEvaluator;

    let scan = |label: &str| pathalg::algebra::plan::scan(label);
    // (condition, base plan, base labels) — first-only, last-only, and a
    // conjunction of both, over a plain scan and over a join chain.
    let cases: Vec<(Condition, PlanExpr, Vec<&str>)> = vec![
        (
            Condition::first_label("Person"),
            scan("Knows"),
            vec!["Knows"],
        ),
        (
            Condition::last_label("Person"),
            scan("Knows"),
            vec!["Knows"],
        ),
        (
            Condition::first_label("Person").and(Condition::last_label("Person")),
            scan("Knows"),
            vec!["Knows"],
        ),
        (
            Condition::first_label("Person").and(Condition::last_label("Person")),
            scan("Likes").join(scan("Has_creator")),
            vec!["Likes", "Has_creator"],
        ),
    ];
    for (name, graph) in test_graphs() {
        for (condition, base, labels) in &cases {
            for (semantics, recursion) in [
                (PathSemantics::Trail, RecursionConfig::default()),
                (PathSemantics::Shortest, RecursionConfig::default()),
                (
                    PathSemantics::Walk,
                    RecursionConfig {
                        max_length: Some(4),
                        ..RecursionConfig::default()
                    },
                ),
            ] {
                // Filter-after-materialise: full closure, then σ, γ, π.
                let closure =
                    reference_join_closure(&graph, labels, semantics, &recursion).unwrap();
                let filtered = selection(&graph, condition, &closure);
                let expected = projection(
                    &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                    &group_by(GroupKey::SourceTarget, &filtered),
                );

                let plan = base
                    .clone()
                    .recursive(semantics)
                    .select(condition.clone())
                    .group_by(GroupKey::SourceTarget)
                    .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
                let mut engine =
                    EngineEvaluator::new(&graph, recursion, ExecutionConfig::default());
                let out = engine.eval_paths(&plan).unwrap();
                assert_eq!(
                    out.as_slice(),
                    expected.as_slice(),
                    "{name}: σ-pushdown {plan} diverged"
                );
                assert!(
                    engine.used_lazy_pipeline(),
                    "{name}: {plan} should have gone through the lazy pipeline"
                );
            }
        }
    }
}

#[test]
fn sliced_pipelines_over_join_chains_match_materialised_evaluation() {
    use pathalg::algebra::ops::group_by::{group_by, GroupKey};
    use pathalg::algebra::ops::order_by::{order_by, OrderKey};
    use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
    use pathalg::engine::EngineEvaluator;

    let scan = |label: &str| pathalg::algebra::plan::scan(label);
    for (name, graph) in test_graphs() {
        for (semantics, recursion) in join_semantics_cases() {
            let closure = match reference_join_closure(
                &graph,
                &["Likes", "Has_creator"],
                semantics,
                &recursion,
            ) {
                Ok(c) => c,
                Err(_) => continue, // unbounded blow-up: not sliceable anyway
            };
            let grouped = group_by(GroupKey::SourceTarget, &closure);
            let expected = projection(
                &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                &order_by(OrderKey::Path, &grouped),
            );
            let plan = scan("Likes")
                .join(scan("Has_creator"))
                .recursive(semantics)
                .group_by(GroupKey::SourceTarget)
                .order_by(OrderKey::Path)
                .project(ProjectionSpec::new(Take::All, Take::All, Take::Count(1)));
            let mut engine = EngineEvaluator::new(&graph, recursion, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            assert_eq!(
                out.as_slice(),
                expected.as_slice(),
                "{name}: sliced join chain {plan} diverged under {semantics:?}"
            );
        }
    }
}

/// Serial completion sharpening: a partition-limited γST slice over an
/// SNB-shaped workload is caught mid-source by the closing partition limit
/// and switches to per-partition accounting (only its already-opened groups
/// must fill) — strictly less expansion work than draining the closure —
/// while staying byte-identical to the materialise-then-slice reference.
#[test]
fn serial_sharp_stop_matches_materialise_then_slice_on_snb_workload() {
    use pathalg::algebra::ops::group_by::GroupKey;
    use pathalg::algebra::slice::SliceSpec;
    use pathalg::pmr::Pmr;

    let graph = snb_like_graph(&SnbConfig {
        persons: 16,
        messages: 12,
        knows_per_person: 3,
        likes_per_person: 1,
        seed: 7,
        ..SnbConfig::default()
    });
    let csr = Arc::new(CsrGraph::with_label(&graph, "Knows"));
    let cfg = RecursionConfig {
        max_length: Some(6),
        max_paths: None,
    };
    // per_group=1 fills every admitted partition on arrival, so the moment
    // the 4th partition opens mid-source the sharp stop can skip the rest of
    // that source's expansion.
    let spec = SliceSpec {
        group_key: GroupKey::SourceTarget,
        per_group: Some(1),
        max_partitions: Some(4),
        max_groups: None,
        ordered_by_length: false,
    };
    let factory = || Pmr::from_shared_csr(csr.clone(), PathSemantics::Trail, cfg);

    // Ground truth: materialise the whole closure, then slice it.
    let mut full = factory();
    let everything = full.enumerate_all().unwrap();
    let reference = materialised_slice(&spec, &everything);

    // Serial sharp stop: byte parity with strictly less expansion work.
    let mut serial = factory();
    let sliced = serial.sliced(&spec).unwrap();
    assert_eq!(sliced.as_slice(), reference.as_slice());
    assert!(
        serial.steps_generated() < full.steps_generated(),
        "sharp stop generated {} steps, full closure {}",
        serial.steps_generated(),
        full.steps_generated()
    );
}

/// End to end through the engine: a materialising ϕ over a join chain *or a
/// single label scan* drains the lazy kernel, so the evaluator's
/// accumulated deterministic counters must be byte-identical to a direct
/// kernel drain of the same closure on every test graph — and for the scan
/// (every test graph has `Knows` edges) they must report the kernel's work,
/// not just an emission count.
#[test]
fn engine_work_counters_match_the_kernel_on_lazy_chains() {
    use pathalg::algebra::plan::chain;
    use pathalg::engine::exec::EngineEvaluator;
    use pathalg::pmr::Pmr;

    let cases: [(&[&str], PathSemantics); 3] = [
        (&["Likes", "Has_creator"], PathSemantics::Trail),
        (&["Knows"], PathSemantics::Trail),
        (&["Knows"], PathSemantics::Shortest),
    ];
    let cfg = RecursionConfig {
        max_length: Some(6),
        max_paths: None,
    };
    for (name, graph) in test_graphs() {
        for (labels, semantics) in cases {
            let plan = chain(labels.iter().copied()).recursive(semantics);
            let mut engine = EngineEvaluator::new(&graph, cfg, ExecutionConfig::default());
            let out = engine.eval_paths(&plan).unwrap();
            let work = engine.work_counters();
            if labels.len() == 1 {
                assert_eq!(work.paths_emitted, out.len() as u64, "{name}: {plan}");
                assert!(
                    work.arena_steps > 0 && work.budget_claimed > 0 && work.arena_bytes_peak > 0,
                    "{name}: scan drain reported no kernel work for {plan}: {work}"
                );
            }
            let mut kernel = Pmr::from_shared_join(chain_hops(&graph, labels), semantics, cfg);
            kernel.enumerate_all().unwrap();
            assert_eq!(
                work.deterministic_line(),
                kernel.work_counters().deterministic_line(),
                "{name}: engine counters of {plan} diverged from the kernel's"
            );
        }
    }
}

#[test]
fn optimizer_never_changes_results() {
    let queries = [
        "MATCH ALL TRAIL p = (?x {name:\"Moe\"})-[:Knows+]->(?y)",
        "MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y {name:\"Apu\"})",
        "MATCH ALL SIMPLE p = (?x {name:\"Moe\"})-[(:Knows+)|(:Likes/:Has_creator)+]->(?y {name:\"Apu\"})",
        "MATCH ALL ACYCLIC p = (?x:Person)-[:Likes/:Has_creator]->(?y:Person)",
    ];
    let f = Figure1::new();
    let with_opt = QueryRunner::new(&f.graph);
    let without_opt =
        QueryRunner::with_config(&f.graph, RunnerConfig::default().without_optimizer());
    for query in queries {
        let a = with_opt.run(query).unwrap();
        let b = without_opt.run(query).unwrap();
        assert_eq!(
            a.paths(),
            b.paths(),
            "optimizer changed the result of {query}"
        );
    }
}

#[test]
fn evaluation_config_bounds_are_respected_end_to_end() {
    let f = Figure1::new();
    let runner = QueryRunner::with_config(&f.graph, RunnerConfig::with_walk_bound(3));
    let result = runner
        .run("MATCH ALL WALK p = (?x)-[:Knows+]->(?y)")
        .unwrap();
    assert!(result.paths().iter().all(|p| p.len() <= 3));
    // The same query without a bound is rejected, not looped on.
    let unbounded = QueryRunner::with_config(
        &f.graph,
        RunnerConfig {
            optimize: false,
            recursion: RecursionConfig::unbounded(),
            ..RunnerConfig::default()
        },
    );
    assert!(unbounded
        .run("MATCH ALL WALK p = (?x)-[:Knows+]->(?y)")
        .is_err());
    // Evaluator-level configuration behaves identically.
    let plan = compile_to_algebra(&parse_regex(":Knows+").unwrap(), PathSemantics::Walk);
    let out = Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(2))
        .eval_paths(&plan)
        .unwrap();
    assert!(out.iter().all(|p| p.len() <= 2));
}

/// A splitmix64 step: every generated regex case is a pure function of the
/// seed proptest draws.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A random label regex over `:a`, `:b`, `:c` and `:_`, at most `depth`
/// operators deep, built from `|`, `/`, `?`, `*` and `{m,n}`.
fn random_regex(state: &mut u64, depth: u32) -> pathalg::rpq::regex::LabelRegex {
    use pathalg::rpq::regex::LabelRegex;
    let pick = splitmix(state) % if depth == 0 { 4 } else { 10 };
    let sub = |state: &mut u64| random_regex(state, depth - 1);
    match pick {
        0..=2 => LabelRegex::label(["a", "b", "c"][pick as usize]),
        3 => LabelRegex::AnyLabel,
        4 | 5 => sub(state).or(sub(state)),
        6 => sub(state).then(sub(state)),
        7 => sub(state).optional(),
        8 => sub(state).star(),
        _ => {
            let min = (splitmix(state) % 2) as usize;
            let max = (min + (splitmix(state) % 2) as usize).max(1);
            sub(state).repeat(min, Some(max))
        }
    }
}

/// One generated case of the regex differential: a random graph of 3–7
/// nodes over the labels `a`/`b`/`c`, a regex under `+` — one of the four
/// shapes that reach a non-chain base by name, or a random one — and the
/// semantics and bounds to evaluate it under: `max_length` ∈ {2, 3, 4},
/// or none except for Walk, and a small `max_paths`.
fn regex_case(
    seed: u64,
) -> (
    PropertyGraph,
    pathalg::rpq::regex::LabelRegex,
    PathSemantics,
    RecursionConfig,
) {
    let mut state = seed;
    let nodes = 3 + (splitmix(&mut state) % 5) as usize;
    let graph = random_labeled_graph(&RandomGraphConfig {
        nodes,
        edges: (splitmix(&mut state) % (2 * nodes as u64 + 1)) as usize,
        edge_labels: vec!["a".into(), "b".into(), "c".into()],
        node_labels: vec!["N".into()],
        seed: splitmix(&mut state),
    });
    let named = ["(:a|:b/:c)+", "(:a?)+", "(:a/:b*)+", "(:a{1,2})+"];
    let regex = match (splitmix(&mut state) % 8) as usize {
        i if i < named.len() => parse_regex(named[i]).unwrap(),
        _ => random_regex(&mut state, 3).plus(),
    };
    let semantics = [
        PathSemantics::Walk,
        PathSemantics::Trail,
        PathSemantics::Acyclic,
        PathSemantics::Simple,
        PathSemantics::Shortest,
    ][(splitmix(&mut state) % 5) as usize];
    let bounds: &[Option<usize>] = if semantics == PathSemantics::Walk {
        &[Some(2), Some(3), Some(4)]
    } else {
        &[Some(2), Some(3), Some(4), None]
    };
    let recursion = RecursionConfig {
        max_length: bounds[(splitmix(&mut state) % bounds.len() as u64) as usize],
        max_paths: Some(64),
    };
    (graph, regex, semantics, recursion)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Generated regexes under `+`, whose bases are unions, nested ϕs and
    /// node paths rather than label chains: the engine's kernel answers what
    /// the reference evaluator does, as a set, and fails with the same kind
    /// of error when either fails.
    #[test]
    fn generated_regex_closures_equal_the_reference(seed in 0u64..u64::MAX) {
        use pathalg::engine::EngineEvaluator;

        let (graph, regex, semantics, recursion) = regex_case(seed);
        let plan = compile_to_algebra(&regex, semantics);
        let reference = Evaluator::with_config(&graph, EvalConfig { recursion }).eval_paths(&plan);
        let engine = EngineEvaluator::new(&graph, recursion, ExecutionConfig::default())
            .eval_paths(&plan);
        match (engine, reference) {
            (Ok(out), Ok(expected)) => prop_assert_eq!(out, expected, "{} {:?}", regex, semantics),
            (Err(a), Err(b)) => prop_assert_eq!(
                std::mem::discriminant(&a),
                std::mem::discriminant(&b),
                "{} {:?}: {:?} vs {:?}", regex, semantics, a, b
            ),
            (a, b) => prop_assert!(false, "{} {:?} {:?}: {:?} vs {:?}", regex, semantics, recursion, a, b),
        }
    }
}
