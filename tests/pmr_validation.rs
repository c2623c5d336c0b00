//! Validation of the compact path-multiset representation (`pathalg-pmr`,
//! DESIGN.md §8) against the materialised engine.
//!
//! The PMR's contract is strict: `Pmr::enumerate()` must reproduce the
//! reference fixpoint's answer **in content and canonical order** (the order
//! every lazy consumer relies on), `top_k(k)` must equal
//! `enumerate().take(k)` while expanding less, and the sliced evaluation
//! must agree with the γ/τ/π operators it pushes into.
//! These are checked on every fixture graph and, via the vendored proptest,
//! on streams of random graphs. The `from_base_*` cases pin the rules of ϕ
//! over a materialised base (`Pmr::from_base`) against the fixpoint.

use pathalg::algebra::condition::Condition;
use pathalg::algebra::error::AlgebraError;
use pathalg::algebra::ops::group_by::{group_by, GroupKey};
use pathalg::algebra::ops::join::join;
use pathalg::algebra::ops::order_by::{order_by, OrderKey};
use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
use pathalg::algebra::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg::algebra::ops::selection::selection;
use pathalg::algebra::path::Path;
use pathalg::algebra::pathset::PathSet;
use pathalg::algebra::slice::SliceSpec;
use pathalg::graph::csr::CsrGraph;
use pathalg::graph::fixtures::figure1::Figure1;
use pathalg::graph::generator::random::{random_labeled_graph, RandomGraphConfig};
use pathalg::graph::generator::snb::{snb_label_csr, snb_like_graph, SnbConfig};
use pathalg::graph::generator::structured::{chain_graph, cycle_graph, grid_graph, ladder_graph};
use pathalg::graph::graph::{GraphBuilder, PropertyGraph};
use pathalg::graph::ids::NodeId;
use pathalg::graph::value::Value;
use pathalg::pmr::{canonical_order, Pmr};
use proptest::prelude::*;
use std::sync::Arc;

fn fixture_graphs() -> Vec<(String, PropertyGraph)> {
    let mut graphs = vec![
        ("figure1".to_string(), Figure1::new().graph),
        ("chain8".to_string(), chain_graph(8, "Knows")),
        ("cycle7".to_string(), cycle_graph(7, "Knows")),
        ("ladder3".to_string(), ladder_graph(3, "Knows")),
        ("grid3x3".to_string(), grid_graph(3, 3, "Knows")),
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
    for seed in [1u64, 2] {
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

/// The semantics the satellite task names (Walk needs a bound on cyclic
/// fixtures) plus the remaining two for completeness.
fn semantics_cases() -> Vec<(PathSemantics, RecursionConfig)> {
    let bounded = RecursionConfig {
        max_length: Some(4),
        ..RecursionConfig::default()
    };
    vec![
        (PathSemantics::Walk, bounded),
        (PathSemantics::Trail, RecursionConfig::default()),
        (PathSemantics::Shortest, RecursionConfig::default()),
        (PathSemantics::Acyclic, RecursionConfig::default()),
        (PathSemantics::Simple, RecursionConfig::default()),
    ]
}

/// The oracle every kernel drain is compared against, in content *and
/// order*: the reference fixpoint over the edge base the CSR snapshot stands
/// for — `σℓ(Edges(G))` for a label, `Edges(G)` for none — put in canonical
/// order.
fn reference_closure(
    graph: &PropertyGraph,
    label: Option<&str>,
    semantics: PathSemantics,
    cfg: &RecursionConfig,
) -> PathSet {
    let edges = PathSet::edges(graph);
    let (base, csr) = match label {
        Some(l) => (
            selection(graph, &Condition::edge_label(1, l), &edges),
            CsrGraph::with_label(graph, l),
        ),
        None => (edges, CsrGraph::from_graph(graph)),
    };
    canonical_order(&recursive(semantics, &base, cfg).unwrap(), &[csr])
}

/// `Pmr::enumerate` equals the ordered reference closure in content *and
/// order* on every fixture graph, with and without label selection — and a
/// scan *is* the one-hop chain: `from_shared_csr(c)` and
/// `from_shared_join([c])` build the same kernel, so they agree on the
/// stream and on every work counter.
#[test]
fn enumeration_is_byte_identical_to_the_materialised_frontier() {
    for (name, graph) in fixture_graphs() {
        // The unlabelled (whole-graph) variant stays on the small fixtures:
        // the full trail closure of the multi-label SNB/random graphs blows
        // past the default path budget.
        let labels: &[Option<&str>] = if name.starts_with("snb") || name.starts_with("random") {
            &[Some("Knows")]
        } else {
            &[Some("Knows"), None]
        };
        for (semantics, cfg) in semantics_cases() {
            for &label in labels {
                let csr = match label {
                    Some(l) => CsrGraph::with_label(&graph, l),
                    None => CsrGraph::from_graph(&graph),
                };
                let expected = reference_closure(&graph, label, semantics, &cfg);
                let mut pmr = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
                let out = pmr.enumerate_all().unwrap();
                assert_eq!(
                    out.as_slice(),
                    expected.as_slice(),
                    "{name}: PMR enumeration diverged under {semantics:?} (label {label:?})"
                );
                let mut chain = Pmr::from_shared_join(Arc::from(vec![csr.clone()]), semantics, cfg);
                assert_eq!(
                    chain.enumerate_all().unwrap().as_slice(),
                    out.as_slice(),
                    "{name}: one-hop chain diverged from the scan under {semantics:?}"
                );
                let work = pmr.work_counters();
                assert_eq!(chain.work_counters(), work, "{name}: {semantics:?}");
                // `base_segments` of a scan counts its level-0 paths: after a
                // full drain, every scanned edge (Acyclic admits no
                // self-loop, even as a base path).
                let base_edges = (0..csr.node_count() as u32)
                    .flat_map(|v| csr.neighbors(NodeId(v)).map(move |(t, _)| (NodeId(v), t)))
                    .filter(|(s, t)| semantics != PathSemantics::Acyclic || s != t)
                    .count();
                assert_eq!(
                    work.base_segments, base_edges as u64,
                    "{name}: {semantics:?}"
                );
            }
        }
    }
}

/// `top_k(k) == enumerate().take(k)` on every fixture graph and semantics.
#[test]
fn top_k_law_holds_on_every_fixture() {
    for (name, graph) in fixture_graphs() {
        for (semantics, cfg) in semantics_cases() {
            let csr = CsrGraph::with_label(&graph, "Knows");
            let mut full = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
            let all = full.enumerate_all().unwrap();
            for k in [0, 1, 2, 5, all.len(), all.len() + 7] {
                let mut pmr = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
                let top = pmr.top_k(k).unwrap();
                let expected: Vec<_> = all.iter().take(k).cloned().collect();
                assert_eq!(
                    top.as_slice(),
                    expected.as_slice(),
                    "{name}: top_k({k}) law violated under {semantics:?}"
                );
            }
        }
    }
}

/// The sliced evaluation equals the materialised γ/τ/π pipeline on every
/// fixture graph, for the selector shapes the recogniser accepts.
#[test]
fn sliced_evaluation_matches_the_materialised_pipeline_on_every_fixture() {
    for (name, graph) in fixture_graphs() {
        for (semantics, cfg) in semantics_cases() {
            let csr = CsrGraph::with_label(&graph, "Knows");
            let materialised = reference_closure(&graph, Some("Knows"), semantics, &cfg);
            for (group_key, order, spec) in [
                (
                    GroupKey::SourceTarget,
                    Some(OrderKey::Path),
                    ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                ),
                (
                    GroupKey::SourceTarget,
                    None,
                    ProjectionSpec::new(Take::All, Take::All, Take::Count(2)),
                ),
                (
                    GroupKey::Source,
                    Some(OrderKey::Path),
                    ProjectionSpec::new(Take::All, Take::All, Take::Count(3)),
                ),
                (
                    GroupKey::Empty,
                    None,
                    ProjectionSpec::new(Take::All, Take::All, Take::Count(4)),
                ),
                (
                    GroupKey::Source,
                    None,
                    ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(2)),
                ),
            ] {
                let grouped = group_by(group_key, &materialised);
                let ranked = match order {
                    Some(key) => order_by(key, &grouped),
                    None => grouped,
                };
                let expected = projection(&spec, &ranked);

                let slice = SliceSpec {
                    group_key,
                    per_group: spec.path_limit(),
                    max_partitions: spec.partition_limit(),
                    max_groups: None,
                    ordered_by_length: order.is_some(),
                };
                let mut pmr = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
                let out = pmr.sliced(&slice).unwrap();
                assert_eq!(
                    out.as_slice(),
                    expected.as_slice(),
                    "{name}: sliced γ{group_key} {spec} diverged under {semantics:?}"
                );
            }
        }
    }
}

/// `σℓ(Edges(G))` as a materialised base.
fn label_base(graph: &PropertyGraph, label: &str) -> PathSet {
    selection(
        graph,
        &Condition::edge_label(1, label),
        &PathSet::edges(graph),
    )
}

/// The kernel's drain of `ϕ_semantics(base)` over a materialised base.
fn phi(
    semantics: PathSemantics,
    base: &PathSet,
    config: RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    Pmr::from_base(base, semantics, config).enumerate_all()
}

const RESTRICTED: [PathSemantics; 4] = [
    PathSemantics::Trail,
    PathSemantics::Acyclic,
    PathSemantics::Simple,
    PathSemantics::Shortest,
];

#[test]
fn from_base_agrees_with_seminaive_on_figure1_for_every_semantics() {
    let f = Figure1::new();
    let base = label_base(&f.graph, "Knows");
    let cfg = RecursionConfig::default();
    for semantics in RESTRICTED {
        let reference = recursive(semantics, &base, &cfg).unwrap();
        assert_eq!(
            phi(semantics, &base, cfg).unwrap(),
            reference,
            "{semantics:?}"
        );
    }
}

#[test]
fn from_base_composite_bases_deduplicate_recombinations() {
    // Likes ⋈ Has_creator produces 2-hop base paths; recombinations of
    // those must not appear twice (the seen-set of a composite base).
    let f = Figure1::new();
    let hops = join(
        &label_base(&f.graph, "Likes"),
        &label_base(&f.graph, "Has_creator"),
        None,
    )
    .unwrap();
    let mut base = hops.clone();
    base.extend(label_base(&f.graph, "Knows").iter().cloned());
    let cfg = RecursionConfig::default();
    for base in [&hops, &base] {
        for semantics in RESTRICTED {
            let reference = recursive(semantics, base, &cfg).unwrap();
            let out = phi(semantics, base, cfg).unwrap();
            assert_eq!(out, reference, "{semantics:?}");
            // Streamed, not collected into a set: no path twice.
            let mut streamed = 0;
            Pmr::from_base(base, semantics, cfg)
                .for_each_path(|_, _| streamed += 1)
                .unwrap();
            assert_eq!(streamed, out.len(), "{semantics:?}");
        }
    }
}

#[test]
fn from_base_empty_and_node_only_bases_are_preserved() {
    let f = Figure1::new();
    let cfg = RecursionConfig::default();
    assert!(phi(PathSemantics::Trail, &PathSet::new(), cfg)
        .unwrap()
        .is_empty());
    let nodes = PathSet::nodes(&f.graph);
    for semantics in [PathSemantics::Trail, PathSemantics::Shortest] {
        let out = phi(semantics, &nodes, cfg).unwrap();
        assert_eq!(out.as_slice(), nodes.as_slice(), "{semantics:?}");
    }
}

#[test]
fn from_base_mixed_node_and_edge_bases_match_seminaive_under_shortest() {
    // A zero-length base path seeds the per-pair minimum: closed cycles
    // from that node must be filtered, exactly as in the fixpoint; and
    // it is emitted first at its source.
    let g = cycle_graph(4, "a");
    let mut base = label_base(&g, "a");
    base.insert(Path::node(NodeId(0)));
    let cfg = RecursionConfig::default();
    let reference = recursive(PathSemantics::Shortest, &base, &cfg).unwrap();
    let out = phi(PathSemantics::Shortest, &base, cfg).unwrap();
    assert_eq!(out, reference);
    assert_eq!(out.as_slice()[0], Path::node(NodeId(0)));
    assert!(out
        .iter()
        .all(|p| p.is_empty() || p.first() != NodeId(0) || p.last() != NodeId(0)));
}

#[test]
fn from_base_unbounded_walks_error_on_cycles_and_finish_on_dags() {
    let cfg = RecursionConfig::unbounded();
    let base = label_base(&cycle_graph(3, "a"), "a");
    assert!(matches!(
        phi(PathSemantics::Walk, &base, cfg),
        Err(AlgebraError::RecursionLimitExceeded { .. })
    ));
    let base = label_base(&chain_graph(6, "a"), "a");
    let out = phi(PathSemantics::Walk, &base, cfg).unwrap();
    assert_eq!(out.len(), 15);
    assert_eq!(out, recursive(PathSemantics::Walk, &base, &cfg).unwrap());
}

#[test]
fn from_base_walk_on_a_self_loop_base_errors_like_seminaive() {
    let mut b = GraphBuilder::new();
    let n0 = b.add_node("N", Vec::<(&str, Value)>::new());
    let n1 = b.add_node("N", Vec::<(&str, Value)>::new());
    b.add_edge(n0, n0, "a", Vec::<(&str, Value)>::new());
    b.add_edge(n0, n1, "a", Vec::<(&str, Value)>::new());
    let g = b.build();
    let base = label_base(&g, "a");
    let cfg = RecursionConfig::unbounded();
    assert!(matches!(
        recursive(PathSemantics::Walk, &base, &cfg),
        Err(AlgebraError::RecursionLimitExceeded { .. })
    ));
    assert!(matches!(
        phi(PathSemantics::Walk, &base, cfg),
        Err(AlgebraError::RecursionLimitExceeded { .. })
    ));
}

#[test]
fn from_base_max_paths_is_enforced_across_sources() {
    let f = Figure1::new();
    let base = label_base(&f.graph, "Knows");
    let cfg = RecursionConfig {
        max_length: Some(10),
        max_paths: Some(4),
    };
    assert_eq!(
        phi(PathSemantics::Walk, &base, cfg),
        Err(AlgebraError::ResultLimitExceeded { limit: 4 })
    );
}

#[test]
fn from_base_a_later_sources_base_paths_can_exceed_max_paths() {
    // 0 → 1 → 2 plus the node paths of 1 and 2: the only candidate is
    // claimed at node 0 with 2 paths counted; the base paths of nodes 1
    // and 2 are recorded after it and take the total to 5 > 3, which
    // fails the fixpoint too.
    let g = chain_graph(3, "a");
    let mut base = label_base(&g, "a");
    base.insert(Path::node(NodeId(1)));
    base.insert(Path::node(NodeId(2)));
    let cfg = RecursionConfig::unbounded();
    let limited = RecursionConfig {
        max_paths: Some(3),
        ..cfg
    };
    assert_eq!(phi(PathSemantics::Trail, &base, cfg).unwrap().len(), 5);
    for out in [
        recursive(PathSemantics::Trail, &base, &limited),
        phi(PathSemantics::Trail, &base, limited),
    ] {
        assert_eq!(out, Err(AlgebraError::ResultLimitExceeded { limit: 3 }));
    }
}

#[test]
fn from_base_oversized_bases_without_candidates_succeed_like_seminaive() {
    // The fixpoint admits its base unconditionally and only enforces
    // `max_paths` on recursion candidates; a base larger than the limit
    // that produces no candidates must therefore succeed.
    let f = Figure1::new();
    let base = PathSet::nodes(&f.graph); // 7 paths, never expandable
    let cfg = RecursionConfig {
        max_length: None,
        max_paths: Some(5),
    };
    let reference = recursive(PathSemantics::Trail, &base, &cfg).unwrap();
    assert_eq!(reference.len(), 7);
    assert_eq!(phi(PathSemantics::Trail, &base, cfg).unwrap(), reference);
}

#[test]
fn scan_base_edges_after_the_last_claim_still_count_toward_max_paths() {
    // A 3-chain and two lone edges: the one candidate is claimed at the
    // first source, the lone edges are recorded after it, and the
    // total of 5 paths fails a limit of 4 — as in the fixpoint.
    let mut g = GraphBuilder::new();
    let no_props = Vec::<(&str, Value)>::new;
    let v: Vec<NodeId> = (0..7).map(|_| g.add_node("N", no_props())).collect();
    for (s, t) in [(0, 1), (1, 2), (3, 4), (5, 6)] {
        g.add_edge(v[s], v[t], "a", no_props());
    }
    let g = g.build();
    let base = selection(&g, &Condition::edge_label(1, "a"), &PathSet::edges(&g));
    for limit in [4, 5] {
        let cfg = RecursionConfig {
            max_length: None,
            max_paths: Some(limit),
        };
        let expected = recursive(PathSemantics::Trail, &base, &cfg);
        assert_eq!(expected.is_err(), limit == 4);
        let out = Pmr::from_shared_csr(
            Arc::new(g.label_csr("a").clone()),
            PathSemantics::Trail,
            cfg,
        )
        .enumerate_all();
        assert_eq!(
            out.map(|p| p.len()),
            expected.map(|p| p.len()),
            "limit {limit}"
        );
    }
}

/// Strategy: a small, sparse random labelled graph (the same shape the
/// algebraic-law property tests use).
fn small_graph() -> impl Strategy<Value = PropertyGraph> {
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

fn semantics_from_index(i: usize) -> (PathSemantics, RecursionConfig) {
    semantics_cases()[i % 5]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Random graphs: enumeration equals the ordered reference closure in
    /// content and order, with and without label selection.
    #[test]
    fn enumeration_matches_frontier_on_random_graphs(
        g in small_graph(),
        sem in 0usize..5,
        labelled in 0usize..2,
    ) {
        let (semantics, cfg) = semantics_from_index(sem);
        let (csr, label) = if labelled == 1 {
            (CsrGraph::with_label(&g, "a"), Some("a"))
        } else {
            (CsrGraph::from_graph(&g), None)
        };
        let expected = reference_closure(&g, label, semantics, &cfg);
        let mut pmr = Pmr::from_shared_csr(Arc::new(csr), semantics, cfg);
        let out = pmr.enumerate_all().unwrap();
        prop_assert_eq!(out.as_slice(), expected.as_slice());
    }

    /// Random graphs: the top-k law.
    #[test]
    fn top_k_law_on_random_graphs(
        g in small_graph(),
        sem in 0usize..5,
        k in 0usize..48,
    ) {
        let (semantics, cfg) = semantics_from_index(sem);
        let csr = CsrGraph::with_label(&g, "a");
        let mut full = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
        let all = full.enumerate_all().unwrap();
        let mut pmr = Pmr::from_shared_csr(Arc::new(csr), semantics, cfg);
        let top = pmr.top_k(k).unwrap();
        let expected: Vec<_> = all.iter().take(k).cloned().collect();
        prop_assert_eq!(top.as_slice(), expected.as_slice());
    }

    /// Random graphs: sliced SHORTEST-k style pipelines equal the
    /// materialised operators.
    #[test]
    fn sliced_matches_pipeline_on_random_graphs(
        g in small_graph(),
        sem in 0usize..5,
        k in 1usize..4,
    ) {
        let (semantics, cfg) = semantics_from_index(sem);
        let csr = CsrGraph::with_label(&g, "a");
        let materialised = reference_closure(&g, Some("a"), semantics, &cfg);
        let expected = projection(
            &ProjectionSpec::new(Take::All, Take::All, Take::Count(k)),
            &order_by(
                OrderKey::Path,
                &group_by(GroupKey::SourceTarget, &materialised),
            ),
        );
        let slice = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(k),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: true,
        };
        let mut pmr = Pmr::from_shared_csr(Arc::new(csr), semantics, cfg);
        let out = pmr.sliced(&slice).unwrap();
        prop_assert_eq!(out.as_slice(), expected.as_slice());
    }

    /// Random graphs: the counting drains (which never reconstruct a path)
    /// traverse exactly the multiset the realising drain does — same
    /// cardinality at any split point, and the same arena behind them.
    #[test]
    fn counting_drains_traverse_the_same_multiset(
        g in small_graph(),
        sem in 0usize..5,
        k in 0usize..64,
    ) {
        let (semantics, cfg) = semantics_from_index(sem);
        let csr = CsrGraph::with_label(&g, "a");
        let mut realised = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
        let all = realised.enumerate_all().unwrap();
        let mut counted = Pmr::from_shared_csr(Arc::new(csr), semantics, cfg);
        let head = counted.count_batch(k).unwrap();
        let rest = counted.count_all().unwrap();
        prop_assert_eq!(head, all.len().min(k));
        prop_assert_eq!(head + rest, all.len());
        prop_assert_eq!(counted.arena_bytes(), realised.arena_bytes());
    }

    /// Random SNB shapes: the streamed label CSR is identical to building
    /// the property graph and restricting it.
    #[test]
    fn streamed_snb_csr_equals_the_materialised_build(
        persons in 0usize..32,
        messages in 0usize..32,
        seed in 0u64..1_000_000,
        label_idx in 0usize..3,
    ) {
        let cfg = SnbConfig {
            persons,
            messages,
            knows_per_person: 2,
            likes_per_person: 1,
            seed,
            ..SnbConfig::default()
        };
        let label = ["Knows", "Has_creator", "Likes"][label_idx];
        prop_assert_eq!(
            snb_label_csr(&cfg, label),
            CsrGraph::with_label(&snb_like_graph(&cfg), label)
        );
    }
}
