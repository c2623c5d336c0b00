//! Property-based tests of the algebraic laws, over randomly generated
//! graphs and operands.
//!
//! These check the identities the paper relies on implicitly: the carrier is a
//! set (union laws), join is associative with Nodes(G) as identity, selection
//! distributes over union and commutes with itself, the recursive operator is
//! monotone in its semantics, and the extended operators neither lose nor
//! duplicate paths.
//!
//! They also check the substrate the operators read: every CSR a graph
//! stores agrees with a fresh build and with its edge table, and the
//! statistics computed from those CSRs are pinned on Figure 1 and SNB-200.

use pathalg::algebra::condition::Condition;
use pathalg::algebra::ops::group_by::{group_by, GroupKey};
use pathalg::algebra::ops::join::{join, nested_loop_join};
use pathalg::algebra::ops::order_by::{order_by, OrderKey};
use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
use pathalg::algebra::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg::algebra::ops::selection::selection;
use pathalg::algebra::ops::union::union;
use pathalg::algebra::pathset::PathSet;
use pathalg::graph::csr::CsrGraph;
use pathalg::graph::fixtures::figure1::figure1_graph;
use pathalg::graph::generator::random::{random_labeled_graph, RandomGraphConfig};
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::generator::structured::{
    chain_graph, complete_graph, cycle_graph, grid_graph, ladder_graph,
};
use pathalg::graph::graph::PropertyGraph;
use pathalg::graph::ids::{EdgeId, NodeId};
use pathalg::graph::stats::GraphStats;
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a small, sparse random labelled graph. Edge count is capped at
/// twice the node count so the trail/simple closures computed inside the
/// properties stay small across all proptest cases.
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

fn label_condition(label: &str) -> Condition {
    Condition::edge_label(1, label)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn union_is_commutative_associative_idempotent(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let a = selection(&g, &label_condition("a"), &edges);
        let b = selection(&g, &label_condition("b"), &edges);
        let nodes = PathSet::nodes(&g);
        prop_assert_eq!(union(&a, &b), union(&b, &a));
        prop_assert_eq!(union(&union(&a, &b), &nodes), union(&a, &union(&b, &nodes)));
        prop_assert_eq!(union(&a, &a), a.clone());
        prop_assert_eq!(union(&a, &PathSet::new()), a);
    }

    #[test]
    fn selection_distributes_over_union_and_commutes(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let nodes = PathSet::nodes(&g);
        let c1 = label_condition("a");
        let c2 = Condition::len_eq(1);
        let mixed = union(&edges, &nodes);
        prop_assert_eq!(
            selection(&g, &c1, &mixed),
            union(&selection(&g, &c1, &edges), &selection(&g, &c1, &nodes))
        );
        prop_assert_eq!(
            selection(&g, &c1, &selection(&g, &c2, &mixed)),
            selection(&g, &c2, &selection(&g, &c1, &mixed))
        );
        // σ(a ∧ b) = σa ∘ σb
        prop_assert_eq!(
            selection(&g, &c1.clone().and(c2.clone()), &mixed),
            selection(&g, &c1, &selection(&g, &c2, &mixed))
        );
    }

    #[test]
    fn join_is_associative_with_nodes_as_identity(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let a = selection(&g, &label_condition("a"), &edges);
        let b = selection(&g, &label_condition("b"), &edges);
        let nodes = PathSet::nodes(&g);
        let hash_join = |x: &PathSet, y: &PathSet| join(x, y, None).unwrap();
        prop_assert_eq!(hash_join(&nodes, &a), a.clone());
        prop_assert_eq!(hash_join(&a, &nodes), a.clone());
        prop_assert_eq!(
            hash_join(&hash_join(&a, &b), &edges),
            hash_join(&a, &hash_join(&b, &edges))
        );
        // Hash join and nested-loop join are the same operator.
        prop_assert_eq!(hash_join(&a, &b), nested_loop_join(&a, &b));
        // Every joined path concatenates lengths.
        for p in hash_join(&a, &b).iter() {
            prop_assert_eq!(p.len(), 2);
            prop_assert!(p.validate(&g).is_ok());
        }
    }

    #[test]
    fn recursive_semantics_are_ordered_by_inclusion(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        let trail = recursive(PathSemantics::Trail, &edges, &cfg).unwrap();
        let acyclic = recursive(PathSemantics::Acyclic, &edges, &cfg).unwrap();
        let simple = recursive(PathSemantics::Simple, &edges, &cfg).unwrap();
        let shortest = recursive(PathSemantics::Shortest, &edges, &cfg).unwrap();
        // acyclic ⊆ simple ⊆ trail? (simple ⊆ trail does not hold in general
        // multigraphs with parallel edges, but acyclic ⊆ simple always, and
        // every acyclic path is a trail.)
        for p in acyclic.iter() {
            prop_assert!(simple.contains(p), "acyclic path missing from simple");
            prop_assert!(trail.contains(p), "acyclic path missing from trail");
        }
        // Shortest paths are simple by construction and present in simple.
        for p in shortest.iter() {
            prop_assert!(simple.contains(p), "shortest path missing from simple");
        }
        // All results satisfy their own predicate and are valid paths.
        prop_assert!(trail.iter().all(|p| p.is_trail()));
        prop_assert!(acyclic.iter().all(|p| p.is_acyclic()));
        prop_assert!(simple.iter().all(|p| p.is_simple()));
        prop_assert!(trail.iter().all(|p| p.validate(&g).is_ok()));
    }

    #[test]
    fn recursive_is_monotone_and_contains_its_base(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let a = selection(&g, &label_condition("a"), &edges);
        let cfg = RecursionConfig::default();
        let closure_a = recursive(PathSemantics::Trail, &a, &cfg).unwrap();
        let closure_all = recursive(PathSemantics::Trail, &edges, &cfg).unwrap();
        // ϕ contains its (filtered) base.
        for p in a.iter() {
            prop_assert!(closure_a.contains(p));
        }
        // Monotonicity: a ⊆ edges ⇒ ϕ(a) ⊆ ϕ(edges).
        for p in closure_a.iter() {
            prop_assert!(closure_all.contains(p));
        }
    }

    #[test]
    fn shortest_semantics_returns_minimal_lengths(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        let shortest = recursive(PathSemantics::Shortest, &edges, &cfg).unwrap();
        let acyclic = recursive(PathSemantics::Acyclic, &edges, &cfg).unwrap();
        use std::collections::HashMap;
        let mut best: HashMap<(_, _), usize> = HashMap::new();
        for p in acyclic.iter() {
            let e = best.entry((p.first(), p.last())).or_insert(usize::MAX);
            *e = (*e).min(p.len());
        }
        for p in shortest.iter() {
            if p.first() != p.last() {
                prop_assert_eq!(p.len(), best[&(p.first(), p.last())]);
            }
        }
        // Every endpoint pair reachable acyclically appears among the shortest
        // results.
        for ((s, t), _) in best {
            prop_assert!(
                shortest.iter().any(|p| p.first() == s && p.last() == t),
                "pair unreachable in shortest result"
            );
        }
    }

    #[test]
    fn group_by_partitions_every_path_exactly_once(g in small_graph()) {
        let edges = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        let paths = recursive(PathSemantics::Acyclic, &edges, &cfg).unwrap();
        for key in GroupKey::ALL {
            let ss = group_by(key, &paths);
            prop_assert!(ss.validate().is_ok());
            prop_assert_eq!(ss.path_count(), paths.len());
            let assigned: usize = ss.groups().iter().map(|grp| grp.paths.len()).sum();
            prop_assert_eq!(assigned, paths.len());
        }
    }

    #[test]
    fn projection_returns_a_subset_and_respects_counts(
        g in small_graph(),
        k in 1usize..4,
    ) {
        let edges = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        let paths = recursive(PathSemantics::Acyclic, &edges, &cfg).unwrap();
        let ss = order_by(OrderKey::Path, &group_by(GroupKey::SourceTarget, &paths));
        let spec = ProjectionSpec::new(Take::All, Take::All, Take::Count(k));
        let out = projection(&spec, &ss);
        // Subset of the input.
        for p in out.iter() {
            prop_assert!(paths.contains(p));
        }
        // At most k per endpoint pair, and they are the k shortest.
        use std::collections::HashMap;
        let mut by_pair: HashMap<(_, _), Vec<usize>> = HashMap::new();
        for p in out.iter() {
            by_pair.entry((p.first(), p.last())).or_default().push(p.len());
        }
        for ((s, t), lens) in by_pair {
            prop_assert!(lens.len() <= k);
            let mut all_lens: Vec<usize> = paths
                .iter()
                .filter(|p| p.first() == s && p.last() == t)
                .map(|p| p.len())
                .collect();
            all_lens.sort();
            let mut got = lens.clone();
            got.sort();
            prop_assert_eq!(got, all_lens[..all_lens.len().min(k)].to_vec());
        }
        // π(*,*,*) is the identity on the underlying set.
        prop_assert_eq!(projection(&ProjectionSpec::all(), &ss), paths);
    }

    #[test]
    fn stored_csrs_agree_with_fresh_builds(g in small_graph()) {
        assert_stored_csrs_are_sound(&g);
    }

    #[test]
    fn path_concatenation_is_associative(g in small_graph()) {
        let edges = PathSet::edges(&g);
        // Take any composable triple of edges and check (a∘b)∘c = a∘(b∘c).
        for a in edges.iter() {
            for b in edges.iter().filter(|b| a.can_concat(b)) {
                for c in edges.iter().filter(|c| b.can_concat(c)) {
                    let left = a.concat(b).unwrap().concat(c).unwrap();
                    let right = a.concat(&b.concat(c).unwrap()).unwrap();
                    prop_assert_eq!(left, right);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The graph's stored adjacency and statistics
// ---------------------------------------------------------------------------

/// The rows a CSR over every edge (or every `label` edge) keyed by source
/// (or by target when `reverse`) must hold, read straight off the edge
/// table.
fn rows_from_the_edge_table(
    g: &PropertyGraph,
    reverse: bool,
    label: Option<&str>,
) -> Vec<Vec<(NodeId, EdgeId)>> {
    g.nodes()
        .map(|v| {
            g.edges()
                .filter(|&e| label.is_none_or(|l| g.label(e) == Some(l)))
                .filter_map(|e| {
                    let (s, t) = g.endpoints(e);
                    let (row, column) = if reverse { (t, s) } else { (s, t) };
                    (row == v).then_some((column, e))
                })
                .collect()
        })
        .collect()
}

/// A fresh CSR over every edge, and every label CSR a graph holds and its
/// reverse, agree with a fresh build or the edge table; the label CSRs
/// together hold every edge.
fn assert_stored_csrs_are_sound(g: &PropertyGraph) {
    let all = CsrGraph::from_graph(g);
    assert_eq!(all.node_count(), g.node_count());
    assert_eq!(all.edge_count(), g.edge_count());
    for (v, row) in g.nodes().zip(rows_from_the_edge_table(g, false, None)) {
        assert_eq!(all.neighbors(v).collect::<Vec<_>>(), row);
    }
    let (mut labels, mut edges) = (0, 0);
    for (label, csr) in g.edge_label_csrs() {
        assert_eq!(csr, &CsrGraph::with_label(g, label), "label {label}");
        assert_eq!(g.label_csr(label), csr);
        let reverse = g.reverse_label_csr(label);
        for (v, row) in g
            .nodes()
            .zip(rows_from_the_edge_table(g, true, Some(label)))
        {
            assert_eq!(reverse.neighbors(v).collect::<Vec<_>>(), row, "{label}");
        }
        labels += 1;
        edges += csr.edge_count();
    }
    let carried: BTreeSet<_> = g.edges().filter_map(|e| g.label(e)).collect();
    assert_eq!(labels, carried.len());
    assert_eq!(edges, g.edge_count());
}

#[test]
fn stored_csrs_agree_with_fresh_builds_on_fixed_graphs() {
    assert_stored_csrs_are_sound(&figure1_graph());
    assert_stored_csrs_are_sound(&snb_like_graph(&SnbConfig::scale(200, 11)));
    for g in [
        chain_graph(6, "a"),
        cycle_graph(5, "a"),
        grid_graph(3, 4, "a"),
        ladder_graph(4, "a"),
        complete_graph(4, "a"),
    ] {
        assert_stored_csrs_are_sound(&g);
    }
}

/// Every accessor's value, for every label and ordered label pair, in a
/// fixed order; floats in their exact round-trip form.
fn render_all(stats: &GraphStats) -> String {
    let mut out = format!(
        "nodes {} edges {} max_out {} max_in {} avg_out {:?} cyclic {}\n",
        stats.node_count(),
        stats.edge_count(),
        stats.max_out_degree(),
        stats.max_in_degree(),
        stats.avg_out_degree(),
        stats.is_cyclic()
    );
    let mut node_labels: Vec<_> = stats.node_labels().collect();
    node_labels.sort();
    for l in node_labels {
        out += &format!("node {l} {}\n", stats.nodes_with_label(l));
    }
    let mut labels: Vec<_> = stats.edge_labels().collect();
    labels.sort();
    for &l in &labels {
        out += &format!(
            "edge {l} {} selectivity {:?} expansion {:?} cyclic {}\n",
            stats.edges_with_label(l),
            stats.edge_label_selectivity(l),
            stats.label_expansion(l),
            stats.label_cyclic(l)
        );
    }
    for &a in &labels {
        for &b in &labels {
            out += &format!(
                "pair {a} {b} expansion {:?} cyclic {:?}\n",
                stats.pair_expansion(a, b),
                stats.pair_cyclic(a, b)
            );
        }
    }
    out
}

#[test]
fn figure1_stats_are_pinned() {
    let stats = GraphStats::compute(&figure1_graph());
    assert_eq!(
        render_all(&stats),
        "\
        nodes 7 edges 11 max_out 3 max_in 2 avg_out 1.5714285714285714 cyclic true\n\
        node Message 3\n\
        node Person 4\n\
        edge Has_creator 3 selectivity 0.2727272727272727 expansion 1.0 cyclic false\n\
        edge Knows 4 selectivity 0.36363636363636365 expansion 1.3333333333333333 cyclic true\n\
        edge Likes 4 selectivity 0.36363636363636365 expansion 1.0 cyclic false\n\
        pair Has_creator Has_creator expansion Some(0.0) cyclic Some(false)\n\
        pair Has_creator Knows expansion Some(0.6666666666666666) cyclic Some(false)\n\
        pair Has_creator Likes expansion Some(1.0) cyclic Some(true)\n\
        pair Knows Has_creator expansion Some(0.0) cyclic Some(false)\n\
        pair Knows Knows expansion Some(1.25) cyclic Some(true)\n\
        pair Knows Likes expansion Some(1.0) cyclic Some(false)\n\
        pair Likes Has_creator expansion Some(1.0) cyclic Some(true)\n\
        pair Likes Knows expansion Some(0.0) cyclic Some(false)\n\
        pair Likes Likes expansion Some(0.0) cyclic Some(false)\n"
    );
}

#[test]
fn snb_200_stats_are_pinned() {
    let stats = GraphStats::compute(&snb_like_graph(&SnbConfig::scale(200, 11)));
    assert_eq!(
        render_all(&stats),
        "\
        nodes 600 edges 1400 max_out 5 max_in 11 avg_out 2.3333333333333335 cyclic true\n\
        node Message 400\n\
        node Person 200\n\
        edge Has_creator 400 selectivity 0.2857142857142857 expansion 1.0 cyclic false\n\
        edge Knows 600 selectivity 0.42857142857142855 expansion 3.0 cyclic true\n\
        edge Likes 400 selectivity 0.2857142857142857 expansion 2.0 cyclic false\n\
        pair Has_creator Has_creator expansion Some(0.0) cyclic Some(false)\n\
        pair Has_creator Knows expansion Some(3.0) cyclic Some(false)\n\
        pair Has_creator Likes expansion Some(2.0) cyclic Some(true)\n\
        pair Knows Has_creator expansion Some(0.0) cyclic Some(false)\n\
        pair Knows Knows expansion Some(3.0) cyclic Some(true)\n\
        pair Knows Likes expansion Some(2.0) cyclic Some(false)\n\
        pair Likes Has_creator expansion Some(1.0) cyclic Some(true)\n\
        pair Likes Knows expansion Some(0.0) cyclic Some(false)\n\
        pair Likes Likes expansion Some(0.0) cyclic Some(false)\n"
    );
}
