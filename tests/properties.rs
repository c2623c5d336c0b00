//! Property-based tests of the algebraic laws, over randomly generated
//! graphs and operands.
//!
//! These check the identities the paper relies on implicitly: the carrier is a
//! set (union laws), join is associative with Nodes(G) as identity, selection
//! distributes over union and commutes with itself, the recursive operator is
//! monotone in its semantics, and the extended operators neither lose nor
//! duplicate paths.

use pathalg::algebra::condition::Condition;
use pathalg::algebra::ops::group_by::{group_by, GroupKey};
use pathalg::algebra::ops::join::{join, nested_loop_join};
use pathalg::algebra::ops::order_by::{order_by, OrderKey};
use pathalg::algebra::ops::projection::{projection, ProjectionSpec, Take};
use pathalg::algebra::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg::algebra::ops::selection::selection;
use pathalg::algebra::ops::union::union;
use pathalg::algebra::pathset::PathSet;
use pathalg::graph::generator::random::{random_labeled_graph, RandomGraphConfig};
use pathalg::graph::graph::PropertyGraph;
use proptest::prelude::*;

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
