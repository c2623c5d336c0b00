//! The join operator ⋈ (Definition 3.1).
//!
//! `S ⋈ S' = { p1 ∘ p2 | p1 ∈ S ∧ p2 ∈ S' ∧ Last(p1) = First(p2) }` — the
//! path analogue of a relational equi-join on the endpoints, producing the
//! concatenated paths rather than joined tuples.
//!
//! Two physical strategies are provided:
//!
//! * [`join`] — hash join: the right side is indexed by its first node, each
//!   left path probes the index. `O(|S| + |S'| + |result|)` concatenations,
//!   and an optional result limit stops the loop the moment it is passed.
//! * [`nested_loop_join`] — the textbook `O(|S|·|S'|)` strategy, kept both as
//!   a correctness oracle for tests and as the baseline of the join-strategy
//!   ablation bench.

use crate::error::AlgebraError;
use crate::fasthash::FastMap;
use crate::path::Path;
use crate::pathset::PathSet;
use pathalg_graph::ids::NodeId;

/// Evaluates `left ⋈ right` with a hash-join strategy. With `limit` set, a
/// result of more than `limit` paths fails with the same
/// [`AlgebraError::ResultLimitExceeded`] ϕ returns, as soon as the loop
/// passes it — the join never materialises more than `limit + 1` paths.
pub fn join(
    left: &PathSet,
    right: &PathSet,
    limit: Option<usize>,
) -> Result<PathSet, AlgebraError> {
    // Build a map from first-node to the right-hand paths starting there.
    let mut by_first: FastMap<NodeId, Vec<&Path>> = FastMap::default();
    for p in right.iter() {
        by_first.entry(p.first()).or_default().push(p);
    }
    let mut out = PathSet::new();
    for p1 in left.iter() {
        if let Some(candidates) = by_first.get(&p1.last()) {
            for p2 in candidates {
                let joined = p1
                    .concat(p2)
                    .expect("endpoints match by construction of the hash index");
                out.insert(joined);
                if let Some(limit) = limit.filter(|&l| out.len() > l) {
                    return Err(AlgebraError::ResultLimitExceeded { limit });
                }
            }
        }
    }
    Ok(out)
}

/// Evaluates `left ⋈ right` with a nested-loop strategy. Semantically
/// identical to [`join`].
pub fn nested_loop_join(left: &PathSet, right: &PathSet) -> PathSet {
    let mut out = PathSet::new();
    for p1 in left.iter() {
        for p2 in right.iter() {
            if p1.can_concat(p2) {
                out.insert(p1.concat(p2).expect("checked by can_concat"));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;

    fn knows_edges(f: &Figure1) -> PathSet {
        selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        )
    }

    #[test]
    fn join_concatenates_on_matching_endpoints() {
        let f = Figure1::new();
        let knows = knows_edges(&f);
        // Knows ⋈ Knows: the 2-hop friend-of-friend paths of Figure 3.
        let two_hop = join(&knows, &knows, None).unwrap();
        // e1∘e2 (n1→n3), e1∘e4 (n1→n4), e2∘e3 (n2→n2), e3∘e2 (n3→n3), e3∘e4 (n3→n4).
        assert_eq!(two_hop.len(), 5);
        for p in two_hop.iter() {
            assert_eq!(p.len(), 2);
            p.validate(&f.graph).unwrap();
            assert_eq!(p.label_sequence(&f.graph), [Some("Knows"), Some("Knows")]);
        }
    }

    #[test]
    fn hash_and_nested_loop_agree() {
        let f = Figure1::new();
        let all = PathSet::edges(&f.graph);
        let knows = knows_edges(&f);
        assert_eq!(
            join(&all, &all, None).unwrap(),
            nested_loop_join(&all, &all)
        );
        assert_eq!(
            join(&knows, &all, None).unwrap(),
            nested_loop_join(&knows, &all)
        );
        assert_eq!(
            join(&all, &knows, None).unwrap(),
            nested_loop_join(&all, &knows)
        );
    }

    #[test]
    fn join_with_nodes_is_identity_like() {
        // Nodes(G) acts as the left/right identity for ⋈ because zero-length
        // paths concatenate without adding edges.
        let f = Figure1::new();
        let edges = PathSet::edges(&f.graph);
        let nodes = PathSet::nodes(&f.graph);
        assert_eq!(join(&nodes, &edges, None).unwrap(), edges);
        assert_eq!(join(&edges, &nodes, None).unwrap(), edges);
    }

    #[test]
    fn join_with_empty_set_is_empty() {
        let f = Figure1::new();
        let edges = PathSet::edges(&f.graph);
        let empty = PathSet::new();
        assert!(join(&edges, &empty, None).unwrap().is_empty());
        assert!(join(&empty, &edges, None).unwrap().is_empty());
    }

    #[test]
    fn join_respects_direction() {
        let f = Figure1::new();
        let likes = selection(
            &f.graph,
            &Condition::edge_label(1, "Likes"),
            &PathSet::edges(&f.graph),
        );
        let creator = selection(
            &f.graph,
            &Condition::edge_label(1, "Has_creator"),
            &PathSet::edges(&f.graph),
        );
        // Likes ⋈ Has_creator: Person → Message → Person, 4 of them
        // (n1→n6→n3, n3→n7→n4, n4→n5→n1, n2→n5→n1).
        let forward = join(&likes, &creator, None).unwrap();
        assert_eq!(forward.len(), 4);
        // Has_creator ⋈ Likes: Message → Person → Message.
        let backward = join(&creator, &likes, None).unwrap();
        for p in backward.iter() {
            assert_eq!(
                p.label_sequence(&f.graph),
                [Some("Has_creator"), Some("Likes")]
            );
        }
        assert_ne!(forward, backward);
    }

    #[test]
    fn join_is_associative() {
        let f = Figure1::new();
        let knows = knows_edges(&f);
        let two_hop = join(&knows, &knows, None).unwrap();
        let left = join(&two_hop, &knows, None).unwrap();
        let right = join(&knows, &two_hop, None).unwrap();
        assert_eq!(left, right);
    }

    #[test]
    fn join_result_with_multiple_matches_per_endpoint() {
        let f = Figure1::new();
        // n2 has two outgoing Knows edges (e2 to n3, e4 to n4); joining the
        // single edge e1 (n1→n2) against Knows must produce both extensions.
        let e1_only: PathSet = [Path::edge(&f.graph, f.e1)].into_iter().collect();
        let knows = knows_edges(&f);
        let out = join(&e1_only, &knows, None).unwrap();
        assert_eq!(out.len(), 2);
        let targets: Vec<_> = out.iter().map(|p| p.last()).collect();
        assert!(targets.contains(&f.n3));
        assert!(targets.contains(&f.n4));
    }

    #[test]
    fn a_limit_bounds_the_result_like_phi() {
        let f = Figure1::new();
        let knows = knows_edges(&f);
        // Knows ⋈ Knows has exactly 5 paths: a limit of 5 admits it, 4 fails.
        assert_eq!(join(&knows, &knows, Some(5)).unwrap().len(), 5);
        assert_eq!(
            join(&knows, &knows, Some(4)),
            Err(AlgebraError::ResultLimitExceeded { limit: 4 })
        );
    }
}
