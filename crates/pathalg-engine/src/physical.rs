//! Physical implementations of the recursive operator ϕ over a materialised
//! base.
//!
//! The algebra fixes *what* ϕ computes; how to compute it is an engineering
//! choice (Section 8.2 surveys the design space). The engine dispatches
//! exactly one of the functions below — [`frontier::phi_frontier`], for
//! every base it has to materialise; a base that is a label scan or a join
//! chain of label scans is never materialised and goes to the lazy
//! `pathalg-pmr` kernel instead (see [`crate::exec`]). The other four take
//! the same input — a set of base paths — and are kept as the §8.2 ablation
//! baselines the benches compare and the oracles the tests check the
//! dispatched paths against; nothing on the query path calls them:
//!
//! * [`phi_seminaive`] — re-export of the frontier-based fixpoint from
//!   `pathalg-core`, the executable specification.
//! * [`phi_naive`] — a literal transcription of Definition 4.1: at every
//!   iteration the *entire* accumulated set is re-joined with the base set.
//!   Quadratic re-derivation, kept as the textbook baseline.
//! * [`phi_dfs`] — depth-first enumeration with restrictor pruning, the way a
//!   tuple-at-a-time engine (Neo4j-style) would produce trails.
//! * [`phi_bfs_shortest`] — a breadth-first search specialised to the
//!   shortest-path semantics: paths are generated level by level and a
//!   per-endpoint-pair distance table cuts the search off as soon as longer
//!   candidates appear.
//! * [`frontier::phi_frontier`] — the per-source frontier engine
//!   (DESIGN.md §7): indexes the base by first node and expands one source
//!   at a time, in ascending node order.

pub mod frontier;

use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::FastMap;
use pathalg_core::ops::join::join;
use pathalg_core::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg_core::ops::union::union;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_graph::ids::NodeId;

/// The semi-naïve fixpoint (delegates to `pathalg-core`).
pub fn phi_seminaive(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    recursive(semantics, base, config)
}

/// A literal transcription of Definition 4.1:
/// `ϕi(S) = (ϕi−1(S) ⋈ S) ∪ ϕi−1(S)` until `|ϕi−1| = |ϕi|`, filtering each
/// round by the semantics predicate (and by endpoint distance for Shortest).
pub fn phi_naive(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    let admit = |p: &Path| -> bool {
        semantics.admits(p) && config.max_length.is_none_or(|l| p.len() <= l)
    };
    let filtered_base: PathSet = base.iter().filter(|p| admit(p)).cloned().collect();

    let mut current = filtered_base.clone();
    let mut iterations = 0usize;
    loop {
        iterations += 1;
        if semantics == PathSemantics::Walk && config.max_length.is_none() && iterations > 64 {
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: 64,
                paths_so_far: current.len(),
            });
        }
        let joined = join(&current, &filtered_base);
        let admitted: PathSet = joined.iter().filter(|p| admit(p)).cloned().collect();
        let next = union(&admitted, &current);
        if let Some(limit) = config.max_paths {
            if next.len() > limit {
                return Err(AlgebraError::ResultLimitExceeded { limit });
            }
        }
        if next.len() == current.len() {
            break;
        }
        // Detect the non-terminating Walk case the same way the semi-naïve
        // implementation does: an admitted candidate that revisits a node
        // proves the fixpoint is infinite.
        if semantics == PathSemantics::Walk
            && config.max_length.is_none()
            && admitted.iter().any(|p| !p.is_acyclic())
        {
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: 64,
                paths_so_far: next.len(),
            });
        }
        current = next;
    }

    if semantics == PathSemantics::Shortest {
        Ok(keep_shortest(&current))
    } else {
        Ok(current)
    }
}

/// Depth-first enumeration with restrictor pruning.
///
/// The base paths are indexed by their first node; starting from every base
/// path, the search extends the current path with any base path that starts
/// at its last node, pruning extensions the semantics rejects. This mirrors
/// how tuple-at-a-time engines enumerate trails without materialising
/// intermediate sets.
pub fn phi_dfs(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    let mut by_first: FastMap<NodeId, Vec<&Path>> = FastMap::default();
    for p in base.iter() {
        if !p.is_empty() {
            by_first.entry(p.first()).or_default().push(p);
        }
    }
    let mut result = PathSet::new();
    for start in base.iter() {
        if !semantics.admits(start) || !within(start, config) {
            continue;
        }
        let mut stack: Vec<Path> = vec![start.clone()];
        while let Some(current) = stack.pop() {
            if result.insert(current.clone()) {
                if let Some(limit) = config.max_paths {
                    if result.len() > limit {
                        return Err(AlgebraError::ResultLimitExceeded { limit });
                    }
                }
            } else {
                // Already explored this path from another start.
                continue;
            }
            if let Some(extensions) = by_first.get(&current.last()) {
                for ext in extensions {
                    let cand = match current.concat(ext) {
                        Ok(c) => c,
                        Err(_) => continue,
                    };
                    if !within(&cand, config) || !semantics.admits(&cand) {
                        continue;
                    }
                    if semantics == PathSemantics::Walk
                        && config.max_length.is_none()
                        && !cand.is_acyclic()
                    {
                        return Err(AlgebraError::RecursionLimitExceeded {
                            bound: 0,
                            paths_so_far: result.len(),
                        });
                    }
                    stack.push(cand);
                }
            }
        }
    }
    if semantics == PathSemantics::Shortest {
        Ok(keep_shortest(&result))
    } else {
        Ok(result)
    }
}

/// Breadth-first search specialised to the shortest-path semantics: paths are
/// expanded level by level (by number of joined base paths), and a candidate
/// is dropped as soon as a strictly shorter path between the same endpoints is
/// known.
pub fn phi_bfs_shortest(base: &PathSet, config: &RecursionConfig) -> Result<PathSet, AlgebraError> {
    let mut by_first: FastMap<NodeId, Vec<&Path>> = FastMap::default();
    for p in base.iter() {
        if !p.is_empty() {
            by_first.entry(p.first()).or_default().push(p);
        }
    }
    let mut best: FastMap<(NodeId, NodeId), usize> = FastMap::default();
    let mut all = PathSet::new();
    let mut frontier: Vec<Path> = Vec::new();
    for p in base.iter() {
        if !p.is_simple() || !within(p, config) {
            continue;
        }
        let key = (p.first(), p.last());
        let entry = best.entry(key).or_insert(p.len());
        *entry = (*entry).min(p.len());
        if all.insert(p.clone()) {
            frontier.push(p.clone());
        }
    }
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for current in &frontier {
            let Some(extensions) = by_first.get(&current.last()) else {
                continue;
            };
            for ext in extensions {
                if ext.is_empty() {
                    continue;
                }
                let cand = current.concat(ext).expect("indexed by first node");
                if !within(&cand, config) || !cand.is_simple() {
                    continue;
                }
                let key = (cand.first(), cand.last());
                if let Some(&b) = best.get(&key) {
                    if cand.len() > b {
                        continue;
                    }
                }
                let entry = best.entry(key).or_insert(cand.len());
                *entry = (*entry).min(cand.len());
                if all.insert(cand.clone()) {
                    if let Some(limit) = config.max_paths {
                        if all.len() > limit {
                            return Err(AlgebraError::ResultLimitExceeded { limit });
                        }
                    }
                    next.push(cand);
                }
            }
        }
        frontier = next;
    }
    let mut result = PathSet::new();
    for p in all.iter() {
        if best.get(&(p.first(), p.last())) == Some(&p.len()) {
            result.insert(p.clone());
        }
    }
    Ok(result)
}

fn within(path: &Path, config: &RecursionConfig) -> bool {
    config.max_length.is_none_or(|l| path.len() <= l)
}

/// Keeps, per `(First, Last)` endpoint pair, exactly the minimal-length paths
/// (all of them on ties), preserving the input's insertion order.
///
/// Single grouping pass: each path either starts a group, extends the running
/// minimum's survivor list, or — on a strictly shorter length — replaces it.
/// Only the surviving indexes are cloned into the result, unlike the previous
/// version, which re-scanned the minimum map for every path and rebuilt the
/// full set through a second filtered pass.
fn keep_shortest(paths: &PathSet) -> PathSet {
    // Per endpoint pair: the minimal length seen and the indexes holding it.
    let mut groups: FastMap<(NodeId, NodeId), (usize, Vec<usize>)> = FastMap::default();
    for (i, p) in paths.iter().enumerate() {
        let entry = groups
            .entry((p.first(), p.last()))
            .or_insert_with(|| (p.len(), Vec::new()));
        if p.len() < entry.0 {
            entry.0 = p.len();
            entry.1.clear();
            entry.1.push(i);
        } else if p.len() == entry.0 {
            entry.1.push(i);
        }
    }
    let mut survivors: Vec<usize> = groups.into_values().flat_map(|(_, idx)| idx).collect();
    survivors.sort_unstable();
    let slice = paths.as_slice();
    let mut result = PathSet::with_capacity(survivors.len());
    for i in survivors {
        result.insert(slice[i].clone());
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::random::{random_labeled_graph, RandomGraphConfig};
    use pathalg_graph::generator::structured::{chain_graph, cycle_graph, ladder_graph};
    use pathalg_graph::graph::PropertyGraph;

    fn knows_base(graph: &PropertyGraph) -> PathSet {
        selection(
            graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(graph),
        )
    }

    fn label_base(graph: &PropertyGraph, label: &str) -> PathSet {
        selection(
            graph,
            &Condition::edge_label(1, label),
            &PathSet::edges(graph),
        )
    }

    #[test]
    fn all_implementations_agree_on_figure1() {
        let f = Figure1::new();
        let base = knows_base(&f.graph);
        let cfg = RecursionConfig::default();
        for semantics in [
            PathSemantics::Trail,
            PathSemantics::Acyclic,
            PathSemantics::Simple,
            PathSemantics::Shortest,
        ] {
            let a = phi_seminaive(semantics, &base, &cfg).unwrap();
            let b = phi_naive(semantics, &base, &cfg).unwrap();
            let c = phi_dfs(semantics, &base, &cfg).unwrap();
            assert_eq!(a, b, "naive vs seminaive under {semantics:?}");
            assert_eq!(a, c, "dfs vs seminaive under {semantics:?}");
        }
        let shortest = phi_bfs_shortest(&base, &cfg).unwrap();
        assert_eq!(
            shortest,
            phi_seminaive(PathSemantics::Shortest, &base, &cfg).unwrap()
        );
    }

    #[test]
    fn all_implementations_agree_on_bounded_walks() {
        let f = Figure1::new();
        let base = knows_base(&f.graph);
        let cfg = RecursionConfig::with_max_length(4);
        let a = phi_seminaive(PathSemantics::Walk, &base, &cfg).unwrap();
        let b = phi_naive(PathSemantics::Walk, &base, &cfg).unwrap();
        let c = phi_dfs(PathSemantics::Walk, &base, &cfg).unwrap();
        assert_eq!(a, b);
        assert_eq!(a, c);
    }

    #[test]
    fn all_implementations_agree_on_generated_graphs() {
        let graphs = vec![
            chain_graph(8, "a"),
            cycle_graph(6, "a"),
            ladder_graph(3, "a"),
            random_labeled_graph(&RandomGraphConfig {
                nodes: 12,
                edges: 20,
                edge_labels: vec!["a".into()],
                node_labels: vec!["N".into()],
                seed: 11,
            }),
        ];
        let cfg = RecursionConfig::default();
        for g in &graphs {
            let base = label_base(g, "a");
            for semantics in [
                PathSemantics::Trail,
                PathSemantics::Acyclic,
                PathSemantics::Simple,
                PathSemantics::Shortest,
            ] {
                let a = phi_seminaive(semantics, &base, &cfg).unwrap();
                let b = phi_naive(semantics, &base, &cfg).unwrap();
                let c = phi_dfs(semantics, &base, &cfg).unwrap();
                assert_eq!(a, b, "naive disagrees under {semantics:?}");
                assert_eq!(a, c, "dfs disagrees under {semantics:?}");
            }
            let s1 = phi_bfs_shortest(&base, &cfg).unwrap();
            let s2 = phi_seminaive(PathSemantics::Shortest, &base, &cfg).unwrap();
            assert_eq!(s1, s2, "bfs-shortest disagrees");
        }
    }

    #[test]
    fn unbounded_walk_errors_in_every_implementation() {
        let f = Figure1::new();
        let base = knows_base(&f.graph);
        let cfg = RecursionConfig::unbounded();
        assert!(phi_seminaive(PathSemantics::Walk, &base, &cfg).is_err());
        assert!(phi_naive(PathSemantics::Walk, &base, &cfg).is_err());
        assert!(phi_dfs(PathSemantics::Walk, &base, &cfg).is_err());
    }

    #[test]
    fn max_paths_is_respected() {
        let f = Figure1::new();
        let base = knows_base(&f.graph);
        let cfg = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(4),
        };
        assert!(matches!(
            phi_naive(PathSemantics::Walk, &base, &cfg),
            Err(AlgebraError::ResultLimitExceeded { .. })
        ));
        assert!(matches!(
            phi_dfs(PathSemantics::Walk, &base, &cfg),
            Err(AlgebraError::ResultLimitExceeded { .. })
        ));
    }

    #[test]
    fn keep_shortest_retains_all_ties_in_insertion_order() {
        let g = ladder_graph(2, "a");
        let base = label_base(&g, "a");
        // The full simple closure of a ladder has many equal-length paths
        // between the same endpoints.
        let all = phi_seminaive(PathSemantics::Simple, &base, &RecursionConfig::default()).unwrap();
        let kept = keep_shortest(&all);
        // Behaviour pin: per endpoint pair only the minimum length survives,
        // every tie at that length survives, and input order is preserved.
        let mut best: FastMap<(NodeId, NodeId), usize> = FastMap::default();
        for p in all.iter() {
            let e = best.entry((p.first(), p.last())).or_insert(p.len());
            *e = (*e).min(p.len());
        }
        let expected: Vec<_> = all
            .iter()
            .filter(|p| best[&(p.first(), p.last())] == p.len())
            .cloned()
            .collect();
        assert_eq!(kept.as_slice(), expected.as_slice());
        let ties = kept
            .iter()
            .filter(|p| {
                kept.iter().any(|q| {
                    q != *p && q.first() == p.first() && q.last() == p.last() && q.len() == p.len()
                })
            })
            .count();
        assert!(ties > 0, "the ladder closure must contain shortest ties");
        assert!(kept.len() < all.len());
    }

    #[test]
    fn dfs_handles_empty_and_node_only_bases() {
        let f = Figure1::new();
        let empty = PathSet::new();
        let cfg = RecursionConfig::default();
        assert!(phi_dfs(PathSemantics::Trail, &empty, &cfg)
            .unwrap()
            .is_empty());
        let nodes = PathSet::nodes(&f.graph);
        let out = phi_dfs(PathSemantics::Trail, &nodes, &cfg).unwrap();
        assert_eq!(out.len(), 7);
        let out = phi_bfs_shortest(&nodes, &cfg).unwrap();
        assert_eq!(out.len(), 7);
    }
}
