//! The recursive operator ϕ (Definition 4.1) and its five path semantics.
//!
//! `ϕ(S)` computes the fixpoint of repeatedly self-joining `S`:
//!
//! ```text
//! ϕ0(S) = S
//! ϕi(S) = (ϕi−1(S) ⋈ ϕ0(S)) ∪ ϕi−1(S)     until no new paths are produced
//! ```
//!
//! Under the unrestricted *Walk* semantics the fixpoint does not exist on
//! cyclic inputs (the paper's "unsolvability" remark), so the walk variant
//! takes an explicit length bound and reports
//! [`AlgebraError::RecursionLimitExceeded`] when asked to run unbounded over a
//! cyclic join graph. The restricted semantics filter candidate paths during
//! the recursion:
//!
//! * [`PathSemantics::Trail`] — no repeated edges,
//! * [`PathSemantics::Acyclic`] — no repeated nodes,
//! * [`PathSemantics::Simple`] — no repeated nodes except first = last,
//! * [`PathSemantics::Shortest`] — only paths of minimal length between their
//!   endpoints.
//!
//! Filtering during the recursion (rather than post-hoc) is sound because the
//! prefix of a trail is a trail, the prefix of an acyclic/simple path is
//! acyclic, and a shortest path never needs to revisit a junction node; this
//! is exactly what makes these semantics effective on cyclic graphs.
//!
//! The implementation is a semi-naïve (frontier-based) evaluation of the
//! definition: at step `i` only the paths discovered at step `i−1` are joined
//! against the base set, which avoids re-deriving the same concatenations at
//! every iteration while producing the same set.

use crate::error::AlgebraError;
use crate::fasthash::FastMap;
use crate::path::Path;
use crate::pathset::PathSet;
use pathalg_graph::ids::NodeId;
use std::fmt;

/// The path semantics (restrictor) under which ϕ is evaluated.
///
/// These correspond 1:1 to the GQL restrictors of Table 2 plus the
/// `SHORTEST` restrictor the paper adds in its extended grammar (§7.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PathSemantics {
    /// Arbitrary paths (the GQL `WALK` restrictor). Requires a bound on
    /// cyclic inputs.
    Walk,
    /// No repeated edges (`TRAIL`).
    Trail,
    /// No repeated nodes (`ACYCLIC`).
    Acyclic,
    /// No repeated nodes except that the first and last may coincide
    /// (`SIMPLE`).
    Simple,
    /// Only minimal-length paths between each endpoint pair (`SHORTEST`).
    Shortest,
}

impl PathSemantics {
    /// All five semantics, in the order the paper lists them.
    pub const ALL: [PathSemantics; 5] = [
        PathSemantics::Walk,
        PathSemantics::Trail,
        PathSemantics::Acyclic,
        PathSemantics::Simple,
        PathSemantics::Shortest,
    ];

    /// The per-path predicate applied while the recursion runs. `Walk` and
    /// `Shortest` accept every path here; `Shortest` additionally prunes by
    /// endpoint distance and filters at the end.
    pub fn admits(&self, path: &Path) -> bool {
        match self {
            PathSemantics::Walk => true,
            PathSemantics::Trail => path.is_trail(),
            PathSemantics::Acyclic => path.is_acyclic(),
            PathSemantics::Simple => path.is_simple(),
            // A shortest witness between distinct endpoints never repeats a
            // node, and a shortest closed walk only repeats its endpoint, so
            // restricting the search space to simple candidates is complete
            // (and is what guarantees termination on cyclic graphs).
            PathSemantics::Shortest => path.is_simple(),
        }
    }

    /// The GQL keyword for this semantics.
    pub fn keyword(&self) -> &'static str {
        match self {
            PathSemantics::Walk => "WALK",
            PathSemantics::Trail => "TRAIL",
            PathSemantics::Acyclic => "ACYCLIC",
            PathSemantics::Simple => "SIMPLE",
            PathSemantics::Shortest => "SHORTEST",
        }
    }
}

impl fmt::Display for PathSemantics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.keyword())
    }
}

/// Bounds applied while evaluating ϕ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecursionConfig {
    /// Maximum path length (number of edges) to generate. Mandatory in
    /// practice for `Walk` over cyclic inputs; optional for the restricted
    /// semantics, which are finite by themselves.
    pub max_length: Option<usize>,
    /// Cap on the total number of paths produced; exceeding it aborts with
    /// [`AlgebraError::ResultLimitExceeded`].
    pub max_paths: Option<usize>,
}

impl Default for RecursionConfig {
    fn default() -> Self {
        Self {
            max_length: None,
            max_paths: Some(1_000_000),
        }
    }
}

impl RecursionConfig {
    /// No bounds at all (use with care: ϕ-Walk over a cyclic graph will abort
    /// with a recursion-limit error rather than loop forever).
    pub fn unbounded() -> Self {
        Self {
            max_length: None,
            max_paths: None,
        }
    }

    /// Bound the generated path length.
    pub fn with_max_length(length: usize) -> Self {
        Self {
            max_length: Some(length),
            ..Self::default()
        }
    }
}

/// Hard ceiling on fixpoint iterations used when Walk semantics is run without
/// an explicit length bound; reaching it means the join graph is cyclic and
/// the expression has no finite fixpoint. Public so the engine's alternative
/// ϕ implementations report the same bound in their errors.
pub const UNBOUNDED_WALK_ITERATION_LIMIT: usize = 10_000;

/// Evaluates `ϕ_semantics(input)` under the given bounds.
pub fn recursive(
    semantics: PathSemantics,
    input: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    // ϕ0(S): the base set, filtered by the semantics predicate.
    let mut result = PathSet::with_capacity(input.len());
    for p in input.iter() {
        if semantics.admits(p) && within_length(p, config) {
            result.insert(p.clone());
        }
    }

    // Index the base set by first node for the repeated self-join.
    let mut base_by_first: FastMap<NodeId, Vec<Path>> = FastMap::default();
    for p in result.iter() {
        base_by_first.entry(p.first()).or_default().push(p.clone());
    }

    // For Shortest: the best (smallest) length known per (first, last) pair.
    let mut best: FastMap<(NodeId, NodeId), usize> = FastMap::default();
    if semantics == PathSemantics::Shortest {
        for p in result.iter() {
            let entry = best.entry((p.first(), p.last())).or_insert(p.len());
            *entry = (*entry).min(p.len());
        }
    }

    let mut frontier: Vec<Path> = result.iter().cloned().collect();
    let mut iteration = 0usize;

    while !frontier.is_empty() {
        iteration += 1;
        if semantics == PathSemantics::Walk
            && config.max_length.is_none()
            && iteration > UNBOUNDED_WALK_ITERATION_LIMIT
        {
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                paths_so_far: result.len(),
            });
        }

        let mut next_frontier: Vec<Path> = Vec::new();
        for p1 in &frontier {
            let Some(candidates) = base_by_first.get(&p1.last()) else {
                continue;
            };
            for p2 in candidates {
                // Zero-length base elements only reproduce p1; skip them to
                // keep the frontier from cycling on identities.
                if p2.is_empty() {
                    continue;
                }
                let cand = p1.concat(p2).expect("endpoints match via the index");
                if !within_length(&cand, config) {
                    continue;
                }
                if !semantics.admits(&cand) {
                    continue;
                }
                // Unbounded Walk over a cyclic join graph has no finite
                // fixpoint: the first candidate that revisits a node proves the
                // cycle can be pumped forever, so fail fast instead of
                // materialising an ever-growing frontier.
                if semantics == PathSemantics::Walk
                    && config.max_length.is_none()
                    && !cand.is_acyclic()
                {
                    return Err(AlgebraError::RecursionLimitExceeded {
                        bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                        paths_so_far: result.len(),
                    });
                }
                if semantics == PathSemantics::Shortest {
                    let key = (cand.first(), cand.last());
                    if let Some(&b) = best.get(&key) {
                        if cand.len() > b {
                            continue;
                        }
                    }
                    let entry = best.entry(key).or_insert(cand.len());
                    *entry = (*entry).min(cand.len());
                }
                if result.insert(cand.clone()) {
                    if let Some(limit) = config.max_paths {
                        if result.len() > limit {
                            return Err(AlgebraError::ResultLimitExceeded { limit });
                        }
                    }
                    next_frontier.push(cand);
                }
            }
        }
        frontier = next_frontier;
    }

    if semantics == PathSemantics::Shortest {
        let mut filtered = PathSet::with_capacity(result.len());
        for p in result.iter() {
            if let Some(&b) = best.get(&(p.first(), p.last())) {
                if p.len() == b {
                    filtered.insert(p.clone());
                }
            }
        }
        return Ok(filtered);
    }

    Ok(result)
}

fn within_length(path: &Path, config: &RecursionConfig) -> bool {
    config.max_length.is_none_or(|l| path.len() <= l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::condition::Condition;
    use crate::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::structured::{chain_graph, cycle_graph};

    fn knows_base(f: &Figure1) -> PathSet {
        selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        )
    }

    /// Builds the Table 3 path for a given list of paper edge names.
    fn table3_path(f: &Figure1, edges: &[pathalg_graph::ids::EdgeId]) -> Path {
        edges
            .iter()
            .skip(1)
            .fold(Path::edge(&f.graph, edges[0]), |acc, &e| {
                acc.concat(&Path::edge(&f.graph, e)).unwrap()
            })
    }

    #[test]
    fn trail_semantics_reproduces_table3_t_column() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let trails = recursive(PathSemantics::Trail, &base, &RecursionConfig::default()).unwrap();
        // Table 3 marks p1, p2, p3, p5, p6, p7, p9, p11, p12, p13 as trails
        // (the set Section 5, Step 3 quotes explicitly).
        let expected = [
            table3_path(&f, &[f.e1]),                   // p1
            table3_path(&f, &[f.e1, f.e2, f.e3]),       // p2
            table3_path(&f, &[f.e1, f.e2]),             // p3
            table3_path(&f, &[f.e1, f.e4]),             // p5
            table3_path(&f, &[f.e1, f.e2, f.e3, f.e4]), // p6
            table3_path(&f, &[f.e2, f.e3]),             // p7
            table3_path(&f, &[f.e2]),                   // p9
            table3_path(&f, &[f.e4]),                   // p11
            table3_path(&f, &[f.e2, f.e3, f.e4]),       // p12
            table3_path(&f, &[f.e3, f.e4]),             // p13
        ];
        for p in &expected {
            assert!(trails.contains(p), "missing trail {}", p.display_ids());
        }
        // And nothing else: e3 alone and e3∘e2 are also trails starting at n3.
        let extra = [table3_path(&f, &[f.e3]), table3_path(&f, &[f.e3, f.e2])];
        let expected_total = expected.len() + extra.len();
        for p in &extra {
            assert!(trails.contains(p));
        }
        assert_eq!(trails.len(), expected_total);
        assert!(trails.iter().all(|p| p.is_trail()));
    }

    #[test]
    fn acyclic_semantics_has_no_repeated_nodes() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let acyclic =
            recursive(PathSemantics::Acyclic, &base, &RecursionConfig::default()).unwrap();
        assert!(acyclic.iter().all(|p| p.is_acyclic()));
        // Table 3 marks p1, p3, p5, p6?, ... — concretely the acyclic Knows+
        // paths of the fixture are:
        //   n1→n2, n1→n2→n3, n1→n2→n4, n2→n3, n2→n4, n3→n2, n3→n2→n4.
        assert_eq!(acyclic.len(), 7);
        assert!(acyclic.contains(&table3_path(&f, &[f.e1, f.e4]))); // p5
        assert!(!acyclic.contains(&table3_path(&f, &[f.e1, f.e2, f.e3]))); // p2 repeats n2
    }

    #[test]
    fn simple_semantics_additionally_allows_closing_cycles() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let simple = recursive(PathSemantics::Simple, &base, &RecursionConfig::default()).unwrap();
        let acyclic =
            recursive(PathSemantics::Acyclic, &base, &RecursionConfig::default()).unwrap();
        assert!(simple.iter().all(|p| p.is_simple()));
        // Every acyclic path is simple.
        for p in acyclic.iter() {
            assert!(simple.contains(p));
        }
        // The two simple cycles n2→n3→n2 and n3→n2→n3 are simple but not acyclic.
        assert!(simple.contains(&table3_path(&f, &[f.e2, f.e3]))); // p7
        assert!(simple.contains(&table3_path(&f, &[f.e3, f.e2])));
        assert_eq!(simple.len(), acyclic.len() + 2);
    }

    #[test]
    fn shortest_semantics_keeps_only_minimal_lengths_per_endpoint_pair() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let shortest =
            recursive(PathSemantics::Shortest, &base, &RecursionConfig::default()).unwrap();
        // Endpoint pairs reachable via Knows+ and their shortest lengths:
        //   (n1,n2):1  (n1,n3):2  (n1,n4):2  (n2,n3):1  (n2,n4):1
        //   (n3,n2):1  (n3,n4):2  (n2,n2):2  (n3,n3):2
        assert_eq!(shortest.len(), 9);
        use crate::fasthash::FastMap;
        let mut by_pair: FastMap<_, Vec<usize>> = FastMap::default();
        for p in shortest.iter() {
            by_pair
                .entry((p.first(), p.last()))
                .or_default()
                .push(p.len());
        }
        assert_eq!(by_pair.len(), 9);
        assert_eq!(by_pair[&(f.n1, f.n4)], vec![2]);
        assert_eq!(by_pair[&(f.n1, f.n2)], vec![1]);
        assert_eq!(by_pair[&(f.n2, f.n2)], vec![2]);
        // p4-style longer walks must not appear.
        assert!(!shortest.contains(&table3_path(&f, &[f.e1, f.e2, f.e3, f.e4])));
    }

    #[test]
    fn walk_semantics_without_bound_errors_on_cyclic_input() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let err = recursive(PathSemantics::Walk, &base, &RecursionConfig::unbounded());
        assert!(matches!(
            err,
            Err(AlgebraError::RecursionLimitExceeded { .. })
                | Err(AlgebraError::ResultLimitExceeded { .. })
        ));
    }

    #[test]
    fn walk_semantics_with_length_bound_reproduces_table3_prefix() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let walks = recursive(
            PathSemantics::Walk,
            &base,
            &RecursionConfig::with_max_length(4),
        )
        .unwrap();
        // All 14 paths of Table 3 have length ≤ 4 and are walks.
        let table3: Vec<Path> = vec![
            table3_path(&f, &[f.e1]),
            table3_path(&f, &[f.e1, f.e2, f.e3]),
            table3_path(&f, &[f.e1, f.e2]),
            table3_path(&f, &[f.e1, f.e2, f.e3, f.e2]),
            table3_path(&f, &[f.e1, f.e4]),
            table3_path(&f, &[f.e1, f.e2, f.e3, f.e4]),
            table3_path(&f, &[f.e2, f.e3]),
            table3_path(&f, &[f.e2, f.e3, f.e2, f.e3]),
            table3_path(&f, &[f.e2]),
            table3_path(&f, &[f.e2, f.e3, f.e2]),
            table3_path(&f, &[f.e4]),
            table3_path(&f, &[f.e2, f.e3, f.e4]),
            table3_path(&f, &[f.e3, f.e4]),
            table3_path(&f, &[f.e3, f.e2, f.e3, f.e4]),
        ];
        for p in &table3 {
            assert!(walks.contains(p), "missing walk {}", p.display_ids());
        }
        assert!(walks.iter().all(|p| p.len() <= 4));
    }

    #[test]
    fn walk_on_acyclic_graph_terminates_without_bound() {
        let g = chain_graph(6, "Knows");
        let base = PathSet::edges(&g);
        let walks = recursive(PathSemantics::Walk, &base, &RecursionConfig::unbounded()).unwrap();
        // A chain of 6 nodes has 5+4+3+2+1 = 15 nonempty subpaths.
        assert_eq!(walks.len(), 15);
    }

    #[test]
    fn all_semantics_agree_on_acyclic_graphs() {
        // On a DAG every walk is a trail and acyclic, so all semantics except
        // Shortest coincide.
        let g = chain_graph(5, "x");
        let base = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        let walk = recursive(PathSemantics::Walk, &base, &cfg).unwrap();
        let trail = recursive(PathSemantics::Trail, &base, &cfg).unwrap();
        let acyclic = recursive(PathSemantics::Acyclic, &base, &cfg).unwrap();
        let simple = recursive(PathSemantics::Simple, &base, &cfg).unwrap();
        assert_eq!(walk, trail);
        assert_eq!(walk, acyclic);
        assert_eq!(walk, simple);
        // On a chain each pair is connected by exactly one path, so Shortest
        // returns everything as well.
        let shortest = recursive(PathSemantics::Shortest, &base, &cfg).unwrap();
        assert_eq!(walk, shortest);
    }

    #[test]
    fn cycle_graph_counts_match_combinatorics() {
        // Directed n-cycle: trails/simple/acyclic path counts are known.
        let n = 5;
        let g = cycle_graph(n, "a");
        let base = PathSet::edges(&g);
        let cfg = RecursionConfig::default();
        // Acyclic: from each start, lengths 1..n-1 → n*(n-1) paths.
        let acyclic = recursive(PathSemantics::Acyclic, &base, &cfg).unwrap();
        assert_eq!(acyclic.len(), n * (n - 1));
        // Simple: acyclic plus the n full cycles.
        let simple = recursive(PathSemantics::Simple, &base, &cfg).unwrap();
        assert_eq!(simple.len(), n * (n - 1) + n);
        // Trail: same as simple on a directed cycle (can't repeat an edge
        // without repeating the full cycle).
        let trail = recursive(PathSemantics::Trail, &base, &cfg).unwrap();
        assert_eq!(trail, simple);
        // Shortest: exactly one path per ordered pair plus each self-cycle.
        let shortest = recursive(PathSemantics::Shortest, &base, &cfg).unwrap();
        assert_eq!(shortest.len(), n * (n - 1) + n);
    }

    #[test]
    fn max_paths_limit_is_enforced() {
        let f = Figure1::new();
        let base = knows_base(&f);
        let cfg = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(5),
        };
        let err = recursive(PathSemantics::Walk, &base, &cfg);
        assert_eq!(err, Err(AlgebraError::ResultLimitExceeded { limit: 5 }));
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty = PathSet::new();
        for s in PathSemantics::ALL {
            let out = recursive(s, &empty, &RecursionConfig::default()).unwrap();
            assert!(out.is_empty());
        }
    }

    #[test]
    fn zero_length_paths_in_the_base_are_preserved_but_not_expanded() {
        let f = Figure1::new();
        let mut base = knows_base(&f);
        base.insert(Path::node(f.n5));
        let out = recursive(PathSemantics::Trail, &base, &RecursionConfig::default()).unwrap();
        assert!(out.contains(&Path::node(f.n5)));
        // The node path adds nothing else (it acts as an identity).
        let without: PathSet = knows_base(&f);
        let out_without =
            recursive(PathSemantics::Trail, &without, &RecursionConfig::default()).unwrap();
        assert_eq!(out.len(), out_without.len() + 1);
    }

    #[test]
    fn semantics_keywords_and_display() {
        assert_eq!(PathSemantics::Walk.keyword(), "WALK");
        assert_eq!(PathSemantics::Shortest.to_string(), "SHORTEST");
        assert_eq!(PathSemantics::ALL.len(), 5);
    }

    #[test]
    fn recursion_over_composite_base_paths() {
        // ϕ over (Likes ⋈ Has_creator): the outer cycle of the paper, which
        // produces Person→Person hops of length 2.
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
        let hops = crate::ops::join::join(&likes, &creator, None).unwrap();
        let simple = recursive(PathSemantics::Simple, &hops, &RecursionConfig::default()).unwrap();
        // path2 of the introduction must be among them.
        let path2 = Path::edge(&f.graph, f.e8)
            .concat(&Path::edge(&f.graph, f.e11))
            .unwrap()
            .concat(&Path::edge(&f.graph, f.e7))
            .unwrap()
            .concat(&Path::edge(&f.graph, f.e10))
            .unwrap();
        assert!(simple.contains(&path2));
        assert!(simple.iter().all(|p| p.len() % 2 == 0));
    }
}
