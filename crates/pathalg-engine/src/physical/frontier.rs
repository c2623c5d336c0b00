//! The per-source frontier engine for ϕ over a materialised base.
//!
//! The algebra's semi-naïve fixpoint (`pathalg_core::ops::recursive`)
//! evaluates ϕ as a sequence of *global* rounds: one shared frontier, one
//! shared result set. This module decomposes ϕ along the **source node**
//! instead.
//! Under all five semantics the admission predicate depends only on the path
//! itself, and the Shortest per-pair minimum is keyed by
//! `(First(p), Last(p))` with `First(p)` fixed per source, so the expansion
//! from one source never needs to observe another source's state. The engine
//! therefore groups the base relation by `First(p)` into a CSR-shaped index
//! (a base that *is* a label scan or a join chain of label scans never gets
//! here: the engine drains the lazy `pathalg-pmr` kernel over the label CSRs
//! instead, skipping path materialisation altogether) and expands the
//! sources one after another, in ascending node order — serial per query,
//! like every other ϕ the engine runs (DESIGN.md §7).
//!
//! Per-source expansion admits three optimisations the global fixpoint
//! cannot apply:
//!
//! * **Incremental admission.** A candidate `p ∘ q` is checked against the
//!   restrictor by comparing only `q`'s new nodes/edges with `p` (`O(|q|·|p|)`,
//!   i.e. `O(|p|)` for edge bases) instead of re-scanning the whole candidate
//!   (`O((|p|+|q|)²)`), exploiting that `p` is already admitted.
//! * **No speculative allocation.** The candidate path is only materialised
//!   after the admission, length, and shortest-distance checks pass; the
//!   semi-naïve loop concatenates first and discards later.
//! * **No per-candidate hashing for edge bases.** When every base path is a
//!   single edge, a candidate's derivation is unique (it extends its own
//!   length-`k−1` prefix), so the expansion needs no dedup set at all;
//!   composite bases (from joins) fall back to a per-source seen-set.
//!
//! `max_paths` is enforced through one [`PathBudget`] across all sources.

use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::{FastMap, FastSet};
use pathalg_core::ops::recursive::{
    PathSemantics, RecursionConfig, UNBOUNDED_WALK_ITERATION_LIMIT,
};
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_graph::ids::NodeId;

/// The frontier implementation of `ϕ_semantics(base)`.
///
/// Produces exactly the same path set as
/// [`pathalg_core::ops::recursive::recursive`]; the insertion order of the
/// result is "sources in ascending node order, per source level by level".
pub fn phi_frontier(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
) -> Result<PathSet, AlgebraError> {
    phi_frontier_with_cancel(semantics, base, config, None)
}

/// [`phi_frontier`] with a cooperative [`CancelToken`], polled once per
/// source: a fired token (or passed deadline) aborts the evaluation within
/// one source expansion.
pub(crate) fn phi_frontier_with_cancel(
    semantics: PathSemantics,
    base: &PathSet,
    config: &RecursionConfig,
    cancel: Option<&CancelToken>,
) -> Result<PathSet, AlgebraError> {
    let admitted: Vec<&Path> = base
        .iter()
        .filter(|p| semantics.admits(p) && within_length(p.len(), config))
        .collect();
    if admitted.is_empty() {
        return Ok(PathSet::new());
    }

    let index = BaseIndex::build(&admitted);
    let walk_unbounded = semantics == PathSemantics::Walk && config.max_length.is_none();
    // Under unbounded Walk the expansion must recognise non-acyclic
    // candidates (they prove the fixpoint is infinite); precomputing each
    // base path's own acyclicity once keeps the per-candidate check to the
    // cross-path comparison.
    let base_acyclic: Vec<bool> = if walk_unbounded {
        admitted.iter().map(|p| p.is_acyclic()).collect()
    } else {
        Vec::new()
    };
    // Composite base paths (length > 1) can derive the same candidate through
    // different decompositions; single-edge bases cannot, so they skip the
    // per-source dedup set entirely.
    let need_dedup = admitted.iter().any(|p| p.len() > 1);
    let budget = PathBudget::new(config.max_paths);

    let mut out = Vec::new();
    // Level buffers recycled across sources: the expansion loop drains `cur`
    // into `out` and swaps in `next`, so after the first source the steady
    // state performs no buffer allocation.
    let mut levels = LevelBuffers::default();
    for &source in index.sources() {
        if let Some(token) = cancel {
            token.check()?;
        }
        expand_base_source(
            source,
            &admitted,
            &index,
            semantics,
            config,
            &budget,
            need_dedup,
            &base_acyclic,
            &mut levels,
            &mut out,
        )?;
    }
    Ok(out.into_iter().collect())
}

/// The two level buffers of one source expansion — `(path, is_acyclic)`
/// pairs for the current and next BFS level — hoisted out of the source loop
/// so expanding a source reuses the previous source's capacity instead of
/// allocating fresh `Vec`s. Both buffers are empty between sources (the loop
/// drains `cur` into the output and swaps in `next`); an expansion that
/// aborts with an error never expands another source, so no explicit
/// clearing is needed on the failure path.
#[derive(Default)]
struct LevelBuffers {
    cur: Vec<(Path, bool)>,
    next: Vec<(Path, bool)>,
}

/// The base relation grouped by `First(p)`: a CSR over path indexes, stable
/// with respect to base insertion order within each node.
struct BaseIndex {
    offsets: Vec<usize>,
    entries: Vec<u32>,
    sources: Vec<NodeId>,
}

impl BaseIndex {
    fn build(admitted: &[&Path]) -> Self {
        let n = 1 + admitted
            .iter()
            .map(|p| p.first().index().max(p.last().index()))
            .max()
            .unwrap_or(0);
        let mut degree = vec![0usize; n];
        for p in admitted {
            degree[p.first().index()] += 1;
        }
        let mut offsets = vec![0usize; n + 1];
        for i in 0..n {
            offsets[i + 1] = offsets[i] + degree[i];
        }
        let mut entries = vec![0u32; admitted.len()];
        let mut cursor = offsets[..n].to_vec();
        for (i, p) in admitted.iter().enumerate() {
            let s = p.first().index();
            entries[cursor[s]] = i as u32;
            cursor[s] += 1;
        }
        let sources = (0..n)
            .filter(|&i| degree[i] > 0)
            .map(|i| NodeId(i as u32))
            .collect();
        Self {
            offsets,
            entries,
            sources,
        }
    }

    /// Distinct source nodes in ascending order — the engine's output
    /// order.
    fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// Indexes (into the admitted slice) of the base paths starting at `node`.
    fn starting_at(&self, node: NodeId) -> &[u32] {
        let i = node.index();
        if i + 1 < self.offsets.len() {
            &self.entries[self.offsets[i]..self.offsets[i + 1]]
        } else {
            &[]
        }
    }
}

/// Expands one source over a general (possibly composite) base relation,
/// appending this source's result paths to `out` in level order.
#[allow(clippy::too_many_arguments)]
fn expand_base_source(
    source: NodeId,
    admitted: &[&Path],
    index: &BaseIndex,
    semantics: PathSemantics,
    config: &RecursionConfig,
    budget: &PathBudget,
    need_dedup: bool,
    base_acyclic: &[bool],
    levels: &mut LevelBuffers,
    out: &mut Vec<Path>,
) -> Result<(), AlgebraError> {
    let walk_unbounded = semantics == PathSemantics::Walk && config.max_length.is_none();
    let start = out.len();
    // For Shortest: minimal known length per target (the source is fixed).
    let mut best: FastMap<NodeId, usize> = FastMap::default();
    let mut seen: Option<FastSet<Path>> = need_dedup.then(FastSet::default);
    let LevelBuffers { cur, next } = levels;
    debug_assert!(cur.is_empty() && next.is_empty());

    // Level 0: the admitted base paths starting here, in base order. Empty
    // paths are emitted (and seed the Shortest minimum) but never expanded:
    // `p ∘ q = q` for an empty `p`, and `q` is produced at this same source
    // anyway.
    for &qi in index.starting_at(source) {
        let p = admitted[qi as usize];
        if semantics == PathSemantics::Shortest {
            let entry = best.entry(p.last()).or_insert(p.len());
            *entry = (*entry).min(p.len());
        }
        if let Some(seen) = &mut seen {
            seen.insert(p.clone());
        }
        // Base paths count toward `max_paths` but never trip it themselves,
        // exactly like the fixpoint's unconditional base insertion.
        budget.record(1);
        if p.is_empty() {
            out.push(p.clone());
        } else {
            let acyclic = if walk_unbounded {
                base_acyclic[qi as usize]
            } else {
                true
            };
            cur.push((p.clone(), acyclic));
        }
    }

    let mut iterations = 0usize;
    while !cur.is_empty() {
        iterations += 1;
        if walk_unbounded && iterations > UNBOUNDED_WALK_ITERATION_LIMIT {
            // `paths_so_far` counts this source's output only, matching the
            // per-source tally of the scan/chain kernel.
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                paths_so_far: out.len() - start + cur.len(),
            });
        }
        for (p, p_acyclic) in cur.iter() {
            for &qi in index.starting_at(p.last()) {
                let q = admitted[qi as usize];
                if q.is_empty() {
                    continue;
                }
                let new_len = p.len() + q.len();
                if !within_length(new_len, config) {
                    continue;
                }
                if !step_admissible(semantics, p, q) {
                    continue;
                }
                if walk_unbounded {
                    // `p ∘ q` acyclic ⇔ both parts are and `q` brings no node
                    // already on `p`; a non-acyclic admitted candidate proves
                    // the fixpoint is infinite, exactly as in the semi-naïve
                    // implementation.
                    let acyclic = *p_acyclic
                        && base_acyclic[qi as usize]
                        && q.nodes()[1..].iter().all(|u| !p.nodes().contains(u));
                    if !acyclic {
                        return Err(AlgebraError::RecursionLimitExceeded {
                            bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                            paths_so_far: out.len() - start + cur.len() + next.len(),
                        });
                    }
                }
                if semantics == PathSemantics::Shortest {
                    if let Some(&b) = best.get(&q.last()) {
                        if new_len > b {
                            continue;
                        }
                    }
                }
                let cand = p.concat(q).expect("base paths are indexed by First");
                if let Some(seen) = &mut seen {
                    if !seen.insert(cand.clone()) {
                        continue;
                    }
                }
                if semantics == PathSemantics::Shortest {
                    let entry = best.entry(cand.last()).or_insert(new_len);
                    *entry = (*entry).min(new_len);
                }
                budget.claim(1)?;
                next.push((cand, true));
            }
        }
        out.extend(cur.drain(..).map(|(p, _)| p));
        std::mem::swap(cur, next);
    }

    if semantics == PathSemantics::Shortest {
        let tail = out.split_off(start);
        out.extend(
            tail.into_iter()
                .filter(|p| best.get(&p.last()) == Some(&p.len())),
        );
    }
    Ok(())
}

/// Incremental admission of `p ∘ q` given that `p` and `q` are themselves
/// admitted: only `q`'s new nodes/edges are compared against `p`.
fn step_admissible(semantics: PathSemantics, p: &Path, q: &Path) -> bool {
    match semantics {
        PathSemantics::Walk => true,
        PathSemantics::Trail => q.edges().iter().all(|e| !p.edges().contains(e)),
        PathSemantics::Acyclic => q.nodes()[1..].iter().all(|u| !p.nodes().contains(u)),
        PathSemantics::Simple | PathSemantics::Shortest => {
            // A closed simple path cannot be extended further.
            if p.first() == p.last() {
                return false;
            }
            let qn = q.nodes();
            let k = q.len();
            // Interior new nodes must be fresh with respect to all of `p`…
            if !qn[1..k].iter().all(|u| !p.nodes().contains(u)) {
                return false;
            }
            // …and the new last node may only coincide with `First(p)`.
            let last = qn[k];
            last == p.first() || !p.nodes()[1..].contains(&last)
        }
    }
}

fn within_length(len: usize, config: &RecursionConfig) -> bool {
    config.max_length.is_none_or(|l| len <= l)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::join::join;
    use pathalg_core::ops::recursive::recursive;
    use pathalg_core::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::structured::cycle_graph;
    use pathalg_graph::graph::PropertyGraph;

    fn label_base(graph: &PropertyGraph, label: &str) -> PathSet {
        selection(
            graph,
            &Condition::edge_label(1, label),
            &PathSet::edges(graph),
        )
    }

    const RESTRICTED: [PathSemantics; 4] = [
        PathSemantics::Trail,
        PathSemantics::Acyclic,
        PathSemantics::Simple,
        PathSemantics::Shortest,
    ];

    #[test]
    fn agrees_with_seminaive_on_figure1_for_every_semantics() {
        let f = Figure1::new();
        let base = label_base(&f.graph, "Knows");
        let cfg = RecursionConfig::default();
        for semantics in RESTRICTED {
            let reference = recursive(semantics, &base, &cfg).unwrap();
            let out = phi_frontier(semantics, &base, &cfg).unwrap();
            assert_eq!(out, reference, "{semantics:?}");
        }
    }

    #[test]
    fn composite_bases_deduplicate_recombinations() {
        // Likes ⋈ Has_creator produces 2-hop base paths; recombinations of
        // those must not appear twice (the seen-set path of the engine).
        let f = Figure1::new();
        let hops = join(
            &label_base(&f.graph, "Likes"),
            &label_base(&f.graph, "Has_creator"),
            None,
        )
        .unwrap();
        let cfg = RecursionConfig::default();
        let reference = recursive(PathSemantics::Simple, &hops, &cfg).unwrap();
        let out = phi_frontier(PathSemantics::Simple, &hops, &cfg).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn empty_and_node_only_bases_are_preserved() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        let empty = PathSet::new();
        assert!(phi_frontier(PathSemantics::Trail, &empty, &cfg)
            .unwrap()
            .is_empty());
        let nodes = PathSet::nodes(&f.graph);
        let out = phi_frontier(PathSemantics::Trail, &nodes, &cfg).unwrap();
        assert_eq!(out.len(), 7);
        let out = phi_frontier(PathSemantics::Shortest, &nodes, &cfg).unwrap();
        assert_eq!(out.len(), 7);
    }

    #[test]
    fn mixed_node_and_edge_bases_match_seminaive_under_shortest() {
        // A zero-length base path seeds the per-pair minimum: closed cycles
        // from that node must be filtered, exactly as in the fixpoint.
        let g = cycle_graph(4, "a");
        let mut base = label_base(&g, "a");
        base.insert(Path::node(NodeId(0)));
        let cfg = RecursionConfig::default();
        let reference = recursive(PathSemantics::Shortest, &base, &cfg).unwrap();
        let out = phi_frontier(PathSemantics::Shortest, &base, &cfg).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn unbounded_walks_error_on_cycles_and_finish_on_dags() {
        let cfg = RecursionConfig::unbounded();
        let cyclic = cycle_graph(3, "a");
        let base = label_base(&cyclic, "a");
        assert!(matches!(
            phi_frontier(PathSemantics::Walk, &base, &cfg),
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
        let dag = pathalg_graph::generator::structured::chain_graph(6, "a");
        let base = label_base(&dag, "a");
        let out = phi_frontier(PathSemantics::Walk, &base, &cfg).unwrap();
        assert_eq!(out.len(), 15);
        let reference = recursive(PathSemantics::Walk, &base, &cfg).unwrap();
        assert_eq!(out, reference);
    }

    #[test]
    fn walk_on_a_self_loop_base_errors_like_seminaive() {
        use pathalg_graph::graph::GraphBuilder;
        use pathalg_graph::value::Value;
        let mut b = GraphBuilder::new();
        let n0 = b.add_node("N", Vec::<(&str, Value)>::new());
        let n1 = b.add_node("N", Vec::<(&str, Value)>::new());
        b.add_edge(n0, n0, "a", Vec::<(&str, Value)>::new());
        b.add_edge(n0, n1, "a", Vec::<(&str, Value)>::new());
        let g = b.build();
        let base = label_base(&g, "a");
        let cfg = RecursionConfig::unbounded();
        let reference = recursive(PathSemantics::Walk, &base, &cfg);
        let frontier = phi_frontier(PathSemantics::Walk, &base, &cfg);
        assert!(matches!(
            reference,
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
        assert!(matches!(
            frontier,
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
    }

    #[test]
    fn max_paths_is_enforced_across_sources() {
        let f = Figure1::new();
        let base = label_base(&f.graph, "Knows");
        let cfg = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(4),
        };
        assert_eq!(
            phi_frontier(PathSemantics::Walk, &base, &cfg),
            Err(AlgebraError::ResultLimitExceeded { limit: 4 })
        );
    }

    #[test]
    fn oversized_bases_without_candidates_succeed_like_seminaive() {
        // The fixpoint admits its base unconditionally and only enforces
        // `max_paths` on recursion candidates; a base larger than the limit
        // that produces no candidates must therefore succeed — on every
        // implementation.
        let f = Figure1::new();
        let base = PathSet::nodes(&f.graph); // 7 paths, never expandable
        let cfg = RecursionConfig {
            max_length: None,
            max_paths: Some(5),
        };
        let reference = recursive(PathSemantics::Trail, &base, &cfg).unwrap();
        assert_eq!(reference.len(), 7);
        let out = phi_frontier(PathSemantics::Trail, &base, &cfg).unwrap();
        assert_eq!(out, reference);
    }
}
