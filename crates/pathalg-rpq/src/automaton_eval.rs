//! Automaton-product evaluation of regular path queries.
//!
//! This is the classical algorithm the paper cites in Section 8.2: traverse
//! the graph while tracking the state of an automaton built from the regular
//! expression — i.e. search the product graph `G × A`. Unlike the textbook
//! formulation (which only returns node pairs), this implementation returns
//! the *witnessing paths*, under any of the five path semantics, so that its
//! results are directly comparable with the algebraic evaluation of the same
//! query. The engine crate uses it as the independent baseline for the
//! fixpoint-vs-automaton ablation benchmark.
//!
//! Infinite answers (unbounded `WALK` over a cyclic product graph) are
//! detected instead of looped on: a repeated `(node, state)` pair along a
//! partial path whose state can still reach acceptance proves the answer set
//! is infinite, and the evaluator reports
//! [`AlgebraError::RecursionLimitExceeded`], mirroring the behaviour of the
//! algebraic ϕ-Walk operator.

use crate::nfa::Nfa;
use crate::regex::LabelRegex;
use pathalg_core::budget::PathBudget;
use pathalg_core::error::AlgebraError;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::NodeId;
use std::collections::{HashMap, HashSet, VecDeque};

/// One BFS frontier entry: the partial path, the automaton state it reached,
/// and the product states already visited along this path (used to detect
/// pumpable cycles under WALK).
type ProductEntry = (Path, usize, Vec<(NodeId, usize)>);

/// Evaluates a regular path query on a graph by searching the product of the
/// graph and the expression's NFA.
pub struct AutomatonEvaluator<'g> {
    graph: &'g PropertyGraph,
    /// The graph's out-adjacency over every edge, built once per evaluator:
    /// the product search steps along any edge the NFA may read.
    adjacency: CsrGraph,
    nfa: Nfa,
    accepts_empty: bool,
    /// States from which an accepting state is reachable; product states
    /// outside this set are dead ends and are pruned.
    co_accepting: Vec<bool>,
}

impl<'g> AutomatonEvaluator<'g> {
    /// Builds the evaluator for a regular expression.
    pub fn new(graph: &'g PropertyGraph, regex: &LabelRegex) -> Self {
        let nfa = Nfa::from_regex(regex);
        let co_accepting = co_accepting_states(&nfa);
        let accepts_empty = regex.is_nullable();
        Self {
            graph,
            adjacency: CsrGraph::from_graph(graph),
            nfa,
            accepts_empty,
            co_accepting,
        }
    }

    /// Evaluates the RPQ from every node of the graph, returning all matching
    /// paths under the given semantics and bounds.
    pub fn eval_all(
        &self,
        semantics: PathSemantics,
        config: &RecursionConfig,
    ) -> Result<PathSet, AlgebraError> {
        self.eval_from(self.graph.nodes(), semantics, config)
    }

    /// Evaluates the RPQ from the given source nodes only.
    ///
    /// Duplicate sources are evaluated once. The result is the in-order merge
    /// of the per-source product BFS over the sources, sharing one
    /// `max_paths` budget.
    pub(crate) fn eval_from(
        &self,
        sources: impl IntoIterator<Item = NodeId>,
        semantics: PathSemantics,
        config: &RecursionConfig,
    ) -> Result<PathSet, AlgebraError> {
        let budget = PathBudget::new(config.max_paths);
        let mut visited: HashSet<NodeId> = HashSet::new();
        let mut result = PathSet::new();
        for source in sources {
            if !visited.insert(source) {
                continue;
            }
            for p in self.expand_source(source, semantics, config, &budget)? {
                result.insert(p);
            }
        }
        Ok(result)
    }

    /// Runs the product-automaton BFS from one source node and returns its
    /// matching paths in product-BFS discovery order, already filtered to
    /// the semantics (including the Shortest per-target minimum).
    ///
    /// Product-automaton evaluation is naturally *per source*: the BFS over
    /// `G × A` restarts from `(source, q0)` for every source node, and under
    /// every semantics — including Shortest, whose per-pair minimum is keyed
    /// by `(First(p), Last(p))` with `First(p) = source` fixed — no state is
    /// shared between sources. The `budget` tallies produced paths across
    /// all sources of one logical evaluation so `max_paths` bounds the
    /// total, not the per-source count.
    fn expand_source(
        &self,
        source: NodeId,
        semantics: PathSemantics,
        config: &RecursionConfig,
        budget: &PathBudget,
    ) -> Result<Vec<Path>, AlgebraError> {
        let mut result = PathSet::new();
        // For Shortest: minimal known length per target (the source is fixed).
        let mut best: HashMap<NodeId, usize> = HashMap::new();

        if self.accepts_empty {
            push_local(
                Path::node(source),
                semantics,
                &mut result,
                &mut best,
                budget,
            )?;
        }
        // BFS over the product graph. Each entry carries the partial path,
        // the automaton state, and the product states already visited along
        // this path (used to detect pumpable cycles under WALK).
        let mut queue: VecDeque<ProductEntry> = VecDeque::new();
        let start_state = self.nfa.start();
        queue.push_back((Path::node(source), start_state, vec![(source, start_state)]));

        while let Some((path, state, seen)) = queue.pop_front() {
            let here = path.last();
            for &edge in self.adjacency.neighbor_slices(here).1 {
                let label = self.graph.label(edge);
                for next_state in self.nfa.step(state, label) {
                    if !self.co_accepting[next_state] {
                        continue;
                    }
                    let extended = path
                        .concat(&Path::edge(self.graph, edge))
                        .expect("outgoing edge starts at the path's last node");
                    if let Some(max) = config.max_length {
                        if extended.len() > max {
                            continue;
                        }
                    }
                    if !semantics.admits(&extended) {
                        continue;
                    }
                    let product_state = (extended.last(), next_state);
                    if semantics == PathSemantics::Walk
                        && config.max_length.is_none()
                        && seen.contains(&product_state)
                    {
                        // A cycle in the product graph that can still reach
                        // acceptance: the set of matching walks is infinite.
                        // The local tally keeps the error value deterministic
                        // when sources are expanded concurrently.
                        return Err(AlgebraError::RecursionLimitExceeded {
                            bound: 0,
                            paths_so_far: result.len(),
                        });
                    }
                    if self.nfa.is_accepting(next_state) {
                        push_local(extended.clone(), semantics, &mut result, &mut best, budget)?;
                    }
                    let mut next_seen = seen.clone();
                    next_seen.push(product_state);
                    queue.push_back((extended, next_state, next_seen));
                }
            }
        }

        Ok(if semantics == PathSemantics::Shortest {
            // Zero-length matches (a nullable regex such as `a*`) are kept
            // unconditionally and do not participate in the per-pair minimum:
            // this mirrors the algebraic translation of the Kleene star
            // (Figure 4), where `Nodes(G)` is united with the ϕShortest result
            // *after* the shortest filter.
            result
                .into_vec()
                .into_iter()
                .filter(|p| p.is_empty() || best.get(&p.last()) == Some(&p.len()))
                .collect()
        } else {
            result.into_vec()
        })
    }
}

/// Records a discovered path in one source's expansion: updates the
/// per-target minimum under Shortest, deduplicates (the same path can be
/// accepted through different automaton runs), and charges the shared budget
/// for genuinely new paths.
fn push_local(
    path: Path,
    semantics: PathSemantics,
    result: &mut PathSet,
    best: &mut HashMap<NodeId, usize>,
    budget: &PathBudget,
) -> Result<(), AlgebraError> {
    if semantics == PathSemantics::Shortest && !path.is_empty() {
        let entry = best.entry(path.last()).or_insert(path.len());
        *entry = (*entry).min(path.len());
    }
    if result.insert(path) {
        budget.claim(1)?;
    }
    Ok(())
}

/// Computes, for every NFA state, whether an accepting state is reachable.
fn co_accepting_states(nfa: &Nfa) -> Vec<bool> {
    let n = nfa.state_count();
    // Build the reverse adjacency over automaton transitions.
    let mut reverse: Vec<Vec<usize>> = vec![Vec::new(); n];
    for s in 0..n {
        for &(_, t) in nfa.transitions_from(s) {
            reverse[t].push(s);
        }
    }
    let mut co = vec![false; n];
    let mut queue: VecDeque<usize> = (0..n).filter(|&s| nfa.is_accepting(s)).collect();
    for &s in &queue {
        co[s] = true;
    }
    while let Some(s) = queue.pop_front() {
        for &p in &reverse[s] {
            if !co[p] {
                co[p] = true;
                queue.push_back(p);
            }
        }
    }
    co
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile_to_algebra;
    use crate::parse::parse_regex;
    use pathalg_core::eval::{EvalConfig, Evaluator};
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::structured::{chain_graph, cycle_graph};

    fn automaton_result(
        graph: &PropertyGraph,
        pattern: &str,
        semantics: PathSemantics,
        max_length: Option<usize>,
    ) -> PathSet {
        let re = parse_regex(pattern).unwrap();
        let config = RecursionConfig {
            max_length,
            ..RecursionConfig::default()
        };
        AutomatonEvaluator::new(graph, &re)
            .eval_all(semantics, &config)
            .unwrap()
    }

    fn algebra_result(
        graph: &PropertyGraph,
        pattern: &str,
        semantics: PathSemantics,
        max_length: Option<usize>,
    ) -> PathSet {
        let re = parse_regex(pattern).unwrap();
        let plan = compile_to_algebra(&re, semantics);
        let config = EvalConfig {
            recursion: RecursionConfig {
                max_length,
                ..RecursionConfig::default()
            },
        };
        Evaluator::with_config(graph, config)
            .eval_paths(&plan)
            .unwrap()
    }

    #[test]
    fn agrees_with_the_algebraic_evaluation_on_figure1() {
        let f = Figure1::new();
        let cases = [
            (":Knows+", PathSemantics::Trail, None),
            (":Knows+", PathSemantics::Acyclic, None),
            (":Knows+", PathSemantics::Simple, None),
            (":Knows+", PathSemantics::Shortest, None),
            (":Knows+", PathSemantics::Walk, Some(4)),
            ("(:Likes/:Has_creator)+", PathSemantics::Simple, None),
            (
                "(:Knows+)|(:Likes/:Has_creator)*",
                PathSemantics::Trail,
                None,
            ),
            (":Knows/:Knows", PathSemantics::Walk, None),
            (":Likes/:Has_creator/:Likes", PathSemantics::Walk, None),
            (":Knows?", PathSemantics::Walk, None),
        ];
        for (pattern, semantics, bound) in cases {
            let a = automaton_result(&f.graph, pattern, semantics, bound);
            let b = algebra_result(&f.graph, pattern, semantics, bound);
            assert_eq!(
                a, b,
                "pattern {pattern} under {semantics:?} (bound {bound:?}): automaton {} paths vs algebra {} paths",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn fixed_length_patterns_terminate_unbounded_even_on_cyclic_graphs() {
        // :Knows/:Knows is not recursive, so even unbounded WALK evaluation
        // terminates although the Knows subgraph is cyclic (the path
        // n2→n3→n2 revisits a node but not a product state).
        let f = Figure1::new();
        let out = automaton_result(&f.graph, ":Knows/:Knows", PathSemantics::Walk, None);
        assert_eq!(out.len(), 5);
        assert!(out.iter().any(|p| !p.is_acyclic()));
    }

    #[test]
    fn single_source_evaluation_restricts_first_nodes() {
        let f = Figure1::new();
        let re = parse_regex(":Knows+").unwrap();
        let out = AutomatonEvaluator::new(&f.graph, &re)
            .eval_from([f.n1], PathSemantics::Trail, &RecursionConfig::default())
            .unwrap();
        assert!(!out.is_empty());
        assert!(out.iter().all(|p| p.first() == f.n1));
        // Exactly the Table 3 trails starting at n1: p1, p2, p3, p5, p6.
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn walk_without_bound_errors_on_cyclic_matches() {
        let f = Figure1::new();
        let re = parse_regex(":Knows+").unwrap();
        let err = AutomatonEvaluator::new(&f.graph, &re)
            .eval_all(PathSemantics::Walk, &RecursionConfig::unbounded());
        assert!(matches!(
            err,
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
    }

    #[test]
    fn walk_without_bound_is_fine_on_acyclic_graphs() {
        let g = chain_graph(7, "Knows");
        let out = automaton_result(&g, ":Knows+", PathSemantics::Walk, None);
        assert_eq!(out.len(), 21);
        let alg = algebra_result(&g, ":Knows+", PathSemantics::Walk, None);
        assert_eq!(out, alg);
    }

    #[test]
    fn kleene_star_includes_zero_length_paths_for_every_node() {
        let f = Figure1::new();
        let out = automaton_result(
            &f.graph,
            "(:Likes/:Has_creator)*",
            PathSemantics::Trail,
            None,
        );
        assert_eq!(out.iter().filter(|p| p.is_empty()).count(), 7);
        let alg = algebra_result(
            &f.graph,
            "(:Likes/:Has_creator)*",
            PathSemantics::Trail,
            None,
        );
        assert_eq!(out, alg);
    }

    #[test]
    fn shortest_semantics_matches_algebra_on_cycles() {
        let g = cycle_graph(6, "a");
        let a = automaton_result(&g, ":a+", PathSemantics::Shortest, None);
        let b = algebra_result(&g, ":a+", PathSemantics::Shortest, None);
        assert_eq!(a, b);
        assert_eq!(a.len(), 6 * 5 + 6);
    }

    #[test]
    fn max_paths_limit_is_enforced() {
        let f = Figure1::new();
        let re = parse_regex(":Knows+").unwrap();
        let config = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(3),
        };
        let err = AutomatonEvaluator::new(&f.graph, &re).eval_all(PathSemantics::Walk, &config);
        assert_eq!(err, Err(AlgebraError::ResultLimitExceeded { limit: 3 }));
    }

    #[test]
    fn label_mismatch_returns_empty() {
        let f = Figure1::new();
        let out = automaton_result(&f.graph, ":DoesNotExist+", PathSemantics::Trail, None);
        assert!(out.is_empty());
    }

    #[test]
    fn co_accepting_pruning_skips_dead_branches() {
        // In `:Likes/:DoesNotExist` the state reached after Likes cannot reach
        // acceptance on the Figure 1 graph; the evaluator must return empty
        // rather than exploring from there.
        let f = Figure1::new();
        let out = automaton_result(&f.graph, ":Likes/:DoesNotExist", PathSemantics::Walk, None);
        assert!(out.is_empty());
    }
}
