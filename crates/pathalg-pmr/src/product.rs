//! PMR construction from the product automaton `G × A` of an RPQ.
//!
//! Mirrors `pathalg_rpq::automaton_eval::AutomatonEvaluator::expand_source`
//! — the same product-BFS discovery order, co-accepting pruning, duplicate
//! elimination and Shortest per-target filter — but records the search tree
//! as compact arena steps and reconstructs only the paths a consumer
//! pulls. Laziness is per *source*: one source's product BFS runs eagerly
//! when first touched (the automaton can accept the same path through
//! different runs, so duplicate elimination needs the source's accepted set),
//! while sources beyond the consumer's demand are never expanded at all.
//!
//! The BFS queue, the Shortest distance map and the accepted-item buffer are
//! owned by the expansion and recycled across sources; the per-source dedup
//! `PathSet` is the one inherently materialising piece (the automaton can
//! accept one path through different runs) and stays source-scoped.

use crate::arena::StepArena;
use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::FastMap;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use pathalg_rpq::nfa::Nfa;
use pathalg_rpq::regex::LabelRegex;
use std::collections::VecDeque;
use std::sync::Arc;

/// One emitted element of a product expansion: the empty path at the current
/// source (for nullable regexes) or an arena chain with its edge count.
#[derive(Clone, Copy, Debug)]
pub(crate) enum ProductItem {
    /// The zero-length path at the source node.
    Empty,
    /// The chain ending at this arena step, with its path length.
    Step(u32, u32),
}

/// A product-BFS queue entry: the chain so far (with its length), the
/// automaton state, and — only under unbounded Walk — the product states on
/// the partial path (a repeated product state that can still accept proves
/// the answer is infinite).
type Entry = (Option<u32>, u32, usize, Vec<(NodeId, usize)>);

/// The per-source-lazy product expander (see the module docs).
pub(crate) struct ProductExpansion<'g> {
    graph: &'g PropertyGraph,
    nfa: Nfa,
    accepts_empty: bool,
    co_accepting: Vec<bool>,
    semantics: PathSemantics,
    config: RecursionConfig,
    walk_unbounded: bool,
    sources: Vec<NodeId>,
    next_source: usize,
    pub(crate) arena: StepArena,
    pending: VecDeque<ProductItem>,
    cur_source: NodeId,
    /// The `max_paths` accounting: every accepted path is claimed, mirroring
    /// the serial automaton evaluator.
    budget: PathBudget,
    /// Cooperative cancellation, checked periodically inside the eager
    /// per-source product BFS (the source expansion is the long-running
    /// unit of work here, unlike the level-ordered CSR/join expanders).
    cancel: Option<Arc<CancelToken>>,
    /// Recycled per-source scratch: the BFS queue, the Shortest per-target
    /// distance map, and the accepted-item buffer.
    queue: VecDeque<Entry>,
    best: FastMap<NodeId, usize>,
    accepted: Vec<ProductItem>,
    /// Times a hoisted scratch buffer was reused instead of allocated.
    scratch_reuse: u64,
}

impl<'g> ProductExpansion<'g> {
    pub fn new(
        graph: &'g PropertyGraph,
        regex: &LabelRegex,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Self {
        let nfa = Nfa::from_regex(regex);
        let co_accepting = co_accepting_states(&nfa);
        Self {
            graph,
            accepts_empty: regex.is_nullable(),
            co_accepting,
            nfa,
            semantics,
            config,
            walk_unbounded: semantics == PathSemantics::Walk && config.max_length.is_none(),
            sources: graph.nodes().collect(),
            next_source: 0,
            arena: StepArena::default(),
            pending: VecDeque::new(),
            cur_source: NodeId(0),
            budget: PathBudget::new(config.max_paths),
            cancel: None,
            queue: VecDeque::new(),
            best: FastMap::default(),
            accepted: Vec::new(),
            scratch_reuse: 0,
        }
    }

    /// The next emitted item, with its source, in canonical order.
    pub fn next_item(&mut self) -> Result<Option<(ProductItem, NodeId)>, AlgebraError> {
        loop {
            if let Some(item) = self.pending.pop_front() {
                return Ok(Some((item, self.cur_source)));
            }
            let Some(&s) = self.sources.get(self.next_source) else {
                return Ok(None);
            };
            self.next_source += 1;
            self.cur_source = s;
            self.expand_source(s)?;
        }
    }

    /// Drops the rest of the current source's queued output.
    pub fn skip_source(&mut self) {
        self.pending.clear();
    }

    /// Restricts expansion to sources marked in `keep` (σ-first pushdown).
    /// Must be applied before the first pull.
    pub fn restrict_sources(&mut self, keep: &[bool]) {
        self.sources.retain(|v| keep.get(v.index()) == Some(&true));
    }

    /// Installs a shared cancellation token, checked periodically during
    /// source expansion. May be applied at any time.
    pub fn share_cancel(&mut self, cancel: Arc<CancelToken>) {
        self.cancel = Some(cancel);
    }

    /// Number of arena steps allocated so far.
    pub fn steps_generated(&self) -> usize {
        self.arena.len()
    }

    /// Bytes currently backing the step arena (see `arena_bytes_peak`).
    pub fn arena_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Scratch reuse events (see `scratch_reuse_count`).
    pub fn scratch_reuse(&self) -> u64 {
        self.scratch_reuse
    }

    /// Paths recorded against the budget so far.
    pub(crate) fn budget_count(&self) -> usize {
        self.budget.count()
    }

    /// Writes the node and edge sequences of an emitted item into the
    /// caller's buffers (replacing their contents).
    pub fn fill(
        &self,
        item: ProductItem,
        source: NodeId,
        nodes: &mut Vec<NodeId>,
        edges: &mut Vec<EdgeId>,
    ) {
        match item {
            ProductItem::Empty => {
                nodes.clear();
                nodes.push(source);
                edges.clear();
            }
            ProductItem::Step(id, len) => {
                self.arena
                    .fill_chain(id, source, len as usize, nodes, edges)
            }
        }
    }

    /// The `(First, Last, Len)` triple of an emitted item.
    pub fn triple(&self, item: ProductItem, source: NodeId) -> (NodeId, NodeId, usize) {
        match item {
            ProductItem::Empty => (source, source, 0),
            ProductItem::Step(id, len) => (source, self.arena.target(id), len as usize),
        }
    }

    fn claim(&mut self) -> Result<(), AlgebraError> {
        self.budget.claim(1)
    }

    /// The product BFS of one source, mirroring
    /// `AutomatonEvaluator::expand_source` step for step.
    fn expand_source(&mut self, s: NodeId) -> Result<(), AlgebraError> {
        // Dedup set: the same path can be accepted through different
        // automaton runs; scoped to this source, dropped afterwards.
        let mut result = PathSet::new();
        let mut best = std::mem::take(&mut self.best);
        let mut accepted = std::mem::take(&mut self.accepted);
        let mut queue = std::mem::take(&mut self.queue);
        if best.capacity() + accepted.capacity() + queue.capacity() > 0 {
            self.scratch_reuse += 1;
        }
        best.clear();
        accepted.clear();
        queue.clear();
        // Copy out the graph reference: its borrow is of the external graph,
        // not of `self`, so the adjacency slices can be walked while the
        // arena is extended — no per-pop edge-list copy.
        let graph = self.graph;

        if self.accepts_empty && result.insert(Path::node(s)) {
            self.claim()?;
            accepted.push(ProductItem::Empty);
        }

        let start = self.nfa.start();
        let initial_seen = if self.walk_unbounded {
            vec![(s, start)]
        } else {
            Vec::new()
        };
        queue.push_back((None, 0, start, initial_seen));

        let mut pops: usize = 0;
        while let Some((chain, cur_len, state, seen)) = queue.pop_front() {
            // Amortise the deadline's `Instant::now()` over many pops.
            if pops & 127 == 0 {
                if let Some(token) = &self.cancel {
                    token.check()?;
                }
            }
            pops += 1;
            let here = match chain {
                Some(id) => self.arena.target(id),
                None => s,
            };
            for &edge in graph.outgoing(here) {
                let label = graph.label(edge);
                for next_state in self.nfa.step(state, label) {
                    if !self.co_accepting[next_state] {
                        continue;
                    }
                    let t = graph.target(edge);
                    let new_len = cur_len + 1;
                    if let Some(max) = self.config.max_length {
                        if new_len as usize > max {
                            continue;
                        }
                    }
                    let admissible = match self.semantics {
                        PathSemantics::Walk => true,
                        PathSemantics::Trail => {
                            chain.is_none_or(|id| !self.arena.chain_contains_edge(id, edge))
                        }
                        PathSemantics::Acyclic => {
                            t != s
                                && chain.is_none_or(|id| !self.arena.chain_targets_contain(id, t))
                        }
                        PathSemantics::Simple | PathSemantics::Shortest => {
                            let closed = cur_len > 0 && here == s;
                            !closed
                                && (t == s
                                    || chain
                                        .is_none_or(|id| !self.arena.chain_targets_contain(id, t)))
                        }
                    };
                    if !admissible {
                        continue;
                    }
                    let product_state = (t, next_state);
                    if self.walk_unbounded && seen.contains(&product_state) {
                        return Err(AlgebraError::RecursionLimitExceeded {
                            bound: 0,
                            paths_so_far: result.len(),
                        });
                    }
                    let id = self.arena.push(chain, edge, t);
                    if self.nfa.is_accepting(next_state) {
                        if self.semantics == PathSemantics::Shortest {
                            let entry = best.entry(t).or_insert(new_len as usize);
                            *entry = (*entry).min(new_len as usize);
                        }
                        if result.insert(self.arena.path_of(id, s, new_len as usize)) {
                            self.claim()?;
                            accepted.push(ProductItem::Step(id, new_len));
                        }
                    }
                    let next_seen = if self.walk_unbounded {
                        let mut v = seen.clone();
                        v.push(product_state);
                        v
                    } else {
                        Vec::new()
                    };
                    queue.push_back((Some(id), new_len, next_state, next_seen));
                }
            }
        }

        for &item in &accepted {
            let keep = match (self.semantics, item) {
                (PathSemantics::Shortest, ProductItem::Step(id, len)) => {
                    best.get(&self.arena.target(id)) == Some(&(len as usize))
                }
                // Zero-length matches are kept unconditionally under
                // Shortest, mirroring the Kleene-star translation.
                _ => true,
            };
            if keep {
                self.pending.push_back(item);
            }
        }
        self.best = best;
        self.accepted = accepted;
        self.queue = queue;
        Ok(())
    }
}

/// For every NFA state, whether an accepting state is reachable (same
/// computation as the serial automaton evaluator's dead-branch pruning).
fn co_accepting_states(nfa: &Nfa) -> Vec<bool> {
    let n = nfa.state_count();
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
