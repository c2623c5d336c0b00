//! The scan/chain expansion kernel: `ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))` as a lazy,
//! level-ordered composite product — `k = 1` is the plain label scan
//! `ϕ(σℓ(E))`.
//!
//! The base relation of patterns like `(:Likes/:Has_creator)+` is a *join* of
//! label scans: every base path is a fixed-length **segment** walking one
//! edge of each hop label in order (a label scan is the one-hop chain, its
//! segments are single edges). The materialised pipeline evaluates this by
//! hashing the full join result and feeding it to the frontier engine; this
//! module instead keeps one CSR-shaped endpoint index *per hop* (the
//! label-restricted [`CsrGraph`] snapshots, keyed by each hop's source node)
//! and expands the concatenation lazily: a segment is enumerated by chaining
//! through the per-hop indexes, and the closure is grown segment by segment,
//! level by level and *pull-driven* — levels are computed only when a
//! consumer asks for more paths — without either join side, the join
//! result, or the closure ever being materialised.
//!
//! The emission order is byte-identical to the engine's materialised
//! evaluation (`join(…)` then `phi_frontier`): sources ascending, levels (=
//! segment counts) in order, and within a level the lexicographic
//! `(e1, …, ek)` adjacency order — which is the order the hash join feeds the
//! frontier's per-source base index, and the canonical-order contract stated
//! on [`crate::Pmr`]. All admission predicates, the Shortest per-target
//! pruning, the unbounded-Walk infinite-answer detection and the `max_paths`
//! accounting mirror `phi_frontier`'s expansion step for step (pinned in
//! `tests/cross_validation.rs`).
//!
//! Levels are synchronous — every boundary step in the current level closes
//! a chain of `cur_len` edges — so lengths are threaded beside step ids
//! instead of stored per step (see [`crate::arena`]), and all per-level and
//! per-source scratch (the `cur`/`next` candidate buffers, the Shortest
//! saturation buffers) is owned by the expansion and recycled; the
//! steady-state drain performs no heap allocation once the buffers and the
//! arena have reached their high-water marks.

use crate::arena::StepArena;
use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::ops::recursive::{
    PathSemantics, RecursionConfig, UNBOUNDED_WALK_ITERATION_LIMIT,
};
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::ids::NodeId;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reachability summary of one source, used by the sliced evaluation to
/// decide when a source's contribution to every kept group is complete.
pub(crate) struct ReachInfo {
    /// Targets with at least one composite walk from the source (excluding
    /// the source itself), within the configured length bound.
    pub open: Vec<NodeId>,
    /// Length of the shortest closed composite walk through the source
    /// within the bound, if one exists.
    pub min_closed: Option<usize>,
}

/// The canonical source schedule of a scan/chain expansion whose first hop
/// is `hop0`: every node with an outgoing hop-0 edge, ascending.
fn source_schedule(hop0: &CsrGraph) -> Vec<NodeId> {
    (0..hop0.node_count())
        .map(|i| NodeId(i as u32))
        .filter(|&v| hop0.out_degree(v) > 0)
        .collect()
}

/// The lazy scan/chain expander (see the module docs). Arena steps hold one
/// edge each; only steps at segment boundaries (path length a multiple of
/// the hop count) are ever emitted.
pub(crate) struct ChainExpansion {
    hops: Arc<[CsrGraph]>,
    semantics: PathSemantics,
    config: RecursionConfig,
    walk_unbounded: bool,
    sources: Vec<NodeId>,
    next_source: usize,
    pub(crate) arena: StepArena,
    /// Per-step "chain is acyclic so far" flags, maintained only under
    /// unbounded Walk (a non-acyclic candidate proves the fixpoint is
    /// infinite). In lockstep with the arena.
    acyclic: Vec<bool>,
    /// Segment-boundary steps of the current level (`cur_len` edges each).
    cur: Vec<u32>,
    /// Recycled buffer for the next level (swapped with `cur` per level).
    next_buf: Vec<u32>,
    cur_len: u32,
    cur_source: NodeId,
    iterations: usize,
    src_emitted: usize,
    /// Emitted-but-unpulled boundary steps with their path lengths.
    pending: VecDeque<(u32, u32)>,
    /// The `max_paths` accounting. Level-0 segments are recorded (counted,
    /// never limit-checked), recursion candidates are claimed, mirroring the
    /// frontier engine.
    budget: PathBudget,
    /// Cooperative cancellation, checked once per expansion level (never per
    /// edge, so successful runs stay byte-identical and near-free).
    cancel: Option<Arc<CancelToken>>,
    level0_segments: usize,
    /// Shortest scratch: per-source best-known distance per target (the
    /// distance table is only allocated under Shortest) plus the recycled
    /// saturation buffers.
    seen: Frontier,
    dist: Vec<usize>,
    sp_all: Vec<(u32, u32)>,
    sp_cur: Vec<u32>,
    sp_next: Vec<u32>,
    /// Reachability scratch over the `(node, phase)` product space; the
    /// distance table is sized on first use.
    reach_seen: Frontier,
    reach_dist: Vec<usize>,
}

impl ChainExpansion {
    /// Builds the expander over per-hop CSR snapshots (all over the same
    /// node universe; at least one hop).
    pub fn new(hops: Arc<[CsrGraph]>, semantics: PathSemantics, config: RecursionConfig) -> Self {
        let (n, k, sources) = {
            assert!(!hops.is_empty(), "a chain expansion needs at least one hop");
            (hops[0].node_count(), hops.len(), source_schedule(&hops[0]))
        };
        Self {
            hops,
            semantics,
            config,
            walk_unbounded: semantics == PathSemantics::Walk && config.max_length.is_none(),
            sources,
            next_source: 0,
            arena: StepArena::default(),
            acyclic: Vec::new(),
            cur: Vec::new(),
            next_buf: Vec::new(),
            cur_len: 0,
            cur_source: NodeId(0),
            iterations: 0,
            src_emitted: 0,
            pending: VecDeque::new(),
            budget: PathBudget::new(config.max_paths),
            cancel: None,
            level0_segments: 0,
            seen: Frontier::new(n),
            // Only Shortest reads distances; other semantics skip the O(n)
            // zero-fill entirely (the Frontier itself is lazily allocated).
            dist: if semantics == PathSemantics::Shortest {
                vec![0; n]
            } else {
                Vec::new()
            },
            sp_all: Vec::new(),
            sp_cur: Vec::new(),
            sp_next: Vec::new(),
            reach_seen: Frontier::new(n * k),
            reach_dist: Vec::new(),
        }
    }

    /// The next emitted boundary step, with its source and path length, in
    /// canonical order.
    pub fn next_id(&mut self) -> Result<Option<(u32, NodeId, u32)>, AlgebraError> {
        if !self.ensure_pending()? {
            return Ok(None);
        }
        let (id, len) = self.pending.pop_front().expect("ensure_pending");
        Ok(Some((id, self.cur_source, len)))
    }

    /// Drops everything still queued or expandable for the current source;
    /// the next pull starts the next source.
    pub(crate) fn skip_source(&mut self) {
        self.pending.clear();
        self.cur.clear();
    }

    /// Number of arena steps allocated so far (the generated-work measure).
    pub fn steps_generated(&self) -> usize {
        self.arena.len()
    }

    /// Bytes currently backing the step arena (see `arena_bytes_peak`).
    pub fn arena_bytes(&self) -> usize {
        self.arena.bytes()
    }

    /// Paths recorded against the budget so far.
    pub(crate) fn budget_count(&self) -> usize {
        self.budget.count()
    }

    /// Number of base segments (level-0 paths: join results for a chain,
    /// single edges for a scan) generated so far — the part of the base
    /// relation the expansion actually touched.
    pub fn base_segments(&self) -> usize {
        self.level0_segments
    }

    /// The path semantics this expansion enumerates under.
    pub fn semantics(&self) -> PathSemantics {
        self.semantics
    }

    /// Restricts expansion to sources marked in `keep` (σ-first pushdown).
    /// Must be applied before the first pull.
    pub(crate) fn restrict_sources(&mut self, keep: &[bool]) {
        self.sources.retain(|v| keep.get(v.index()) == Some(&true));
    }

    /// Installs a shared cancellation token, checked at every expansion
    /// level. May be applied at any time; the next level boundary observes it.
    pub fn share_cancel(&mut self, cancel: Arc<CancelToken>) {
        self.cancel = Some(cancel);
    }

    fn check_cancel(&self) -> Result<(), AlgebraError> {
        match &self.cancel {
            Some(token) => token.check(),
            None => Ok(()),
        }
    }

    /// Edges per segment: the hop count (1 for a scan).
    fn seg_len(&self) -> usize {
        self.hops.len()
    }

    fn ensure_pending(&mut self) -> Result<bool, AlgebraError> {
        loop {
            if !self.pending.is_empty() {
                return Ok(true);
            }
            if !self.cur.is_empty() {
                self.advance_level()?;
                continue;
            }
            let Some(&s) = self.sources.get(self.next_source) else {
                return Ok(false);
            };
            self.next_source += 1;
            self.cur_source = s;
            self.iterations = 0;
            self.src_emitted = 0;
            if self.semantics == PathSemantics::Shortest {
                self.expand_source_shortest()?;
            } else {
                let mut cur = std::mem::take(&mut self.cur);
                self.cur_len = self.seg_len() as u32;
                self.grow(None, self.cur_len as usize, &mut cur)?;
                self.src_emitted = cur.len();
                self.pending
                    .extend(cur.iter().map(|&id| (id, self.cur_len)));
                self.cur = cur;
            }
        }
    }

    /// Grows the current source's chains by one segment into `next`, in
    /// lexicographic hop-adjacency order: the base segments (level 0) when
    /// `parents` is `None` — exactly the join output restricted to this
    /// source after the frontier's admission filter — otherwise one segment
    /// appended to every boundary step of `parents`. `new_len` is the path
    /// length at the new boundary.
    fn grow(
        &mut self,
        parents: Option<&[u32]>,
        new_len: usize,
        next: &mut Vec<u32>,
    ) -> Result<(), AlgebraError> {
        if self.config.max_length.is_some_and(|l| new_len > l) {
            return Ok(());
        }
        let source = self.cur_source;
        let simple = matches!(
            self.semantics,
            PathSemantics::Simple | PathSemantics::Shortest
        );
        let mut descent = Descent {
            hops: &self.hops,
            semantics: self.semantics,
            source,
            walk_unbounded: self.walk_unbounded,
            arena: &mut self.arena,
            acyclic: &mut self.acyclic,
            budget: &self.budget,
            shortest: (self.semantics == PathSemantics::Shortest)
                .then_some((&mut self.seen, self.dist.as_mut_slice())),
            level0: parents.is_none(),
            new_len,
            src_emitted: self.src_emitted,
            next,
        };
        let Some(parents) = parents else {
            descent.descend(0, None, source, false)?;
            self.level0_segments += descent.next.len();
            return Ok(());
        };
        for &pid in parents {
            let head = descent.arena.target(pid);
            // A closed simple chain cannot be extended.
            if simple && head == source {
                continue;
            }
            let repeat = descent.walk_unbounded && !descent.acyclic[pid as usize];
            descent.descend(0, Some(pid), head, repeat)?;
        }
        Ok(())
    }

    /// One level of expansion for the current source (non-Shortest
    /// semantics), mirroring `phi_frontier`'s level step. The `cur`/`next`
    /// buffers are recycled across levels and sources.
    fn advance_level(&mut self) -> Result<(), AlgebraError> {
        self.check_cancel()?;
        self.iterations += 1;
        if self.walk_unbounded && self.iterations > UNBOUNDED_WALK_ITERATION_LIMIT {
            return Err(AlgebraError::RecursionLimitExceeded {
                bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                paths_so_far: self.src_emitted,
            });
        }
        let cur = std::mem::take(&mut self.cur);
        let mut next = std::mem::take(&mut self.next_buf);
        next.clear();
        let new_len = self.cur_len as usize + self.seg_len();
        self.grow(Some(&cur), new_len, &mut next)?;
        self.src_emitted += next.len();
        self.pending
            .extend(next.iter().map(|&id| (id, new_len as u32)));
        self.cur = next;
        self.next_buf = cur;
        self.cur_len = new_len as u32;
        Ok(())
    }

    /// Shortest semantics saturates per source: the whole source is expanded
    /// eagerly (as `phi_frontier` does) and the minimal boundary steps are
    /// queued in level order after the per-target distance filter. The
    /// saturation buffers (`sp_*`) are recycled across sources.
    fn expand_source_shortest(&mut self) -> Result<(), AlgebraError> {
        self.seen.reset();
        let mut all = std::mem::take(&mut self.sp_all);
        let mut cur = std::mem::take(&mut self.sp_cur);
        let mut next = std::mem::take(&mut self.sp_next);
        all.clear();
        cur.clear();
        next.clear();
        let seg_len = self.seg_len();
        let mut cur_len = seg_len;
        self.grow(None, cur_len, &mut cur)?;
        while !cur.is_empty() {
            self.check_cancel()?;
            next.clear();
            self.grow(Some(&cur), cur_len + seg_len, &mut next)?;
            all.extend(cur.iter().map(|&id| (id, cur_len as u32)));
            std::mem::swap(&mut cur, &mut next);
            cur_len += seg_len;
        }
        for &(id, len) in &all {
            let t = self.arena.target(id);
            if self.seen.contains(t) && self.dist[t.index()] == len as usize {
                self.pending.push_back((id, len));
                self.src_emitted += 1;
            }
        }
        self.sp_all = all;
        self.sp_cur = cur;
        self.sp_next = next;
        Ok(())
    }

    /// The reachability summary of `source` within the length bound: a BFS
    /// over the `(node, phase)` product of graph nodes and hop positions —
    /// polynomial, independent of how many paths exist. *Complete* for group
    /// discovery (every admitted path is a composite walk, so its target is
    /// reached at phase 0 within the bound). For a scan it is also exact
    /// (the shortest walk to a reachable target is a simple path, admitted
    /// under every semantics); for a multi-hop chain it can
    /// over-approximate — the shortest composite walk may repeat nodes, so a
    /// listed group may hold no admitted path under Trail/Acyclic/Simple.
    /// The sliced evaluation only uses the set to *delay* a source stop, so
    /// over-approximation costs work, never correctness.
    pub fn reachability(&mut self, source: NodeId) -> ReachInfo {
        let hops = &self.hops[..];
        let k = hops.len();
        let bound = self.config.max_length.unwrap_or(usize::MAX);
        let states = hops[0].node_count() * k;
        if self.reach_dist.len() < states {
            self.reach_dist.resize(states, 0);
        }
        self.reach_seen.reset();
        let start = source.index() * k;
        self.reach_seen.insert(NodeId(start as u32));
        self.reach_dist[start] = 0;
        let mut min_closed: Option<usize> = None;
        // The members list doubles as the BFS queue: it grows in insertion
        // order, which *is* BFS order over the product states.
        let mut head = 0;
        while head < self.reach_seen.len() {
            let state = self.reach_seen.members()[head].index();
            head += 1;
            let (u, ph) = (NodeId((state / k) as u32), state % k);
            let d = self.reach_dist[state];
            if d >= bound {
                continue;
            }
            let np = (ph + 1) % k;
            let nd = d + 1;
            let (targets, _) = hops[ph].neighbor_slices(u);
            for &t in targets {
                if np == 0 && t == source {
                    // A closed composite walk; the start state is never
                    // re-enqueued (everything beyond it is already explored).
                    min_closed = Some(min_closed.map_or(nd, |m| m.min(nd)));
                    continue;
                }
                let si = t.index() * k + np;
                if self.reach_seen.insert(NodeId(si as u32)) {
                    self.reach_dist[si] = nd;
                }
            }
        }
        let open: Vec<NodeId> = self
            .reach_seen
            .members()
            .iter()
            .filter(|m| m.index() % k == 0)
            .map(|m| NodeId((m.index() / k) as u32))
            .filter(|&v| v != source)
            .collect();
        ReachInfo { open, min_closed }
    }
}

/// One [`ChainExpansion::grow`] call's view of the expansion state: the
/// disjoint fields [`Descent::descend`] reads and writes while it walks the
/// hop indexes.
struct Descent<'a> {
    hops: &'a [CsrGraph],
    semantics: PathSemantics,
    source: NodeId,
    walk_unbounded: bool,
    arena: &'a mut StepArena,
    acyclic: &'a mut Vec<bool>,
    budget: &'a PathBudget,
    /// Under Shortest: the source's visited set and per-target distances.
    shortest: Option<(&'a mut Frontier, &'a mut [usize])>,
    /// Level 0 grows base segments: recorded against the budget, never
    /// limit-checked, and never an infinite-answer proof by themselves.
    level0: bool,
    /// Path length at the boundary this call grows to.
    new_len: usize,
    src_emitted: usize,
    next: &'a mut Vec<u32>,
}

impl Descent<'_> {
    /// Enumerates the admitted `hops[hop..]` continuations of the chain
    /// `(chain, node)` in lexicographic adjacency order, pushing one arena
    /// step per edge and the boundary step ids to `next`. The per-edge
    /// checks against the growing chain are exactly the frontier engine's
    /// two-stage admission (`admits(q)` on the segment plus
    /// `step_admissible(p, q)` against the parent) unrolled edge by edge;
    /// `repeat` carries the unbounded-Walk acyclicity tracking. The last hop
    /// — the only one a scan has — never recurses: it settles the boundary
    /// candidate (infinite-answer proof, Shortest per-target pruning,
    /// budget) before the step is pushed, so a rejected candidate costs no
    /// arena slot.
    fn descend(
        &mut self,
        hop: usize,
        chain: Option<u32>,
        node: NodeId,
        repeat: bool,
    ) -> Result<(), AlgebraError> {
        let hops = self.hops;
        let last_hop = hop + 1 == hops.len();
        let (targets, edges) = hops[hop].neighbor_slices(node);
        for (&t, &e) in targets.iter().zip(edges) {
            let arena = &*self.arena;
            let admissible = match self.semantics {
                PathSemantics::Walk => true,
                PathSemantics::Trail => chain.is_none_or(|id| !arena.chain_contains_edge(id, e)),
                PathSemantics::Acyclic => {
                    t != self.source && chain.is_none_or(|id| !arena.chain_targets_contain(id, t))
                }
                PathSemantics::Simple | PathSemantics::Shortest => {
                    let fresh = chain.is_none_or(|id| !arena.chain_targets_contain(id, t));
                    if last_hop {
                        // Only the segment's final node may close the path.
                        t == self.source || fresh
                    } else {
                        t != self.source && fresh
                    }
                }
            };
            if !admissible {
                continue;
            }
            let repeat = self.walk_unbounded
                && (repeat
                    || t == self.source
                    || chain.is_some_and(|id| arena.chain_targets_contain(id, t)));
            if last_hop {
                if repeat && !self.level0 {
                    return Err(AlgebraError::RecursionLimitExceeded {
                        bound: UNBOUNDED_WALK_ITERATION_LIMIT,
                        paths_so_far: self.src_emitted + self.next.len(),
                    });
                }
                if let Some((seen, dist)) = &mut self.shortest {
                    if seen.contains(t) && self.new_len > dist[t.index()] {
                        continue;
                    }
                    if seen.insert(t) {
                        dist[t.index()] = self.new_len;
                    }
                }
                if self.level0 {
                    self.budget.record(1);
                } else {
                    self.budget.claim(1)?;
                }
            }
            let id = self.arena.push(chain, e, t);
            if self.walk_unbounded {
                self.acyclic.push(!repeat);
            }
            if last_hop {
                self.next.push(id);
            } else {
                self.descend(hop + 1, Some(id), t, repeat)?;
            }
        }
        Ok(())
    }
}

/// The kernel's visited set: a bitset over nodes `0..capacity` (one bit per
/// node in u64 words) with O(1) insert/contains, plus the members inserted
/// since the last reset in insertion order — the reachability BFS uses that
/// list as its queue. The word block is allocated on first insert, so a
/// semantics that never touches its set pays no O(n) zero-fill.
struct Frontier {
    /// Bit `n % 64` of `words[n / 64]` ⇔ node `n` is in the set. Empty until
    /// the first insert.
    words: Vec<u64>,
    /// Node slots covered (`capacity`, not `words.len() * 64`).
    capacity: usize,
    /// Nodes inserted since the last reset, in insertion order.
    members: Vec<NodeId>,
}

impl Frontier {
    fn new(capacity: usize) -> Self {
        Self {
            words: Vec::new(),
            capacity,
            members: Vec::new(),
        }
    }

    /// Inserts `node`; returns `true` if it was not yet in the set.
    /// Out-of-range nodes are reported as never-inserted and ignored.
    fn insert(&mut self, node: NodeId) -> bool {
        let index = node.index();
        if index >= self.capacity {
            return false;
        }
        if self.words.is_empty() {
            self.words = vec![0; self.capacity.div_ceil(64)];
        }
        let mask = 1u64 << (index % 64);
        let word = &mut self.words[index / 64];
        if *word & mask != 0 {
            return false;
        }
        *word |= mask;
        self.members.push(node);
        true
    }

    /// True if `node` was inserted since the last reset.
    fn contains(&self, node: NodeId) -> bool {
        let index = node.index();
        index < self.capacity
            && self
                .words
                .get(index / 64)
                .is_some_and(|word| word & (1u64 << (index % 64)) != 0)
    }

    /// The nodes inserted since the last reset, in insertion order.
    fn members(&self) -> &[NodeId] {
        &self.members
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    /// Empties the set, keeping the block. Below one member per 64 slots it
    /// clears only the words the members touched; at or above it one
    /// `fill(0)` of the block is cheaper.
    fn reset(&mut self) {
        if self.members.len() * 64 >= self.capacity {
            self.words.fill(0);
        } else {
            for member in &self.members {
                self.words[member.index() / 64] = 0;
            }
        }
        self.members.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::Figure1;

    #[test]
    fn frontier_insert_contains_and_members_track_the_set() {
        let mut f = Frontier::new(8);
        assert_eq!(f.len(), 0);
        assert!(f.insert(NodeId(3)));
        assert!(!f.insert(NodeId(3)), "duplicate insert is rejected");
        assert!(f.insert(NodeId(1)));
        assert!(f.contains(NodeId(3)));
        assert!(!f.contains(NodeId(0)));
        assert_eq!(f.members(), &[NodeId(3), NodeId(1)]);
        assert_eq!(f.len(), 2);
    }

    #[test]
    fn frontier_reset_clears_and_allows_reinsertion() {
        let mut f = Frontier::new(4);
        for i in 0..4 {
            f.insert(NodeId(i));
        }
        f.reset();
        assert_eq!(f.len(), 0);
        assert!(!f.contains(NodeId(2)));
        assert!(
            f.insert(NodeId(2)),
            "nodes are insertable again after reset"
        );
        assert_eq!(f.members(), &[NodeId(2)]);
    }

    #[test]
    fn frontier_out_of_range_nodes_are_ignored() {
        let mut f = Frontier::new(2);
        assert!(!f.insert(NodeId(5)));
        assert!(!f.contains(NodeId(5)));
        assert_eq!(f.len(), 0);
    }

    #[test]
    fn frontier_many_reset_cycles_never_collide() {
        let mut f = Frontier::new(1);
        for _ in 0..10_000 {
            assert!(f.insert(NodeId(0)));
            f.reset();
        }
        assert!(!f.contains(NodeId(0)));
    }

    #[test]
    fn frontier_resets_after_sparse_and_dense_fills_leave_a_refillable_set() {
        // Capacity 128: one member clears word by word, two or more reach
        // one member per 64 slots and clear the whole block.
        let mut f = Frontier::new(128);
        for fill in [&[5][..], &[5, 70], &[5, 70, 127]] {
            for &id in fill {
                assert!(f.insert(NodeId(id)));
            }
            f.reset();
            assert_eq!(f.len(), 0);
            for &id in fill {
                assert!(!f.contains(NodeId(id)), "{id} survived a reset");
                assert!(f.insert(NodeId(id)), "{id} is insertable again");
            }
            f.reset();
        }
        assert!(!f.contains(NodeId(127)));
    }

    #[test]
    fn level0_segments_match_the_two_hop_join_of_figure1() {
        // Likes ⋈ Has_creator on Figure 1 has 4 two-hop paths.
        let f = Figure1::new();
        let hops = vec![
            CsrGraph::with_label(&f.graph, "Likes"),
            CsrGraph::with_label(&f.graph, "Has_creator"),
        ];
        let mut exp = ChainExpansion::new(
            hops.into(),
            PathSemantics::Trail,
            RecursionConfig::default(),
        );
        let mut emitted = 0;
        while let Some((id, source, len)) = exp.next_id().unwrap() {
            let path = exp.arena.path_of(id, source, len as usize);
            assert_eq!(path.nodes()[0], source);
            assert_eq!(len % 2, 0, "only segment boundaries are emitted");
            emitted += 1;
            if emitted > 100 {
                break;
            }
        }
        assert!(emitted >= 4, "at least the 4 base segments are emitted");
        assert!(exp.base_segments() >= 4);
    }

    #[test]
    fn source_restriction_skips_whole_sources() {
        let f = Figure1::new();
        let hops = vec![
            CsrGraph::with_label(&f.graph, "Likes"),
            CsrGraph::with_label(&f.graph, "Has_creator"),
        ];
        let mut exp = ChainExpansion::new(
            hops.into(),
            PathSemantics::Trail,
            RecursionConfig::default(),
        );
        let keep = vec![false; f.graph.node_count()];
        exp.restrict_sources(&keep);
        assert!(exp.next_id().unwrap().is_none());
        assert_eq!(exp.steps_generated(), 0);
    }
}
