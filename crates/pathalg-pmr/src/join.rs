//! The expansion kernel: `ϕ(B)` as a lazy, per-source, level-ordered
//! product, for the two kinds of base `B` the engine hands it.
//!
//! * **Label scans and chains**, `σℓ1(E) ⋈ … ⋈ σℓk(E)` (`k = 1` is the plain
//!   scan `ϕ(σℓ(E))`): every base path is a fixed-length **segment** walking
//!   one edge of each hop label in order. The kernel keeps one CSR-shaped
//!   endpoint index *per hop* (the label-restricted [`CsrGraph`] snapshots,
//!   keyed by each hop's source node) and enumerates a segment by chaining
//!   through them, so neither join side, the join result, nor the closure
//!   is ever materialised.
//! * **Any other base**, evaluated by the engine first: its admitted paths
//!   are indexed by first node ([`SegmentIndex`]) and a level appends one
//!   whole indexed segment, walked edge by edge with the same admission
//!   checks as a chain hop.
//!
//! The closure is grown segment by segment, level by level and
//! *pull-driven* — levels are computed only when a consumer asks for more
//! paths. The emission order is the canonical order stated on
//! [`crate::Pmr`]: sources ascending, levels (= segment counts) in order,
//! and within a level the order of the parents, each extended by its
//! segments in index order — for a chain the lexicographic `(e1, …, ek)`
//! adjacency order.
//!
//! ϕ's rules, per source:
//!
//! * a candidate `p ∘ q` is admitted by checking only `q`'s edges against
//!   `p` (the base path `q` is admitted by itself);
//! * under Shortest, a candidate longer than the best known path to its
//!   target is pruned, and only the minimal paths per target are emitted;
//! * under unbounded Walk, a non-acyclic candidate proves the answer is
//!   infinite and aborts the drain, as does exceeding
//!   `UNBOUNDED_WALK_ITERATION_LIMIT` levels;
//! * base paths count toward `max_paths` without tripping it, candidates
//!   are claimed against it, and a drain that claimed a candidate fails at
//!   its end if the total exceeds the limit (a later source's base paths
//!   can push it over after the last claim).
//!
//! A materialised base adds three rules the chain path never needs, kept
//! in the segment variant only: empty (node) base paths are emitted first
//! at their source and never expanded (under Shortest they seed the
//! source's minimum, so closed paths back to it are pruned); segments of
//! different lengths make a level a segment count rather than a path
//! length, so lengths are kept per step; and when some segment has more
//! than one edge, one path can be derived in several ways, so a per-source
//! seen-set drops repeats after the Shortest prune and before the minimum
//! is updated.
//!
//! On the chain path levels are synchronous — every boundary step in the
//! current level closes a chain of `cur_len` edges — so lengths are threaded
//! beside step ids instead of stored per step (see [`crate::arena`]), and
//! all per-level and per-source scratch (the `cur`/`next` candidate
//! buffers, the Shortest saturation buffers) is owned by the expansion and
//! recycled; the steady-state drain performs no heap allocation once the
//! buffers and the arena have reached their high-water marks.

use crate::arena::StepArena;
use crate::segments::SegmentIndex;
use pathalg_core::budget::{CancelToken, PathBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::FastSet;
use pathalg_core::ops::recursive::{
    PathSemantics, RecursionConfig, UNBOUNDED_WALK_ITERATION_LIMIT,
};
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use std::collections::VecDeque;
use std::sync::Arc;

/// Reachability summary of one source beyond its open targets (which
/// [`Expansion::reachability`] writes into the caller's buffer), used by the
/// sliced evaluation to decide when a source's contribution to every kept
/// group is complete.
pub(crate) struct ReachInfo {
    /// Length of the shortest closed composite walk through the source
    /// within the bound, if one exists.
    pub min_closed: Option<usize>,
}

/// What one level appends to a chain (see the module docs).
enum Base {
    /// The per-hop label CSRs of a scan or chain.
    Chain(Arc<[CsrGraph]>),
    /// The segments of a materialised base, with the state only they need.
    Segments(Box<SegmentState>),
}

impl Base {
    /// Appends the boundary steps `ids` with their path lengths to `out`:
    /// `len` on the chain path, each step's own length for segments.
    fn with_lens(&self, ids: &[u32], len: u32, out: &mut impl Extend<(u32, u32)>) {
        match self {
            Base::Chain(_) => out.extend(ids.iter().map(|&id| (id, len))),
            Base::Segments(seg) => out.extend(ids.iter().map(|&id| (id, seg.lens[id as usize]))),
        }
    }
}

/// The expansion state of a materialised base beyond what the chain path
/// keeps.
struct SegmentState {
    index: SegmentIndex,
    /// Per arena step, the length of the chain it closes (in lockstep with
    /// the arena): a level is a segment count, not a path length.
    lens: Vec<u32>,
    /// Composite bases only: the edge sequences the current source has
    /// produced so far, base paths included.
    produced: FastSet<Box<[EdgeId]>>,
    /// Reconstruction scratch for the seen-set key of a candidate.
    key_nodes: Vec<NodeId>,
    key: Vec<EdgeId>,
}

/// The canonical source schedule of a scan/chain expansion whose first hop
/// is `hop0`: every node with an outgoing hop-0 edge, ascending.
fn source_schedule(hop0: &CsrGraph) -> Vec<NodeId> {
    (0..hop0.node_count())
        .map(|i| NodeId(i as u32))
        .filter(|&v| hop0.out_degree(v) > 0)
        .collect()
}

/// The lazy expander (see the module docs). Arena steps hold one edge each;
/// only steps at segment boundaries are ever emitted.
pub(crate) struct Expansion {
    base: Base,
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
    /// Segment-boundary steps of the current level (`cur_len` edges each on
    /// the chain path).
    cur: Vec<u32>,
    /// Recycled buffer for the next level (swapped with `cur` per level).
    next_buf: Vec<u32>,
    cur_len: u32,
    cur_source: NodeId,
    iterations: usize,
    src_emitted: usize,
    /// Emitted-but-unpulled boundary steps with their path lengths; an
    /// empty base path is queued as `(0, 0)` and owns no step.
    pending: VecDeque<(u32, u32)>,
    /// The `max_paths` accounting: level-0 segments are recorded (counted,
    /// never limit-checked), recursion candidates are claimed.
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

impl Expansion {
    /// The expander over per-hop CSR snapshots (all over the same node
    /// universe; at least one hop).
    pub fn chain(hops: Arc<[CsrGraph]>, semantics: PathSemantics, config: RecursionConfig) -> Self {
        assert!(!hops.is_empty(), "a chain expansion needs at least one hop");
        let (n, k, sources) = (hops[0].node_count(), hops.len(), source_schedule(&hops[0]));
        Self::new(Base::Chain(hops), n, n * k, sources, semantics, config)
    }

    /// The expander over the segments of a materialised base.
    pub fn segments(
        index: SegmentIndex,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Self {
        let (n, sources) = (index.node_count(), index.sources().to_vec());
        let state = SegmentState {
            index,
            lens: Vec::new(),
            produced: FastSet::default(),
            key_nodes: Vec::new(),
            key: Vec::new(),
        };
        Self::new(
            Base::Segments(Box::new(state)),
            n,
            0,
            sources,
            semantics,
            config,
        )
    }

    fn new(
        base: Base,
        n: usize,
        reach_states: usize,
        sources: Vec<NodeId>,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Self {
        Self {
            base,
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
            reach_seen: Frontier::new(reach_states),
            reach_dist: Vec::new(),
        }
    }

    /// The next emitted boundary step, with its source and path length, in
    /// canonical order. A length of 0 is an empty base path: its step id
    /// means nothing.
    pub fn next_id(&mut self) -> Result<Option<(u32, NodeId, u32)>, AlgebraError> {
        if !self.ensure_pending()? {
            return Ok(None);
        }
        let (id, len) = self.pending.pop_front().expect("ensure_pending");
        Ok(Some((id, self.cur_source, len)))
    }

    /// [`Expansion::next_id`] among the steps already queued — the rest of
    /// the current level — without expanding the next level or source.
    pub(crate) fn next_queued(&mut self) -> Option<(u32, NodeId, u32)> {
        let (id, len) = self.pending.pop_front()?;
        Some((id, self.cur_source, len))
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
    /// single edges for a scan, the admitted base paths of a materialised
    /// base) generated so far — the part of the base relation the expansion
    /// actually touched.
    pub fn base_segments(&self) -> usize {
        self.level0_segments
    }

    /// The node universe the expansion walks: every node id it emits is
    /// below this.
    pub(crate) fn node_count(&self) -> usize {
        self.seen.capacity
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

    /// True when the length bound admits at most one segment per path:
    /// every path of a source is then on its first level, expanded before
    /// the source emits anything. Never for a materialised base, whose
    /// segments carry their own lengths.
    pub(crate) fn single_level(&self) -> bool {
        let k = self.seg_len();
        k > 0 && self.config.max_length.is_some_and(|bound| bound < 2 * k)
    }

    /// Whether [`Expansion::reachability`] has ever run (its distance table
    /// is sized on first use).
    #[cfg(test)]
    pub(crate) fn reachability_searched(&self) -> bool {
        !self.reach_dist.is_empty()
    }

    /// Edges per segment on the chain path: the hop count (1 for a scan).
    /// Segments of a materialised base carry their own lengths.
    fn seg_len(&self) -> usize {
        match &self.base {
            Base::Chain(hops) => hops.len(),
            Base::Segments(_) => 0,
        }
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
                self.settle_budget()?;
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
                let empties = self.grow(None, self.cur_len as usize, &mut cur)?;
                self.queue_empties(empties);
                self.src_emitted += cur.len();
                self.base.with_lens(&cur, self.cur_len, &mut self.pending);
                self.cur = cur;
            }
        }
    }

    /// The fixpoint's `max_paths` rule at the end of a drain: once a
    /// candidate has been claimed, the base paths and the candidates must
    /// fit together. A base path recorded after the last claim — at a later
    /// source — can still be the one that exceeds the limit.
    fn settle_budget(&self) -> Result<(), AlgebraError> {
        let count = self.budget.count();
        match self.config.max_paths {
            Some(limit) if count > limit && count > self.level0_segments => {
                Err(AlgebraError::ResultLimitExceeded { limit })
            }
            _ => Ok(()),
        }
    }

    /// Queues the source's `n` empty base paths, ahead of everything else it
    /// emits.
    fn queue_empties(&mut self, n: usize) {
        self.pending.extend(std::iter::repeat_n((0, 0), n));
        self.src_emitted += n;
    }

    /// Grows the current source's chains by one segment into `next`, in
    /// canonical order: the base segments (level 0) when `parents` is
    /// `None` — exactly the base restricted to this source after the
    /// level-0 admission filter — otherwise one segment appended to every
    /// boundary step of `parents`. `new_len` is the path length at the new
    /// boundary on the chain path. Returns the number of empty base paths
    /// at the source (level 0 of a materialised base only): they own no
    /// step and are never expanded.
    fn grow(
        &mut self,
        parents: Option<&[u32]>,
        new_len: usize,
        next: &mut Vec<u32>,
    ) -> Result<usize, AlgebraError> {
        if matches!(self.base, Base::Chain(_))
            && self.config.max_length.is_some_and(|l| new_len > l)
        {
            return Ok(0);
        }
        let source = self.cur_source;
        let (hops, seg): (&[CsrGraph], _) = match &mut self.base {
            Base::Chain(hops) => (hops, None),
            Base::Segments(seg) => (&[], Some(seg)),
        };
        let mut descent = Descent {
            hops,
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
        let empties = match (seg, parents) {
            (None, parents) => {
                descent.grow_chain(parents)?;
                0
            }
            (Some(seg), None) => descent.seed_segments(seg),
            (Some(seg), Some(parents)) => {
                descent.extend_segments(seg, parents, &self.config)?;
                0
            }
        };
        if parents.is_none() {
            self.level0_segments += descent.next.len() + empties;
        }
        Ok(empties)
    }

    /// One level of expansion for the current source (non-Shortest
    /// semantics). The `cur`/`next` buffers are recycled across levels and
    /// sources.
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
        self.base
            .with_lens(&next, new_len as u32, &mut self.pending);
        self.cur = next;
        self.next_buf = cur;
        self.cur_len = new_len as u32;
        Ok(())
    }

    /// Shortest semantics saturates per source: the whole source is expanded
    /// eagerly and the minimal boundary steps are queued in level order
    /// after the per-target distance filter. The saturation buffers (`sp_*`)
    /// are recycled across sources.
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
        // An empty base path is the source's minimum to itself: always kept.
        let empties = self.grow(None, cur_len, &mut cur)?;
        self.queue_empties(empties);
        while !cur.is_empty() {
            self.check_cancel()?;
            next.clear();
            self.grow(Some(&cur), cur_len + seg_len, &mut next)?;
            self.base.with_lens(&cur, cur_len as u32, &mut all);
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
    /// over-approximation costs work, never correctness. `None` for a
    /// materialised base: its sliced drains never stop a source early.
    /// Otherwise `open` is overwritten with the targets that have at least
    /// one composite walk from the source (the source itself excluded),
    /// within the bound; a warm buffer makes the call allocation-free.
    pub fn reachability(&mut self, source: NodeId, open: &mut Vec<NodeId>) -> Option<ReachInfo> {
        let Base::Chain(hops) = &self.base else {
            return None;
        };
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
        open.clear();
        open.extend(
            self.reach_seen
                .members()
                .iter()
                .filter(|m| m.index() % k == 0)
                .map(|m| NodeId((m.index() / k) as u32))
                .filter(|&v| v != source),
        );
        Some(ReachInfo { min_closed })
    }
}

/// One [`Expansion::grow`] call's view of the expansion state: the disjoint
/// fields the hop and segment walks read and write.
struct Descent<'a> {
    /// The per-hop CSRs of a scan or chain (empty for a materialised base).
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
    /// Path length at the boundary this call grows to (chain path only).
    new_len: usize,
    src_emitted: usize,
    next: &'a mut Vec<u32>,
}

impl Descent<'_> {
    /// The per-edge admission check: may the chain ending at `chain` (the
    /// bare source for `None`) take edge `e` to `t`? `closes` marks a
    /// segment's last edge — only a segment's final node may close a simple
    /// path at the source. Checking every edge of an admitted segment this
    /// way is exactly checking the whole segment against the chain.
    #[inline(always)]
    fn admits_edge(&self, chain: Option<u32>, e: EdgeId, t: NodeId, closes: bool) -> bool {
        let arena = &*self.arena;
        match self.semantics {
            PathSemantics::Walk => true,
            PathSemantics::Trail => chain.is_none_or(|id| !arena.chain_contains_edge(id, e)),
            PathSemantics::Acyclic => {
                t != self.source && chain.is_none_or(|id| !arena.chain_targets_contain(id, t))
            }
            PathSemantics::Simple | PathSemantics::Shortest => {
                let fresh = chain.is_none_or(|id| !arena.chain_targets_contain(id, t));
                if closes {
                    t == self.source || fresh
                } else {
                    t != self.source && fresh
                }
            }
        }
    }

    /// True if `t` is already on the chain ending at `chain` (the source
    /// included): the unbounded-Walk repeat test.
    #[inline(always)]
    fn revisits(&self, chain: Option<u32>, t: NodeId) -> bool {
        t == self.source || chain.is_some_and(|id| self.arena.chain_targets_contain(id, t))
    }

    /// The unbounded-Walk proof that the answer is infinite, raised by an
    /// admitted candidate that repeats a node.
    fn infinite(&self) -> AlgebraError {
        AlgebraError::RecursionLimitExceeded {
            bound: UNBOUNDED_WALK_ITERATION_LIMIT,
            paths_so_far: self.src_emitted + self.next.len(),
        }
    }

    /// One chain-path level: the base segments (level 0) when `parents` is
    /// `None`, otherwise one segment appended to every boundary step of
    /// `parents`.
    fn grow_chain(&mut self, parents: Option<&[u32]>) -> Result<(), AlgebraError> {
        let Some(parents) = parents else {
            return self.descend(0, None, self.source, false);
        };
        let simple = matches!(
            self.semantics,
            PathSemantics::Simple | PathSemantics::Shortest
        );
        for &pid in parents {
            let head = self.arena.target(pid);
            // A closed simple chain cannot be extended.
            if simple && head == self.source {
                continue;
            }
            let repeat = self.walk_unbounded && !self.acyclic[pid as usize];
            self.descend(0, Some(pid), head, repeat)?;
        }
        Ok(())
    }

    /// Enumerates the admitted `hops[hop..]` continuations of the chain
    /// `(chain, node)` in lexicographic adjacency order, pushing one arena
    /// step per edge and the boundary step ids to `next`. `repeat` carries
    /// the unbounded-Walk acyclicity tracking. The last hop — the only one a
    /// scan has — never recurses: it settles the boundary candidate
    /// (infinite-answer proof, Shortest per-target pruning, budget) before
    /// the step is pushed, so a rejected candidate costs no arena slot.
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
            if !self.admits_edge(chain, e, t, last_hop) {
                continue;
            }
            let repeat = self.walk_unbounded && (repeat || self.revisits(chain, t));
            if last_hop {
                if repeat && !self.level0 {
                    return Err(self.infinite());
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

    /// Level 0 of a materialised base: the source's base paths, admitted at
    /// index time, in base order. They seed the Shortest minimum (without
    /// being pruned) and the seen-set, and are recorded against the budget.
    /// Returns how many are empty: those are never pushed as steps.
    fn seed_segments(&mut self, seg: &mut SegmentState) -> usize {
        seg.produced.clear();
        let composite = seg.index.is_composite();
        let mut empties = 0;
        for s in seg.index.starting_at(self.source) {
            let (targets, edges) = seg.index.segment(s);
            let last = targets.last().copied().unwrap_or(self.source);
            self.lower_minimum(last, edges.len());
            if composite {
                seg.produced.insert(edges.into());
            }
            self.budget.record(1);
            if edges.is_empty() {
                empties += 1;
                continue;
            }
            let repeat = self.walk_unbounded && !seg.index.is_acyclic(s);
            self.push_segment(seg, None, 0, s, repeat);
        }
        empties
    }

    /// One level of a materialised base: every segment starting at the head
    /// of each parent, appended in index order after the checks of the
    /// module docs, in the order the rules list them.
    fn extend_segments(
        &mut self,
        seg: &mut SegmentState,
        parents: &[u32],
        config: &RecursionConfig,
    ) -> Result<(), AlgebraError> {
        let simple = matches!(
            self.semantics,
            PathSemantics::Simple | PathSemantics::Shortest
        );
        let composite = seg.index.is_composite();
        for &pid in parents {
            let head = self.arena.target(pid);
            // A closed simple chain cannot be extended.
            if simple && head == self.source {
                continue;
            }
            let parent_len = seg.lens[pid as usize] as usize;
            for s in seg.index.starting_at(head) {
                let (targets, edges) = seg.index.segment(s);
                let Some(&last) = targets.last() else {
                    continue;
                };
                let new_len = parent_len + edges.len();
                if config.max_length.is_some_and(|l| new_len > l) {
                    continue;
                }
                let closes = edges.len() - 1;
                if !(0..edges.len())
                    .all(|i| self.admits_edge(Some(pid), edges[i], targets[i], i == closes))
                {
                    continue;
                }
                let repeat = self.walk_unbounded
                    && (!self.acyclic[pid as usize]
                        || !seg.index.is_acyclic(s)
                        || targets.iter().any(|&t| self.revisits(Some(pid), t)));
                if repeat {
                    return Err(self.infinite());
                }
                if let Some((seen, dist)) = &self.shortest {
                    if seen.contains(last) && new_len > dist[last.index()] {
                        continue;
                    }
                }
                if composite {
                    self.arena.fill_chain(
                        pid,
                        self.source,
                        parent_len,
                        &mut seg.key_nodes,
                        &mut seg.key,
                    );
                    seg.key.extend_from_slice(edges);
                    if !seg.produced.insert(seg.key.as_slice().into()) {
                        continue;
                    }
                }
                self.lower_minimum(last, new_len);
                self.budget.claim(1)?;
                self.push_segment(seg, Some(pid), parent_len, s, repeat);
            }
        }
        Ok(())
    }

    /// Lowers the Shortest minimum of `t` to `len` (no-op otherwise).
    fn lower_minimum(&mut self, t: NodeId, len: usize) {
        if let Some((seen, dist)) = &mut self.shortest {
            if seen.insert(t) || len < dist[t.index()] {
                dist[t.index()] = len;
            }
        }
    }

    /// Pushes segment `s` onto the chain `parent` (of `parent_len` edges) as
    /// one arena step per edge, and its boundary step to `next`.
    fn push_segment(
        &mut self,
        seg: &mut SegmentState,
        parent: Option<u32>,
        parent_len: usize,
        s: usize,
        repeat: bool,
    ) {
        let (targets, edges) = seg.index.segment(s);
        let mut chain = parent;
        for (i, (&t, &e)) in targets.iter().zip(edges).enumerate() {
            let id = self.arena.push(chain, e, t);
            seg.lens.push((parent_len + i + 1) as u32);
            if self.walk_unbounded {
                self.acyclic.push(!repeat);
            }
            chain = Some(id);
        }
        self.next.push(chain.expect("a pushed segment has an edge"));
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
        let mut exp = Expansion::chain(
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
        let mut exp = Expansion::chain(
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
