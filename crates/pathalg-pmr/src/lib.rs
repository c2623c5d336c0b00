//! # pathalg-pmr — compact path-multiset representations with lazy top-k
//! enumeration
//!
//! Every materialised evaluation of the recursive operator ϕ pays for the
//! *full* path multiset even when the query keeps almost none of it: on
//! cyclic graphs under `WALK`/`TRAIL` the multiset is exponential in the
//! length bound while a `π(*,*,k)`-sliced answer is tiny. Following the
//! PathFinder line of work, this crate represents the multiset *implicitly*
//! as a step arena over one per-source, level-ordered search — the engine's
//! only implementation of ϕ — and enumerates paths from it **on demand, in
//! canonical order**:
//!
//! * [`Pmr::from_shared_csr`] and [`Pmr::from_shared_join`] — the
//!   `ϕ(σℓ1(E) ⋈ … ⋈ σℓk(E))` form, a label scan being the one-hop chain:
//!   lazy expansion over label-restricted CSRs (the graph's stored ones,
//!   [`pathalg_graph::graph::PropertyGraph::label_csr`], shared rather than
//!   built per kernel); the base is never materialised.
//! * [`Pmr::from_base`] — ϕ over any other base, which the caller has
//!   evaluated: its admitted paths are indexed by first node and the same
//!   kernel (the `join` module) appends them as whole segments.
//! * [`Pmr::top_k`] / [`Pmr::enumerate_all`] — pull as
//!   much as you need; `top_k(k)` obeys the law
//!   `top_k(k) == enumerate().take(k)` while expanding only what those `k`
//!   paths require.
//! * [`Pmr::for_each_path`] — the visitor drain: each path's node and edge
//!   sequences in two reused buffers, no `Path` built; `enumerate_all` is
//!   this loop collecting into a `PathSet`.
//! * [`Pmr::for_each_sliced`] — evaluates a recognised γ/τ/π pipeline
//!   ([`pathalg_core::slice`]) into the same visitor. The slice collector
//!   keeps an arena step and a length per kept path, keyed by target within
//!   the current source, and visits a source's kept paths in group order
//!   when the source ends, so no `Path` is built and memory grows with one
//!   source's answer. Per-group limits are pushed into the enumeration and,
//!   over a scan or chain, a node-level reachability analysis stops each
//!   source as soon as its contribution to every kept group is complete.
//!   [`Pmr::sliced`] is this visitor collected into a `PathSet`.
//! * [`Pmr::for_each_reversed`] — a kernel over the reversed hops searches
//!   a scan or chain closure from its last node; this puts its paths back
//!   in the forward canonical order, sorted rows of one buffer, and a slice
//!   feeds those rows to the same collector, with the per-source stop
//!   turned into a per-target one.
//!
//! Paths are stored as parent-pointer arena steps — `O(1)` words per path
//! instead of `O(len)` — and a discovered-but-skipped path is never
//! materialised at all. [`canonical_order`] states the emission order as a
//! sort key, so a test can put any reference evaluation in it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod backward;
mod join;
mod segments;
mod slice;

use crate::join::{Expansion, ReachInfo};
use crate::segments::SegmentIndex;
use crate::slice::{SliceCollector, SliceState};
use pathalg_core::budget::CancelToken;
use pathalg_core::error::AlgebraError;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::slice::SliceSpec;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use std::sync::Arc;

/// A compact, lazily enumerable path-multiset representation (see the crate
/// docs). It owns (or shares) its CSR snapshots or its segment index, so it
/// borrows no graph.
///
/// Every pull yields paths in *canonical order*: sources in ascending node
/// order, within one source level by level — a level being a count of base
/// segments, so on a scan or chain path length is non-decreasing per source
/// — and within a level each parent's extensions in turn, in segment order
/// (the lexicographic hop-adjacency order of a chain, base order for a
/// materialised base). [`canonical_order`] states this as a sort key for a
/// scan or chain. [`Pmr::sliced`] and the engine's lazy pipeline rely on it
/// to reproduce the materialised operators byte for byte while stopping
/// early.
/// Pulls are fallible: the bounds that abort a materialised evaluation
/// ([`AlgebraError::RecursionLimitExceeded`],
/// [`AlgebraError::ResultLimitExceeded`]) surface when the enumeration
/// reaches them, and a consumer that stops before that region never sees
/// the error.
pub struct Pmr {
    expansion: Box<Expansion>,
    /// Per-node target mask of the endpoint-σ pushdown: when set, paths whose
    /// last node is unmarked are skipped at emission (never reconstructed)
    /// while the expansion still runs *through* them.
    target_mask: Option<Vec<bool>>,
    /// Deterministic per-enumeration event tallies ([`Pmr::work_counters`]).
    counts: LocalCounts,
    /// The reconstruction buffers every pulled path is written into (node
    /// and edge sequences), reused across pulls: once they hold the longest
    /// path, reconstruction allocates nothing.
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

/// The event tallies a `Pmr` tracks itself; everything else in
/// [`WorkCounters`] (arena steps, base segments, budget claims) is read off
/// the expansion state when [`Pmr::work_counters`] assembles the totals.
#[derive(Clone, Copy, Debug, Default)]
struct LocalCounts {
    emitted: u64,
    skipped: u64,
    abandoned: u64,
    partitions: u64,
    kept: u64,
}

/// Endpoint restrictions pushed down from `σ_first`/`σ_last` predicates
/// ([`pathalg_core::slice::SlicePlan::filter`]): per-node keep masks for the
/// first and last node of every enumerated path. A `None` side is
/// unrestricted.
#[derive(Clone, Debug, Default)]
pub struct EndpointFilter {
    /// Nodes admissible as `First(p)` — unmarked sources are never expanded.
    pub sources: Option<Vec<bool>>,
    /// Nodes admissible as `Last(p)` — paths ending elsewhere are skipped
    /// without reconstruction.
    pub targets: Option<Vec<bool>>,
}

/// One emitted element, before path reconstruction: the arena step that
/// completes it, with its path length (lengths are threaded, not stored per
/// step — see [`arena`]).
#[derive(Clone, Copy, Debug)]
struct Emit {
    source: NodeId,
    last: NodeId,
    step: u32,
    len: u32,
}

impl Pmr {
    /// PMR of `ϕ_semantics` over the edge set of a shared CSR snapshot (every
    /// edge as a length-1 base path) — a label scan is `graph.label_csr(ℓ)`.
    /// The one-hop chain of [`Pmr::from_shared_join`]; a [`CsrGraph`] clone
    /// shares its columns, so no edge is copied.
    pub fn from_shared_csr(
        csr: Arc<CsrGraph>,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Pmr {
        Self::from_shared_join(Arc::new([Arc::unwrap_or_clone(csr)]), semantics, config)
    }

    /// PMR of `ϕ_semantics(σℓ1(E) ⋈ … ⋈ σℓk(E))` over *shared* per-hop CSR
    /// snapshots (every base path walks one edge of each hop in order) —
    /// the lazy endpoint-keyed join of the per-label scans (see the `join`
    /// module): neither join side, the join result, nor the closure is ever
    /// materialised, and the expansion walks the caller's `Arc`ed hop list
    /// instead of a copy of it.
    pub fn from_shared_join(
        hops: Arc<[CsrGraph]>,
        semantics: PathSemantics,
        config: RecursionConfig,
    ) -> Pmr {
        Self::with_expansion(Expansion::chain(hops, semantics, config))
    }

    /// PMR of `ϕ_semantics(base)` over a base the caller has materialised —
    /// anything that is not a label scan or chain. The base paths the
    /// semantics admits within the length bound are indexed by first node,
    /// in base order, and the kernel appends them as whole segments, each
    /// checked edge by edge like a chain hop.
    pub fn from_base(base: &PathSet, semantics: PathSemantics, config: RecursionConfig) -> Pmr {
        let index = SegmentIndex::build(base, semantics, &config);
        Self::with_expansion(Expansion::segments(index, semantics, config))
    }

    fn with_expansion(expansion: Expansion) -> Pmr {
        Pmr {
            expansion: Box::new(expansion),
            target_mask: None,
            counts: LocalCounts::default(),
            nodes: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// Pushes an endpoint-σ down into the enumeration: unmarked sources are
    /// dropped from the expansion schedule entirely, and paths ending at an
    /// unmarked target are skipped at emission without reconstruction. Must
    /// be applied before the first pull; the resulting stream is exactly the
    /// unfiltered stream with the σ applied — same paths, same order.
    pub fn restrict_endpoints(&mut self, filter: EndpointFilter) {
        if let Some(keep) = &filter.sources {
            self.expansion.restrict_sources(keep);
        }
        self.target_mask = filter.targets;
    }

    /// Installs a shared cancellation token on the underlying expansion:
    /// every subsequent pull polls the token at its level boundary and
    /// aborts with [`AlgebraError::Cancelled`] /
    /// [`AlgebraError::DeadlineExceeded`] once it fires.
    pub fn share_cancel(&mut self, cancel: Arc<CancelToken>) {
        self.expansion.share_cancel(cancel);
    }

    fn target_admits(&self, last: NodeId) -> bool {
        self.target_mask
            .as_ref()
            .is_none_or(|mask| mask.get(last.index()) == Some(&true))
    }

    fn next_emit(&mut self) -> Result<Option<Emit>, AlgebraError> {
        self.pull(true)
    }

    /// The next emitted path, expanding the next level or source when the
    /// queue runs dry only if `grow`; otherwise `None` ends the level.
    fn pull(&mut self, grow: bool) -> Result<Option<Emit>, AlgebraError> {
        loop {
            let e = &mut self.expansion;
            let next = if grow { e.next_id()? } else { e.next_queued() };
            let emit = next.map(|(step, source, len)| Emit {
                source,
                // An empty base path owns no step.
                last: if len == 0 {
                    source
                } else {
                    e.arena.target(step)
                },
                step,
                len,
            });
            match emit {
                Some(e) if !self.target_admits(e.last) => {
                    self.counts.skipped += 1;
                    continue;
                }
                other => {
                    if other.is_some() {
                        self.counts.emitted += 1;
                    }
                    return Ok(other);
                }
            }
        }
    }

    /// Reconstructs `emit` into the reused path buffers.
    fn fill(&mut self, emit: &Emit) {
        self.expansion.arena.fill_chain(
            emit.step,
            emit.source,
            emit.len as usize,
            &mut self.nodes,
            &mut self.edges,
        );
    }

    /// Reconstructs `emit` as an owned [`Path`].
    fn realize(&mut self, emit: &Emit) -> Path {
        self.fill(emit);
        owned_path(&self.nodes, &self.edges)
    }

    fn skip_source(&mut self) {
        self.counts.abandoned += 1;
        self.expansion.skip_source();
    }

    /// Number of arena steps allocated so far — the work actually performed.
    /// A sliced or top-k consumer leaves this far below the multiset size.
    pub fn steps_generated(&self) -> usize {
        self.expansion.steps_generated()
    }

    /// Number of level-0 base paths generated so far — the slice of the base
    /// relation the expansion actually touched: join segments for a chain,
    /// single edges for a scan (the expanded sources' admitted out-edges).
    pub fn base_segments(&self) -> usize {
        self.expansion.base_segments()
    }

    /// Bytes currently backing the step arena. The arena only grows, so this
    /// is also its peak footprint (`arena_bytes_peak`).
    pub fn arena_bytes(&self) -> usize {
        self.expansion.arena_bytes()
    }

    /// Reserves arena capacity for `steps` further steps up front, so a
    /// drain whose step count is known (or bounded) performs no mid-flight
    /// arena reallocation — see the zero-steady-state-allocation contract in
    /// the crate docs.
    pub fn reserve_steps(&mut self, steps: usize) {
        self.expansion.arena.reserve(steps);
    }

    /// The deterministic work totals of everything pulled from this PMR so
    /// far: arena steps and base segments off the expansion state, emission
    /// and skip tallies from the pull loop, per-source abandonments, budget
    /// claims, and — after a [`Pmr::for_each_sliced`] run — the collector's
    /// partition and kept-path counts. A path filtered before realisation
    /// (target-mask miss, or a sliced path the collector provably would not
    /// keep) counts as skipped; a sliced would-not-keep path was also
    /// emitted by the expansion first, so `emitted` is the expansion-side
    /// tally and `kept` the collector-side one.
    pub fn work_counters(&self) -> WorkCounters {
        WorkCounters {
            arena_steps: self.steps_generated() as u64,
            base_segments: self.base_segments() as u64,
            paths_emitted: self.counts.emitted,
            paths_skipped: self.counts.skipped,
            sources_abandoned: self.counts.abandoned,
            budget_claimed: self.expansion.budget_count() as u64,
            partitions_opened: self.counts.partitions,
            paths_kept: self.counts.kept,
            arena_bytes_peak: self.arena_bytes() as u64,
        }
    }

    /// The first `k` paths of the enumeration — `enumerate().take(k)`,
    /// computed without expanding past what those `k` paths require.
    pub fn top_k(&mut self, k: usize) -> Result<PathSet, AlgebraError> {
        let mut paths = Vec::new();
        while paths.len() < k {
            let Some(emit) = self.next_emit()? else {
                break;
            };
            paths.push(self.realize(&emit));
        }
        Ok(PathSet::from_distinct(paths))
    }

    /// Drains the whole enumeration into a materialised [`PathSet`], in
    /// canonical order. The kernel never emits a path twice, so no path is
    /// hashed ([`PathSet::from_distinct`]).
    pub fn enumerate_all(&mut self) -> Result<PathSet, AlgebraError> {
        let mut paths = Vec::new();
        self.for_each_path(|nodes, edges| paths.push(owned_path(nodes, edges)))?;
        Ok(PathSet::from_distinct(paths))
    }

    /// Drains the rest of the enumeration into a visitor, in canonical
    /// order: `visit(nodes, edges)` sees each path's node and edge sequences
    /// (`nodes.len() == edges.len() + 1`) in the PMR's two reused
    /// reconstruction buffers, valid for that call only. No [`Path`] and no
    /// [`PathSet`] is built, so rendering straight from here costs
    /// O(path length) per answer. With the scratch and reconstruction
    /// buffers warm and the arena pre-reserved the drain itself performs no
    /// heap allocation (pinned by the allocation-counter test). Returns the
    /// paths visited.
    pub fn for_each_path(
        &mut self,
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let mut n = 0usize;
        while let Some(emit) = self.next_emit()? {
            self.fill(&emit);
            visit(&self.nodes, &self.edges);
            n += 1;
        }
        Ok(n)
    }

    /// Drains the rest of the enumeration, counting paths without
    /// reconstructing a single one — the cardinality of
    /// [`Pmr::enumerate_all`] at arena cost. With the scratch buffers warm
    /// and the arena pre-reserved ([`Pmr::reserve_steps`]) the drain performs
    /// no heap allocation (pinned by the allocation-counter test).
    pub fn count_all(&mut self) -> Result<usize, AlgebraError> {
        let mut n = 0usize;
        while self.next_emit()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Counts up to `max` further paths without reconstructing any — the
    /// bounded form of [`Pmr::count_all`] for enumerations too large to
    /// drain (the million-scale benches and the allocation-counter test
    /// pull a fixed number of emits and stop).
    pub fn count_batch(&mut self, max: usize) -> Result<usize, AlgebraError> {
        let mut n = 0usize;
        while n < max && self.next_emit()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    /// Evaluates a recognised γ/τ/π pipeline ([`pathalg_core::slice`]) over
    /// this multiset with the limits of `spec` pushed into the enumeration,
    /// into a visitor like [`Pmr::for_each_path`]'s: byte-identical, path
    /// for path and in order, to materialising [`Pmr::enumerate_all`] and
    /// running the γ/τ/π operators, but:
    ///
    /// * no [`Path`] is built: a kept path is an arena step and a length,
    ///   and a source's kept paths are reconstructed and visited in group
    ///   order when the source ends — the arena only grows, so the steps
    ///   stay valid;
    /// * paths beyond a group's cap are skipped without reconstruction,
    /// * a source is abandoned as soon as every group it can still
    ///   contribute to (computed by a node-level reachability BFS) holds its
    ///   `per_group` quota, and
    /// * once the partition limit is reached, sources that can only open new
    ///   partitions are never expanded at all — and a source caught
    ///   mid-expansion by the closing limit switches to per-partition
    ///   accounting (only its already-opened groups must fill: the sharp
    ///   stop).
    ///
    /// Groups of lengths (`max_groups`) rely on each source's paths coming
    /// length by length, which holds over a scan or chain. Returns the paths
    /// visited.
    pub fn for_each_sliced(
        &mut self,
        spec: &SliceSpec,
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let mut collector = SliceCollector::new(spec, self.expansion.node_count());
        let source_partitioned = spec.group_key.partitions_by_source();
        let reach_stop = spec.group_key == GroupKey::SourceTarget && spec.per_group.is_some();
        let mut cur_source: Option<NodeId> = None;
        // The targets whose groups the current source must fill before the
        // reachability stop may skip it, and the groups it has opened — the
        // only ones that must fill before the sharp (partition-limit-closed)
        // stop may.
        let (mut required, mut opened) = (Vec::new(), Vec::new());
        // How many leading groups of `required` / `opened` are full. A full
        // group never empties, so each cursor only moves forward and every
        // group is found full once, not once per emitted path.
        let (mut required_full, mut opened_full) = (0, 0);
        let advance = |cursor: &mut usize, targets: &[NodeId], c: &SliceCollector| {
            while targets.get(*cursor).is_some_and(|&t| c.is_full(t)) {
                *cursor += 1;
            }
            *cursor == targets.len()
        };

        while let Some(emit) = self.next_emit()? {
            if cur_source != Some(emit.source) {
                if let Some(source) = cur_source {
                    self.visit_kept(&mut collector, source, &mut visit);
                }
                cur_source = Some(emit.source);
                // Every path of a fresh source opens a fresh partition under
                // source-partitioned keys; once the partition limit is
                // reached nothing from this or any later source can be kept.
                if source_partitioned && !collector.accepts_new_partition() {
                    break;
                }
                if reach_stop {
                    self.requirements_for(emit.source, &mut required);
                }
                opened.clear();
                (required_full, opened_full) = (0, 0);
            }
            let partitions = collector.partition_count();
            match collector.offer(emit.last, emit.len, emit.step) {
                None => self.counts.skipped += 1,
                Some(state) => {
                    if collector.partition_count() > partitions {
                        opened.push(emit.last);
                    }
                    if state == SliceState::Complete {
                        break;
                    }
                }
            }
            if spec.per_group.is_some() {
                let source_done = match spec.group_key {
                    GroupKey::Source => collector.is_full(emit.last),
                    GroupKey::SourceTarget => {
                        if !collector.accepts_new_partition() {
                            // Per-partition accounting: the partition limit is
                            // closed, so no further group of this source can
                            // be admitted — only the already-opened ones need
                            // to fill, not every reachable one.
                            advance(&mut opened_full, &opened, &collector)
                        } else {
                            !required.is_empty()
                                && advance(&mut required_full, &required, &collector)
                        }
                    }
                    _ => false,
                };
                if source_done {
                    self.skip_source();
                }
            }
        }
        if let Some(source) = cur_source {
            self.visit_kept(&mut collector, source, &mut visit);
        }
        Ok(self.finish_slice(&collector))
    }

    /// [`Pmr::for_each_sliced`] collected into a [`PathSet`]: the kept set
    /// of `π(τ?(γψ(ϕ(…))))`, partitions in first-occurrence order and paths
    /// within each group in canonical order — exactly the output order of
    /// Algorithm 1 on these pipeline shapes.
    pub fn sliced(&mut self, spec: &SliceSpec) -> Result<PathSet, AlgebraError> {
        let mut paths = Vec::new();
        self.for_each_sliced(spec, |nodes, edges| paths.push(owned_path(nodes, edges)))?;
        Ok(PathSet::from_distinct(paths))
    }

    /// Ends `source` in `collector`: reconstructs its kept arena steps in
    /// group order into the reused buffers and visits them.
    fn visit_kept(
        &mut self,
        collector: &mut SliceCollector,
        source: NodeId,
        visit: &mut impl FnMut(&[NodeId], &[EdgeId]),
    ) {
        let (arena, nodes, edges) = (&self.expansion.arena, &mut self.nodes, &mut self.edges);
        collector.end_source(|step, len| {
            arena.fill_chain(step, source, len as usize, nodes, edges);
            visit(nodes, edges);
        });
    }

    /// Records a finished slice's partition and kept-path tallies for
    /// [`Pmr::work_counters`]; returns the paths kept.
    fn finish_slice(&mut self, collector: &SliceCollector) -> usize {
        self.counts.partitions = collector.partition_count() as u64;
        self.counts.kept = collector.kept() as u64;
        collector.kept()
    }

    /// Overwrites `out` with the targets whose groups source `s` can ever
    /// fill, for the reachability-based source stop — left empty for
    /// Shortest (whose per-source expansion saturates on its own), for a
    /// materialised base, and under a bound of one segment (the source's
    /// one level is expanded before it emits, so a stop would save no
    /// expansion and the BFS is not run). Targets outside the pushed target
    /// mask are excluded: they can never receive a path, so waiting for
    /// them would block the stop forever.
    fn requirements_for(&mut self, source: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let semantics = self.expansion.semantics();
        if semantics == PathSemantics::Shortest || self.expansion.single_level() {
            return;
        }
        let Some(ReachInfo { min_closed }) = self.expansion.reachability(source, out) else {
            return;
        };
        out.retain(|&t| self.target_admits(t));
        if semantics != PathSemantics::Acyclic && min_closed.is_some() && self.target_admits(source)
        {
            out.push(source);
        }
    }
}

/// The canonical order of a scan or chain closure (see [`Pmr`]) as a sort:
/// `paths` — the closure of `ϕ(hops[0] ⋈ … ⋈ hops[k−1])` computed any way,
/// e.g. by the reference fixpoint — reordered by the key `(First(p), |p|,
/// ranks)` of [`canonical_ranks`]. A path splits into hop edges in only one
/// way, so the key is total, and it orders a closure exactly as a drain of
/// the same hops emits it.
pub fn canonical_order(paths: &PathSet, hops: &[CsrGraph]) -> PathSet {
    let mut ordered: Vec<&Path> = paths.iter().collect();
    ordered.sort_by_cached_key(|p| {
        let ranks: Vec<u32> = canonical_ranks(p.nodes(), p.edges(), hops).collect();
        (p.first(), p.len(), ranks)
    });
    PathSet::from_distinct(ordered.into_iter().cloned().collect())
}

/// The ranks of the edges of the path `(nodes, edges)` of a scan or chain
/// closure over `hops`, the last part of its canonical sort key (see
/// [`canonical_order`]): the rank of the `i`-th edge is its position in its
/// tail node's adjacency within `hops[i mod k]`, the CSR it was drawn from.
pub fn canonical_ranks<'a>(
    nodes: &'a [NodeId],
    edges: &'a [EdgeId],
    hops: &'a [CsrGraph],
) -> impl Iterator<Item = u32> + 'a {
    edges.iter().enumerate().map(move |(i, e)| {
        let (_, out) = hops[i % hops.len()].neighbor_slices(nodes[i]);
        out.iter()
            .position(|x| x == e)
            .expect("every edge of the closure is in its hop's CSR") as u32
    })
}

/// An owned [`Path`] over copies of a reconstruction buffer's sequences.
fn owned_path(nodes: &[NodeId], edges: &[EdgeId]) -> Path {
    Path::from_sequence(nodes.to_vec(), edges.to_vec(), None)
        .expect("arena chains are well-formed paths")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::condition::Condition;
    use pathalg_core::ops::group_by::group_by;
    use pathalg_core::ops::recursive::recursive;
    use pathalg_core::ops::selection::selection;
    use pathalg_graph::fixtures::figure1::Figure1;
    use pathalg_graph::generator::structured::{chain_graph, complete_graph, cycle_graph};
    use pathalg_graph::graph::PropertyGraph;

    /// The kernel over `graph`'s stored CSR of `label`.
    fn scan(
        graph: &PropertyGraph,
        label: &str,
        semantics: PathSemantics,
        cfg: RecursionConfig,
    ) -> Pmr {
        Pmr::from_shared_csr(Arc::new(graph.label_csr(label).clone()), semantics, cfg)
    }

    fn knows_closure(f: &Figure1, semantics: PathSemantics) -> PathSet {
        let base = selection(
            &f.graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&f.graph),
        );
        recursive(semantics, &base, &RecursionConfig::default()).unwrap()
    }

    #[test]
    fn csr_enumeration_matches_the_fixpoint_as_a_set() {
        let f = Figure1::new();
        for semantics in [
            PathSemantics::Trail,
            PathSemantics::Acyclic,
            PathSemantics::Simple,
            PathSemantics::Shortest,
        ] {
            let expected = knows_closure(&f, semantics);
            let mut pmr = scan(&f.graph, "Knows", semantics, RecursionConfig::default());
            let out = pmr.enumerate_all().unwrap();
            assert_eq!(out, expected, "{semantics:?}");
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_the_enumeration() {
        let f = Figure1::new();
        let cfg = RecursionConfig::default();
        let mut full = scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
        let all = full.enumerate_all().unwrap();
        for k in [0, 1, 3, 7, 100] {
            let mut pmr = scan(&f.graph, "Knows", PathSemantics::Trail, cfg);
            let top = pmr.top_k(k).unwrap();
            let expected: Vec<_> = all.iter().take(k).cloned().collect();
            assert_eq!(top.as_slice(), expected.as_slice(), "k = {k}");
        }
    }

    #[test]
    fn top_k_expands_less_than_the_full_multiset() {
        // Bounded walks on a complete graph: the closure is exponential in
        // the bound, the first path needs one level of one source.
        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        let mut full = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        let total = full.enumerate_all().unwrap().len();
        let mut lazy = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        lazy.top_k(5).unwrap();
        assert!(
            lazy.steps_generated() * 10 < total,
            "top-5 expanded {} steps against a {}-path multiset",
            lazy.steps_generated(),
            total
        );
    }

    #[test]
    fn sliced_equals_the_materialised_pipeline_and_stops_early() {
        use pathalg_core::ops::order_by::{order_by, OrderKey};
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        let mut full = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        let materialised = full.enumerate_all().unwrap();
        let expected = projection(
            &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
            &order_by(
                OrderKey::Path,
                &group_by(GroupKey::SourceTarget, &materialised),
            ),
        );

        let spec = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(1),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: true,
        };
        let mut lazy = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        let out = lazy.sliced(&spec).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(
            lazy.steps_generated() * 10 < full.steps_generated(),
            "sliced evaluation expanded {} of {} steps",
            lazy.steps_generated(),
            full.steps_generated()
        );
    }

    #[test]
    fn sliced_handles_closed_groups_on_cycles() {
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        // Every (s, s) pair of a directed cycle has exactly one simple closed
        // path; the reachability stop must wait for it.
        let g = cycle_graph(5, "a");
        let cfg = RecursionConfig::default();
        for semantics in [PathSemantics::Trail, PathSemantics::Simple] {
            let mut full =
                Pmr::from_shared_csr(Arc::new(CsrGraph::with_label(&g, "a")), semantics, cfg);
            let materialised = full.enumerate_all().unwrap();
            let expected = projection(
                &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                &group_by(GroupKey::SourceTarget, &materialised),
            );
            let spec = SliceSpec {
                group_key: GroupKey::SourceTarget,
                per_group: Some(1),
                max_partitions: None,
                max_groups: None,
                ordered_by_length: false,
            };
            let mut lazy =
                Pmr::from_shared_csr(Arc::new(CsrGraph::with_label(&g, "a")), semantics, cfg);
            let out = lazy.sliced(&spec).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "{semantics:?}");
            // 5×5 ordered pairs, all connected on a cycle.
            assert_eq!(out.len(), 25, "{semantics:?}");
        }
    }

    /// ALL SHORTEST WALK's `π(*,*,*)(γST)` regroups each source's paths by
    /// target, and `π(*,k,*)(τG(γSTL))` keeps each pair's first k lengths:
    /// both as the materialised operators order them.
    #[test]
    fn regrouping_slices_equal_the_materialised_pipeline() {
        use pathalg_core::ops::order_by::{order_by, OrderKey};
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(4, "a");
        let cfg = RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        };
        let kernel = || {
            Pmr::from_shared_csr(
                Arc::new(CsrGraph::with_label(&g, "a")),
                PathSemantics::Trail,
                cfg,
            )
        };
        let closure = kernel().enumerate_all().unwrap();
        let regrouped = projection(
            &ProjectionSpec::all(),
            &group_by(GroupKey::SourceTarget, &closure),
        );
        let spec = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: None,
            max_partitions: None,
            max_groups: None,
            ordered_by_length: false,
        };
        let out = kernel().sliced(&spec).unwrap();
        assert_eq!(out.as_slice(), regrouped.as_slice());
        assert_ne!(out.as_slice(), closure.as_slice(), "the order changed");
        for k in [1, 2] {
            let expected = projection(
                &ProjectionSpec::new(Take::All, Take::Count(k), Take::All),
                &order_by(
                    OrderKey::Group,
                    &group_by(GroupKey::SourceTargetLength, &closure),
                ),
            );
            let spec = SliceSpec {
                group_key: GroupKey::SourceTargetLength,
                max_groups: Some(k),
                ordered_by_length: true,
                ..spec
            };
            let out = kernel().sliced(&spec).unwrap();
            assert_eq!(out.as_slice(), expected.as_slice(), "k = {k}");
        }
    }

    /// Under a bound of one segment every path of a source is on its first
    /// level, so the γST stop has nothing to save: the reachability BFS is
    /// not run and its state stays unallocated, and the slice is unchanged.
    #[test]
    fn one_segment_bounds_skip_the_reachability_search() {
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(5, "a");
        let csr = CsrGraph::with_label(&g, "a");
        let spec = SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(1),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: false,
        };
        for hops in [1, 2] {
            for max_length in [hops, 2 * hops - 1, 2 * hops] {
                let cfg = RecursionConfig {
                    max_length: Some(max_length),
                    max_paths: None,
                };
                let kernel = || {
                    let chain: Arc<[CsrGraph]> = vec![csr.clone(); hops].into();
                    Pmr::from_shared_join(chain, PathSemantics::Trail, cfg)
                };
                let expected = projection(
                    &ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
                    &group_by(GroupKey::SourceTarget, &kernel().enumerate_all().unwrap()),
                );
                let mut lazy = kernel();
                let out = lazy.sliced(&spec).unwrap();
                assert_eq!(out.as_slice(), expected.as_slice(), "{hops} {max_length}");
                assert_eq!(
                    lazy.expansion.reachability_searched(),
                    max_length >= 2 * hops,
                    "{hops} {max_length}"
                );
            }
        }
    }

    #[test]
    fn partition_limit_stops_whole_sources() {
        use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};

        let g = complete_graph(6, "a");
        let cfg = RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        };
        let mut full = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        let materialised = full.enumerate_all().unwrap();
        let expected = projection(
            &ProjectionSpec::new(Take::Count(2), Take::All, Take::Count(2)),
            &group_by(GroupKey::Source, &materialised),
        );
        let spec = SliceSpec {
            group_key: GroupKey::Source,
            per_group: Some(2),
            max_partitions: Some(2),
            max_groups: None,
            ordered_by_length: false,
        };
        let mut lazy = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        let out = lazy.sliced(&spec).unwrap();
        assert_eq!(out.as_slice(), expected.as_slice());
        assert!(lazy.steps_generated() * 20 < full.steps_generated());
    }

    #[test]
    fn walk_errors_mirror_the_materialised_evaluation() {
        let g = cycle_graph(3, "a");
        let cfg = RecursionConfig::unbounded();
        let mut pmr = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&g, "a")),
            PathSemantics::Walk,
            cfg,
        );
        assert!(matches!(
            pmr.enumerate_all(),
            Err(AlgebraError::RecursionLimitExceeded { .. })
        ));
        // On a DAG the unbounded walk closure is finite and enumerable.
        let dag = chain_graph(6, "a");
        let mut pmr = Pmr::from_shared_csr(
            Arc::new(CsrGraph::with_label(&dag, "a")),
            PathSemantics::Walk,
            cfg,
        );
        assert_eq!(pmr.enumerate_all().unwrap().len(), 15);
    }

    #[test]
    fn max_paths_is_enforced_on_full_drains() {
        let f = Figure1::new();
        let cfg = RecursionConfig {
            max_length: Some(10),
            max_paths: Some(4),
        };
        let mut pmr = scan(&f.graph, "Knows", PathSemantics::Walk, cfg);
        assert_eq!(
            pmr.enumerate_all(),
            Err(AlgebraError::ResultLimitExceeded { limit: 4 })
        );
    }

    #[test]
    fn empty_label_yields_an_empty_enumeration() {
        let f = Figure1::new();
        let mut pmr = scan(
            &f.graph,
            "NoSuchLabel",
            PathSemantics::Trail,
            RecursionConfig::default(),
        );
        assert!(pmr.enumerate_all().unwrap().is_empty());
        assert_eq!(pmr.steps_generated(), 0);
    }
}
