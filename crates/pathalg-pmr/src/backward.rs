//! The backward search of a scan or chain closure. A kernel over the
//! reverse CSRs of the hops, in reverse order, with the endpoint masks
//! swapped, emits every path of the forward closure turned around, grouped
//! by its last node. The drains here turn the paths back and put them in
//! the forward canonical order, so their caller sees what the forward
//! kernel over the same masks yields.

use crate::slice::SliceCollector;
use crate::{canonical_ranks, Pmr};
use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::FastMap;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::slice::SliceSpec;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::ids::{EdgeId, NodeId};

impl Pmr {
    /// True when a backward kernel can evaluate the slice `spec`
    /// ([`Pmr::for_each_reversed`]) with an early stop as strong as
    /// the one [`Pmr::for_each_sliced`] has forward: a slice keyed by
    /// `(s, t)` — γST, or γSTL's length groups — with no partition limit.
    /// Forward it either has no stop at all, or a per-source stop with a
    /// per-target twin. A γ∅ or γS cap or a partition limit can end the
    /// forward stream after its first paths, which a search from the other
    /// end cannot tell.
    pub fn slices_backwards(spec: &SliceSpec) -> bool {
        matches!(
            spec.group_key,
            GroupKey::SourceTarget | GroupKey::SourceTargetLength
        ) && spec.max_partitions.is_none()
    }

    /// Drains this backward kernel — the closure of the `forward` hops
    /// searched from its last node — into `visit` in the forward canonical
    /// order, as [`Pmr::for_each_path`] over the forward kernel would, or,
    /// given a `slice` that [`Pmr::slices_backwards`] accepts, as
    /// [`Pmr::for_each_sliced`] would. Each path is turned around and the
    /// answer sorted by the key `(First(p), |p|, ranks)` over the `forward`
    /// hops ([`canonical_ranks`]), so the whole answer is collected before
    /// the first path is visited.
    ///
    /// Within a group `(s, t)` the backward search emits paths by length,
    /// so under a slice's cap — `k` paths, or `k` lengths — the forward
    /// slice keeps only paths no longer than the group's `k`-th path or
    /// length: those are kept, sorted, and their rows fed to the forward
    /// slice's collector. Once every group the target can reach
    /// ([`Pmr::for_each_sliced`]'s reachability, searched backwards) has
    /// reached its cap, the rest of the current level is drained and the
    /// target abandoned before its next level is expanded: every later path
    /// is longer than each group's `k`-th. That is the forward per-source
    /// stop, turned around. Without a cap no target settles. Returns the
    /// paths visited.
    pub fn for_each_reversed(
        &mut self,
        slice: Option<&SliceSpec>,
        forward: &[CsrGraph],
        mut visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        if let Some(spec) = slice {
            assert!(Self::slices_backwards(spec), "{spec:?} slices forward only");
        }
        let cap = slice.and_then(|spec| spec.per_group.or(spec.max_groups));
        // Every path is a unit of a path cap; a new length is one of a
        // length cap.
        let length_cap = slice.is_some_and(|spec| spec.max_groups.is_some());
        let mut turned = Turned::default();
        let mut target = None;
        // The groups of the current target, keyed by their forward source,
        // and the sources that reach it.
        let mut groups: FastMap<NodeId, Group> = FastMap::default();
        let mut reachable = Vec::new();
        // Reachable groups still below the cap; once none is, the target is
        // settled: only the rest of the current level can still be kept.
        let (mut unfilled, mut bounded) = (0, false);
        loop {
            let settled = bounded && unfilled == 0;
            let Some(emit) = self.pull(!settled)? else {
                if !settled {
                    break;
                }
                self.skip_source();
                bounded = false;
                continue;
            };
            if let Some(cap) = cap {
                if target != Some(emit.source) {
                    target = Some(emit.source);
                    groups.clear();
                    self.requirements_for(emit.source, &mut reachable);
                    for &source in &reachable {
                        groups.entry(source).or_default().reachable = true;
                    }
                    (unfilled, bounded) = (groups.len(), !groups.is_empty());
                }
                let group = groups.entry(emit.last).or_default();
                if group.units >= cap && emit.len > group.kth_len {
                    // Longer than the group's k-th: the slice keeps none.
                    self.counts.skipped += 1;
                    continue;
                }
                let unit = !length_cap || group.units == 0 || emit.len != group.last_len;
                group.last_len = emit.len;
                if unit {
                    group.units += 1;
                    if group.units == cap {
                        group.kth_len = emit.len;
                        unfilled -= usize::from(group.reachable);
                    }
                }
            }
            self.fill(&emit);
            turned.push(&self.nodes, &self.edges, forward);
        }
        turned.sort();
        let Some(spec) = slice else {
            for row in 0..turned.len() {
                let (nodes, edges) = turned.path(row);
                visit(nodes, edges);
            }
            return Ok(turned.len());
        };
        let mut collector = SliceCollector::new(spec, self.expansion.node_count());
        let mut end_source = |collector: &mut SliceCollector| {
            collector.end_source(|row, _| {
                let (nodes, edges) = turned.path(row as usize);
                visit(nodes, edges);
            })
        };
        let mut source = None;
        for row in 0..turned.len() {
            let (nodes, edges) = turned.path(row);
            if source != Some(nodes[0]) {
                source = Some(nodes[0]);
                end_source(&mut collector);
            }
            let last = nodes[nodes.len() - 1];
            if collector
                .offer(last, edges.len() as u32, row as u32)
                .is_none()
            {
                self.counts.skipped += 1;
            }
        }
        end_source(&mut collector);
        Ok(self.finish_slice(&collector))
    }
}

/// One group `(s, t)` of [`Pmr::for_each_reversed`]'s current
/// target `t`.
#[derive(Default)]
struct Group {
    /// Units of the cap emitted into the group so far — paths, or distinct
    /// lengths — those past the cap included.
    units: usize,
    /// The length of the last path emitted into the group.
    last_len: u32,
    /// The length of the group's `k`-th unit, once it has one.
    kth_len: u32,
    /// Whether `t` reaches `s`: the target's stop waits for the group.
    reachable: bool,
}

/// Paths of a backward search, turned around, in flat node, edge and rank
/// columns, with one packed `(First(p), |p|)` sort word per path: the sort
/// compares ranks only within runs of equal words.
#[derive(Default)]
struct Turned {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
    ranks: Vec<u32>,
    /// Per path: its sort word, and where its nodes and its edges (and
    /// their ranks) start.
    paths: Vec<(u64, usize, usize)>,
}

impl Turned {
    /// Adds the path `(nodes, edges)` of a backward search, turned around.
    fn push(&mut self, nodes: &[NodeId], edges: &[EdgeId], forward: &[CsrGraph]) {
        let (at, from) = (self.nodes.len(), self.edges.len());
        self.nodes.extend(nodes.iter().rev());
        self.edges.extend(edges.iter().rev());
        let ranks = canonical_ranks(&self.nodes[at..], &self.edges[from..], forward);
        self.ranks.extend(ranks);
        let word = (u64::from(self.nodes[at].0) << 32) | edges.len() as u64;
        self.paths.push((word, at, from));
    }

    /// Puts the rows in the forward canonical order.
    fn sort(&mut self) {
        let ranks = &self.ranks;
        self.paths.sort_unstable_by_key(|&(word, ..)| word);
        for run in self.paths.chunk_by_mut(|a, b| a.0 == b.0) {
            let n = path_len(run[0].0);
            run.sort_unstable_by(|a, b| ranks[a.2..a.2 + n].cmp(&ranks[b.2..b.2 + n]));
        }
    }

    fn len(&self) -> usize {
        self.paths.len()
    }

    /// The nodes and edges of row `row`.
    fn path(&self, row: usize) -> (&[NodeId], &[EdgeId]) {
        let (word, at, from) = self.paths[row];
        let len = path_len(word);
        (&self.nodes[at..=at + len], &self.edges[from..from + len])
    }
}

/// The path length packed in a sort word.
fn path_len(word: u64) -> usize {
    (word & u64::from(u32::MAX)) as usize
}
