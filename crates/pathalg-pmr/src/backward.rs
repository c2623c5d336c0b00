//! The backward search of a scan or chain closure. A kernel over the
//! reverse CSRs of the hops, in reverse order, with the endpoint masks
//! swapped, emits every path of the forward closure turned around, grouped
//! by its last node. The drains here turn the paths back and put them in
//! the forward canonical order, so their caller sees what the forward
//! kernel over the same masks yields.

use crate::{canonical_ranks, owned_path, Pmr};
use pathalg_core::error::AlgebraError;
use pathalg_core::fasthash::FastMap;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::pathset::PathSet;
use pathalg_core::slice::{SliceCollector, SliceSpec};
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::ids::{EdgeId, NodeId};

impl Pmr {
    /// True when a backward kernel can evaluate the slice `spec`
    /// ([`Pmr::sliced_reversed`]) with an early stop as strong as the one
    /// [`Pmr::sliced`] has forward: γST with a per-group cap and no
    /// partition limit, whose per-source stop has a per-target twin. A γ∅
    /// or γS cap or a partition limit can end the forward stream after its
    /// first paths, which a search from the other end cannot tell.
    pub fn slices_backwards(spec: &SliceSpec) -> bool {
        spec.group_key == GroupKey::SourceTarget
            && spec.per_group.is_some()
            && spec.max_partitions.is_none()
    }

    /// Drains this backward kernel — the closure of the `forward` hops
    /// searched from its last node — into `visit` in the forward canonical
    /// order: each path is turned around and the answer sorted by the key
    /// `(First(p), |p|, ranks)` over the `forward` hops
    /// ([`canonical_ranks`]), so the whole answer is collected before the
    /// first path is visited. Returns the paths visited.
    pub fn for_each_path_reversed(
        &mut self,
        forward: &[CsrGraph],
        visit: impl FnMut(&[NodeId], &[EdgeId]),
    ) -> Result<usize, AlgebraError> {
        let mut turned = Turned::default();
        self.for_each_path(|nodes, edges| turned.push(nodes, edges, forward))?;
        Ok(turned.visit_sorted(visit))
    }

    /// [`Pmr::sliced`] over the forward kernel of the `forward` hops,
    /// evaluated on this backward one for a `spec` that
    /// [`Pmr::slices_backwards`] accepts. Within a group `(s, t)` the
    /// backward search emits paths by length, so the forward slice's first
    /// `k` of the group are among the paths no longer than its `k`-th
    /// emitted one: those are kept, sorted as [`Pmr::for_each_path_reversed`]
    /// sorts and fed to the same collector. Once every group the target can
    /// reach ([`Pmr::sliced`]'s reachability, searched backwards) holds `k`
    /// paths, the rest of the current level is drained and the target
    /// abandoned before its next level is expanded: every later path is
    /// longer than each group's `k`-th. That is the forward per-source stop,
    /// turned around.
    pub fn sliced_reversed(
        &mut self,
        spec: &SliceSpec,
        forward: &[CsrGraph],
    ) -> Result<PathSet, AlgebraError> {
        assert!(Self::slices_backwards(spec), "{spec:?} slices forward only");
        let cap = spec.per_group.unwrap_or(usize::MAX);
        let mut turned = Turned::default();
        let mut target = None;
        // The groups of the current target, keyed by their forward source.
        let mut groups: FastMap<NodeId, Group> = FastMap::default();
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
            if target != Some(emit.source) {
                target = Some(emit.source);
                groups.clear();
                let reachable = self.requirements_for(emit.source, spec);
                for (_, source) in &reachable {
                    let source = source.expect("a γST key names both ends");
                    groups.entry(source).or_default().reachable = true;
                }
                (unfilled, bounded) = (groups.len(), !groups.is_empty());
            }
            let group = groups.entry(emit.last).or_default();
            if group.paths >= cap && emit.len > group.kth_len {
                // Longer than the group's k-th path: the slice keeps none.
                self.counts.skipped += 1;
                continue;
            }
            group.paths += 1;
            if group.paths == cap {
                group.kth_len = emit.len;
                unfilled -= usize::from(group.reachable);
            }
            self.fill(&emit);
            turned.push(&self.nodes, &self.edges, forward);
        }
        let mut collector = SliceCollector::new(spec);
        turned.visit_sorted(|nodes, edges| {
            let key = collector.key(nodes[0], nodes[nodes.len() - 1]);
            self.offer(&mut collector, key, |_| owned_path(nodes, edges));
        });
        Ok(self.finish_slice(collector))
    }
}

/// One group `(s, t)` of [`Pmr::sliced_reversed`]'s current target `t`.
#[derive(Default)]
struct Group {
    /// Paths emitted into the group so far, those past the cap included.
    paths: usize,
    /// The length of the group's `k`-th path, once it has one.
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

    /// Visits the paths in the forward canonical order; returns how many.
    fn visit_sorted(self, mut visit: impl FnMut(&[NodeId], &[EdgeId])) -> usize {
        let Turned {
            nodes,
            edges,
            ranks,
            mut paths,
        } = self;
        let len = |word: u64| (word & u64::from(u32::MAX)) as usize;
        paths.sort_unstable_by_key(|&(word, ..)| word);
        for run in paths.chunk_by_mut(|a, b| a.0 == b.0) {
            let n = len(run[0].0);
            run.sort_unstable_by(|a, b| ranks[a.2..a.2 + n].cmp(&ranks[b.2..b.2 + n]));
        }
        for &(word, at, from) in &paths {
            visit(&nodes[at..=at + len(word)], &edges[from..from + len(word)]);
        }
        paths.len()
    }
}
