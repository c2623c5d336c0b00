//! The compact step arena: a prefix-sharing forest over expansion steps.
//!
//! A path multiset produced by ϕ has massive prefix redundancy — every
//! admitted path's proper prefixes are themselves admitted paths (trails,
//! acyclic, simple and length-bounded walks are all prefix-closed). The
//! arena exploits this: each discovered path is a single *step* — a parent
//! pointer, the one new edge and its target node — so a multiset of `N`
//! paths costs `O(N)` machine words instead of the `O(N · avg_len)` a
//! materialised [`pathalg_core::pathset::PathSet`] pays. Full
//! [`pathalg_core::path::Path`] values are reconstructed only for the paths
//! a consumer actually pulls.
//!
//! # Layout
//!
//! Steps are stored structure-of-arrays in three parallel `u32`-indexed
//! columns — parent, edge, target — at 12 bytes per step, down from the 16
//! bytes of the former `{parent, len, edge, target}` array-of-structs. The
//! length column is gone entirely: expansion is level-synchronous, so every
//! caller already knows the length of the chains it processes and threads it
//! alongside the step id. The root sentinel is an explicit 4-byte niche:
//! parents are `Option<NonZeroU32>` holding `index + 1`, so `None` (the
//! all-zero bit pattern) means "extends the bare source node" and the column
//! stays at 4 bytes per step.
//!
//! The split matters for the admission walks, which are the hot loops of
//! Trail/Acyclic/Simple expansion: [`StepArena::chain_contains_edge`]
//! touches only the parent and edge columns (8 bytes per visited step) and
//! [`StepArena::chain_targets_contain`] only parent and target — the
//! irrelevant columns never enter the cache.

#[cfg(test)]
use pathalg_core::path::Path;
use pathalg_graph::ids::{EdgeId, NodeId};
use std::num::NonZeroU32;

/// A growable structure-of-arrays arena of expansion steps (see the module
/// docs for the layout).
#[derive(Clone, Debug, Default)]
pub(crate) struct StepArena {
    /// `index + 1` of the parent step; `None` is the root sentinel ("extends
    /// the bare source node").
    parents: Vec<Option<NonZeroU32>>,
    /// The edge appended by each step.
    edges: Vec<EdgeId>,
    /// `Last(p)` of the path each step completes.
    targets: Vec<NodeId>,
}

impl StepArena {
    /// Appends a step and returns its index.
    #[inline]
    pub fn push(&mut self, parent: Option<u32>, edge: EdgeId, target: NodeId) -> u32 {
        let id = self.parents.len() as u32;
        self.parents.push(
            parent.map(|p| NonZeroU32::new(p + 1).expect("arena indexes stay below u32::MAX")),
        );
        self.edges.push(edge);
        self.targets.push(target);
        id
    }

    /// The parent step of `id`, or `None` for a root step (niche-decode
    /// check; the hot chain walks read the column directly).
    #[cfg(test)]
    pub fn parent(&self, id: u32) -> Option<u32> {
        self.parents[id as usize].map(|p| p.get() - 1)
    }

    /// `Last(p)` of the chain ending at `id`.
    #[inline]
    pub fn target(&self, id: u32) -> NodeId {
        self.targets[id as usize]
    }

    /// Number of steps allocated.
    pub fn len(&self) -> usize {
        self.parents.len()
    }

    /// Reserves room for at least `additional` more steps, so a drain whose
    /// step count is known up front performs no mid-flight reallocation.
    pub fn reserve(&mut self, additional: usize) {
        self.parents.reserve(additional);
        self.edges.reserve(additional);
        self.targets.reserve(additional);
    }

    /// Bytes currently backing the arena (capacities, not lengths — this is
    /// the allocation footprint, surfaced as `arena_bytes_peak`). The arena
    /// only grows, so the current footprint is also the peak.
    pub fn bytes(&self) -> usize {
        self.parents.capacity() * size_of::<Option<NonZeroU32>>()
            + self.edges.capacity() * size_of::<EdgeId>()
            + self.targets.capacity() * size_of::<NodeId>()
    }

    /// True if the chain ending at `id` contains `edge`. Touches only the
    /// parent and edge columns.
    pub(crate) fn chain_contains_edge(&self, id: u32, edge: EdgeId) -> bool {
        let (parents, edges) = (self.parents.as_slice(), self.edges.as_slice());
        let mut cur = id as usize;
        loop {
            if edges[cur] == edge {
                return true;
            }
            match parents[cur] {
                Some(p) => cur = (p.get() - 1) as usize,
                None => return false,
            }
        }
    }

    /// True if any step target on the chain ending at `id` equals `node`
    /// (the source node itself is *not* part of the chain targets). Touches
    /// only the parent and target columns.
    pub(crate) fn chain_targets_contain(&self, id: u32, node: NodeId) -> bool {
        let (parents, targets) = (self.parents.as_slice(), self.targets.as_slice());
        let mut cur = id as usize;
        loop {
            if targets[cur] == node {
                return true;
            }
            match parents[cur] {
                Some(p) => cur = (p.get() - 1) as usize,
                None => return false,
            }
        }
    }

    /// Reconstructs the full path for the chain of `len` edges ending at
    /// `id`, starting from `source`, as an owned [`Path`] (test helper; the
    /// pull loop reuses its buffers through [`StepArena::fill_chain`]).
    #[cfg(test)]
    pub(crate) fn path_of(&self, id: u32, source: NodeId, len: usize) -> Path {
        let (mut nodes, mut edges) = (Vec::new(), Vec::new());
        self.fill_chain(id, source, len, &mut nodes, &mut edges);
        Path::from_sequence(nodes, edges, None).expect("arena chains are well-formed paths")
    }

    /// Writes the node and edge sequences of the chain of `len` edges ending
    /// at `id`, starting from `source`, into the caller's buffers (replacing
    /// their contents). This is the one reconstruction walk; `len` is
    /// threaded in by the caller (the arena stores no length column). Reused
    /// buffers make it allocation-free once they hold the longest chain. A
    /// `len` of 0 is the bare source node, whatever `id` says.
    pub(crate) fn fill_chain(
        &self,
        id: u32,
        source: NodeId,
        len: usize,
        nodes: &mut Vec<NodeId>,
        edges: &mut Vec<EdgeId>,
    ) {
        nodes.clear();
        nodes.resize(len + 1, source);
        edges.clear();
        if len == 0 {
            return;
        }
        edges.resize(len, EdgeId(0));
        let (parents, step_edges, targets) = (
            self.parents.as_slice(),
            self.edges.as_slice(),
            self.targets.as_slice(),
        );
        let mut cur = id as usize;
        let mut i = len;
        loop {
            nodes[i] = targets[cur];
            edges[i - 1] = step_edges[cur];
            match parents[cur] {
                Some(p) => {
                    cur = (p.get() - 1) as usize;
                    i -= 1;
                }
                None => break,
            }
        }
        debug_assert_eq!(i, 1, "chain length matches the threaded len");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chains_reconstruct_their_paths() {
        let mut arena = StepArena::default();
        // source n0: n0 -e0-> n1 -e1-> n2, and a sibling n0 -e2-> n3.
        let a = arena.push(None, EdgeId(0), NodeId(1));
        let b = arena.push(Some(a), EdgeId(1), NodeId(2));
        let c = arena.push(None, EdgeId(2), NodeId(3));
        assert_eq!(arena.len(), 3);

        let p = arena.path_of(b, NodeId(0), 2);
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(1), NodeId(2)]);
        assert_eq!(p.edges(), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(arena.parent(b), Some(a));
        assert_eq!(arena.parent(a), None, "root steps use the niche sentinel");
        assert_eq!(arena.target(b), NodeId(2));

        let p = arena.path_of(c, NodeId(0), 1);
        assert_eq!(p.nodes(), &[NodeId(0), NodeId(3)]);

        assert!(arena.chain_contains_edge(b, EdgeId(0)));
        assert!(arena.chain_contains_edge(b, EdgeId(1)));
        assert!(!arena.chain_contains_edge(b, EdgeId(2)));
        assert!(arena.chain_targets_contain(b, NodeId(1)));
        assert!(arena.chain_targets_contain(b, NodeId(2)));
        assert!(!arena.chain_targets_contain(b, NodeId(0)));
    }

    #[test]
    fn parent_column_has_a_four_byte_niche() {
        assert_eq!(size_of::<Option<NonZeroU32>>(), 4);
    }

    #[test]
    fn reserve_pins_the_allocation_for_a_known_drain() {
        let mut arena = StepArena::default();
        arena.reserve(100);
        let before = arena.bytes();
        assert!(before >= 100 * 12, "12 bytes per reserved step");
        for i in 0..100u32 {
            let parent = (i > 0).then(|| i - 1);
            arena.push(parent, EdgeId(i), NodeId(i));
        }
        assert_eq!(arena.bytes(), before, "no reallocation within the reserve");
    }
}
