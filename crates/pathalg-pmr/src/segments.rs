//! The segment index: a materialised base relation grouped by `First(p)`.
//!
//! A ϕ whose base is not a label scan or a join chain of label scans — a
//! union such as `(:Knows|:Likes)+`, a selection on edge properties, a
//! nested ϕ, a base with node paths from `?`/`*` — has no per-hop CSRs to
//! walk. The engine evaluates such a base first; this index then stores its
//! admitted paths as **segments**, CSR-shaped by first node and stable in
//! base order within each node, and the kernel (the `join` module) appends
//! one whole segment per level instead of one edge per hop.
//!
//! Level 0 keeps a base path only if the semantics admits it and it fits
//! the length bound; the sources are the nodes where a kept path starts, in
//! ascending order. Segments are stored edge by edge (each with the node it
//! reaches), so the kernel checks them against the growing chain with the
//! same per-edge admission it applies to chain hops.

use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::pathset::PathSet;
use pathalg_graph::ids::{EdgeId, NodeId};

/// The admitted base paths, grouped by first node (see the module docs).
pub(crate) struct SegmentIndex {
    /// `by_first[v]..by_first[v + 1]`: the segments starting at node `v`, in
    /// base order.
    by_first: Vec<u32>,
    /// `bounds[s]..bounds[s + 1]`: segment `s`'s slice of `edges`/`targets`.
    bounds: Vec<u32>,
    /// Every segment's edges, in path order.
    edges: Vec<EdgeId>,
    /// The node each edge of `edges` reaches.
    targets: Vec<NodeId>,
    /// Per segment: no node repeats (read by the unbounded-Walk proof).
    acyclic: Vec<bool>,
    /// Nodes where a kept base path starts, ascending.
    sources: Vec<NodeId>,
    /// One past the largest node id any kept base path touches.
    node_count: usize,
    /// Some segment has more than one edge, so one path can be derived in
    /// more than one way.
    composite: bool,
}

impl SegmentIndex {
    /// Indexes the base paths `semantics` admits within the length bound.
    pub fn build(base: &PathSet, semantics: PathSemantics, config: &RecursionConfig) -> Self {
        let mut kept: Vec<_> = base
            .iter()
            .filter(|p| semantics.admits(p) && config.max_length.is_none_or(|l| p.len() <= l))
            .collect();
        // A stable sort keeps base order within each first node.
        kept.sort_by_key(|p| p.first());
        let node_count = kept
            .iter()
            .flat_map(|p| p.nodes().iter())
            .map(|v| v.index() + 1)
            .max()
            .unwrap_or(0);
        let mut by_first = vec![0u32; node_count + 1];
        for p in &kept {
            by_first[p.first().index() + 1] += 1;
        }
        for v in 0..node_count {
            by_first[v + 1] += by_first[v];
        }
        let total: usize = kept.iter().map(|p| p.len()).sum();
        let mut index = Self {
            by_first,
            bounds: Vec::with_capacity(kept.len() + 1),
            edges: Vec::with_capacity(total),
            targets: Vec::with_capacity(total),
            acyclic: Vec::with_capacity(kept.len()),
            sources: Vec::new(),
            node_count,
            composite: kept.iter().any(|p| p.len() > 1),
        };
        index.bounds.push(0);
        for p in kept {
            index.edges.extend_from_slice(p.edges());
            index.targets.extend_from_slice(&p.nodes()[1..]);
            index.bounds.push(index.edges.len() as u32);
            index.acyclic.push(p.is_acyclic());
        }
        index.sources = (0..node_count)
            .filter(|&v| index.by_first[v] < index.by_first[v + 1])
            .map(|v| NodeId(v as u32))
            .collect();
        index
    }

    /// The segments starting at `node`, in base order.
    pub fn starting_at(&self, node: NodeId) -> std::ops::Range<usize> {
        match self.by_first.get(node.index() + 1) {
            Some(&end) => self.by_first[node.index()] as usize..end as usize,
            None => 0..0,
        }
    }

    /// Segment `s` as the nodes it reaches and the edges it takes, in path
    /// order (both empty for a node path).
    pub fn segment(&self, s: usize) -> (&[NodeId], &[EdgeId]) {
        let range = self.bounds[s] as usize..self.bounds[s + 1] as usize;
        (&self.targets[range.clone()], &self.edges[range])
    }

    /// True if segment `s` repeats no node.
    pub fn is_acyclic(&self, s: usize) -> bool {
        self.acyclic[s]
    }

    /// Nodes where a kept base path starts, ascending.
    pub fn sources(&self) -> &[NodeId] {
        &self.sources
    }

    /// One past the largest node id any kept base path touches.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// True if some segment has more than one edge.
    pub fn is_composite(&self) -> bool {
        self.composite
    }
}
