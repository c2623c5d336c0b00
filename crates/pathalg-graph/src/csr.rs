//! Compressed-Sparse-Row adjacency: the graph's one adjacency format.
//!
//! Oracle PGX (Section 8.3 of the paper) evaluates path queries over a CSR
//! representation. A [`CsrGraph`] is the equivalent immutable snapshot:
//! node-indexed offsets over parallel neighbour/edge columns, each row in
//! edge-identifier order. [`crate::graph::GraphBuilder::build`] makes every
//! CSR a graph holds — one per edge label, the `σℓ(Edges(G))` each `[:ℓ+]`
//! pattern expands, which together hold every edge — with the one builder
//! behind [`CsrGraph::with_label`], so statistics and the engine's
//! recursive kernels read the same columns. [`CsrGraph::from_graph`] builds
//! a fresh CSR over every edge for callers that walk the whole graph. The
//! columns sit behind `Arc`, so a clone shares them.

use crate::graph::{EdgeData, PropertyGraph};
use crate::ids::{EdgeId, NodeId};
use std::ops::Range;
use std::sync::Arc;

/// An immutable CSR view of (a label-restricted subset of) a graph's edges.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CsrGraph {
    columns: Arc<Columns>,
}

/// The columns every clone of a [`CsrGraph`] shares: `offsets` has one entry
/// per node plus the terminating total, and `targets`/`edges` are parallel.
#[derive(Debug, Default, PartialEq, Eq)]
struct Columns {
    offsets: Vec<usize>,
    targets: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl CsrGraph {
    /// Assembles a snapshot directly from its columns, for builders that
    /// stream edges in CSR order without materialising a [`PropertyGraph`]
    /// first (e.g. the million-scale generator
    /// [`crate::generator::snb::snb_label_csr`]). `offsets` must have one
    /// entry per node plus the terminating total, and `targets`/`edges` must
    /// be parallel.
    pub(crate) fn from_parts(
        offsets: Vec<usize>,
        targets: Vec<NodeId>,
        edges: Vec<EdgeId>,
    ) -> Self {
        assert!(!offsets.is_empty(), "offsets carry at least the total");
        assert_eq!(*offsets.last().unwrap(), targets.len());
        assert_eq!(targets.len(), edges.len());
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        Self {
            columns: Arc::new(Columns {
                offsets,
                targets,
                edges,
            }),
        }
    }

    /// Builds a fresh CSR over all edges of the graph: row `v` holds the
    /// edges leaving `v` and their targets. A graph holds no such snapshot,
    /// only its label CSRs.
    pub fn from_graph(graph: &PropertyGraph) -> Self {
        Self::build(graph.node_count(), graph.edge_table(), false, |_| true)
    }

    /// Builds a fresh CSR restricted to edges carrying `label`. A built graph
    /// already holds this snapshot: [`PropertyGraph::label_csr`] shares it.
    pub fn with_label(graph: &PropertyGraph, label: &str) -> Self {
        Self::build(graph.node_count(), graph.edge_table(), false, |e| {
            e.label.as_deref() == Some(label)
        })
    }

    /// The one CSR builder: a counting sort of the `keep` edges of `edges`
    /// (the edge table of a graph with `node_count` nodes) by source — or by
    /// target when `reverse`, the column then holding each edge's source.
    /// Edges are scanned in identifier order, so every row is sorted by
    /// edge identifier.
    pub(crate) fn build(
        node_count: usize,
        edges: &[EdgeData],
        reverse: bool,
        keep: impl Fn(&EdgeData) -> bool,
    ) -> Self {
        let ends = |e: &EdgeData| {
            if reverse {
                (e.target, e.source)
            } else {
                (e.source, e.target)
            }
        };
        let mut degree = vec![0usize; node_count];
        for e in edges.iter().filter(|e| keep(e)) {
            degree[ends(e).0.index()] += 1;
        }
        let mut offsets = Vec::with_capacity(node_count + 1);
        let mut total = 0;
        for d in &degree {
            offsets.push(total);
            total += d;
        }
        offsets.push(total);
        let mut targets = vec![NodeId(0); total];
        let mut ids = vec![EdgeId(0); total];
        let mut cursor = offsets[..node_count].to_vec();
        for (i, e) in edges.iter().enumerate().filter(|(_, e)| keep(e)) {
            let (row, column) = ends(e);
            let slot = &mut cursor[row.index()];
            targets[*slot] = column;
            ids[*slot] = EdgeId(i as u32);
            *slot += 1;
        }
        Self::from_parts(offsets, targets, ids)
    }

    /// Number of nodes covered by the snapshot.
    pub fn node_count(&self) -> usize {
        self.columns.offsets.len().saturating_sub(1)
    }

    /// Number of edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.columns.edges.len()
    }

    /// The `(target, edge)` pairs reachable from `node` in one hop.
    pub fn neighbors(&self, node: NodeId) -> impl Iterator<Item = (NodeId, EdgeId)> + '_ {
        let (targets, edges) = self.neighbor_slices(node);
        targets.iter().copied().zip(edges.iter().copied())
    }

    /// The neighbours of `node` as raw parallel slices `(targets, edges)`.
    ///
    /// This is the zero-overhead form of [`CsrGraph::neighbors`] for hot
    /// loops: the expansion kernel indexes both slices directly instead of
    /// driving a zipped iterator per node.
    pub fn neighbor_slices(&self, node: NodeId) -> (&[NodeId], &[EdgeId]) {
        let row = self.row(node);
        (&self.columns.targets[row.clone()], &self.columns.edges[row])
    }

    /// Out-degree of `node` within the snapshot.
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.row(node).len()
    }

    /// The column positions of `node`'s row; empty for a node the snapshot
    /// does not cover.
    fn row(&self, node: NodeId) -> Range<usize> {
        let offsets = &self.columns.offsets;
        let i = node.index();
        if i + 1 < offsets.len() {
            offsets[i]..offsets[i + 1]
        } else {
            0..0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::value::Value;

    fn labeled_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let n: Vec<_> = (0..4)
            .map(|_| b.add_node("N", Vec::<(&str, Value)>::new()))
            .collect();
        b.add_edge(n[0], n[1], "a", Vec::<(&str, Value)>::new());
        b.add_edge(n[0], n[2], "b", Vec::<(&str, Value)>::new());
        b.add_edge(n[1], n[2], "a", Vec::<(&str, Value)>::new());
        b.add_edge(n[2], n[3], "a", Vec::<(&str, Value)>::new());
        b.add_edge(n[3], n[0], "b", Vec::<(&str, Value)>::new());
        b.build()
    }

    #[test]
    fn full_csr_covers_all_edges() {
        let g = labeled_graph();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.node_count(), 4);
        assert_eq!(csr.edge_count(), 5);
        let from0: Vec<_> = csr.neighbors(NodeId(0)).collect();
        assert_eq!(from0, vec![(NodeId(1), EdgeId(0)), (NodeId(2), EdgeId(1))]);
        assert_eq!(csr.out_degree(NodeId(0)), 2);
    }

    #[test]
    fn label_restricted_csr_filters_edges() {
        let g = labeled_graph();
        let csr = CsrGraph::with_label(&g, "a");
        assert_eq!(csr.edge_count(), 3);
        let from0: Vec<_> = csr.neighbors(NodeId(0)).collect();
        assert_eq!(from0, vec![(NodeId(1), EdgeId(0))]);
        assert_eq!(csr.out_degree(NodeId(3)), 0);
        assert_eq!(g.label_csr("a"), &csr);
    }

    #[test]
    fn csr_agrees_with_adjacency_index() {
        let g = labeled_graph();
        let forward = CsrGraph::from_graph(&g);
        let reverse = CsrGraph::build(g.node_count(), g.edge_table(), true, |_| true);
        for n in g.nodes() {
            let leaving = g.edges().filter(|&e| g.endpoints(e).0 == n);
            let via_table: Vec<_> = leaving.map(|e| (g.target(e), e)).collect();
            assert_eq!(forward.neighbors(n).collect::<Vec<_>>(), via_table);
            let entering = g.edges().filter(|&e| g.target(e) == n);
            let via_table: Vec<_> = entering.map(|e| (g.endpoints(e).0, e)).collect();
            assert_eq!(reverse.neighbors(n).collect::<Vec<_>>(), via_table);
        }
    }

    #[test]
    fn out_of_range_node_is_empty() {
        let g = labeled_graph();
        let csr = CsrGraph::from_graph(&g);
        assert_eq!(csr.neighbors(NodeId(99)).count(), 0);
        assert_eq!(csr.out_degree(NodeId(99)), 0);
        let (targets, edges) = csr.neighbor_slices(NodeId(99));
        assert!(targets.is_empty() && edges.is_empty());
    }

    #[test]
    fn neighbor_slices_agree_with_the_iterator() {
        let g = labeled_graph();
        for csr in [CsrGraph::from_graph(&g), CsrGraph::with_label(&g, "a")] {
            for n in g.nodes() {
                let (targets, edges) = csr.neighbor_slices(n);
                let zipped: Vec<_> = targets.iter().copied().zip(edges.iter().copied()).collect();
                let via_iter: Vec<_> = csr.neighbors(n).collect();
                assert_eq!(zipped, via_iter);
            }
        }
    }

    #[test]
    fn unknown_label_yields_empty_csr() {
        let g = labeled_graph();
        let csr = CsrGraph::with_label(&g, "nope");
        assert_eq!(csr.edge_count(), 0);
        for n in g.nodes() {
            assert_eq!(csr.out_degree(n), 0);
        }
        // The graph's own answer for a label no edge carries — unknown, or a
        // node label — is the same edgeless CSR over every node.
        assert_eq!(g.label_csr("nope"), &csr);
        assert_eq!(g.label_csr("N"), &csr);
    }
}
