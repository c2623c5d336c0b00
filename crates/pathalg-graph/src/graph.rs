//! The property graph — Definition 2.1 of the paper.
//!
//! A [`PropertyGraph`] is the tuple `G = (N, E, ρ, λ, ν)`:
//!
//! * `N` — a finite set of node identifiers ([`NodeId`]),
//! * `E` — a finite set of edge identifiers ([`EdgeId`]) disjoint from `N`,
//! * `ρ : E → N × N` — a total function giving each edge its (source, target),
//! * `λ : (N ∪ E) ⇀ L` — a partial function assigning at most one label to
//!   each object,
//! * `ν : (N ∪ E) × P ⇀ V` — a partial function assigning property values.
//!
//! Graphs are constructed with [`GraphBuilder`] and are immutable afterwards.
//! [`GraphBuilder::build`] makes the graph's adjacency once, as one CSR
//! ([`crate::csr`]) per edge label; every edge carries a label, so together
//! they hold every edge. The optimizer statistics and the engine's
//! recursive kernels read those columns, and borrow the same graph without
//! synchronisation. Two structures are built later, on first use: the
//! node-property posting index (the `posting` module), each key's list on its
//! first lookup, and each label's reverse CSR, which only a search from a
//! target anchor reads.

use crate::csr::CsrGraph;
use crate::ids::{EdgeId, NodeId, ObjectId};
use crate::posting::NodePostings;
use crate::property::PropertyMap;
use crate::value::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Data stored per node: its optional label and its properties.
#[derive(Clone, Debug, Default)]
pub struct NodeData {
    /// The node's label (λ), if any.
    pub label: Option<String>,
    /// The node's properties (ν).
    pub properties: PropertyMap,
}

/// Data stored per edge: endpoints (ρ), optional label (λ) and properties (ν).
#[derive(Clone, Debug)]
pub struct EdgeData {
    /// Source node of the edge.
    pub source: NodeId,
    /// Target node of the edge.
    pub target: NodeId,
    /// The edge's label (λ), if any.
    pub label: Option<String>,
    /// The edge's properties (ν).
    pub properties: PropertyMap,
}

/// A directed, labelled property multigraph (Definition 2.1).
///
/// The graph is immutable once built; see [`GraphBuilder`].
#[derive(Clone, Debug, Default)]
pub struct PropertyGraph {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
    /// The CSR of each label some edge carries.
    label_csrs: HashMap<String, CsrGraph>,
    /// The reverse CSR of each label some edge carries, made on first use.
    reverse_label_csrs: HashMap<String, OnceLock<CsrGraph>>,
    /// The edgeless CSR a label no edge carries maps to, made on first use.
    no_edges: OnceLock<CsrGraph>,
    /// The node-property posting index, each key's list made on first use.
    postings: NodePostings,
}

impl PropertyGraph {
    /// Number of nodes, `|N|`.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges, `|E|`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterates over all node identifiers. This is the `Nodes(G)` atom of the
    /// algebra (paths of length zero).
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32).map(NodeId)
    }

    /// Iterates over all edge identifiers. This is the `Edges(G)` atom of the
    /// algebra (paths of length one).
    pub fn edges(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32).map(EdgeId)
    }

    /// True if the node identifier belongs to the graph.
    pub fn contains_node(&self, node: NodeId) -> bool {
        node.index() < self.nodes.len()
    }

    /// True if the edge identifier belongs to the graph.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        edge.index() < self.edges.len()
    }

    /// Per-node data; panics if the identifier is out of range.
    pub fn node(&self, node: NodeId) -> &NodeData {
        &self.nodes[node.index()]
    }

    /// Per-edge data; panics if the identifier is out of range.
    pub fn edge(&self, edge: EdgeId) -> &EdgeData {
        &self.edges[edge.index()]
    }

    /// The ρ function: the `(source, target)` pair of an edge.
    pub fn endpoints(&self, edge: EdgeId) -> (NodeId, NodeId) {
        let data = self.edge(edge);
        (data.source, data.target)
    }

    /// Target node of an edge.
    pub fn target(&self, edge: EdgeId) -> NodeId {
        self.edge(edge).target
    }

    /// The λ function on an arbitrary object: the label of a node or an edge,
    /// or `None` if the object has no label.
    pub fn label(&self, object: impl Into<ObjectId>) -> Option<&str> {
        match object.into() {
            ObjectId::Node(n) => self.node(n).label.as_deref(),
            ObjectId::Edge(e) => self.edge(e).label.as_deref(),
        }
    }

    /// The ν function: the value of property `prop` on an object, or `None`.
    pub fn property(&self, object: impl Into<ObjectId>, prop: &str) -> Option<&Value> {
        match object.into() {
            ObjectId::Node(n) => self.node(n).properties.get(prop),
            ObjectId::Edge(e) => self.edge(e).properties.get(prop),
        }
    }

    /// The nodes whose property `key` equals `value` under
    /// [`Value::compare`] (the equality of selection conditions), in
    /// identifier order, read from the posting index. `None` when the index
    /// cannot answer exactly: a `Null`, `Bool` or `Float` constant, or an
    /// `Int` constant under a key some node holds a `Float` in (see the
    /// `posting` module). The key's list is built on its first lookup.
    pub fn nodes_with_property_value(&self, key: &str, value: &Value) -> Option<&[NodeId]> {
        self.postings.lookup(&self.nodes, key, value)
    }

    /// The edge table, in edge-identifier order.
    pub(crate) fn edge_table(&self) -> &[EdgeData] {
        &self.edges
    }

    /// The CSR of the edges carrying `label` — the columns
    /// [`CsrGraph::with_label`] would build, shared. A label no edge carries
    /// yields a CSR without edges.
    pub fn label_csr(&self, label: &str) -> &CsrGraph {
        self.label_csrs
            .get(label)
            .unwrap_or_else(|| self.edgeless_csr())
    }

    /// The reverse CSR of the edges carrying `label`: row `v` holds the
    /// `label` edges entering `v` and their sources, in edge-identifier
    /// order. Built on the first call for the label, so a graph nobody
    /// searches backwards pays nothing for it. A label no edge carries
    /// yields a CSR without edges.
    pub fn reverse_label_csr(&self, label: &str) -> &CsrGraph {
        match self.reverse_label_csrs.get(label) {
            Some(cell) => cell.get_or_init(|| {
                CsrGraph::build(self.node_count(), &self.edges, true, |e| {
                    e.label.as_deref() == Some(label)
                })
            }),
            None => self.edgeless_csr(),
        }
    }

    /// The CSR without edges over this graph's nodes.
    fn edgeless_csr(&self) -> &CsrGraph {
        self.no_edges
            .get_or_init(|| CsrGraph::build(self.node_count(), &[], false, |_| true))
    }

    /// Each label some edge carries, with its CSR, in arbitrary order.
    pub fn edge_label_csrs(&self) -> impl Iterator<Item = (&str, &CsrGraph)> {
        self.label_csrs
            .iter()
            .map(|(label, csr)| (label.as_str(), csr))
    }

    /// All edges carrying a given label.
    #[cfg(test)]
    pub(crate) fn edges_with_label<'g>(
        &'g self,
        label: &'g str,
    ) -> impl Iterator<Item = EdgeId> + 'g {
        self.edges()
            .filter(move |&e| self.edge(e).label.as_deref() == Some(label))
    }

    /// All nodes carrying a given label.
    pub fn nodes_with_label<'g>(&'g self, label: &'g str) -> impl Iterator<Item = NodeId> + 'g {
        self.nodes()
            .filter(move |&n| self.node(n).label.as_deref() == Some(label))
    }
}

impl fmt::Display for PropertyGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "PropertyGraph {{ nodes: {}, edges: {} }}",
            self.node_count(),
            self.edge_count()
        )?;
        for n in self.nodes() {
            let data = self.node(n);
            writeln!(
                f,
                "  ({n}:{} {})",
                data.label.as_deref().unwrap_or("_"),
                data.properties
            )?;
        }
        for e in self.edges() {
            let data = self.edge(e);
            writeln!(
                f,
                "  ({})-[{e}:{} {}]->({})",
                data.source,
                data.label.as_deref().unwrap_or("_"),
                data.properties,
                data.target
            )?;
        }
        Ok(())
    }
}

/// Incremental constructor for [`PropertyGraph`].
///
/// ```
/// use pathalg_graph::graph::GraphBuilder;
///
/// let mut builder = GraphBuilder::new();
/// let moe = builder.add_node("Person", [("name", "Moe")]);
/// let apu = builder.add_node("Person", [("name", "Apu")]);
/// builder.add_edge(moe, apu, "Knows", [("since", 2010i64)]);
/// let graph = builder.build();
/// assert_eq!(graph.node_count(), 2);
/// assert_eq!(graph.edge_count(), 1);
/// ```
#[derive(Clone, Debug, Default)]
pub struct GraphBuilder {
    nodes: Vec<NodeData>,
    edges: Vec<EdgeData>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with pre-allocated capacity.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
        }
    }

    /// Adds a labelled node with properties and returns its identifier.
    pub fn add_node<K, V>(
        &mut self,
        label: impl Into<String>,
        properties: impl IntoIterator<Item = (K, V)>,
    ) -> NodeId
    where
        K: Into<String>,
        V: Into<Value>,
    {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeData {
            label: Some(label.into()),
            properties: PropertyMap::from_iter(properties),
        });
        id
    }

    /// Adds a labelled edge and returns its identifier.
    ///
    /// # Panics
    /// Panics if either endpoint has not been added to the builder.
    pub fn add_edge<K, V>(
        &mut self,
        source: NodeId,
        target: NodeId,
        label: impl Into<String>,
        properties: impl IntoIterator<Item = (K, V)>,
    ) -> EdgeId
    where
        K: Into<String>,
        V: Into<Value>,
    {
        assert!(
            source.index() < self.nodes.len() && target.index() < self.nodes.len(),
            "edge endpoints must refer to existing nodes"
        );
        let id = EdgeId(self.edges.len() as u32);
        self.edges.push(EdgeData {
            source,
            target,
            label: Some(label.into()),
            properties: PropertyMap::from_iter(properties),
        });
        id
    }

    /// Finalises the graph, building one CSR per edge label.
    pub fn build(self) -> PropertyGraph {
        let n = self.nodes.len();
        let mut label_csrs = HashMap::new();
        for edge in &self.edges {
            let Some(label) = &edge.label else { continue };
            if !label_csrs.contains_key(label) {
                let carries = |e: &EdgeData| e.label.as_ref() == Some(label);
                label_csrs.insert(
                    label.clone(),
                    CsrGraph::build(n, &self.edges, false, carries),
                );
            }
        }
        let reverse_label_csrs = label_csrs
            .keys()
            .map(|label| (label.clone(), OnceLock::new()))
            .collect();
        PropertyGraph {
            nodes: self.nodes,
            edges: self.edges,
            label_csrs,
            reverse_label_csrs,
            no_edges: OnceLock::new(),
            postings: NodePostings::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The edges leaving `v`, off a fresh CSR over every edge.
    fn outgoing(g: &PropertyGraph, v: NodeId) -> Vec<EdgeId> {
        CsrGraph::from_graph(g).neighbor_slices(v).1.to_vec()
    }

    /// The edges entering `v`, off a fresh reverse CSR over every edge.
    fn incoming(g: &PropertyGraph, v: NodeId) -> Vec<EdgeId> {
        let reverse = CsrGraph::build(g.node_count(), g.edge_table(), true, |_| true);
        reverse.neighbor_slices(v).1.to_vec()
    }

    fn small_graph() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Person", [("name", "Moe")]);
        let c = b.add_node("Person", [("name", "Apu")]);
        let m = b.add_node("Message", [("content", "hi")]);
        b.add_edge(a, c, "Knows", [("since", 2010i64)]);
        b.add_edge(a, m, "Likes", Vec::<(&str, Value)>::new());
        b.add_edge(m, c, "Has_creator", Vec::<(&str, Value)>::new());
        b.build()
    }

    #[test]
    fn counts_and_membership() {
        let g = small_graph();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.edge_count(), 3);
        assert!(g.contains_node(NodeId(2)));
        assert!(!g.contains_node(NodeId(3)));
        assert!(g.contains_edge(EdgeId(2)));
        assert!(!g.contains_edge(EdgeId(3)));
    }

    #[test]
    fn rho_lambda_nu_accessors() {
        let g = small_graph();
        assert_eq!(g.endpoints(EdgeId(0)), (NodeId(0), NodeId(1)));
        assert_eq!(g.endpoints(EdgeId(1)), (NodeId(0), NodeId(2)));
        assert_eq!(g.target(EdgeId(2)), NodeId(1));
        assert_eq!(g.label(NodeId(0)), Some("Person"));
        assert_eq!(g.label(EdgeId(0)), Some("Knows"));
        assert_eq!(g.property(NodeId(0), "name"), Some(&Value::str("Moe")));
        assert_eq!(g.property(EdgeId(0), "since"), Some(&Value::Int(2010)));
        assert_eq!(g.property(NodeId(0), "missing"), None);
    }

    #[test]
    fn adjacency_queries() {
        let g = small_graph();
        assert_eq!(outgoing(&g, NodeId(0)), &[EdgeId(0), EdgeId(1)]);
        assert_eq!(incoming(&g, NodeId(1)), &[EdgeId(0), EdgeId(2)]);
        assert_eq!(incoming(&g, NodeId(1)).len(), 2);
        let knows = g.label_csr("Knows").neighbor_slices(NodeId(0)).1;
        assert_eq!(knows, &[EdgeId(0)]);
    }

    /// Every label's reverse CSR lists, for every node, exactly its incoming
    /// edges carrying the label, in edge-identifier order; an unknown label
    /// reverses to no edges.
    #[test]
    fn reverse_label_csrs_are_the_labelled_in_adjacency() {
        let mut b = GraphBuilder::new();
        let n: Vec<NodeId> = (0..5)
            .map(|_| b.add_node("Person", Vec::<(&str, Value)>::new()))
            .collect();
        for (i, (s, t, label)) in [
            (0, 1, "Knows"),
            (2, 1, "Likes"),
            (3, 1, "Knows"),
            (1, 1, "Knows"),
            (4, 0, "Knows"),
            (0, 1, "Knows"),
            (1, 3, "Likes"),
        ]
        .into_iter()
        .enumerate()
        {
            let id = b.add_edge(n[s], n[t], label, Vec::<(&str, Value)>::new());
            assert_eq!(id, EdgeId(i as u32));
        }
        let g = b.build();
        for label in ["Knows", "Likes"] {
            let reverse = g.reverse_label_csr(label);
            assert_eq!(reverse.edge_count(), g.label_csr(label).edge_count());
            for v in g.nodes() {
                let expected: Vec<(NodeId, EdgeId)> = incoming(&g, v)
                    .iter()
                    .filter(|&&e| g.label(e) == Some(label))
                    .map(|&e| (g.edge(e).source, e))
                    .collect();
                let got: Vec<(NodeId, EdgeId)> = reverse.neighbors(v).collect();
                assert_eq!(got, expected, "{label} into {v}");
            }
        }
        assert_eq!(
            g.reverse_label_csr("Knows").neighbor_slices(n[1]).1,
            &[EdgeId(0), EdgeId(2), EdgeId(3), EdgeId(5)]
        );
        let none = g.reverse_label_csr("Has_creator");
        assert_eq!(none.edge_count(), 0);
        assert!(g.nodes().all(|v| none.out_degree(v) == 0));
    }

    #[test]
    fn label_based_scans() {
        let g = small_graph();
        let people: Vec<_> = g.nodes_with_label("Person").collect();
        assert_eq!(people, vec![NodeId(0), NodeId(1)]);
        let likes: Vec<_> = g.edges_with_label("Likes").collect();
        assert_eq!(likes, vec![EdgeId(1)]);
    }

    #[test]
    #[should_panic(expected = "edge endpoints")]
    fn adding_edge_with_unknown_endpoint_panics() {
        let mut b = GraphBuilder::new();
        let n = b.add_node("Person", Vec::<(&str, Value)>::new());
        b.add_edge(n, NodeId(99), "Knows", Vec::<(&str, Value)>::new());
    }

    #[test]
    fn multigraph_allows_parallel_edges_and_self_loops() {
        let mut b = GraphBuilder::new();
        let a = b.add_node("Person", Vec::<(&str, Value)>::new());
        let c = b.add_node("Person", Vec::<(&str, Value)>::new());
        let e1 = b.add_edge(a, c, "Knows", Vec::<(&str, Value)>::new());
        let e2 = b.add_edge(a, c, "Knows", Vec::<(&str, Value)>::new());
        let loop_edge = b.add_edge(a, a, "Knows", Vec::<(&str, Value)>::new());
        let g = b.build();
        assert_ne!(e1, e2);
        assert_eq!(g.endpoints(e1), g.endpoints(e2));
        assert_eq!(g.endpoints(loop_edge), (a, a));
        assert_eq!(outgoing(&g, a).len(), 3);
        assert_eq!(incoming(&g, a).len(), 1);
    }

    #[test]
    fn index_matches_edge_table() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node("A", Vec::<(&str, Value)>::new());
        let n1 = b.add_node("A", Vec::<(&str, Value)>::new());
        let n2 = b.add_node("A", Vec::<(&str, Value)>::new());
        let e0 = b.add_edge(n0, n1, "x", Vec::<(&str, Value)>::new());
        let e1 = b.add_edge(n1, n2, "x", Vec::<(&str, Value)>::new());
        let e2 = b.add_edge(n0, n2, "x", Vec::<(&str, Value)>::new());
        let e3 = b.add_edge(n2, n0, "x", Vec::<(&str, Value)>::new());
        let g = b.build();

        assert_eq!(outgoing(&g, n0), &[e0, e2]);
        assert_eq!(outgoing(&g, n1), &[e1]);
        assert_eq!(outgoing(&g, n2), &[e3]);
        assert_eq!(incoming(&g, n0), &[e3]);
        assert_eq!(incoming(&g, n1), &[e0]);
        assert_eq!(incoming(&g, n2), &[e1, e2]);
    }

    #[test]
    fn isolated_nodes_have_empty_lists() {
        let mut b = GraphBuilder::new();
        let n0 = b.add_node("A", Vec::<(&str, Value)>::new());
        let _n1 = b.add_node("A", Vec::<(&str, Value)>::new());
        let g = b.build();
        assert!(outgoing(&g, n0).is_empty());
        assert!(incoming(&g, n0).is_empty());
    }

    #[test]
    fn out_of_range_node_yields_empty_slices() {
        let g = GraphBuilder::new().build();
        assert!(outgoing(&g, NodeId(5)).is_empty());
        assert!(incoming(&g, NodeId(5)).is_empty());
        assert_eq!(CsrGraph::from_graph(&g).edge_count(), 0);
    }

    #[test]
    fn self_loop_appears_in_both_directions() {
        let mut b = GraphBuilder::new();
        let n = b.add_node("A", Vec::<(&str, Value)>::new());
        let e = b.add_edge(n, n, "loop", Vec::<(&str, Value)>::new());
        let g = b.build();
        assert_eq!(outgoing(&g, n), &[e]);
        assert_eq!(incoming(&g, n), &[e]);
    }

    #[test]
    fn degrees_sum_to_edge_count() {
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..10)
            .map(|_| b.add_node("A", Vec::<(&str, Value)>::new()))
            .collect();
        for i in 0..nodes.len() {
            for j in 0..nodes.len() {
                if (i + j) % 3 == 0 {
                    b.add_edge(nodes[i], nodes[j], "x", Vec::<(&str, Value)>::new());
                }
            }
        }
        let g = b.build();
        let out_sum: usize = g.nodes().map(|n| outgoing(&g, n).len()).sum();
        let in_sum: usize = g.nodes().map(|n| incoming(&g, n).len()).sum();
        assert_eq!(out_sum, g.edge_count());
        assert_eq!(in_sum, g.edge_count());
    }

    #[test]
    fn display_mentions_every_object() {
        let g = small_graph();
        let text = g.to_string();
        assert!(text.contains("nodes: 3"));
        assert!(text.contains("Knows"));
        assert!(text.contains("n0"));
        assert!(text.contains("e2"));
    }
}
