//! Paths over property graphs (Section 2.2) and the path operators of
//! Section 3.1.
//!
//! A path is an alternating sequence `(n1, e1, n2, e2, …, ek, nk+1)` of node
//! and edge identifiers with `ρ(ei) = (ni, ni+1)`. A path of length zero is a
//! single node. [`Path`] stores the node sequence and the edge sequence
//! separately (`nodes.len() == edges.len() + 1`), which makes the path
//! operators (`First`, `Last`, `Node`, `Edge`, `Len`) O(1) and concatenation a
//! pair of `extend`s.

use crate::error::AlgebraError;
use pathalg_graph::graph::PropertyGraph;
use pathalg_graph::ids::{EdgeId, NodeId};
use std::fmt::Write as _;
use std::sync::Arc;

/// The owned node/edge sequences of a path. Kept behind an [`Arc`] by
/// [`Path`] so that cloning a path — which every set-building operator does
/// per element (the `PathSet` dedup index, γ's up-front path table, π's
/// per-group emission) — is a reference-count bump instead of two heap
/// allocations. Paths are immutable after construction, so the sharing is
/// never observable.
#[derive(Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct PathRepr {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

/// A path in a property graph: an alternating sequence of nodes and edges.
///
/// Two paths are equal iff they have the same sequence of node and edge
/// identifiers, exactly as in the paper. (`Eq`/`Ord`/`Hash` all delegate to
/// the identifier sequences through the shared repr; `Arc`'s impls
/// short-circuit on pointer-identical clones.)
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Path {
    repr: Arc<PathRepr>,
}

impl Path {
    #[inline]
    fn from_repr(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Self {
        Self {
            repr: Arc::new(PathRepr { nodes, edges }),
        }
    }

    /// Creates a path of length zero consisting of a single node.
    pub fn node(node: NodeId) -> Self {
        Self::from_repr(vec![node], Vec::new())
    }

    /// Creates a path of length one from an edge of the graph.
    pub fn edge(graph: &PropertyGraph, edge: EdgeId) -> Self {
        let (s, t) = graph.endpoints(edge);
        Self::from_repr(vec![s, t], vec![edge])
    }

    /// Creates a path from explicit node and edge sequences.
    ///
    /// Returns an error unless `nodes.len() == edges.len() + 1` and, when a
    /// graph is provided, every edge's ρ matches the adjacent nodes.
    pub fn from_sequence(
        nodes: Vec<NodeId>,
        edges: Vec<EdgeId>,
        graph: Option<&PropertyGraph>,
    ) -> Result<Self, AlgebraError> {
        if nodes.is_empty() || nodes.len() != edges.len() + 1 {
            return Err(AlgebraError::InvalidPath(format!(
                "a path needs k+1 nodes for k edges (got {} nodes, {} edges)",
                nodes.len(),
                edges.len()
            )));
        }
        let path = Self::from_repr(nodes, edges);
        if let Some(g) = graph {
            path.validate(g)?;
        }
        Ok(path)
    }

    /// Checks that the path is well-formed with respect to a graph: every
    /// node and edge exists and `ρ(ei) = (ni, ni+1)` for every edge.
    pub fn validate(&self, graph: &PropertyGraph) -> Result<(), AlgebraError> {
        for &n in &self.repr.nodes {
            if !graph.contains_node(n) {
                return Err(AlgebraError::InvalidPath(format!("unknown node {n}")));
            }
        }
        for (i, &e) in self.repr.edges.iter().enumerate() {
            if !graph.contains_edge(e) {
                return Err(AlgebraError::InvalidPath(format!("unknown edge {e}")));
            }
            let (s, t) = graph.endpoints(e);
            if s != self.repr.nodes[i] || t != self.repr.nodes[i + 1] {
                return Err(AlgebraError::InvalidPath(format!(
                    "edge {e} connects {s}->{t} but the path places it between {} and {}",
                    self.repr.nodes[i],
                    self.repr.nodes[i + 1]
                )));
            }
        }
        Ok(())
    }

    /// `First(p)`: the first node of the path.
    #[inline]
    pub fn first(&self) -> NodeId {
        self.repr.nodes[0]
    }

    /// `Last(p)`: the last node of the path.
    #[inline]
    pub fn last(&self) -> NodeId {
        *self
            .repr
            .nodes
            .last()
            .expect("a path always has at least one node")
    }

    /// `Len(p)`: the number of edges in the path.
    #[inline]
    pub fn len(&self) -> usize {
        self.repr.edges.len()
    }

    /// True if the path has length zero (a single node).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.repr.edges.is_empty()
    }

    /// `Node(p, i)` with the paper's 1-based indexing: the i-th node of the
    /// path, or `None` if `i` is out of range.
    pub fn node_at(&self, i: usize) -> Option<NodeId> {
        if i == 0 {
            return None;
        }
        self.repr.nodes.get(i - 1).copied()
    }

    /// `Edge(p, j)` with the paper's 1-based indexing: the j-th edge of the
    /// path, or `None` if `j` is out of range.
    pub(crate) fn edge_at(&self, j: usize) -> Option<EdgeId> {
        if j == 0 {
            return None;
        }
        self.repr.edges.get(j - 1).copied()
    }

    /// The node sequence `n1 … nk+1`.
    pub fn nodes(&self) -> &[NodeId] {
        &self.repr.nodes
    }

    /// The edge sequence `e1 … ek`.
    pub fn edges(&self) -> &[EdgeId] {
        &self.repr.edges
    }

    /// `λ(p)`: the concatenation of the edge labels along the path, as a
    /// vector of labels (unlabelled edges contribute `None`).
    pub fn label_sequence<'g>(&self, graph: &'g PropertyGraph) -> Vec<Option<&'g str>> {
        self.repr.edges.iter().map(|&e| graph.label(e)).collect()
    }

    /// Path concatenation `p1 ◦ p2` (Section 3.1).
    ///
    /// Requires `Last(p1) = First(p2)`; the result is `p1` followed by the tail
    /// of `p2`.
    pub fn concat(&self, other: &Path) -> Result<Path, AlgebraError> {
        if self.last() != other.first() {
            return Err(AlgebraError::ConcatenationMismatch {
                left_last: self.last().to_string(),
                right_first: other.first().to_string(),
            });
        }
        let mut nodes = Vec::with_capacity(self.repr.nodes.len() + other.repr.nodes.len() - 1);
        nodes.extend_from_slice(&self.repr.nodes);
        nodes.extend_from_slice(&other.repr.nodes[1..]);
        let mut edges = Vec::with_capacity(self.repr.edges.len() + other.repr.edges.len());
        edges.extend_from_slice(&self.repr.edges);
        edges.extend_from_slice(&other.repr.edges);
        Ok(Path::from_repr(nodes, edges))
    }

    /// True if `Last(p1) = First(p2)`, i.e. [`Path::concat`] would succeed.
    pub fn can_concat(&self, other: &Path) -> bool {
        self.last() == other.first()
    }

    /// True if the path repeats no node (the paper's *acyclic* restrictor).
    pub fn is_acyclic(&self) -> bool {
        let mut seen: Vec<NodeId> = Vec::with_capacity(self.repr.nodes.len());
        for &n in &self.repr.nodes {
            if seen.contains(&n) {
                return false;
            }
            seen.push(n);
        }
        true
    }

    /// True if the path repeats no node except that the first and last node
    /// may coincide (the paper's *simple* restrictor).
    pub fn is_simple(&self) -> bool {
        if self.repr.nodes.len() <= 1 {
            return true;
        }
        let inner = &self.repr.nodes[..self.repr.nodes.len() - 1];
        let mut seen: Vec<NodeId> = Vec::with_capacity(inner.len());
        for &n in inner {
            if seen.contains(&n) {
                return false;
            }
            seen.push(n);
        }
        // The last node may equal the first, but not any interior node.
        let last = self.last();
        !self.repr.nodes[1..self.repr.nodes.len() - 1].contains(&last)
    }

    /// True if the path repeats no edge (the paper's *trail* restrictor).
    pub fn is_trail(&self) -> bool {
        let mut seen: Vec<EdgeId> = Vec::with_capacity(self.repr.edges.len());
        for &e in &self.repr.edges {
            if seen.contains(&e) {
                return false;
            }
            seen.push(e);
        }
        true
    }

    /// Renders the path in the paper's notation, e.g. `(n1, e1, n2, e4, n4)`
    /// using raw identifiers — [`write_ids`] into a fresh string.
    pub fn display_ids(&self) -> String {
        let mut out = Vec::with_capacity(8 * self.repr.nodes.len());
        write_ids(&self.repr.nodes, &self.repr.edges, &mut out);
        String::from_utf8(out).expect("write_ids emits ASCII")
    }

    /// Renders the path with node names (the `name` property when present) and
    /// edge labels, e.g. `(Moe)-[Knows]->(Lisa)`.
    pub fn display(&self, graph: &PropertyGraph) -> String {
        let node_name = |n: NodeId| -> String {
            graph
                .property(n, "name")
                .and_then(|v| v.as_str().map(str::to_owned))
                .unwrap_or_else(|| n.to_string())
        };
        let mut out = String::new();
        let _ = write!(out, "({})", node_name(self.repr.nodes[0]));
        for (i, &e) in self.repr.edges.iter().enumerate() {
            let _ = write!(
                out,
                "-[{}]->({})",
                graph.label(e).unwrap_or("_"),
                node_name(self.repr.nodes[i + 1])
            );
        }
        out
    }
}

/// Appends the id rendering of the path `nodes`/`edges` (`nodes.len() ==
/// edges.len() + 1`) to `out`: `(n0, e0, n1, …)`, the form of
/// [`Path::display_ids`] and of every `PATH` line the query service sends.
/// This is the one id renderer; it formats decimals by hand and allocates
/// nothing beyond `out`'s growth, so a drain can render straight from the
/// kernel's reconstruction buffers. The line is built in a stack buffer and
/// appended to `out` in one copy; a path too long for the buffer goes out
/// in several.
pub fn write_ids(nodes: &[NodeId], edges: &[EdgeId], out: &mut Vec<u8>) {
    debug_assert_eq!(nodes.len(), edges.len() + 1, "k + 1 nodes for k edges");
    let mut line = LineBuf::new();
    line.push(b"(n");
    line.decimal(nodes[0].0);
    for (edge, node) in edges.iter().zip(&nodes[1..]) {
        // Room for the step and the closing `)`.
        if line.len + MAX_STEP_BYTES >= LINE_BUF_BYTES {
            out.extend_from_slice(line.take());
        }
        line.push(b", e");
        line.decimal(edge.0);
        line.push(b", n");
        line.decimal(node.0);
    }
    line.push(b")");
    out.extend_from_slice(line.take());
}

/// The stack buffer [`write_ids`] builds a line in: room for the opening
/// node and about nine steps of ten-digit ids, or twenty of five digits.
const LINE_BUF_BYTES: usize = 256;

/// The longest step `, e<edge>, n<node>` renders to.
const MAX_STEP_BYTES: usize = 2 * (3 + 10);

/// `"00" "01" … "99"`: two decimal digits per entry.
const DIGIT_PAIRS: [u8; 200] = {
    let mut table = [0u8; 200];
    let mut i = 0;
    while i < 100 {
        table[2 * i] = b'0' + (i / 10) as u8;
        table[2 * i + 1] = b'0' + (i % 10) as u8;
        i += 1;
    }
    table
};

/// A line under construction: `bytes[..len]` is written.
struct LineBuf {
    bytes: [u8; LINE_BUF_BYTES],
    len: usize,
}

impl LineBuf {
    fn new() -> Self {
        Self {
            bytes: [0; LINE_BUF_BYTES],
            len: 0,
        }
    }

    fn push(&mut self, text: &[u8]) {
        self.bytes[self.len..self.len + text.len()].copy_from_slice(text);
        self.len += text.len();
    }

    /// Writes the decimal digits of `v`, two at a time from the back.
    fn decimal(&mut self, mut v: u32) {
        let n = v.checked_ilog10().map_or(1, |d| d as usize + 1);
        let digits = &mut self.bytes[self.len..self.len + n];
        let mut at = n;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            digits[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            digits[0] = b'0' + v as u8;
        }
        self.len += n;
    }

    /// The written bytes; the buffer starts over empty.
    fn take(&mut self) -> &[u8] {
        let len = std::mem::take(&mut self.len);
        &self.bytes[..len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::Figure1;

    #[test]
    fn write_ids_matches_the_formatted_ids() {
        let render = |nodes: &[NodeId], edges: &[EdgeId]| {
            let mut out = Vec::new();
            write_ids(nodes, edges, &mut out);
            String::from_utf8(out).unwrap()
        };
        let formatted = |nodes: &[NodeId], edges: &[EdgeId]| {
            let mut parts = vec![nodes[0].to_string()];
            for (e, n) in edges.iter().zip(&nodes[1..]) {
                parts.extend([e.to_string(), n.to_string()]);
            }
            format!("({})", parts.join(", "))
        };
        // Every digit-count boundary: 10^k − 1 and 10^k, up to u32::MAX.
        let mut values = vec![0, 1, u32::MAX - 1, u32::MAX];
        for k in 1..=9 {
            values.extend([10u32.pow(k) - 1, 10u32.pow(k)]);
        }
        for &v in &values {
            assert_eq!(render(&[NodeId(v)], &[]), format!("({})", NodeId(v)));
            assert_eq!(
                render(&[NodeId(v), NodeId(0)], &[EdgeId(v)]),
                format!("({}, {}, {})", NodeId(v), EdgeId(v), NodeId(0))
            );
        }
        // Lengths 0–20 with ids of every width: the longest lines outgrow
        // the stack buffer and are appended in several chunks.
        for len in 0..=20 {
            let pick = |i: usize| values[(i * 7 + len) % values.len()];
            let nodes: Vec<NodeId> = (0..=len).map(|i| NodeId(pick(2 * i))).collect();
            let edges: Vec<EdgeId> = (0..len).map(|i| EdgeId(pick(2 * i + 1))).collect();
            assert_eq!(render(&nodes, &edges), formatted(&nodes, &edges), "{len}");
            let widest = vec![NodeId(u32::MAX); len + 1];
            let widest_edges = vec![EdgeId(u32::MAX); len];
            assert_eq!(
                render(&widest, &widest_edges),
                formatted(&widest, &widest_edges),
                "{len}"
            );
        }
        // Length 0: one node, no edges; and appending keeps what was there.
        let mut out = b"PATH ".to_vec();
        write_ids(&[NodeId(7)], &[], &mut out);
        assert_eq!(out, b"PATH (n7)");
    }

    #[test]
    fn zero_length_path_is_a_single_node() {
        let f = Figure1::new();
        let p = Path::node(f.n1);
        assert_eq!(p.len(), 0);
        assert!(p.is_empty());
        assert_eq!(p.first(), f.n1);
        assert_eq!(p.last(), f.n1);
        assert!(p.is_acyclic());
        assert!(p.is_simple());
        assert!(p.is_trail());
        assert_eq!(p.node_at(1), Some(f.n1));
        assert_eq!(p.node_at(2), None);
        assert_eq!(p.edge_at(1), None);
    }

    #[test]
    fn edge_path_has_length_one() {
        let f = Figure1::new();
        let p = Path::edge(&f.graph, f.e1);
        assert_eq!(p.len(), 1);
        assert_eq!(p.first(), f.n1);
        assert_eq!(p.last(), f.n2);
        assert_eq!(p.edge_at(1), Some(f.e1));
        assert_eq!(p.node_at(2), Some(f.n2));
        assert_eq!(p.label_sequence(&f.graph), [Some("Knows")]);
        p.validate(&f.graph).unwrap();
    }

    #[test]
    fn paper_indexing_is_one_based() {
        let f = Figure1::new();
        // p1 from the intro: (n1, e1, n2, e4, n4)
        let p = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap();
        assert_eq!(p.node_at(1), Some(f.n1));
        assert_eq!(p.node_at(2), Some(f.n2));
        assert_eq!(p.node_at(3), Some(f.n4));
        assert_eq!(p.node_at(0), None);
        assert_eq!(p.edge_at(1), Some(f.e1));
        assert_eq!(p.edge_at(2), Some(f.e4));
        assert_eq!(p.edge_at(3), None);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn concatenation_follows_the_paper() {
        let f = Figure1::new();
        // p1 = (n1, e1, n2), p2 = (n2, e2, n3)  =>  p1 ∘ p2 = (n1, e1, n2, e2, n3)
        let p1 = Path::edge(&f.graph, f.e1);
        let p2 = Path::edge(&f.graph, f.e2);
        let joined = p1.concat(&p2).unwrap();
        assert_eq!(joined.nodes(), &[f.n1, f.n2, f.n3]);
        assert_eq!(joined.edges(), &[f.e1, f.e2]);
        joined.validate(&f.graph).unwrap();
        assert_eq!(
            joined.label_sequence(&f.graph),
            [Some("Knows"), Some("Knows")]
        );
    }

    #[test]
    fn concatenation_with_mismatched_endpoints_fails() {
        let f = Figure1::new();
        let p1 = Path::edge(&f.graph, f.e1); // ends at n2
        let p8 = Path::edge(&f.graph, f.e8); // starts at n1
        assert!(!p1.can_concat(&p8));
        assert!(matches!(
            p1.concat(&p8),
            Err(AlgebraError::ConcatenationMismatch { .. })
        ));
    }

    #[test]
    fn concatenation_with_zero_length_paths_is_identity() {
        let f = Figure1::new();
        let e = Path::edge(&f.graph, f.e1);
        let left_unit = Path::node(f.n1).concat(&e).unwrap();
        let right_unit = e.concat(&Path::node(f.n2)).unwrap();
        assert_eq!(left_unit, e);
        assert_eq!(right_unit, e);
    }

    #[test]
    fn restrictor_predicates_match_table3_examples() {
        let f = Figure1::new();
        let g = &f.graph;
        let path = |edges: &[pathalg_graph::ids::EdgeId]| {
            edges
                .iter()
                .skip(1)
                .fold(Path::edge(g, edges[0]), |acc, &e| {
                    acc.concat(&Path::edge(g, e)).unwrap()
                })
        };
        // p2 = (n1,e1,n2,e2,n3,e3,n2): trail (no repeated edge) but not acyclic
        // and not simple (n2 repeats in the middle/end without being first).
        let p2 = path(&[f.e1, f.e2, f.e3]);
        assert!(p2.is_trail());
        assert!(!p2.is_acyclic());
        assert!(!p2.is_simple());
        // p4 = (n1,e1,n2,e2,n3,e3,n2,e2,n3): repeats edge e2 — not a trail.
        let p4 = path(&[f.e1, f.e2, f.e3, f.e2]);
        assert!(!p4.is_trail());
        // p7 = (n2,e2,n3,e3,n2): simple (only first=last repeats) and a trail.
        let p7 = path(&[f.e2, f.e3]);
        assert!(p7.is_simple());
        assert!(p7.is_trail());
        assert!(!p7.is_acyclic());
        // p5 = (n1,e1,n2,e4,n4): acyclic, simple, trail.
        let p5 = path(&[f.e1, f.e4]);
        assert!(p5.is_acyclic());
        assert!(p5.is_simple());
        assert!(p5.is_trail());
    }

    #[test]
    fn simple_rejects_last_node_equal_to_interior_node() {
        let f = Figure1::new();
        // (n1,e1,n2,e2,n3,e3,n2): ends at n2 which also appears in the middle
        // position 2 — the cycle is not anchored at the first node, so the
        // path is not simple.
        let p = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e2))
            .unwrap()
            .concat(&Path::edge(&f.graph, f.e3))
            .unwrap();
        assert!(!p.is_simple());
    }

    #[test]
    fn from_sequence_validates_shape_and_graph() {
        let f = Figure1::new();
        let ok = Path::from_sequence(vec![f.n1, f.n2], vec![f.e1], Some(&f.graph)).unwrap();
        assert_eq!(ok.len(), 1);
        // Wrong arity.
        assert!(Path::from_sequence(vec![f.n1], vec![f.e1], None).is_err());
        assert!(Path::from_sequence(vec![], vec![], None).is_err());
        // Edge does not connect those nodes.
        assert!(Path::from_sequence(vec![f.n1, f.n3], vec![f.e1], Some(&f.graph)).is_err());
    }

    #[test]
    fn display_formats() {
        let f = Figure1::new();
        let p = Path::edge(&f.graph, f.e1)
            .concat(&Path::edge(&f.graph, f.e4))
            .unwrap();
        assert_eq!(p.display_ids(), "(n0, e0, n1, e3, n3)");
        assert_eq!(p.display(&f.graph), "(Moe)-[Knows]->(Lisa)-[Knows]->(Apu)");
    }

    #[test]
    fn equality_is_sequence_equality() {
        let f = Figure1::new();
        let a = Path::edge(&f.graph, f.e2);
        let b = Path::edge(&f.graph, f.e2);
        let c = Path::edge(&f.graph, f.e3);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
