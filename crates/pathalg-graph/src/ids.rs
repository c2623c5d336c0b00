//! Strongly-typed object identifiers.
//!
//! The paper assumes an infinite set `O` of object identifiers partitioned into
//! node identifiers `N` and edge identifiers `E` with `N ∩ E = ∅`. We enforce
//! the disjointness statically with two newtypes, [`NodeId`] and [`EdgeId`], and
//! provide [`ObjectId`] as their tagged union for APIs (such as the label
//! function λ and the property function ν) that accept either.

use std::fmt;

/// Identifier of a node in a property graph.
///
/// Node identifiers are dense indexes assigned by the [`crate::graph::GraphBuilder`]
/// in insertion order, which lets the adjacency and CSR indexes use them
/// directly as array offsets.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of an edge in a property graph.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// Either a node or an edge identifier.
///
/// Used wherever the paper talks about an "object" `o ∈ N ∪ E`, e.g. the label
/// function `λ : (N ∪ E) ⇀ L` and the property function `ν : (N ∪ E) × P ⇀ V`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ObjectId {
    /// A node identifier.
    Node(NodeId),
    /// An edge identifier.
    Edge(EdgeId),
}

impl NodeId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// Returns the identifier as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<NodeId> for ObjectId {
    fn from(n: NodeId) -> Self {
        ObjectId::Node(n)
    }
}

impl From<EdgeId> for ObjectId {
    fn from(e: EdgeId) -> Self {
        ObjectId::Edge(e)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Debug for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObjectId::Node(n) => write!(f, "{n}"),
            ObjectId::Edge(e) => write!(f, "{e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn node_and_edge_ids_are_distinct_types() {
        let n = NodeId(3);
        let e = EdgeId(3);
        // Same raw value, but they live in different identifier spaces.
        assert_eq!(ObjectId::from(n), ObjectId::Node(n));
        assert_eq!(ObjectId::from(e), ObjectId::Edge(e));
        assert_ne!(ObjectId::from(n), ObjectId::from(e));
    }

    #[test]
    fn display_matches_paper_notation() {
        assert_eq!(NodeId(1).to_string(), "n1");
        assert_eq!(EdgeId(11).to_string(), "e11");
        assert_eq!(ObjectId::Node(NodeId(4)).to_string(), "n4");
        assert_eq!(ObjectId::Edge(EdgeId(7)).to_string(), "e7");
    }

    #[test]
    fn ids_are_hashable_and_ordered() {
        let mut set = HashSet::new();
        set.insert(NodeId(1));
        set.insert(NodeId(1));
        set.insert(NodeId(2));
        assert_eq!(set.len(), 2);

        let mut v = vec![EdgeId(5), EdgeId(2), EdgeId(9)];
        v.sort();
        assert_eq!(v, vec![EdgeId(2), EdgeId(5), EdgeId(9)]);
    }

    #[test]
    fn index_round_trips() {
        assert_eq!(NodeId(42).index(), 42);
        assert_eq!(EdgeId(7).index(), 7);
    }
}
