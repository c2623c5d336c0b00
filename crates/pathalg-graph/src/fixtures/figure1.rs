//! The paper's Figure 1: a social-network snippet drawn from the LDBC SNB
//! benchmark.
//!
//! The figure has seven nodes `n1..n7` and eleven edges `e1..e11`. Persons and
//! Messages are connected by `Knows`, `Likes` and `Has_creator` relationships,
//! with the "double cycle" structure the introduction describes: an inner
//! cycle of `Knows` edges (between `n2` and `n3`) and an outer cycle
//! alternating `Likes` and `Has_creator` edges.
//!
//! The paper does not print the full edge table, but the following facts pin
//! most of it down and are all preserved by this fixture:
//!
//! * Table 3 enumerates the `Knows+` paths, which fixes the `Knows` subgraph to
//!   exactly `e1: n1→n2`, `e2: n2→n3`, `e3: n3→n2`, `e4: n2→n4`.
//! * The introduction gives `path2 = (n1, e8, n6, e11, n3, e7, n7, e10, n4)`
//!   over `(Likes/Has_creator)+`, fixing `e8: n1→n6 (Likes)`,
//!   `e11: n6→n3 (Has_creator)`, `e7: n3→n7 (Likes)`, `e10: n7→n4 (Has_creator)`.
//! * `n1` is the Person named `"Moe"`, `n4` the Person named `"Apu"`, and the
//!   outer Likes/Has_creator cycle must close back to `n1`, which fixes two of
//!   the remaining edges to `n4 →Likes→ n5 →Has_creator→ n1` (we number them
//!   `e9` and `e6`).
//! * The one remaining edge, `e5`, is another `Likes` edge (`n2 → n5`); its
//!   exact placement is not observable in any result quoted by the paper
//!   (in particular it adds no new simple path from Moe to Apu), so any
//!   Likes/Has_creator-consistent choice reproduces the paper's examples.
//!
//! Node `n2` is named `"Lisa"` (the paper's `Prop(First(p), name) = "Lisa"`
//! example); the remaining Person gets the name `"Bart"`.

use crate::graph::{GraphBuilder, PropertyGraph};
use crate::ids::{EdgeId, NodeId, ObjectId};
use crate::value::Value;

/// Handle to the Figure 1 graph with paper-style names for every object.
#[derive(Clone, Debug)]
pub struct Figure1 {
    /// The property graph itself.
    pub graph: PropertyGraph,
    /// Node `n1`: Person "Moe".
    pub n1: NodeId,
    /// Node `n2`: Person "Lisa".
    pub n2: NodeId,
    /// Node `n3`: Person "Bart".
    pub n3: NodeId,
    /// Node `n4`: Person "Apu".
    pub n4: NodeId,
    /// Node `n5`: Message created by Moe.
    pub n5: NodeId,
    /// Node `n6`: Message created by Bart.
    pub n6: NodeId,
    /// Node `n7`: Message created by Apu.
    pub n7: NodeId,
    /// Edge `e1`: n1 −Knows→ n2.
    pub e1: EdgeId,
    /// Edge `e2`: n2 −Knows→ n3.
    pub e2: EdgeId,
    /// Edge `e3`: n3 −Knows→ n2.
    pub e3: EdgeId,
    /// Edge `e4`: n2 −Knows→ n4.
    pub e4: EdgeId,
    /// Edge `e5`: n2 −Likes→ n5.
    pub e5: EdgeId,
    /// Edge `e6`: n5 −Has_creator→ n1.
    pub e6: EdgeId,
    /// Edge `e7`: n3 −Likes→ n7.
    pub e7: EdgeId,
    /// Edge `e8`: n1 −Likes→ n6.
    pub e8: EdgeId,
    /// Edge `e9`: n4 −Likes→ n5.
    pub e9: EdgeId,
    /// Edge `e10`: n7 −Has_creator→ n4.
    pub e10: EdgeId,
    /// Edge `e11`: n6 −Has_creator→ n3.
    pub e11: EdgeId,
}

impl Figure1 {
    /// Builds the Figure 1 graph.
    pub fn new() -> Self {
        let mut b = GraphBuilder::with_capacity(7, 11);
        let n1 = b.add_node(
            "Person",
            [("name", Value::str("Moe")), ("id", Value::Int(1))],
        );
        let n2 = b.add_node(
            "Person",
            [("name", Value::str("Lisa")), ("id", Value::Int(2))],
        );
        let n3 = b.add_node(
            "Person",
            [("name", Value::str("Bart")), ("id", Value::Int(3))],
        );
        let n4 = b.add_node(
            "Person",
            [("name", Value::str("Apu")), ("id", Value::Int(4))],
        );
        let n5 = b.add_node(
            "Message",
            [
                ("content", Value::str("I am out of beer")),
                ("id", Value::Int(5)),
            ],
        );
        let n6 = b.add_node(
            "Message",
            [("content", Value::str("Ay caramba")), ("id", Value::Int(6))],
        );
        let n7 = b.add_node(
            "Message",
            [
                ("content", Value::str("Thank you, come again")),
                ("id", Value::Int(7)),
            ],
        );

        let e1 = b.add_edge(n1, n2, "Knows", [("since", 2010i64)]);
        let e2 = b.add_edge(n2, n3, "Knows", [("since", 2012i64)]);
        let e3 = b.add_edge(n3, n2, "Knows", [("since", 2012i64)]);
        let e4 = b.add_edge(n2, n4, "Knows", [("since", 2015i64)]);
        let e5 = b.add_edge(n2, n5, "Likes", [("date", Value::str("2021-01-03"))]);
        let e6 = b.add_edge(n5, n1, "Has_creator", Vec::<(&str, Value)>::new());
        let e7 = b.add_edge(n3, n7, "Likes", [("date", Value::str("2021-02-14"))]);
        let e8 = b.add_edge(n1, n6, "Likes", [("date", Value::str("2021-03-21"))]);
        let e9 = b.add_edge(n4, n5, "Likes", [("date", Value::str("2021-04-01"))]);
        let e10 = b.add_edge(n7, n4, "Has_creator", Vec::<(&str, Value)>::new());
        let e11 = b.add_edge(n6, n3, "Has_creator", Vec::<(&str, Value)>::new());

        Self {
            graph: b.build(),
            n1,
            n2,
            n3,
            n4,
            n5,
            n6,
            n7,
            e1,
            e2,
            e3,
            e4,
            e5,
            e6,
            e7,
            e8,
            e9,
            e10,
            e11,
        }
    }

    /// Returns the paper's name for an object (`n1`..`n7`, `e1`..`e11`).
    pub fn object_name(&self, object: impl Into<ObjectId>) -> String {
        match object.into() {
            ObjectId::Node(n) => format!("n{}", n.0 + 1),
            ObjectId::Edge(e) => format!("e{}", e.0 + 1),
        }
    }
}

impl Default for Figure1 {
    fn default() -> Self {
        Self::new()
    }
}

/// Convenience: just the graph of Figure 1, without the named handle.
pub fn figure1_graph() -> PropertyGraph {
    Figure1::new().graph
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let f = Figure1::new();
        assert_eq!(f.graph.node_count(), 7);
        assert_eq!(f.graph.edge_count(), 11);
        assert_eq!(f.graph.nodes_with_label("Person").count(), 4);
        assert_eq!(f.graph.nodes_with_label("Message").count(), 3);
        assert_eq!(f.graph.edges_with_label("Knows").count(), 4);
        assert_eq!(f.graph.edges_with_label("Likes").count(), 4);
        assert_eq!(f.graph.edges_with_label("Has_creator").count(), 3);
    }

    #[test]
    fn knows_subgraph_matches_table3() {
        let f = Figure1::new();
        let g = &f.graph;
        assert_eq!(g.endpoints(f.e1), (f.n1, f.n2));
        assert_eq!(g.endpoints(f.e2), (f.n2, f.n3));
        assert_eq!(g.endpoints(f.e3), (f.n3, f.n2));
        assert_eq!(g.endpoints(f.e4), (f.n2, f.n4));
        for e in [f.e1, f.e2, f.e3, f.e4] {
            assert_eq!(g.label(e), Some("Knows"));
        }
        // Exactly these four edges are labelled Knows.
        assert_eq!(
            g.edges_with_label("Knows").collect::<Vec<_>>(),
            vec![f.e1, f.e2, f.e3, f.e4]
        );
    }

    #[test]
    fn intro_path2_edges_exist() {
        // path2 = (n1, e8, n6, e11, n3, e7, n7, e10, n4)
        let f = Figure1::new();
        let g = &f.graph;
        assert_eq!(g.endpoints(f.e8), (f.n1, f.n6));
        assert_eq!(g.label(f.e8), Some("Likes"));
        assert_eq!(g.endpoints(f.e11), (f.n6, f.n3));
        assert_eq!(g.label(f.e11), Some("Has_creator"));
        assert_eq!(g.endpoints(f.e7), (f.n3, f.n7));
        assert_eq!(g.label(f.e7), Some("Likes"));
        assert_eq!(g.endpoints(f.e10), (f.n7, f.n4));
        assert_eq!(g.label(f.e10), Some("Has_creator"));
    }

    #[test]
    fn outer_cycle_closes_back_to_moe() {
        let f = Figure1::new();
        let g = &f.graph;
        // n4 −Likes→ n5 −Has_creator→ n1 completes the outer cycle.
        assert_eq!(g.endpoints(f.e9), (f.n4, f.n5));
        assert_eq!(g.label(f.e9), Some("Likes"));
        assert_eq!(g.endpoints(f.e6), (f.n5, f.n1));
        assert_eq!(g.label(f.e6), Some("Has_creator"));
    }

    #[test]
    fn inner_knows_cycle_exists() {
        let f = Figure1::new();
        let g = &f.graph;
        // n2 → n3 → n2 is the inner cycle the introduction mentions.
        assert_eq!(g.endpoints(f.e2), (f.n2, f.n3));
        assert_eq!(g.endpoints(f.e3), (f.n3, f.n2));
    }

    #[test]
    fn moe_and_apu_are_where_the_paper_says() {
        let f = Figure1::new();
        let g = &f.graph;
        assert_eq!(g.property(f.n1, "name"), Some(&Value::str("Moe")));
        assert_eq!(g.property(f.n4, "name"), Some(&Value::str("Apu")));
        assert_eq!(g.property(f.n2, "name"), Some(&Value::str("Lisa")));
        assert_eq!(g.label(f.n1), Some("Person"));
        assert_eq!(g.label(f.n6), Some("Message"));
    }

    #[test]
    fn likes_edges_go_person_to_message_and_creators_back() {
        let f = Figure1::new();
        let g = &f.graph;
        for e in g.edges_with_label("Likes") {
            let (s, t) = g.endpoints(e);
            assert_eq!(g.label(s), Some("Person"), "Likes source must be a Person");
            assert_eq!(
                g.label(t),
                Some("Message"),
                "Likes target must be a Message"
            );
        }
        for e in g.edges_with_label("Has_creator") {
            let (s, t) = g.endpoints(e);
            assert_eq!(g.label(s), Some("Message"));
            assert_eq!(g.label(t), Some("Person"));
        }
    }

    #[test]
    fn paper_names_round_trip() {
        let f = Figure1::new();
        assert_eq!(f.object_name(f.n1), "n1");
        assert_eq!(f.object_name(f.n7), "n7");
        assert_eq!(f.object_name(f.e11), "e11");
    }

    #[test]
    fn figure1_graph_helper_matches_struct() {
        let g = figure1_graph();
        assert_eq!(g.node_count(), 7);
        assert_eq!(g.edge_count(), 11);
    }
}
