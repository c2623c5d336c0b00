//! Seeded Erdős–Rényi-style labelled random digraphs.
//!
//! Used by property-based tests and scaling benches where we need many graphs
//! of controlled density with a small label alphabet (the regime where RPQ
//! evaluation is interesting). Generation is deterministic for a given
//! [`RandomGraphConfig`], including the seed.

use crate::graph::{GraphBuilder, PropertyGraph};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`random_labeled_graph`].
#[derive(Clone, Debug)]
pub struct RandomGraphConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Number of edges to sample (endpoints drawn uniformly; parallel edges
    /// and self loops are allowed, as the data model is a multigraph).
    pub edges: usize,
    /// Edge-label alphabet to draw from uniformly.
    pub edge_labels: Vec<String>,
    /// Node-label alphabet to draw from uniformly.
    pub node_labels: Vec<String>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomGraphConfig {
    fn default() -> Self {
        Self {
            nodes: 100,
            edges: 300,
            edge_labels: vec!["a".into(), "b".into(), "c".into()],
            node_labels: vec!["N".into()],
            seed: 0xA1CEB0,
        }
    }
}

/// Generates a random labelled digraph according to `config`.
pub fn random_labeled_graph(config: &RandomGraphConfig) -> PropertyGraph {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut b = GraphBuilder::with_capacity(config.nodes, config.edges);
    let node_labels = if config.node_labels.is_empty() {
        vec!["N".to_owned()]
    } else {
        config.node_labels.clone()
    };
    let edge_labels = if config.edge_labels.is_empty() {
        vec!["a".to_owned()]
    } else {
        config.edge_labels.clone()
    };

    let nodes: Vec<_> = (0..config.nodes)
        .map(|i| {
            let label = &node_labels[rng.random_range(0..node_labels.len())];
            b.add_node(label.clone(), [("id", Value::Int(i as i64))])
        })
        .collect();

    if !nodes.is_empty() {
        for i in 0..config.edges {
            let s = nodes[rng.random_range(0..nodes.len())];
            let t = nodes[rng.random_range(0..nodes.len())];
            let label = &edge_labels[rng.random_range(0..edge_labels.len())];
            b.add_edge(s, t, label.clone(), [("id", Value::Int(i as i64))]);
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The default alphabets with the given sizes and seed.
    fn config(nodes: usize, edges: usize, seed: u64) -> RandomGraphConfig {
        RandomGraphConfig {
            nodes,
            edges,
            seed,
            ..RandomGraphConfig::default()
        }
    }

    #[test]
    fn respects_requested_sizes() {
        let g = random_labeled_graph(&config(50, 120, 7));
        assert_eq!(g.node_count(), 50);
        assert_eq!(g.edge_count(), 120);
    }

    #[test]
    fn same_seed_same_graph() {
        let cfg = config(30, 80, 42);
        let g1 = random_labeled_graph(&cfg);
        let g2 = random_labeled_graph(&cfg);
        assert_eq!(g1.node_count(), g2.node_count());
        assert_eq!(g1.edge_count(), g2.edge_count());
        for e in g1.edges() {
            assert_eq!(g1.endpoints(e), g2.endpoints(e));
            assert_eq!(g1.label(e), g2.label(e));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let g1 = random_labeled_graph(&config(30, 80, 1));
        let g2 = random_labeled_graph(&config(30, 80, 2));
        let same = g1
            .edges()
            .all(|e| g1.endpoints(e) == g2.endpoints(e) && g1.label(e) == g2.label(e));
        assert!(
            !same,
            "different seeds should produce different edge tables"
        );
    }

    #[test]
    fn labels_come_from_the_alphabet() {
        let cfg = RandomGraphConfig {
            nodes: 20,
            edges: 60,
            edge_labels: vec!["x".into(), "y".into()],
            node_labels: vec!["A".into(), "B".into()],
            seed: 3,
        };
        let g = random_labeled_graph(&cfg);
        for e in g.edges() {
            assert!(matches!(g.label(e), Some("x") | Some("y")));
        }
        for n in g.nodes() {
            assert!(matches!(g.label(n), Some("A") | Some("B")));
        }
    }

    #[test]
    fn empty_alphabets_fall_back_to_defaults() {
        let cfg = RandomGraphConfig {
            nodes: 5,
            edges: 10,
            edge_labels: vec![],
            node_labels: vec![],
            seed: 1,
        };
        let g = random_labeled_graph(&cfg);
        assert_eq!(g.edge_count(), 10);
        for e in g.edges() {
            assert_eq!(g.label(e), Some("a"));
        }
    }

    #[test]
    fn zero_nodes_produces_empty_graph_even_with_edges_requested() {
        let cfg = config(0, 10, 5);
        let g = random_labeled_graph(&cfg);
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
