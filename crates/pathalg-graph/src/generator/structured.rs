//! Deterministic structured topologies: chains, cycles, grids, ladders and
//! complete graphs.
//!
//! These shapes give precise control over the number and length of paths,
//! which the benchmark harness needs when measuring the recursive operator
//! under the different path semantics: a chain has exactly `n(n-1)/2` walks, a
//! cycle has infinitely many walks but `O(n²)` trails, and a complete graph
//! exhibits the factorial blow-up that motivates restrictors in the first
//! place.

use crate::graph::{GraphBuilder, PropertyGraph};
use crate::value::Value;

fn person(b: &mut GraphBuilder, i: usize) -> crate::ids::NodeId {
    b.add_node(
        "Person",
        [
            ("id", Value::Int(i as i64)),
            ("name", Value::str(format!("p{i}"))),
        ],
    )
}

/// A directed chain `v0 → v1 → … → v(n-1)` with every edge labelled `label`.
///
/// Contains no cycles, so even ϕ-Walk terminates on it.
pub fn chain_graph(n: usize, label: &str) -> PropertyGraph {
    let mut b = GraphBuilder::with_capacity(n, n.saturating_sub(1));
    let nodes: Vec<_> = (0..n).map(|i| person(&mut b, i)).collect();
    for i in 1..n {
        b.add_edge(
            nodes[i - 1],
            nodes[i],
            label,
            [("idx", Value::Int(i as i64 - 1))],
        );
    }
    b.build()
}

/// A directed cycle `v0 → v1 → … → v(n-1) → v0` with every edge labelled
/// `label`.
///
/// The smallest graph on which ϕ-Walk does not terminate; the restricted
/// semantics (trail, acyclic, simple, shortest) all stay finite.
pub fn cycle_graph(n: usize, label: &str) -> PropertyGraph {
    let mut b = GraphBuilder::with_capacity(n, n);
    let nodes: Vec<_> = (0..n).map(|i| person(&mut b, i)).collect();
    for i in 0..n {
        b.add_edge(
            nodes[i],
            nodes[(i + 1) % n],
            label,
            [("idx", Value::Int(i as i64))],
        );
    }
    b.build()
}

/// A `rows × cols` directed grid with edges pointing right and down, all
/// labelled `label`.
///
/// Acyclic, but the number of distinct paths between opposite corners grows as
/// a binomial coefficient — a standard stress test for path enumeration.
pub fn grid_graph(rows: usize, cols: usize, label: &str) -> PropertyGraph {
    let mut b = GraphBuilder::with_capacity(rows * cols, 2 * rows * cols);
    let mut nodes = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            let id = b.add_node(
                "Cell",
                [("row", Value::Int(r as i64)), ("col", Value::Int(c as i64))],
            );
            nodes.push(id);
        }
    }
    let at = |r: usize, c: usize| nodes[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                b.add_edge(at(r, c), at(r, c + 1), label, Vec::<(&str, Value)>::new());
            }
            if r + 1 < rows {
                b.add_edge(at(r, c), at(r + 1, c), label, Vec::<(&str, Value)>::new());
            }
        }
    }
    b.build()
}

/// A ladder of `rungs` squares: two parallel chains with cross edges, all
/// labelled `label`. Produces many same-length alternative paths, which is the
/// interesting case for `ALL SHORTEST` and `SHORTEST k GROUP` selectors.
pub fn ladder_graph(rungs: usize, label: &str) -> PropertyGraph {
    let mut b = GraphBuilder::new();
    let top: Vec<_> = (0..=rungs).map(|i| person(&mut b, i)).collect();
    let bottom: Vec<_> = (0..=rungs).map(|i| person(&mut b, 1000 + i)).collect();
    for i in 0..rungs {
        b.add_edge(top[i], top[i + 1], label, Vec::<(&str, Value)>::new());
        b.add_edge(bottom[i], bottom[i + 1], label, Vec::<(&str, Value)>::new());
    }
    for i in 0..=rungs {
        b.add_edge(top[i], bottom[i], label, Vec::<(&str, Value)>::new());
        if i < rungs {
            b.add_edge(bottom[i], top[i + 1], label, Vec::<(&str, Value)>::new());
        }
    }
    b.build()
}

/// A complete directed graph on `n` nodes (no self loops), all edges labelled
/// `label`. The worst case for unrestricted path enumeration.
pub fn complete_graph(n: usize, label: &str) -> PropertyGraph {
    let mut b = GraphBuilder::with_capacity(n, n * n.saturating_sub(1));
    let nodes: Vec<_> = (0..n).map(|i| person(&mut b, i)).collect();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                b.add_edge(nodes[i], nodes[j], label, Vec::<(&str, Value)>::new());
            }
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_has_n_minus_one_edges() {
        let g = chain_graph(10, "Knows");
        assert_eq!(g.node_count(), 10);
        assert_eq!(g.edge_count(), 9);
        assert_eq!(g.edges_with_label("Knows").count(), 9);
        // First node has no incoming, last has no outgoing.
        let first = crate::ids::NodeId(0);
        assert_eq!(g.reverse_label_csr("Knows").out_degree(first), 0);
        assert_eq!(g.label_csr("Knows").out_degree(crate::ids::NodeId(9)), 0);
    }

    #[test]
    fn chain_of_zero_or_one_nodes_is_edgeless() {
        assert_eq!(chain_graph(0, "x").edge_count(), 0);
        assert_eq!(chain_graph(1, "x").edge_count(), 0);
    }

    #[test]
    fn cycle_every_node_has_degree_one_each_way() {
        let g = cycle_graph(6, "Knows");
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 6);
        for n in g.nodes() {
            assert_eq!(g.label_csr("Knows").out_degree(n), 1);
            assert_eq!(g.reverse_label_csr("Knows").out_degree(n), 1);
        }
    }

    #[test]
    fn grid_edge_count_formula() {
        let (rows, cols) = (4, 5);
        let g = grid_graph(rows, cols, "step");
        assert_eq!(g.node_count(), rows * cols);
        // rows*(cols-1) rightward + (rows-1)*cols downward.
        assert_eq!(g.edge_count(), rows * (cols - 1) + (rows - 1) * cols);
    }

    #[test]
    fn ladder_is_connected_and_dag_like() {
        let g = ladder_graph(3, "step");
        assert_eq!(g.node_count(), 8);
        // 2*rungs chain edges + (rungs+1) down rungs + rungs diagonals.
        assert_eq!(g.edge_count(), 2 * 3 + 4 + 3);
    }

    #[test]
    fn complete_graph_edge_count() {
        let g = complete_graph(5, "Knows");
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 20);
        for n in g.nodes() {
            assert_eq!(g.label_csr("Knows").out_degree(n), 4);
            assert_eq!(g.reverse_label_csr("Knows").out_degree(n), 4);
        }
    }
}
