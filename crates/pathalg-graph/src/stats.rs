//! Graph statistics used by the optimizer's cost model.
//!
//! Section 7.3 of the paper notes that algebraic plans enable cost-based
//! optimization "as a standard part of any cost-based query execution plan in
//! SQL databases". The statistics collected here — label frequencies, degree
//! distributions, and per-label average out-degree (the expansion factor of
//! one ϕ iteration) — are what such a cost model needs.

use crate::csr::CsrGraph;
use crate::graph::PropertyGraph;
use crate::ids::NodeId;
use std::collections::HashMap;
use std::fmt;

/// Summary statistics of a property graph.
#[derive(Clone, Debug, Default)]
pub struct GraphStats {
    node_count: usize,
    edge_count: usize,
    node_label_counts: HashMap<String, usize>,
    edge_label_counts: HashMap<String, usize>,
    max_out_degree: usize,
    max_in_degree: usize,
    avg_out_degree: f64,
    /// Average out-degree restricted to each edge label: the expected fan-out
    /// of one expansion step of ϕ over that label.
    label_expansion: HashMap<String, f64>,
    /// Whether the graph as a whole contains a directed cycle — on an
    /// acyclic graph even unbounded ϕ-Walk closures are finite.
    cyclic: bool,
    /// Per-label cyclicity of the label-restricted subgraph: the signal that
    /// separates saturating closures from exponential blow-ups for
    /// single-label recursion.
    label_cyclic: HashMap<String, bool>,
    /// Degree-distribution-aware expansion per ordered label pair:
    /// `(ℓ1, ℓ2) ↦ Σ_{e ∈ ℓ1} outdeg_{ℓ2}(target(e)) / |ℓ1|` — the expected
    /// ℓ2 fan-out at the end of a *random ℓ1 edge*. Unlike
    /// [`GraphStats::label_expansion`] (a plain mean over sources) this
    /// weights hubs by their in-degree, so skewed degree distributions
    /// inflate it — exactly the skew that makes closures blow up. The
    /// diagonal `(ℓ, ℓ)` is the degree-aware self-expansion of a ℓ⁺ closure.
    /// Only computed when the graph has at most
    /// [`MAX_PAIR_STAT_LABELS`] edge labels.
    pair_expansion: HashMap<(String, String), f64>,
    /// Cyclicity of the two-hop composite graph `u → v ⇔ ∃w: u─ℓ1→w─ℓ2→v`,
    /// per ordered label pair: the exact blow-up signal for `(ℓ1/ℓ2)+`
    /// chains, where whole-graph cyclicity badly over-approximates (two
    /// acyclic labels can compose into a cycle, and two cyclic labels into
    /// an empty composite). Pairs whose composite exceeds
    /// [`MAX_COMPOSITE_EDGES`] are left absent (callers fall back to
    /// whole-graph cyclicity).
    pair_cyclic: HashMap<(String, String), bool>,
}

/// Pair statistics are quadratic in the label count; graphs with more edge
/// labels than this skip them (accessors then return `None`).
pub(crate) const MAX_PAIR_STAT_LABELS: usize = 8;

/// Per-pair cap on materialised composite edges during the pair-cyclicity
/// check; beyond it the pair's cyclicity is left unknown.
pub(crate) const MAX_COMPOSITE_EDGES: usize = 200_000;

impl GraphStats {
    /// Computes statistics for a graph from its edge table (degrees) and its
    /// stored label CSRs ([`PropertyGraph::edge_label_csrs`]), which
    /// together hold every edge.
    pub fn compute(graph: &PropertyGraph) -> Self {
        let node_count = graph.node_count();
        let edge_count = graph.edge_count();

        let mut node_label_counts: HashMap<String, usize> = HashMap::new();
        for n in graph.nodes() {
            if let Some(l) = graph.node(n).label.as_deref() {
                *node_label_counts.entry(l.to_owned()).or_default() += 1;
            }
        }

        let (mut out_degree, mut in_degree) = (vec![0usize; node_count], vec![0usize; node_count]);
        for e in graph.edge_table() {
            out_degree[e.source.index()] += 1;
            in_degree[e.target.index()] += 1;
        }
        let max_out_degree = out_degree.into_iter().max().unwrap_or(0);
        let max_in_degree = in_degree.into_iter().max().unwrap_or(0);
        let avg_out_degree = if node_count == 0 {
            0.0
        } else {
            edge_count as f64 / node_count as f64
        };

        let labels: Vec<(&str, &CsrGraph)> = graph.edge_label_csrs().collect();
        // Every edge carries a label: the label CSRs' union is the graph.
        let cyclic = has_directed_cycle(node_count, |u| {
            let u = NodeId(u as u32);
            labels
                .iter()
                .flat_map(move |(_, csr)| csr.neighbor_slices(u).0)
        });
        let mut edge_label_counts = HashMap::new();
        let mut label_expansion = HashMap::new();
        let mut label_cyclic = HashMap::new();
        for &(l, csr) in &labels {
            // A label's CSR holds at least one edge, so it has a source.
            let sources = graph.nodes().filter(|&v| csr.out_degree(v) > 0).count();
            edge_label_counts.insert(l.to_owned(), csr.edge_count());
            label_expansion.insert(l.to_owned(), csr.edge_count() as f64 / sources as f64);
            label_cyclic.insert(l.to_owned(), csr_has_directed_cycle(csr));
        }

        // Pair statistics: one pass per ordered pair over the two label
        // CSRs. Skipped entirely on label-rich graphs (quadratic in the
        // label count).
        let mut pair_expansion: HashMap<(String, String), f64> = HashMap::new();
        let mut pair_cyclic: HashMap<(String, String), bool> = HashMap::new();
        if labels.len() <= MAX_PAIR_STAT_LABELS {
            // The composite `u → v ⇔ ∃w: u─ℓ1→w─ℓ2→v` as a source-sorted
            // target list; `reached[v] == u` marks `v` as already listed
            // for the current source `u`, so each pair is listed once.
            let mut offsets: Vec<usize> = Vec::with_capacity(node_count + 1);
            let mut targets: Vec<NodeId> = Vec::new();
            let mut reached: Vec<u32> = vec![u32::MAX; node_count];
            for &(l1, csr1) in &labels {
                for &(l2, csr2) in &labels {
                    let fanout: usize = graph
                        .nodes()
                        .flat_map(|u| csr1.neighbor_slices(u).0)
                        .map(|&w| csr2.out_degree(w))
                        .sum();
                    let key = (l1.to_owned(), l2.to_owned());
                    pair_expansion.insert(key.clone(), fanout as f64 / csr1.edge_count() as f64);

                    offsets.clear();
                    targets.clear();
                    reached.fill(u32::MAX);
                    let complete = 'sources: {
                        for u in graph.nodes() {
                            offsets.push(targets.len());
                            for &w in csr1.neighbor_slices(u).0 {
                                for &v in csr2.neighbor_slices(w).0 {
                                    if reached[v.index()] != u.0 {
                                        reached[v.index()] = u.0;
                                        targets.push(v);
                                        if targets.len() > MAX_COMPOSITE_EDGES {
                                            break 'sources false;
                                        }
                                    }
                                }
                            }
                        }
                        true
                    };
                    if complete {
                        offsets.push(targets.len());
                        let cycle = has_directed_cycle(node_count, |u| {
                            &targets[offsets[u]..offsets[u + 1]]
                        });
                        pair_cyclic.insert(key, cycle);
                    }
                }
            }
        }

        Self {
            node_count,
            edge_count,
            node_label_counts,
            edge_label_counts,
            max_out_degree,
            max_in_degree,
            avg_out_degree,
            label_expansion,
            cyclic,
            label_cyclic,
            pair_expansion,
            pair_cyclic,
        }
    }

    /// Number of nodes in the graph.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Number of edges in the graph.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Number of nodes carrying a given label.
    pub fn nodes_with_label(&self, label: &str) -> usize {
        self.node_label_counts.get(label).copied().unwrap_or(0)
    }

    /// Number of edges carrying a given label.
    pub fn edges_with_label(&self, label: &str) -> usize {
        self.edge_label_counts.get(label).copied().unwrap_or(0)
    }

    /// Selectivity of an edge-label predicate: fraction of edges matching.
    pub fn edge_label_selectivity(&self, label: &str) -> f64 {
        if self.edge_count == 0 {
            0.0
        } else {
            self.edges_with_label(label) as f64 / self.edge_count as f64
        }
    }

    /// Maximum out-degree over all nodes.
    pub fn max_out_degree(&self) -> usize {
        self.max_out_degree
    }

    /// Maximum in-degree over all nodes.
    pub fn max_in_degree(&self) -> usize {
        self.max_in_degree
    }

    /// Average out-degree (`|E| / |N|`).
    pub fn avg_out_degree(&self) -> f64 {
        self.avg_out_degree
    }

    /// Average out-degree restricted to a label, over nodes that have at least
    /// one outgoing edge of that label; 0 if the label does not occur.
    pub fn label_expansion(&self, label: &str) -> f64 {
        self.label_expansion.get(label).copied().unwrap_or(0.0)
    }

    /// True if the graph contains a directed cycle (self-loops included).
    pub fn is_cyclic(&self) -> bool {
        self.cyclic
    }

    /// True if the subgraph of edges carrying `label` contains a directed
    /// cycle; `false` for unknown labels. On a cyclic label subgraph the
    /// Walk/Trail closures of a `ϕ(σℓ(E))` scan can blow up exponentially,
    /// while on an acyclic one every closure is bounded by the path count of
    /// a DAG — the key input of the engine's adaptive strategy choice.
    pub fn label_cyclic(&self, label: &str) -> bool {
        self.label_cyclic.get(label).copied().unwrap_or(false)
    }

    /// Degree-distribution-aware expansion of an ordered label pair: the
    /// expected `to` fan-out at the target of a random `from` edge (hubs
    /// weighted by in-degree, unlike the source-mean
    /// [`GraphStats::label_expansion`]). `None` when either label is unseen
    /// or pair statistics were skipped (`MAX_PAIR_STAT_LABELS`).
    pub fn pair_expansion(&self, from: &str, to: &str) -> Option<f64> {
        self.pair_expansion
            .get(&(from.to_owned(), to.to_owned()))
            .copied()
    }

    /// Whether the two-hop composite graph `∃w: u─from→w─to→v` contains a
    /// directed cycle — the exact per-segment blow-up signal for `(from/to)+`
    /// chains. `None` when unknown (label unseen, pair statistics skipped,
    /// or the composite exceeded `MAX_COMPOSITE_EDGES`).
    pub fn pair_cyclic(&self, from: &str, to: &str) -> Option<bool> {
        self.pair_cyclic
            .get(&(from.to_owned(), to.to_owned()))
            .copied()
    }

    /// Cyclicity of the composite graph a `(ℓ1/…/ℓk)+` chain repeats: exact
    /// for single labels ([`GraphStats::label_cyclic`]) and two-hop chains
    /// ([`GraphStats::pair_cyclic`]); longer chains fall back to whole-graph
    /// cyclicity (a sound over-approximation — a cycle of the k-segment
    /// composite projects to a directed cycle of the graph, so an acyclic
    /// graph has acyclic composites of every length).
    pub fn chain_cyclic(&self, labels: &[&str]) -> bool {
        match labels {
            [] => false,
            [l] => self.label_cyclic(l),
            [a, b] => self.pair_cyclic(a, b).unwrap_or(self.cyclic),
            _ => self.cyclic,
        }
    }

    /// Edge labels seen in the graph, in arbitrary order.
    pub fn edge_labels(&self) -> impl Iterator<Item = &str> {
        self.edge_label_counts.keys().map(String::as_str)
    }

    /// Node labels seen in the graph, in arbitrary order.
    pub fn node_labels(&self) -> impl Iterator<Item = &str> {
        self.node_label_counts.keys().map(String::as_str)
    }
}

/// Kahn's algorithm over the successor lists of nodes `0..node_count`: the
/// graph has a directed cycle iff the topological peeling cannot consume
/// every node.
fn has_directed_cycle<'a, S>(node_count: usize, successors: impl Fn(usize) -> S) -> bool
where
    S: IntoIterator<Item = &'a NodeId>,
{
    let mut indegree = vec![0usize; node_count];
    for u in 0..node_count {
        for v in successors(u) {
            indegree[v.index()] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..node_count).filter(|&v| indegree[v] == 0).collect();
    let mut processed = 0usize;
    while let Some(u) = queue.pop() {
        processed += 1;
        for v in successors(u) {
            indegree[v.index()] -= 1;
            if indegree[v.index()] == 0 {
                queue.push(v.index());
            }
        }
    }
    processed < node_count
}

/// [`has_directed_cycle`] over a CSR's rows.
fn csr_has_directed_cycle(csr: &CsrGraph) -> bool {
    has_directed_cycle(csr.node_count(), |u| {
        csr.neighbor_slices(NodeId(u as u32)).0
    })
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "GraphStats {{ nodes: {}, edges: {}, avg_out_degree: {:.2}, max_out: {}, max_in: {} }}",
            self.node_count,
            self.edge_count,
            self.avg_out_degree,
            self.max_out_degree,
            self.max_in_degree
        )?;
        let mut labels: Vec<_> = self.edge_label_counts.iter().collect();
        labels.sort();
        for (l, c) in labels {
            writeln!(
                f,
                "  edge label {l}: {c} edges (selectivity {:.3}, expansion {:.2})",
                self.edge_label_selectivity(l),
                self.label_expansion(l)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;
    use crate::value::Value;

    fn sample() -> PropertyGraph {
        let mut b = GraphBuilder::new();
        let p: Vec<_> = (0..4)
            .map(|i| b.add_node("Person", [("id", i as i64)]))
            .collect();
        let m = b.add_node("Message", Vec::<(&str, Value)>::new());
        b.add_edge(p[0], p[1], "Knows", Vec::<(&str, Value)>::new());
        b.add_edge(p[1], p[2], "Knows", Vec::<(&str, Value)>::new());
        b.add_edge(p[0], p[2], "Knows", Vec::<(&str, Value)>::new());
        b.add_edge(p[3], m, "Likes", Vec::<(&str, Value)>::new());
        b.build()
    }

    #[test]
    fn basic_counts() {
        let stats = GraphStats::compute(&sample());
        assert_eq!(stats.node_count(), 5);
        assert_eq!(stats.edge_count(), 4);
        assert_eq!(stats.nodes_with_label("Person"), 4);
        assert_eq!(stats.nodes_with_label("Message"), 1);
        assert_eq!(stats.nodes_with_label("Forum"), 0);
        assert_eq!(stats.edges_with_label("Knows"), 3);
        assert_eq!(stats.edges_with_label("Likes"), 1);
    }

    #[test]
    fn selectivity_and_expansion() {
        let stats = GraphStats::compute(&sample());
        assert!((stats.edge_label_selectivity("Knows") - 0.75).abs() < 1e-9);
        assert!((stats.edge_label_selectivity("Likes") - 0.25).abs() < 1e-9);
        assert_eq!(stats.edge_label_selectivity("Nope"), 0.0);
        // Knows: 3 edges from 2 distinct sources (p0, p1) => expansion 1.5.
        assert!((stats.label_expansion("Knows") - 1.5).abs() < 1e-9);
        assert!((stats.label_expansion("Likes") - 1.0).abs() < 1e-9);
        assert_eq!(stats.label_expansion("Nope"), 0.0);
    }

    #[test]
    fn degrees() {
        let stats = GraphStats::compute(&sample());
        assert_eq!(stats.max_out_degree(), 2);
        assert_eq!(stats.max_in_degree(), 2);
        assert!((stats.avg_out_degree() - 0.8).abs() < 1e-9);
    }

    #[test]
    fn empty_graph_stats_are_zero() {
        let stats = GraphStats::compute(&GraphBuilder::new().build());
        assert_eq!(stats.node_count(), 0);
        assert_eq!(stats.edge_count(), 0);
        assert_eq!(stats.avg_out_degree(), 0.0);
        assert_eq!(stats.edge_label_selectivity("x"), 0.0);
    }

    #[test]
    fn label_enumeration() {
        let stats = GraphStats::compute(&sample());
        let mut edge_labels: Vec<_> = stats.edge_labels().collect();
        edge_labels.sort();
        assert_eq!(edge_labels, vec!["Knows", "Likes"]);
        let mut node_labels: Vec<_> = stats.node_labels().collect();
        node_labels.sort();
        assert_eq!(node_labels, vec!["Message", "Person"]);
    }

    #[test]
    fn cyclicity_is_detected_per_label_and_globally() {
        // The sample graph is a DAG on both labels.
        let stats = GraphStats::compute(&sample());
        assert!(!stats.is_cyclic());
        assert!(!stats.label_cyclic("Knows"));
        assert!(!stats.label_cyclic("Likes"));
        assert!(!stats.label_cyclic("Nope"));

        // Adding a back edge creates a Knows cycle but leaves Likes acyclic.
        let mut b = GraphBuilder::new();
        let p: Vec<_> = (0..3)
            .map(|i| b.add_node("Person", [("id", i as i64)]))
            .collect();
        b.add_edge(p[0], p[1], "Knows", Vec::<(&str, Value)>::new());
        b.add_edge(p[1], p[0], "Knows", Vec::<(&str, Value)>::new());
        b.add_edge(p[1], p[2], "Likes", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&b.build());
        assert!(stats.is_cyclic());
        assert!(stats.label_cyclic("Knows"));
        assert!(!stats.label_cyclic("Likes"));

        // A self-loop is a cycle.
        let mut b = GraphBuilder::new();
        let n = b.add_node("N", Vec::<(&str, Value)>::new());
        b.add_edge(n, n, "a", Vec::<(&str, Value)>::new());
        assert!(GraphStats::compute(&b.build()).label_cyclic("a"));
    }

    #[test]
    fn pair_expansion_weights_hubs_by_in_degree() {
        // a-edges: p0→h, p1→h, p2→x. b-edges: h→{m0,m1,m2}, x→∅.
        // Source-mean b expansion: 3 edges / 1 source = 3.0. Pair (a,b):
        // two of three a-edges land on the hub h (out-deg 3), one on x
        // (out-deg 0) ⇒ (3+3+0)/3 = 2.0 — the in-degree-weighted view.
        let mut b = GraphBuilder::new();
        let nodes: Vec<_> = (0..8)
            .map(|i| b.add_node("N", [("id", i as i64)]))
            .collect();
        let (p0, p1, p2, h, x) = (nodes[0], nodes[1], nodes[2], nodes[3], nodes[4]);
        b.add_edge(p0, h, "a", Vec::<(&str, Value)>::new());
        b.add_edge(p1, h, "a", Vec::<(&str, Value)>::new());
        b.add_edge(p2, x, "a", Vec::<(&str, Value)>::new());
        for m in &nodes[5..8] {
            b.add_edge(h, *m, "b", Vec::<(&str, Value)>::new());
        }
        let stats = GraphStats::compute(&b.build());
        assert!((stats.label_expansion("b") - 3.0).abs() < 1e-9);
        assert!((stats.pair_expansion("a", "b").unwrap() - 2.0).abs() < 1e-9);
        // Self-pair of a: every a-edge ends at h or x, neither has a-edges.
        assert_eq!(stats.pair_expansion("a", "a"), Some(0.0));
        assert_eq!(stats.pair_expansion("a", "nope"), None);
    }

    #[test]
    fn pair_cyclicity_sees_through_whole_graph_cyclicity() {
        // a: u→v, b: v→u. Each label subgraph is acyclic, the whole graph
        // and the (a,b) composite (u→u) are cyclic, while the (a,a) and
        // (b,b) composites are empty hence acyclic.
        let mut builder = GraphBuilder::new();
        let u = builder.add_node("N", Vec::<(&str, Value)>::new());
        let v = builder.add_node("N", Vec::<(&str, Value)>::new());
        builder.add_edge(u, v, "a", Vec::<(&str, Value)>::new());
        builder.add_edge(v, u, "b", Vec::<(&str, Value)>::new());
        let stats = GraphStats::compute(&builder.build());
        assert!(stats.is_cyclic());
        assert!(!stats.label_cyclic("a"));
        assert!(!stats.label_cyclic("b"));
        assert_eq!(stats.pair_cyclic("a", "b"), Some(true));
        assert_eq!(stats.pair_cyclic("b", "a"), Some(true));
        assert_eq!(stats.pair_cyclic("a", "a"), Some(false));
        assert_eq!(stats.pair_cyclic("b", "b"), Some(false));
        // chain_cyclic: exact for one and two labels, conservative beyond.
        assert!(!stats.chain_cyclic(&["a"]));
        assert!(stats.chain_cyclic(&["a", "b"]));
        assert!(!stats.chain_cyclic(&["a", "a"]));
        assert!(stats.chain_cyclic(&["a", "b", "a"]), "falls back to graph");
        assert!(!stats.chain_cyclic(&[]));
    }

    #[test]
    fn display_contains_labels() {
        let stats = GraphStats::compute(&sample());
        let text = stats.to_string();
        assert!(text.contains("Knows"));
        assert!(text.contains("Likes"));
    }
}
