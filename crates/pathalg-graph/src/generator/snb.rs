//! LDBC-SNB-shaped synthetic graphs.
//!
//! The paper's Figure 1 is a hand-picked snippet of the LDBC Social Network
//! Benchmark graph. For benchmarking the algebra at scale we generate graphs
//! with the same schema and the same structural motifs:
//!
//! * `Person` nodes connected by a `Knows` relation whose density is
//!   controlled by `knows_per_person` (this is where cycles, and hence the
//!   non-termination of unrestricted ϕ-Walk, come from);
//! * `Message` nodes, each with exactly one `Has_creator` edge to a `Person`
//!   (as in SNB);
//! * `Likes` edges from Persons to Messages, so that `Likes/Has_creator`
//!   concatenations form the "outer cycle" pattern of the paper's running
//!   example.
//!
//! Substitution note (see DESIGN.md): the official LDBC datagen produces
//! correlated value distributions that the path algebra never observes — the
//! algebra only sees labels, properties named in conditions, and topology —
//! so this generator preserves exactly the features the reproduced queries
//! exercise.

use crate::csr::CsrGraph;
use crate::graph::{GraphBuilder, PropertyGraph};
use crate::ids::{EdgeId, NodeId};
use crate::value::Value;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Configuration for [`snb_like_graph`].
#[derive(Clone, Debug)]
pub struct SnbConfig {
    /// Number of `Person` nodes.
    pub persons: usize,
    /// Number of `Message` nodes.
    pub messages: usize,
    /// Average number of outgoing `Knows` edges per person.
    pub knows_per_person: usize,
    /// Average number of outgoing `Likes` edges per person.
    pub likes_per_person: usize,
    /// RNG seed.
    pub seed: u64,
    /// Pool of first names used for the `name` property.
    pub names: Vec<String>,
}

impl Default for SnbConfig {
    fn default() -> Self {
        Self {
            persons: 100,
            messages: 200,
            knows_per_person: 3,
            likes_per_person: 2,
            seed: 2024,
            names: [
                "Moe", "Apu", "Lisa", "Bart", "Homer", "Marge", "Ned", "Milhouse", "Nelson",
                "Ralph", "Selma", "Patty", "Krusty", "Barney", "Lenny", "Carl",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
        }
    }
}

impl SnbConfig {
    /// A config scaled to roughly `persons` people with default ratios.
    pub fn scale(persons: usize, seed: u64) -> Self {
        Self {
            persons,
            messages: persons * 2,
            seed,
            ..Self::default()
        }
    }
}

/// Generates an SNB-shaped property graph.
pub fn snb_like_graph(config: &SnbConfig) -> PropertyGraph {
    let mut b = GraphBuilder::with_capacity(
        config.persons + config.messages,
        config.persons * (config.knows_per_person + config.likes_per_person) + config.messages,
    );

    let names = if config.names.is_empty() {
        vec!["Person".to_owned()]
    } else {
        config.names.clone()
    };

    for i in 0..config.persons {
        let name = format!("{}{}", names[i % names.len()], i);
        b.add_node(
            "Person",
            [
                ("id", Value::Int(i as i64)),
                ("name", Value::str(name)),
                ("age", Value::Int(18 + (i as i64 * 7) % 60)),
            ],
        );
    }
    for i in 0..config.messages {
        b.add_node(
            "Message",
            [
                ("id", Value::Int((config.persons + i) as i64)),
                ("length", Value::Int((i as i64 * 13) % 280)),
            ],
        );
    }

    snb_edges(config, &mut |source, target, label, since| {
        b.add_edge(
            source,
            target,
            label,
            since.map(|since| ("since", Value::Int(since))),
        );
    });
    b.build()
}

/// The edges of [`snb_like_graph`], in edge-id order: one
/// `emit(source, target, label, since)` per edge, `since` the property a
/// `Knows` edge carries. Persons are the nodes `0..persons`, messages the
/// nodes `persons..persons + messages`. This is the generator's one random
/// stream, so the graph and [`snb_label_csr`] cannot drift apart; taking
/// the sink as `dyn` compiles it once for both.
fn snb_edges(config: &SnbConfig, emit: &mut dyn FnMut(NodeId, NodeId, &'static str, Option<i64>)) {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let (persons, messages) = (config.persons, config.messages);
    let node = |i: usize| NodeId(i as u32);

    // Knows: for each person, `knows_per_person` targets drawn uniformly from
    // the other persons. Reciprocal edges arise naturally, giving short cycles.
    if persons > 1 {
        for p in 0..persons {
            for _ in 0..config.knows_per_person {
                let mut q = rng.random_range(0..persons);
                while q == p {
                    q = rng.random_range(0..persons);
                }
                let since = rng.random_range(2000..2025);
                emit(node(p), node(q), "Knows", Some(since));
            }
        }
    }

    // Has_creator: every message has exactly one creator.
    if persons > 0 {
        for m in 0..messages {
            let creator = rng.random_range(0..persons);
            emit(node(persons + m), node(creator), "Has_creator", None);
        }
    }

    // Likes: persons like random messages.
    if messages > 0 {
        for p in 0..persons {
            for _ in 0..config.likes_per_person {
                let m = rng.random_range(0..messages);
                emit(node(p), node(persons + m), "Likes", None);
            }
        }
    }
}

/// Streams the label-restricted CSR of [`snb_like_graph`] directly, without
/// materialising the property graph: byte-identical to
/// `CsrGraph::with_label(&snb_like_graph(config), label)` but at a fraction
/// of the footprint — no nodes, no properties, no whole-graph CSRs, and none
/// of the two other labels' edge columns. This is what makes the 10⁶-person
/// workloads of `scaling_million` and `repro scale` feasible.
///
/// It reads the graph's own edge stream (`snb_edges`), so the kept edges
/// land on the same `(source, target, EdgeId)` triples as in the
/// materialised graph. Within each label block, sources are generated in
/// ascending node order, which is exactly CSR fill order: the offsets
/// column closes monotonically as edges stream in.
pub fn snb_label_csr(config: &SnbConfig, label: &str) -> CsrGraph {
    let (persons, messages) = (config.persons, config.messages);
    let kept = match label {
        "Knows" => persons * config.knows_per_person,
        "Has_creator" => messages,
        "Likes" => persons * config.likes_per_person,
        _ => 0,
    };
    let mut offsets: Vec<usize> = Vec::with_capacity(persons + messages + 1);
    let mut targets: Vec<NodeId> = Vec::with_capacity(kept);
    let mut edges: Vec<EdgeId> = Vec::with_capacity(kept);
    let mut edge = 0u32;
    snb_edges(config, &mut |source, target, edge_label, _| {
        if edge_label == label {
            while offsets.len() <= source.index() {
                offsets.push(targets.len());
            }
            targets.push(target);
            edges.push(EdgeId(edge));
        }
        edge += 1;
    });
    while offsets.len() <= persons + messages {
        offsets.push(targets.len());
    }
    CsrGraph::from_parts(offsets, targets, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::GraphStats;

    #[test]
    fn node_and_edge_counts_match_config() {
        let cfg = SnbConfig {
            persons: 50,
            messages: 80,
            knows_per_person: 2,
            likes_per_person: 3,
            seed: 1,
            ..SnbConfig::default()
        };
        let g = snb_like_graph(&cfg);
        assert_eq!(g.node_count(), 130);
        assert_eq!(g.edges_with_label("Knows").count(), 100);
        assert_eq!(g.edges_with_label("Has_creator").count(), 80);
        assert_eq!(g.edges_with_label("Likes").count(), 150);
    }

    #[test]
    fn schema_constraints_hold() {
        let g = snb_like_graph(&SnbConfig::scale(40, 9));
        for e in g.edges_with_label("Knows") {
            let (s, t) = g.endpoints(e);
            assert_eq!(g.label(s), Some("Person"));
            assert_eq!(g.label(t), Some("Person"));
            assert_ne!(s, t, "Knows has no self loops");
        }
        for e in g.edges_with_label("Likes") {
            let (s, t) = g.endpoints(e);
            assert_eq!(g.label(s), Some("Person"));
            assert_eq!(g.label(t), Some("Message"));
        }
        for e in g.edges_with_label("Has_creator") {
            let (s, t) = g.endpoints(e);
            assert_eq!(g.label(s), Some("Message"));
            assert_eq!(g.label(t), Some("Person"));
        }
    }

    #[test]
    fn every_message_has_exactly_one_creator() {
        let g = snb_like_graph(&SnbConfig::scale(30, 5));
        for m in g.nodes_with_label("Message") {
            assert_eq!(g.label_csr("Has_creator").out_degree(m), 1);
        }
    }

    #[test]
    fn deterministic_for_a_seed() {
        let cfg = SnbConfig::scale(25, 77);
        let g1 = snb_like_graph(&cfg);
        let g2 = snb_like_graph(&cfg);
        assert_eq!(g1.edge_count(), g2.edge_count());
        for e in g1.edges() {
            assert_eq!(g1.endpoints(e), g2.endpoints(e));
            assert_eq!(g1.label(e), g2.label(e));
        }
    }

    #[test]
    fn stats_show_expected_label_mix() {
        let g = snb_like_graph(&SnbConfig::scale(100, 3));
        let stats = GraphStats::compute(&g);
        assert_eq!(stats.nodes_with_label("Person"), 100);
        assert_eq!(stats.nodes_with_label("Message"), 200);
        assert!(stats.edges_with_label("Knows") > 0);
        assert!(stats.label_expansion("Knows") >= 1.0);
    }

    #[test]
    fn streamed_label_csr_equals_the_materialised_one() {
        let cfg = SnbConfig::scale(60, 0xBEEF);
        let g = snb_like_graph(&cfg);
        for label in ["Knows", "Has_creator", "Likes", "nope"] {
            assert_eq!(
                snb_label_csr(&cfg, label),
                CsrGraph::with_label(&g, label),
                "streamed {label} CSR diverged from the materialised build"
            );
        }
    }

    #[test]
    fn streamed_label_csr_matches_on_degenerate_configs() {
        for cfg in [
            SnbConfig {
                persons: 0,
                messages: 5,
                ..SnbConfig::default()
            },
            SnbConfig {
                persons: 1,
                messages: 0,
                ..SnbConfig::default()
            },
            SnbConfig {
                persons: 2,
                messages: 1,
                knows_per_person: 1,
                likes_per_person: 1,
                seed: 3,
                ..SnbConfig::default()
            },
        ] {
            let g = snb_like_graph(&cfg);
            for label in ["Knows", "Has_creator", "Likes"] {
                assert_eq!(
                    snb_label_csr(&cfg, label),
                    CsrGraph::with_label(&g, label),
                    "persons={} messages={} {label}",
                    cfg.persons,
                    cfg.messages
                );
            }
        }
    }

    #[test]
    fn degenerate_configs_do_not_panic() {
        let g = snb_like_graph(&SnbConfig {
            persons: 0,
            messages: 5,
            ..SnbConfig::default()
        });
        assert_eq!(g.nodes_with_label("Message").count(), 5);
        assert_eq!(g.edge_count(), 0);

        let g = snb_like_graph(&SnbConfig {
            persons: 1,
            messages: 0,
            ..SnbConfig::default()
        });
        assert_eq!(g.edge_count(), 0);
    }
}
