//! Social-network analytics on an LDBC-SNB-shaped synthetic graph.
//!
//! This is the workload the paper's introduction motivates: recursive
//! friendship queries, the Likes/Has_creator "outer cycle", selectors and
//! restrictors, and the composability of sets of paths.
//!
//! ```bash
//! cargo run --example social_network
//! ```

use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::stats::GraphStats;
use pathalg::prelude::*;
use std::sync::Arc;

fn main() {
    // A deterministic SNB-shaped graph: 100 people, 200 messages.
    let graph = snb_like_graph(&SnbConfig::scale(100, 42));
    println!("{}", GraphStats::compute(&graph));

    let runner = QueryRunner::new(&graph);

    // 1. Shortest friendship chains between every pair of people.
    //    (ALL SHORTEST WALK is rewritten by the optimizer to the shortest-path
    //    semantics, so it terminates even though the Knows graph is cyclic.)
    let reachability = runner
        .run("MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y)")
        .expect("reachability query");
    let longest = reachability
        .paths()
        .iter()
        .map(|p| p.len())
        .max()
        .unwrap_or(0);
    println!(
        "\nfriendship closure: {} shortest paths, longest chain = {} hops",
        reachability.paths().len(),
        longest
    );
    let histogram = {
        let mut h = vec![0usize; longest + 1];
        for p in reachability.paths().iter() {
            h[p.len()] += 1;
        }
        h
    };
    for (hops, count) in histogram.iter().enumerate().filter(|(_, &c)| c > 0) {
        println!("  {hops} hops: {count} pairs");
    }

    // 2. Fan-engagement: people reaching a message author through a liked
    //    message (the Likes/Has_creator pattern), with the author's name
    //    returned through the path's last node.
    let engagement = runner
        .run("MATCH ALL ACYCLIC p = (?fan:Person)-[:Likes/:Has_creator]->(?author:Person)")
        .expect("engagement query");
    println!("\nfan → author connections: {}", engagement.paths().len());
    for path in engagement.paths().iter().take(5) {
        println!("  {}", path.display(&graph));
    }

    // 3. Composability: feed the engagement paths into a further algebraic
    //    step — group them by author (target) and keep the two most-direct
    //    connections per author.
    let per_author = pathalg::algebra::ops::projection::projection(
        &pathalg::algebra::ops::projection::ProjectionSpec::new(
            pathalg::algebra::ops::projection::Take::All,
            pathalg::algebra::ops::projection::Take::All,
            pathalg::algebra::ops::projection::Take::Count(2),
        ),
        &pathalg::algebra::ops::order_by::order_by(
            OrderKey::Path,
            &pathalg::algebra::ops::group_by::group_by(GroupKey::Target, engagement.paths()),
        ),
    );
    println!(
        "kept at most 2 connections per author: {} paths across {} authors",
        per_author.len(),
        per_author
            .iter()
            .map(|p| p.last())
            .collect::<std::collections::HashSet<_>>()
            .len()
    );

    // 4. A selector that GQL cannot express directly (Section 6): one sample
    //    shortest friendship chain of each length, via γL / τG / π(*,*,1)
    //    (the SHORTEST restrictor keeps the closure polynomial on this graph).
    let sample_per_length = runner
        .run(
            "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS SHORTEST p = (?x)-[:Knows+]->(?y) \
             GROUP BY LENGTH ORDER BY PATH",
        )
        .expect("beyond-GQL query");
    println!("\none sample shortest friendship chain per length:");
    let mut samples = sample_per_length.paths().sorted();
    samples.truncate(6);
    for p in samples {
        println!("  length {}: {}", p.len(), p.display(&graph));
    }

    // 5. Lazy enumeration (DESIGN.md §8): slicing selectors run through the
    //    compact path-multiset representation automatically…
    let any_shortest = runner
        .run("MATCH ANY SHORTEST TRAIL p = (?x)-[:Knows+]->(?y)")
        .expect("any-shortest query");
    println!(
        "\nANY SHORTEST TRAIL: {} paths (lazy sliced pipeline: {})",
        any_shortest.paths().len(),
        any_shortest.used_lazy_pipeline()
    );
    //    …and the kernel itself (`Pmr`) exposes the lazy form directly: the
    //    first ten bounded friendship walks, pulled without ever
    //    materialising the (enormous) full closure.
    use pathalg::algebra::ops::recursive::RecursionConfig;
    let mut walks = Pmr::from_shared_csr(
        Arc::new(graph.label_csr("Knows").clone()),
        PathSemantics::Walk,
        RecursionConfig {
            max_length: Some(6),
            max_paths: None,
        },
    );
    let first_ten = walks.top_k(10).expect("top-k enumeration");
    println!(
        "first {} bounded friendship walks, enumerated lazily:",
        first_ten.len()
    );
    for p in first_ten.iter().take(3) {
        println!("  {}", p.display(&graph));
    }
}
