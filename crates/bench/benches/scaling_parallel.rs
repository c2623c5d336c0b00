//! Scaling study — the parallel per-source frontier engine for ϕ vs. the
//! semi-naïve fixpoint, swept over thread count × graph size.
//!
//! This is the headline benchmark of the frontier engine (DESIGN.md §7): the
//! same `ϕShortest(σKnows(Edges))` workload is evaluated by the semi-naïve
//! fixpoint and by `phi_frontier` at 1/2/4/8 threads (the kernel drain that
//! never materialises the base relation is measured by
//! `scaling_lazy_parallel` and `scaling_million`). The length bound keeps
//! the closure finite on the dense Knows subgraph so the sweep measures
//! engine overhead, not result-set explosion. A bounded-walk sweep exercises
//! the unrestricted semantics on the same graphs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::snb;
use pathalg_core::condition::Condition;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::ops::selection::selection;
use pathalg_core::pathset::PathSet;
use pathalg_engine::exec::ExecutionConfig;
use pathalg_engine::physical::frontier::phi_frontier;
use pathalg_engine::physical::phi_seminaive;
use pathalg_graph::graph::PropertyGraph;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn knows_base(graph: &PropertyGraph) -> PathSet {
    selection(
        graph,
        &Condition::edge_label(1, "Knows"),
        &PathSet::edges(graph),
    )
}

fn bounded(max_length: usize) -> RecursionConfig {
    RecursionConfig {
        max_length: Some(max_length),
        max_paths: None,
    }
}

fn bench_shortest_knows(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_parallel/shortest_knows");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let cfg = bounded(4);
    for persons in [200usize, 800] {
        let graph = snb(persons);
        let base = knows_base(&graph);
        group.bench_with_input(BenchmarkId::new("seminaive", persons), &base, |b, base| {
            b.iter(|| {
                phi_seminaive(PathSemantics::Shortest, base, &cfg)
                    .unwrap()
                    .len()
            })
        });
        for threads in THREADS {
            let exec = ExecutionConfig::with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("frontier/t{threads}"), persons),
                &base,
                |b, base| {
                    b.iter(|| {
                        phi_frontier(PathSemantics::Shortest, base, &cfg, &exec)
                            .unwrap()
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_bounded_walk(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_parallel/bounded_walk");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));
    let cfg = bounded(3);
    for persons in [200usize, 800] {
        let graph = snb(persons);
        let base = knows_base(&graph);
        group.bench_with_input(BenchmarkId::new("seminaive", persons), &base, |b, base| {
            b.iter(|| {
                phi_seminaive(PathSemantics::Walk, base, &cfg)
                    .unwrap()
                    .len()
            })
        });
        for threads in [1usize, 4] {
            let exec = ExecutionConfig::with_threads(threads);
            group.bench_with_input(
                BenchmarkId::new(format!("frontier/t{threads}"), persons),
                &base,
                |b, base| {
                    b.iter(|| {
                        phi_frontier(PathSemantics::Walk, base, &cfg, &exec)
                            .unwrap()
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

criterion_group!(benches, bench_shortest_knows, bench_bounded_walk);
criterion_main!(benches);
