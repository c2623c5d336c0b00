//! Scaling study — the core operators (σ, ⋈, ∪) and the graph atoms as the
//! graph grows.
//!
//! The paper has no wall-clock evaluation; a system adopting the algebra needs
//! to know how the individual operators behave with input size. This bench
//! sweeps SNB-shaped graphs from 100 to 800 persons and measures each core
//! operator in isolation on materialised path sets.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathalg_bench::snb;
use pathalg_core::condition::Condition;
use pathalg_core::ops::join::{join, nested_loop_join};
use pathalg_core::ops::selection::selection;
use pathalg_core::ops::union::union;
use pathalg_core::pathset::PathSet;
use std::time::Duration;

fn bench_atoms_and_selection(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/atoms_and_selection");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));
    for persons in [100usize, 200, 400, 800] {
        let graph = snb(persons);
        group.throughput(Throughput::Elements(graph.edge_count() as u64));
        group.bench_with_input(BenchmarkId::new("edges_atom", persons), &graph, |b, g| {
            b.iter(|| PathSet::edges(g).len())
        });
        let edges = PathSet::edges(&graph);
        let cond = Condition::edge_label(1, "Knows");
        group.bench_with_input(
            BenchmarkId::new("selection_knows", persons),
            &edges,
            |b, edges| b.iter(|| selection(&graph, &cond, edges).len()),
        );
        let prop_cond = Condition::first_property("age", 25i64);
        group.bench_with_input(
            BenchmarkId::new("selection_property", persons),
            &edges,
            |b, edges| b.iter(|| selection(&graph, &prop_cond, edges).len()),
        );
    }
    group.finish();
}

fn bench_join_and_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling/join_and_union");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    for persons in [100usize, 200, 400] {
        let graph = snb(persons);
        let knows = selection(
            &graph,
            &Condition::edge_label(1, "Knows"),
            &PathSet::edges(&graph),
        );
        let likes = selection(
            &graph,
            &Condition::edge_label(1, "Likes"),
            &PathSet::edges(&graph),
        );
        group.throughput(Throughput::Elements(knows.len() as u64));
        group.bench_with_input(
            BenchmarkId::new("hash_join_knows_knows", persons),
            &knows,
            |b, knows| b.iter(|| join(knows, knows, None).unwrap().len()),
        );
        group.bench_with_input(
            BenchmarkId::new("nested_loop_join_knows_knows", persons),
            &knows,
            |b, knows| b.iter(|| nested_loop_join(knows, knows).len()),
        );
        group.bench_with_input(
            BenchmarkId::new("union_knows_likes", persons),
            &(knows.clone(), likes),
            |b, (knows, likes)| b.iter(|| union(knows, likes).len()),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_atoms_and_selection, bench_join_and_union);
criterion_main!(benches);
