//! Scaling study — lazy PMR top-k enumeration vs. full materialisation
//! (DESIGN.md §8).
//!
//! The workload is the one the PMR subsystem exists for: a slicing
//! `π(*,*,1)(τA(γST(ϕ(…))))` pipeline (the `SHORTEST 1` selector) over
//! bounded walks on a *complete* directed graph — the canonical cyclic
//! generator where the materialised closure grows as `(n-1)^L` per source
//! while the sliced answer is one path per ordered node pair. The
//! materialised side drains the kernel over the prebuilt `σℓ(Edges)` base
//! (`Pmr::from_base`) and runs the γ/τ/π operators on the closure; the lazy
//! side runs `Pmr::sliced` over the label CSR, which stops each
//! source after one level thanks to the reachability analysis. Both produce
//! byte-identical output (pinned in `tests/cross_validation.rs`); only the
//! work differs. A Trail variant and a sparse SNB Shortest variant complete
//! the sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::snb;
use pathalg_core::condition::Condition;
use pathalg_core::ops::group_by::{group_by, GroupKey};
use pathalg_core::ops::order_by::{order_by, OrderKey};
use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::ops::selection::selection;
use pathalg_core::pathset::PathSet;
use pathalg_core::slice::SliceSpec;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::generator::structured::complete_graph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_pmr::Pmr;
use std::sync::Arc;
use std::time::Duration;

fn top1_spec() -> (ProjectionSpec, SliceSpec) {
    (
        ProjectionSpec::new(Take::All, Take::All, Take::Count(1)),
        SliceSpec {
            group_key: GroupKey::SourceTarget,
            per_group: Some(1),
            max_partitions: None,
            max_groups: None,
            ordered_by_length: true,
        },
    )
}

fn label_base(graph: &PropertyGraph, label: &str) -> PathSet {
    selection(
        graph,
        &Condition::edge_label(1, label),
        &PathSet::edges(graph),
    )
}

/// Full materialisation: the whole closure, then γST → τA → π(*,*,1).
fn materialized_top1(base: &PathSet, semantics: PathSemantics, cfg: &RecursionConfig) -> usize {
    let closure = Pmr::from_base(base, semantics, *cfg)
        .enumerate_all()
        .unwrap();
    let (spec, _) = top1_spec();
    projection(
        &spec,
        &order_by(OrderKey::Path, &group_by(GroupKey::SourceTarget, &closure)),
    )
    .len()
}

/// Lazy: PMR sliced evaluation with reachability-based source stops.
fn lazy_top1(csr: &CsrGraph, semantics: PathSemantics, cfg: RecursionConfig) -> usize {
    let (_, slice) = top1_spec();
    let mut pmr = Pmr::from_shared_csr(Arc::new(csr.clone()), semantics, cfg);
    pmr.sliced(&slice).unwrap().len()
}

fn bench_walk_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_lazy/walk_top1");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let cfg = RecursionConfig {
        max_length: Some(4),
        max_paths: None,
    };
    for n in [6usize, 7] {
        let graph = complete_graph(n, "k");
        let csr = CsrGraph::with_label(&graph, "k");
        let base = label_base(&graph, "k");
        group.bench_with_input(BenchmarkId::new("materialized", n), &base, |b, base| {
            b.iter(|| materialized_top1(base, PathSemantics::Walk, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("lazy", n), &csr, |b, csr| {
            b.iter(|| lazy_top1(csr, PathSemantics::Walk, cfg))
        });
    }
    group.finish();
}

fn bench_trail_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_lazy/trail_top1");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    // Trails need no length bound; K4 already has 21 000 of them (K5 blows
    // past 50 million, which is the point of the lazy path but too slow to
    // materialise in a bench loop).
    let cfg = RecursionConfig {
        max_length: None,
        max_paths: None,
    };
    let n = 4usize;
    let graph = complete_graph(n, "k");
    let csr = CsrGraph::with_label(&graph, "k");
    let base = label_base(&graph, "k");
    group.bench_with_input(BenchmarkId::new("materialized", n), &base, |b, base| {
        b.iter(|| materialized_top1(base, PathSemantics::Trail, &cfg))
    });
    group.bench_with_input(BenchmarkId::new("lazy", n), &csr, |b, csr| {
        b.iter(|| lazy_top1(csr, PathSemantics::Trail, cfg))
    });
    group.finish();
}

fn bench_shortest_topk(c: &mut Criterion) {
    // Shortest saturates on its own, so the lazy gain here is the compact
    // arena + skip-without-reconstruction, not an asymptotic cut: the
    // interesting comparison is that lazy is not *slower* on the workload
    // the other engine paths already handle well.
    let mut group = c.benchmark_group("scaling_lazy/shortest_top1");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(150));
    let cfg = RecursionConfig {
        max_length: Some(4),
        max_paths: None,
    };
    let graph = snb(200);
    let csr = CsrGraph::with_label(&graph, "Knows");
    let base = label_base(&graph, "Knows");
    group.bench_with_input(BenchmarkId::new("materialized", 200), &base, |b, base| {
        b.iter(|| materialized_top1(base, PathSemantics::Shortest, &cfg))
    });
    group.bench_with_input(BenchmarkId::new("lazy", 200), &csr, |b, csr| {
        b.iter(|| lazy_top1(csr, PathSemantics::Shortest, cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_walk_topk,
    bench_trail_topk,
    bench_shortest_topk
);
criterion_main!(benches);
