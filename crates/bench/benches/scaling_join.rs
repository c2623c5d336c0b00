//! Scaling study — lazy endpoint-keyed PMR arena joins vs. materialise-then-
//! join (DESIGN.md §9).
//!
//! The workload is the one the lazy join exists for: slicing selector
//! pipelines over `ϕ((σℓ1(E) ⋈ σℓ2(E)))` — the SNB `(:Likes/:Has_creator)+`
//! pattern (Person → Message → Person hops) and two-hop trail closures on
//! complete graphs. The materialised side hash-joins the label scans, drains
//! the kernel over the joined base (`Pmr::from_base`), and slices with the
//! γ/τ/π operators; the lazy side expands the concatenation through per-hop
//! CSR endpoint indexes (`Pmr::from_shared_join`) with the slice limits
//! pushed into the enumeration. Both produce byte-identical output (pinned in
//! `tests/cross_validation.rs`); only the work differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::snb;
use pathalg_core::condition::Condition;
use pathalg_core::ops::group_by::{group_by, GroupKey};
use pathalg_core::ops::join::join;
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

/// Materialise-then-join: hash-join the label scans, drain the closure over
/// the joined base, then γST → τA → π(*,*,1).
fn materialized_top1(
    graph: &PropertyGraph,
    labels: &[&str],
    semantics: PathSemantics,
    cfg: &RecursionConfig,
) -> usize {
    let base = labels
        .iter()
        .map(|l| selection(graph, &Condition::edge_label(1, *l), &PathSet::edges(graph)))
        .reduce(|a, b| join(&a, &b, None).unwrap())
        .expect("at least one label");
    let closure = Pmr::from_base(&base, semantics, *cfg)
        .enumerate_all()
        .unwrap();
    let (spec, _) = top1_spec();
    projection(
        &spec,
        &order_by(OrderKey::Path, &group_by(GroupKey::SourceTarget, &closure)),
    )
    .len()
}

/// Lazy: per-hop CSR endpoint indexes, sliced enumeration with reachability
/// source stops — neither join side, the join result, nor the closure is
/// materialised.
/// The graph's stored label CSR of each hop.
fn hops(graph: &PropertyGraph, labels: &[&str]) -> Arc<[CsrGraph]> {
    labels.iter().map(|l| graph.label_csr(l).clone()).collect()
}

fn lazy_top1(
    graph: &PropertyGraph,
    labels: &[&str],
    semantics: PathSemantics,
    cfg: RecursionConfig,
) -> usize {
    let (_, slice) = top1_spec();
    let mut pmr = Pmr::from_shared_join(hops(graph, labels), semantics, cfg);
    pmr.sliced(&slice).unwrap().len()
}

/// The output-sensitive SNB `(:Likes/:Has_creator)+` workload: `ANY 3`
/// paths for the first 8 source partitions (`π(8,*,3)(γS(ϕ(⋈)))`). The
/// partition limit lets the lazy join skip whole sources — the materialised
/// side still pays for the full join and closure.
fn bench_snb_topk(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_join/snb_topk");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let labels = ["Likes", "Has_creator"];
    let cfg = RecursionConfig {
        max_length: Some(8),
        max_paths: None,
    };
    let spec = ProjectionSpec::new(Take::Count(8), Take::All, Take::Count(3));
    let slice = SliceSpec {
        group_key: GroupKey::Source,
        per_group: Some(3),
        max_partitions: Some(8),
        max_groups: None,
        ordered_by_length: false,
    };
    for persons in [100usize, 200] {
        let graph = snb(persons);
        group.bench_with_input(BenchmarkId::new("materialized", persons), &graph, |b, g| {
            b.iter(|| {
                let base = labels
                    .iter()
                    .map(|l| selection(g, &Condition::edge_label(1, *l), &PathSet::edges(g)))
                    .reduce(|a, b| join(&a, &b, None).unwrap())
                    .expect("two labels");
                let closure = Pmr::from_base(&base, PathSemantics::Walk, cfg)
                    .enumerate_all()
                    .unwrap();
                projection(&spec, &group_by(GroupKey::Source, &closure)).len()
            })
        });
        group.bench_with_input(BenchmarkId::new("lazy", persons), &graph, |b, g| {
            b.iter(|| {
                let mut pmr = Pmr::from_shared_join(hops(g, &labels), PathSemantics::Walk, cfg);
                pmr.sliced(&slice).unwrap().len()
            })
        });
    }
    group.finish();
}

/// The all-pairs variant: `SHORTEST 1` per endpoint pair. Every source must
/// expand to its full eccentricity, so the win here is the skipped hash
/// join, base materialisation and path reconstruction — a constant factor,
/// not an asymptotic cut.
fn bench_snb_allpairs(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_join/snb_allpairs");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let labels = ["Likes", "Has_creator"];
    let cfg = RecursionConfig {
        max_length: Some(6),
        max_paths: None,
    };
    for persons in [100usize, 200] {
        let graph = snb(persons);
        group.bench_with_input(BenchmarkId::new("materialized", persons), &graph, |b, g| {
            b.iter(|| materialized_top1(g, &labels, PathSemantics::Walk, &cfg))
        });
        group.bench_with_input(BenchmarkId::new("lazy", persons), &graph, |b, g| {
            b.iter(|| lazy_top1(g, &labels, PathSemantics::Walk, cfg))
        });
    }
    group.finish();
}

/// Two-hop trail closures on complete graphs: the segment fan-out is (n−1)²
/// per step, so the materialised closure explodes while the sliced answer is
/// one path per ordered pair.
fn bench_kgraph_trails(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_join/kgraph_trail");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let labels = ["k", "k"];
    let cfg = RecursionConfig {
        max_length: None,
        max_paths: None,
    };
    let n = 4usize;
    let graph = complete_graph(n, "k");
    group.bench_with_input(BenchmarkId::new("materialized", n), &graph, |b, g| {
        b.iter(|| materialized_top1(g, &labels, PathSemantics::Trail, &cfg))
    });
    group.bench_with_input(BenchmarkId::new("lazy", n), &graph, |b, g| {
        b.iter(|| lazy_top1(g, &labels, PathSemantics::Trail, cfg))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_snb_topk,
    bench_snb_allpairs,
    bench_kgraph_trails
);
criterion_main!(benches);
