//! Ablation studies for the design choices called out in DESIGN.md §5.
//!
//! 1. ϕ physical implementation: the semi-naïve fixpoint (the executable
//!    specification) vs. the automaton-product baseline vs. the kernel the
//!    evaluator runs for a materialised base (`Pmr::from_base`, under the
//!    ids `frontier_*`, kept from the per-source engine it replaced), on the
//!    same tiny bases (8 and 16 paths), which is the evidence that no base
//!    is too small for it.
//! 2. Join strategy: endpoint hash join vs. nested-loop join.
//! 3. Restrictor pushed into ϕ vs. post-filtering a bounded walk.
//! 4. Projection with and without a preceding order-by (Algorithm 1's remark
//!    that sorting is unnecessary when no τ was applied).
//! 5. Optimizer on vs. off for the ALL SHORTEST WALK pipeline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::{cycle, figure1, label_scan, snb};
use pathalg_core::condition::Condition;
use pathalg_core::eval::{EvalConfig, Evaluator};
use pathalg_core::gql::{translate, Restrictor, Selector};
use pathalg_core::ops::group_by::{group_by, GroupKey};
use pathalg_core::ops::join::{join, nested_loop_join};
use pathalg_core::ops::order_by::{order_by, OrderKey};
use pathalg_core::ops::projection::{projection, ProjectionSpec, Take};
use pathalg_core::ops::recursive::{recursive, PathSemantics, RecursionConfig};
use pathalg_core::ops::selection::selection;
use pathalg_core::optimizer::Optimizer;
use pathalg_core::pathset::PathSet;
use pathalg_pmr::Pmr;
use pathalg_rpq::automaton_eval::AutomatonEvaluator;
use pathalg_rpq::parse::parse_regex;
use std::time::Duration;

fn knows_base(graph: &pathalg_graph::graph::PropertyGraph) -> PathSet {
    selection(
        graph,
        &Condition::edge_label(1, "Knows"),
        &PathSet::edges(graph),
    )
}

fn bench_phi_implementations(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/phi_implementations");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    let cfg = RecursionConfig::default();
    for n in [8usize, 16] {
        let graph = cycle(n);
        let base = knows_base(&graph);
        group.bench_with_input(BenchmarkId::new("seminaive_trail", n), &base, |b, base| {
            b.iter(|| recursive(PathSemantics::Trail, base, &cfg).unwrap().len())
        });
        group.bench_with_input(
            BenchmarkId::new("seminaive_shortest", n),
            &base,
            |b, base| {
                b.iter(|| {
                    recursive(PathSemantics::Shortest, base, &cfg)
                        .unwrap()
                        .len()
                })
            },
        );
        for (id, semantics) in [
            ("frontier_trail", PathSemantics::Trail),
            ("frontier_shortest", PathSemantics::Shortest),
        ] {
            group.bench_with_input(BenchmarkId::new(id, n), &base, |b, base| {
                b.iter(|| {
                    Pmr::from_base(base, semantics, cfg)
                        .enumerate_all()
                        .unwrap()
                        .len()
                })
            });
        }
        // The classical automaton-product baseline answering the same RPQ.
        let regex = parse_regex(":Knows+").unwrap();
        group.bench_with_input(
            BenchmarkId::new("automaton_trail", n),
            &graph,
            |b, graph| {
                let eval = AutomatonEvaluator::new(graph, &regex);
                b.iter(|| eval.eval_all(PathSemantics::Trail, &cfg).unwrap().len())
            },
        );
    }
    group.finish();
}

fn bench_join_strategies(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/join_strategy");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    for persons in [100usize, 300] {
        let graph = snb(persons);
        let knows = knows_base(&graph);
        group.bench_with_input(BenchmarkId::new("hash", persons), &knows, |b, knows| {
            b.iter(|| join(knows, knows, None).unwrap().len())
        });
        group.bench_with_input(
            BenchmarkId::new("nested_loop", persons),
            &knows,
            |b, knows| b.iter(|| nested_loop_join(knows, knows).len()),
        );
    }
    group.finish();
}

fn bench_restrictor_pushdown_vs_postfilter(c: &mut Criterion) {
    // Enforcing TRAIL inside ϕ vs. generating bounded walks and filtering.
    let mut group = c.benchmark_group("ablation/restrictor_pushdown");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    for n in [6usize, 8, 10] {
        let graph = cycle(n);
        let base = knows_base(&graph);
        group.bench_with_input(BenchmarkId::new("phi_trail", n), &base, |b, base| {
            b.iter(|| {
                recursive(PathSemantics::Trail, base, &RecursionConfig::default())
                    .unwrap()
                    .len()
            })
        });
        group.bench_with_input(BenchmarkId::new("walk_then_filter", n), &base, |b, base| {
            b.iter(|| {
                let walks = recursive(
                    PathSemantics::Walk,
                    base,
                    &RecursionConfig::with_max_length(n),
                )
                .unwrap();
                walks.iter().filter(|p| p.is_trail()).count()
            })
        });
    }
    group.finish();
}

fn bench_projection_sort_shortcut(c: &mut Criterion) {
    let mut group = c.benchmark_group("ablation/projection_sort");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(800))
        .warm_up_time(Duration::from_millis(200));
    let graph = cycle(24);
    let base = knows_base(&graph);
    let trails = recursive(PathSemantics::Trail, &base, &RecursionConfig::default()).unwrap();
    let space = group_by(GroupKey::SourceTarget, &trails);
    let spec = ProjectionSpec::new(Take::All, Take::All, Take::Count(1));
    group.bench_function("project_without_order_by", |b| {
        b.iter(|| projection(&spec, &space).len())
    });
    group.bench_function("order_by_then_project", |b| {
        b.iter(|| projection(&spec, &order_by(OrderKey::Path, &space)).len())
    });
    group.finish();
}

fn bench_optimizer_on_off(c: &mut Criterion) {
    let f = figure1();
    let plan = translate(Selector::AllShortest, Restrictor::Walk, label_scan("Knows"));
    let optimized = Optimizer::new().optimize(&plan);
    let mut group = c.benchmark_group("ablation/optimizer_on_off");
    group
        .sample_size(20)
        .measurement_time(Duration::from_millis(600))
        .warm_up_time(Duration::from_millis(200));
    group.bench_function("all_shortest_walk_unoptimized_bounded", |b| {
        b.iter(|| {
            Evaluator::with_config(&f.graph, EvalConfig::with_walk_bound(6))
                .eval_paths(&plan)
                .unwrap()
                .len()
        })
    });
    group.bench_function("all_shortest_walk_rewritten_to_shortest", |b| {
        b.iter(|| {
            Evaluator::new(&f.graph)
                .eval_paths(&optimized)
                .unwrap()
                .len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_phi_implementations,
    bench_join_strategies,
    bench_restrictor_pushdown_vs_postfilter,
    bench_projection_sort_shortcut,
    bench_optimizer_on_off
);
criterion_main!(benches);
