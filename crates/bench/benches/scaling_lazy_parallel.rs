//! Scaling study — parallel lazy PMR enumeration (DESIGN.md §10) vs. the
//! serial PMR, swept over worker threads 1/2/4/8.
//!
//! Two workload families, both over the shapes PR 3/4 made output-sensitive
//! but left serial:
//!
//! * **SNB join-chain, partition-limited** — `(:Likes/:Has_creator)+` on a
//!   hub-creator SNB variant (fewer messages than persons, so creators are
//!   hubs), sliced as `π(64,*,3)(γST(ϕWalk≤10(⋈)))`. The partition limit
//!   closes inside a hub source whose own admitted groups fill quickly,
//!   while an earlier source has already exhausted with an admitted group
//!   below its cap (too few walks exist) — so the serial evaluation's
//!   *global* completion check stays blocked and it must expand the closing
//!   hub to exhaustion. The parallel workers' per-partition accounting
//!   (DESIGN.md §10) is per *source*: once the shared
//!   [`pathalg_core::budget::SliceBudget`] proves the limit closed, a worker
//!   stops the hub the moment the hub's own admitted groups fill. The cut
//!   holds at every thread count — which is what makes the series meaningful
//!   on a single-CPU container, where threads add scheduling cost but no
//!   cores (the same caveat BENCH_PR2 documents for the §7 engine).
//! * **K-graph closure** — the full two-hop trail closure of K4 (the
//!   join-chain kernel drain the engine dispatches every ϕ over a chain
//!   to): nothing to slice, so this family tracks the batch scheduler's
//!   overhead against the serial drain.
//!
//! Output equality between every series is pinned in
//! `tests/cross_validation.rs`; this bench measures the work.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_core::slice::SliceSpec;
use pathalg_graph::csr::CsrGraph;
use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg_graph::generator::structured::complete_graph;
use pathalg_graph::graph::PropertyGraph;
use pathalg_pmr::parallel::{self, ParallelConfig};
use pathalg_pmr::Pmr;
use std::sync::Arc;
use std::time::Duration;

const THREADS: [usize; 4] = [1, 2, 4, 8];

fn shared_hops(graph: &PropertyGraph, labels: &[&str]) -> Arc<[CsrGraph]> {
    labels
        .iter()
        .map(|l| CsrGraph::with_label(graph, l))
        .collect()
}

/// `π(64,*,3)(γST(ϕWalk≤10((:Likes/:Has_creator)+)))` on the hub-creator SNB
/// variant: the partition-limited slicing selector the parallel layer's
/// per-partition accounting was built for (see the module docs for why the
/// serial evaluation must over-expand here).
fn bench_snb_chain_partitions(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_lazy_parallel/snb_chain_partitions");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let cfg = RecursionConfig {
        max_length: Some(10),
        max_paths: None,
    };
    let spec = SliceSpec {
        group_key: GroupKey::SourceTarget,
        per_group: Some(3),
        max_partitions: Some(64),
        ordered_by_length: false,
    };
    for persons in [100usize, 200] {
        let graph = snb_like_graph(&SnbConfig {
            persons,
            messages: persons / 4,
            likes_per_person: 6,
            knows_per_person: 3,
            seed: 42,
            ..SnbConfig::default()
        });
        let hops = shared_hops(&graph, &["Likes", "Has_creator"]);
        group.bench_with_input(BenchmarkId::new("serial-pmr", persons), &hops, |b, hops| {
            b.iter(|| {
                let mut pmr = Pmr::from_shared_join(hops.clone(), PathSemantics::Walk, cfg);
                pmr.sliced(&spec).unwrap().len()
            })
        });
        for threads in THREADS {
            group.bench_with_input(
                BenchmarkId::new(format!("parallel-lazy/t{threads}"), persons),
                &hops,
                |b, hops| {
                    let factory = || Pmr::from_shared_join(hops.clone(), PathSemantics::Walk, cfg);
                    let sources = factory().sources();
                    let pc = ParallelConfig {
                        threads,
                        batch_size: 8,
                    };
                    b.iter(|| {
                        parallel::sliced(&factory, &spec, &sources, None, &pc, cfg.max_paths)
                            .unwrap()
                            .paths
                            .len()
                    })
                },
            );
        }
    }
    group.finish();
}

/// The full two-hop trail closure of K4 (21 000 trails): a root-ϕ chain
/// drain with nothing to slice, tracking the batch scheduler's overhead and
/// thread behaviour against the serial drain.
fn bench_kgraph_closure(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_lazy_parallel/kgraph_closure");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    let cfg = RecursionConfig {
        max_length: None,
        max_paths: None,
    };
    let n = 4usize;
    let graph = complete_graph(n, "k");
    let hops = shared_hops(&graph, &["k", "k"]);
    group.bench_with_input(BenchmarkId::new("serial-pmr", n), &hops, |b, hops| {
        b.iter(|| {
            let mut pmr = Pmr::from_shared_join(hops.clone(), PathSemantics::Trail, cfg);
            pmr.enumerate_all().unwrap().len()
        })
    });
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new(format!("parallel-lazy/t{threads}"), n),
            &hops,
            |b, hops| {
                let factory = || Pmr::from_shared_join(hops.clone(), PathSemantics::Trail, cfg);
                let sources = factory().sources();
                let pc = ParallelConfig {
                    threads,
                    batch_size: 1,
                };
                b.iter(|| {
                    parallel::enumerate_all(&factory, &sources, None, &pc, cfg.max_paths)
                        .unwrap()
                        .paths
                        .len()
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_snb_chain_partitions, bench_kgraph_closure);
criterion_main!(benches);
