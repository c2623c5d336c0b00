//! Scaling study — the query service layer (DESIGN.md §11): plan cache and
//! in-flight deduplication.
//!
//! Three scenarios over the same recursive trail query on SNB-shaped graphs:
//!
//! * `cold_plan` — every iteration bumps the stats epoch first, so the plan
//!   cache entry is stale and `prepare` pays the full optimize→cost→closure
//!   estimation pipeline (plus the stats recomputation the bump implies).
//! * `warm_cache` — `prepare` of the same query at a stable epoch: two
//!   cache lookups. Expected orders of magnitude below `cold_plan` — that
//!   gap is exactly what the plan cache saves every repeat request.
//! * `dedup/solo` vs `dedup/herd8` — one submitter vs 8 threads submitting
//!   the identical query concurrently. The wait-map coalesces the herd onto
//!   one leader evaluation, so the herd's wall-clock should sit near the
//!   solo latency (≈1× the work), not near 8× of it.
//!
//! The engine runs single-threaded here so the herd comparison measures
//! deduplication, not intra-query parallelism.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pathalg_bench::snb;
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_server::{QueryService, ServiceConfig};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// The workload: an unanchored bounded trail closure — enough evaluation
/// work that coalescing a herd onto one leader is visible.
const QUERY: &str = "MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)";

const SCALES: [usize; 2] = [200, 800];

fn service(persons: usize) -> Arc<QueryService> {
    let graph = Arc::new(snb(persons));
    // Keep the closure finite and the admission gate out of the measurement:
    // this bench times the service plumbing, not rejection.
    let config = ServiceConfig {
        recursion: RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        },
        admission_ceiling: None,
        ..ServiceConfig::default()
    };
    Arc::new(QueryService::new(graph, config))
}

fn bench_plan_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_service/plan_cache");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    for persons in SCALES {
        let svc = service(persons);
        group.bench_with_input(BenchmarkId::new("cold_plan", persons), &svc, |b, svc| {
            b.iter(|| {
                // A fresh epoch invalidates the cached plan, so prepare pays
                // stats recomputation + optimize/cost/closure estimation.
                svc.bump_epoch();
                svc.prepare(QUERY).unwrap().0.closures.len()
            })
        });
        svc.prepare(QUERY).unwrap();
        group.bench_with_input(BenchmarkId::new("warm_cache", persons), &svc, |b, svc| {
            b.iter(|| svc.prepare(QUERY).unwrap().0.closures.len())
        });
    }
    group.finish();
}

fn bench_dedup_herd(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_service/dedup");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(150));
    for persons in SCALES {
        let svc = service(persons);
        svc.submit(QUERY).unwrap();
        group.bench_with_input(BenchmarkId::new("solo", persons), &svc, |b, svc| {
            b.iter(|| svc.submit(QUERY).unwrap().outcome.path_count)
        });
        group.bench_with_input(BenchmarkId::new("herd8", persons), &svc, |b, svc| {
            b.iter(|| {
                thread::scope(|scope| {
                    let workers: Vec<_> = (0..8)
                        .map(|_| scope.spawn(|| svc.submit(QUERY).unwrap().outcome.path_count))
                        .collect();
                    workers
                        .into_iter()
                        .map(|w| w.join().expect("herd submitter panicked"))
                        .sum::<usize>()
                })
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_plan_cache, bench_dedup_herd);
criterion_main!(benches);
