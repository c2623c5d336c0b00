//! Parallel lazy PMR enumeration: per-source batch scheduling with a
//! deterministic batch-order merge.
//!
//! The §8/§9 expansions share no state across sources, so a lazy enumeration
//! parallelises the same way the materialising frontier engine does
//! (DESIGN.md §7): partition the source schedule into contiguous batches,
//! run **one independent batch-restricted [`Pmr`] per batch** on the scoped
//! thread pool (`vendor/mini_pool`), and merge per-batch output in batch
//! order. Because each batch enumerates its slice of the schedule in the
//! serial canonical order and batches are merged in schedule order, the
//! merged stream is **byte-identical to the serial PMR at every thread
//! count** — the contract `tests/cross_validation.rs` pins at 1/2/8 threads.
//!
//! Three mechanisms make the parallel run output-sensitive rather than
//! merely parallel:
//!
//! * **Shared path budget.** `max_paths` is enforced through one atomic
//!   [`PathBudget`] shared by all batch workers (each batch-restricted
//!   expansion claims candidates against it), so full drains keep the serial
//!   success/failure outcome — the total step count of a full enumeration is
//!   schedule-independent.
//! * **Shared slice budget.** Downstream limits close in canonical *prefix*
//!   order, so sliced workers publish per-batch partition/kept counts into a
//!   [`SliceBudget`] and stop whole sources (or their whole remaining batch)
//!   the moment the counts published by earlier batches prove the limits
//!   closed. The counts are lower bounds of the final prefix, which is the
//!   sound direction: the stop only ever skips work the merge would discard.
//! * **Per-partition group accounting.** Once the partition limit is
//!   provably closed, a worker needs only its *already-admitted* groups of
//!   the current source to fill before skipping it — a sharper stop than the
//!   serial evaluation's reachability requirement (which conservatively
//!   waits for every reachable group, including ones beyond the partition
//!   limit). On partition-limited γST workloads this is an asymptotic cut,
//!   independent of the thread count (measured by `scaling_lazy_parallel`).
//!
//! Batch boundaries come from [`plan_batches`]: per-source weights (seeded
//! by the engine's closure estimate — out-degree × estimated paths per base
//! element) are packed greedily so each batch carries roughly
//! `total / (threads × BATCHES_PER_THREAD)` weight, capped at the
//! configured `batch_size` sources. Heavy sources therefore land in small
//! (down to singleton) batches and cannot serialise the run; `mini_pool`'s
//! atomic-cursor scheduling steals whole batches.

pub use crate::join::source_schedule;
use crate::Pmr;
use mini_pool::parallel_map;
use pathalg_core::budget::{PathBudget, SliceBudget};
use pathalg_core::error::AlgebraError;
use pathalg_core::obs::WorkCounters;
use pathalg_core::ops::group_by::GroupKey;
use pathalg_core::path::Path;
use pathalg_core::pathset::PathSet;
use pathalg_core::slice::{PartitionKey, SliceCollector, SliceSpec, SliceState};
use pathalg_graph::ids::NodeId;
use std::ops::Range;
use std::sync::Arc;

/// Scheduling knobs of a parallel enumeration — the PMR-side mirror of the
/// engine's `ExecutionConfig { threads, batch_size }`.
#[derive(Clone, Copy, Debug)]
pub struct ParallelConfig {
    /// Worker threads (≤ 1 runs the batches inline, in order).
    pub threads: usize,
    /// Maximum number of sources per batch.
    pub batch_size: usize,
}

/// Weighted batch planning aims for this many batches per thread, so the
/// pool can steal work away from a batch that turned out heavy.
pub const BATCHES_PER_THREAD: usize = 4;

/// The outcome of a parallel run: the merged paths plus the work counters
/// the engine's `EvalStats` charge (summed over all batch workers).
#[derive(Debug)]
pub struct ParallelRun {
    /// The merged output, byte-identical to the serial enumeration.
    pub paths: PathSet,
    /// Total arena steps generated across all batches.
    pub steps_generated: usize,
    /// Merged work counters: per-batch expansion tallies summed in batch
    /// order, `budget_claimed` read once off the shared [`PathBudget`]
    /// (each batch sees the global tally, so summing would multiply-count),
    /// and for sliced runs the merge-side collector's partition/kept counts
    /// (the serial admission replay, deterministic at every thread count).
    /// On serial-parity schedules — full drains, and sliced specs without
    /// cross-source coupling (no partition limit, source-local group key) —
    /// [`WorkCounters::deterministic_line`] is byte-identical to the serial
    /// [`Pmr::work_counters`] at every thread count; the scheduling
    /// counters (`batches_scheduled`/`batches_merged`) are excluded from
    /// that subset.
    pub work: WorkCounters,
}

/// Splits `n` sources into contiguous batches. Without weights: fixed
/// chunks of `batch_size`. With weights (one per source, in schedule
/// order): greedy packing toward `total_weight / (threads ×
/// BATCHES_PER_THREAD)` per batch, still capped at `batch_size` sources —
/// so uniform schedules degrade to the unweighted plan while a source
/// predicted heavy closes its batch early and parallelises against the
/// rest of the schedule.
pub fn plan_batches(
    n: usize,
    weights: Option<&[u64]>,
    config: &ParallelConfig,
) -> Vec<Range<usize>> {
    let max_sources = config.batch_size.max(1);
    if n == 0 {
        return Vec::new();
    }
    let Some(weights) = weights else {
        return (0..n)
            .step_by(max_sources)
            .map(|s| s..(s + max_sources).min(n))
            .collect();
    };
    assert_eq!(weights.len(), n, "one weight per scheduled source");
    let total: u64 = weights.iter().map(|&w| w.max(1)).sum();
    let target_batches = (config.threads.max(1) * BATCHES_PER_THREAD) as u64;
    let target = (total / target_batches).max(1);
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut acc = 0u64;
    for (i, &w) in weights.iter().enumerate() {
        acc += w.max(1);
        if acc >= target || (i + 1 - start) >= max_sources {
            out.push(start..i + 1);
            start = i + 1;
            acc = 0;
        }
    }
    if start < n {
        out.push(start..n);
    }
    out
}

/// Drains the whole enumeration on `config.threads` workers and merges the
/// per-batch output in batch order — content- and order-identical to the
/// serial [`Pmr::enumerate_all`] at every thread count.
///
/// `factory` builds one fresh, unpulled [`Pmr`] per batch (σ-pushdown
/// already applied); `sources` is its schedule ([`source_schedule`], or
/// [`Pmr::sources`] of a prototype) and `weights`, when given, align with
/// it. `max_paths`
/// is enforced through one shared [`PathBudget`], so the success/failure
/// outcome matches the serial drain (the total step count of a full
/// enumeration is schedule-independent); the batch-order merge reports the
/// error of the earliest failing batch, which contains the earliest failing
/// source — the same error the serial enumeration raises. (As with the
/// frontier engine, when a run violates *two* bounds at once, which variant
/// surfaces first may depend on the schedule.)
pub fn enumerate_all<'g, F>(
    factory: &F,
    sources: &[NodeId],
    weights: Option<&[u64]>,
    config: &ParallelConfig,
    max_paths: Option<usize>,
) -> Result<ParallelRun, AlgebraError>
where
    F: Fn() -> Pmr<'g> + Sync,
{
    let batches = plan_batches(sources.len(), weights, config);
    let budget = Arc::new(PathBudget::new(max_paths));
    let results = parallel_map(config.threads, &batches, |_, range| {
        let mut pmr = factory();
        pmr.set_sources(sources[range.clone()].to_vec());
        pmr.share_budget(budget.clone());
        let mut paths = Vec::new();
        loop {
            match pmr.next_path() {
                Ok(Some(p)) => paths.push(p),
                Ok(None) => break,
                Err(e) => return Err(e),
            }
        }
        Ok((paths, pmr.steps_generated(), pmr.work_counters()))
    });

    let mut out = PathSet::new();
    let mut steps = 0usize;
    let mut work = WorkCounters {
        batches_scheduled: batches.len() as u64,
        ..WorkCounters::default()
    };
    for result in results {
        let (paths, batch_steps, mut batch_work) = result?;
        steps += batch_steps;
        // Every batch reads the same shared budget, so its tally is global
        // already — zero it before summing and set it once below.
        batch_work.budget_claimed = 0;
        work.merge(&batch_work);
        work.batches_merged += 1;
        for p in paths {
            out.insert(p);
        }
    }
    work.budget_claimed = budget.count() as u64;
    Ok(ParallelRun {
        paths: out,
        steps_generated: steps,
        work,
    })
}

/// Evaluates a recognised `π(τA?(γψ(ϕ(…))))` pipeline on `config.threads`
/// workers with the limits of `spec` pushed into every batch —
/// byte-identical to the serial [`Pmr::sliced`] at every thread count.
///
/// Each worker slices its batch locally (per-group caps are source-local
/// under ψ ∈ {S, ST}; the γ∅ global cap bounds each batch's contribution),
/// publishing partition/kept counts into a shared [`SliceBudget`] so later
/// batches stop as soon as the canonical prefix provably closes the limits;
/// the merge then replays partition admission exactly, in batch order,
/// through a [`SliceCollector`] with the caller's spec.
///
/// `max_paths` is enforced through one shared [`PathBudget`]. For specs
/// without cross-source coupling (no partition limit and a non-γ∅ key)
/// every worker expands its sources exactly as the serial evaluation does,
/// so the claim total — and with it the success/failure outcome — matches
/// the serial run exactly. Under a partition limit or a γ∅ cap the serial
/// evaluation stops mid-schedule while workers may expand (and claim for)
/// sources it never reaches; callers wanting exact claim parity for those
/// coupled specs must route `max_paths`-bounded runs to [`Pmr::sliced`] —
/// the engine's strategy chooser does.
/// The same reasoning bounds error parity: expansion errors are reported
/// exactly for uncoupled specs (workers visit what the serial run visits),
/// while for coupled specs a later batch's error is dropped when the merge
/// shows the serial evaluation stops first — an approximation, so callers
/// wanting exact *error* parity for configurations that can fail
/// (unbounded Walk, `max_paths`) must route them serially, as the engine's
/// eligibility rules ([`pathalg_core::slice::SlicePlan::lazy_eligible`] and
/// the strategy chooser) already do.
pub fn sliced<'g, F>(
    factory: &F,
    spec: &SliceSpec,
    sources: &[NodeId],
    weights: Option<&[u64]>,
    config: &ParallelConfig,
    max_paths: Option<usize>,
) -> Result<ParallelRun, AlgebraError>
where
    F: Fn() -> Pmr<'g> + Sync,
{
    let batches = plan_batches(sources.len(), weights, config);
    let source_partitioned = spec.group_key.partitions_by_source();
    let budget = SliceBudget::new(
        batches.len(),
        if source_partitioned {
            spec.max_partitions
        } else {
            None
        },
        if spec.group_key == GroupKey::Empty {
            spec.per_group
        } else {
            None
        },
    );
    let path_budget = Arc::new(PathBudget::new(max_paths));
    let results = parallel_map(config.threads, &batches, |i, range| {
        let mut pmr = factory();
        pmr.set_sources(sources[range.clone()].to_vec());
        pmr.share_budget(path_budget.clone());
        let kept = drive_batch(&mut pmr, spec, &budget, i);
        kept.map(|paths| (paths, pmr.steps_generated(), pmr.work_counters()))
    });

    let mut collector = SliceCollector::new(spec);
    let mut complete = false;
    let mut steps = 0usize;
    let mut work = WorkCounters {
        batches_scheduled: batches.len() as u64,
        ..WorkCounters::default()
    };
    for result in results {
        match result {
            Ok((paths, batch_steps, mut batch_work)) => {
                steps += batch_steps;
                batch_work.budget_claimed = 0;
                work.merge(&batch_work);
                work.batches_merged += 1;
                if complete {
                    continue;
                }
                for p in paths {
                    if collector.offer(p) == SliceState::Complete {
                        complete = true;
                        break;
                    }
                }
            }
            // A batch error the serial evaluation would never reach (the
            // kept set completed, or the partition limit closed, on an
            // earlier batch) is dropped with the rest of the batch's output.
            Err(e) => {
                let serial_reaches =
                    !complete && (!source_partitioned || collector.accepts_new_partition());
                if serial_reaches {
                    return Err(e);
                }
            }
        }
    }
    work.budget_claimed = path_budget.count() as u64;
    // The merge-side collector replays the serial admission, so its
    // partition/kept counts are the deterministic ones (the per-batch
    // tallies never see the global partition limit).
    work.partitions_opened = collector.partition_count() as u64;
    let paths = collector.finish();
    work.paths_kept = paths.len() as u64;
    Ok(ParallelRun {
        paths,
        steps_generated: steps,
        work,
    })
}

/// Count-only view of a batch worker's kept groups: the worker never needs
/// the kept *paths* for its stop decisions (the merge re-derives admission
/// from the paths themselves), so it tracks per-group cardinalities in a
/// plain map instead of cloning every kept path into a [`SliceCollector`].
#[derive(Default)]
struct LocalGroups {
    counts: std::collections::HashMap<PartitionKey, usize>,
}

impl LocalGroups {
    fn would_keep(&self, key: &PartitionKey, per_group: Option<usize>) -> bool {
        match self.counts.get(key) {
            Some(&n) => per_group.is_none_or(|k| n < k),
            None => true,
        }
    }

    /// Records a kept path; true if this opened a new group.
    fn keep(&mut self, key: PartitionKey) -> bool {
        let n = self.counts.entry(key).or_insert(0);
        *n += 1;
        *n == 1
    }

    fn is_full(&self, key: &PartitionKey, per_group: Option<usize>) -> bool {
        per_group.is_some_and(|k| self.counts.get(key).copied().unwrap_or(0) >= k)
    }
}

/// One batch worker's sliced enumeration: the serial [`Pmr::sliced`] loop
/// with the partition limit lifted locally (the merge replays admission) and
/// the shared-budget stops of the module docs layered in.
fn drive_batch(
    pmr: &mut Pmr<'_>,
    spec: &SliceSpec,
    budget: &SliceBudget,
    batch: usize,
) -> Result<Vec<Path>, AlgebraError> {
    let per_group = spec.per_group;
    let mut groups = LocalGroups::default();
    let source_partitioned = spec.group_key.partitions_by_source();
    // The partition limit closes monotonically (SliceBudget counters only
    // grow), so once observed closed the prefix scan is never repeated.
    let mut closed = false;
    let partitions_closed = |closed: &mut bool, local_opened: usize| {
        if !*closed {
            *closed = budget.partitions_closed(batch, local_opened);
        }
        *closed
    };
    let mut cur_source: Option<NodeId> = None;
    let mut requirements: Vec<PartitionKey> = Vec::new();
    // Partitions the current source has opened locally — the ones that must
    // fill before the sharp (partition-closed) stop may skip the source.
    let mut src_keys: Vec<PartitionKey> = Vec::new();
    let mut local_opened = 0usize;
    let mut out: Vec<Path> = Vec::new();

    while let Some(emit) = pmr.next_emit()? {
        if cur_source != Some(emit.source) {
            cur_source = Some(emit.source);
            // Demand propagation: limits provably closed by the canonical
            // prefix mean nothing from this or any later source survives
            // the merge.
            if source_partitioned && partitions_closed(&mut closed, local_opened) {
                break;
            }
            if spec.group_key == GroupKey::Empty && budget.kept_complete(batch) {
                break;
            }
            requirements = pmr.requirements_for(emit.source, spec);
            src_keys.clear();
        }
        let key: PartitionKey = (
            spec.group_key.partitions_by_source().then_some(emit.source),
            spec.group_key.partitions_by_target().then_some(emit.last),
        );
        if groups.would_keep(&key, per_group) {
            out.push(pmr.realize(&emit));
            budget.keep_path(batch);
            if groups.keep(key) {
                src_keys.push(key);
                local_opened += 1;
                budget.open_partition(batch);
            }
            // γ∅ has one group: its cap filling completes the batch.
            if spec.group_key == GroupKey::Empty && groups.is_full(&key, per_group) {
                break;
            }
        } else {
            pmr.note_slice_skip();
        }
        if per_group.is_some() {
            let source_done = match spec.group_key {
                GroupKey::Source => groups.is_full(&(Some(emit.source), None), per_group),
                GroupKey::SourceTarget => {
                    if partitions_closed(&mut closed, local_opened) {
                        // Per-partition accounting: no further group of this
                        // source can be admitted, so only the already-opened
                        // ones need to fill — sharper than the serial
                        // evaluation, whose global completion check waits for
                        // every kept group (and whose reachability
                        // requirement waits for every reachable one).
                        src_keys.iter().all(|k| groups.is_full(k, per_group))
                    } else {
                        !requirements.is_empty()
                            && requirements.iter().all(|k| groups.is_full(k, per_group))
                    }
                }
                _ => false,
            };
            if source_done {
                pmr.skip_source();
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
    use pathalg_graph::csr::CsrGraph;
    use pathalg_graph::generator::structured::{complete_graph, cycle_graph};

    fn config(threads: usize, batch_size: usize) -> ParallelConfig {
        ParallelConfig {
            threads,
            batch_size,
        }
    }

    #[test]
    fn unweighted_batches_are_fixed_chunks() {
        let plan = plan_batches(7, None, &config(4, 3));
        assert_eq!(plan, vec![0..3, 3..6, 6..7]);
        assert!(plan_batches(0, None, &config(4, 3)).is_empty());
        // batch_size 0 is clamped to singleton batches.
        assert_eq!(plan_batches(2, None, &config(1, 0)), vec![0..1, 1..2]);
    }

    #[test]
    fn weighted_batches_isolate_heavy_sources() {
        // One dominating source closes its batch immediately; the light
        // tail is packed toward the per-batch target.
        let weights = vec![1u64, 1, 1000, 1, 1, 1, 1, 1];
        let plan = plan_batches(8, Some(&weights), &config(2, 8));
        assert!(plan.len() >= 2, "heavy source must not absorb the schedule");
        let heavy = plan.iter().find(|r| r.contains(&2)).unwrap();
        assert_eq!(heavy.end, 3, "the heavy source closes its batch");
        // Coverage: the ranges tile 0..8 contiguously.
        let mut next = 0;
        for r in &plan {
            assert_eq!(r.start, next);
            next = r.end;
        }
        assert_eq!(next, 8);
        // Source caps still apply under weights.
        let uniform = vec![1u64; 10];
        for r in plan_batches(10, Some(&uniform), &config(1, 2)) {
            assert!(r.len() <= 2);
        }
    }

    #[test]
    fn source_schedule_is_the_restricted_prototype_schedule() {
        use crate::EndpointFilter;
        // Node 0 has no out-edge on a chain's last node; the mask drops two
        // more. The schedule derived from hop 0 must equal what an unpulled,
        // equally restricted expansion would report.
        let g = pathalg_graph::generator::structured::chain_graph(6, "k");
        let csr = Arc::new(CsrGraph::with_label(&g, "k"));
        let cfg = RecursionConfig::default();
        let keep = vec![true, false, true, true, false, true];
        for mask in [None, Some(keep)] {
            let mut proto = Pmr::from_shared_csr(csr.clone(), PathSemantics::Trail, cfg);
            proto.restrict_endpoints(EndpointFilter {
                sources: mask.clone(),
                targets: None,
            });
            assert_eq!(source_schedule(&csr, mask.as_deref()), proto.sources());
        }
        assert_eq!(source_schedule(&csr, None).len(), 5);
    }

    #[test]
    fn parallel_enumerate_matches_serial_byte_for_byte() {
        let g = complete_graph(5, "k");
        let csr = Arc::new(CsrGraph::with_label(&g, "k"));
        let cfg = RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        };
        let serial = Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg)
            .enumerate_all()
            .unwrap();
        for threads in [1usize, 2, 8] {
            let factory = || Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg);
            let proto = factory();
            let run = enumerate_all(
                &factory,
                &proto.sources(),
                None,
                &config(threads, 2),
                cfg.max_paths,
            )
            .unwrap();
            assert_eq!(run.paths.as_slice(), serial.as_slice(), "t={threads}");
            assert!(run.steps_generated > 0);
        }
    }

    #[test]
    fn shared_budget_reproduces_the_serial_max_paths_outcome() {
        let g = complete_graph(5, "k");
        let csr = Arc::new(CsrGraph::with_label(&g, "k"));
        let cfg = RecursionConfig {
            max_length: Some(3),
            max_paths: Some(10),
        };
        let serial = Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg).enumerate_all();
        assert_eq!(serial, Err(AlgebraError::ResultLimitExceeded { limit: 10 }));
        for threads in [1usize, 4] {
            let factory = || Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg);
            let proto = factory();
            let out = enumerate_all(
                &factory,
                &proto.sources(),
                None,
                &config(threads, 1),
                cfg.max_paths,
            );
            assert!(matches!(
                out,
                Err(AlgebraError::ResultLimitExceeded { limit: 10 })
            ));
        }
    }

    #[test]
    fn unbounded_walk_errors_match_the_serial_error_value() {
        let g = cycle_graph(4, "k");
        let csr = Arc::new(CsrGraph::with_label(&g, "k"));
        let cfg = RecursionConfig::unbounded();
        let serial = Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg).enumerate_all();
        let serial_err = serial.unwrap_err();
        for threads in [1usize, 2, 8] {
            let factory = || Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg);
            let proto = factory();
            let err = enumerate_all(&factory, &proto.sources(), None, &config(threads, 1), None)
                .unwrap_err();
            assert_eq!(err, serial_err, "t={threads}");
        }
    }

    #[test]
    fn parallel_sliced_matches_serial_sliced_byte_for_byte() {
        let g = complete_graph(6, "a");
        let csr = Arc::new(CsrGraph::with_label(&g, "a"));
        let cfg = RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        };
        for spec in [
            // SHORTEST 1 per endpoint pair.
            SliceSpec {
                group_key: GroupKey::SourceTarget,
                per_group: Some(1),
                max_partitions: None,
                ordered_by_length: true,
            },
            // First 2 partitions × 2 paths, source-partitioned.
            SliceSpec {
                group_key: GroupKey::Source,
                per_group: Some(2),
                max_partitions: Some(2),
                ordered_by_length: false,
            },
            // Partition-limited endpoint pairs — the sharp-stop shape.
            SliceSpec {
                group_key: GroupKey::SourceTarget,
                per_group: Some(1),
                max_partitions: Some(3),
                ordered_by_length: false,
            },
            // γ∅ global prefix.
            SliceSpec {
                group_key: GroupKey::Empty,
                per_group: Some(5),
                max_partitions: None,
                ordered_by_length: false,
            },
        ] {
            let expected = Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg)
                .sliced(&spec)
                .unwrap();
            for threads in [1usize, 2, 8] {
                let factory = || Pmr::from_shared_csr(csr.clone(), PathSemantics::Walk, cfg);
                let proto = factory();
                let run = sliced(
                    &factory,
                    &spec,
                    &proto.sources(),
                    None,
                    &config(threads, 2),
                    cfg.max_paths,
                )
                .unwrap();
                assert_eq!(
                    run.paths.as_slice(),
                    expected.as_slice(),
                    "{spec:?} t={threads}"
                );
            }
        }
    }
}
