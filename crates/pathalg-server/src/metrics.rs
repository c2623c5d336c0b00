//! Service counters: cheap, always-on, and the observability the concurrency
//! tests assert against (e.g. "a deduplicated 8-way herd ran exactly one
//! evaluation" is `snapshot().executions == 1`).
//!
//! Three kinds of signal live here (DESIGN.md §13):
//!
//! * **Monotonic counters** — request outcomes (served, executions, cache
//!   hits/misses, dedup hits, admission rejections, timeouts,
//!   cancellations, panics, sheds) in one table of relaxed atomics indexed
//!   by `Counter` and bumped by one `inc`, plus per-surface request
//!   tallies. The service's one request finish counts the outcomes; the
//!   counters that tests fence on are counted where their action happens
//!   (DESIGN.md §13).
//! * **Stage latency histograms** — one fixed-bucket
//!   [`LatencyHistogram`] per pipeline [`Stage`], recorded by the service on
//!   every request (and by the protocol layer for render).
//! * **Work totals** — the deterministic [`WorkCounters`] of every leader
//!   evaluation, folded into service-lifetime totals.
//!
//! Every read goes through [`Metrics::snapshot`]: the cloneable
//! [`MetricsSnapshot`] the `STATS` wire command renders (single line), and
//! whose [`MetricsSnapshot::expose`] is the multi-line Prometheus-style
//! text the `METRICS` command serves. Both render the counters from one
//! name table.

use pathalg_core::obs::{HistogramSnapshot, LatencyHistogram, Stage, WorkCounters};
use pathalg_parser::QuerySurface;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The request counters of [`Metrics`], one slot each in its counter
/// table, in `STATS` and `METRICS` order. Every read goes through
/// [`Metrics::snapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Counter {
    /// Requests answered successfully (leaders and waiters alike).
    Served,
    /// Evaluations actually started — the number a deduplicated herd keeps
    /// at one.
    Executions,
    /// Plan-cache hits (optimize and closure estimates skipped).
    CacheHits,
    /// Plan-cache misses (full planning ran).
    CacheMisses,
    /// Requests that joined an in-flight identical query instead of
    /// executing.
    DedupHits,
    /// Requests refused at admission (never started enumerating).
    AdmissionRejected,
    /// Requests whose deadline fired before evaluation finished.
    Timeouts,
    /// Requests aborted by explicit cancellation (not deadline expiry).
    Cancelled,
    /// Leader evaluations that panicked and were isolated.
    Panicked,
    /// Requests shed at the concurrency cap before execution started.
    Shed,
}

/// Number of [`Counter`] variants.
const COUNTERS: usize = Counter::Shed as usize + 1;

/// Monotonic counters of one [`crate::service::QueryService`].
///
/// All counters use relaxed atomics — they are tallies, not synchronisation.
/// The one ordering guarantee the tests rely on is causal: a counter is
/// incremented *before* the action it counts (e.g. `dedup_hits` before a
/// waiter blocks, `executions` before the leader evaluates), so an observer
/// that sees the action's effect also sees the count.
#[derive(Debug, Default)]
pub struct Metrics {
    counters: [AtomicU64; COUNTERS],
    /// Open protocol connections (a gauge: up on accept, down on hang-up).
    connections: AtomicU64,
    /// `f64::to_bits` of the estimate that drove the most recent rejection
    /// (valid only when `admission_rejected > 0`).
    rejected_estimate_bits: AtomicU64,
    /// `f64::to_bits` of the ceiling that rejection was measured against.
    rejected_ceiling_bits: AtomicU64,
    by_surface: [AtomicU64; QuerySurface::ALL.len()],
    stage_latency: [LatencyHistogram; Stage::ALL.len()],
    work: WorkTotals,
}

/// Atomic mirror of [`WorkCounters`], in the same field order. The last
/// slot is `arena_bytes_peak`, which folds in with `fetch_max` (it is a peak
/// gauge, not a tally).
#[derive(Debug, Default)]
struct WorkTotals([AtomicU64; 9]);

/// Index of the `arena_bytes_peak` slot, the one max-merged entry.
const ARENA_BYTES_PEAK_SLOT: usize = 8;

impl WorkTotals {
    fn values(w: &WorkCounters) -> [u64; 9] {
        [
            w.arena_steps,
            w.base_segments,
            w.paths_emitted,
            w.paths_skipped,
            w.sources_abandoned,
            w.budget_claimed,
            w.partitions_opened,
            w.paths_kept,
            w.arena_bytes_peak,
        ]
    }

    fn record(&self, w: &WorkCounters) {
        for (i, (slot, v)) in self.0.iter().zip(Self::values(w)).enumerate() {
            if i == ARENA_BYTES_PEAK_SLOT {
                slot.fetch_max(v, Ordering::Relaxed);
            } else {
                slot.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    fn snapshot(&self) -> WorkCounters {
        let v: Vec<u64> = self.0.iter().map(|s| s.load(Ordering::Relaxed)).collect();
        WorkCounters {
            arena_steps: v[0],
            base_segments: v[1],
            paths_emitted: v[2],
            paths_skipped: v[3],
            sources_abandoned: v[4],
            budget_claimed: v[5],
            partitions_opened: v[6],
            paths_kept: v[7],
            arena_bytes_peak: v[8],
        }
    }
}

impl Metrics {
    /// Counts one more of `counter`.
    pub(crate) fn inc(&self, counter: Counter) {
        self.counters[counter as usize].fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejection together with the estimate that condemned it and
    /// the ceiling it exceeded, so the `METRICS` surface can report
    /// observed-vs-ceiling without re-running the estimator.
    pub(crate) fn inc_admission_rejected(&self, estimated_paths: f64, ceiling: f64) {
        self.rejected_estimate_bits
            .store(estimated_paths.to_bits(), Ordering::Relaxed);
        self.rejected_ceiling_bits
            .store(ceiling.to_bits(), Ordering::Relaxed);
        self.inc(Counter::AdmissionRejected);
    }

    pub(crate) fn connection_opened(&self) {
        self.connections.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn connection_closed(&self) {
        self.connections.fetch_sub(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_surface(&self, surface: QuerySurface) {
        self.by_surface[surface.index()].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_stage(&self, stage: Stage, span: Duration) {
        self.stage_latency[stage as usize].record(span);
    }

    pub(crate) fn record_work(&self, work: &WorkCounters) {
        self.work.record(work);
    }

    /// A cloneable point-in-time copy of every counter — what the `STATS`
    /// command renders and what tests compare before/after a workload.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let count = |counter: Counter| self.counters[counter as usize].load(Ordering::Relaxed);
        let admission_rejected = count(Counter::AdmissionRejected);
        MetricsSnapshot {
            served: count(Counter::Served),
            executions: count(Counter::Executions),
            cache_hits: count(Counter::CacheHits),
            cache_misses: count(Counter::CacheMisses),
            dedup_hits: count(Counter::DedupHits),
            admission_rejected,
            timeouts: count(Counter::Timeouts),
            cancelled: count(Counter::Cancelled),
            panicked: count(Counter::Panicked),
            shed: count(Counter::Shed),
            connections: self.connections.load(Ordering::Relaxed),
            last_rejection: (admission_rejected > 0).then(|| {
                (
                    f64::from_bits(self.rejected_estimate_bits.load(Ordering::Relaxed)),
                    f64::from_bits(self.rejected_ceiling_bits.load(Ordering::Relaxed)),
                )
            }),
            by_surface: std::array::from_fn(|i| self.by_surface[i].load(Ordering::Relaxed)),
            stages: std::array::from_fn(|i| self.stage_latency[i].snapshot()),
            work: self.work.snapshot(),
        }
    }

    /// The Prometheus-style text exposition the `METRICS` wire command
    /// serves: `# TYPE`-annotated counters, per-surface request counts, the
    /// deterministic work totals, and one cumulative latency histogram per
    /// pipeline stage.
    pub fn expose(&self) -> String {
        self.snapshot().expose()
    }
}

impl fmt::Display for Metrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.snapshot().fmt(f)
    }
}

/// A cloneable point-in-time copy of a service's [`Metrics`].
///
/// `Display` is deliberately single-line — the `STATS` wire response is one
/// line — while [`MetricsSnapshot::expose`] is the multi-line exposition.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests answered successfully.
    pub served: u64,
    /// Evaluations actually started.
    pub executions: u64,
    /// Plan-cache hits.
    pub cache_hits: u64,
    /// Plan-cache misses.
    pub cache_misses: u64,
    /// Requests coalesced onto an in-flight evaluation.
    pub dedup_hits: u64,
    /// Requests refused at admission.
    pub admission_rejected: u64,
    /// Requests whose deadline fired before evaluation finished.
    pub timeouts: u64,
    /// Requests aborted by explicit cancellation.
    pub cancelled: u64,
    /// Leader evaluations that panicked and were isolated.
    pub panicked: u64,
    /// Requests shed at the concurrency cap.
    pub shed: u64,
    /// Protocol connections open at the snapshot.
    pub connections: u64,
    /// `(estimated paths, ceiling)` of the most recent rejection.
    pub last_rejection: Option<(f64, f64)>,
    /// Per-surface request counts, indexed by [`QuerySurface::index`].
    pub by_surface: [u64; QuerySurface::ALL.len()],
    /// Per-stage latency histograms, indexed by [`Stage`] order.
    pub stages: [HistogramSnapshot; Stage::ALL.len()],
    /// Deterministic work totals of every leader evaluation.
    pub work: WorkCounters,
}

impl MetricsSnapshot {
    /// The request counters in [`Counter`] order, each with its `STATS` key
    /// and its `METRICS` name: the one table both renderings read.
    fn counters(&self) -> [(&'static str, &'static str, u64); COUNTERS] {
        [
            ("served", "pathalg_requests_served_total", self.served),
            ("executions", "pathalg_executions_total", self.executions),
            (
                "cache_hits",
                "pathalg_plan_cache_hits_total",
                self.cache_hits,
            ),
            (
                "cache_misses",
                "pathalg_plan_cache_misses_total",
                self.cache_misses,
            ),
            ("dedup_hits", "pathalg_dedup_hits_total", self.dedup_hits),
            (
                "admission_rejected",
                "pathalg_admission_rejected_total",
                self.admission_rejected,
            ),
            ("timeouts", "pathalg_requests_timeout_total", self.timeouts),
            (
                "cancelled",
                "pathalg_requests_cancelled_total",
                self.cancelled,
            ),
            ("panicked", "pathalg_requests_panicked_total", self.panicked),
            ("shed", "pathalg_requests_shed_total", self.shed),
        ]
    }

    /// The latency snapshot of one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// The Prometheus-style multi-line exposition (see
    /// [`Metrics::expose`]).
    pub fn expose(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        for (_, name, value) in self.counters() {
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        if let Some((estimate, ceiling)) = self.last_rejection {
            let _ = writeln!(out, "# TYPE pathalg_admission_last_estimate_paths gauge");
            let _ = writeln!(out, "pathalg_admission_last_estimate_paths {estimate}");
            let _ = writeln!(out, "# TYPE pathalg_admission_last_ceiling gauge");
            let _ = writeln!(out, "pathalg_admission_last_ceiling {ceiling}");
        }
        let _ = writeln!(out, "# TYPE pathalg_connections gauge");
        let _ = writeln!(out, "pathalg_connections {}", self.connections);
        let _ = writeln!(out, "# TYPE pathalg_requests_total counter");
        for surface in QuerySurface::ALL {
            let _ = writeln!(
                out,
                "pathalg_requests_total{{surface=\"{}\"}} {}",
                surface.metric_label(),
                self.by_surface[surface.index()]
            );
        }
        let _ = writeln!(out, "# TYPE pathalg_work_total counter");
        let work: [(&str, u64); 8] = [
            ("arena_steps", self.work.arena_steps),
            ("base_segments", self.work.base_segments),
            ("paths_emitted", self.work.paths_emitted),
            ("paths_skipped", self.work.paths_skipped),
            ("sources_abandoned", self.work.sources_abandoned),
            ("budget_claimed", self.work.budget_claimed),
            ("partitions_opened", self.work.partitions_opened),
            ("paths_kept", self.work.paths_kept),
        ];
        for (counter, value) in work {
            let _ = writeln!(out, "pathalg_work_total{{counter=\"{counter}\"}} {value}");
        }
        let _ = writeln!(out, "# TYPE pathalg_arena_bytes_peak gauge");
        let _ = writeln!(
            out,
            "pathalg_arena_bytes_peak {}",
            self.work.arena_bytes_peak
        );
        let _ = writeln!(out, "# TYPE pathalg_stage_latency_ns histogram");
        for stage in Stage::ALL {
            self.stage(stage).expose_into(
                "pathalg_stage_latency_ns",
                &format!("stage=\"{stage}\""),
                &mut out,
            );
        }
        out
    }
}

impl fmt::Display for MetricsSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (key, _, value)) in self.counters().into_iter().enumerate() {
            let sep = if i > 0 { " " } else { "" };
            write!(f, "{sep}{key}={value}")?;
        }
        for surface in QuerySurface::ALL {
            write!(
                f,
                " {}={}",
                surface.metric_label(),
                self.by_surface[surface.index()]
            )?;
        }
        write!(f, " work[{}]", self.work)?;
        write!(f, " latency[")?;
        for (i, stage) in Stage::ALL.into_iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{}={}", stage, self.stage(stage).count)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_cloneable_and_single_line() {
        let m = Metrics::default();
        m.inc(Counter::Served);
        m.inc_surface(QuerySurface::Rpq);
        m.record_stage(Stage::Parse, Duration::from_nanos(100));
        m.record_work(&WorkCounters {
            arena_steps: 7,
            ..WorkCounters::default()
        });
        let snap = m.snapshot();
        let copy = snap.clone();
        assert_eq!(snap, copy);
        let line = snap.to_string();
        assert!(!line.contains('\n'), "STATS framing is one line: {line}");
        assert!(line.contains("served=1"), "{line}");
        assert!(line.contains("rpq=1"), "{line}");
        assert!(line.contains("steps=7"), "{line}");
        assert!(line.contains("parse=1"), "{line}");
    }

    #[test]
    fn robustness_outcomes_are_counted_and_exposed() {
        let m = Metrics::default();
        m.inc(Counter::Timeouts);
        m.inc(Counter::Timeouts);
        m.inc(Counter::Cancelled);
        m.inc(Counter::Panicked);
        m.inc(Counter::Shed);
        assert_eq!(m.snapshot().timeouts, 2);
        assert_eq!(m.snapshot().cancelled, 1);
        assert_eq!(m.snapshot().panicked, 1);
        assert_eq!(m.snapshot().shed, 1);
        let text = m.expose();
        assert!(text.contains("pathalg_requests_timeout_total 2"), "{text}");
        assert!(
            text.contains("pathalg_requests_cancelled_total 1"),
            "{text}"
        );
        assert!(text.contains("pathalg_requests_panicked_total 1"), "{text}");
        assert!(text.contains("pathalg_requests_shed_total 1"), "{text}");
        m.connection_opened();
        m.connection_opened();
        m.connection_closed();
        assert_eq!(m.snapshot().connections, 1);
        assert!(m.expose().contains("pathalg_connections 1"));
        let line = m.snapshot().to_string();
        assert!(line.contains("timeouts=2"), "{line}");
        assert!(line.contains("shed=1"), "{line}");
        assert!(!line.contains('\n'), "STATS framing is one line: {line}");
    }

    #[test]
    fn rejection_evidence_is_recorded_with_the_counter() {
        let m = Metrics::default();
        assert_eq!(m.snapshot().last_rejection, None);
        m.inc_admission_rejected(123456.0, 1000.0);
        assert_eq!(m.snapshot().admission_rejected, 1);
        assert_eq!(m.snapshot().last_rejection, Some((123456.0, 1000.0)));
        let exposed = m.expose();
        assert!(
            exposed.contains("pathalg_admission_last_estimate_paths 123456"),
            "{exposed}"
        );
        assert!(
            exposed.contains("pathalg_admission_last_ceiling 1000"),
            "{exposed}"
        );
    }

    #[test]
    fn exposition_has_surfaces_work_and_stage_histograms() {
        let m = Metrics::default();
        m.inc_surface(QuerySurface::Gql);
        m.record_stage(Stage::Execute, Duration::from_nanos(900));
        m.record_work(&WorkCounters {
            paths_kept: 3,
            ..WorkCounters::default()
        });
        m.record_work(&WorkCounters {
            arena_bytes_peak: 4096,
            paths_kept: 2,
            ..WorkCounters::default()
        });
        m.record_work(&WorkCounters {
            arena_bytes_peak: 1024,
            paths_kept: 2,
            ..WorkCounters::default()
        });
        let text = m.expose();
        assert!(
            text.contains("pathalg_requests_total{surface=\"gql\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pathalg_arena_bytes_peak 4096"),
            "peak folds in by max, not sum: {text}"
        );
        assert!(
            text.contains("pathalg_requests_total{surface=\"ir\"} 0"),
            "{text}"
        );
        assert!(
            text.contains("pathalg_work_total{counter=\"paths_kept\"} 7"),
            "tallies add across records: {text}"
        );
        assert!(
            text.contains("pathalg_stage_latency_ns_bucket{stage=\"execute\",le=\"1023\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("pathalg_stage_latency_ns_count{stage=\"execute\"} 1"),
            "{text}"
        );
        // Every line is a comment or `name{labels} value` — parseable.
        for line in text.lines() {
            assert!(
                line.starts_with('#') || line.split(' ').count() == 2,
                "unparseable line: {line}"
            );
        }
    }
}
