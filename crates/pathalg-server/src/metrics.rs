//! Service counters: cheap, always-on, and the observability the concurrency
//! tests assert against (e.g. "a deduplicated 8-way herd ran exactly one
//! evaluation" is `executions() == 1`).
//!
//! Three kinds of signal live here (DESIGN.md §13):
//!
//! * **Monotonic counters** — request outcomes (served, executions, cache
//!   hits/misses, dedup hits, admission rejections) plus per-surface request
//!   tallies, all relaxed atomics.
//! * **Stage latency histograms** — one fixed-bucket
//!   [`LatencyHistogram`] per pipeline [`Stage`], recorded by the service on
//!   every request (and by the protocol layer for render).
//! * **Work totals** — the deterministic [`WorkCounters`] of every leader
//!   evaluation, folded into service-lifetime totals.
//!
//! [`Metrics::snapshot`] yields the cloneable [`MetricsSnapshot`] the
//! `STATS` wire command renders (single line), and [`Metrics::expose`]
//! renders the multi-line Prometheus-style text the `METRICS` command
//! serves.

use pathalg_core::obs::{HistogramSnapshot, LatencyHistogram, Stage, WorkCounters};
use pathalg_parser::QuerySurface;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Monotonic counters of one [`crate::service::QueryService`].
///
/// All counters use relaxed atomics — they are tallies, not synchronisation.
/// The one ordering guarantee the tests rely on is causal: a counter is
/// incremented *before* the action it counts (e.g. `dedup_hits` before a
/// waiter blocks, `executions` before the leader evaluates), so an observer
/// that sees the action's effect also sees the count.
#[derive(Debug, Default)]
pub struct Metrics {
    served: AtomicU64,
    executions: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    dedup_hits: AtomicU64,
    admission_rejected: AtomicU64,
    timeouts: AtomicU64,
    cancelled: AtomicU64,
    panicked: AtomicU64,
    shed: AtomicU64,
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
    /// Requests answered successfully (leaders and waiters alike).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Evaluations actually started — the number a deduplicated herd keeps
    /// at one.
    pub fn executions(&self) -> u64 {
        self.executions.load(Ordering::Relaxed)
    }

    /// Plan-cache hits (optimize and closure estimates skipped).
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Plan-cache misses (full planning ran).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Requests that joined an in-flight identical query instead of
    /// executing.
    pub fn dedup_hits(&self) -> u64 {
        self.dedup_hits.load(Ordering::Relaxed)
    }

    /// Requests refused at admission (never started enumerating).
    pub fn admission_rejected(&self) -> u64 {
        self.admission_rejected.load(Ordering::Relaxed)
    }

    /// Requests whose deadline fired before evaluation finished (leaders
    /// aborted mid-enumeration and waiters that timed out waiting alike).
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Requests aborted by explicit cancellation (not deadline expiry).
    pub fn cancelled(&self) -> u64 {
        self.cancelled.load(Ordering::Relaxed)
    }

    /// Leader evaluations that panicked and were isolated at the execute
    /// boundary (the herd received a typed error instead of hanging).
    pub fn panicked(&self) -> u64 {
        self.panicked.load(Ordering::Relaxed)
    }

    /// Requests shed at the concurrency cap before execution started.
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }

    /// Protocol connections currently open on a server of this service.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// The `(estimated paths, ceiling)` pair of the most recent admission
    /// rejection, so observed-vs-ceiling is reportable from the metrics
    /// alone. `None` until a rejection happens.
    pub fn last_rejection(&self) -> Option<(f64, f64)> {
        if self.admission_rejected() == 0 {
            return None;
        }
        Some((
            f64::from_bits(self.rejected_estimate_bits.load(Ordering::Relaxed)),
            f64::from_bits(self.rejected_ceiling_bits.load(Ordering::Relaxed)),
        ))
    }

    pub(crate) fn inc_served(&self) {
        self.served.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_executions(&self) {
        self.executions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_cache_hits(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_cache_misses(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_dedup_hits(&self) {
        self.dedup_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a rejection together with the estimate that condemned it and
    /// the ceiling it exceeded, so the `METRICS` surface can report
    /// observed-vs-ceiling without re-running the estimator.
    pub(crate) fn inc_admission_rejected(&self, estimated_paths: f64, ceiling: f64) {
        self.rejected_estimate_bits
            .store(estimated_paths.to_bits(), Ordering::Relaxed);
        self.rejected_ceiling_bits
            .store(ceiling.to_bits(), Ordering::Relaxed);
        self.admission_rejected.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_timeouts(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_cancelled(&self) {
        self.cancelled.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_panicked(&self) {
        self.panicked.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn inc_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
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
        MetricsSnapshot {
            served: self.served(),
            executions: self.executions(),
            cache_hits: self.cache_hits(),
            cache_misses: self.cache_misses(),
            dedup_hits: self.dedup_hits(),
            admission_rejected: self.admission_rejected(),
            timeouts: self.timeouts(),
            cancelled: self.cancelled(),
            panicked: self.panicked(),
            shed: self.shed(),
            connections: self.connections(),
            last_rejection: self.last_rejection(),
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
    /// The latency snapshot of one stage.
    pub fn stage(&self, stage: Stage) -> &HistogramSnapshot {
        &self.stages[stage as usize]
    }

    /// The Prometheus-style multi-line exposition (see
    /// [`Metrics::expose`]).
    pub fn expose(&self) -> String {
        use fmt::Write;
        let mut out = String::new();
        let counters: [(&str, u64); 10] = [
            ("pathalg_requests_served_total", self.served),
            ("pathalg_executions_total", self.executions),
            ("pathalg_plan_cache_hits_total", self.cache_hits),
            ("pathalg_plan_cache_misses_total", self.cache_misses),
            ("pathalg_dedup_hits_total", self.dedup_hits),
            ("pathalg_admission_rejected_total", self.admission_rejected),
            ("pathalg_requests_timeout_total", self.timeouts),
            ("pathalg_requests_cancelled_total", self.cancelled),
            ("pathalg_requests_panicked_total", self.panicked),
            ("pathalg_requests_shed_total", self.shed),
        ];
        for (name, value) in counters {
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
        write!(
            f,
            "served={} executions={} cache_hits={} cache_misses={} dedup_hits={} \
             admission_rejected={} timeouts={} cancelled={} panicked={} shed={}",
            self.served,
            self.executions,
            self.cache_hits,
            self.cache_misses,
            self.dedup_hits,
            self.admission_rejected,
            self.timeouts,
            self.cancelled,
            self.panicked,
            self.shed
        )?;
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
        m.inc_served();
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
        m.inc_timeouts();
        m.inc_timeouts();
        m.inc_cancelled();
        m.inc_panicked();
        m.inc_shed();
        assert_eq!(m.timeouts(), 2);
        assert_eq!(m.cancelled(), 1);
        assert_eq!(m.panicked(), 1);
        assert_eq!(m.shed(), 1);
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
        assert_eq!(m.connections(), 1);
        assert!(m.expose().contains("pathalg_connections 1"));
        let line = m.snapshot().to_string();
        assert!(line.contains("timeouts=2"), "{line}");
        assert!(line.contains("shed=1"), "{line}");
        assert!(!line.contains('\n'), "STATS framing is one line: {line}");
    }

    #[test]
    fn rejection_evidence_is_recorded_with_the_counter() {
        let m = Metrics::default();
        assert_eq!(m.last_rejection(), None);
        m.inc_admission_rejected(123456.0, 1000.0);
        assert_eq!(m.admission_rejected(), 1);
        assert_eq!(m.last_rejection(), Some((123456.0, 1000.0)));
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
