//! End-to-end query observability: deterministic work counters, wall-clock
//! stage spans, and fixed-bucket latency histograms.
//!
//! The layer keeps two strictly separated kinds of signal:
//!
//! * **Work counters** ([`WorkCounters`]) are *deterministic*: they count
//!   algorithmic events (arena steps allocated, paths emitted or skipped,
//!   sources abandoned by the reachability stop, budget claims, partitions
//!   opened, paths kept). The same plan over the same graph reports the
//!   same totals on every run, so cross-validation can pin them and the
//!   observability layer doubles as a correctness oracle for the §8
//!   enumeration invariants. The memory gauge (`arena_bytes_peak`)
//!   describes how the work was stored, not what was computed, and is
//!   excluded from the pinned subset ([`WorkCounters::deterministic_line`]).
//! * **Stage spans** ([`StageSpans`]) are *wall-clock*: monotonic-clock
//!   durations of the parse → plan → admit → execute → render pipeline of
//!   one request. They vary run to run and are never pinned; a stage that
//!   did not run (a deduplicated waiter's execute, a never-rendered API
//!   response) is explicitly absent rather than zero.
//!
//! [`LatencyHistogram`] aggregates spans across requests into fixed
//! power-of-two nanosecond buckets behind relaxed atomics — cheap enough to
//! stay always-on — and snapshots into the cumulative `le`-style rendering
//! a Prometheus-flavoured text exposition wants.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Deterministic work totals of one enumeration, one engine evaluation, or
/// one served request (they merge associatively).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkCounters {
    /// Arena steps allocated by PMR expansions (prefix-sharing nodes).
    pub arena_steps: u64,
    /// Level-0 base paths generated by the kernel: join segments for a
    /// chain, single edges for a label scan, the admitted base paths of a
    /// materialised base.
    pub base_segments: u64,
    /// Paths emitted by enumerations (after target-mask filtering).
    pub paths_emitted: u64,
    /// Paths generated but skipped before realisation (target-mask misses,
    /// sliced paths the collector provably would not keep).
    pub paths_skipped: u64,
    /// Sources abandoned by the per-source reachability/requirement stop.
    pub sources_abandoned: u64,
    /// Paths claimed against the shared [`crate::budget::PathBudget`].
    pub budget_claimed: u64,
    /// Partitions opened by the slice collector that admitted the output.
    pub partitions_opened: u64,
    /// Paths the slice collector kept (the sliced output length).
    pub paths_kept: u64,
    /// Peak bytes backing PMR step arenas (merged by **max**: the largest
    /// single arena footprint seen). A memory gauge, not part of
    /// [`Self::deterministic_line`].
    pub arena_bytes_peak: u64,
}

impl WorkCounters {
    /// Folds `other` into `self` (associative, so per-operator counters fold
    /// into request totals in any order). Every counter adds,
    /// except `arena_bytes_peak`, which is a peak gauge and takes the max.
    pub fn merge(&mut self, other: &WorkCounters) {
        self.arena_steps += other.arena_steps;
        self.base_segments += other.base_segments;
        self.paths_emitted += other.paths_emitted;
        self.paths_skipped += other.paths_skipped;
        self.sources_abandoned += other.sources_abandoned;
        self.budget_claimed += other.budget_claimed;
        self.partitions_opened += other.partitions_opened;
        self.paths_kept += other.paths_kept;
        self.arena_bytes_peak = self.arena_bytes_peak.max(other.arena_bytes_peak);
    }

    /// True when nothing was counted (no lazy operator ran).
    pub fn is_empty(&self) -> bool {
        *self == WorkCounters::default()
    }

    /// The canonical rendering of the *deterministic* subset — everything
    /// except the memory gauge; cross-validation pins it.
    pub fn deterministic_line(&self) -> String {
        format!(
            "steps={} segments={} emitted={} skipped={} abandoned={} \
             budget={} partitions={} kept={}",
            self.arena_steps,
            self.base_segments,
            self.paths_emitted,
            self.paths_skipped,
            self.sources_abandoned,
            self.budget_claimed,
            self.partitions_opened,
            self.paths_kept,
        )
    }
}

impl fmt::Display for WorkCounters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} arena_bytes={}",
            self.deterministic_line(),
            self.arena_bytes_peak
        )
    }
}

/// One stage of the request pipeline, in pipeline order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Surface text → checked plan (or text-alias cache hit).
    Parse,
    /// Plan cache lookup, optimisation, costing, closure estimation.
    Plan,
    /// The admission gate's estimate-vs-ceiling decision.
    Admit,
    /// The engine evaluation (only the flight leader has one).
    Execute,
    /// Rendering the response onto the wire (absent for API callers).
    Render,
}

impl Stage {
    /// Every stage, in pipeline order.
    pub const ALL: [Stage; 5] = [
        Stage::Parse,
        Stage::Plan,
        Stage::Admit,
        Stage::Execute,
        Stage::Render,
    ];

    /// The lowercase label used by exposition lines and trace reports.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Parse => "parse",
            Stage::Plan => "plan",
            Stage::Admit => "admit",
            Stage::Execute => "execute",
            Stage::Render => "render",
        }
    }

    fn index(self) -> usize {
        match self {
            Stage::Parse => 0,
            Stage::Plan => 1,
            Stage::Admit => 2,
            Stage::Execute => 3,
            Stage::Render => 4,
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-request wall-clock spans, one optional duration per [`Stage`]. A
/// stage that did not run for this request (a waiter's execute, an
/// unrendered response) stays `None`, so "ran zero times" and "ran fast"
/// are distinguishable — the dedup tests count execute spans, not zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageSpans {
    spans: [Option<Duration>; 5],
}

impl StageSpans {
    /// A record with every stage absent.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records the span of `stage` (overwriting an earlier record).
    pub fn set(&mut self, stage: Stage, span: Duration) {
        self.spans[stage.index()] = Some(span);
    }

    /// The recorded span of `stage`, if it ran.
    pub fn get(&self, stage: Stage) -> Option<Duration> {
        self.spans[stage.index()]
    }

    /// Sum of all recorded spans.
    pub fn total(&self) -> Duration {
        self.spans.iter().flatten().sum()
    }
}

impl fmt::Display for StageSpans {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for stage in Stage::ALL {
            if !first {
                f.write_str(" ")?;
            }
            first = false;
            match self.get(stage) {
                Some(d) => write!(f, "{}={}ns", stage, d.as_nanos())?,
                None => write!(f, "{}=-", stage)?,
            }
        }
        Ok(())
    }
}

/// Number of power-of-two buckets a [`LatencyHistogram`] keeps. Bucket `i`
/// counts durations whose nanosecond value has bit width `i` (i.e. is below
/// `2^i`); the last bucket absorbs everything longer (`≥ 2^30 ns ≈ 1.1 s`).
pub(crate) const LATENCY_BUCKETS: usize = 32;

/// A fixed-bucket latency histogram behind relaxed atomics: cheap enough to
/// record every request on the hot path, lossless enough for order-of-
/// magnitude latency attribution. Buckets are powers of two in nanoseconds.
#[derive(Debug, Default)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; LATENCY_BUCKETS],
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl LatencyHistogram {
    /// Records one duration (relaxed; ordering with other metrics is not
    /// needed — each sample is independent).
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        let idx = (64 - ns.leading_zeros() as usize).min(LATENCY_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// A point-in-time copy for rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            count: self.count.load(Ordering::Relaxed),
            sum_ns: self.sum_ns.load(Ordering::Relaxed),
        }
    }
}

/// A cloneable point-in-time copy of a [`LatencyHistogram`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket sample counts (bucket `i` = bit width `i` nanoseconds).
    pub buckets: Vec<u64>,
    /// Total samples.
    pub count: u64,
    /// Sum of all samples in nanoseconds.
    pub sum_ns: u64,
}

impl HistogramSnapshot {
    /// Appends the Prometheus-style cumulative rendering of this histogram
    /// to `out`: `{name}_bucket{{{labels},le="…"}} n` lines up to the last
    /// occupied bucket, a `+Inf` bucket, then `_sum` and `_count`. `labels`
    /// is the inner label list without braces (may be empty).
    pub fn expose_into(&self, name: &str, labels: &str, out: &mut String) {
        use fmt::Write;
        let sep = if labels.is_empty() { "" } else { "," };
        let last = self
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .unwrap_or(0)
            .min(LATENCY_BUCKETS - 2);
        let mut cumulative = 0u64;
        for (i, &c) in self.buckets.iter().enumerate().take(last + 1) {
            cumulative += c;
            let _ = writeln!(
                out,
                "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                (1u64 << i) - 1
            );
        }
        let _ = writeln!(
            out,
            "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}",
            self.count
        );
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", self.sum_ns);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", self.count);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_counters_merge_is_componentwise_addition() {
        let mut a = WorkCounters {
            arena_steps: 1,
            paths_emitted: 2,
            ..WorkCounters::default()
        };
        let b = WorkCounters {
            arena_steps: 10,
            paths_skipped: 5,
            ..WorkCounters::default()
        };
        a.merge(&b);
        assert_eq!(a.arena_steps, 11);
        assert_eq!(a.paths_emitted, 2);
        assert_eq!(a.paths_skipped, 5);
        assert!(!a.is_empty());
        assert!(WorkCounters::default().is_empty());
    }

    #[test]
    fn arena_bytes_peak_merges_as_a_max_gauge() {
        let mut a = WorkCounters {
            arena_bytes_peak: 100,
            ..WorkCounters::default()
        };
        a.merge(&WorkCounters {
            arena_bytes_peak: 40,
            ..WorkCounters::default()
        });
        assert_eq!(a.arena_bytes_peak, 100, "peak keeps the max");
        let line = a.deterministic_line();
        assert!(!line.contains("arena_bytes"), "{line}");
        let full = a.to_string();
        assert!(full.contains("arena_bytes=100"), "{full}");
    }

    #[test]
    fn stage_spans_distinguish_absent_from_zero() {
        let mut spans = StageSpans::new();
        assert_eq!(spans.get(Stage::Execute), None);
        spans.set(Stage::Parse, Duration::from_nanos(120));
        spans.set(Stage::Execute, Duration::ZERO);
        assert_eq!(spans.get(Stage::Execute), Some(Duration::ZERO));
        assert_eq!(spans.total(), Duration::from_nanos(120));
        let text = spans.to_string();
        assert!(text.contains("parse=120ns"), "{text}");
        assert!(text.contains("execute=0ns"), "{text}");
        assert!(text.contains("plan=-"), "{text}");
        assert!(text.contains("render=-"), "{text}");
    }

    #[test]
    fn histogram_buckets_by_bit_width_and_exposes_cumulatively() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_nanos(0)); // bucket 0
        h.record(Duration::from_nanos(1)); // bucket 1
        h.record(Duration::from_nanos(3)); // bucket 2
        h.record(Duration::from_nanos(1000)); // bucket 10
        let snap = h.snapshot();
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[1], 1);
        assert_eq!(snap.buckets[2], 1);
        assert_eq!(snap.buckets[10], 1);
        assert_eq!(snap.sum_ns, 1004);

        let mut out = String::new();
        snap.expose_into("lat_ns", "stage=\"parse\"", &mut out);
        assert!(
            out.contains("lat_ns_bucket{stage=\"parse\",le=\"0\"} 1"),
            "{out}"
        );
        assert!(
            out.contains("lat_ns_bucket{stage=\"parse\",le=\"1023\"} 4"),
            "{out}"
        );
        assert!(
            out.contains("lat_ns_bucket{stage=\"parse\",le=\"+Inf\"} 4"),
            "{out}"
        );
        assert!(out.contains("lat_ns_sum{stage=\"parse\"} 1004"), "{out}");
        assert!(out.contains("lat_ns_count{stage=\"parse\"} 4"), "{out}");
    }

    #[test]
    fn oversized_durations_clamp_into_the_last_bucket() {
        let h = LatencyHistogram::default();
        h.record(Duration::from_secs(3600));
        let snap = h.snapshot();
        assert_eq!(snap.buckets[LATENCY_BUCKETS - 1], 1);
    }
}
