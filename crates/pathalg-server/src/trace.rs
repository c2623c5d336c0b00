//! Per-request query traces: one [`QueryTrace`] per submitted request,
//! kept in a bounded in-memory ring ([`TraceRing`]).
//!
//! A trace combines the two observability signals of DESIGN.md §13 for one
//! request: the *wall-clock* [`StageSpans`] of its trip through the pipeline
//! (parse → plan → admit → execute → render) and the *deterministic*
//! [`WorkCounters`] of the evaluation it ran — or nothing, when it coalesced
//! onto another request's flight. The distinction is load-bearing for the
//! concurrency tests: a deduplicated herd's traces show exactly one member
//! with an execute span (the leader) and attribute every other member to
//! dedup, so "N queries cost one evaluation" is visible per request, not
//! just as a counter delta.
//!
//! The ring is bounded and lock-cheap (one mutex around a `VecDeque`,
//! touched once per request); the `TRACE <id>` wire command and the
//! `repro obs` demo read traces back as `EXPLAIN ANALYZE`-style reports
//! (the [`fmt::Display`] impl).

use crate::service::{CacheStatus, DedupRole};
use pathalg_core::obs::{Stage, StageSpans, WorkCounters};
use pathalg_parser::QuerySurface;
use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Default bound on the number of retained traces.
pub(crate) const DEFAULT_TRACE_CAPACITY: usize = 64;

/// The record of one submitted request.
#[derive(Clone, Debug)]
pub struct QueryTrace {
    /// Monotonically increasing request id (1-based, service-lifetime).
    pub id: u64,
    /// The surface the request was written in.
    pub surface: QuerySurface,
    /// The request text.
    pub query: String,
    /// Whether planning came from the cache (`None` when the request failed
    /// before the plan stage).
    pub cache: Option<CacheStatus>,
    /// Leader or waiter (`None` when the request failed before the flight).
    pub dedup: Option<DedupRole>,
    /// The epoch the request ran under.
    pub epoch: u64,
    /// Wall-clock spans of the stages this request actually ran.
    pub spans: StageSpans,
    /// Deterministic work counters of the evaluation this request *led*.
    /// Zero for waiters (the work is attributed to the leader's trace) and
    /// for failed requests.
    pub work: WorkCounters,
    /// Result paths of the (possibly shared) outcome.
    pub paths: usize,
    /// The error the request failed with, if it did.
    pub error: Option<String>,
    /// Why the request died, when it died for a robustness reason:
    /// `"timeout"`, `"cancelled"`, `"panic"` or `"shed"`. `None` for
    /// successes and ordinary (parse/admission/evaluation) failures, so
    /// `TRACE <id>` distinguishes "your query was wrong" from "the service
    /// cut it off".
    pub outcome: Option<&'static str>,
}

impl QueryTrace {
    /// The record of a request that has just arrived: nothing stamped yet.
    /// Its id is stamped when the request ends.
    pub(crate) fn new(surface: QuerySurface, query: &str) -> Self {
        Self {
            id: 0,
            surface,
            query: query.to_string(),
            cache: None,
            dedup: None,
            epoch: 0,
            spans: StageSpans::new(),
            work: WorkCounters::default(),
            paths: 0,
            error: None,
            outcome: None,
        }
    }
}

impl fmt::Display for QueryTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace {} surface={}", self.id, self.surface.tag())?;
        if let Some(cache) = self.cache {
            write!(f, " cache={cache}")?;
        }
        if let Some(dedup) = self.dedup {
            write!(f, " dedup={dedup}")?;
        }
        if let Some(outcome) = self.outcome {
            write!(f, " outcome={outcome}")?;
        }
        writeln!(f, " epoch={} paths={}", self.epoch, self.paths)?;
        writeln!(f, "  query: {}", self.query)?;
        writeln!(
            f,
            "  spans: {} (total={}ns)",
            self.spans,
            self.spans.total().as_nanos()
        )?;
        if self.work.is_empty() {
            writeln!(f, "  work: none (coalesced or not executed)")?;
        } else {
            writeln!(f, "  work: {}", self.work)?;
        }
        if let Some(error) = &self.error {
            writeln!(f, "  error: {error}")?;
        }
        Ok(())
    }
}

/// A bounded ring of the most recent [`QueryTrace`]s, plus the id counter
/// that stamps them.
#[derive(Debug)]
pub struct TraceRing {
    capacity: usize,
    ring: Mutex<VecDeque<Arc<QueryTrace>>>,
    ids: AtomicU64,
}

impl TraceRing {
    /// A ring retaining at most `capacity` traces (0 disables retention;
    /// ids are still stamped).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            ring: Mutex::new(VecDeque::with_capacity(
                capacity.min(DEFAULT_TRACE_CAPACITY),
            )),
            ids: AtomicU64::new(0),
        }
    }

    /// The next request id (1-based).
    pub(crate) fn next_id(&self) -> u64 {
        self.ids.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Retains `trace`, evicting the oldest past capacity, and returns the
    /// shared handle given back to the submitter.
    pub(crate) fn push(&self, trace: QueryTrace) -> Arc<QueryTrace> {
        let trace = Arc::new(trace);
        if self.capacity > 0 {
            let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(trace.clone());
        }
        trace
    }

    /// Patches the render span into an already-retained trace — rendering
    /// happens at the protocol boundary, after the trace was recorded.
    /// Handles given out before the patch keep the pre-render spans.
    pub(crate) fn set_render(&self, id: u64, span: Duration) {
        let mut ring = self.ring.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(slot) = ring.iter_mut().find(|t| t.id == id) {
            Arc::make_mut(slot).spans.set(Stage::Render, span);
        }
    }

    /// The trace with the given id, if still retained.
    pub fn get(&self, id: u64) -> Option<Arc<QueryTrace>> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|t| t.id == id)
            .cloned()
    }

    /// The most recently retained trace.
    pub(crate) fn latest(&self) -> Option<Arc<QueryTrace>> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .back()
            .cloned()
    }

    /// Every retained trace, oldest first.
    pub fn all(&self) -> Vec<Arc<QueryTrace>> {
        self.ring
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Number of retained traces.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.ring.lock().unwrap_or_else(|e| e.into_inner()).len()
    }
}

impl Default for TraceRing {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(id: u64) -> QueryTrace {
        QueryTrace {
            id,
            surface: QuerySurface::Gql,
            query: "MATCH …".to_string(),
            cache: Some(CacheStatus::Miss),
            dedup: Some(DedupRole::Leader),
            epoch: 0,
            spans: StageSpans::new(),
            work: WorkCounters::default(),
            paths: 2,
            error: None,
            outcome: None,
        }
    }

    #[test]
    fn ring_is_bounded_and_evicts_oldest() {
        let ring = TraceRing::new(2);
        assert_eq!(ring.len(), 0);
        for _ in 0..3 {
            let id = ring.next_id();
            ring.push(trace(id));
        }
        assert_eq!(ring.len(), 2);
        assert!(ring.get(1).is_none(), "oldest evicted");
        assert_eq!(ring.get(3).unwrap().id, 3);
        assert_eq!(ring.latest().unwrap().id, 3);
        assert_eq!(
            ring.all().iter().map(|t| t.id).collect::<Vec<_>>(),
            vec![2, 3]
        );
    }

    #[test]
    fn render_span_patches_into_the_retained_trace() {
        let ring = TraceRing::default();
        let id = ring.next_id();
        let held = ring.push(trace(id));
        assert_eq!(held.spans.get(Stage::Render), None);
        ring.set_render(id, Duration::from_nanos(42));
        let patched = ring.get(id).unwrap();
        assert_eq!(
            patched.spans.get(Stage::Render),
            Some(Duration::from_nanos(42))
        );
        // The handle given out earlier is unchanged (copy-on-write).
        assert_eq!(held.spans.get(Stage::Render), None);
    }

    #[test]
    fn display_reports_the_request_story() {
        let mut t = trace(7);
        t.spans.set(Stage::Parse, Duration::from_nanos(100));
        t.work.arena_steps = 5;
        let report = t.to_string();
        assert!(report.starts_with("trace 7 surface=GQL"), "{report}");
        assert!(report.contains("cache=miss dedup=leader"), "{report}");
        assert!(report.contains("parse=100ns"), "{report}");
        assert!(report.contains("steps=5"), "{report}");
        let failed = QueryTrace {
            error: Some("parse error: nope".to_string()),
            cache: None,
            dedup: None,
            ..trace(8)
        };
        let report = failed.to_string();
        assert!(report.contains("error: parse error: nope"), "{report}");
        assert!(!report.contains("cache="), "{report}");
        let timed_out = QueryTrace {
            error: Some("evaluation error: deadline exceeded".to_string()),
            outcome: Some("timeout"),
            ..trace(9)
        };
        let report = timed_out.to_string();
        assert!(report.contains(" outcome=timeout"), "{report}");
    }
}
