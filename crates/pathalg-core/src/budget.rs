//! A result-size budget for path-producing operators, plus the per-request
//! quotas and cancellation tokens a serving layer wraps around evaluation.
//!
//! The `max_paths` bound of [`crate::ops::recursive::RecursionConfig`] caps
//! the number of paths an evaluation may materialise before aborting with
//! [`AlgebraError::ResultLimitExceeded`]. [`PathBudget`] is that counter: a
//! tally against an optional limit, claimable through a shared reference
//! (it is atomic, so an expansion can hand `&PathBudget` to its per-source
//! helpers without threading `&mut` through them).

use crate::error::AlgebraError;
use crate::ops::recursive::RecursionConfig;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Per-request resource quotas a serving layer imposes on top of whatever
/// bounds a query already carries. A service admits requests from many
/// clients against one shared graph, so it cannot trust (or require) each
/// query to bound itself; instead it derives a quota from its own
/// configuration and *min-combines* it with the query's
/// [`RecursionConfig`] — the effective bound is the tighter of the two,
/// and a quota can only ever shrink a request, never extend it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RequestQuota {
    /// Cap on the number of paths one request may produce
    /// (min-combined with [`RecursionConfig::max_paths`]).
    pub max_paths: Option<usize>,
    /// Cap on the path length one request may generate
    /// (min-combined with [`RecursionConfig::max_length`]).
    pub max_length: Option<usize>,
}

impl RequestQuota {
    /// A quota with the given caps; `None` leaves that dimension to the
    /// query's own bounds.
    pub fn new(max_paths: Option<usize>, max_length: Option<usize>) -> Self {
        Self {
            max_paths,
            max_length,
        }
    }

    /// Applies the quota to a request's recursion bounds: each dimension
    /// becomes the minimum of the query's bound and the quota's cap (a
    /// missing bound on either side defers to the other).
    pub fn apply(&self, base: RecursionConfig) -> RecursionConfig {
        RecursionConfig {
            max_length: min_opt(base.max_length, self.max_length),
            max_paths: min_opt(base.max_paths, self.max_paths),
        }
    }
}

fn min_opt(a: Option<usize>, b: Option<usize>) -> Option<usize> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A shared, cooperative cancellation signal with an optional monotonic
/// deadline.
///
/// Enumeration is pull-driven and can run for a long time between pulls
/// (one closure level, one source), so cancellation has to be
/// *cooperative*: every enumeration loop polls [`CancelToken::check`] at
/// its natural granularity boundary and aborts with a typed error when the
/// token fired. Checks are read-only (a relaxed flag load plus, when a
/// deadline is set, one `Instant::now()` call), so a run that completes
/// without tripping the token is byte-identical to an uncancellable run.
/// The token is shared (`Arc`) between the request that owns the deadline
/// and the evaluation polling it, so another thread may cancel it.
#[derive(Debug, Default)]
pub struct CancelToken {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires on its own (only via [`CancelToken::cancel`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// A token whose deadline is `timeout` from now (monotonic clock).
    pub fn with_deadline(timeout: Duration) -> Self {
        Self::with_deadline_at(Instant::now() + timeout)
    }

    /// A token with an absolute monotonic deadline.
    pub(crate) fn with_deadline_at(deadline: Instant) -> Self {
        Self {
            cancelled: AtomicBool::new(false),
            deadline: Some(deadline),
        }
    }

    /// Fires the token: every subsequent [`CancelToken::check`] fails with
    /// [`AlgebraError::Cancelled`].
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// The absolute deadline, if one is set — used by blocking waiters
    /// (e.g. a dedup flight's `wait_timeout` loop) to bound their own wait
    /// by the same clock the workers poll.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// The cooperative cancellation point: fails with
    /// [`AlgebraError::Cancelled`] once the token fired, or with
    /// [`AlgebraError::DeadlineExceeded`] once the deadline passed.
    pub fn check(&self) -> Result<(), AlgebraError> {
        if self.cancelled.load(Ordering::Relaxed) {
            return Err(AlgebraError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(AlgebraError::DeadlineExceeded);
            }
        }
        Ok(())
    }
}

/// An atomic path counter with an optional upper limit.
#[derive(Debug, Default)]
pub struct PathBudget {
    limit: Option<usize>,
    count: AtomicUsize,
}

impl PathBudget {
    /// Creates a budget; `None` means unlimited (claims always succeed).
    pub fn new(limit: Option<usize>) -> Self {
        Self {
            limit,
            count: AtomicUsize::new(0),
        }
    }

    /// Records `n` newly produced paths, failing once the running total
    /// exceeds the limit (mirroring the `result.len() > limit` check of the
    /// single-threaded operators).
    pub fn claim(&self, n: usize) -> Result<(), AlgebraError> {
        let total = self.count.fetch_add(n, Ordering::Relaxed) + n;
        match self.limit {
            Some(limit) if total > limit => Err(AlgebraError::ResultLimitExceeded { limit }),
            _ => Ok(()),
        }
    }

    /// Records `n` paths *without* enforcing the limit. The semi-naïve
    /// fixpoint admits its base relation unconditionally and only checks
    /// `max_paths` when a recursion candidate is inserted; base-level paths
    /// therefore count toward the total (so the first candidate on top of an
    /// oversized base still fails) but must not themselves trip the limit.
    pub fn record(&self, n: usize) {
        self.count.fetch_add(n, Ordering::Relaxed);
    }

    /// The number of paths claimed so far.
    pub fn count(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_quota_min_combines_without_extending() {
        let base = RecursionConfig {
            max_length: Some(8),
            max_paths: Some(1_000),
        };
        // A tighter quota shrinks both dimensions.
        let q = RequestQuota::new(Some(100), Some(4));
        assert_eq!(
            q.apply(base),
            RecursionConfig {
                max_length: Some(4),
                max_paths: Some(100),
            }
        );
        // A looser quota never extends the query's own bounds.
        let loose = RequestQuota::new(Some(10_000), Some(64));
        assert_eq!(loose.apply(base), base);
        // An empty quota is the identity; a quota fills in missing bounds.
        assert_eq!(RequestQuota::default().apply(base), base);
        assert_eq!(
            RequestQuota::new(Some(5), None).apply(RecursionConfig::unbounded()),
            RecursionConfig {
                max_length: None,
                max_paths: Some(5),
            }
        );
    }

    #[test]
    fn unlimited_budget_never_fails() {
        let b = PathBudget::new(None);
        for _ in 0..1000 {
            b.claim(usize::MAX / 2000).unwrap();
        }
    }

    #[test]
    fn limit_is_exceeded_strictly() {
        let b = PathBudget::new(Some(3));
        b.claim(1).unwrap();
        b.claim(2).unwrap(); // exactly at the limit: still fine
        assert_eq!(b.count(), 3);
        assert_eq!(
            b.claim(1),
            Err(AlgebraError::ResultLimitExceeded { limit: 3 })
        );
    }

    #[test]
    fn record_counts_but_never_fails() {
        let b = PathBudget::new(Some(2));
        b.record(10); // an oversized base relation is admitted…
        assert_eq!(b.count(), 10);
        // …but the very next enforced claim trips the limit.
        assert_eq!(
            b.claim(1),
            Err(AlgebraError::ResultLimitExceeded { limit: 2 })
        );
    }

    #[test]
    fn cancel_token_without_deadline_only_fires_on_cancel() {
        let t = CancelToken::new();
        assert!(t.check().is_ok());
        assert!(t.deadline().is_none());
        t.cancel();
        assert_eq!(t.check(), Err(AlgebraError::Cancelled));
    }

    #[test]
    fn cancel_token_deadline_fires_once_passed() {
        let t = CancelToken::with_deadline(Duration::from_secs(3600));
        assert!(t.check().is_ok());
        let expired = CancelToken::with_deadline(Duration::ZERO);
        assert_eq!(expired.check(), Err(AlgebraError::DeadlineExceeded));
        // Explicit cancellation takes precedence over the deadline.
        expired.cancel();
        assert_eq!(expired.check(), Err(AlgebraError::Cancelled));
    }

    #[test]
    fn cancellation_is_visible_across_threads() {
        let t = CancelToken::new();
        std::thread::scope(|scope| {
            scope.spawn(|| t.cancel());
        });
        assert_eq!(t.check(), Err(AlgebraError::Cancelled));
    }

    #[test]
    fn claims_are_visible_across_threads() {
        let b = PathBudget::new(Some(100));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..25 {
                        b.claim(1).unwrap();
                    }
                });
            }
        });
        assert_eq!(b.count(), 100);
        assert!(b.claim(1).is_err());
    }
}
