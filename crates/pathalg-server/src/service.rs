//! The long-lived [`QueryService`]: a shared graph, a plan cache, request
//! coalescing, and admission control in front of the engine.
//!
//! One service instance owns an `Arc`-shared, immutable [`PropertyGraph`]
//! and the [`Planner`] over it — the plan stage
//! [`pathalg_engine::runner::QueryRunner`] uses too, holding the graph's
//! statistics, computed once. A request flows through four stages, each
//! skippable when earlier work already covers it:
//!
//! 1. **Parse** — a bounded text-alias cache maps repeat request strings
//!    straight to their checked plan and cache key.
//! 2. **Plan** — the plan cache (`crate::cache::PlanCache`), keyed by
//!    (normalised plan, epoch), holds what [`Planner::plan`] produced: the
//!    optimized plan and its closure estimates; a hit skips the optimizer
//!    and the estimator.
//! 3. **Admit** — per-request quotas ([`RequestQuota`]) tighten the
//!    recursion bounds, and the closure estimates gate predicted blow-ups
//!    behind a typed [`AdmissionError`] *before* any enumeration starts.
//! 4. **Execute** — an in-flight wait-map coalesces concurrent identical
//!    requests: the first submitter (the *leader*) evaluates, every later
//!    one (a *waiter*) blocks on the flight's condvar and receives the same
//!    `Arc`-shared outcome. N identical concurrent queries cost one
//!    evaluation.
//!
//! Each request has one record, its [`QueryTrace`]: one stage recorder
//! times each stage into the trace and the stage's latency histogram, and
//! whatever becomes of the request — a parse failure, an admission refusal,
//! a shed, an evaluation error or an answer — it ends in one finish, which
//! stamps the trace, counts the outcome and retains the trace.
//!
//! An epoch bump ([`QueryService::bump_epoch`]) advances the epoch and purges
//! every cached plan, under the plan cache's mutex. It does no statistics
//! work: the graph cannot change, so neither can its statistics.

use crate::cache::{CacheKey, CachedPlan, Lru, PlanCache};
use crate::error::{AdmissionError, ServiceError};
use crate::metrics::{Counter, Metrics};
use crate::trace::{QueryTrace, TraceRing};
use pathalg_core::budget::{CancelToken, RequestQuota};
use pathalg_core::error::AlgebraError;
use pathalg_core::expr::PlanExpr;
use pathalg_core::obs::{Stage, WorkCounters};
use pathalg_core::ops::recursive::RecursionConfig;
use pathalg_core::path::write_ids;
use pathalg_engine::exec::{ExecutionConfig, StrategyDecision};
use pathalg_engine::runner::Planner;
use pathalg_graph::graph::PropertyGraph;
use pathalg_parser::normalize::{plan_cache_key, PlanKey};
use pathalg_parser::{lower_to_checked_plan, parse_surface, QuerySurface};
use std::collections::HashMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Default per-request path quota ([`ServiceConfig::quota`]).
pub(crate) const DEFAULT_QUOTA_PATHS: usize = 250_000;

/// Default ceiling on the estimated closure cardinality of an admitted
/// request (paths). Only predicted *blow-ups* (cyclic, super-unit expansion)
/// are compared against it; saturating closures pass regardless.
pub(crate) const DEFAULT_ADMISSION_CEILING: f64 = 5_000_000.0;

/// Default bound on the number of cached plans.
pub(crate) const DEFAULT_PLAN_CACHE_CAPACITY: usize = 256;

/// Configuration of a [`QueryService`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Base recursion bounds of every request (before the quota applies).
    pub recursion: RecursionConfig,
    /// Per-request quota min-combined into the recursion bounds
    /// ([`RequestQuota::apply`]).
    pub quota: RequestQuota,
    /// Reject predicted blow-ups whose estimated closure exceeds this many
    /// paths; `None` disables estimate-based rejection.
    pub admission_ceiling: Option<f64>,
    /// Deadline applied to every request that does not carry its own;
    /// a per-request deadline is min-combined with it. `None` means
    /// requests without their own deadline run unbounded.
    pub default_deadline: Option<Duration>,
    /// Cap on concurrent *leader* evaluations. A would-be leader past the
    /// cap is shed with a typed [`ServiceError::Overloaded`] before any
    /// enumeration starts; waiters joining an in-flight evaluation are
    /// always free. `None` disables shedding.
    pub max_concurrent: Option<usize>,
}

impl ServiceConfig {
    /// The default configuration. The [`ExecutionConfig`] is accepted and
    /// ignored: every request is evaluated serial per query, and the service
    /// runs requests concurrently, one per connection.
    pub fn with_execution(_execution: ExecutionConfig) -> Self {
        Self::default()
    }
}

impl Default for ServiceConfig {
    /// `DEFAULT_QUOTA_PATHS` per request, the default admission ceiling, no
    /// deadline and no shedding.
    fn default() -> Self {
        Self {
            recursion: RecursionConfig::default(),
            quota: RequestQuota::new(Some(DEFAULT_QUOTA_PATHS), None),
            admission_ceiling: Some(DEFAULT_ADMISSION_CEILING),
            default_deadline: None,
            max_concurrent: None,
        }
    }
}

/// Whether a request's planning work came from the cache.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CacheStatus {
    /// Planning was skipped: the (normalised plan, epoch) entry existed.
    Hit,
    /// The planner ran (optimize, closure estimates) and populated the
    /// cache.
    Miss,
}

impl fmt::Display for CacheStatus {
    /// `hit` or `miss`, as the `OK` header and the `TRACE` report spell it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheStatus::Hit => "hit",
            CacheStatus::Miss => "miss",
        })
    }
}

/// A request's role in the in-flight deduplication.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DedupRole {
    /// This request ran the evaluation.
    Leader,
    /// This request joined an identical in-flight evaluation and received
    /// the shared outcome.
    Waiter,
}

impl fmt::Display for DedupRole {
    /// `leader` or `waiter`, as the `OK` header and the `TRACE` report spell
    /// it.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DedupRole::Leader => "leader",
            DedupRole::Waiter => "waiter",
        })
    }
}

/// The shared outcome of one evaluation — what the wait-map fans out. The
/// answer is held as the bytes the wire carries, rendered once by the
/// leader; every waiter shares them.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Number of result paths.
    pub path_count: usize,
    /// The rendered answer: one `PATH <ids>\n` line per path, in the
    /// engine's canonical order — exactly the bytes a `QUERY` response
    /// carries between its `OK` header and `END`.
    pub body: Box<[u8]>,
    /// The strategy decisions the evaluator recorded.
    pub decisions: Vec<StrategyDecision>,
    /// The deterministic work counters of the evaluation that produced this
    /// outcome (zero when no lazy strategy fired).
    pub work: WorkCounters,
}

/// The prefix of every result line in [`QueryOutcome::body`].
pub(crate) const PATH_PREFIX: &str = "PATH ";

impl QueryOutcome {
    /// The result lines of [`QueryOutcome::body`], `PATH ` prefix included,
    /// without their newlines.
    pub(crate) fn path_lines(&self) -> impl Iterator<Item = &str> {
        std::str::from_utf8(&self.body)
            .expect("the body is rendered ASCII")
            .lines()
    }

    /// The canonical byte-comparable rendering of the result: one
    /// `display_ids` line per path, in result order, cut from the body. Two
    /// responses are "the same answer" exactly when these line vectors are
    /// equal.
    pub fn canonical_lines(&self) -> Vec<String> {
        self.path_lines()
            .map(|line| line[PATH_PREFIX.len()..].to_string())
            .collect()
    }
}

/// One answered request: the shared outcome plus this request's view of how
/// it was produced.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The (possibly shared) evaluation outcome.
    pub outcome: Arc<QueryOutcome>,
    /// Whether planning came from the cache.
    pub cache: CacheStatus,
    /// Whether this request evaluated or coalesced.
    pub dedup: DedupRole,
    /// The epoch the request ran under.
    pub epoch: u64,
    /// This request's trace — its own stage spans and dedup attribution,
    /// retained in the service's [`TraceRing`] under `trace.id`.
    pub trace: Arc<QueryTrace>,
}

/// One in-flight evaluation: a slot the leader publishes into and a condvar
/// the waiters block on. Results and errors are both `Clone`, so one
/// outcome serves every coalesced request.
#[derive(Default)]
struct Flight {
    slot: Mutex<Option<Result<Arc<QueryOutcome>, ServiceError>>>,
    ready: Condvar,
}

/// Upper bound on one condvar sleep inside [`Flight::wait`], so a waiter
/// notices an explicit [`CancelToken::cancel`] (which has no deadline to
/// bound the wait) within one tick instead of blocking forever.
const WAIT_TICK: Duration = Duration::from_millis(50);

impl Flight {
    /// Blocks until the leader publishes, the waiter's own deadline fires,
    /// or its token is cancelled — a waiter never blocks past its own
    /// deadline, whatever happens to the leader. All waits are
    /// `wait_timeout` loops, and every lock acquisition recovers from
    /// poison: a panicking peer cannot wedge the herd.
    fn wait(&self, cancel: &CancelToken) -> Result<Arc<QueryOutcome>, ServiceError> {
        let mut slot = self.slot.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(outcome) = slot.as_ref() {
                return outcome.clone();
            }
            if let Err(e) = cancel.check() {
                return Err(ServiceError::Evaluation(e));
            }
            let tick = match cancel.deadline() {
                Some(at) => at.saturating_duration_since(Instant::now()).min(WAIT_TICK),
                None => WAIT_TICK,
            };
            let (guard, _timed_out) = self
                .ready
                .wait_timeout(slot, tick)
                .unwrap_or_else(|e| e.into_inner());
            slot = guard;
        }
    }

    fn publish(&self, outcome: Result<Arc<QueryOutcome>, ServiceError>) {
        *self.slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
        self.ready.notify_all();
    }
}

/// A deterministic test fence: called by the leader after it has claimed an
/// execution (the `executions` counter is already incremented) and before
/// the evaluation starts. Concurrency tests use it to hold the leader until
/// the herd has provably coalesced behind it.
pub(crate) type PreExecuteHook = Box<dyn Fn(&Metrics) + Send + Sync>;

/// What an armed failpoint does when its site is hit — the fault-injection
/// half of the chaos harness (the `PreExecuteHook` is the deterministic
/// fence half). Failpoints are armed by name ([`QueryService::set_failpoint`])
/// and fire inside the leader's execute window, so an injected panic
/// exercises the real `catch_unwind` isolation path, not a simulation of it.
#[derive(Clone, Debug)]
pub enum FailAction {
    /// Panic with this message when the failpoint is hit.
    Panic(String),
    /// Sleep this long when the failpoint is hit (simulates a slow
    /// evaluation so deadline/shedding paths become deterministic).
    Delay(Duration),
}

/// RAII permit of one leader execution against
/// [`ServiceConfig::max_concurrent`]; dropping it frees the slot even when
/// the evaluation panics (the unwind runs the drop).
struct ExecutionPermit<'a>(&'a AtomicUsize);

impl Drop for ExecutionPermit<'_> {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::Release);
    }
}

/// A long-lived query service over one shared graph. See the module docs
/// for the request pipeline; `QueryService` is `Send + Sync` and designed to
/// be shared behind an `Arc` by any number of threads.
pub struct QueryService {
    graph: Arc<PropertyGraph>,
    config: ServiceConfig,
    planner: Planner,
    cache: Mutex<PlanCache>,
    text_cache: Mutex<Lru<(QuerySurface, String), (PlanExpr, PlanKey)>>,
    flights: Mutex<HashMap<CacheKey, Arc<Flight>>>,
    metrics: Metrics,
    traces: TraceRing,
    pre_execute: RwLock<Option<PreExecuteHook>>,
    failpoints: RwLock<HashMap<String, FailAction>>,
    in_flight_executions: AtomicUsize,
}

impl QueryService {
    /// Creates a service over `graph` at epoch 0; its planner computes the
    /// graph's statistics here, once. Every plan is optimized, the plan
    /// caches hold `DEFAULT_PLAN_CACHE_CAPACITY` entries and the trace ring
    /// the last `DEFAULT_TRACE_CAPACITY` requests.
    pub fn new(graph: Arc<PropertyGraph>, config: ServiceConfig) -> Self {
        Self {
            planner: Planner::new(&graph, true),
            graph,
            config,
            cache: Mutex::new(PlanCache::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            text_cache: Mutex::new(Lru::new(DEFAULT_PLAN_CACHE_CAPACITY)),
            flights: Mutex::new(HashMap::new()),
            metrics: Metrics::default(),
            traces: TraceRing::default(),
            pre_execute: RwLock::new(None),
            failpoints: RwLock::new(HashMap::new()),
            in_flight_executions: AtomicUsize::new(0),
        }
    }

    /// A service with the default configuration.
    pub fn with_defaults(graph: Arc<PropertyGraph>) -> Self {
        Self::new(graph, ServiceConfig::default())
    }

    /// The shared graph.
    pub fn graph(&self) -> &Arc<PropertyGraph> {
        &self.graph
    }

    /// The service counters.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The bounded ring of per-request traces.
    pub fn traces(&self) -> &TraceRing {
        &self.traces
    }

    /// The retained trace with the given id ([`QueryTrace::id`]).
    pub fn trace(&self, id: u64) -> Option<Arc<QueryTrace>> {
        self.traces.get(id)
    }

    /// The most recently retained trace.
    pub fn latest_trace(&self) -> Option<Arc<QueryTrace>> {
        self.traces.latest()
    }

    /// The current epoch.
    pub fn epoch(&self) -> u64 {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).epoch()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// The effective recursion bounds of every request: the configured base
    /// bounds tightened by the per-request quota.
    pub fn effective_recursion(&self) -> RecursionConfig {
        self.config.quota.apply(self.config.recursion)
    }

    /// Installs the deterministic test fence (see `PreExecuteHook`).
    pub fn set_pre_execute_hook(&self, hook: PreExecuteHook) {
        *self.pre_execute.write().unwrap_or_else(|e| e.into_inner()) = Some(hook);
    }

    /// Removes the test fence.
    pub fn clear_pre_execute_hook(&self) {
        *self.pre_execute.write().unwrap_or_else(|e| e.into_inner()) = None;
    }

    /// Arms the named failpoint (see [`FailAction`]). Site currently wired:
    /// `"execute"`, hit by the leader inside its `catch_unwind` window,
    /// after the pre-execute fence and before the evaluator runs.
    pub fn set_failpoint(&self, name: &str, action: FailAction) {
        self.failpoints
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), action);
    }

    /// Disarms every failpoint.
    pub fn clear_failpoints(&self) {
        self.failpoints
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
    }

    /// Fires the named failpoint if armed. The action is cloned out of the
    /// registry first, so an injected panic never unwinds while holding the
    /// registry lock.
    fn hit_failpoint(&self, name: &str) {
        let action = self
            .failpoints
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned();
        match action {
            Some(FailAction::Panic(msg)) => panic!("failpoint {name}: {msg}"),
            Some(FailAction::Delay(dur)) => std::thread::sleep(dur),
            None => {}
        }
    }

    /// Advances the epoch and purges every cached plan of older epochs,
    /// under the plan cache's mutex. Returns the new epoch. Requests
    /// admitted before the bump finish with the plan they started with (it
    /// is `Arc`-shared), and their plans are not cached again; requests
    /// after the bump re-plan. The graph is immutable, so its statistics
    /// are not recomputed.
    pub fn bump_epoch(&self) -> u64 {
        let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
        let epoch = cache.epoch() + 1;
        cache.retain_epoch(epoch);
        epoch
    }

    /// Submits one GQL query: parse (or alias-cache) → plan (or plan-cache)
    /// → admit → execute (or coalesce). See the module docs. Shorthand for
    /// [`QueryService::submit_on`] with [`QuerySurface::Gql`].
    pub fn submit(&self, text: &str) -> Result<QueryResponse, ServiceError> {
        self.submit_on(QuerySurface::Gql, text)
    }

    /// [`QueryService::submit`] with a per-request deadline: the evaluation
    /// (leader or waiter alike) fails with a typed timeout
    /// ([`AlgebraError::DeadlineExceeded`]) once `deadline` has elapsed,
    /// within one cooperative check of the enumeration noticing.
    pub fn submit_with_deadline(
        &self,
        text: &str,
        deadline: Duration,
    ) -> Result<QueryResponse, ServiceError> {
        self.submit_on_deadline(QuerySurface::Gql, text, Some(deadline))
    }

    /// Submits one query written in any surface. Every surface lowers
    /// through the same IR and checked plan, so the plan-cache key, the
    /// admission decision and the in-flight deduplication are identical for
    /// the same logical query regardless of `surface` — a GQL leader's
    /// evaluation is shared with an RPQ waiter and vice versa.
    pub fn submit_on(
        &self,
        surface: QuerySurface,
        text: &str,
    ) -> Result<QueryResponse, ServiceError> {
        self.submit_on_deadline(surface, text, None)
    }

    /// [`QueryService::submit_on`] with an optional per-request deadline,
    /// min-combined with [`ServiceConfig::default_deadline`].
    pub(crate) fn submit_on_deadline(
        &self,
        surface: QuerySurface,
        text: &str,
        deadline: Option<Duration>,
    ) -> Result<QueryResponse, ServiceError> {
        self.submit_on_token(surface, text, self.request_token(deadline))
    }

    /// [`QueryService::submit_on`] under a caller-owned [`CancelToken`]:
    /// the caller keeps a clone of the `Arc` and may
    /// [`cancel`](CancelToken::cancel) it from another thread at any time;
    /// the request then fails with a typed [`AlgebraError::Cancelled`]. Any
    /// deadline carried by the token applies as usual. The config's
    /// [`default_deadline`](ServiceConfig::default_deadline) is **not**
    /// folded in here — the token is taken exactly as given.
    pub fn submit_on_token(
        &self,
        surface: QuerySurface,
        text: &str,
        cancel: Arc<CancelToken>,
    ) -> Result<QueryResponse, ServiceError> {
        self.metrics.inc_surface(surface);
        let mut trace = QueryTrace::new(surface, text);
        let parsed = self.timed(&mut trace, Stage::Parse, || self.plan_of(surface, text));
        self.submit_keyed(trace, parsed, cancel)
    }

    /// [`QueryService::submit`] for a hand-built (already checked) plan: the
    /// parse stage is skipped, everything else is identical. The trace
    /// carries the plan's display form as the query text.
    #[cfg(test)]
    fn submit_plan(&self, plan: &PlanExpr) -> Result<QueryResponse, ServiceError> {
        let key = plan_cache_key(plan, &self.effective_recursion());
        self.submit_keyed(
            QueryTrace::new(QuerySurface::Gql, &plan.to_string()),
            Ok((plan.clone(), key)),
            self.request_token(None),
        )
    }

    /// The request's cancellation token: its deadline is the min of the
    /// per-request deadline and the configured default, converted to an
    /// absolute instant *now* — parse and plan time count against it too.
    fn request_token(&self, requested: Option<Duration>) -> Arc<CancelToken> {
        let timeout = match (requested, self.config.default_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        Arc::new(match timeout {
            Some(t) => CancelToken::with_deadline(t),
            None => CancelToken::new(),
        })
    }

    /// Runs a parsed request through the remaining stages and ends it, once,
    /// in [`QueryService::finish`] — whatever stage it failed in.
    fn submit_keyed(
        &self,
        mut trace: QueryTrace,
        parsed: Result<(PlanExpr, PlanKey), ServiceError>,
        cancel: Arc<CancelToken>,
    ) -> Result<QueryResponse, ServiceError> {
        let result = parsed.and_then(|(plan, key)| self.run(&mut trace, &plan, key, &cancel));
        self.finish(trace, result)
    }

    /// One stage of a request: runs it, and records its span both in the
    /// request's trace and in the stage's latency histogram.
    fn timed<T>(&self, trace: &mut QueryTrace, stage: Stage, run: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = run();
        let span = started.elapsed();
        trace.spans.set(stage, span);
        self.metrics.record_stage(stage, span);
        out
    }

    /// Plan → admit → execute (or coalesce). Stamps the trace with what the
    /// request got through: its cache status and epoch once planned, its
    /// dedup role once it holds a flight.
    fn run(
        &self,
        trace: &mut QueryTrace,
        plan: &PlanExpr,
        key: PlanKey,
        cancel: &Arc<CancelToken>,
    ) -> Result<Arc<QueryOutcome>, ServiceError> {
        let recursion = self.effective_recursion();
        let (cache_key, cached, cache_status) =
            self.timed(trace, Stage::Plan, || self.planned(plan, key, &recursion));
        trace.cache = Some(cache_status);
        trace.epoch = cache_key.1;
        self.timed(trace, Stage::Admit, || self.admit(&cached))?;

        // Join or open the flight for this (plan, epoch). A would-be leader
        // must also hold an execution permit — acquired under the flights
        // lock so cap accounting and leadership are decided atomically; past
        // the cap the request is shed before any flight is registered.
        let (flight, role, permit) = {
            let mut flights = self.flights.lock().unwrap_or_else(|e| e.into_inner());
            match flights.get(&cache_key) {
                Some(flight) => (flight.clone(), DedupRole::Waiter, None),
                None => {
                    let permit = self.try_acquire_permit()?;
                    let flight = Arc::new(Flight::default());
                    flights.insert(cache_key.clone(), flight.clone());
                    (flight, DedupRole::Leader, permit)
                }
            }
        };
        trace.dedup = Some(role);
        if role == DedupRole::Waiter {
            // A waiter's trace gets NO execute span — it never ran one. Its
            // evaluation cost is attributed to the leader's trace. The wait
            // is bounded by the waiter's OWN deadline: a stuck or slow
            // leader cannot hold it past that.
            self.metrics.inc(Counter::DedupHits);
            return flight.wait(cancel);
        }
        self.metrics.inc(Counter::Executions);
        if let Some(hook) = self
            .pre_execute
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
        {
            hook(&self.metrics);
        }
        // Panic isolation: the `"execute"` failpoint and the evaluation
        // itself run under `catch_unwind`, so one bad request becomes a
        // typed, clonable error fanned out to the waiters instead of a
        // poisoned service.
        let outcome = self.timed(trace, Stage::Execute, || {
            catch_unwind(AssertUnwindSafe(|| {
                self.hit_failpoint("execute");
                self.execute(&cached, recursion, cancel)
            }))
            .unwrap_or_else(|payload| {
                self.metrics.inc(Counter::Panicked);
                Err(ServiceError::InternalPanic(panic_message(payload)))
            })
        });
        if let Ok(outcome) = &outcome {
            self.metrics.record_work(&outcome.work);
        }
        // Unregister before publishing: a request arriving after the
        // publish must start a fresh flight, not join a finished one.
        self.flights
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&cache_key);
        flight.publish(outcome.clone());
        drop(permit);
        outcome
    }

    /// Ends a request, whatever became of it — a parse failure, an
    /// admission refusal, a shed, an evaluation error or a success: stamps
    /// its trace with the answer or the error, counts its outcome (`served`,
    /// `timeouts`, `cancelled` or `shed`) and retains the trace.
    fn finish(
        &self,
        mut trace: QueryTrace,
        result: Result<Arc<QueryOutcome>, ServiceError>,
    ) -> Result<QueryResponse, ServiceError> {
        trace.id = self.traces.next_id();
        if trace.cache.is_none() {
            // Refused before the plan stage: no cache key carries its epoch.
            trace.epoch = self.epoch();
        }
        let counter = match &result {
            Ok(outcome) => {
                trace.paths = outcome.path_count;
                if trace.dedup == Some(DedupRole::Leader) {
                    trace.work = outcome.work;
                }
                Some(Counter::Served)
            }
            Err(error) => {
                trace.error = Some(error.to_string());
                let (outcome, counter) = outcome_of(error);
                trace.outcome = outcome;
                counter
            }
        };
        if let Some(counter) = counter {
            self.metrics.inc(counter);
        }
        let trace = self.traces.push(trace);
        let outcome = result?;
        Ok(QueryResponse {
            outcome,
            cache: trace.cache.expect("an answered request was planned"),
            dedup: trace.dedup.expect("an answered request held a flight"),
            epoch: trace.epoch,
            trace,
        })
    }

    /// Claims one execution slot against [`ServiceConfig::max_concurrent`],
    /// or sheds with a typed [`ServiceError::Overloaded`]. `None` when no
    /// cap is configured (nothing to release).
    fn try_acquire_permit(&self) -> Result<Option<ExecutionPermit<'_>>, ServiceError> {
        let Some(cap) = self.config.max_concurrent else {
            return Ok(None);
        };
        let mut in_flight = self.in_flight_executions.load(Ordering::Acquire);
        loop {
            if in_flight >= cap {
                return Err(ServiceError::Overloaded { in_flight, cap });
            }
            match self.in_flight_executions.compare_exchange(
                in_flight,
                in_flight + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(Some(ExecutionPermit(&self.in_flight_executions))),
                Err(now) => in_flight = now,
            }
        }
    }

    /// Runs the parse, plan and admission stages — populating both caches —
    /// without executing: the service's EXPLAIN-style entry point. Returns
    /// the (possibly cached) planning artefacts and whether they came from
    /// the cache.
    pub fn prepare(&self, text: &str) -> Result<(Arc<CachedPlan>, CacheStatus), ServiceError> {
        self.prepare_on(QuerySurface::Gql, text)
    }

    /// [`QueryService::prepare`] for any query surface.
    pub fn prepare_on(
        &self,
        surface: QuerySurface,
        text: &str,
    ) -> Result<(Arc<CachedPlan>, CacheStatus), ServiceError> {
        let (plan, key) = self.plan_of(surface, text)?;
        let (_, cached, status) = self.planned(&plan, key, &self.effective_recursion());
        self.admit(&cached)?;
        Ok((cached, status))
    }

    /// Parse stage with the text-alias cache: repeat request strings (per
    /// surface) skip the parser, the IR lowering, the type check, and the
    /// key computation. Different surfaces spelling the same logical query
    /// alias to distinct text entries but converge on the same [`PlanKey`] —
    /// and therefore one plan-cache entry and one flight.
    fn plan_of(
        &self,
        surface: QuerySurface,
        text: &str,
    ) -> Result<(PlanExpr, PlanKey), ServiceError> {
        let alias = (surface, text.to_string());
        if let Some(hit) = self
            .text_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(&alias)
        {
            return Ok(hit);
        }
        let ir = parse_surface(surface, text).map_err(|e| ServiceError::Parse(e.to_string()))?;
        let plan = lower_to_checked_plan(&ir).map_err(ServiceError::Evaluation)?;
        let key = plan_cache_key(&plan, &self.effective_recursion());
        self.text_cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(alias, (plan.clone(), key.clone()));
        Ok((plan, key))
    }

    /// Plan stage: cache lookup under the current epoch, or
    /// [`Planner::plan`]. Returns the cache key (its epoch is the one the
    /// request runs under). Two racing misses both plan and the later insert
    /// wins — harmless, the entries are identical; a miss that raced a bump
    /// is not cached ([`PlanCache::insert`]).
    fn planned(
        &self,
        plan: &PlanExpr,
        key: PlanKey,
        recursion: &RecursionConfig,
    ) -> (CacheKey, Arc<CachedPlan>, CacheStatus) {
        let cache_key = {
            let mut cache = self.cache.lock().unwrap_or_else(|e| e.into_inner());
            let cache_key: CacheKey = (key, cache.epoch());
            if let Some(entry) = cache.get(&cache_key) {
                self.metrics.inc(Counter::CacheHits);
                return (cache_key, entry, CacheStatus::Hit);
            }
            cache_key
        };
        self.metrics.inc(Counter::CacheMisses);
        let entry = Arc::new(self.planner.plan(&self.graph, plan, recursion));
        self.cache
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(cache_key.clone(), entry.clone());
        (cache_key, entry, CacheStatus::Miss)
    }

    /// Admission stage: a predicted blow-up over the ceiling is refused with
    /// the estimate as evidence, before any enumeration starts.
    fn admit(&self, cached: &CachedPlan) -> Result<(), ServiceError> {
        let Some(ceiling) = self.config.admission_ceiling else {
            return Ok(());
        };
        for (operator, estimate) in &cached.closures {
            if estimate.blows_up() && estimate.paths > ceiling {
                self.metrics.inc_admission_rejected(estimate.paths, ceiling);
                return Err(ServiceError::Admission(AdmissionError::PredictedBlowup {
                    operator: operator.clone(),
                    estimate: *estimate,
                    ceiling,
                }));
            }
        }
        Ok(())
    }

    /// Execution stage: the planner's evaluator over the cached optimized
    /// plan, under the request's tightened bounds and the request's
    /// cancellation token (checked cooperatively at every
    /// enumeration level across all engine strategies). The answer is
    /// rendered as it is produced — a root ϕ straight from the kernel's
    /// reconstruction buffers — into the outcome's body.
    fn execute(
        &self,
        cached: &CachedPlan,
        recursion: RecursionConfig,
        cancel: &Arc<CancelToken>,
    ) -> Result<Arc<QueryOutcome>, ServiceError> {
        let mut evaluator = self
            .planner
            .evaluator(&self.graph, recursion)
            .with_cancel(cancel.clone());
        let mut body = Vec::new();
        let path_count = evaluator
            .for_each_path(&cached.plan, |nodes, edges| {
                body.extend_from_slice(PATH_PREFIX.as_bytes());
                write_ids(nodes, edges, &mut body);
                body.push(b'\n');
            })
            .map_err(ServiceError::Evaluation)?;
        Ok(Arc::new(QueryOutcome {
            path_count,
            body: body.into_boxed_slice(),
            decisions: evaluator.decisions().to_vec(),
            work: evaluator.work_counters(),
        }))
    }
}

/// The robustness class of a failed request — the trace's `outcome` stamp,
/// `None` for ordinary (parse/admission/evaluation) failures — and the
/// counter [`QueryService::finish`] counts it on. A panic is counted where
/// it is caught, once per evaluation, not once per coalesced request.
fn outcome_of(error: &ServiceError) -> (Option<&'static str>, Option<Counter>) {
    match error {
        ServiceError::Evaluation(AlgebraError::DeadlineExceeded) => {
            (Some("timeout"), Some(Counter::Timeouts))
        }
        ServiceError::Evaluation(AlgebraError::Cancelled) => {
            (Some("cancelled"), Some(Counter::Cancelled))
        }
        ServiceError::InternalPanic(_) => (Some("panic"), None),
        ServiceError::Overloaded { .. } => (Some("shed"), Some(Counter::Shed)),
        _ => (None, None),
    }
}

/// Renders a caught panic payload (the common `&str`/`String` cases) into
/// the [`ServiceError::InternalPanic`] message.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The service only holds `Send + Sync` state (`Arc`s, locks, atomics); the
/// hook type is explicitly `Send + Sync`. Spelled out so a regression (e.g.
/// a non-`Sync` field) fails compilation here, next to the definition.
fn _assert_service_is_shareable() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<QueryService>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathalg_graph::fixtures::figure1::figure1_graph;
    use pathalg_graph::generator::structured::complete_graph;

    const SHORTEST: &str = "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)";

    fn service() -> QueryService {
        QueryService::with_defaults(Arc::new(figure1_graph()))
    }

    #[test]
    fn repeat_queries_hit_the_plan_cache() {
        let svc = service();
        let first = svc.submit(SHORTEST).unwrap();
        assert_eq!(first.cache, CacheStatus::Miss);
        assert_eq!(first.dedup, DedupRole::Leader);
        assert!(first.outcome.path_count > 0);
        let second = svc.submit(SHORTEST).unwrap();
        assert_eq!(second.cache, CacheStatus::Hit);
        assert_eq!(
            first.outcome.canonical_lines(),
            second.outcome.canonical_lines()
        );
        assert_eq!(svc.metrics().snapshot().cache_hits, 1);
        assert_eq!(svc.metrics().snapshot().cache_misses, 1);
        assert_eq!(svc.metrics().snapshot().executions, 2);
        assert_eq!(svc.cached_plans(), 1);
        assert!(!first.outcome.decisions.is_empty());
    }

    #[test]
    fn prepare_plans_without_executing() {
        let svc = service();
        let (cold, cold_status) = svc.prepare(SHORTEST).unwrap();
        assert_eq!(cold_status, CacheStatus::Miss);
        assert!(!cold.closures.is_empty(), "ϕ node estimated at prepare");
        assert_eq!(
            svc.metrics().snapshot().executions,
            0,
            "prepare never evaluates"
        );
        let (_, warm_status) = svc.prepare(SHORTEST).unwrap();
        assert_eq!(warm_status, CacheStatus::Hit);
        // A later submit reuses the prepared entry.
        let run = svc.submit(SHORTEST).unwrap();
        assert_eq!(run.cache, CacheStatus::Hit);
        assert_eq!(svc.cached_plans(), 1);
    }

    #[test]
    fn association_reordered_plans_share_one_cache_entry() {
        use pathalg_core::condition::Condition;
        use pathalg_core::ops::recursive::PathSemantics;
        let svc = service();
        let scan = |l: &str| PlanExpr::edges().select(Condition::edge_label(1, l));
        let left = scan("Likes")
            .join(scan("Has_creator"))
            .join(scan("Likes"))
            .recursive(PathSemantics::Simple);
        let right = scan("Likes")
            .join(scan("Has_creator").join(scan("Likes")))
            .recursive(PathSemantics::Simple);
        let a = svc.submit_plan(&left).unwrap();
        let b = svc.submit_plan(&right).unwrap();
        assert_eq!(a.cache, CacheStatus::Miss);
        assert_eq!(b.cache, CacheStatus::Hit, "re-associated join: same key");
        assert_eq!(a.outcome.canonical_lines(), b.outcome.canonical_lines());
    }

    #[test]
    fn epoch_bump_invalidates_cached_plans() {
        let svc = service();
        svc.submit(SHORTEST).unwrap();
        assert_eq!(svc.cached_plans(), 1);
        let epoch = svc.bump_epoch();
        assert_eq!(epoch, 1);
        assert_eq!(svc.cached_plans(), 0, "stale-epoch plans purged");
        let again = svc.submit(SHORTEST).unwrap();
        assert_eq!(again.cache, CacheStatus::Miss);
        assert_eq!(again.epoch, 1);
    }

    #[test]
    fn predicted_blowups_are_rejected_at_admission() {
        let graph = Arc::new(complete_graph(14, "Knows"));
        let config = ServiceConfig {
            admission_ceiling: Some(1_000.0),
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(graph, config);
        let err = svc
            .submit("MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)")
            .unwrap_err();
        assert!(matches!(
            err,
            ServiceError::Admission(AdmissionError::PredictedBlowup { .. })
        ));
        assert_eq!(svc.metrics().snapshot().admission_rejected, 1);
        assert_eq!(
            svc.metrics().snapshot().executions,
            0,
            "never started enumerating"
        );
    }

    #[test]
    fn surfaces_converge_on_one_plan_cache_entry() {
        let svc = service();
        let gql = svc.submit_on(QuerySurface::Gql, SHORTEST).unwrap();
        let rpq = svc
            .submit_on(
                QuerySurface::Rpq,
                "reach(x, y) :- (:Knows)+, trail, any_shortest.",
            )
            .unwrap();
        let ir_doc = parse_surface(QuerySurface::Gql, SHORTEST)
            .unwrap()
            .to_json_string();
        let ir = svc.submit_on(QuerySurface::Ir, &ir_doc).unwrap();
        assert_eq!(gql.cache, CacheStatus::Miss);
        assert_eq!(rpq.cache, CacheStatus::Hit, "RPQ shares the GQL plan");
        assert_eq!(ir.cache, CacheStatus::Hit, "raw IR shares the GQL plan");
        assert_eq!(svc.cached_plans(), 1, "one logical query, one entry");
        assert_eq!(gql.outcome.canonical_lines(), rpq.outcome.canonical_lines());
        assert_eq!(gql.outcome.canonical_lines(), ir.outcome.canonical_lines());
    }

    #[test]
    fn parse_errors_are_typed() {
        let svc = service();
        let err = svc.submit("NOT GQL AT ALL").unwrap_err();
        assert!(matches!(err, ServiceError::Parse(_)));
        assert_eq!(err.kind(), "parse");
    }

    #[test]
    fn expired_deadline_is_a_typed_timeout_and_the_service_recovers() {
        let svc = service();
        let err = svc
            .submit_with_deadline(SHORTEST, Duration::ZERO)
            .unwrap_err();
        assert_eq!(
            err,
            ServiceError::Evaluation(AlgebraError::DeadlineExceeded)
        );
        assert_eq!(err.kind(), "timeout");
        assert_eq!(svc.metrics().snapshot().timeouts, 1);
        assert_eq!(
            svc.latest_trace().unwrap().outcome,
            Some("timeout"),
            "trace says why the query died"
        );
        // The same service instance immediately serves the same query.
        let ok = svc.submit(SHORTEST).unwrap();
        assert!(ok.outcome.path_count > 0);
        assert_eq!(ok.dedup, DedupRole::Leader, "no stale flight left behind");
    }

    #[test]
    fn pre_cancelled_token_is_a_typed_cancellation() {
        let svc = service();
        let token = Arc::new(CancelToken::new());
        token.cancel();
        let err = svc
            .submit_on_token(QuerySurface::Gql, SHORTEST, token)
            .unwrap_err();
        assert_eq!(err, ServiceError::Evaluation(AlgebraError::Cancelled));
        assert_eq!(err.kind(), "cancelled");
        assert_eq!(svc.metrics().snapshot().cancelled, 1);
        assert_eq!(svc.latest_trace().unwrap().outcome, Some("cancelled"));
    }

    #[test]
    fn injected_panic_is_isolated_and_typed() {
        let svc = service();
        svc.set_failpoint("execute", FailAction::Panic("chaos".to_string()));
        let err = svc.submit(SHORTEST).unwrap_err();
        assert!(matches!(err, ServiceError::InternalPanic(_)), "{err:?}");
        assert_eq!(err.kind(), "internal");
        assert!(err.to_string().contains("chaos"), "{err}");
        assert_eq!(svc.metrics().snapshot().panicked, 1);
        assert_eq!(svc.latest_trace().unwrap().outcome, Some("panic"));
        // Disarm and the SAME instance keeps serving — no poison, no stale
        // flight.
        svc.clear_failpoints();
        let ok = svc.submit(SHORTEST).unwrap();
        assert!(ok.outcome.path_count > 0);
        assert_eq!(
            svc.metrics().snapshot().panicked,
            1,
            "one panic, not a cascade"
        );
    }

    #[test]
    fn saturated_cap_sheds_with_a_typed_overload() {
        let config = ServiceConfig {
            max_concurrent: Some(0),
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(Arc::new(figure1_graph()), config);
        let err = svc.submit(SHORTEST).unwrap_err();
        assert_eq!(
            err,
            ServiceError::Overloaded {
                in_flight: 0,
                cap: 0
            }
        );
        assert_eq!(err.kind(), "overloaded");
        assert_eq!(svc.metrics().snapshot().shed, 1);
        assert_eq!(
            svc.metrics().snapshot().executions,
            0,
            "shed before execute"
        );
        assert_eq!(svc.latest_trace().unwrap().outcome, Some("shed"));
    }

    #[test]
    fn default_deadline_applies_when_the_request_has_none() {
        let config = ServiceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(Arc::new(figure1_graph()), config);
        let err = svc.submit(SHORTEST).unwrap_err();
        assert_eq!(err.kind(), "timeout");
        // A generous per-request deadline is min-combined with the default.
        let err = svc
            .submit_with_deadline(SHORTEST, Duration::from_secs(3600))
            .unwrap_err();
        assert_eq!(err.kind(), "timeout");
    }

    #[test]
    fn quota_tightens_request_bounds() {
        let config = ServiceConfig {
            quota: RequestQuota::new(Some(7), Some(3)),
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(Arc::new(figure1_graph()), config);
        let effective = svc.effective_recursion();
        assert_eq!(effective.max_paths, Some(7));
        assert_eq!(effective.max_length, Some(3));
    }
}
