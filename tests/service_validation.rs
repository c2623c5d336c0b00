//! Concurrency harness for the query service layer (DESIGN.md §11).
//!
//! The service's three contracts are exercised under real thread contention:
//!
//! * **In-flight deduplication** — a thundering herd of identical queries is
//!   coalesced onto exactly one evaluation, and every waiter receives the
//!   byte-identical canonical result.
//! * **Plan cache + epochs** — repeat queries hit the cache, a stats-epoch
//!   bump invalidates every cached plan, and re-planning repopulates it.
//! * **Admission + budgets** — predicted blow-ups are rejected before any
//!   enumeration starts, and a path budget tripping mid-enumeration surfaces
//!   the same typed error serially and under 2/8-way concurrency without
//!   wedging the service.
//!
//! * **One pipeline** — the service and `QueryRunner` plan through the same
//!   `Planner`, so they run the same optimized plan, record the same
//!   strategy decisions and return the same answer bytes.
//!
//! A proptest block pins the plan-cache key itself: α-equivalent and
//! association-reordered plans share a key; plans that differ semantically
//! (labels, ϕ semantics, recursion bounds) never collide.

use pathalg::algebra::budget::RequestQuota;
use pathalg::algebra::error::AlgebraError;
use pathalg::algebra::expr::PlanExpr;
use pathalg::algebra::obs::Stage;
use pathalg::algebra::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg::algebra::path::Path;
use pathalg::engine::runner::{QueryRunner, RunnerConfig};
use pathalg::graph::fixtures::figure1::figure1_graph;
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::generator::structured::complete_graph;
use pathalg::parser::{
    lower_to_checked_plan, parse_query, parse_surface, plan_cache_key, QuerySurface,
};
use pathalg::rpq::parse::MAX_NESTING_DEPTH;
use pathalg::server::service::QueryOutcome;
use pathalg::server::{
    handle_line, AdmissionError, CacheStatus, DedupRole, QueryService, ServiceConfig, ServiceError,
};
use pathalg_engine::exec::ExecutionConfig;
use proptest::prelude::*;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The recursive workload every test submits: dense enough on the complete
/// graph to be measurably expensive, trivial on Figure 1.
const TRAIL: &str = "MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)";

fn figure1_service() -> Arc<QueryService> {
    Arc::new(QueryService::with_defaults(Arc::new(figure1_graph())))
}

/// A service over K_n (complete Knows graph) with the admission gate off and
/// bounded recursion — expensive enough that a herd genuinely overlaps.
fn dense_service(n: usize, max_length: usize) -> Arc<QueryService> {
    let config = ServiceConfig {
        recursion: RecursionConfig {
            max_length: Some(max_length),
            max_paths: None,
        },
        admission_ceiling: None,
        ..ServiceConfig::default()
    };
    Arc::new(QueryService::new(
        Arc::new(complete_graph(n, "Knows")),
        config,
    ))
}

// ---------------------------------------------------------------------------
// In-flight deduplication
// ---------------------------------------------------------------------------

/// 8 threads race the same expensive closure. A pre-execute fence holds the
/// leader until all 7 others have registered as waiters, so the dedup window
/// is guaranteed (not racy): exactly one evaluation must serve all 8, and
/// every response must carry byte-identical canonical output — the very
/// bytes the leader rendered, shared rather than re-rendered.
#[test]
fn thundering_herd_coalesces_onto_one_evaluation() {
    const HERD: u64 = 8;
    let svc = dense_service(7, 5);
    svc.set_pre_execute_hook(Box::new(|metrics| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while metrics.snapshot().dedup_hits < HERD - 1 {
            assert!(Instant::now() < deadline, "herd never assembled");
            thread::sleep(Duration::from_millis(1));
        }
    }));
    let outputs: Vec<(DedupRole, Vec<String>, Arc<QueryOutcome>)> = thread::scope(|scope| {
        let workers: Vec<_> = (0..HERD)
            .map(|_| {
                let svc = svc.clone();
                scope.spawn(move || {
                    let response = svc.submit(TRAIL).expect("herd submit");
                    (
                        response.dedup,
                        response.outcome.canonical_lines(),
                        response.outcome.clone(),
                    )
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    svc.clear_pre_execute_hook();

    assert_eq!(
        svc.metrics().snapshot().executions,
        1,
        "one leader evaluation"
    );
    assert_eq!(svc.metrics().snapshot().dedup_hits, HERD - 1);
    assert_eq!(svc.metrics().snapshot().served, HERD);
    let leaders = outputs
        .iter()
        .filter(|(role, ..)| *role == DedupRole::Leader)
        .count();
    assert_eq!(leaders, 1, "exactly one request led the flight");
    let reference = &outputs[0].1;
    assert!(!reference.is_empty());
    let leader = &outputs
        .iter()
        .find(|(role, ..)| *role == DedupRole::Leader)
        .expect("one leader")
        .2;
    for (_, lines, outcome) in &outputs {
        assert_eq!(lines, reference, "every waiter got identical bytes");
        assert!(
            Arc::ptr_eq(outcome, leader) && std::ptr::eq(&*outcome.body, &*leader.body),
            "every waiter shares the leader's rendered body"
        );
    }

    // The traces attribute the evaluation: exactly one member of the herd
    // carries an execute span and the work counters (the leader); the other
    // seven are dedup-attributed — no execute span, no work of their own.
    let traces = svc.traces().all();
    assert_eq!(traces.len(), HERD as usize, "one trace per herd member");
    let executed: Vec<_> = traces
        .iter()
        .filter(|t| t.spans.get(Stage::Execute).is_some())
        .collect();
    assert_eq!(executed.len(), 1, "exactly one execute span in the herd");
    assert_eq!(executed[0].dedup, Some(DedupRole::Leader));
    assert!(
        !executed[0].work.is_empty(),
        "the leader's trace carries the evaluation's work counters"
    );
    let waiters: Vec<_> = traces
        .iter()
        .filter(|t| t.dedup == Some(DedupRole::Waiter))
        .collect();
    assert_eq!(waiters.len(), (HERD - 1) as usize, "seven dedup-attributed");
    for waiter in waiters {
        assert_eq!(waiter.spans.get(Stage::Execute), None, "waiter never ran");
        assert!(waiter.work.is_empty(), "work attributed to the leader only");
        assert_eq!(waiter.paths, executed[0].paths, "shared outcome");
    }
}

/// The coalesced herd result must be byte-identical to a solo run of the
/// same query.
#[test]
fn herd_output_matches_solo() {
    let solo = dense_service(7, 5)
        .submit(TRAIL)
        .expect("solo submit")
        .outcome
        .canonical_lines();
    let svc = dense_service(7, 5);
    let herd: Vec<Vec<String>> = thread::scope(|scope| {
        let workers: Vec<_> = (0..8)
            .map(|_| {
                let svc = svc.clone();
                scope.spawn(move || {
                    svc.submit(TRAIL)
                        .expect("herd submit")
                        .outcome
                        .canonical_lines()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for lines in &herd {
        assert_eq!(lines, &solo, "herd ≡ solo bytes");
    }
    assert!(
        svc.metrics().snapshot().executions <= 8,
        "never more evaluations than submitters"
    );
}

// ---------------------------------------------------------------------------
// Plan cache + epochs
// ---------------------------------------------------------------------------

/// A stats-epoch bump must invalidate every cached plan: the same query is
/// a miss again, and replanning repopulates the cache at the new epoch.
#[test]
fn epoch_bump_invalidates_the_plan_cache() {
    let svc = figure1_service();
    let cold = svc.submit(TRAIL).unwrap();
    assert_eq!(cold.cache, CacheStatus::Miss);
    let warm = svc.submit(TRAIL).unwrap();
    assert_eq!(warm.cache, CacheStatus::Hit);
    assert_eq!(warm.epoch, cold.epoch);
    assert_eq!(svc.cached_plans(), 1);

    let bumped = svc.bump_epoch();
    assert!(bumped > cold.epoch);
    assert_eq!(svc.cached_plans(), 0, "stale entries purged");
    let replanned = svc.submit(TRAIL).unwrap();
    assert_eq!(replanned.cache, CacheStatus::Miss, "stale epoch = cold");
    assert_eq!(replanned.epoch, bumped);
    assert_eq!(
        replanned.outcome.canonical_lines(),
        cold.outcome.canonical_lines(),
        "same graph, same answer across epochs"
    );
    assert_eq!(svc.submit(TRAIL).unwrap().cache, CacheStatus::Hit);
}

// ---------------------------------------------------------------------------
// One pipeline: the runner and the service plan and evaluate alike
// ---------------------------------------------------------------------------

/// The benchmark's four query shapes on a small SNB graph — the point
/// `ANY SHORTEST` scan and join, the target-anchored `ALL SHORTEST` join and
/// the unanchored `ALL WALK` — give the same optimized plan, the same
/// strategy decisions (operator, chosen, estimate) and the same answer
/// bytes through `QueryRunner::run` and `QueryService::submit`. Both parse
/// through one front door: the runner's query is `parse_surface`'s IR, and a
/// malformed text fails with the service's parse message.
#[test]
fn the_runner_and_the_service_run_one_pipeline() {
    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(200, 11)));
    let config = ServiceConfig {
        recursion: RecursionConfig {
            max_length: Some(3),
            max_paths: None,
        },
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(graph.clone(), config);
    let runner = QueryRunner::with_config(
        &graph,
        RunnerConfig {
            recursion: svc.effective_recursion(),
            ..RunnerConfig::default()
        },
    );
    for query in [
        r#"MATCH ANY SHORTEST WALK p = (?x {name:"Moe0"})-[:Knows+]->(?y)"#,
        r#"MATCH ANY SHORTEST TRAIL p = (?x {name:"Moe0"})-[(:Likes/:Has_creator)+]->(?y)"#,
        r#"MATCH ALL SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y {name:"Apu1"})"#,
        "MATCH ALL WALK p = (?x)-[:Knows+]->(?y)",
    ] {
        let ran = runner.run(query).unwrap();
        assert_eq!(
            ran.query(),
            &parse_surface(QuerySurface::Gql, query).unwrap(),
            "{query}"
        );
        let served = svc.submit(query).unwrap();
        let (planned, _) = svc.prepare(query).unwrap();
        assert_eq!(&planned.plan, ran.optimized_plan(), "{query}");
        assert_eq!(
            served.outcome.decisions,
            ran.strategy_decisions(),
            "{query}"
        );
        assert!(
            ran.strategy_decisions()
                .iter()
                .all(|d| d.estimate.is_some()),
            "{query}: every decision carries its estimate"
        );
        let lines: Vec<String> = ran.paths().iter().map(Path::display_ids).collect();
        assert!(!lines.is_empty(), "{query}");
        assert_eq!(served.outcome.canonical_lines(), lines, "{query}");
    }
    // A malformed text fails at the same front door with the same message.
    let malformed = "MATCH ALL TRAIL p = (?x)-[:Knows+]->";
    let Err(ServiceError::Parse(message)) = svc.submit(malformed) else {
        panic!("the service must refuse {malformed} with a parse error");
    };
    let ran = runner.run(malformed).unwrap_err().to_string();
    assert!(ran.contains(&message), "runner: {ran}; service: {message}");
}

/// The benchmark's three `reach_target` shapes (target-anchored `:Knows+`
/// and `(:Likes/:Has_creator)+`, `max_length` 2) on an SNB graph. The two
/// drains and the sliced `ANY SHORTEST` take the endpoint σ as masks and
/// search backwards from their anchor, each generating under a tenth of the
/// arena steps of the same query unanchored. Every answer is the reference
/// evaluator's.
#[test]
fn target_anchored_drains_search_backwards_from_the_anchor() {
    use pathalg::algebra::eval::{EvalConfig, Evaluator};

    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(200, 11)));
    let recursion = RecursionConfig {
        max_length: Some(2),
        max_paths: None,
    };
    let config = ServiceConfig {
        recursion,
        admission_ceiling: None,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(graph.clone(), config);
    let anchor = r#" {name:"Apu1"}"#;
    for (query, reversed) in [
        ("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y@)", true),
        (
            "MATCH ALL SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y@)",
            true,
        ),
        ("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y@)", true),
    ] {
        let anchored = query.replace('@', anchor);
        let served = svc.submit(&anchored).unwrap();
        let (planned, _) = svc.prepare(&anchored).unwrap();
        let reference = Evaluator::with_config(&graph, EvalConfig { recursion })
            .eval_paths(&planned.plan)
            .unwrap();
        let mut expected: Vec<String> = reference.iter().map(Path::display_ids).collect();
        let mut lines = served.outcome.canonical_lines();
        assert!(!lines.is_empty(), "{anchored}");
        expected.sort();
        lines.sort();
        assert_eq!(lines, expected, "{anchored}");
        let [decision] = &served.outcome.decisions[..] else {
            panic!("{anchored}: one ϕ, one decision");
        };
        assert_eq!(
            decision.operator.ends_with(", reversed"),
            reversed,
            "{anchored}: {decision}"
        );
        if reversed {
            let unanchored = svc.submit(&query.replace('@', "")).unwrap();
            let (masked, full) = (
                served.outcome.work.arena_steps,
                unanchored.outcome.work.arena_steps,
            );
            assert!(masked * 10 < full, "{anchored}: {masked} vs {full} steps");
        }
    }
}

/// `mixed_concurrent`'s four templates at its `max_length` (3) on the
/// benchmark's SNB-10 000 graph, under the **default** `ServiceConfig` quota
/// and admission ceiling. The target-anchored `ANY SHORTEST` starts at its
/// anchor instead of expanding all 30 000 sources past the quota; every
/// answer is the reference evaluator's.
#[test]
fn mixed_concurrent_templates_answer_under_the_default_quota() {
    use pathalg::algebra::eval::{EvalConfig, Evaluator};

    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(10_000, 11)));
    let recursion = RecursionConfig {
        max_length: Some(3),
        max_paths: None,
    };
    let config = ServiceConfig {
        recursion,
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(graph.clone(), config);
    let anchor = r#"{name:"Lisa1266"}"#;
    for query in [
        "MATCH ANY SHORTEST WALK p = (?x @)-[:Knows+]->(?y)",
        "MATCH ANY SHORTEST TRAIL p = (?x @)-[(:Likes/:Has_creator)+]->(?y)",
        "MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y @)",
        "MATCH ALL SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y @)",
    ] {
        let query = query.replace('@', anchor);
        let served = svc
            .submit(&query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let (planned, _) = svc.prepare(&query).unwrap();
        let reference = Evaluator::with_config(&graph, EvalConfig { recursion })
            .eval_paths(&planned.plan)
            .unwrap();
        let mut expected: Vec<String> = reference.iter().map(Path::display_ids).collect();
        let mut lines = served.outcome.canonical_lines();
        assert!(!lines.is_empty(), "{query}");
        expected.sort();
        lines.sort();
        assert_eq!(lines, expected, "{query}");
    }
}

// ---------------------------------------------------------------------------
// Admission control + budget faults
// ---------------------------------------------------------------------------

/// A predicted blow-up over the ceiling is refused at admission: the typed
/// error carries the estimate, and no evaluation ever starts.
#[test]
fn admission_rejects_predicted_blowup_before_enumerating() {
    let config = ServiceConfig {
        admission_ceiling: Some(1_000.0),
        ..ServiceConfig::default()
    };
    let svc = QueryService::new(Arc::new(complete_graph(14, "Knows")), config);
    let err = svc
        .submit(TRAIL)
        .expect_err("K14 walk closure must be refused");
    match &err {
        ServiceError::Admission(AdmissionError::PredictedBlowup {
            estimate, ceiling, ..
        }) => {
            assert!(estimate.paths > *ceiling);
            assert!(estimate.blows_up());
        }
        other => panic!("expected admission rejection, got {other:?}"),
    }
    assert_eq!(err.kind(), "admission");
    assert_eq!(
        svc.metrics().snapshot().executions,
        0,
        "rejection precedes evaluation"
    );
    assert_eq!(svc.metrics().snapshot().admission_rejected, 1);
    // The rejecting estimate rides along with the counter, so observed vs
    // ceiling is reportable from the metrics alone.
    let (estimate, ceiling) = svc.metrics().snapshot().last_rejection.expect("evidence");
    assert_eq!(ceiling, 1_000.0);
    assert!(estimate > ceiling, "estimate {estimate} over ceiling");
}

/// Admission prices an anchored ϕ at its anchored share: a source- and a
/// target-anchored lookup on the benchmark's SNB-10 000 graph, whose bare
/// closures are estimated past the default ceiling (≈ 7.3 and ≈ 21.9
/// million paths), are admitted under the default `ServiceConfig` and
/// answered.
#[test]
fn anchored_lookups_answer_under_the_default_ceiling() {
    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(10_000, 11)));
    for (query, max_length, paths) in [
        (
            r#"MATCH ANY SHORTEST WALK p = (?x {name:"Lisa1234"})-[:Knows+]->(?y)"#,
            5,
            359,
        ),
        (
            r#"MATCH ALL SHORTEST WALK p = (?x)-[:Knows+]->(?y {name:"Lisa1234"})"#,
            6,
            1_375,
        ),
    ] {
        let config = ServiceConfig {
            recursion: RecursionConfig {
                max_length: Some(max_length),
                ..RecursionConfig::default()
            },
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(graph.clone(), config);
        let served = svc
            .submit(query)
            .unwrap_or_else(|e| panic!("{query} at max_length {max_length}: {e}"));
        assert_eq!(served.outcome.path_count, paths, "{query}");
        assert_eq!(svc.metrics().snapshot().admission_rejected, 0, "{query}");
    }
}

/// The benchmark's seven templates on its SNB-10 000 graph, each under its
/// workload's `max_length`: admission (`prepare_on`) prices every anchored
/// ϕ with the number the served request's strategy decision records, and
/// that number is the bare ϕ's estimate times the anchor's share of the
/// 30 000 nodes (one name, one node) per anchored side.
#[test]
fn admission_and_the_recorded_decision_read_one_estimate() {
    use pathalg::engine::cost::estimate_plan_closures;
    use pathalg::graph::stats::GraphStats;

    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(10_000, 11)));
    let stats = GraphStats::compute(&graph);
    assert_eq!(stats.node_count(), 30_000);
    let name = r#"{name:"Lisa1234"}"#;
    for (template, max_length, anchored_sides) in [
        ("MATCH ANY SHORTEST WALK p = (?x @)-[:Knows+]->(?y)", 4, 1),
        (
            "MATCH ANY SHORTEST TRAIL p = (?x @)-[(:Likes/:Has_creator)+]->(?y)",
            4,
            1,
        ),
        ("MATCH ANY SHORTEST WALK p = (?x)-[:Knows+]->(?y @)", 2, 1),
        (
            "MATCH ALL SHORTEST WALK p = (?x)-[(:Likes/:Has_creator)+]->(?y @)",
            2,
            1,
        ),
        ("MATCH ALL TRAIL p = (?x)-[:Knows+]->(?y @)", 2, 1),
        ("MATCH ALL WALK p = (?x)-[:Knows+]->(?y @)", 2, 0),
        (
            "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Likes/:Has_creator)+]->(?y @)",
            2,
            0,
        ),
    ] {
        let query = template.replace('@', if anchored_sides > 0 { name } else { "" });
        let recursion = RecursionConfig {
            max_length: Some(max_length),
            max_paths: None,
        };
        let config = ServiceConfig {
            recursion,
            quota: RequestQuota::new(Some(2_000_000), None),
            ..ServiceConfig::default()
        };
        let svc = QueryService::new(graph.clone(), config);
        let served = svc
            .submit(&query)
            .unwrap_or_else(|e| panic!("{query}: {e}"));
        let (planned, _) = svc.prepare_on(QuerySurface::Gql, &query).unwrap();
        let [(_, admitted)] = planned.closures[..] else {
            panic!("{query}: one ϕ, one admission estimate");
        };
        let [decision] = &served.outcome.decisions[..] else {
            panic!("{query}: one ϕ, one decision");
        };
        assert_eq!(decision.estimate, Some(admitted), "{query}");
        let phi = first_phi(&planned.plan).expect("every template has a ϕ");
        let [(_, bare)] = estimate_plan_closures(phi, &stats, &recursion)[..] else {
            panic!("{query}: one bare ϕ");
        };
        let share = (1.0 / 30_000.0_f64).powi(anchored_sides);
        assert_eq!(admitted.paths, bare.paths * share, "{query}");
    }
}

/// The outermost ϕ node of a plan.
fn first_phi(plan: &PlanExpr) -> Option<&PlanExpr> {
    match plan {
        PlanExpr::Recursive { .. } => Some(plan),
        _ => plan.children().into_iter().find_map(first_phi),
    }
}

/// The default per-request quota is one constant: a thread count handed to
/// the service is accepted and ignored, and never scales admission.
#[test]
fn default_quota_does_not_scale_with_a_thread_count() {
    assert_eq!(
        ServiceConfig::with_execution(ExecutionConfig::with_threads(8)).quota,
        ServiceConfig::default().quota
    );
}

/// A tight per-request path budget trips mid-enumeration. The same typed
/// error must surface serially and under 2/8-way concurrency, and the
/// service must keep serving afterwards (no wedged flight, no poisoning).
#[test]
fn budget_exhaustion_is_typed_and_does_not_wedge_the_service() {
    let build = || {
        let config = ServiceConfig {
            admission_ceiling: None,
            // Min-combined into every request: the closure on K7 has far
            // more than 10 trails, so enumeration starts and then trips.
            quota: RequestQuota::new(Some(10), None),
            recursion: RecursionConfig {
                max_length: Some(5),
                max_paths: None,
            },
            ..ServiceConfig::default()
        };
        Arc::new(QueryService::new(
            Arc::new(complete_graph(7, "Knows")),
            config,
        ))
    };
    let expect_budget_trip = |err: &ServiceError| match err {
        ServiceError::Evaluation(AlgebraError::ResultLimitExceeded { limit }) => {
            assert_eq!(*limit, 10, "the request quota is the limit that trips")
        }
        other => panic!("expected a budget trip, got {other:?}"),
    };

    // Serially.
    let svc = build();
    let serial = svc.submit(TRAIL).expect_err("budget must trip");
    expect_budget_trip(&serial);
    assert_eq!(serial.kind(), "evaluation");

    // Under concurrency: every member of the herd sees the same typed error
    // (leader and waiters alike — errors fan out through the flight too).
    for herd in [2usize, 8] {
        let svc = build();
        let errors: Vec<ServiceError> = thread::scope(|scope| {
            let workers: Vec<_> = (0..herd)
                .map(|_| {
                    let svc = svc.clone();
                    scope.spawn(move || svc.submit(TRAIL).expect_err("budget must trip"))
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        for err in &errors {
            expect_budget_trip(err);
            assert_eq!(err, &serial, "identical typed error at herd={herd}");
        }
        // The failed flight is unregistered: the service still serves. (A
        // non-recursive query — the path quota caps ϕ, which every closure
        // on K7 exceeds by design here.)
        let followup = svc
            .submit("MATCH ALL TRAIL p = (?x)-[:Knows]->(?y)")
            .expect("service must recover after a budget fault");
        assert!(followup.outcome.path_count > 0);
    }
}

// ---------------------------------------------------------------------------
// One record per request: every counter agrees with the kept traces
// ---------------------------------------------------------------------------

/// One request of every kind — a success, a parse error, an admission
/// refusal, a shed behind a fenced leader, a deadline timeout and an
/// explicit cancel — and every counter in the snapshot equals the number of
/// retained traces with that outcome.
#[test]
fn every_counter_matches_the_traces_of_one_request_of_each_kind() {
    use pathalg::algebra::budget::CancelToken;
    use pathalg::server::trace::QueryTrace;
    use std::sync::atomic::{AtomicBool, Ordering};

    let config = ServiceConfig {
        admission_ceiling: Some(1_000.0),
        max_concurrent: Some(1),
        ..ServiceConfig::default()
    };
    let svc = Arc::new(QueryService::new(
        Arc::new(complete_graph(14, "Knows")),
        config,
    ));
    let hop = "MATCH ALL WALK p = (?x)-[:Knows]->(?y)";
    let two_hops = "MATCH ALL WALK p = (?x)-[:Knows/:Knows]->(?y)";

    let ok = svc
        .submit(hop)
        .expect("a plain hop is admitted and answered");
    assert!(ok.outcome.path_count > 0);
    assert_eq!(svc.submit("NOT GQL AT ALL").unwrap_err().kind(), "parse");
    assert_eq!(svc.submit(TRAIL).unwrap_err().kind(), "admission");

    // The shed: a leader holds the only execution permit on the fence
    // while a different query arrives.
    let (entered, release) = (
        Arc::new(AtomicBool::new(false)),
        Arc::new(AtomicBool::new(false)),
    );
    svc.set_pre_execute_hook(Box::new({
        let (entered, release) = (entered.clone(), release.clone());
        move |_| {
            entered.store(true, Ordering::SeqCst);
            let deadline = Instant::now() + Duration::from_secs(30);
            while !release.load(Ordering::SeqCst) {
                assert!(Instant::now() < deadline, "the fence was never released");
                thread::sleep(Duration::from_millis(1));
            }
        }
    }));
    let leader = {
        let svc = svc.clone();
        thread::spawn(move || svc.submit(two_hops))
    };
    let deadline = Instant::now() + Duration::from_secs(30);
    while !entered.load(Ordering::SeqCst) {
        assert!(
            Instant::now() < deadline,
            "the leader never reached the fence"
        );
        thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(svc.submit(hop).unwrap_err().kind(), "overloaded");
    release.store(true, Ordering::SeqCst);
    assert!(
        leader.join().unwrap().is_ok(),
        "the fenced leader is served"
    );
    svc.clear_pre_execute_hook();

    assert_eq!(
        svc.submit_with_deadline(hop, Duration::ZERO)
            .unwrap_err()
            .kind(),
        "timeout"
    );
    let token = Arc::new(CancelToken::new());
    token.cancel();
    assert_eq!(
        svc.submit_on_token(QuerySurface::Gql, hop, token)
            .unwrap_err()
            .kind(),
        "cancelled"
    );

    let traces = svc.traces().all();
    assert_eq!(traces.len(), 7, "one trace per request");
    let count =
        |keep: &dyn Fn(&QueryTrace) -> bool| traces.iter().filter(|t| keep(t)).count() as u64;
    let outcome = |name: &'static str| move |t: &QueryTrace| t.outcome == Some(name);
    let m = svc.metrics().snapshot();
    assert_eq!(m.served, count(&|t| t.error.is_none()));
    assert_eq!(m.served, 2);
    assert_eq!(m.timeouts, count(&outcome("timeout")));
    assert_eq!(m.cancelled, count(&outcome("cancelled")));
    assert_eq!(m.shed, count(&outcome("shed")));
    assert_eq!(m.panicked, count(&outcome("panic")));
    assert_eq!((m.timeouts, m.cancelled, m.shed, m.panicked), (1, 1, 1, 0));
    assert_eq!(
        m.admission_rejected,
        count(&|t| t
            .error
            .as_deref()
            .is_some_and(|e| e.starts_with("admission rejected")))
    );
    assert_eq!(m.admission_rejected, 1);
    assert_eq!(
        m.executions,
        count(&|t| t.spans.get(Stage::Execute).is_some())
    );
    assert_eq!(
        m.executions, 4,
        "the two successes, the timeout and the cancel"
    );
    assert_eq!(m.dedup_hits, count(&|t| t.dedup == Some(DedupRole::Waiter)));
    assert_eq!(m.cache_hits, count(&|t| t.cache == Some(CacheStatus::Hit)));
    assert_eq!(
        m.cache_misses,
        count(&|t| t.cache == Some(CacheStatus::Miss))
    );
    assert_eq!(
        m.cache_hits + m.cache_misses,
        6,
        "all but the parse error planned"
    );
    assert_eq!(m.by_surface.iter().sum::<u64>(), traces.len() as u64);
    assert_eq!(m.last_rejection.map(|(_, ceiling)| ceiling), Some(1_000.0));
}

// ---------------------------------------------------------------------------
// Bounded inputs: the quota bounds ⋈, and no nesting overflows the stack
// ---------------------------------------------------------------------------

/// SNB-50 under the default configuration, whose quota is 250 000 paths.
fn snb50_service() -> QueryService {
    QueryService::new(
        Arc::new(snb_like_graph(&SnbConfig::scale(50, 11))),
        ServiceConfig::default(),
    )
}

/// `:Knows/…/:Knows` of `hops` hops: a join chain with no ϕ, 3^hops paths
/// per person on SNB-50.
fn knows_chain(hops: usize) -> String {
    vec![":Knows"; hops].join("/")
}

/// A plain label chain has no ϕ for the quota to stop, so ⋈ checks it: 8
/// hops (328 050 paths) and 12 hops both fail with ϕ's typed error instead
/// of materialising the answer, and the service serves the next request.
#[test]
fn the_request_quota_bounds_a_join_chain_like_a_closure() {
    let svc = snb50_service();
    for hops in [8, 12] {
        let rule = format!("reach(x, y) :- {}, walk, all.", knows_chain(hops));
        let err = match svc.submit_on(QuerySurface::Rpq, &rule) {
            Ok(ok) => panic!("{hops} hops answered {} paths", ok.outcome.path_count),
            Err(err) => err,
        };
        assert_eq!(
            err,
            ServiceError::Evaluation(AlgebraError::ResultLimitExceeded { limit: 250_000 }),
            "{hops} hops"
        );
    }
    let within = format!("reach(x, y) :- {}, walk, all.", knows_chain(4));
    let ok = svc
        .submit_on(QuerySurface::Rpq, &within)
        .expect("4 hops fit");
    assert_eq!(ok.outcome.path_count, 50 * 3usize.pow(4));
}

/// The environment variable that makes this test binary, re-run by
/// [`every_surface_refuses_deep_nesting_with_a_typed_error`], execute one
/// nesting case instead of spawning them.
const NESTING_CASE: &str = "PATHALG_NESTING_CASE";

/// One request line per nesting shape, each 10⁵ levels deep (the `WHERE`
/// chain and the property map 5 × 10⁴, to stay under the 1 MiB line
/// bound). Without a depth bound each of these overflows a 2 MiB stack,
/// which aborts the whole process.
fn deep_request_lines() -> Vec<String> {
    const LEVELS: usize = 100_000;
    let parens = format!("{}:Knows{}", "(".repeat(LEVELS), ")".repeat(LEVELS));
    let alternation = vec![":Knows"; LEVELS].join("|");
    let condition = vec!["len() = 1"; LEVELS / 2].join(" AND ");
    let properties = vec!["k:1"; LEVELS / 2].join(", ");
    vec![
        format!("QUERY RPQ reach(x, y) :- {parens}, walk, all."),
        format!(
            "QUERY RPQ reach(x, y) :- {}, walk, all.",
            knows_chain(LEVELS)
        ),
        format!("QUERY RPQ reach(x, y) :- {alternation}, walk, all."),
        format!(
            "QUERY MATCH ALL TRAIL p = (?x)-[{}]->(?y)",
            knows_chain(LEVELS)
        ),
        format!("QUERY MATCH ALL TRAIL p = (?x)-[:Knows]->(?y) WHERE {condition}"),
        format!("QUERY IR {}{}", "[".repeat(LEVELS), "]".repeat(LEVELS)),
        format!("QUERY RPQ reach(x {{{properties}}}, y) :- :Knows, walk, all."),
        format!("QUERY MATCH ALL TRAIL p = (?x)-[:Knows{{{LEVELS}}}]->(?y)"),
    ]
}

/// Every shape gets an `ERR` line through `handle_line` on a 2 MiB stack,
/// the size of a connection thread, and the same service then answers a
/// normal query. Each case runs in a child process, so an overflow fails
/// the test instead of aborting the test binary.
#[test]
fn every_surface_refuses_deep_nesting_with_a_typed_error() {
    let lines = deep_request_lines();
    if let Ok(case) = std::env::var(NESTING_CASE) {
        let line = lines[case.parse::<usize>().unwrap()].clone();
        let svc = snb50_service();
        let replies = thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || {
                let refused = handle_line(&svc, &line).unwrap();
                let served = handle_line(&svc, "QUERY MATCH ALL TRAIL p = (?x)-[:Knows]->(?y)");
                (refused, served.unwrap())
            })
            .unwrap()
            .join()
            .unwrap();
        let refusal = &replies.0[0];
        let bound = format!("deeper than {MAX_NESTING_DEPTH} levels");
        assert!(
            refusal.starts_with("ERR ") && refusal.contains(&bound),
            "{refusal}"
        );
        assert!(replies.1[0].starts_with("OK 150 "), "{}", replies.1[0]);
        return;
    }
    for (case, line) in lines.iter().enumerate() {
        let child = std::process::Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "every_surface_refuses_deep_nesting_with_a_typed_error",
            ])
            .env(NESTING_CASE, case.to_string())
            .output()
            .unwrap();
        assert!(
            child.status.success(),
            "case {case} ({}…): {}",
            &line[..40],
            String::from_utf8_lossy(&child.stderr)
        );
    }
}

// ---------------------------------------------------------------------------
// Plan-cache key properties (vendored proptest)
// ---------------------------------------------------------------------------

use pathalg::algebra::plan::scan;

/// Builds an arbitrary association shape of `labels.join(...)` driven by the
/// proptest-supplied split seed — same label sequence, different tree. Each
/// recursion peels one byte off the seed to pick the split point.
fn join_tree(labels: &[&str], seed: u64) -> PlanExpr {
    if labels.len() == 1 {
        return scan(labels[0]);
    }
    let split = (seed & 0xff) as usize % (labels.len() - 1) + 1;
    join_tree(&labels[..split], seed >> 8).join(join_tree(&labels[split..], seed >> 8 >> 8))
}

/// The label sequence the seed encodes: 2 bits per position.
fn label_sequence(seed: u64, len: usize) -> Vec<&'static str> {
    (0..len)
        .map(|i| LABELS[((seed >> (2 * i)) & 0b11) as usize % LABELS.len()])
        .collect()
}

const LABELS: [&str; 3] = ["Knows", "Likes", "Has_creator"];
// Non-keyword identifiers only (SOURCE/TARGET etc. are reserved).
const NAMES: [&str; 6] = ["x", "y", "alpha", "beta", "src", "dst"];
const SEMANTICS: [PathSemantics; 3] = [
    PathSemantics::Walk,
    PathSemantics::Trail,
    PathSemantics::Simple,
];

fn unbounded() -> RecursionConfig {
    RecursionConfig {
        max_length: Some(6),
        max_paths: None,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Two arbitrary association shapes over the same label sequence under
    /// the same ϕ semantics normalise to the same cache key; changing the
    /// sequence, the semantics, or the recursion bounds always changes it.
    #[test]
    fn cache_key_is_association_invariant_and_semantics_sensitive(
        len in 2usize..6,
        label_seed in 0u64..(1u64 << 62),
        shape_a in 0u64..(1u64 << 62),
        shape_b in 0u64..(1u64 << 62),
        sem in 0usize..SEMANTICS.len(),
    ) {
        let labels = label_sequence(label_seed, len);
        let tree_a = join_tree(&labels, shape_a).recursive(SEMANTICS[sem]);
        let tree_b = join_tree(&labels, shape_b).recursive(SEMANTICS[sem]);
        let key_a = plan_cache_key(&tree_a, &unbounded());
        let key_b = plan_cache_key(&tree_b, &unbounded());
        prop_assert_eq!(&key_a, &key_b, "association reorder must share a key");

        // Distinct ϕ semantics never collide.
        let other = SEMANTICS[(sem + 1) % SEMANTICS.len()];
        let tree_other = join_tree(&labels, shape_a).recursive(other);
        let key_other = plan_cache_key(&tree_other, &unbounded());
        prop_assert!(key_a != key_other, "semantics must reach the key");

        // Distinct recursion bounds never collide (they change results).
        let tighter = RecursionConfig { max_length: Some(3), max_paths: Some(10) };
        let key_tight = plan_cache_key(&tree_a, &tighter);
        prop_assert!(key_a != key_tight, "bounds must reach the key");

        // A different label sequence never collides.
        let mut swapped = labels.clone();
        let current = LABELS.iter().position(|l| *l == swapped[0]).unwrap();
        swapped[0] = LABELS[(current + 1) % LABELS.len()];
        let tree_swapped = join_tree(&swapped, shape_a).recursive(SEMANTICS[sem]);
        let key_swapped = plan_cache_key(&tree_swapped, &unbounded());
        prop_assert!(key_a != key_swapped, "labels must reach the key");
    }

    /// α-equivalence is free: the surface variable names never reach the
    /// plan, so renaming them cannot change the cache key.
    #[test]
    fn cache_key_ignores_surface_variable_names(
        a in 0usize..NAMES.len(),
        b in 0usize..NAMES.len(),
        p in 0usize..NAMES.len(),
    ) {
        let original =
            lower_to_checked_plan(&parse_query("MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)").unwrap())
                .unwrap();
        let renamed_text = format!(
            "MATCH ALL TRAIL {} = (?{})-[(:Knows)+]->(?{})",
            NAMES[p], NAMES[a], NAMES[b],
        );
        if p == a || p == b || a == b {
            // A name drawn twice is a repeated variable: a typed parse error.
            let repeated = if a == b { NAMES[a] } else { NAMES[p] };
            let err = parse_query(&renamed_text).unwrap_err();
            prop_assert!(
                err.message.contains(&format!("variable {repeated} is bound twice")),
                "{}: {}", renamed_text, err
            );
            return;
        }
        let renamed = lower_to_checked_plan(&parse_query(&renamed_text).unwrap()).unwrap();
        prop_assert_eq!(
            plan_cache_key(&original, &unbounded()),
            plan_cache_key(&renamed, &unbounded())
        );
    }
}
