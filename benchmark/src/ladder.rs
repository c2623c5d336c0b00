//! The traced run: the per-layer metrics.
//!
//! Spans are recorded from here, around calls into each crate's public
//! functions; nothing inside the crates is instrumented. The layers of one
//! query are measured by running that query once per rung, outermost first:
//!
//! ```text
//! server.socket_rtt        Client::request + Response::parse   (what Client::query does)
//! └ server.handle_line     protocol::handle_line               (parse line, submit, render)
//!   └ server.submit        QueryService::submit_on             (caches, admission, dedup, execute)
//!     └ engine.eval        EngineEvaluator::eval_paths         (strategy choice, index build, kernel, σ/γ/τ/π)
//!       ├ graph.label_csr_build   CsrGraph::with_label per scanned label
//!       └ pmr.kernel_count        the Pmr drain on the indexes just built
//! ```
//!
//! Each rung contains the work of the rungs under it, so a rung's self time
//! is its duration minus its children's. The parent links in the span file
//! are these logical ones; the start/end stamps are when each rung ran.

use crate::run::{closed_loop, service_config, timed_step, Env, LoopResult, OUT_DIR};
use crate::util::{digest_lines, median, ms, percentile, ratio, us, Digest};
use crate::workload::{Step, Workload, PERSONS};
use crate::Outcome;
use pathalg::algebra::condition::Condition;
use pathalg::algebra::expr::PlanExpr;
use pathalg::algebra::obs::WorkCounters;
use pathalg::algebra::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg::algebra::optimizer::Optimizer;
use pathalg::algebra::path::Path;
use pathalg::algebra::pathset::PathSet;
use pathalg::algebra::slice::SliceSpec;
use pathalg::engine::cost::{choose_pipeline_impl, estimate_plan_closures};
use pathalg::engine::exec::{EngineEvaluator, ExecutionConfig, StrategyDecision};
use pathalg::graph::csr::CsrGraph;
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::graph::PropertyGraph;
use pathalg::graph::ids::NodeId;
use pathalg::graph::stats::GraphStats;
use pathalg::parser::{parse_to_checked_plan, plan_cache_key, QuerySurface};
use pathalg::pmr::{EndpointFilter, Pmr};
use pathalg::rpq::compile::compile_to_algebra;
use pathalg::rpq::parse::parse_regex;
use pathalg::server::{handle_line, MetricsSnapshot, QueryService, Request, Response};
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The ladder, outermost rung first: name and index of the parent rung.
const RUNGS: [(&str, Option<usize>); 6] = [
    ("server.socket_rtt", None),
    ("server.handle_line", Some(0)),
    ("server.submit", Some(1)),
    ("engine.eval", Some(2)),
    ("graph.label_csr_build", Some(3)),
    ("pmr.kernel_count", Some(3)),
];
const SOCKET: usize = 0;
const HANDLE_LINE: usize = 1;
const SUBMIT: usize = 2;
const EVAL: usize = 3;
const CSR_BUILD: usize = 4;
const KERNEL: usize = 5;

/// Share of `--seconds` spent in the untraced closed loop that the tracing
/// overhead and the service counters are taken from.
const UNTRACED_SHARE: f64 = 0.25;
/// Share of `--seconds` the ladder repeats within (it always completes
/// [`MIN_LADDER_REPS`] rounds, however long they take).
const LADDER_SHARE: f64 = 0.55;
const MIN_LADDER_REPS: usize = 5;
/// Samples behind every median of the per-call measurements.
const MICRO_SAMPLES: usize = 20;

/// Where a span belongs: request id, round of the cycle, text index.
type At = (u64, usize, usize);

struct Span {
    request: u64,
    rung: usize,
    round: usize,
    text: usize,
    start: Duration,
    end: Duration,
}

/// In-memory span store; written out once measurement is over.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn record(&mut self, at: At, rung: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            request: at.0,
            rung,
            round: at.1,
            text: at.2,
            start: start.duration_since(self.origin),
            end: end.duration_since(self.origin),
        });
    }

    fn write_jsonl(&self, workload: &str, seed: u64) -> Result<String, String> {
        let path = format!("{OUT_DIR}/trace-{workload}-{seed}.jsonl");
        let file = std::fs::File::create(&path).map_err(|e| format!("create {path}: {e}"))?;
        let mut out = std::io::BufWriter::new(file);
        let id = |s: &Span, rung: usize| s.request * RUNGS.len() as u64 + rung as u64;
        for s in &self.spans {
            let (name, parent) = RUNGS[s.rung];
            let parent = parent.map_or("null".to_string(), |p| id(s, p).to_string());
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"seed\":{seed},\"request\":{},\"span\":{},\
                 \"parent\":{parent},\"name\":\"{name}\",\"round\":{},\"text\":{},\
                 \"start_ns\":{},\"end_ns\":{}}}",
                s.request,
                id(s, s.rung),
                s.round,
                s.text,
                s.start.as_nanos(),
                s.end.as_nanos()
            )
            .map_err(|e| format!("write {path}: {e}"))?;
        }
        out.flush().map_err(|e| format!("write {path}: {e}"))?;
        Ok(path)
    }
}

/// The kernel call the engine makes for a plan, reconstructed from the
/// plan with the engine's own public recognisers.
struct KernelSpec {
    labels: Vec<String>,
    semantics: PathSemantics,
    /// `Some` for a sliceable pipeline (the engine runs `Pmr::sliced` with
    /// the endpoint σ pushed down); `None` for a plain ϕ over a label scan
    /// or chain (the engine drains the whole closure, σ applies after).
    slice: Option<SliceSpec>,
    filter: EndpointFilter,
}

/// One wire text, readied for every rung.
struct Prepared {
    surface: QuerySurface,
    text: String,
    line: String,
    logical: usize,
    checked: PlanExpr,
    optimized: PlanExpr,
    kernel: KernelSpec,
}

fn node_mask(graph: &PropertyGraph, condition: &Condition) -> Vec<bool> {
    (0..graph.node_count() as u32)
        .map(|v| condition.eval(&Path::node(NodeId(v)), graph))
        .collect()
}

fn recursive_node(plan: &PlanExpr) -> Option<(PathSemantics, &PlanExpr)> {
    match plan {
        PlanExpr::Recursive { semantics, input } => Some((*semantics, input)),
        PlanExpr::Selection { input, .. }
        | PlanExpr::GroupBy { input, .. }
        | PlanExpr::OrderBy { input, .. }
        | PlanExpr::Projection { input, .. } => recursive_node(input),
        _ => None,
    }
}

fn kernel_spec(
    graph: &PropertyGraph,
    optimized: &PlanExpr,
    recursion: &RecursionConfig,
) -> Result<KernelSpec, String> {
    let labels = |base: &PlanExpr| -> Result<Vec<String>, String> {
        Ok(base
            .label_scan_chain()
            .ok_or_else(|| format!("ϕ base of {optimized} is not a label-scan chain"))?
            .into_iter()
            .map(str::to_string)
            .collect())
    };
    if let Some(plan) = choose_pipeline_impl(optimized, recursion) {
        let (first, last) = match plan.filter {
            Some(c) => c.endpoint_split().expect("lazily eligible filters split"),
            None => (None, None),
        };
        return Ok(KernelSpec {
            labels: labels(plan.base)?,
            semantics: plan.semantics,
            slice: Some(plan.spec),
            filter: EndpointFilter {
                sources: first.map(|c| node_mask(graph, &c)),
                targets: last.map(|c| node_mask(graph, &c)),
            },
        });
    }
    let (semantics, base) =
        recursive_node(optimized).ok_or_else(|| format!("no ϕ node in {optimized}"))?;
    Ok(KernelSpec {
        labels: labels(base)?,
        semantics,
        slice: None,
        filter: EndpointFilter::default(),
    })
}

/// The label-restricted CSR snapshots a kernel expands over, shared the way
/// the engine shares them with its kernels.
enum Indexes {
    Scan(Arc<CsrGraph>),
    Chain(Arc<[CsrGraph]>),
}

impl KernelSpec {
    fn build_indexes(&self, graph: &PropertyGraph) -> Indexes {
        match self.labels.as_slice() {
            [label] => Indexes::Scan(Arc::new(CsrGraph::with_label(graph, label))),
            chain => Indexes::Chain(
                chain
                    .iter()
                    .map(|l| CsrGraph::with_label(graph, l))
                    .collect(),
            ),
        }
    }

    /// Drains the kernel over prebuilt indexes; returns the path count and
    /// the kernel's work counters. `reconstruct` turns the plain drain from
    /// `count_all` into `enumerate_all`; a sliced drain always reconstructs
    /// exactly the paths it keeps.
    fn drain(
        &self,
        indexes: &Indexes,
        recursion: RecursionConfig,
        reconstruct: bool,
    ) -> Result<(usize, WorkCounters), String> {
        let mut pmr = match indexes {
            Indexes::Scan(csr) => Pmr::from_shared_csr(csr.clone(), self.semantics, recursion),
            Indexes::Chain(hops) => Pmr::from_shared_join(hops.clone(), self.semantics, recursion),
        };
        pmr.restrict_endpoints(self.filter.clone());
        let paths = match (&self.slice, reconstruct) {
            (Some(spec), _) => pmr.sliced(spec).map(|p| p.len()),
            (None, false) => pmr.count_all(),
            (None, true) => pmr.enumerate_all().map(|p| p.len()),
        }
        .map_err(|e| format!("kernel drain: {e}"))?;
        Ok((paths, pmr.work_counters()))
    }
}

fn prepare(
    workload: &Workload,
    env: &Env,
    optimizer: &Optimizer,
    text: usize,
) -> Result<Prepared, String> {
    let query = &workload.texts[text];
    let checked = parse_to_checked_plan(query.surface, &query.text)
        .map_err(|e| format!("{}: {e}", query.text))?;
    let optimized = optimizer.optimize(&checked);
    let kernel = kernel_spec(&env.graph, &optimized, &env.service.effective_recursion())?;
    Ok(Prepared {
        surface: query.surface,
        text: query.text.clone(),
        line: Request::Query {
            surface: query.surface,
            deadline_ms: None,
            text: query.text.clone(),
        }
        .render(),
        logical: query.logical,
        checked,
        optimized,
        kernel,
    })
}

/// Times `f` as rung `rung` of request `at`: one span, added to the round.
fn span<T>(
    tracer: &mut Tracer,
    times: &mut RoundTimes,
    at: At,
    rung: usize,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = f();
    let ended = Instant::now();
    tracer.record(at, rung, started, ended);
    times.rungs[rung] += ms(ended - started);
    out
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let out = f();
    (out, started.elapsed())
}

struct Evaluated {
    paths: PathSet,
    decisions: Vec<StrategyDecision>,
}

fn evaluate(
    graph: &PropertyGraph,
    stats: &GraphStats,
    recursion: RecursionConfig,
    threads: usize,
    plan: &PlanExpr,
) -> Result<Evaluated, String> {
    let mut evaluator =
        EngineEvaluator::new(graph, recursion, ExecutionConfig::with_threads(threads))
            .with_graph_stats(stats);
    let paths = evaluator
        .eval_paths(plan)
        .map_err(|e| format!("engine eval of {plan}: {e}"))?;
    Ok(Evaluated {
        paths,
        decisions: evaluator.decisions().to_vec(),
    })
}

/// Per ladder repetition (one round): summed time per rung and per extra
/// measurement, ms.
#[derive(Default)]
struct RoundTimes {
    rungs: [f64; RUNGS.len()],
    /// The round sent without span recording, next to the socket rung.
    untraced: f64,
    client_parse: f64,
    enumerate: f64,
    eval_other_threads: f64,
}

/// Exact counts of the cycle's first round.
#[derive(Default)]
struct RoundCounts {
    result_paths: u64,
    result_bytes: u64,
    kernel: WorkCounters,
    qerrors: Vec<f64>,
    lazy: u64,
    queries: u64,
}

const LAZY_STRATEGIES: [&str; 3] = ["lazy-sliced-pipeline", "parallel-lazy-pipeline", "pmr-lazy"];

pub fn traced_run(
    workload: &Workload,
    env: &mut Env,
    reference: &[Digest],
    seed: u64,
    seconds: f64,
) -> Result<Outcome, String> {
    // Phase 1: the same closed loop the end-to-end run measures, untraced.
    let before = env.service.metrics().snapshot();
    let untraced = closed_loop(
        workload,
        env,
        reference,
        0,
        Duration::from_secs_f64(seconds * UNTRACED_SHARE),
    );
    let after = env.service.metrics().snapshot();

    // Phase 2: the ladder, on client 0's rounds and connection.
    let recursion = env.service.effective_recursion();
    let stats = GraphStats::compute(&env.graph);
    let optimizer = Optimizer::new();
    let cycle = &workload.clients[0];
    let mut prepared: Vec<Option<Prepared>> = Vec::new();
    prepared.resize_with(workload.texts.len(), || None);
    for step in cycle.iter().flatten() {
        if let Step::Query(i) = *step {
            if prepared[i].is_none() {
                prepared[i] = Some(prepare(workload, env, &optimizer, i)?);
            }
        }
    }
    let other_threads = if workload.engine_threads == 1 { 2 } else { 1 };

    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut ladder = LoopResult::default();
    let mut rounds: Vec<RoundTimes> = Vec::new();
    let mut counts = RoundCounts::default();
    let (mut display_ns, mut display_paths) = (0.0, 0u64);
    let mut requests = 0u64;
    let ladder_started = Instant::now();
    let ladder_budget = Duration::from_secs_f64(seconds * LADDER_SHARE);
    while rounds.len() < MIN_LADDER_REPS || ladder_started.elapsed() < ladder_budget {
        let rep = rounds.len();
        let round = rep % cycle.len();
        // The round's queries, each with its request id. Every rung below is
        // one pass over them: the whole round at that layer, so the socket
        // pass is exactly the round the untraced loop sends.
        let queries: Vec<(At, &Prepared)> = cycle[round]
            .iter()
            .filter_map(|step| match *step {
                Step::Query(text) => Some(text),
                Step::Bump => None,
            })
            .map(|text| {
                let q = prepared[text]
                    .as_ref()
                    .expect("every cycle text was prepared");
                requests += 1;
                ((requests, round, text), q)
            })
            .collect();
        let mut times = RoundTimes::default();
        let (tracer, times_mut) = (&mut tracer, &mut times);

        // The socket rung, and next to it the same round sent the way the
        // untraced loop sends it; which goes first alternates. Their ratio
        // is the tracing overhead, free of the host's drift.
        for traced in [!rep.is_multiple_of(2), rep.is_multiple_of(2)] {
            for &(at, q) in &queries {
                if !traced {
                    let waited = timed_step(
                        &mut env.clients[0],
                        workload,
                        reference,
                        Step::Query(at.2),
                        &mut ladder,
                    )
                    .ok_or("the connection broke during the ladder")?;
                    times_mut.untraced += ms(waited);
                    continue;
                }
                let (response, parse_time) = span(tracer, times_mut, at, SOCKET, || {
                    let lines = env.clients[0].request(&q.line)?;
                    let received = Instant::now();
                    let response = Response::parse(&lines);
                    Ok::<_, std::io::Error>((response, received.elapsed()))
                })
                .map_err(|e| format!("socket rung: {e}"))?;
                times_mut.client_parse += ms(parse_time);
                ladder.attempted += 1;
                match response {
                    Ok(Response::Query(reply))
                        if digest_lines(&reply.paths) == reference[q.logical] =>
                    {
                        ladder.verified += 1
                    }
                    other => ladder.fail(format!("{}: {:?}", q.text, other.map(|r| r.to_string()))),
                }
            }
        }
        for &(at, q) in &queries {
            let lines = span(tracer, times_mut, at, HANDLE_LINE, || {
                handle_line(&env.service, &q.line).expect("a QUERY line always answers")
            });
            if rep == 0 {
                // The `PATH` lines only: the `OK` header carries a trace id
                // whose width depends on how many requests came before.
                counts.result_bytes += lines
                    .iter()
                    .filter(|l| l.starts_with("PATH "))
                    .map(|l| l.len() as u64 + 1)
                    .sum::<u64>();
            }
        }
        for &(at, q) in &queries {
            span(tracer, times_mut, at, SUBMIT, || {
                env.service.submit_on(q.surface, &q.text)
            })
            .map_err(|e| format!("submit rung: {}: {e}", q.text))?;
        }
        let mut evaluated = Vec::with_capacity(queries.len());
        for &(at, q) in &queries {
            evaluated.push(span(tracer, times_mut, at, EVAL, || {
                evaluate(
                    &env.graph,
                    &stats,
                    recursion,
                    workload.engine_threads,
                    &q.optimized,
                )
            })?);
        }
        let mut indexes = Vec::with_capacity(queries.len());
        for &(at, q) in &queries {
            indexes.push(span(tracer, times_mut, at, CSR_BUILD, || {
                q.kernel.build_indexes(&env.graph)
            }));
        }
        for (&(at, q), indexes) in queries.iter().zip(&indexes) {
            let (_, work) = span(tracer, times_mut, at, KERNEL, || {
                q.kernel.drain(indexes, recursion, false)
            })?;
            if rep == 0 {
                counts.kernel.merge(&work);
            }
        }

        // Off the ladder: the same round through the reconstructing drain,
        // the other thread count, and the path renderer.
        for (&(_, q), indexes) in queries.iter().zip(&indexes) {
            let (drained, took) = timed(|| q.kernel.drain(indexes, recursion, true));
            drained?;
            times.enumerate += ms(took);
            let (other, took) =
                timed(|| evaluate(&env.graph, &stats, recursion, other_threads, &q.optimized));
            other?;
            times.eval_other_threads += ms(took);
        }
        for result in &evaluated {
            let (rendered, took) = timed(|| {
                result
                    .paths
                    .as_slice()
                    .iter()
                    .map(|p| p.display_ids().len())
                    .sum::<usize>()
            });
            std::hint::black_box(rendered);
            display_ns += took.as_secs_f64() * 1e9;
            display_paths += result.paths.len() as u64;
            if rep == 0 {
                let actual = result.paths.len();
                counts.queries += 1;
                counts.result_paths += actual as u64;
                for estimate in result.decisions.iter().filter_map(|d| d.estimate) {
                    let (est, actual) = (estimate.paths.max(1.0), (actual as f64).max(1.0));
                    counts.qerrors.push((est / actual).max(actual / est));
                }
                if result
                    .decisions
                    .iter()
                    .any(|d| LAZY_STRATEGIES.contains(&d.chosen))
                {
                    counts.lazy += 1;
                }
            }
        }
        rounds.push(times);
    }

    // Phase 3: the per-call measurements.
    let mut metrics = micro(workload, env, &stats, &prepared, &optimizer, seed)?;

    let col = |f: &dyn Fn(&RoundTimes) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
    let rung = |i: usize| col(&move |t: &RoundTimes| t.rungs[i]);
    let eval = rung(EVAL);
    let eval_other = col(&|t: &RoundTimes| t.eval_other_threads);
    let (eval_t1, eval_t2) = if workload.engine_threads == 1 {
        (eval, eval_other)
    } else {
        (eval_other, eval)
    };
    let untraced_p50 = median(&untraced.round_ms);
    let delta = |f: fn(&MetricsSnapshot) -> u64| (f(&after) - f(&before)) as f64;
    let (hits, misses) = (delta(|m| m.cache_hits), delta(|m| m.cache_misses));
    metrics.extend([
        ("graph.label_csr_build_ms", rung(CSR_BUILD)),
        ("graph.nodes", env.graph.node_count() as f64),
        ("graph.edges", env.graph.edge_count() as f64),
        (
            "core.display_ids_ns_per_path",
            ratio(display_ns, display_paths as f64),
        ),
        ("core.result_paths", counts.result_paths as f64),
        ("core.result_bytes", counts.result_bytes as f64),
        ("pmr.kernel_count_ms", rung(KERNEL)),
        ("pmr.enumerate_ms", col(&|t: &RoundTimes| t.enumerate)),
        ("pmr.expansion_steps", counts.kernel.arena_steps as f64),
        ("pmr.paths_emitted", counts.kernel.paths_emitted as f64),
        ("pmr.paths_skipped", counts.kernel.paths_skipped as f64),
        (
            "pmr.useful_ratio",
            ratio(
                counts.kernel.paths_emitted as f64,
                counts.kernel.arena_steps as f64,
            ),
        ),
        (
            "pmr.arena_bytes_peak",
            counts.kernel.arena_bytes_peak as f64,
        ),
        ("engine.eval_ms", eval),
        ("engine.eval_t1_ms", eval_t1),
        ("engine.eval_t2_ms", eval_t2),
        ("engine.t2_over_t1", ratio(eval_t2, eval_t1)),
        ("engine.over_kernel_ratio", ratio(eval, rung(KERNEL))),
        ("engine.estimate_qerror", median(&counts.qerrors)),
        (
            "engine.lazy_share",
            ratio(counts.lazy as f64, counts.queries as f64),
        ),
        ("server.submit_ms", rung(SUBMIT)),
        ("server.submit_over_engine_ratio", ratio(rung(SUBMIT), eval)),
        ("server.handle_line_ms", rung(HANDLE_LINE)),
        ("server.render_ms", rung(HANDLE_LINE) - rung(SUBMIT)),
        ("server.socket_rtt_ms", rung(SOCKET)),
        (
            "server.socket_over_submit_ratio",
            ratio(rung(SOCKET), rung(SUBMIT)),
        ),
        (
            "server.client_parse_ms",
            col(&|t: &RoundTimes| t.client_parse),
        ),
        ("server.plan_cache_hit_rate", ratio(hits, hits + misses)),
        (
            "server.dedup_share",
            ratio(delta(|m| m.dedup_hits), delta(|m| m.served)),
        ),
        ("server.executions", delta(|m| m.executions)),
        ("server.admission_rejected", delta(|m| m.admission_rejected)),
        ("server.shed", delta(|m| m.shed)),
        ("server.timeouts", delta(|m| m.timeouts)),
        ("bench.samples", untraced.round_ms.len() as f64),
        ("bench.client_p99_ms", percentile(&untraced.round_ms, 0.99)),
        (
            "bench.trace_overhead_ratio",
            ratio(rung(SOCKET), col(&|t: &RoundTimes| t.untraced)),
        ),
    ]);

    let mut report = format!(
        "self time per round, {} ladder repetitions; the same round untraced: {:.3} ms beside the \
         ladder, {untraced_p50:.3} ms in the closed loop before it ({} rounds)\n  {:<24}{:>12}{:>12}{:>9}\n",
        rounds.len(),
        col(&|t: &RoundTimes| t.untraced),
        untraced.round_ms.len(),
        "rung",
        "rung ms",
        "self ms",
        "share"
    );
    for (i, (name, _)) in RUNGS.iter().enumerate() {
        // Self time is taken within each repetition, where the rungs ran
        // back to back, and only then reduced to a median: the host's speed
        // drifts between repetitions by more than the small rungs take.
        let own = col(&move |t: &RoundTimes| {
            let children: f64 = (0..RUNGS.len())
                .filter(|&c| RUNGS[c].1 == Some(i))
                .map(|c| t.rungs[c])
                .sum();
            t.rungs[i] - children
        });
        let _ = writeln!(
            report,
            "  {name:<24}{:>12.3}{own:>12.3}{:>8.1}%",
            rung(i),
            100.0 * ratio(own, rung(SOCKET))
        );
    }
    let path = tracer.write_jsonl(workload.name, seed)?;
    let _ = writeln!(report, "{} spans written to {path}", tracer.spans.len());

    print!("{report}");
    ladder.merge(untraced);
    Ok(Outcome {
        metrics,
        attempted: ladder.attempted,
        failed: ladder.failed,
        failures: ladder.failures,
    })
}

/// Median time of `f` over `items`, cycling through them until
/// [`MICRO_SAMPLES`] samples exist (and every item was seen once).
fn median_over<T>(items: &[T], to_unit: fn(Duration) -> f64, mut f: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let samples: Vec<f64> = items
        .iter()
        .cycle()
        .take(MICRO_SAMPLES.max(items.len()))
        .map(|item| to_unit(timed(|| f(item)).1))
        .collect();
    median(&samples)
}

fn micro(
    workload: &Workload,
    env: &mut Env,
    stats: &GraphStats,
    prepared: &[Option<Prepared>],
    optimizer: &Optimizer,
    seed: u64,
) -> Result<Vec<(&'static str, f64)>, String> {
    // At most 64 texts: enough for a median, and bounded on `mixed_concurrent`.
    let queries: Vec<&Prepared> = prepared.iter().flatten().take(64).collect();
    let recursion = env.service.effective_recursion();
    let reps = [(); MICRO_SAMPLES];
    let mut out = vec![
        (
            "graph.snb_build_ms",
            median_over(&reps, ms, |_| {
                std::hint::black_box(snb_like_graph(&SnbConfig::scale(PERSONS, seed)));
            }),
        ),
        (
            "graph.stats_compute_ms",
            median_over(&reps, ms, |_| {
                std::hint::black_box(GraphStats::compute(&env.graph));
            }),
        ),
        (
            "parser.parse_lower_us",
            median_over(&queries, us, |q| {
                std::hint::black_box(parse_to_checked_plan(q.surface, &q.text).is_ok());
            }),
        ),
        (
            "parser.plan_key_us",
            median_over(&queries, us, |q| {
                std::hint::black_box(plan_cache_key(&q.checked, &recursion));
            }),
        ),
        (
            "rpq.compile_us",
            median_over(&queries, us, |q| {
                let template = workload.logical[q.logical].template;
                let regex = parse_regex(template.regex()).expect("the template regexes parse");
                std::hint::black_box(compile_to_algebra(&regex, template.semantics()));
            }),
        ),
        (
            "core.optimize_us",
            median_over(&queries, us, |q| {
                std::hint::black_box(optimizer.optimize(&q.checked));
            }),
        ),
        (
            "engine.cost_estimate_us",
            median_over(&queries, us, |q| {
                std::hint::black_box(estimate_plan_closures(&q.optimized, stats, &recursion));
            }),
        ),
        (
            "server.ping_rtt_us",
            median_over(&[(); 200], us, |_| {
                std::hint::black_box(env.clients[0].send(&Request::Ping).is_ok());
            }),
        ),
    ];

    // Cold and warm `prepare`: a text is new once per service, so fresh
    // services (not timed) are made until the cold sample is large enough.
    let (mut cold, mut warm) = (Vec::new(), Vec::new());
    let mut scratch;
    loop {
        scratch = QueryService::new(env.graph.clone(), service_config(workload));
        for q in &queries {
            for sample in [&mut cold, &mut warm] {
                let (result, took) = timed(|| scratch.prepare_on(q.surface, &q.text));
                result.map_err(|e| format!("prepare {}: {e}", q.text))?;
                sample.push(us(took));
            }
        }
        if cold.len() >= MICRO_SAMPLES {
            break;
        }
    }
    out.extend([
        ("server.prepare_cold_us", median(&cold)),
        ("server.prepare_warm_us", median(&warm)),
        (
            "server.bump_epoch_ms",
            median_over(&reps, ms, |_| {
                std::hint::black_box(scratch.bump_epoch());
            }),
        ),
    ]);
    Ok(out)
}
