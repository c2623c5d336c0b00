//! Set-up, the reference answers, and the closed-loop socket run that the
//! end-to-end metrics come from.

use crate::util::{digest_lines, ms, Digest, Fnv};
use crate::workload::{Step, Workload, PERSONS, QUOTA_PATHS};
use pathalg::algebra::budget::RequestQuota;
use pathalg::algebra::ops::recursive::RecursionConfig;
use pathalg::engine::exec::ExecutionConfig;
use pathalg::engine::runner::{QueryRunner, RunnerConfig};
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::graph::PropertyGraph;
use pathalg::server::{
    serve, Client, QueryService, Request, Response, ServerHandle, ServiceConfig,
};
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// Where the socket and the trace files go; relative to the repo root, so
/// the socket path stays far below the 108-byte `sun_path` limit whatever
/// the checkout is called.
pub const OUT_DIR: &str = "benchmark/out";

/// A served workload: graph, service, listening server, one connected
/// client per workload client.
pub struct Env {
    pub graph: Arc<PropertyGraph>,
    pub service: Arc<QueryService>,
    pub clients: Vec<Client>,
    server: ServerHandle,
}

impl Env {
    /// Disconnects the clients, then stops the server.
    /// `ServerHandle::shutdown` joins the connection threads, which only end
    /// when their client hangs up, so the order matters.
    pub fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

pub fn service_config(workload: &Workload) -> ServiceConfig {
    let mut config =
        ServiceConfig::with_execution(ExecutionConfig::with_threads(workload.engine_threads));
    config.recursion = RecursionConfig {
        max_length: Some(workload.max_length),
        max_paths: None,
    };
    config.quota = RequestQuota::new(Some(QUOTA_PATHS), None);
    config
}

/// Everything a user waits for before the first timed request: graph
/// generation, `QueryService::new` (which computes `GraphStats`), bind,
/// connect, and the untimed warm-up rounds.
pub fn setup(workload: &Workload, seed: u64, socket: &Path) -> Result<(Env, Duration), String> {
    let started = Instant::now();
    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(PERSONS, seed)));
    let service = Arc::new(QueryService::new(graph.clone(), service_config(workload)));
    let server = serve(service.clone(), socket).map_err(|e| format!("bind {socket:?}: {e}"))?;
    let mut env = Env {
        graph,
        service,
        clients: Vec::new(),
        server,
    };
    for cycle in &workload.clients {
        let mut client = Client::connect(socket).map_err(|e| format!("connect {socket:?}: {e}"))?;
        for round in cycle.iter().take(workload.warmup_rounds) {
            for step in round {
                send(&mut client, workload, *step).map_err(|e| format!("warm-up: {e}"))?;
            }
        }
        env.clients.push(client);
    }
    Ok((env, started.elapsed()))
}

fn send(client: &mut Client, workload: &Workload, step: Step) -> std::io::Result<Response> {
    match step {
        Step::Query(i) => {
            let query = &workload.texts[i];
            client.query_on(query.surface, &query.text)
        }
        Step::Bump => Ok(client
            .send(&Request::Bump)?
            .expect("only QUIT has no response")),
    }
}

/// The reference answer of every logical query: its GQL text run in-process
/// through `QueryRunner` on one thread, under the service's effective
/// bounds. One query at a time, so the memory it takes (which `rss_peak_mb`
/// sees) does not depend on how two runs happened to overlap.
pub fn reference_digests(workload: &Workload, env: &Env) -> Result<Vec<Digest>, String> {
    let runner = QueryRunner::with_config(
        &env.graph,
        RunnerConfig {
            optimize: true,
            recursion: env.service.effective_recursion(),
            execution: ExecutionConfig::with_threads(1),
        },
    );
    workload
        .logical
        .iter()
        .map(|q| {
            let result = runner
                .run(&q.gql)
                .map_err(|e| format!("reference run of {}: {e}", q.gql))?;
            Ok(digest_lines(
                result.paths().as_slice().iter().map(|p| p.display_ids()),
            ))
        })
        .collect()
}

/// One digest over all reference answers of a workload, in logical-query
/// order: what `expected_digests.json` commits for the default seed.
pub fn combined_digest(reference: &[Digest]) -> u64 {
    let mut fnv = Fnv::new();
    for d in reference {
        fnv.write(&(d.paths as u64).to_le_bytes());
        fnv.write(&d.fnv.to_le_bytes());
    }
    fnv.finish()
}

/// What one closed-loop run observed.
#[derive(Default)]
pub struct LoopResult {
    /// Per completed round, any client: the summed request→parsed-response
    /// times of its steps, ms. Verification happens between requests and is
    /// not in it.
    pub round_ms: Vec<f64>,
    /// Steps sent (queries and `BUMP`s).
    pub attempted: u64,
    /// Steps that got `ERR`, an I/O error, a malformed or a wrong answer.
    pub failed: u64,
    /// Queries whose answer matched the reference.
    pub verified: u64,
    /// Verified queries per second: each client's count over the time its
    /// rounds took, summed over the clients (they run side by side).
    pub qps: f64,
    /// The first few failures, for the log.
    pub failures: Vec<String>,
}

impl LoopResult {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    /// Folds in what another client observed over the same time.
    pub fn merge(&mut self, other: LoopResult) {
        self.round_ms.extend(other.round_ms);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.verified += other.verified;
        self.qps += other.qps;
        self.failures.extend(other.failures);
    }
}

/// Sends `step` and checks the response; returns the time the client
/// waited, or `None` when the connection is no longer usable.
pub fn timed_step(
    client: &mut Client,
    workload: &Workload,
    reference: &[Digest],
    step: Step,
    result: &mut LoopResult,
) -> Option<Duration> {
    result.attempted += 1;
    let started = Instant::now();
    let response = send(client, workload, step);
    let waited = started.elapsed();
    match (step, response) {
        (Step::Query(i), Ok(Response::Query(reply))) => {
            let query = &workload.texts[i];
            if digest_lines(&reply.paths) == reference[query.logical] {
                result.verified += 1;
            } else {
                result.fail(format!("wrong answer to {} {}", query.surface, query.text));
            }
        }
        (Step::Bump, Ok(Response::Epoch(_))) => {}
        (_, Ok(other)) => {
            let shown = other.to_string();
            result.fail(format!("{step:?}: {}", shown.lines().next().unwrap_or("")));
        }
        (_, Err(e)) => {
            result.fail(format!("{step:?}: I/O error: {e}"));
            return None;
        }
    }
    Some(waited)
}

/// The closed loop: every client repeats its cycle of rounds, from round
/// `first_round` on, on its own connection, sending the next request only
/// after the previous answer is verified, until `duration` has passed (the
/// round in flight is finished).
pub fn closed_loop(
    workload: &Workload,
    env: &mut Env,
    reference: &[Digest],
    first_round: usize,
    duration: Duration,
) -> LoopResult {
    let barrier = Barrier::new(env.clients.len());
    let mut total = LoopResult::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = env
            .clients
            .iter_mut()
            .zip(&workload.clients)
            .map(|(client, cycle)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut result = LoopResult::default();
                    barrier.wait();
                    let started = Instant::now();
                    'rounds: for round in cycle.iter().cycle().skip(first_round % cycle.len()) {
                        let mut waited = Duration::ZERO;
                        for step in round {
                            match timed_step(client, workload, reference, *step, &mut result) {
                                Some(w) => waited += w,
                                None => break 'rounds,
                            }
                        }
                        result.round_ms.push(ms(waited));
                        if started.elapsed() >= duration {
                            break;
                        }
                    }
                    result.qps = result.verified as f64 / started.elapsed().as_secs_f64();
                    result
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(result) => total.merge(result),
                Err(_) => total.fail("a client thread panicked".to_string()),
            }
        }
    });
    total
}
