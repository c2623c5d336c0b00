//! Fault-injection harness for the robustness layer (DESIGN.md §14).
//!
//! Drives the query service through the three fault classes that the
//! cancellation / panic-isolation work must survive:
//!
//! * **Leader panic fan-out** — the `"execute"` failpoint panics the dedup
//!   leader mid-flight while a fenced herd is coalesced onto it. Every
//!   member (leader and waiters alike) must receive the *typed*
//!   [`ServiceError::InternalPanic`] before its own deadline — no hang, no
//!   poisoned lock — and the same instance must serve the next query.
//! * **Deadline mid-enumeration** — a delay failpoint pushes the leader's
//!   evaluation past a deadline shorter than the closure drain's runtime,
//!   so the *cooperative check inside the enumeration* is what fires: a
//!   typed [`AlgebraError::DeadlineExceeded`], counted and outcome-stamped.
//! * **Cancellation cleanliness** — after a deadline-aborted run the very
//!   same service re-serves the identical query as a fresh leader (no stale
//!   flight) with output byte-identical to an untouched reference service.
//! * **An over-long request line** — 2 MiB without a newline is refused
//!   with a typed `ERR protocol` and its connection closed, and the server
//!   keeps serving fresh clients.
//! * **A deeply nested request line** — 5 000 nested parentheses are
//!   refused with a typed `ERR parse` instead of overflowing the connection
//!   thread's stack, and the server keeps serving fresh clients.
//! * **A deadline on a plan without ϕ** — a wide `|`-tree under `{0,3}`
//!   compiles to unions and joins only; its wire deadline still answers
//!   `ERR timeout`, and the same connection serves the next query.
//! * **Shutdown with clients connected** — one client idles, another never
//!   reads a 72 000-path answer; `ServerHandle::shutdown` still returns
//!   within a second and closes both connections.

use pathalg::algebra::error::AlgebraError;
use pathalg::algebra::ops::recursive::RecursionConfig;
use pathalg::graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg::graph::generator::structured::complete_graph;
use pathalg::parser::QuerySurface;
use pathalg::server::protocol::MAX_REQUEST_LINE_BYTES;
use pathalg::server::{
    serve, Client, DedupRole, FailAction, QueryService, Request, Response, ServiceConfig,
    ServiceError,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::process::Command;
use std::sync::{mpsc, Arc, Once};
use std::thread;
use std::time::{Duration, Instant};

/// The recursive workload every scenario submits: a trail closure over a
/// complete Knows graph, expensive enough that a herd genuinely overlaps.
const TRAIL: &str = "MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)";

/// A service over K_n with the admission gate off and bounded recursion —
/// the same shape the concurrency harness uses.
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

/// Keeps the *expected* injected panics out of the test output while still
/// reporting every other panic (assertion failures) through the default
/// hook. Installed once per test binary — the armed failpoint's payload
/// always starts with `"failpoint "`.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.starts_with("failpoint "));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

// ---------------------------------------------------------------------------
// Leader panic fan-out
// ---------------------------------------------------------------------------

/// The dedup leader panics mid-execute while a fenced herd is coalesced on
/// its flight. Everyone gets the typed `InternalPanic` (the 30s request
/// deadlines would have converted a hang into a timeout — seeing "internal"
/// proves the fan-out beat them), exactly one panic is counted, every trace
/// is outcome-stamped, and the disarmed service serves the next query.
#[test]
fn leader_panic_fans_out_typed_to_every_coalesced_waiter() {
    silence_injected_panics();
    const HERD: u64 = 6;
    let svc = dense_service(7, 5);
    svc.set_failpoint("execute", FailAction::Panic("chaos".into()));
    // The fence holds the leader inside its catch_unwind window until
    // all waiters have registered, so the panic provably fans out to a
    // fully assembled herd rather than racing it.
    svc.set_pre_execute_hook(Box::new(|metrics| {
        let fence = Instant::now() + Duration::from_secs(30);
        while metrics.snapshot().dedup_hits < HERD - 1 {
            assert!(Instant::now() < fence, "herd never assembled");
            thread::sleep(Duration::from_millis(1));
        }
    }));
    let errors: Vec<ServiceError> = thread::scope(|scope| {
        let workers: Vec<_> = (0..HERD)
            .map(|_| {
                let svc = svc.clone();
                scope.spawn(move || {
                    svc.submit_with_deadline(TRAIL, Duration::from_secs(30))
                        .expect_err("the armed failpoint must fail the whole herd")
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    svc.clear_pre_execute_hook();
    svc.clear_failpoints();

    assert_eq!(errors.len(), HERD as usize);
    for err in &errors {
        match err {
            ServiceError::InternalPanic(message) => {
                assert!(
                    message.contains("failpoint execute: chaos"),
                    "payload surfaced, got {message:?}"
                );
            }
            other => panic!("expected InternalPanic, got {other:?}"),
        }
        assert_eq!(err.kind(), "internal", "not a timeout — fan-out beat it");
        assert_eq!(err, &errors[0], "identical typed error for the herd");
    }
    assert_eq!(
        svc.metrics().snapshot().panicked,
        1,
        "one leader panic counted"
    );
    assert_eq!(
        svc.metrics().snapshot().executions,
        1,
        "one leader entered execute"
    );
    assert_eq!(svc.metrics().snapshot().dedup_hits, HERD - 1);
    let stamped = svc
        .traces()
        .all()
        .iter()
        .filter(|t| t.outcome == Some("panic"))
        .count();
    assert_eq!(stamped, HERD as usize, "every member's trace is stamped");

    // No poisoned lock, no stale flight: the same instance leads a
    // fresh, successful evaluation of the very same query.
    let recovered = svc.submit(TRAIL).expect("service survives its leader");
    assert_eq!(recovered.dedup, DedupRole::Leader, "no stale flight");
    assert!(recovered.outcome.path_count > 0);
}

// ---------------------------------------------------------------------------
// Deadline mid-enumeration
// ---------------------------------------------------------------------------

/// A delay failpoint makes the closure drain outlast its deadline, so the
/// expiry is noticed *by the cooperative check inside the enumeration* —
/// surfacing as the typed timeout, counted and outcome-stamped — and the
/// disarmed instance immediately serves the next query.
#[test]
fn deadline_fires_mid_enumeration_and_the_service_moves_on() {
    let svc = dense_service(7, 5);
    // The leader reaches execute well before 25ms, sleeps past the
    // deadline, and the evaluation's first cancellation check fires.
    svc.set_failpoint("execute", FailAction::Delay(Duration::from_millis(120)));
    let err = svc
        .submit_with_deadline(TRAIL, Duration::from_millis(25))
        .expect_err("the deadline must outrun the delayed drain");
    match &err {
        ServiceError::Evaluation(AlgebraError::DeadlineExceeded) => {}
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(err.kind(), "timeout");
    assert_eq!(svc.metrics().snapshot().timeouts, 1);
    let trace = svc.latest_trace().expect("failed request leaves a trace");
    assert_eq!(trace.outcome, Some("timeout"));

    svc.clear_failpoints();
    let next = svc.submit(TRAIL).expect("same instance serves the next");
    assert_eq!(next.dedup, DedupRole::Leader, "aborted flight was removed");
    assert!(next.outcome.path_count > 0);
}

// ---------------------------------------------------------------------------
// Cancellation cleanliness
// ---------------------------------------------------------------------------

/// A deadline-aborted run must leave nothing behind: the same service then
/// re-serves the identical query as a fresh leader, byte-identical to an
/// untouched reference service, and a second submit hits the plan cache
/// with the same bytes again.
#[test]
fn aborted_run_is_reserved_byte_identically() {
    let reference = dense_service(7, 5)
        .submit(TRAIL)
        .expect("reference run")
        .outcome
        .canonical_lines();
    assert!(!reference.is_empty());

    let svc = dense_service(7, 5);
    svc.set_failpoint("execute", FailAction::Delay(Duration::from_millis(120)));
    let err = svc
        .submit_with_deadline(TRAIL, Duration::from_millis(25))
        .expect_err("the aborted run");
    assert_eq!(err.kind(), "timeout");
    svc.clear_failpoints();

    let first = svc.submit(TRAIL).expect("re-serve after the abort");
    assert_eq!(first.dedup, DedupRole::Leader, "no stale flight survives");
    assert_eq!(
        first.outcome.canonical_lines(),
        reference,
        "aborted run left no trace in the answer"
    );
    let second = svc.submit(TRAIL).expect("warm re-serve");
    assert_eq!(second.outcome.canonical_lines(), reference);

    assert_eq!(
        svc.metrics().snapshot().timeouts,
        1,
        "exactly the aborted run"
    );
    assert_eq!(
        svc.metrics().snapshot().served,
        2,
        "both re-serves succeeded"
    );
}

// ---------------------------------------------------------------------------
// An over-long request line
// ---------------------------------------------------------------------------

/// A client that sends 2 MiB with no newline cannot make the server buffer
/// it: the server reads one byte past the 1 MiB limit, answers with the
/// typed protocol refusal, and closes that connection. A fresh client is
/// served as usual.
#[test]
fn an_over_long_request_line_is_refused_and_the_server_keeps_serving() {
    let svc = dense_service(4, 2);
    let path = std::env::temp_dir().join(format!("pathalg-chaos-line-{}.sock", std::process::id()));
    let handle = serve(svc.clone(), path.clone()).expect("bind");

    let stream = UnixStream::connect(&path).expect("connect");
    let mut sender = stream.try_clone().expect("clone the stream");
    // The server stops reading mid-send, so the write may fail; only the
    // answer matters.
    let writer = thread::spawn(move || sender.write_all(&vec![b'x'; 2 << 20]).is_ok());
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("the refusal arrives");
    assert_eq!(
        line,
        format!("ERR protocol: request line longer than {MAX_REQUEST_LINE_BYTES} bytes\n")
    );
    let mut rest = String::new();
    assert!(
        !matches!(reader.read_line(&mut rest), Ok(n) if n > 0),
        "the connection is closed after the refusal, got {rest:?}"
    );
    writer.join().expect("writer thread");

    let mut fresh = Client::connect(&path).expect("a fresh client connects");
    assert_eq!(fresh.send(&Request::Ping).unwrap(), Some(Response::Pong));
    let Response::Query(reply) = fresh.query(TRAIL).expect("a fresh query") else {
        panic!("expected a query reply");
    };
    assert!(!reply.paths.is_empty());
    drop(fresh);
    drop(reader);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A deeply nested request line
// ---------------------------------------------------------------------------

/// A 10 KB line of 5 000 nested parentheses is deep enough to overflow a
/// connection thread's stack, which would abort the whole server. It gets a
/// typed parse error instead, and a fresh client is served. The case runs
/// in a child process, so a regression fails this test instead of aborting
/// the test binary.
#[test]
fn a_deeply_nested_request_line_is_refused_and_the_server_keeps_serving() {
    const CHILD: &str = "PATHALG_CHAOS_NESTING_CHILD";
    if std::env::var_os(CHILD).is_none() {
        let child = Command::new(std::env::current_exe().unwrap())
            .args([
                "--exact",
                "a_deeply_nested_request_line_is_refused_and_the_server_keeps_serving",
            ])
            .env(CHILD, "1")
            .output()
            .unwrap();
        assert!(
            child.status.success(),
            "{}",
            String::from_utf8_lossy(&child.stderr)
        );
        return;
    }
    let svc = dense_service(4, 2);
    let path =
        std::env::temp_dir().join(format!("pathalg-chaos-nesting-{}.sock", std::process::id()));
    let handle = serve(svc, path.clone()).expect("bind");

    let deep = format!(
        "reach(x, y) :- {}:Knows{}, walk, all.",
        "(".repeat(5_000),
        ")".repeat(5_000)
    );
    let mut client = Client::connect(&path).expect("connect");
    match client.query_on(QuerySurface::Rpq, &deep).expect("a reply") {
        Response::Error { kind, message } => {
            assert_eq!(kind, "parse");
            assert!(message.contains("nests deeper"), "{message}");
        }
        other => panic!("expected a parse error, got {other:?}"),
    }
    drop(client);

    let mut fresh = Client::connect(&path).expect("a fresh client connects");
    let Response::Query(reply) = fresh.query(TRAIL).expect("a fresh query") else {
        panic!("expected a query reply");
    };
    assert!(!reply.paths.is_empty());
    drop(fresh);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// A deadline on a plan without ϕ
// ---------------------------------------------------------------------------

/// A balanced `|`-tree over the leaves `lo..hi`, cycling through the three
/// SNB edge labels.
fn alternation(lo: usize, hi: usize) -> String {
    if hi - lo == 1 {
        return [":Knows", ":Likes", ":Has_creator"][lo % 3].to_string();
    }
    let mid = (lo + hi) / 2;
    format!("({}|{})", alternation(lo, mid), alternation(mid, hi))
}

/// `{0,3}` over a 64-leaf alternation lowers to unions of joins of label
/// selections — no ϕ anywhere — and runs for about a second on SNB-1 000.
/// Every operator polls the request's cancellation token, so the 50 ms wire
/// deadline answers `ERR timeout`, and the connection serves on.
#[test]
fn a_deadline_stops_a_plan_without_phi_and_the_connection_keeps_serving() {
    let graph = Arc::new(snb_like_graph(&SnbConfig::scale(1_000, 11)));
    let svc = Arc::new(QueryService::new(graph, ServiceConfig::default()));
    let path =
        std::env::temp_dir().join(format!("pathalg-chaos-no-phi-{}.sock", std::process::id()));
    let handle = serve(svc, path.clone()).expect("bind");

    let wide = format!(
        "MATCH ALL WALK (?x {{name:\"nobody\"}})-[({}){{0,3}}]->(?y)",
        alternation(0, 64)
    );
    let mut client = Client::connect(&path).expect("connect");
    let started = Instant::now();
    let reply = client.send(&Request::Query {
        surface: QuerySurface::Gql,
        deadline_ms: Some(50),
        text: wide,
    });
    match reply.expect("a reply") {
        Some(Response::Error { kind, .. }) => assert_eq!(kind, "timeout"),
        other => panic!("expected ERR timeout, got {other:?}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the deadline stopped the plan, not its completion"
    );

    let Response::Query(reply) = client
        .query("MATCH ALL WALK p = (?x)-[:Knows]->(?y)")
        .expect("the same connection serves the next query")
    else {
        panic!("expected a query reply");
    };
    assert_eq!(reply.paths.len(), 3_000);
    drop(client);
    handle.shutdown();
}

// ---------------------------------------------------------------------------
// Shutdown with clients connected
// ---------------------------------------------------------------------------

/// A connection thread blocks in `read` while its client idles, and in
/// `write` while its client does not read an answer larger than the socket
/// buffers. `shutdown` shuts both connections down before it joins their
/// threads, so it returns promptly and each client sees its connection end.
/// `shutdown` runs on a helper thread, so a hang fails this test instead of
/// stalling the test binary.
#[test]
fn shutdown_returns_with_an_idle_and_a_never_reading_client_connected() {
    // Trails of length ≤ 2 on K_42: 42·41 + 42·41·41 = 72 324 paths, an
    // answer of a few MB.
    let svc = dense_service(42, 2);
    let path = std::env::temp_dir().join(format!(
        "pathalg-chaos-shutdown-{}.sock",
        std::process::id()
    ));
    let handle = serve(svc.clone(), path.clone()).expect("bind");

    let mut idle = UnixStream::connect(&path).expect("connect the idle client");
    let mut stalled = UnixStream::connect(&path).expect("connect the stalled client");
    let request = Request::Query {
        surface: QuerySurface::Gql,
        deadline_ms: None,
        text: TRAIL.to_string(),
    };
    stalled
        .write_all(format!("{}\n", request.render()).as_bytes())
        .expect("send the query");
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.metrics().snapshot().served == 0 || svc.metrics().snapshot().connections < 2 {
        assert!(Instant::now() < deadline, "the query was never answered");
        thread::sleep(Duration::from_millis(1));
    }

    let (done, shut_down) = mpsc::channel();
    thread::spawn(move || {
        handle.shutdown();
        let _ = done.send(());
    });
    shut_down
        .recv_timeout(Duration::from_secs(1))
        .expect("shutdown returned within 1 s with two clients connected");
    assert_eq!(idle.read(&mut [0u8; 1]).expect("read"), 0, "idle: EOF");
    let mut received = Vec::new();
    stalled.read_to_end(&mut received).expect("read the rest");
    assert!(
        !received.ends_with(b"END\n"),
        "the unread answer was cut off, not completed"
    );
    assert_eq!(svc.metrics().snapshot().connections, 0);
}
