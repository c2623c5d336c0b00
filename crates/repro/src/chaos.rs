//! The `chaos` subcommand: the robustness layer under injected faults
//! (DESIGN.md §14).
//!
//! Demonstrates the four typed ways a request can die without taking the
//! service with it — deadline expiry, explicit cancellation, an isolated
//! evaluation panic, and load shedding at the concurrency cap — and shows
//! that after each the *same* service instance keeps answering correctly.
//! Every outcome is visible three ways: the typed error, the robustness
//! counters, and the `outcome=` stamp on the request's retained trace.

use pathalg_core::budget::CancelToken;
use pathalg_graph::fixtures::figure1::figure1_graph;
use pathalg_server::{FailAction, QueryService, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const TRAIL: &str = "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)";

/// Injects a deadline expiry, a cancellation, a mid-execute panic, and a
/// saturated concurrency cap against one service; prints the typed errors,
/// the outcome-stamped traces, and the robustness counters.
pub fn chaos() {
    let service = QueryService::with_defaults(Arc::new(figure1_graph()));
    println!("query: {TRAIL}");
    println!();

    println!("-- 1. deadline expiry (typed, cooperative) --");
    let err = service
        .submit_with_deadline(TRAIL, Duration::ZERO)
        .expect_err("a zero deadline must fire");
    println!("error ({}): {}", err.kind(), err);
    report_last_trace(&service);

    println!("-- 2. explicit cancellation --");
    let token = Arc::new(CancelToken::new());
    token.cancel();
    let err = service
        .submit_on_token(pathalg_parser::QuerySurface::Gql, TRAIL, token)
        .expect_err("a pre-cancelled token must abort");
    println!("error ({}): {}", err.kind(), err);
    report_last_trace(&service);

    println!("-- 3. injected evaluation panic (caught, typed, isolated) --");
    service.set_failpoint(
        "execute",
        FailAction::Panic("injected by repro chaos".into()),
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {})); // silence the expected backtrace
    let err = service
        .submit(TRAIL)
        .expect_err("the armed failpoint must panic the leader");
    std::panic::set_hook(hook);
    service.clear_failpoints();
    println!("error ({}): {}", err.kind(), err);
    report_last_trace(&service);

    println!("-- 4. load shedding at the concurrency cap --");
    let capped = QueryService::new(
        Arc::new(figure1_graph()),
        ServiceConfig {
            max_concurrent: Some(0),
            ..ServiceConfig::default()
        },
    );
    let err = capped
        .submit(TRAIL)
        .expect_err("a zero cap must shed every leader");
    println!("error ({}): {}", err.kind(), err);
    report_last_trace(&capped);

    println!("-- the same instance still serves after every fault --");
    let ok = service.submit(TRAIL).expect("service survived the chaos");
    println!(
        "answered: {} paths (cache={:?}, dedup={:?})",
        ok.outcome.path_count, ok.cache, ok.dedup
    );
    println!();

    println!("-- robustness counters --");
    let m = service.metrics().snapshot();
    println!(
        "timeouts={} cancelled={} panicked={} shed(this service)={} | shed(capped service)={}",
        m.timeouts,
        m.cancelled,
        m.panicked,
        m.shed,
        capped.metrics().snapshot().shed
    );
}

/// Prints the header line of the most recent trace — the `outcome=` stamp
/// is the part this demo is about.
fn report_last_trace(service: &QueryService) {
    let trace = service.latest_trace().expect("trace retained");
    let report = trace.to_string();
    println!("trace: {}", report.lines().next().unwrap_or_default());
    println!();
}
