//! The `obs` subcommand: one traced query through the observability layer
//! (DESIGN.md §13).
//!
//! Demonstrates the three readouts the serving layer exposes: per-request
//! stage traces (wall-clock spans), the deterministic work counters the
//! engine and PMR thread through every evaluation, and the Prometheus-style
//! `METRICS` exposition — including the evidence recorded with the most
//! recent admission rejection.

use pathalg_graph::fixtures::figure1::figure1_graph;
use pathalg_graph::generator::structured::complete_graph;
use pathalg_server::{QueryService, ServiceConfig};
use std::sync::Arc;

const TRAIL: &str = "MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)";

/// Runs a query cold and warm against Figure 1, prints the per-request
/// trace report and deterministic work counters, provokes one admission
/// rejection, and dumps the METRICS exposition.
pub fn obs() {
    let service = QueryService::with_defaults(Arc::new(figure1_graph()));

    let cold = service.submit(TRAIL).expect("figure 1 trail query");
    let warm = service.submit(TRAIL).expect("warm repeat");
    println!("query: {TRAIL}");
    println!(
        "cold run: cache={:?}, trace id {}; warm repeat: cache={:?}, trace id {}",
        cold.cache, cold.trace.id, warm.cache, warm.trace.id
    );
    println!();

    println!("-- TRACE report (wall-clock spans + deterministic work) --");
    print!("{}", service.trace(cold.trace.id).expect("trace retained"));
    println!();

    println!("-- deterministic counters (byte-identical on every run) --");
    println!("{}", cold.trace.work.deterministic_line());
    println!();

    // An over-ceiling closure, to show the rejection evidence the metrics
    // keep alongside the counter.
    let gated = QueryService::new(
        Arc::new(complete_graph(14, "Knows")),
        ServiceConfig {
            admission_ceiling: Some(1_000.0),
            ..ServiceConfig::default()
        },
    );
    let refused = gated
        .submit("MATCH ALL TRAIL p = (?x)-[(:Knows)+]->(?y)")
        .expect_err("the K14 walk closure must be refused");
    println!("-- admission rejection recorded with its evidence --");
    println!("refused: {refused}");
    if let Some((estimate, ceiling)) = gated.metrics().snapshot().last_rejection {
        println!("last rejection: estimate={estimate:.3e} paths vs ceiling={ceiling}");
    }
    println!();

    println!("-- METRICS exposition (Prometheus text format) --");
    print!("{}", service.metrics().expose());
}
