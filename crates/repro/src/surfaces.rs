//! The `repro surfaces` subcommand: one logical query through all three
//! query surfaces.
//!
//! Demonstrates the multi-surface front-end: the same reachability query is
//! written in extended GQL, as a datalog-ish RPQ rule, and as a raw JSON
//! `query_ir_v1` document; all three parse to the identical IR, lower to the
//! identical checked plan, share one plan-cache entry in the query service,
//! and return byte-identical answers.

use pathalg_graph::fixtures::figure1::figure1_graph;
use pathalg_parser::{parse_surface, plan_cache_key, QuerySurface};
use pathalg_server::{CacheStatus, QueryService};
use std::sync::Arc;

const GQL: &str = "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)";
const RPQ: &str = "reach(x {name:\"Moe\"}, y) :- (:Likes/:Has_creator)+, trail, any_shortest.";

/// Runs the three-way demonstration.
pub fn surfaces() {
    // The JSON surface document is derived from the GQL form, then treated
    // as an independent input — exactly what a programmatic client would
    // send after building the IR itself.
    let ir_doc = parse_surface(QuerySurface::Gql, GQL)
        .unwrap()
        .to_json_string();

    println!("One logical query, three surfaces:\n");
    println!("  GQL  | {GQL}");
    println!("  RPQ  | {RPQ}");
    println!("  IR   | {ir_doc}");

    // 1. All three parse to the same IR and the same checked plan.
    let inputs = [
        (QuerySurface::Gql, GQL),
        (QuerySurface::Rpq, RPQ),
        (QuerySurface::Ir, ir_doc.as_str()),
    ];
    let irs: Vec<_> = inputs
        .iter()
        .map(|(surface, text)| parse_surface(*surface, text).unwrap())
        .collect();
    assert_eq!(irs[0], irs[1]);
    assert_eq!(irs[0], irs[2]);
    println!("\nAll three parse to the same query_ir_v1 value.");
    println!("Shared IR (pretty):\n");
    for line in irs[0].to_json_pretty().lines() {
        println!("  {line}");
    }

    let service = QueryService::with_defaults(Arc::new(figure1_graph()));
    let recursion = service.effective_recursion();
    let plan = pathalg_parser::lower_to_checked_plan(&irs[0]).unwrap();
    println!("\nShared checked plan: {plan}");
    println!("Shared plan key:     {}", plan_cache_key(&plan, &recursion));

    // 2. Submitted to one service, they converge on one cached plan and
    //    byte-identical answers.
    println!("\nSubmitting each surface form to one query service:\n");
    let mut answers: Vec<Vec<String>> = Vec::new();
    for (surface, text) in inputs {
        let response = service.submit_on(surface, text).unwrap();
        println!(
            "  {:<4} -> {} paths, cache={}, epoch={}",
            surface.tag(),
            response.outcome.path_count,
            match response.cache {
                CacheStatus::Hit => "hit",
                CacheStatus::Miss => "miss",
            },
            response.epoch
        );
        answers.push(response.outcome.canonical_lines());
    }
    assert_eq!(answers[0], answers[1]);
    assert_eq!(answers[0], answers[2]);
    assert_eq!(service.cached_plans(), 1);
    println!(
        "\nOne plan-cache entry ({}), byte-identical answers:",
        service.cached_plans()
    );
    for line in &answers[0] {
        println!("  {line}");
    }
}
