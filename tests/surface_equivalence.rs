//! Cross-surface equivalence: the multi-surface front-end's core invariant.
//!
//! The same logical query written in extended GQL, as a datalog-ish RPQ rule,
//! or as a raw JSON `query_ir_v1` document must produce:
//!
//! * the structurally identical [`QueryIr`] (the IR is α-canonical, so
//!   surface variable names cannot leak in);
//! * the identical checked plan and therefore the identical [`PlanKey`];
//! * **one** plan-cache entry in a shared [`QueryService`], whichever
//!   surface warms it;
//! * byte-identical canonical result lines.
//!
//! A golden fixture pins the `query_ir_v1` JSON schema itself: the
//! serialized form is canonical (serialize → parse → serialize is
//! byte-identical), and the checked-in document must keep decoding to the
//! same IR the GQL surface produces, so any codec change that would break
//! stored queries fails here first.

use pathalg::algebra::gql::{Restrictor, Selector};
use pathalg::algebra::ops::recursive::RecursionConfig;
use pathalg::graph::fixtures::figure1::figure1_graph;
use pathalg::parser::{
    lower_to_checked_plan, parse_surface, plan_cache_key, IrOutput, QueryIr, QuerySurface,
};
use pathalg::server::{CacheStatus, QueryService, ServiceConfig};
use proptest::prelude::*;
use std::sync::Arc;

/// (GQL form, RPQ form) pairs of the same logical query, covering selector
/// and slice outputs, endpoint constraints, restrictors and WHERE clauses.
const EQUIVALENT_PAIRS: [(&str, &str); 5] = [
    (
        "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)",
        "reach(x {name:\"Moe\"}, y) :- (:Likes/:Has_creator)+, trail, any_shortest.",
    ),
    (
        "MATCH ALL PARTITIONS ALL GROUPS 1 PATHS TRAIL p = (?x)-[(:Knows)*]->(?y) \
         GROUP BY TARGET ORDER BY PATH",
        "reach(x, y) :- (:Knows)*, trail, slice(*, *, 1), group_by(target), order_by(path).",
    ),
    (
        "MATCH SHORTEST 2 GROUP SIMPLE p = (?x:Person)-[:Knows+]->(?y:Person) WHERE len() <= 4",
        "reach(x:Person, y:Person) :- :Knows+, simple, shortest_group(2), where(len() <= 4).",
    ),
    (
        "MATCH ALL ACYCLIC p = (?x)-[:Likes/:Has_creator]->(?y)",
        "reach(x, y) :- :Likes/:Has_creator, acyclic, all.",
    ),
    (
        "MATCH ANY 3 WALK p = (?x)-[(:Knows|:Likes)+]->(?y) WHERE len() <= 3",
        "reach(x, y) :- (:Knows|:Likes)+, walk, any(3), where(len() <= 3).",
    ),
];

/// The three surface spellings of one pair: GQL text, RPQ text, and the JSON
/// document derived from the GQL form (then treated as independent input).
fn three_forms(gql: &str, rpq: &str) -> [(QuerySurface, String); 3] {
    let ir_doc = parse_surface(QuerySurface::Gql, gql)
        .unwrap()
        .to_json_string();
    [
        (QuerySurface::Gql, gql.to_string()),
        (QuerySurface::Rpq, rpq.to_string()),
        (QuerySurface::Ir, ir_doc),
    ]
}

fn service() -> QueryService {
    let config = ServiceConfig {
        // Figure 1 is cyclic, so the WALK pair needs a length bound to
        // terminate.
        recursion: RecursionConfig {
            max_length: Some(4),
            max_paths: None,
        },
        ..ServiceConfig::default()
    };
    QueryService::new(Arc::new(figure1_graph()), config)
}

#[test]
fn every_pair_produces_identical_irs_and_plan_keys() {
    for (gql, rpq) in EQUIVALENT_PAIRS {
        let forms = three_forms(gql, rpq);
        let irs: Vec<QueryIr> = forms
            .iter()
            .map(|(surface, text)| parse_surface(*surface, text).unwrap())
            .collect();
        assert_eq!(irs[0], irs[1], "GQL vs RPQ IR: {gql}");
        assert_eq!(irs[0], irs[2], "GQL vs JSON IR: {gql}");

        let svc = service();
        let recursion = svc.effective_recursion();
        let keys: Vec<_> = irs
            .iter()
            .map(|ir| plan_cache_key(&lower_to_checked_plan(ir).unwrap(), &recursion))
            .collect();
        assert_eq!(keys[0], keys[1], "GQL vs RPQ key: {gql}");
        assert_eq!(keys[0], keys[2], "GQL vs JSON key: {gql}");
    }
}

#[test]
fn every_pair_shares_one_cached_plan_and_identical_bytes() {
    for (gql, rpq) in EQUIVALENT_PAIRS {
        let svc = service();
        let forms = three_forms(gql, rpq);
        let mut answers: Vec<Vec<String>> = Vec::new();
        for (i, (surface, text)) in forms.iter().enumerate() {
            let response = svc.submit_on(*surface, text).unwrap();
            let expected = if i == 0 {
                CacheStatus::Miss
            } else {
                CacheStatus::Hit
            };
            assert_eq!(response.cache, expected, "{surface}: {gql}");
            answers.push(response.outcome.canonical_lines());
        }
        assert_eq!(svc.cached_plans(), 1, "one entry: {gql}");
        assert_eq!(answers[0], answers[1], "RPQ bytes: {gql}");
        assert_eq!(answers[0], answers[2], "IR bytes: {gql}");
    }
}

// ---------------------------------------------------------------------------
// The golden JSON fixture
// ---------------------------------------------------------------------------

const GOLDEN: &str = include_str!("fixtures/query_ir_v1.json");
const GOLDEN_GQL: &str =
    "MATCH ANY SHORTEST TRAIL p = (?x {name:\"Moe\"})-[(:Likes/:Has_creator)+]->(?y)";

#[test]
fn golden_ir_document_round_trips_byte_identically() {
    let ir = QueryIr::from_json_str(GOLDEN).expect("golden fixture must decode");
    // Serialize → parse → serialize is byte-identical (canonical form).
    assert_eq!(ir.to_json_pretty().trim_end(), GOLDEN.trim_end());
    let reparsed = QueryIr::from_json_str(&ir.to_json_string()).unwrap();
    assert_eq!(reparsed, ir);
}

#[test]
fn golden_ir_document_matches_its_gql_spelling() {
    let from_fixture = QueryIr::from_json_str(GOLDEN).unwrap();
    let from_gql = parse_surface(QuerySurface::Gql, GOLDEN_GQL).unwrap();
    assert_eq!(from_fixture, from_gql);
    assert_eq!(from_fixture.restrictor, Restrictor::Trail);
    assert_eq!(
        from_fixture.output,
        IrOutput::Selector(Selector::AnyShortest)
    );
}

// ---------------------------------------------------------------------------
// Property: surface equivalence over generated queries
// ---------------------------------------------------------------------------

const LABELS: [&str; 3] = ["Knows", "Likes", "Has_creator"];
const NAMES: [&str; 4] = ["x", "y", "src", "dst"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// For generated single-label closures with arbitrary surface variable
    /// names, restrictors and selectors, the three surfaces agree on the IR
    /// and the plan key — variable renames never reach either.
    #[test]
    fn generated_queries_agree_across_surfaces(
        label in 0usize..LABELS.len(),
        a in 0usize..NAMES.len(),
        b in 0usize..NAMES.len(),
        restrictor in 0usize..3,
        selector in 0usize..3,
    ) {
        let (r_gql, r_rpq) = [("TRAIL", "trail"), ("ACYCLIC", "acyclic"), ("SIMPLE", "simple")]
            [restrictor];
        let (s_gql, s_rpq) = [
            ("ANY SHORTEST", "any_shortest"),
            ("ALL", "all"),
            ("SHORTEST 2 GROUP", "shortest_group(2)"),
        ][selector];
        let gql = format!(
            "MATCH {} {} p = (?{})-[(:{})+]->(?{})",
            s_gql, r_gql, NAMES[a], LABELS[label], NAMES[b],
        );
        let rpq = format!(
            "pred({}, {}) :- (:{})+, {}, {}.",
            NAMES[a], NAMES[b], LABELS[label], r_rpq, s_rpq,
        );
        let from_gql = parse_surface(QuerySurface::Gql, &gql).unwrap();
        let from_rpq = parse_surface(QuerySurface::Rpq, &rpq).unwrap();
        prop_assert_eq!(&from_gql, &from_rpq, "{} vs {}", gql, rpq);

        // And through the JSON codec.
        let from_json = parse_surface(QuerySurface::Ir, &from_gql.to_json_string()).unwrap();
        prop_assert_eq!(&from_gql, &from_json);

        let svc = service();
        let recursion = svc.effective_recursion();
        let key_gql = plan_cache_key(&lower_to_checked_plan(&from_gql).unwrap(), &recursion);
        let key_rpq = plan_cache_key(&lower_to_checked_plan(&from_rpq).unwrap(), &recursion);
        prop_assert_eq!(key_gql, key_rpq);
    }
}
