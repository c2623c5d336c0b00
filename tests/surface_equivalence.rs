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
//! * byte-identical canonical result lines — and, for every fixture and
//!   generated query, the same bytes three ways: raw off the socket,
//!   `handle_line` joined with `\n`, and `display_ids` over
//!   `EngineEvaluator::eval_paths`.
//!
//! A golden fixture pins the `query_ir_v1` JSON schema itself: the
//! serialized form is canonical (serialize → parse → serialize is
//! byte-identical), and the checked-in document must keep decoding to the
//! same IR the GQL surface produces, so any codec change that would break
//! stored queries fails here first.

use pathalg::algebra::gql::{Restrictor, Selector};
use pathalg::algebra::ops::recursive::RecursionConfig;
use pathalg::algebra::optimizer::Optimizer;
use pathalg::engine::exec::{EngineEvaluator, ExecutionConfig};
use pathalg::graph::fixtures::figure1::figure1_graph;
use pathalg::parser::{
    lower_to_checked_plan, parse_surface, plan_cache_key, IrOutput, QueryIr, QuerySurface,
};
use pathalg::server::{
    handle_line, serve, CacheStatus, Client, QueryService, Response, ServiceConfig,
};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// One query's answer rendered three independent ways, each as its `PATH`
/// lines with a `\n` after every line: the raw bytes a socket client
/// receives between the `OK` header and `END`; `handle_line`'s lines joined
/// with `\n`; and `display_ids` over `EngineEvaluator::eval_paths` of the
/// optimized plan. All three must be equal.
fn three_renderings(surface: QuerySurface, text: &str) -> [Vec<u8>; 3] {
    let svc = Arc::new(service());
    let line = format!("QUERY {} {}", surface.tag(), text);

    let path = socket_path();
    let server = serve(svc.clone(), path.clone()).unwrap();
    let mut stream = UnixStream::connect(&path).unwrap();
    stream.write_all(format!("{line}\n").as_bytes()).unwrap();
    let mut reader = BufReader::new(stream);
    let mut header = String::new();
    reader.read_line(&mut header).unwrap();
    assert!(header.starts_with("OK "), "{line}: {header}");
    let mut socket = Vec::new();
    loop {
        let start = socket.len();
        assert!(
            reader.read_until(b'\n', &mut socket).unwrap() > 0,
            "EOF: {line}"
        );
        if socket[start..] == *b"END\n" {
            socket.truncate(start);
            break;
        }
    }
    drop(reader);
    server.shutdown();

    let lines = handle_line(&svc, &line).unwrap();
    let mut collected = lines[1..lines.len() - 1].join("\n").into_bytes();
    if !collected.is_empty() {
        collected.push(b'\n');
    }

    let plan = lower_to_checked_plan(&parse_surface(surface, text).unwrap()).unwrap();
    let plan = Optimizer::new().optimize(&plan);
    let mut engine = EngineEvaluator::new(
        svc.graph(),
        svc.effective_recursion(),
        ExecutionConfig::default(),
    );
    let mut evaluated = Vec::new();
    for path in engine.eval_paths(&plan).unwrap().iter() {
        evaluated.extend_from_slice(b"PATH ");
        evaluated.extend_from_slice(path.display_ids().as_bytes());
        evaluated.push(b'\n');
    }
    [socket, collected, evaluated]
}

/// A fresh socket path for one test server.
fn socket_path() -> PathBuf {
    static SOCKETS: AtomicUsize = AtomicUsize::new(0);
    std::env::temp_dir().join(format!(
        "pathalg-surfaces-{}-{}.sock",
        std::process::id(),
        SOCKETS.fetch_add(1, Ordering::Relaxed)
    ))
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

#[test]
fn socket_handle_line_and_engine_render_the_same_bytes() {
    for (gql, rpq) in EQUIVALENT_PAIRS {
        for (surface, text) in three_forms(gql, rpq) {
            let [socket, collected, evaluated] = three_renderings(surface, &text);
            assert!(!evaluated.is_empty(), "{surface}: {gql}");
            assert_eq!(socket, collected, "socket vs handle_line, {surface}: {gql}");
            assert_eq!(socket, evaluated, "socket vs engine, {surface}: {gql}");
        }
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
    /// and the plan key — variable renames never reach either. When both
    /// endpoints draw the same name, every surface that has names refuses
    /// the query with a typed parse error, over the socket too.
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
        if a == b {
            // A repeated variable is an equality join the IR cannot say.
            let needle = format!("variable {} is bound twice", NAMES[a]);
            let path = socket_path();
            let server = serve(Arc::new(service()), path.clone()).unwrap();
            let mut client = Client::connect(&path).unwrap();
            for (surface, text) in [(QuerySurface::Gql, &gql), (QuerySurface::Rpq, &rpq)] {
                let err = parse_surface(surface, text).unwrap_err();
                prop_assert_eq!(err.surface, surface);
                prop_assert!(err.message.contains(&needle), "{}", err);
                match client.query_on(surface, text).unwrap() {
                    Response::Error { kind, message } => {
                        prop_assert_eq!(kind, "parse");
                        prop_assert!(message.contains(&needle), "{}", message);
                    }
                    other => prop_assert!(false, "{}: expected ERR parse, got {:?}", text, other),
                }
            }
            // The server keeps serving.
            let reply = client.query_on(QuerySurface::Gql, EQUIVALENT_PAIRS[0].0).unwrap();
            prop_assert!(matches!(reply, Response::Query(_)), "{:?}", reply);
            drop(client);
            server.shutdown();
            return;
        }
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

        // The answer leaves as the same bytes however it is read.
        for (surface, text) in [(QuerySurface::Gql, &gql), (QuerySurface::Rpq, &rpq)] {
            let [socket, collected, evaluated] = three_renderings(surface, text);
            prop_assert_eq!(&socket, &collected, "socket vs handle_line: {}", text);
            prop_assert_eq!(&socket, &evaluated, "socket vs engine: {}", text);
        }
    }
}
