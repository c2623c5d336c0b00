//! Zero-allocation pin for the lazy PMR's steady state (DESIGN.md §15).
//!
//! The compact arena, the bitmap visited sets allocated once per expansion,
//! and the recycled scratch buffers exist so that a drain's cost is the work
//! of expansion — not the allocator. This test proves it with a counting global allocator: after a
//! warm-up that fills every scratch buffer (one source's worth of levels)
//! and with the arena pre-reserved via [`Pmr::reserve_steps`], draining the
//! remaining sources of a uniform workload performs **zero** heap
//! allocations — counting paths, and rendering each one straight from the
//! arena through the visitor drain ([`Pmr::for_each_path`]) into a
//! pre-reserved byte buffer. A sliced drain ([`Pmr::for_each_sliced`])
//! keeps an arena step per kept path, not a path, so it renders the same
//! way without allocating once its collector's buffers are warm.
//!
//! The workload is a directed cycle, where every source expands an
//! identical single-chain frontier: the capacities warmed by the first
//! source are exactly the capacities every later source needs, so "no
//! allocation after warm-up" is deterministic rather than
//! workload-dependent. Only allocations made by the thread that opened the
//! measurement window are counted, in a count of its own: the test
//! harness's own thread allocates on its first blocking wait, which can land
//! inside the window when the host is busy, and tests run in parallel.
//!
//! The same counter pins the client end of the wire: a query reply is read
//! into one buffer, so its allocations grow with the answer's size in bytes
//! (logarithmically), not with its number of paths.

use pathalg::algebra::ops::group_by::GroupKey;
use pathalg::algebra::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg::algebra::path::write_ids;
use pathalg::algebra::slice::SliceSpec;
use pathalg::graph::csr::CsrGraph;
use pathalg::graph::generator::structured::cycle_graph;
use pathalg::parser::QuerySurface;
use pathalg::pmr::Pmr;
use pathalg::server::{serve, Client, QueryService, Response, ServiceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts every allocation and reallocation made by a thread while it has
/// a measurement window open (frees are irrelevant here: freeing recycled
/// scratch would itself be a bug, but the symptom we pin is the
/// re-acquisition). The count is the thread's own, so tests running in
/// parallel never see each other's allocations.
struct CountingAlloc;

thread_local! {
    // The open window's count, `None` outside one. `const`-initialised and
    // without a destructor: reading it never allocates, so the allocator
    // may consult it.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get().map(|n| n + 1)));
}

/// Opens this thread's measurement window.
fn start_counting() {
    ALLOCATIONS.with(|n| n.set(Some(0)));
}

/// Closes this thread's measurement window; returns the allocations it saw.
fn stop_counting() -> u64 {
    ALLOCATIONS.with(|n| n.take()).expect("a window is open")
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const NODES: usize = 32;
const MAX_LEN: usize = 16;

fn cycle_csr() -> Arc<CsrGraph> {
    Arc::new(CsrGraph::with_label(&cycle_graph(NODES, "k"), "k"))
}

fn config() -> RecursionConfig {
    RecursionConfig {
        max_length: Some(MAX_LEN),
        max_paths: None,
    }
}

/// Paths the first source emits (= one full warm-up on the cycle, where
/// every source yields exactly one chain per level).
fn per_source(semantics: PathSemantics) -> usize {
    match semantics {
        // Levels 1..=MAX_LEN, one walk each.
        PathSemantics::Walk => MAX_LEN,
        // One shortest path per reachable target within the bound.
        PathSemantics::Shortest => MAX_LEN,
        other => unreachable!("workload not sized for {other:?}"),
    }
}

#[test]
fn steady_state_drain_performs_zero_allocations() {
    for semantics in [PathSemantics::Walk, PathSemantics::Shortest] {
        // Scout pass: learn the exact step count of this drain, so the
        // measured pass can pre-reserve the arena.
        let mut scout = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        let total = scout.count_all().unwrap();
        let steps = scout.steps_generated();
        assert!(
            total > per_source(semantics),
            "workload must outlast warm-up"
        );

        let mut pmr = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        pmr.reserve_steps(steps);
        // Warm-up: drain the first source completely, filling the level
        // buffers, the pending queue, and (for Shortest) the visited bitmap
        // and distance table to their steady-state capacities.
        let warm = pmr.count_batch(per_source(semantics)).unwrap();

        start_counting();
        let rest = pmr.count_all().unwrap();
        let allocations = stop_counting();

        assert_eq!(warm + rest, total, "split drain lost paths ({semantics:?})");
        assert_eq!(
            allocations, 0,
            "draining {rest} paths after warm-up must not allocate ({semantics:?})"
        );
    }
}

#[test]
fn steady_state_visitor_drain_renders_without_allocating() {
    for semantics in [PathSemantics::Walk, PathSemantics::Shortest] {
        // Scout pass: the full rendering and the step count, so the measured
        // pass can pre-reserve both the arena and the output buffer.
        let mut scout = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        let mut expected = Vec::new();
        let total = scout
            .for_each_path(|nodes, edges| {
                write_ids(nodes, edges, &mut expected);
                expected.push(b'\n');
            })
            .unwrap();
        let steps = scout.steps_generated();

        let mut pmr = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        pmr.reserve_steps(steps);
        // Warm-up through the reconstructing pull, so the reconstruction
        // buffers, too, hold the longest path (every source's is the same).
        let warm = pmr.top_k(per_source(semantics)).unwrap().len();
        let mut out = Vec::with_capacity(expected.len());

        start_counting();
        let rest = pmr
            .for_each_path(|nodes, edges| {
                write_ids(nodes, edges, &mut out);
                out.push(b'\n');
            })
            .unwrap();
        let allocations = stop_counting();

        assert_eq!(warm + rest, total, "split drain lost paths ({semantics:?})");
        let skipped: usize = expected
            .split_inclusive(|&b| b == b'\n')
            .take(warm)
            .map(<[u8]>::len)
            .sum();
        assert_eq!(out, expected[skipped..], "rendered bytes ({semantics:?})");
        assert_eq!(
            allocations, 0,
            "rendering {rest} paths after warm-up must not allocate ({semantics:?})"
        );
    }
}

#[test]
fn steady_state_sliced_drain_renders_without_allocating() {
    // ANY: one path per endpoint pair.
    let spec = SliceSpec {
        group_key: GroupKey::SourceTarget,
        per_group: Some(1),
        max_partitions: None,
        max_groups: None,
        ordered_by_length: false,
    };
    for semantics in [PathSemantics::Walk, PathSemantics::Shortest] {
        // Scout pass: the full rendering and the step count.
        let mut scout = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        let mut expected = Vec::new();
        let total = scout
            .for_each_sliced(&spec, |nodes, edges| {
                write_ids(nodes, edges, &mut expected);
                expected.push(b'\n');
            })
            .unwrap();
        let steps = scout.steps_generated();
        assert!(
            total > per_source(semantics),
            "workload must outlast warm-up"
        );

        let mut pmr = Pmr::from_shared_csr(cycle_csr(), semantics, config());
        pmr.reserve_steps(steps);
        let mut out = Vec::with_capacity(expected.len());
        let mut visited = 0;
        // A source's kept paths are visited when the next source begins.
        // The window opens at the first source's last one: from there on
        // every scratch buffer, the collector's included, is warm.
        let n = pmr
            .for_each_sliced(&spec, |nodes, edges| {
                write_ids(nodes, edges, &mut out);
                out.push(b'\n');
                visited += 1;
                if visited == per_source(semantics) {
                    start_counting();
                }
            })
            .unwrap();
        let allocations = stop_counting();

        assert_eq!(n, total, "kept paths ({semantics:?})");
        assert_eq!(out, expected, "rendered bytes ({semantics:?})");
        assert_eq!(
            allocations,
            0,
            "rendering {} kept paths after warm-up must not allocate ({semantics:?})",
            total - per_source(semantics)
        );
    }
}

#[test]
fn steady_state_client_reply_allocates_per_answer_not_per_path() {
    // A cycle of 1 000 nodes under a bound of 10: every node starts one
    // walk of each length, 10 000 paths.
    let graph = Arc::new(cycle_graph(1_000, "k"));
    let config = ServiceConfig {
        recursion: RecursionConfig {
            max_length: Some(10),
            max_paths: None,
        },
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::new(graph, config));
    let socket =
        std::env::temp_dir().join(format!("pathalg-alloc-client-{}.sock", std::process::id()));
    let server = serve(service, socket.clone()).expect("bind");
    let mut client = Client::connect(&socket).expect("connect");
    let query = "MATCH ALL WALK p = (?x)-[(:k)+]->(?y)";
    // Warm-up: the plan is cached and the client's line buffer holds a
    // header.
    let warm = client.query_on(QuerySurface::Gql, query).expect("warm-up");

    start_counting();
    let reply = client.query_on(QuerySurface::Gql, query);
    let allocations = stop_counting();

    let Ok(Response::Query(reply)) = reply else {
        panic!("expected a query reply, got {reply:?}");
    };
    assert_eq!(reply.paths.len(), 10_000);
    let Response::Query(warm) = warm else {
        panic!("expected a query reply, got {warm:?}");
    };
    assert_eq!(reply.paths, warm.paths);
    assert!(
        allocations < 64,
        "reading a {}-path reply made {allocations} allocations",
        reply.paths.len()
    );
    drop(client);
    server.shutdown();
}
