//! The `repro serve` subcommand: a running query service on a unix socket.
//!
//! Loads a graph (the Figure 1 fixture by default, or an SNB-shaped
//! synthetic graph with `--snb <persons>`), wraps it in a
//! [`pathalg_server::QueryService`], and serves the line protocol until
//! killed. Talk to it with any line client, e.g.
//!
//! ```text
//! $ cargo run -p repro -- serve --socket /tmp/pathalg.sock &
//! $ printf 'QUERY MATCH ANY SHORTEST TRAIL p = (?x)-[(:Knows)+]->(?y)\nSTATS\nQUIT\n' \
//!     | nc -U /tmp/pathalg.sock
//! ```

use pathalg_graph::fixtures::figure1::figure1_graph;
use pathalg_graph::generator::snb::{snb_like_graph, SnbConfig};
use pathalg_server::{serve, QueryService, ServiceConfig};
use std::sync::Arc;

/// Parses the `serve` arguments and runs the server until the process is
/// killed. Returns an error message for unusable arguments.
pub fn run(args: &[String]) -> Result<(), String> {
    let mut socket = "/tmp/pathalg.sock".to_string();
    let mut snb_persons: Option<usize> = None;
    let mut metrics = false;
    let mut deadline_ms: Option<u64> = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value = |name: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--socket" => socket = value("--socket")?,
            "--snb" => {
                snb_persons = Some(value("--snb")?.parse().map_err(|e| format!("--snb: {e}"))?)
            }
            "--metrics" => metrics = true,
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                )
            }
            other => {
                return Err(format!(
                    "unknown serve option {other} (expected --socket PATH, --snb PERSONS, \
                     --metrics, --deadline-ms MS)"
                ))
            }
        }
    }

    let graph = match snb_persons {
        Some(persons) => {
            println!("loading SNB-shaped graph ({persons} persons)…");
            snb_like_graph(&SnbConfig::scale(persons, 11))
        }
        None => figure1_graph(),
    };
    println!(
        "graph: {} nodes, {} edges",
        graph.node_count(),
        graph.edge_count()
    );
    let config = ServiceConfig {
        default_deadline: deadline_ms.map(std::time::Duration::from_millis),
        ..ServiceConfig::default()
    };
    let service = Arc::new(QueryService::new(Arc::new(graph), config));
    // Bound to a name so the handle (and with it the socket file) lives for
    // the whole process; killing the process is the only way out.
    let _handle =
        serve(service.clone(), socket.clone()).map_err(|e| format!("bind {socket}: {e}"))?;
    println!("serving on {socket} (one thread per connection); commands:");
    if let Some(ms) = deadline_ms {
        println!("default per-request deadline: {ms}ms");
    }
    println!("  QUERY <gql>   run a query (OK/PATH…/END or ERR <kind>: …)");
    println!("  QUERY [tag] DEADLINE <ms> <text>   per-request deadline");
    println!("  STATS         service counters (one line)");
    println!("  METRICS       Prometheus-style exposition (END-framed)");
    println!("  TRACE <id>    per-request stage/work report (ids on OK headers)");
    println!("  EPOCH | BUMP  read / advance the plan-cache epoch");
    println!("  PING | QUIT");
    if metrics {
        // A background reporter: dump the exposition to stdout every 10s so
        // a scrape-less deployment still sees the counters move.
        let reporter = service.clone();
        std::thread::spawn(move || loop {
            std::thread::sleep(std::time::Duration::from_secs(10));
            println!("{}", reporter.metrics().expose());
        });
        println!("metrics reporter on: exposition printed every 10s");
    }
    println!("press Ctrl-C to stop");
    // The accept loop runs on its own thread; park this one forever.
    loop {
        std::thread::park();
    }
}
