//! `repro` — regenerate every table and figure of the paper.
//!
//! Each table and figure of *Path-based Algebraic Foundations of Graph Query
//! Languages* has a corresponding subcommand that recomputes it from the
//! library (no hard-coded answers) and prints it in a layout close to the
//! paper's. Run `repro all` (or `cargo run -p repro -- all`) to regenerate
//! everything; see EXPERIMENTS.md for the expected output.

mod chaos;
mod figures;
mod obs;
mod scale;
mod serve;
mod surfaces;
mod tables;

use std::env;

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // `serve` is not a table/figure: it takes options and blocks, so it is
    // dispatched before the regeneration table.
    if args.first().map(String::as_str) == Some("serve") {
        if let Err(message) = serve::run(&args[1..]) {
            eprintln!("serve: {message}");
            std::process::exit(1);
        }
        return;
    }
    // `scale` takes a size option and can run for seconds at the full 10⁶
    // row, so it too dispatches before the regeneration table.
    if args.first().map(String::as_str) == Some("scale") {
        if let Err(message) = scale::run(&args[1..]) {
            eprintln!("scale: {message}");
            std::process::exit(1);
        }
        return;
    }
    let selected: Vec<&str> = args.iter().map(|s| s.trim_start_matches("--")).collect();
    let run_all = selected.is_empty() || selected.contains(&"all");

    let items: &[(&str, &str, fn())] = &[
        ("figure1", "the LDBC SNB example graph", figures::figure1),
        (
            "figure2",
            "algebraic plan of the recursive Moe→Apu query",
            figures::figure2,
        ),
        (
            "figure3",
            "core-algebra plan for friends and friends-of-friends",
            figures::figure3,
        ),
        (
            "figure4",
            "recursive plan with Kleene star",
            figures::figure4,
        ),
        (
            "figure5",
            "group-by / order-by / projection pipeline",
            figures::figure5,
        ),
        (
            "figure6",
            "predicate pushdown (basic vs optimized plan)",
            figures::figure6,
        ),
        ("table1", "GQL selectors", tables::table1),
        ("table2", "GQL restrictors", tables::table2),
        (
            "table3",
            "paths satisfying Knows+ under the five semantics",
            tables::table3,
        ),
        (
            "table4",
            "group-by variants and solution-space organisation",
            tables::table4,
        ),
        ("table5", "solution space produced by γST", tables::table5),
        ("table6", "order-by semantics", tables::table6),
        (
            "table7",
            "selector/restrictor translations to the algebra",
            tables::table7,
        ),
        (
            "beyond-gql",
            "algebra expressions beyond GQL (Section 6)",
            tables::beyond_gql,
        ),
        (
            "joins",
            "strategy decision table for join-chain and scan closures",
            tables::joins,
        ),
        (
            "parser-demo",
            "Section 7.2 parser output",
            figures::parser_demo,
        ),
        (
            "optimizer-demo",
            "Section 7.3 ϕWalk→ϕShortest rewrite",
            figures::optimizer_demo,
        ),
        (
            "surfaces",
            "one query through the GQL, RPQ and JSON-IR surfaces",
            surfaces::surfaces,
        ),
        (
            "obs",
            "traced query: stage spans, work counters, METRICS exposition",
            obs::obs,
        ),
        (
            "chaos",
            "injected faults: deadline, cancel, panic isolation, load shedding",
            chaos::chaos,
        ),
    ];

    let mut matched = false;
    for (name, description, run) in items {
        if run_all || selected.contains(name) {
            matched = true;
            println!("================================================================");
            println!("== {name}: {description}");
            println!("================================================================");
            run();
            println!();
        }
    }

    if !matched {
        eprintln!("unknown selection {selected:?}");
        eprintln!("available targets:");
        for (name, description, _) in items {
            eprintln!("  {name:<15} {description}");
        }
        eprintln!("  {:<15} query service on a unix socket", "serve");
        eprintln!(
            "  {:<15} million-scale nodes-vs-throughput table ([--max N])",
            "scale"
        );
        std::process::exit(1);
    }
}
