//! `repro scale` — the nodes-vs-throughput table of the million-scale
//! enumeration machinery (DESIGN.md §15).
//!
//! For each graph size the command streams the `Knows` CSR of the SNB
//! generator straight from the RNG (no property graph is ever built), then
//! drains the first 100 000 bounded walks through the lazy PMR without
//! reconstructing a single path. Reported per row: build and drain wall
//! time, drain throughput and the peak arena footprint — the observable
//! evidence that enumeration cost is governed by the paths drained, not by
//! the graph behind them.

use pathalg_core::ops::recursive::{PathSemantics, RecursionConfig};
use pathalg_graph::generator::snb::{snb_label_csr, SnbConfig};
use pathalg_pmr::Pmr;
use std::sync::Arc;
use std::time::Instant;

/// Graph sizes of the full sweep, in persons.
const SIZES: [usize; 3] = [10_000, 100_000, 1_000_000];
/// Paths drained per row.
const DRAIN: usize = 100_000;

/// Runs the sweep up to `--max N` persons (default: the full 10⁶ row).
pub fn run(args: &[String]) -> Result<(), String> {
    let mut max = *SIZES.last().expect("SIZES is non-empty");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--max" => {
                let value = it.next().ok_or("--max needs a person count")?;
                max = value
                    .parse::<usize>()
                    .map_err(|e| format!("--max {value}: {e}"))?;
            }
            other => return Err(format!("unknown option {other} (usage: scale [--max N])")),
        }
    }

    println!("== repro scale: million-scale lazy enumeration ==");
    println!("streamed Knows CSR, lazy PMR drain of the first {DRAIN} walks (max_length 2)");
    println!(
        "{:>9} {:>9} {:>9} {:>8} {:>9} {:>9} {:>12} {:>11}",
        "persons", "nodes", "edges", "paths", "build_ms", "drain_ms", "paths/s", "arena_KiB"
    );
    for persons in SIZES.into_iter().filter(|&p| p <= max) {
        let cfg = SnbConfig::scale(persons, 0xBEEF + persons as u64);
        let built = Instant::now();
        let csr = snb_label_csr(&cfg, "Knows");
        let build = built.elapsed();
        let (nodes, edges) = (csr.node_count(), csr.edge_count());

        let mut pmr = Pmr::from_shared_csr(
            Arc::new(csr),
            PathSemantics::Walk,
            RecursionConfig {
                max_length: Some(2),
                max_paths: None,
            },
        );
        let drained = Instant::now();
        let paths = pmr
            .count_batch(DRAIN)
            .map_err(|e| format!("drain at {persons} persons: {e}"))?;
        let drain = drained.elapsed();

        let per_s = paths as f64 / drain.as_secs_f64().max(f64::EPSILON);
        println!(
            "{:>9} {:>9} {:>9} {:>8} {:>9.1} {:>9.1} {:>12.0} {:>11}",
            persons,
            nodes,
            edges,
            paths,
            build.as_secs_f64() * 1e3,
            drain.as_secs_f64() * 1e3,
            per_s,
            pmr.arena_bytes() / 1024
        );
    }
    Ok(())
}
