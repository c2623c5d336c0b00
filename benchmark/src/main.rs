//! The repo's end-to-end benchmark: socket round trips against an in-process
//! `pathalg::server`, on four workloads, with an outside-in layer ladder.
//! See `benchmark/README.md`; run through `benchmark/run.sh`.
//!
//! ```text
//! run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]   one run; last stdout line is the result JSON
//! run.sh [--workload NAME] [--seed N] [--trace 0|1] --repeat K    every workload, K times, each in its own process,
//!                                                                 with a PASS/FAIL table against the bounds
//! ```

mod ladder;
mod run;
mod spec;
mod util;
mod workload;

use pathalg::parser::{parse_json, Json};
use spec::{MetricSpec, Spec};
use std::process::{Command, ExitCode, Stdio};
use std::time::Duration;
use util::{median, percentile, ratio};
use workload::{Workload, DEFAULT_SEED};

/// Service instances an untraced run sets up and measures; see
/// [`end_to_end`].
const INSTANCES: usize = 8;

/// A run that is still going after this long is killed: the driver allows
/// 180 s, and a hang must become a failure, not a hang.
const WALL_CLOCK_CAP: Duration = Duration::from_secs(170);

const DIGESTS_PATH: &str = "benchmark/expected_digests.json";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        repeat: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err(bad());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--repeat" => {
                let repeat: usize = value.parse().map_err(|_| bad())?;
                if repeat == 0 {
                    return Err(bad());
                }
                args.repeat = Some(repeat);
            }
            _ => {
                return Err(format!(
                    "unknown flag {flag}; flags: --workload NAME --seed N --seconds S --trace 0|1 --repeat K"
                ))
            }
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|args| {
        let spec = Spec::load()?;
        match (&args.workload, args.repeat) {
            (Some(name), None) => run_one(&spec, name, &args),
            _ => run_set(&spec, &args),
        }
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// The committed combined digest of `workload` at the default seed.
fn committed_digest(workload: &str) -> Result<u64, String> {
    let text = std::fs::read_to_string(DIGESTS_PATH).map_err(|e| format!("{DIGESTS_PATH}: {e}"))?;
    let json = parse_json(&text).map_err(|e| format!("{DIGESTS_PATH}: {e}"))?;
    if json.get("seed").and_then(Json::as_int) != Some(DEFAULT_SEED as i64) {
        return Err(format!("{DIGESTS_PATH}: not for seed {DEFAULT_SEED}"));
    }
    json.get("digests")
        .and_then(|d| d.get(workload))
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex.trim_start_matches("0x"), 16).ok())
        .ok_or_else(|| format!("{DIGESTS_PATH}: no digest for {workload}"))
}

/// One run of one workload in this process. Prints every metric by name and
/// ends with the result JSON; `Ok(false)` when an operation failed.
fn run_one(spec: &Spec, name: &str, args: &Args) -> Result<bool, String> {
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    let workload = Workload::generate(name, args.seed)?;
    std::fs::create_dir_all(run::OUT_DIR).map_err(|e| format!("{}: {e}", run::OUT_DIR))?;
    let socket = std::path::PathBuf::from(format!(
        "{}/{name}-{}.sock",
        run::OUT_DIR,
        std::process::id()
    ));
    // Never joined: it exists to end the process when the run hangs.
    std::thread::spawn({
        let socket = socket.clone();
        move || {
            std::thread::sleep(WALL_CLOCK_CAP);
            eprintln!("benchmark: still running after {WALL_CLOCK_CAP:?}; giving up");
            let _ = std::fs::remove_file(&socket);
            std::process::exit(3);
        }
    });

    println!(
        "workload {name} seed {} seconds {seconds} trace {} clients {} engine_threads {} cores {}",
        args.seed,
        u8::from(args.trace),
        workload.clients.len(),
        workload.engine_threads,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let (declared, outcome) = if args.trace {
        let (mut env, _) = run::setup(&workload, args.seed, &socket)?;
        let reference = checked_reference(&workload, &env, args.seed)?;
        let traced = ladder::traced_run(&workload, &mut env, &reference, args.seed, seconds)?;
        env.shutdown();
        (&spec.per_layer, traced)
    } else {
        (
            &spec.end_to_end,
            end_to_end(&workload, args.seed, seconds, &socket)?,
        )
    };

    for failure in &outcome.failures {
        println!("failure: {failure}");
    }
    let (attempted, failed) = (outcome.attempted, outcome.failed);
    println!(
        "failed_share {} ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    println!("{}", report(declared, &outcome.metrics, attempted, failed)?);
    Ok(failed == 0)
}

/// What a run measured: metric values by name and the operation counts.
pub struct Outcome {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

/// The reference answers, checked against the committed digest when the
/// seed is the default one.
fn checked_reference(
    workload: &Workload,
    env: &run::Env,
    seed: u64,
) -> Result<Vec<util::Digest>, String> {
    let reference = run::reference_digests(workload, env)?;
    let combined = run::combined_digest(&reference);
    println!(
        "reference {} logical queries, {} texts, combined digest {combined:#018x}",
        workload.logical.len(),
        workload.texts.len()
    );
    if seed == DEFAULT_SEED && combined != committed_digest(workload.name)? {
        return Err(format!(
            "the reference answers of {} at seed {DEFAULT_SEED} are not the ones committed in {DIGESTS_PATH}",
            workload.name
        ));
    }
    Ok(reference)
}

/// The untraced run. The measured time is split evenly over [`INSTANCES`]
/// freshly set-up services, and every timing metric is the median over
/// them: two instances of the same graph and service differ in speed by up
/// to a fifth on this host (where their memory lands), and a run that
/// measured one instance would report that draw, not the code.
fn end_to_end(
    workload: &Workload,
    seed: u64,
    seconds: f64,
    socket: &std::path::Path,
) -> Result<Outcome, String> {
    let mut reference = None;
    let mut total = run::LoopResult::default();
    let (mut setup_s, mut p50, mut p90, mut qps) = (vec![], vec![], vec![], vec![]);
    for instance in 0..INSTANCES {
        let (mut env, took) = run::setup(workload, seed, socket)?;
        setup_s.push(took.as_secs_f64());
        if reference.is_none() {
            reference = Some(checked_reference(workload, &env, seed)?);
        }
        // Each instance enters the clients' cycles at a different round, so
        // the run as a whole covers them.
        let first_round = instance * workload.clients[0].len() / INSTANCES;
        let result = run::closed_loop(
            workload,
            &mut env,
            reference
                .as_deref()
                .expect("computed on the first instance"),
            first_round,
            Duration::from_secs_f64(seconds / INSTANCES as f64),
        );
        env.shutdown();
        if result.round_ms.is_empty() {
            return Err(format!("no round completed: {:?}", result.failures));
        }
        p50.push(median(&result.round_ms));
        p90.push(percentile(&result.round_ms, 0.90));
        qps.push(result.qps);
        total.merge(result);
    }
    println!(
        "rounds {} (latency sample count) over {INSTANCES} service instances, queries verified {}",
        total.round_ms.len(),
        total.verified
    );
    for (what, values) in [
        ("set-up s", &setup_s),
        ("p50 ms", &p50),
        ("p90 ms", &p90),
        ("queries/s", &qps),
    ] {
        let shown: Vec<String> = values.iter().map(|v| format!("{v:.3}")).collect();
        println!("per instance, {what}: {}", shown.join(" "));
    }
    Ok(Outcome {
        metrics: vec![
            ("latency_p50_ms", median(&p50)),
            ("latency_p90_ms", median(&p90)),
            ("throughput_qps", median(&qps)),
            ("setup_s", median(&setup_s)),
            ("rss_peak_mb", util::rss_peak_mb()?),
        ],
        attempted: total.attempted,
        failed: total.failed,
        failures: total.failures,
    })
}

/// Prints the declared metrics, one per line in declared order, and returns
/// the result line carrying exactly them.
fn report(
    declared: &[MetricSpec],
    values: &[(&'static str, f64)],
    attempted: u64,
    failed: u64,
) -> Result<String, String> {
    if let Some((stray, _)) = values
        .iter()
        .find(|(name, _)| declared.iter().all(|m| m.name != *name))
    {
        return Err(format!(
            "{stray} is measured but not declared in {}",
            spec::SPEC_PATH
        ));
    }
    let mut members = Vec::with_capacity(declared.len());
    for metric in declared {
        let value = values
            .iter()
            .find(|(name, _)| metric.name == *name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("{} is declared but not measured", metric.name))?;
        if !value.is_finite() {
            return Err(format!("{} is {value}", metric.name));
        }
        println!("{:<34}{value:>18.6} {}", metric.name, metric.unit);
        members.push(format!(
            "\"{}\":{{\"value\":{value:?},\"unit\":\"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        members.join(",")
    ))
}

/// Runs the chosen workloads (all of them by default) `--repeat` times, each
/// run in its own process so `rss_peak_mb` is per workload, then judges
/// every workload × end-to-end metric against its bound.
fn run_set(spec: &Spec, args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let names: Vec<&str> = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => spec.workloads.iter().map(String::as_str).collect(),
    };
    let repeat = args.repeat.unwrap_or(1);
    let seconds = args.seconds.unwrap_or(spec.run_seconds as f64);
    // values[workload][metric] = one value per repetition.
    let mut values = vec![vec![Vec::new(); spec.end_to_end.len()]; names.len()];
    let mut all_ok = true;
    for rep in 0..repeat {
        for (w, name) in names.iter().enumerate() {
            for trace in [false, true] {
                if trace && !args.trace {
                    continue;
                }
                println!(
                    "--- {name}, repetition {} of {repeat}, trace {}",
                    rep + 1,
                    u8::from(trace)
                );
                let output = Command::new(&exe)
                    .args(["--workload", name])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .stderr(Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {exe:?}: {e}"))?;
                let stdout = String::from_utf8_lossy(&output.stdout);
                print!("{stdout}");
                let last = stdout.lines().last().unwrap_or("");
                let result = parse_json(last)
                    .map_err(|e| format!("{name}: no result line ({}): {e}", output.status))?;
                if result.get("failed").and_then(Json::as_int) != Some(0) {
                    all_ok = false;
                }
                if trace {
                    continue;
                }
                for (m, metric) in spec.end_to_end.iter().enumerate() {
                    match result
                        .get("metrics")
                        .and_then(|x| x.get(&metric.name))
                        .and_then(|x| x.get("value"))
                    {
                        Some(Json::Float(v)) => values[w][m].push(*v),
                        Some(Json::Int(v)) => values[w][m].push(*v as f64),
                        _ => return Err(format!("{name}: no value for {}", metric.name)),
                    }
                }
            }
        }
    }

    println!("--- {repeat} repetition(s): spread = (max - min) / min against each metric's bound");
    for (w, name) in names.iter().enumerate() {
        for (m, metric) in spec.end_to_end.iter().enumerate() {
            let v = &values[w][m];
            let (min, max) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), x| (lo.min(*x), hi.max(*x)));
            let spread = ratio(max - min, min);
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = match v.len() {
                0 | 1 => "-",
                _ if spread <= bound => "PASS",
                _ => {
                    all_ok = false;
                    "FAIL"
                }
            };
            let shown: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
            println!(
                "{name:<18}{:<16}{:<6}spread {spread:>7.4} bound {bound:<5} {verdict}  [{}]",
                metric.name,
                metric.unit,
                shown.join(", ")
            );
        }
    }
    Ok(all_ok)
}
