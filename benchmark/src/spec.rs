//! `BENCHMARK.json`, read from the repo root: the one place metric names,
//! units, bounds, workload names and the run length are declared. The
//! harness refuses to report a metric set that differs from it.

use pathalg::parser::{parse_json, Json};

pub const SPEC_PATH: &str = "BENCHMARK.json";

pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the reference value by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
}

pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn string_member(json: &Json, key: &str) -> Result<String, String> {
    json.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("{SPEC_PATH}: missing string member {key:?}"))
}

fn array_member<'a>(json: &'a Json, key: &str) -> Result<&'a [Json], String> {
    json.get(key)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{SPEC_PATH}: missing array member {key:?}"))
}

fn metric(json: &Json) -> Result<MetricSpec, String> {
    Ok(MetricSpec {
        name: string_member(json, "name")?,
        unit: string_member(json, "unit")?,
        bound: match json.get("bound") {
            Some(Json::Float(x)) => Some(*x),
            Some(Json::Int(i)) => Some(*i as f64),
            _ => None,
        },
    })
}

impl Spec {
    /// Loads the spec from the current directory, which `run.sh` makes the
    /// repo root.
    pub fn load() -> Result<Spec, String> {
        let text = std::fs::read_to_string(SPEC_PATH)
            .map_err(|e| format!("cannot read {SPEC_PATH} (run through benchmark/run.sh): {e}"))?;
        let json = parse_json(&text).map_err(|e| format!("{SPEC_PATH}: {e}"))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            array_member(&json, key)?.iter().map(metric).collect()
        };
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_int)
                .and_then(|s| u64::try_from(s).ok())
                .ok_or_else(|| format!("{SPEC_PATH}: missing run_seconds"))?,
            workloads: array_member(&json, "workloads")?
                .iter()
                .map(|w| string_member(w, "name"))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}
