//! The repository benchmark: end-to-end and per-layer numbers of the
//! dual-phase ALS flows and of the job service, with every result checked
//! by an oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <dp_sm9x8|conv_mult16_t2|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. The last line of standard output is one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: with
//! `--trace 0` the metrics are the end-to-end ones, measured with the
//! program's observability off; with `--trace 1` they are the per-layer
//! ones, from a run with the program's `Obs` handle on. The line before it
//! is a report with the host and knob facts, the seeds, and every error
//! estimate with its interval. Workloads, metric names and units are
//! listed in `BENCHMARK.json`; [`END_TO_END`] and [`PER_LAYER`] must match
//! it (a unit test checks).

mod direct;
mod host;
mod layers;
mod oracle;
mod service;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use dualphase_als::obs::json::Json;

use oracle::Quality;

/// The workload names, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] =
    [direct::DP_SM9X8.name, direct::CONV_MULT16_T2.name, service::NAME];

/// End-to-end metrics (`--trace 0`) with their units.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("synth_s_p50", "s"),
    ("job_latency_p50_s", "s"),
    ("job_latency_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("adp_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`) with their units; times and counts are
/// per operation.
pub const PER_LAYER: [(&str, &str); 43] = [
    ("phase1.cuts_s", "s"),
    ("phase1.cpm_s", "s"),
    ("phase1.eval_s", "s"),
    ("phase1.apply_s", "s"),
    ("phase2.cuts_s", "s"),
    ("phase2.cpm_s", "s"),
    ("phase2.eval_s", "s"),
    ("phase2.apply_s", "s"),
    ("cuts.recomputed_nodes", "count"),
    ("cuts.s_v", "count"),
    ("cuts.spot_checks", "count"),
    ("cpm.rows_built", "count"),
    ("cpm.rows_reused", "count"),
    ("eval.lacs", "count"),
    ("eval.dedup_hit_ratio", "ratio"),
    ("lacs_applied", "count"),
    ("comprehensive_analyses", "count"),
    ("phase2_lac_share", "ratio"),
    ("unaccounted_s", "s"),
    ("tracing_overhead_pct", "%"),
    ("guard.validations", "count"),
    ("guard.rollbacks", "count"),
    ("guard.fallbacks", "count"),
    ("pool.regions_parallel", "count"),
    ("pool.regions_serial", "count"),
    ("pool.steals", "count"),
    ("pool.busy_s", "s"),
    ("pool.utilization_pct", "%"),
    ("sim.setup_s", "s"),
    ("journal.appends", "count"),
    ("journal.append_us_sum", "us"),
    ("journal.bytes", "B"),
    ("trace.bytes", "B"),
    ("serve.submit_s", "s"),
    ("serve.queue_wait_s", "s"),
    ("serve.run_s", "s"),
    ("serve.overhead_s", "s"),
    ("serve.state_bytes", "B"),
    ("error_holdout_ratio", "ratio"),
    ("error_exact_ratio", "ratio"),
    ("error.insample_ci_hi_ratio", "ratio"),
    ("error.holdout_ci_lo_ratio", "ratio"),
    ("failed_ratio", "ratio"),
];

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload run produced.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that errored or failed the oracle.
    pub failed: u64,
    /// Every metric the run measured.
    pub metrics: Metrics,
    /// Workload details for the report line.
    pub report: Json,
}

/// Command-line arguments.
pub struct Args {
    workload: String,
    /// Seed every input of the run is derived from.
    pub seed: u64,
    /// How long the run measures.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|_| "--seconds takes a number")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown option {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload} (one of {})", WORKLOADS.join(", ")));
    }
    let seconds = seconds.unwrap_or(10.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args { workload, seed: seed.unwrap_or(1), seconds, trace: trace.unwrap_or(false) })
}

/// A 64-bit seed derived from `seed` and a stream index (splitmix64).
pub fn derive_seed(seed: u64, k: u64) -> u64 {
    let mut z = seed.wrapping_add(k.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Runs `f` `times` times; returns the seconds each call took, and the
/// last value (earlier values are dropped outside the timed region).
pub fn timed_setup<T>(
    times: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(Vec<f64>, T), String> {
    let mut elapsed = Vec::new();
    let mut last = None;
    for _ in 0..times.max(1) {
        drop(last.take());
        let start = Instant::now();
        let value = f()?;
        elapsed.push(start.elapsed().as_secs_f64());
        last = Some(value);
    }
    Ok((elapsed, last.expect("set up at least once")))
}

/// The quality metrics over the results of a run: ADP as a geometric
/// mean, each error ratio as the worst result.
pub fn quality_metrics(qs: &[&Quality], m: &mut Metrics) {
    let max = |f: &dyn Fn(&Quality) -> f64| qs.iter().map(|q| f(q)).fold(0.0, f64::max);
    let adp = stats::geomean(&qs.iter().map(|q| q.adp_ratio).collect::<Vec<_>>());
    m.insert("adp_ratio", adp);
    m.insert("error_holdout_ratio", max(&|q| q.holdout_ratio()));
    m.insert("error_exact_ratio", max(&|q| q.exact.map_or(0.0, |e| e / q.bound)));
    m.insert("error.insample_ci_hi_ratio", max(&|q| q.in_sample.1 .1 / q.bound));
    m.insert("error.holdout_ci_lo_ratio", max(&|q| q.holdout.1 .0 / q.bound));
}

/// The result line: the metrics of the requested kind, in table order.
fn result_line(args: &Args, out: &Outcome) -> Result<String, String> {
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut metrics = Json::obj();
    for &(name, unit) in table {
        let value =
            *out.metrics.get(name).ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics.set(name, Json::obj().with("value", value).with("unit", unit));
    }
    Ok(Json::obj()
        .with("correct", out.failed == 0)
        .with("attempted", out.attempted)
        .with("failed", out.failed)
        .with("metrics", metrics)
        .render())
}

fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = match args.workload.as_str() {
        "dp_sm9x8" => direct::run(&direct::DP_SM9X8, args),
        "conv_mult16_t2" => direct::run(&direct::CONV_MULT16_T2, args),
        _ => service::run(args),
    }?;
    out.metrics.insert("failed_ratio", out.failed as f64 / out.attempted.max(1) as f64);
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    for (k, v) in host::env_overrides() {
        eprintln!("perfbench: note: {k}={v} is set and changes what this run measures");
    }
    let out = match run(&args) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let line = match result_line(&args, &out) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = Json::obj()
        .with("workload", args.workload.as_str())
        .with("seed", args.seed)
        .with("seconds", args.seconds)
        .with("trace", args.trace)
        .with("host", host::facts())
        .with("detail", out.report);
    println!("{}", Json::obj().with("report", report).render());
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        dualphase_als::obs::json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names_units(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap_or("").to_string();
                (s("name"), s("unit"))
            })
            .collect()
    }

    fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
        t.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
    }

    #[test]
    fn printed_names_match_benchmark_json() {
        let doc = benchmark_json();
        assert_eq!(names_units(&doc, "end_to_end"), table(&END_TO_END));
        assert_eq!(names_units(&doc, "per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> =
            names_units(&doc, "workloads").into_iter().map(|(n, _)| n).collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn result_line_has_exactly_the_requested_metrics() {
        let mut metrics = Metrics::new();
        for (name, _) in END_TO_END.iter().chain(&PER_LAYER) {
            metrics.insert(name, 1.5);
        }
        let out = Outcome { attempted: 3, failed: 1, metrics, report: Json::Null };
        for trace in [false, true] {
            let args = Args { workload: "dp_sm9x8".into(), seed: 1, seconds: 1.0, trace };
            let line = dualphase_als::obs::json::parse(&result_line(&args, &out).unwrap()).unwrap();
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
            let Some(Json::Obj(m)) = line.get("metrics") else { panic!("metrics object") };
            let want = if trace { PER_LAYER.len() } else { END_TO_END.len() };
            assert_eq!(m.len(), want);
        }
    }

    #[test]
    fn derived_seeds_differ_per_stream() {
        assert_ne!(derive_seed(1, 0), derive_seed(1, 1));
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
        assert_eq!(derive_seed(5, 3), derive_seed(5, 3));
    }
}
