//! The direct workloads: one flow on one circuit, called in-process
//! through `flows::by_name(..).run(..)`.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use dualphase_als::aig::Aig;
use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{by_name, FlowConfig, FlowName, FlowResult};
use dualphase_als::error::{paper_thresholds, MetricKind};
use dualphase_als::obs::json::Json;
use dualphase_als::obs::{Obs, ObsConfig, SpanListener};

use crate::layers::Layers;
use crate::oracle::{circuit_bytes, Instance, Reference};
use crate::{derive_seed, host, stats, timed_setup, Args, Metrics, Outcome, Quality};

/// One direct workload.
pub struct Workload {
    /// Workload name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    flow: FlowName,
    circuit: &'static str,
    metric: MetricKind,
    threads: usize,
}

/// DP on sm9x8: phase 2 (incremental cuts, partial CPM, the guard's spot
/// checks) dominates; the pool, the journal and the service are bypassed.
/// sm9x8 has 17 inputs, so its error is also computed exhaustively.
pub const DP_SM9X8: Workload = Workload {
    name: "dp_sm9x8",
    flow: FlowName::Dp,
    circuit: "sm9x8",
    metric: MetricKind::Med,
    threads: 1,
};

/// The conventional flow on mult16 at two threads: every LAC pays a full
/// analysis, so the eval kernels and the pool's fan-out dominate and
/// phase 2 never runs.
pub const CONV_MULT16_T2: Workload = Workload {
    name: "conv_mult16_t2",
    flow: FlowName::Conventional,
    circuit: "mult16",
    metric: MetricKind::Med,
    threads: 2,
};

/// Monte-Carlo patterns per run.
const PATTERNS: usize = 2048;
/// Seeded inputs per run; operations cycle through them. The medians mix
/// both inputs, which halves the run-to-run spread that one input's
/// trajectory would give.
const INSTANCES: u64 = 2;
/// Fewest timed operations of an untraced run: every input twice, so the
/// oracle can compare repetitions.
const MIN_OPS: usize = 2 * INSTANCES as usize;
/// Set-ups before each operation. The inputs and references are set up
/// afresh before every operation, so the set-up samples, like the
/// operations, spread over the whole run instead of one noisy moment.
const SETUPS: usize = 3;

fn setup(w: &Workload, seed: u64) -> Result<Vec<Instance>, String> {
    let original = benchmark(w.circuit, BenchmarkScale::Reduced);
    let bound = paper_thresholds(w.metric, original.num_outputs())[1];
    let exact = Reference::exhaustive(&original).map(Arc::new);
    (0..INSTANCES)
        .map(|k| {
            let cfg = FlowConfig::builder(w.metric, bound)
                .patterns(PATTERNS)
                .seed(derive_seed(seed, k))
                .threads(w.threads)
                .build()
                .map_err(|e| e.to_string())?;
            let label = format!("{}/{}#{k}", w.circuit, w.metric.token());
            let holdout_seed = derive_seed(seed, 100 + k);
            Ok(Instance::new(label, original.clone(), cfg, holdout_seed, exact.clone()))
        })
        .collect()
}

/// One timed `Flow::run`, checked by the oracle.
struct Op {
    /// `by_name` plus `run`, as the caller waits for it.
    latency_s: f64,
    /// `run` alone.
    synth_s: f64,
    result: Option<FlowResult>,
}

fn run_op(w: &Workload, inst: &Instance, cfg: FlowConfig) -> Op {
    let start = Instant::now();
    let result = by_name(w.flow, cfg).and_then(|flow| {
        let run = Instant::now();
        flow.run(&inst.original).map(|r| (r, run.elapsed()))
    });
    let latency_s = start.elapsed().as_secs_f64();
    match result {
        Ok((r, synth)) => Op { latency_s, synth_s: synth.as_secs_f64(), result: Some(r) },
        Err(e) => {
            eprintln!("perfbench: {}: {e}", inst.label);
            Op { latency_s, synth_s: latency_s, result: None }
        }
    }
}

/// Checks an operation's result, and its bytes against `first`, the
/// instance's first result (recorded here); returns whether it passed.
fn verify(inst: &Instance, first: &mut Option<Aig>, op: &Op) -> bool {
    let Some(res) = &op.result else { return false };
    if let Err(e) = inst.check(&res.circuit, res.final_error) {
        eprintln!("perfbench: oracle: {e}");
        return false;
    }
    match first {
        Some(f) if circuit_bytes(f) != circuit_bytes(&res.circuit) => {
            eprintln!("perfbench: oracle: {}: output differs between repetitions", inst.label);
            false
        }
        Some(_) => true,
        None => {
            *first = Some(res.circuit.clone());
            true
        }
    }
}

/// Runs a direct workload.
pub fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let mut setup_times = Vec::new();
    let mut set_up = || -> Result<Vec<Instance>, String> {
        let (times, instances) = timed_setup(SETUPS, || setup(w, args.seed))?;
        setup_times.extend(times);
        Ok(instances)
    };
    let mut instances = set_up()?;
    let mut first: Vec<Option<Aig>> = vec![None; instances.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ops: Vec<Op> = Vec::new();
    let mut layers = Layers::default();
    let start = Instant::now();

    if !args.trace {
        while ops.len() < MIN_OPS || start.elapsed().as_secs_f64() < args.seconds {
            if !ops.is_empty() {
                instances = set_up()?;
            }
            let k = ops.len() % instances.len();
            let op = run_op(w, &instances[k], instances[k].cfg.clone());
            attempted += 1;
            failed += u64::from(!verify(&instances[k], &mut first[k], &op));
            ops.push(op);
        }
    } else {
        // Every other instance runs once untraced, for its quality; the
        // first alternates untraced and traced runs until the time is up,
        // so the pairs give the tracing overhead. All repetitions of an
        // instance must give the same bytes.
        for k in 1..instances.len() {
            let op = run_op(w, &instances[k], instances[k].cfg.clone());
            attempted += 1;
            failed += u64::from(!verify(&instances[k], &mut first[k], &op));
        }
        let traced_start = Instant::now();
        while layers.ops == 0 || traced_start.elapsed().as_secs_f64() < args.seconds {
            let untraced = run_op(w, &instances[0], instances[0].cfg.clone());
            attempted += 1;
            failed += u64::from(!verify(&instances[0], &mut first[0], &untraced));
            let lines = Arc::new(Mutex::new(Vec::<String>::new()));
            let sink = lines.clone();
            let listener: SpanListener = Arc::new(move |line: &str| {
                sink.lock().expect("span sink poisoned").push(line.to_string());
            });
            let obs = Obs::with_listener(ObsConfig::default(), Some(listener))
                .map_err(|e| format!("creating the trace handle: {e}"))?;
            let op = run_op(w, &instances[0], instances[0].cfg.clone().with_obs(obs.clone()));
            attempted += 1;
            failed += u64::from(!verify(&instances[0], &mut first[0], &op));
            for line in lines.lock().expect("span sink poisoned").iter() {
                layers.add_span_line(line);
            }
            layers.add_prom(&obs.prometheus_text());
            if let Some(res) = &op.result {
                layers.add_result(res);
            }
            layers.ops += 1;
            layers.wall_s += op.latency_s;
            layers.untraced_wall_s += untraced.latency_s;
            layers.sim_setup_s += instances[0].sim_setup_s;
        }
    }
    let peak_rss_mb = host::peak_rss_mb();

    let quality: Vec<(&Instance, Quality)> = instances
        .iter()
        .zip(&first)
        .filter_map(|(inst, f)| f.as_ref().map(|c| (inst, inst.quality(c))))
        .collect();
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_times));
    metrics.insert("peak_rss_mb", peak_rss_mb);
    crate::quality_metrics(&quality.iter().map(|(_, q)| q).collect::<Vec<_>>(), &mut metrics);
    let mut report = Json::obj()
        .with("flow", w.flow.token())
        .with("threads", w.threads)
        .with("patterns", PATTERNS)
        .with(
            "instances",
            Json::Arr(
                quality
                    .iter()
                    .map(|(inst, q)| {
                        Json::obj()
                            .with("label", inst.label.as_str())
                            .with("flow_seed", inst.cfg.seed)
                            .with("holdout_seed", inst.holdout_seed)
                            .with("quality", q.to_json())
                    })
                    .collect(),
            ),
        );
    if args.trace {
        layers.write(&mut metrics);
        report.set("traced", layers.consistency_json());
    } else {
        let latencies: Vec<f64> = ops.iter().map(|o| o.latency_s).collect();
        let synth: Vec<f64> = ops.iter().map(|o| o.synth_s).collect();
        let (tail_label, tail) = stats::tail(&latencies);
        metrics.insert("synth_s_p50", stats::median(&synth));
        metrics.insert("job_latency_p50_s", stats::median(&latencies));
        metrics.insert("job_latency_tail_s", tail);
        metrics.insert("jobs_per_s", ops.len() as f64 / latencies.iter().sum::<f64>());
        report.set("op_latency_s", Json::Arr(latencies.into_iter().map(Json::Num).collect()));
        report.set(
            "job_latency_tail",
            Json::obj().with("percentile", tail_label).with("samples", ops.len()),
        );
    }
    Ok(Outcome { attempted, failed, metrics, report })
}
