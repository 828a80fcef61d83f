//! The service workload: a client in a closed loop driving an in-process
//! job daemon through its public `Daemon`/`Client` API.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{by_name, FlowConfig, FlowName, FlowResult};
use dualphase_als::error::{paper_thresholds, MetricKind};
use dualphase_als::obs::json::Json;
use dualphase_als::serve::{
    CircuitSource, Client, Daemon, DaemonConfig, JobSpec, JobState, JobStatus,
};

use crate::layers::Layers;
use crate::oracle::{circuit_bytes, Instance, Reference};
use crate::{derive_seed, host, stats, timed_setup, Args, Metrics, Outcome, Quality};

/// Workload name as `BENCHMARK.json` lists it.
pub const NAME: &str = "serve_mixed";
/// Short DP jobs (about 0.02–0.3 s each), so the per-job fixed costs of
/// the service — persistence, journal appends, trace writes, connection
/// handling — carry much of the latency.
const CIRCUITS: [&str; 3] = ["c1908", "adder", "c880"];
const METRICS: [MetricKind; 3] = [MetricKind::Er, MetricKind::Med, MetricKind::Mse];
const PATTERNS: usize = 2048;
/// The daemon's runner threads. The load is one client in a closed loop
/// (it submits its next job only after the previous one ended), so each
/// job runs alone: with two clients and two runners on a 2-vCPU host,
/// concurrent jobs slowed each other by 30–50% depending on which two were
/// paired, and the medians moved by up to 14% between runs.
const RUNNERS: usize = 1;
/// Fewest jobs of a run, so the p90 latency has ten jobs beyond it.
const MIN_JOBS: usize = 100;
/// Set-ups per run (each starts a daemon and runs the nine references).
const SETUPS: usize = 3;

/// Everything a run needs before its load starts; shutting the daemon down
/// and removing its state directory happen on drop, on every path.
struct Setup {
    daemon: Option<Daemon>,
    dir: PathBuf,
    specs: Vec<Spec>,
}

impl Drop for Setup {
    fn drop(&mut self) {
        if let Some(d) = self.daemon.take() {
            let _ = d.shutdown();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One job kind: its input, and the direct run of the same input that
/// every job of this kind must reproduce byte for byte.
struct Spec {
    circuit: &'static str,
    inst: Instance,
    reference: Option<(FlowResult, String)>,
    reference_s: f64,
}

impl Spec {
    fn job(&self) -> JobSpec {
        let mut job = JobSpec::new(
            "perfbench",
            FlowName::Dp,
            self.inst.cfg.metric,
            self.inst.cfg.error_bound,
            CircuitSource::Benchmark {
                name: self.circuit.to_string(),
                scale: BenchmarkScale::Reduced,
            },
        );
        job.patterns = Some(PATTERNS);
        job.threads = Some(1);
        job
    }
}

fn setup(seed: u64, dir: &Path) -> Result<Setup, String> {
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(DaemonConfig { runners: RUNNERS, ..DaemonConfig::new(dir) })
        .map_err(|e| format!("starting the daemon in {}: {e}", dir.display()))?;
    let mut setup = Setup { daemon: Some(daemon), dir: dir.to_path_buf(), specs: Vec::new() };
    for (c, &circuit) in CIRCUITS.iter().enumerate() {
        let original = benchmark(circuit, BenchmarkScale::Reduced);
        let exact = Reference::exhaustive(&original).map(Arc::new);
        for (m, &metric) in METRICS.iter().enumerate() {
            let k = (c * METRICS.len() + m) as u64;
            let bound = paper_thresholds(metric, original.num_outputs())[1];
            // The configuration the daemon derives from the job spec. Jobs
            // leave the seed to the engine's default, as `als job submit`
            // does unless told otherwise: the run's seed draws the traffic
            // (which jobs, in which order), not the jobs' pattern sets.
            let cfg = FlowConfig::new(metric, bound).with_patterns(PATTERNS).with_threads(1);
            let label = format!("{circuit}/{}", metric.token());
            let holdout_seed = derive_seed(seed, 100 + k);
            let inst = Instance::new(label, original.clone(), cfg, holdout_seed, exact.clone());
            let start = Instant::now();
            let run = by_name(FlowName::Dp, inst.cfg.clone()).and_then(|f| f.run(&inst.original));
            let reference_s = start.elapsed().as_secs_f64();
            let reference = match run {
                Ok(r) => match inst.check(&r.circuit, r.final_error) {
                    Ok(()) => {
                        let bytes = circuit_bytes(&r.circuit);
                        Some((r, bytes))
                    }
                    Err(e) => {
                        eprintln!("perfbench: oracle: reference {e}");
                        None
                    }
                },
                Err(e) => {
                    eprintln!("perfbench: reference {}: {e}", inst.label);
                    None
                }
            };
            setup.specs.push(Spec { circuit, inst, reference, reference_s });
        }
    }
    Ok(setup)
}

/// The job order: consecutive blocks holding every spec once, each block
/// shuffled from the seed, so every run sees the same mix.
fn job_order(seed: u64, specs: usize, len: usize) -> Vec<usize> {
    let mut order = Vec::with_capacity(len + specs);
    let mut state = seed;
    while order.len() < len {
        let mut block: Vec<usize> = (0..specs).collect();
        for i in (1..block.len()).rev() {
            state = derive_seed(state, i as u64);
            block.swap(i, (state % (i as u64 + 1)) as usize);
        }
        order.extend(block);
    }
    order
}

/// One job as its client saw it.
struct Job {
    spec: usize,
    id: Option<String>,
    submit_s: f64,
    latency_s: f64,
    state: Option<JobState>,
}

/// Runs the closed loop until `seconds` have passed and at least
/// [`MIN_JOBS`] jobs ended.
fn load(client: &Client, specs: &[Spec], order: &[usize], seconds: f64) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < seconds {
        let spec = order[jobs.len() % order.len()];
        let t0 = Instant::now();
        let id = client.submit(&specs[spec].job());
        let submit_s = t0.elapsed().as_secs_f64();
        let state = match &id {
            Ok(id) => client.watch(id, |_| {}).ok(),
            Err(e) => {
                eprintln!("perfbench: submit: {}: {}", e.code, e.message);
                None
            }
        };
        let latency_s = t0.elapsed().as_secs_f64();
        jobs.push(Job { spec, id: id.ok(), submit_s, latency_s, state });
    }
    (jobs, start.elapsed().as_secs_f64())
}

/// Checks one finished job against its spec's reference; returns the run
/// time the daemon reported when it passed.
fn verify(
    statuses: &BTreeMap<String, JobStatus>,
    job_dir: &Path,
    spec: &Spec,
    job: &Job,
) -> Result<f64, String> {
    let id = job.id.as_deref().ok_or("not admitted")?;
    if job.state != Some(JobState::Completed) {
        return Err(format!("{id}: ended {:?}", job.state));
    }
    let status = statuses.get(id).cloned().ok_or_else(|| format!("{id}: unknown to the daemon"))?;
    if status.state != JobState::Completed {
        return Err(format!("{id}: status {}", status.state.token()));
    }
    let (reference, bytes) = spec.reference.as_ref().ok_or("no valid reference")?;
    let result = status.result.ok_or_else(|| format!("{id}: no result document"))?;
    let error = result.get("final_error").and_then(Json::as_f64);
    if error.map(f64::to_bits) != Some(reference.final_error.to_bits()) {
        return Err(format!("{id}: final_error {error:?} != reference {}", reference.final_error));
    }
    let stored = std::fs::read_to_string(job_dir.join("result.aag"))
        .map_err(|e| format!("{id}: reading result.aag: {e}"))?;
    if stored != *bytes {
        return Err(format!("{id}: stored circuit differs from the direct run"));
    }
    let runtime_us =
        result.get("runtime_us").and_then(Json::as_u64).ok_or("result without runtime_us")?;
    Ok(runtime_us as f64 / 1e6)
}

/// Folds a finished job's persisted artefacts into the per-layer numbers.
fn add_job_files(layers: &mut Layers, dir: &Path) -> Option<f64> {
    let size = |name: &str| std::fs::metadata(dir.join(name)).map_or(0, |m| m.len()) as f64;
    layers.journal_bytes += size("run.alsj");
    layers.trace_bytes += size("trace.jsonl");
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            let name = e.file_name();
            if name != "run.alsj" && name != "trace.jsonl" {
                layers.state_bytes += e.metadata().map_or(0, |m| m.len()) as f64;
            }
        }
    }
    if let Ok(text) = std::fs::read_to_string(dir.join("trace.jsonl")) {
        text.lines().for_each(|l| layers.add_span_line(l));
    }
    if let Ok(text) = std::fs::read_to_string(dir.join("metrics.prom")) {
        layers.add_prom(&text);
    }
    // Queue wait: from the submit-time spec write to the creation of the
    // run's trace file (filesystem clock; unavailable without birth times).
    let submitted = std::fs::metadata(dir.join("spec.json")).and_then(|m| m.modified()).ok()?;
    let started = std::fs::metadata(dir.join("trace.jsonl")).and_then(|m| m.created()).ok()?;
    Some(started.duration_since(submitted).map_or(0.0, |d| d.as_secs_f64()))
}

/// Runs the service workload; daemon state lives under
/// `.perfbench_state/` in the working directory and is removed afterwards.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let base = PathBuf::from(".perfbench_state");
    let root = base.join(std::process::id().to_string());
    let out = run_in(&root, args);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&base);
    out
}

fn run_in(root: &Path, args: &Args) -> Result<Outcome, String> {
    let mut n = 0;
    let (setup_times, setup) = timed_setup(SETUPS, || {
        n += 1;
        setup(args.seed, &root.join(format!("setup{n}")))
    })?;
    let daemon = setup.daemon.as_ref().expect("daemon runs until drop");
    let client = Client::new(daemon.addr().to_string());
    let jobs_dir = daemon.state_dir().join("jobs");
    let order = job_order(args.seed, setup.specs.len(), 2000);
    let (jobs, load_wall) = load(&client, &setup.specs, &order, args.seconds);
    let peak_rss_mb = host::peak_rss_mb();

    let mut failed = 0u64;
    let mut run_s = Vec::new();
    let mut layers = Layers::default();
    let mut queue_wait_known = true;
    let statuses: BTreeMap<String, JobStatus> =
        daemon.jobs().into_iter().map(|s| (s.id.clone(), s)).collect();
    for job in &jobs {
        let dir = jobs_dir.join(job.id.as_deref().unwrap_or("-"));
        let spec = &setup.specs[job.spec];
        match verify(&statuses, &dir, spec, job) {
            Ok(r) => {
                run_s.push(r);
                if args.trace {
                    match add_job_files(&mut layers, &dir) {
                        Some(w) => layers.queue_wait_s += w,
                        None => queue_wait_known = false,
                    }
                    let (reference, _) = spec.reference.as_ref().expect("verified");
                    layers.add_result(reference);
                    layers.ops += 1;
                    layers.wall_s += r;
                    layers.untraced_wall_s += spec.reference_s;
                    layers.sim_setup_s += spec.inst.sim_setup_s;
                    layers.submit_s += job.submit_s;
                    layers.run_s += r;
                    layers.overhead_s += job.latency_s - r;
                }
            }
            Err(e) => {
                eprintln!("perfbench: oracle: {}: {e}", spec.inst.label);
                failed += 1;
            }
        }
    }
    let completed = run_s.len();

    // Quality of every spec that ran; the oracle made each job's circuit
    // equal to its spec's reference.
    let quality: Vec<Option<Quality>> = (0..setup.specs.len())
        .map(|i| {
            let spec = &setup.specs[i];
            let ran = jobs.iter().any(|j| j.spec == i);
            spec.reference.as_ref().filter(|_| ran).map(|(r, _)| spec.inst.quality(&r.circuit))
        })
        .collect();
    let latencies: Vec<f64> = jobs.iter().map(|j| j.latency_s).collect();
    let (tail_label, tail) = stats::tail(&latencies);
    let mut metrics = Metrics::new();
    metrics.insert("setup_s", stats::median(&setup_times));
    metrics.insert("peak_rss_mb", peak_rss_mb);
    metrics.insert("synth_s_p50", stats::median(&run_s));
    metrics.insert("job_latency_p50_s", stats::median(&latencies));
    metrics.insert("job_latency_tail_s", tail);
    metrics.insert("jobs_per_s", completed as f64 / load_wall);
    crate::quality_metrics(&quality.iter().flatten().collect::<Vec<_>>(), &mut metrics);
    if args.trace {
        layers.write(&mut metrics);
    }

    let report = Json::obj()
        .with(
            "specs",
            Json::Arr(
                setup
                    .specs
                    .iter()
                    .zip(&quality)
                    .enumerate()
                    .map(|(i, (s, q))| {
                        Json::obj()
                            .with("label", s.inst.label.as_str())
                            .with("flow_seed", s.inst.cfg.seed)
                            .with("holdout_seed", s.inst.holdout_seed)
                            .with("jobs", jobs.iter().filter(|j| j.spec == i).count())
                            .with("reference_s", s.reference_s)
                            .with(
                                "job_latency_p50_s",
                                stats::median(
                                    &jobs
                                        .iter()
                                        .filter(|j| j.spec == i)
                                        .map(|j| j.latency_s)
                                        .collect::<Vec<_>>(),
                                ),
                            )
                            .with("quality", q.as_ref().map(Quality::to_json))
                    })
                    .collect(),
            ),
        )
        .with("clients", 1u64)
        .with("runners", RUNNERS)
        .with("load_wall_s", load_wall)
        .with("jobs", jobs.len())
        .with("completed", completed)
        .with(
            "job_latency_tail",
            Json::obj().with("percentile", tail_label).with("samples", latencies.len()),
        )
        .with(
            "traced",
            if args.trace {
                layers.consistency_json().with("queue_wait_measured", queue_wait_known)
            } else {
                Json::Null
            },
        );
    Ok(Outcome { attempted: jobs.len() as u64, failed, metrics, report })
}
