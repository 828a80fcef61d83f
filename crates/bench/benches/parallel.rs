//! Serial-vs-parallel comparison of the pooled analysis steps on the shared
//! worker pool, emitting machine-readable speedups to `BENCH_parallel.json`.
//!
//! The steps are the full CPM ([`als_cpm::compute_full_with`], analysis
//! step 2) and the bit-parallel simulation ([`Simulator::new_with`]); the
//! disjoint cuts of step 1 are filled sequentially by construction
//! ([`CutState::compute`]) and only feed the CPM here. Each step is timed
//! with a 1-thread pool and with an N-thread pool (`ALS_BENCH_THREADS`,
//! default 4) and the parallel result is asserted bit-identical to the
//! serial one before any number is reported.
//!
//! The N-thread pool runs under the adaptive scheduler with an attached
//! metrics registry, so the report also records how the cost model decided
//! each region (parallel / serial / floor), how many chunks were stolen,
//! and the mean predicted-vs-actual error of the regions that fanned out —
//! the evidence that a regression (or a host too small to parallelize on)
//! is a scheduling decision, not silent overhead.
//!
//! Like the criterion-shim benches, the binary is inert without the
//! `--bench` argument `cargo bench` passes, so `cargo test` treats it as a
//! no-op. The output path defaults to `<repo root>/BENCH_parallel.json` and
//! can be overridden with `ALS_BENCH_OUT`.

use std::time::Instant;

use als_circuits::{benchmark, BenchmarkScale};
use als_cpm::compute_full_with;
use als_cuts::CutState;
use als_obs::{Obs, ObsConfig};
use als_par::{SchedConfig, WorkerPool};
use als_sim::{PatternSet, Simulator};

const PATTERN_WORDS: usize = 32; // 2048 Monte-Carlo patterns
const RUNS: usize = 7;

/// Best-of-`RUNS` wall time of `f` in milliseconds (after one warmup).
/// Sub-millisecond steps repeat until ~2ms of samples accumulate so a
/// single clock-granularity blip cannot skew the reported best.
fn time_ms<R>(mut f: impl FnMut() -> R) -> (R, f64) {
    let result = f(); // warmup; also the value handed back for checking
    let mut best = f64::INFINITY;
    let mut spent = 0.0;
    let mut runs = 0;
    while runs < RUNS || (spent < 2.0 && runs < 64) {
        let t0 = Instant::now();
        std::hint::black_box(f());
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        best = best.min(ms);
        spent += ms;
        runs += 1;
    }
    (result, best)
}

struct StepRow {
    step: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
}

impl StepRow {
    fn speedup(&self) -> f64 {
        self.serial_ms / self.parallel_ms.max(1e-9)
    }

    fn json(&self) -> String {
        format!(
            "{{\"step\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
             \"speedup\": {:.3}}}",
            self.step,
            self.serial_ms,
            self.parallel_ms,
            self.speedup()
        )
    }
}

fn main() {
    if !std::env::args().any(|a| a == "--bench") {
        return; // `cargo test` runs bench binaries without --bench
    }
    let threads: usize = std::env::var("ALS_BENCH_THREADS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&t| t >= 2)
        .unwrap_or(4);
    let host_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let serial = WorkerPool::new(1);
    // The parallel pool honours ALS_SCHED (adaptive by default) and feeds
    // its cutover decisions into a private registry read back at the end.
    let obs = Obs::new(ObsConfig::default()).expect("in-memory metrics registry");
    let pool = WorkerPool::with_config(threads, SchedConfig::from_env()).with_obs(&obs);

    let mut circuit_rows: Vec<String> = Vec::new();
    let mut cpm_speedups = Vec::new();
    for name in ["sm9x8", "mult16", "adder"] {
        let aig = benchmark(name, BenchmarkScale::Reduced);
        let patterns = PatternSet::random(aig.num_inputs(), PATTERN_WORDS, 0xA15);

        // Simulation first: the CPM consumes the simulator.
        let (sim, sim_serial_ms) = time_ms(|| Simulator::new_with(&aig, &patterns, &serial));
        let (psim, sim_parallel_ms) = time_ms(|| Simulator::new_with(&aig, &patterns, &pool));
        for id in aig.iter_live() {
            assert_eq!(sim.value(id), psim.value(id), "{name}: sim diverged at {id}");
        }

        // Full CPM over the (serially filled) disjoint cuts.
        let cuts = CutState::compute(&aig);
        let (cpm, cpm_serial_ms) =
            time_ms(|| compute_full_with(&aig, &sim, &cuts, &serial).unwrap());
        let (pcpm, cpm_parallel_ms) =
            time_ms(|| compute_full_with(&aig, &sim, &cuts, &pool).unwrap());
        for id in aig.iter_live() {
            assert_eq!(cpm.row(id), pcpm.row(id), "{name}: CPM diverged at {id}");
        }

        let steps = [
            StepRow { step: "cpm", serial_ms: cpm_serial_ms, parallel_ms: cpm_parallel_ms },
            StepRow { step: "sim", serial_ms: sim_serial_ms, parallel_ms: sim_parallel_ms },
        ];
        cpm_speedups.push(steps[0].speedup());
        for s in &steps {
            println!(
                "bench: parallel/{name}/{:<4} serial {:>9.3} ms  x{threads} {:>9.3} ms  \
                 speedup {:>5.2}",
                s.step,
                s.serial_ms,
                s.parallel_ms,
                s.speedup()
            );
        }
        let steps_json: Vec<String> = steps.iter().map(StepRow::json).collect();
        circuit_rows.push(format!(
            "    {{\"name\": \"{name}\", \"gates\": {}, \"steps\": [\n      {}\n    ]}}",
            aig.num_ands(),
            steps_json.join(",\n      ")
        ));
    }

    let geomean =
        (cpm_speedups.iter().map(|s| s.ln()).sum::<f64>() / cpm_speedups.len() as f64).exp();
    let cutover_parallel = obs.counter("als_sched_cutover_parallel_total", "").get();
    let cutover_serial = obs.counter("als_sched_cutover_serial_total", "").get();
    let cutover_floor = obs.counter("als_sched_cutover_floor_total", "").get();
    let steals = obs.counter("als_sched_steals_total", "").get();
    let pred_err = obs.histogram("als_sched_pred_err_pct", "");
    let mean_pred_err = if pred_err.count() > 0 {
        format!("{:.1}", pred_err.sum() as f64 / pred_err.count() as f64)
    } else {
        "null".to_string()
    };
    println!(
        "bench: sched decisions parallel {cutover_parallel} serial {cutover_serial} \
         floor {cutover_floor} | steals {steals} | mean pred err {mean_pred_err}%"
    );
    let note = if host_threads < threads {
        format!(
            "\n  \"note\": \"host exposes only {host_threads} hardware thread(s); \
             a {threads}-thread pool cannot speed up on this machine and the numbers \
             measure scheduling overhead, not parallel scaling\",",
        )
    } else {
        String::new()
    };
    let json = format!(
        "{{\n  \"threads\": {threads},\n  \"host_threads\": {host_threads},{note}\n  \
         \"pattern_words\": {PATTERN_WORDS},\n  \"geomean_speedup_cpm\": {geomean:.3},\n  \
         \"sched\": {{\n    \"cutover_parallel\": {cutover_parallel},\n    \
         \"cutover_serial\": {cutover_serial},\n    \"cutover_floor\": {cutover_floor},\n    \
         \"steals\": {steals},\n    \"mean_pred_err_pct\": {mean_pred_err}\n  }},\n  \
         \"circuits\": [\n{}\n  ]\n}}\n",
        circuit_rows.join(",\n")
    );
    let out = std::env::var("ALS_BENCH_OUT")
        .unwrap_or_else(|_| format!("{}/../../BENCH_parallel.json", env!("CARGO_MANIFEST_DIR")));
    std::fs::write(&out, &json).expect("write BENCH_parallel.json");
    println!("bench: parallel geomean speedup (cpm) {geomean:.2} -> {out}");
}
