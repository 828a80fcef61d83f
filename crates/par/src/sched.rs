//! Adaptive serial/parallel scheduling for [`WorkerPool`](crate::WorkerPool)
//! regions.
//!
//! The fixed-grain pool split every map into `threads` equal chunks and
//! fanned out whenever `len >= 4 * threads`. On real circuits that *costs*
//! time: a simulation wave of a few hundred ~100ns gates finishes long
//! before the spawn cost of even one scoped thread is paid back. This
//! module replaces the fixed threshold with a measured model:
//!
//! * **Calibration** — a one-time probe times empty scoped spawns and reads
//!   the hardware thread count. It runs once per process (`OnceLock`) and
//!   can be overridden with a fixed [`Calibration`] for deterministic
//!   tests.
//! * **Per-region cost model** — every call site names a region
//!   (`"sim_wave"`, `"cpm_wave"`, `"eval"`, …). The scheduler keeps an
//!   estimated cost in nanoseconds per *unit* (item × weight, where the
//!   weight carries a known scale factor such as the simulation word
//!   count), seeded per region and learned online from span timings with
//!   an exponential moving average.
//! * **Cutover** — a region runs parallel only when its predicted serial
//!   time exceeds the predicted parallel time (spawn cost × workers +
//!   serial ÷ workers) by a safety margin. Sub-threshold regions run
//!   inline with zero pool traffic; a hard minimum-items guard and a
//!   minimum-serial-time floor keep sub-millisecond regions serial no
//!   matter what the model says.
//! * **Level-scaled chunking** — parallel regions are split into chunks
//!   sized so each carries roughly `chunk_target_us` of predicted work
//!   (bounded to `[workers, 8 × workers]` chunks), instead of `len /
//!   threads`. More chunks than workers is what makes whole-chunk stealing
//!   (see `crate::WorkerPool`) able to rebalance stragglers.
//!
//! Scheduling decisions never affect result bytes — only which thread
//! computes them and in what grouping — so the pool's determinism
//! guarantee (chunk-ordered joins) is preserved under every mode, model
//! state and steal schedule.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// How the pool decides between serial and parallel execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedMode {
    /// Cost-model-driven cutover with level-scaled chunks and stealing.
    #[default]
    Adaptive,
    /// The legacy fixed-grain policy: parallel iff `len >= 4 * threads`,
    /// `len / threads` equal chunks, no stealing, no timing.
    Off,
    /// Every region runs on the caller's thread regardless of size.
    Serial,
    /// Every region with ≥ 2 items fans out (testing aid: exercises the
    /// parallel path and stealing even where the model would cut to
    /// serial, e.g. on a single-core host).
    Force,
}

/// Spawn-cost and hardware facts the cutover model needs. Obtained once
/// per process by [`Calibration::probe`], or injected for deterministic
/// tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Calibration {
    /// Measured cost of spawning + joining one scoped thread, nanoseconds.
    pub spawn_ns: u64,
    /// Hardware threads available to the process.
    pub hw_threads: usize,
}

impl Calibration {
    /// Probes the host once per process: times a few empty
    /// `thread::scope` fan-outs (best of four, so a descheduled probe
    /// doesn't poison the estimate) and reads `available_parallelism`.
    pub fn probe() -> Calibration {
        static PROBE: OnceLock<Calibration> = OnceLock::new();
        *PROBE.get_or_init(|| {
            let hw_threads = std::thread::available_parallelism().map_or(1, |n| n.get());
            let workers = hw_threads.clamp(2, 4);
            let mut best = u64::MAX;
            for _ in 0..4 {
                let t0 = Instant::now();
                std::thread::scope(|scope| {
                    for _ in 0..workers {
                        scope.spawn(|| {});
                    }
                });
                best = best.min(t0.elapsed().as_nanos().try_into().unwrap_or(u64::MAX));
            }
            // Clamp below: a suspiciously fast probe (vDSO-less coarse
            // clock) must not make the model think spawns are free.
            Calibration { spawn_ns: (best / workers as u64).max(1_000), hw_threads }
        })
    }
}

/// Tuning knobs for the adaptive scheduler. Constructed from the
/// `ALS_SCHED` environment variable by [`SchedConfig::from_env`] (the
/// default used by `WorkerPool::new`), or explicitly for tests and
/// embedders via `FlowConfig`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SchedConfig {
    /// Decision policy.
    pub mode: SchedMode,
    /// Regions below this many items never fan out (hard guard, applied
    /// before the model runs).
    pub min_items: usize,
    /// Regions whose predicted serial time is below this floor never fan
    /// out (keeps sub-millisecond regions — the 30× sim regression — on
    /// the caller's thread).
    pub min_serial_us: u64,
    /// Target predicted work per chunk; smaller values mean more chunks
    /// and finer stealing granularity.
    pub chunk_target_us: u64,
    /// Whether idle workers steal whole chunks from stragglers.
    pub steal: bool,
    /// Fixed calibration, bypassing the one-time probe. `None` (the
    /// default) probes lazily on first use.
    pub calibration: Option<Calibration>,
}

impl Default for SchedConfig {
    fn default() -> SchedConfig {
        SchedConfig {
            mode: SchedMode::Adaptive,
            min_items: 16,
            min_serial_us: 200,
            chunk_target_us: 100,
            steal: true,
            calibration: None,
        }
    }
}

impl SchedConfig {
    /// Reads the `ALS_SCHED` environment variable. The value is a
    /// comma-separated token list; unknown tokens are ignored so stale
    /// environments cannot break a run:
    ///
    /// * `adaptive` / `on` — cost-model cutover (default)
    /// * `off` — legacy fixed-grain policy
    /// * `serial` — never fan out
    /// * `force` — always fan out (testing)
    /// * `steal=0|1`, `min_items=N`, `min_serial_us=N`, `chunk_us=N`
    pub fn from_env() -> SchedConfig {
        match std::env::var("ALS_SCHED") {
            Ok(v) => SchedConfig::parse(&v),
            Err(_) => SchedConfig::default(),
        }
    }

    /// Parses an `ALS_SCHED`-style token list (see [`SchedConfig::from_env`]).
    pub fn parse(spec: &str) -> SchedConfig {
        let mut cfg = SchedConfig::default();
        for token in spec.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            match token.split_once('=') {
                None => match token {
                    "adaptive" | "on" => cfg.mode = SchedMode::Adaptive,
                    "off" => cfg.mode = SchedMode::Off,
                    "serial" => cfg.mode = SchedMode::Serial,
                    "force" => cfg.mode = SchedMode::Force,
                    _ => {}
                },
                Some((key, val)) => match (key.trim(), val.trim()) {
                    ("steal", v) => cfg.steal = v != "0",
                    ("min_items", v) => {
                        if let Ok(n) = v.parse() {
                            cfg.min_items = n;
                        }
                    }
                    ("min_serial_us", v) => {
                        if let Ok(n) = v.parse() {
                            cfg.min_serial_us = n;
                        }
                    }
                    ("chunk_us", v) => {
                        if let Ok(n) = v.parse() {
                            cfg.chunk_target_us = n;
                        }
                    }
                    _ => {}
                },
            }
        }
        cfg
    }

    /// The legacy fixed-grain policy (`ALS_SCHED=off`).
    pub fn legacy() -> SchedConfig {
        SchedConfig { mode: SchedMode::Off, ..SchedConfig::default() }
    }

    /// Always fan out (`ALS_SCHED=force`), stealing enabled. Used by tests
    /// that must exercise the parallel path regardless of host parallelism.
    pub fn forced() -> SchedConfig {
        SchedConfig { mode: SchedMode::Force, ..SchedConfig::default() }
    }

    /// Adaptive mode with a fixed calibration — fully deterministic
    /// decisions given identical observation sequences.
    pub fn with_calibration(cal: Calibration) -> SchedConfig {
        SchedConfig { calibration: Some(cal), ..SchedConfig::default() }
    }
}

/// The outcome of one cutover decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Fan out across workers.
    Parallel,
    /// The model predicts serial is faster (or the pool is serial).
    Serial,
    /// A hard guard (min items / min serial time) kept the region inline
    /// before the model was consulted.
    Floor,
}

impl Decision {
    /// Whether the region fans out.
    pub fn is_parallel(self) -> bool {
        self == Decision::Parallel
    }
}

/// Online cost estimate for one named region: nanoseconds per unit
/// (item × weight), seeded per region name and refined by an EMA over
/// observed span timings. Atomic so parallel regions can be observed
/// without locks; the f64 estimate is stored as its bit pattern.
#[derive(Debug)]
pub struct RegionCost {
    unit_ns_bits: AtomicU64,
    samples: AtomicU64,
}

impl RegionCost {
    fn new(seed_unit_ns: f64) -> RegionCost {
        RegionCost {
            unit_ns_bits: AtomicU64::new(seed_unit_ns.to_bits()),
            samples: AtomicU64::new(0),
        }
    }

    /// Current estimated cost of one unit (item × weight), nanoseconds.
    pub fn unit_ns(&self) -> f64 {
        f64::from_bits(self.unit_ns_bits.load(Ordering::Relaxed))
    }

    /// Number of timing observations folded into the estimate.
    pub fn samples(&self) -> u64 {
        self.samples.load(Ordering::Relaxed)
    }

    fn observe(&self, units: u64, elapsed: Duration) {
        if units == 0 {
            return;
        }
        let observed = elapsed.as_nanos() as f64 / units as f64;
        if !observed.is_finite() || observed <= 0.0 {
            return;
        }
        let n = self.samples.fetch_add(1, Ordering::Relaxed);
        let new = if n == 0 {
            // First measurement replaces the static seed outright.
            observed
        } else {
            let old = self.unit_ns();
            (3.0 * old + observed) / 4.0
        };
        self.unit_ns_bits.store(new.to_bits(), Ordering::Relaxed);
    }
}

/// Static per-region seeds, ns per unit. Only the order of magnitude
/// matters — the first real observation replaces the seed — but a sane
/// seed makes the very first decision of a run correct on typical hosts:
/// simulation gates are a handful of word-ops per pattern word, and CPM
/// rows and LAC evaluations stream whole arena rows.
fn seed_for(region: &str) -> f64 {
    match region {
        "sim" | "sim_wave" => 2.0,
        "cpm_wave" | "eval" => 100.0,
        _ => 1_000.0,
    }
}

/// The sizing of one parallel region: how many workers to spawn and how
/// many items each chunk carries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChunkPlan {
    /// Scoped threads to spawn (≤ pool budget, ≤ chunk count).
    pub workers: usize,
    /// Items per chunk; the last chunk may be short.
    pub chunk_len: usize,
    /// Total chunks (`ceil(len / chunk_len)`).
    pub chunks: usize,
}

/// Cost-model state shared by all regions of one [`WorkerPool`](crate::WorkerPool).
///
/// `decide` and `plan` are pure functions of the configuration, the
/// calibration and the observation history, which is what makes cutover
/// decisions reproducible: two schedulers constructed with the same
/// [`SchedConfig`] (fixed calibration) and fed the same observation
/// sequence return identical decisions for identical queries.
#[derive(Debug)]
pub struct Scheduler {
    cfg: SchedConfig,
    regions: Mutex<HashMap<&'static str, Arc<RegionCost>>>,
}

/// Safety margin: predicted serial time must beat predicted parallel time
/// by 15% before a region fans out, so model noise near the break-even
/// point resolves to the cheap (serial) side.
const CUTOVER_MARGIN_NUM: f64 = 1.15;

/// Upper bound on chunks per worker: enough slack for stealing to
/// rebalance stragglers without drowning in per-chunk overhead.
const MAX_CHUNKS_PER_WORKER: usize = 8;

/// Serial spans predicted shorter than this are not worth the two
/// `Instant` reads it takes to learn from them.
const LEARN_MIN_NS: f64 = 20_000.0;

impl Scheduler {
    pub fn new(cfg: SchedConfig) -> Scheduler {
        Scheduler { cfg, regions: Mutex::new(HashMap::new()) }
    }

    pub fn config(&self) -> &SchedConfig {
        &self.cfg
    }

    /// The calibration in effect: the configured fixture, or the one-time
    /// process-wide probe.
    pub fn calibration(&self) -> Calibration {
        self.cfg.calibration.unwrap_or_else(Calibration::probe)
    }

    /// The (lazily created) cost accumulator for a region.
    pub fn region(&self, name: &'static str) -> Arc<RegionCost> {
        let mut map = self.regions.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(map.entry(name).or_insert_with(|| Arc::new(RegionCost::new(seed_for(name)))))
    }

    /// Predicted serial time of a region, nanoseconds.
    pub fn predict_serial_ns(&self, region: &RegionCost, len: usize, weight: u64) -> f64 {
        (len as f64) * (weight.max(1) as f64) * region.unit_ns()
    }

    /// Predicted parallel time of a region over `workers` workers,
    /// nanoseconds (spawn cost plus the ideally-divided serial work).
    pub fn predict_parallel_ns(&self, serial_ns: f64, workers: usize) -> f64 {
        let cal = self.calibration();
        (cal.spawn_ns * workers as u64) as f64 + serial_ns / workers as f64
    }

    /// Serial-vs-parallel cutover for a region of `len` items with the
    /// given per-item weight, on a pool with `threads` budget.
    pub fn decide(&self, region: &RegionCost, len: usize, weight: u64, threads: usize) -> Decision {
        if threads <= 1 {
            return Decision::Serial;
        }
        match self.cfg.mode {
            SchedMode::Serial => Decision::Serial,
            SchedMode::Off => {
                // Legacy policy, bit-for-bit: `len >= 4 * threads`.
                if len >= 4 * threads {
                    Decision::Parallel
                } else {
                    Decision::Floor
                }
            }
            SchedMode::Force => {
                if len >= 2 {
                    Decision::Parallel
                } else {
                    Decision::Floor
                }
            }
            SchedMode::Adaptive => {
                if len < self.cfg.min_items {
                    return Decision::Floor;
                }
                let serial_ns = self.predict_serial_ns(region, len, weight);
                if serial_ns < (self.cfg.min_serial_us * 1_000) as f64 {
                    return Decision::Floor;
                }
                let workers = threads.min(self.calibration().hw_threads).min(len);
                if workers <= 1 {
                    return Decision::Serial;
                }
                if serial_ns > self.predict_parallel_ns(serial_ns, workers) * CUTOVER_MARGIN_NUM {
                    Decision::Parallel
                } else {
                    Decision::Serial
                }
            }
        }
    }

    /// Chunk sizing for a region that [`Scheduler::decide`]d to fan out.
    pub fn plan(&self, region: &RegionCost, len: usize, weight: u64, threads: usize) -> ChunkPlan {
        debug_assert!(len > 0);
        let chunks = match self.cfg.mode {
            SchedMode::Off => threads.min(len),
            SchedMode::Force => (threads * 4).min(len),
            SchedMode::Serial | SchedMode::Adaptive => {
                let workers = threads.min(self.calibration().hw_threads).min(len).max(1);
                if self.cfg.mode == SchedMode::Serial {
                    workers
                } else if self.cfg.steal {
                    let serial_ns = self.predict_serial_ns(region, len, weight);
                    let target = (self.cfg.chunk_target_us.max(1) * 1_000) as f64;
                    let by_cost = (serial_ns / target).ceil() as usize;
                    by_cost.clamp(workers, workers * MAX_CHUNKS_PER_WORKER).min(len)
                } else {
                    workers
                }
            }
        };
        let chunks = chunks.max(1);
        let chunk_len = len.div_ceil(chunks);
        let chunks = len.div_ceil(chunk_len);
        let workers = match self.cfg.mode {
            SchedMode::Off | SchedMode::Force => threads.min(chunks),
            SchedMode::Serial | SchedMode::Adaptive => {
                threads.min(self.calibration().hw_threads).min(chunks).max(1)
            }
        };
        ChunkPlan { workers, chunk_len, chunks }
    }

    /// Whether a serial span of this predicted size is worth timing for
    /// the model (the clock reads are ~2% of a 20µs span and shrink from
    /// there).
    pub fn should_learn_serial(&self, region: &RegionCost, len: usize, weight: u64) -> bool {
        self.cfg.mode == SchedMode::Adaptive
            && self.predict_serial_ns(region, len, weight) >= LEARN_MIN_NS
    }

    /// Folds an observed span into a region's cost estimate.
    pub fn observe(&self, region: &RegionCost, len: usize, weight: u64, elapsed: Duration) {
        if self.cfg.mode != SchedMode::Adaptive {
            return;
        }
        region.observe((len as u64).saturating_mul(weight.max(1)), elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed() -> Calibration {
        Calibration { spawn_ns: 20_000, hw_threads: 8 }
    }

    #[test]
    fn parse_round_trips_tokens() {
        let cfg = SchedConfig::parse("force,steal=0,min_items=3,min_serial_us=7,chunk_us=50");
        assert_eq!(cfg.mode, SchedMode::Force);
        assert!(!cfg.steal);
        assert_eq!(cfg.min_items, 3);
        assert_eq!(cfg.min_serial_us, 7);
        assert_eq!(cfg.chunk_target_us, 50);
        assert_eq!(SchedConfig::parse("off").mode, SchedMode::Off);
        assert_eq!(SchedConfig::parse("serial").mode, SchedMode::Serial);
        assert_eq!(SchedConfig::parse("on").mode, SchedMode::Adaptive);
        // Unknown tokens are ignored, not fatal.
        assert_eq!(SchedConfig::parse("bogus,mode=nope"), SchedConfig::default());
    }

    #[test]
    fn floor_guards_fire_before_the_model() {
        let s = Scheduler::new(SchedConfig::with_calibration(fixed()));
        let r = s.region("cpm_wave");
        assert_eq!(s.decide(&r, 15, 1, 8), Decision::Floor, "min_items");
        // 100 items x 1 word x 100ns seed = 10us < 200us floor.
        assert_eq!(s.decide(&r, 100, 1, 8), Decision::Floor, "min_serial_us");
        assert_eq!(s.decide(&r, 1_000_000, 64, 1), Decision::Serial, "serial pool");
    }

    #[test]
    fn model_cuts_over_when_serial_dominates_spawn_cost() {
        let s = Scheduler::new(SchedConfig::with_calibration(fixed()));
        let r = s.region("cpm_wave");
        // 10k items x 64 words x 100ns = 64ms serial; parallel over 8
        // workers ~ 8.16ms — clear win.
        assert_eq!(s.decide(&r, 10_000, 64, 8), Decision::Parallel);
        // After observing a much cheaper reality (0.5ns/unit), a mid-size
        // region cuts back to serial: 6.5k items x 64 words = 208us
        // serial, while parallel pays 160us of spawn for 26us of divided
        // work (186us, within the 15% margin of serial).
        s.observe(&r, 10_000, 64, Duration::from_micros(320));
        assert_eq!(r.unit_ns(), 0.5);
        assert_eq!(s.decide(&r, 6_500, 64, 8), Decision::Serial);
        // ...while the original heavy region stays parallel.
        assert_eq!(s.decide(&r, 10_000, 64, 8), Decision::Parallel);
    }

    #[test]
    fn chunks_scale_with_predicted_cost_not_thread_count() {
        let s = Scheduler::new(SchedConfig::with_calibration(fixed()));
        let r = s.region("cpm_wave");
        // 64ms of predicted work at chunk_target=100us wants 640 chunks,
        // clamped to workers * 8.
        let plan = s.plan(&r, 10_000, 64, 8);
        assert_eq!(plan.workers, 8);
        assert_eq!(plan.chunks, 64);
        // A small region still gets at least one chunk per worker.
        let small = s.plan(&r, 40, 1, 8);
        assert!(small.chunks >= small.workers);
        assert_eq!(small.chunk_len.checked_mul(small.chunks).map(|t| t >= 40), Some(true));
    }

    #[test]
    fn off_mode_reproduces_legacy_grain() {
        let s = Scheduler::new(SchedConfig::legacy());
        let r = s.region("anon");
        assert_eq!(s.decide(&r, 31, 1, 8), Decision::Floor);
        assert_eq!(s.decide(&r, 32, 1, 8), Decision::Parallel);
        let plan = s.plan(&r, 1000, 1, 4);
        assert_eq!((plan.workers, plan.chunk_len), (4, 250));
    }

    #[test]
    fn first_observation_replaces_seed_then_ema() {
        let r = RegionCost::new(1_000.0);
        r.observe(1_000, Duration::from_micros(10)); // 10ns/unit
        assert_eq!(r.unit_ns(), 10.0);
        r.observe(1_000, Duration::from_micros(50)); // 50ns/unit
        assert_eq!(r.unit_ns(), 20.0); // (3*10 + 50) / 4
        assert_eq!(r.samples(), 2);
    }
}
