//! Shared worker pool for the analysis hot path.
//!
//! CPM construction, LAC evaluation and simulation are embarrassingly
//! parallel over independent nodes once their read-only inputs
//! (simulation values, earlier CPM rows or logic levels) are fixed. (The
//! disjoint cuts are filled sequentially: each node reuses its fanouts'
//! cuts.) This crate provides the
//! one threading primitive they all share, with three guarantees:
//!
//! * **Determinism.** Work is split into contiguous chunks and results are
//!   joined in chunk order, so the output of every `map` is byte-identical
//!   to the serial fold regardless of the thread count, the scheduling
//!   mode or which worker ends up computing (or stealing) a chunk.
//! * **Bounded threads.** A [`WorkerPool`] carries a fixed thread budget;
//!   each parallel region spawns at most that many scoped threads and
//!   joins them before returning (no detached workers, no global state).
//! * **Contained panics.** A panic on a worker thread is caught per chunk,
//!   every worker is still joined, and the payload of the panicking chunk
//!   with the lowest index is surfaced as a [`WorkerPanic`] value the
//!   engine converts into its structured `EngineError::WorkerPanic` — a
//!   run aborts with context instead of tearing down the process. (The
//!   serial fast path runs on the caller's stack and propagates panics
//!   natively, exactly like the serial code it replaces.)
//!
//! Whether a region fans out at all — and into how many chunks — is
//! decided by the adaptive [`Scheduler`] in [`sched`]: a per-region cost
//! model (ns per item, learned online from span timings, seeded by a
//! one-time calibration probe) predicts serial and parallel time and runs
//! the region inline when parallelism would not pay. Parallel regions are
//! split into more chunks than workers (sized by predicted cost, not
//! `len / threads`) and idle workers *steal whole chunks* from stragglers:
//! each worker owns a contiguous range of chunk indices claimed through a
//! per-range atomic cursor, and an idle worker claims from a victim's
//! cursor exactly like the owner does, so every chunk is computed exactly
//! once and results are reassembled by chunk index afterwards — stealing
//! moves *where* a chunk runs, never *where its results land*.
//!
//! The pool intentionally uses `std::thread::scope` rather than persistent
//! worker threads: analysis regions borrow the circuit, simulator and cut
//! state immutably, and scoped spawns make those borrows safe without any
//! `Arc`/channel machinery or external dependencies.

use std::any::Any;
use std::fmt;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use als_obs::{Counter, Histogram, Obs};

pub mod sched;

pub use sched::{Calibration, ChunkPlan, Decision, SchedConfig, SchedMode, Scheduler};

/// A worker thread panicked inside a parallel region; carries the panic
/// payload rendered as text.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WorkerPanic(pub String);

impl WorkerPanic {
    fn from_payload(payload: Box<dyn Any + Send>) -> WorkerPanic {
        let detail = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "unknown panic payload".to_string());
        WorkerPanic(detail)
    }

    /// Re-raises the contained panic on the current thread. For callers
    /// whose API has no error channel (e.g. simulation refresh).
    pub fn resume(self) -> ! {
        std::panic::panic_any(self.0)
    }
}

impl fmt::Display for WorkerPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker thread panicked: {}", self.0)
    }
}

impl std::error::Error for WorkerPanic {}

/// Names a scheduling region and carries its per-item weight — a known
/// scale factor (such as the simulation word count) that lets one learned
/// ns-per-unit estimate transfer between runs whose items differ only in
/// that factor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionSpec {
    /// Region name; one cost estimate is kept per name.
    pub name: &'static str,
    /// Per-item weight (≥ 1); predicted cost is `len · weight · unit_ns`.
    pub weight: u64,
}

impl RegionSpec {
    /// A region with unit weight.
    pub fn new(name: &'static str) -> RegionSpec {
        RegionSpec { name, weight: 1 }
    }

    /// A region whose items carry a known scale factor (e.g. words per
    /// simulation vector).
    pub fn weighted(name: &'static str, weight: u64) -> RegionSpec {
        RegionSpec { name, weight: weight.max(1) }
    }
}

impl From<&'static str> for RegionSpec {
    fn from(name: &'static str) -> RegionSpec {
        RegionSpec::new(name)
    }
}

/// A pre-resolved scheduling region: the spec plus its cost accumulator,
/// looked up once. Call sites that decide per wave (simulation, CPM
/// sweeps) hold one of these so each decision reads the model directly
/// instead of re-locking the scheduler's region registry.
#[derive(Clone, Debug)]
pub struct RegionHandle {
    spec: RegionSpec,
    cost: Arc<sched::RegionCost>,
}

impl RegionHandle {
    /// The spec this handle was resolved from.
    pub fn spec(&self) -> RegionSpec {
        self.spec
    }
}

/// Per-worker state that persists *across* parallel regions.
///
/// A `map_with` scratch is rebuilt on every call; for per-iteration loops
/// (batch LAC evaluation, CPM waves) that rebuild is pure allocation
/// churn. Callers keep a `WorkerScratch` alongside the pool and pass it to
/// the `*_store_in` / `*_hybrid_in` maps: slot `i` is lazily built on
/// first use and handed to worker `i` of every subsequent region, and slot
/// 0 doubles as the serial-path scratch, so steady state performs zero
/// scratch allocation regardless of how the scheduler splits the work.
#[derive(Debug)]
pub struct WorkerScratch<P> {
    slots: Vec<P>,
}

impl<P> Default for WorkerScratch<P> {
    fn default() -> WorkerScratch<P> {
        WorkerScratch { slots: Vec::new() }
    }
}

impl<P> WorkerScratch<P> {
    pub fn new() -> WorkerScratch<P> {
        WorkerScratch::default()
    }

    /// Built slots so far (grows to the widest region seen).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Drops all built slots (e.g. when the backing dimensions change).
    pub fn clear(&mut self) {
        self.slots.clear();
    }

    fn ensure(&mut self, n: usize, build: &(impl Fn() -> P + ?Sized)) {
        while self.slots.len() < n {
            self.slots.push(build());
        }
    }
}

/// Pre-registered utilization metrics of one pool. Disabled handles are
/// inlined no-ops, so an uninstrumented pool pays nothing per region.
#[derive(Clone, Debug, Default)]
struct PoolMetrics {
    /// Whether the backing [`Obs`] records anything (gates the per-region
    /// `Instant` reads, which unlike the handles are not free).
    enabled: bool,
    /// Parallel regions that actually fanned out.
    regions: Counter,
    /// Regions that stayed on the caller's thread (small inputs or a
    /// serial pool).
    serial_regions: Counter,
    /// Items mapped across all regions.
    items: Counter,
    /// Per-worker busy time inside a parallel region, microseconds.
    busy_us: Histogram,
    /// Per-region pool utilization: `100 · Σ busy / (workers · span)`.
    utilization_pct: Histogram,
    /// Cutover decisions that fanned out.
    cutover_parallel: Counter,
    /// Cutover decisions the cost model resolved to serial.
    cutover_serial: Counter,
    /// Cutover decisions short-circuited by a hard floor guard.
    cutover_floor: Counter,
    /// Chunks executed by a worker other than their range owner.
    steals: Counter,
    /// `100 · |predicted − actual| / actual` for parallel regions.
    pred_err_pct: Histogram,
}

impl PoolMetrics {
    fn register(obs: &Obs) -> PoolMetrics {
        PoolMetrics {
            enabled: obs.is_enabled(),
            regions: obs.counter("als_pool_regions_total", "parallel regions that fanned out"),
            serial_regions: obs
                .counter("als_pool_serial_regions_total", "regions that ran on the caller thread"),
            items: obs.counter("als_pool_items_total", "items mapped over the pool"),
            busy_us: obs
                .histogram("als_pool_worker_busy_us", "per-worker busy time per region (us)"),
            utilization_pct: obs.histogram(
                "als_pool_utilization_pct",
                "per-region worker utilization (percent of workers x wall time)",
            ),
            cutover_parallel: obs
                .counter("als_sched_cutover_parallel_total", "cutover decisions that fanned out"),
            cutover_serial: obs.counter(
                "als_sched_cutover_serial_total",
                "cutover decisions the cost model kept serial",
            ),
            cutover_floor: obs.counter(
                "als_sched_cutover_floor_total",
                "cutover decisions stopped by the min-items/min-time floor",
            ),
            steals: obs.counter("als_sched_steals_total", "chunks executed by a non-owner worker"),
            pred_err_pct: obs.histogram(
                "als_sched_pred_err_pct",
                "percent error of predicted vs actual parallel region time",
            ),
        }
    }
}

/// A fixed-size budget of worker threads for chunk-parallel maps.
///
/// The pool itself is trivially cheap to construct and `Clone` (clones
/// share the adaptive scheduler, so learned costs transfer); the threads
/// are spawned per parallel region (scoped) and joined before the call
/// returns.
#[derive(Clone, Debug)]
pub struct WorkerPool {
    threads: usize,
    sched: Arc<Scheduler>,
    metrics: PoolMetrics,
}

impl WorkerPool {
    /// A pool of `threads` workers (values below 1 are clamped to 1 —
    /// serial execution), scheduled per the `ALS_SCHED` environment
    /// variable (adaptive by default).
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool::with_config(threads, SchedConfig::from_env())
    }

    /// A pool with an explicit scheduling configuration (ignores
    /// `ALS_SCHED`). Tests that depend on cutover decisions use this with
    /// a fixed [`Calibration`] or [`SchedConfig::forced`] so the host's
    /// core count cannot change the outcome.
    pub fn with_config(threads: usize, cfg: SchedConfig) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
            sched: Arc::new(Scheduler::new(cfg)),
            metrics: PoolMetrics::default(),
        }
    }

    /// Attaches an observability handle: the pool pre-registers its
    /// utilization metrics and records them per region. With a disabled
    /// `Obs` this is equivalent to the plain pool.
    #[must_use]
    pub fn with_obs(mut self, obs: &Obs) -> WorkerPool {
        self.metrics = PoolMetrics::register(obs);
        self
    }

    /// The configured thread budget.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Whether this pool always executes on the caller's thread.
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// The scheduler driving this pool's cutover decisions.
    pub fn scheduler(&self) -> &Scheduler {
        &self.sched
    }

    /// Whether a region over `len` items would actually fan out, without
    /// recording a cutover decision. Callers that branch on the answer and
    /// then run the region through the pool should use [`WorkerPool::decide`]
    /// instead so the decision is counted once.
    pub fn would_parallelize(&self, len: usize) -> bool {
        self.would_parallelize_in(RegionSpec::new("anon"), len)
    }

    /// [`WorkerPool::would_parallelize`] for a named, weighted region.
    pub fn would_parallelize_in(&self, spec: impl Into<RegionSpec>, len: usize) -> bool {
        let spec = spec.into();
        let region = self.sched.region(spec.name);
        self.sched.decide(&region, len, spec.weight, self.threads).is_parallel()
    }

    /// Resolves a region's cost accumulator once; pair with the
    /// `*_region` methods in loops that decide per wave.
    pub fn region(&self, spec: impl Into<RegionSpec>) -> RegionHandle {
        let spec = spec.into();
        RegionHandle { cost: self.sched.region(spec.name), spec }
    }

    /// Serial/parallel cutover for a region the caller runs itself (e.g.
    /// an inline loop with its own install step). Records the decision in
    /// the `als_sched_cutover_*` counters.
    pub fn decide(&self, spec: impl Into<RegionSpec>, len: usize) -> bool {
        self.decide_region(&self.region(spec), len)
    }

    /// [`WorkerPool::decide`] through a pre-resolved handle (no registry
    /// lock).
    pub fn decide_region(&self, h: &RegionHandle, len: usize) -> bool {
        let d = self.sched.decide(&h.cost, len, h.spec.weight, self.threads);
        self.record_cutover(d);
        d.is_parallel()
    }

    /// Feeds the cost model from a region the caller ran inline (after a
    /// serial [`WorkerPool::decide`]). Callers gate the `Instant` reads on
    /// [`WorkerPool::should_learn`].
    pub fn observe_serial(&self, spec: impl Into<RegionSpec>, len: usize, elapsed: Duration) {
        self.observe_serial_region(&self.region(spec), len, elapsed);
    }

    /// [`WorkerPool::observe_serial`] through a pre-resolved handle.
    pub fn observe_serial_region(&self, h: &RegionHandle, len: usize, elapsed: Duration) {
        self.sched.observe(&h.cost, len, h.spec.weight, elapsed);
    }

    /// Whether an inline serial region of this size is worth timing for
    /// the cost model (false on serial pools and for sub-threshold spans,
    /// so tiny regions never pay the clock reads).
    pub fn should_learn(&self, spec: impl Into<RegionSpec>, len: usize) -> bool {
        self.should_learn_region(&self.region(spec), len)
    }

    /// [`WorkerPool::should_learn`] through a pre-resolved handle.
    pub fn should_learn_region(&self, h: &RegionHandle, len: usize) -> bool {
        self.threads > 1 && self.sched.should_learn_serial(&h.cost, len, h.spec.weight)
    }

    fn record_cutover(&self, d: Decision) {
        if self.threads <= 1 {
            return;
        }
        match d {
            Decision::Parallel => self.metrics.cutover_parallel.inc(),
            Decision::Serial => self.metrics.cutover_serial.inc(),
            Decision::Floor => self.metrics.cutover_floor.inc(),
        }
    }

    /// Maps `f` over `items`, returning the results in item order.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_in("anon", items, f)
    }

    /// [`WorkerPool::map`] under a named region.
    pub fn map_in<T, R, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut store = WorkerScratch::new();
        self.run_region(
            spec.into(),
            items,
            &mut store,
            &|| (),
            &|| (),
            &|_: &mut (), _: &mut (), item| f(item),
            false,
        )
    }

    /// Maps `f` over `items` with one `scratch()`-built state per worker,
    /// returning the results in item order.
    ///
    /// The scratch builder runs once per spawned worker (once total on the
    /// serial path), so expensive reusable buffers amortise over the whole
    /// chunk instead of being rebuilt per item. To also amortise across
    /// *calls*, see [`WorkerPool::map_store_in`].
    pub fn map_with<S, T, R, B, F>(
        &self,
        items: &[T],
        scratch: B,
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        B: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        self.map_with_in("anon", items, scratch, f)
    }

    /// [`WorkerPool::map_with`] under a named region.
    pub fn map_with_in<S, T, R, B, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        scratch: B,
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        B: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> R + Sync,
    {
        let mut store = WorkerScratch::new();
        self.run_region(
            spec.into(),
            items,
            &mut store,
            &|| (),
            &scratch,
            &|_: &mut (), s, item| f(s, item),
            false,
        )
    }

    /// Maps `f` over `items` with per-worker scratch that persists across
    /// calls in `store` (slot `i` serves worker `i`; built lazily by
    /// `persist`).
    pub fn map_store_in<P, T, R, B, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        store: &mut WorkerScratch<P>,
        persist: B,
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        P: Send,
        T: Sync,
        R: Send,
        B: Fn() -> P + Sync,
        F: Fn(&mut P, &T) -> R + Sync,
    {
        self.run_region(
            spec.into(),
            items,
            store,
            &persist,
            &|| (),
            &|p, _: &mut (), item| f(p, item),
            false,
        )
    }

    /// The most general map: per-worker *persistent* scratch `P` (reused
    /// across calls via `store`) plus per-call scratch `S` (rebuilt each
    /// call, for state that borrows call-local inputs).
    #[allow(clippy::too_many_arguments)]
    pub fn map_hybrid_in<P, S, T, R, BP, BS, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        store: &mut WorkerScratch<P>,
        persist: BP,
        percall: BS,
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        P: Send,
        T: Sync,
        R: Send,
        BP: Fn() -> P + Sync,
        BS: Fn() -> S + Sync,
        F: Fn(&mut P, &mut S, &T) -> R + Sync,
    {
        self.run_region(spec.into(), items, store, &persist, &percall, &f, false)
    }

    /// Maps `f` over `items` forcing the parallel path (no cutover
    /// decision, no decision metrics): for callers that already called
    /// [`WorkerPool::decide`] and branch themselves. Falls back to the
    /// serial path only when it cannot fan out at all (serial pool or
    /// fewer than two items).
    pub fn map_parallel_in<T, R, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        f: F,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let mut store = WorkerScratch::new();
        self.run_region(
            spec.into(),
            items,
            &mut store,
            &|| (),
            &|| (),
            &|_: &mut (), _: &mut (), item| f(item),
            true,
        )
    }

    /// Maps a fallible `f` over `items` with per-worker scratch, collecting
    /// the first error (worker panics take precedence). Item order is
    /// preserved; error selection is deterministic (first item in order).
    pub fn try_map_with<S, T, R, E, B, F>(
        &self,
        items: &[T],
        scratch: B,
        f: F,
    ) -> Result<Result<Vec<R>, E>, WorkerPanic>
    where
        T: Sync,
        R: Send,
        E: Send,
        B: Fn() -> S + Sync,
        F: Fn(&mut S, &T) -> Result<R, E> + Sync,
    {
        let per_item = self.map_with(items, scratch, f)?;
        Ok(per_item.into_iter().collect())
    }

    /// [`WorkerPool::try_map_with`] with persistent-plus-per-call scratch
    /// (see [`WorkerPool::map_hybrid_in`]).
    #[allow(clippy::too_many_arguments)]
    pub fn try_map_hybrid_in<P, S, T, R, E, BP, BS, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        store: &mut WorkerScratch<P>,
        persist: BP,
        percall: BS,
        f: F,
    ) -> Result<Result<Vec<R>, E>, WorkerPanic>
    where
        P: Send,
        T: Sync,
        R: Send,
        E: Send,
        BP: Fn() -> P + Sync,
        BS: Fn() -> S + Sync,
        F: Fn(&mut P, &mut S, &T) -> Result<R, E> + Sync,
    {
        let per_item = self.map_hybrid_in(spec, items, store, persist, percall, f)?;
        Ok(per_item.into_iter().collect())
    }

    /// [`WorkerPool::try_map_hybrid_in`] forcing the parallel path (no
    /// cutover decision — for callers that already called
    /// [`WorkerPool::decide`] and handle the serial branch themselves,
    /// e.g. to install results with zero copies).
    #[allow(clippy::too_many_arguments)]
    pub fn try_map_parallel_hybrid_in<P, S, T, R, E, BP, BS, F>(
        &self,
        spec: impl Into<RegionSpec>,
        items: &[T],
        store: &mut WorkerScratch<P>,
        persist: BP,
        percall: BS,
        f: F,
    ) -> Result<Result<Vec<R>, E>, WorkerPanic>
    where
        P: Send,
        T: Sync,
        R: Send,
        E: Send,
        BP: Fn() -> P + Sync,
        BS: Fn() -> S + Sync,
        F: Fn(&mut P, &mut S, &T) -> Result<R, E> + Sync,
    {
        let per_item = self.run_region(spec.into(), items, store, &persist, &percall, &f, true)?;
        Ok(per_item.into_iter().collect())
    }

    /// The one region engine behind every map: decides (or is forced),
    /// sizes chunks, fans out with whole-chunk stealing, reassembles in
    /// chunk order, and feeds timings back to the cost model.
    #[allow(clippy::too_many_arguments)]
    fn run_region<P, S, T, R>(
        &self,
        spec: RegionSpec,
        items: &[T],
        store: &mut WorkerScratch<P>,
        persist: &(impl Fn() -> P + Sync),
        percall: &(impl Fn() -> S + Sync),
        f: &(impl Fn(&mut P, &mut S, &T) -> R + Sync),
        force_parallel: bool,
    ) -> Result<Vec<R>, WorkerPanic>
    where
        P: Send,
        T: Sync,
        R: Send,
    {
        let len = items.len();
        let region = self.sched.region(spec.name);
        let decision = if force_parallel {
            if self.threads > 1 && len >= 2 {
                Decision::Parallel
            } else {
                Decision::Floor
            }
        } else {
            let d = self.sched.decide(&region, len, spec.weight, self.threads);
            self.record_cutover(d);
            d
        };

        if !decision.is_parallel() {
            self.metrics.serial_regions.inc();
            self.metrics.items.add(len as u64);
            // Only model-driven serial decisions on a parallel pool learn
            // from the span — floor-guarded (tiny) regions and serial
            // pools never pay the clock reads.
            let learn = self.threads > 1
                && decision == Decision::Serial
                && self.sched.should_learn_serial(&region, len, spec.weight);
            let t0 = learn.then(Instant::now);
            store.ensure(1, persist);
            let p = &mut store.slots[0];
            let mut s = percall();
            // A multi-thread pool contains item panics no matter which
            // side of the cutover a region lands on — the error surface
            // must not depend on the cost model's decision. A 1-thread
            // pool deliberately propagates, matching the engine's serial
            // degradation contract.
            let out: Vec<R> = if self.threads > 1 {
                std::panic::catch_unwind(AssertUnwindSafe(|| {
                    items.iter().map(|item| f(p, &mut s, item)).collect()
                }))
                .map_err(WorkerPanic::from_payload)?
            } else {
                items.iter().map(|item| f(p, &mut s, item)).collect()
            };
            if let Some(t0) = t0 {
                self.sched.observe(&region, len, spec.weight, t0.elapsed());
            }
            return Ok(out);
        }

        let plan = self.sched.plan(&region, len, spec.weight, self.threads);
        let ChunkPlan { workers, chunk_len, chunks } = plan;
        store.ensure(workers, persist);
        self.metrics.regions.inc();
        self.metrics.items.add(len as u64);
        // Busy-time reads are gated on `enabled` OR adaptive learning:
        // handles are free when disabled but `Instant::now` is not, and
        // the legacy (`off`) mode must not pay it on uninstrumented runs.
        let timed = self.metrics.enabled;
        let learning = self.sched.config().mode == SchedMode::Adaptive;
        let time_workers = timed || learning;
        let region_start = timed.then(Instant::now);
        let predicted_ns = (timed && learning && !force_parallel).then(|| {
            let serial_ns = self.sched.predict_serial_ns(&region, len, spec.weight);
            self.sched.predict_parallel_ns(serial_ns, workers)
        });
        let steal_enabled = self.sched.config().steal && self.sched.config().mode != SchedMode::Off;

        // Contiguous chunk-index ranges, one per worker; every chunk is
        // claimed exactly once through its range's atomic cursor, whether
        // by the owner or a stealer.
        let starts: Vec<usize> = (0..workers).map(|w| w * chunks / workers).collect();
        let ends: Vec<usize> = (0..workers).map(|w| (w + 1) * chunks / workers).collect();
        let cursors: Vec<AtomicUsize> = starts.iter().map(|&s| AtomicUsize::new(s)).collect();
        let (cursors, ends) = (&cursors, &ends);

        type WorkerOut<R> =
            (Vec<(usize, Vec<R>)>, u64, Option<Duration>, Option<(usize, WorkerPanic)>);

        std::thread::scope(|scope| {
            let handles: Vec<_> = store.slots[..workers]
                .iter_mut()
                .enumerate()
                .map(|(w, slot)| {
                    scope.spawn(move || -> WorkerOut<R> {
                        let t0 = time_workers.then(Instant::now);
                        let mut s = percall();
                        let mut parts: Vec<(usize, Vec<R>)> = Vec::new();
                        let mut steals = 0u64;
                        let mut panicked: Option<(usize, WorkerPanic)> = None;
                        let victims = if steal_enabled { workers } else { 1 };
                        'drain: for k in 0..victims {
                            let v = (w + k) % workers;
                            loop {
                                let c = cursors[v].fetch_add(1, Ordering::Relaxed);
                                if c >= ends[v] {
                                    break;
                                }
                                if v != w {
                                    steals += 1;
                                }
                                let lo = c * chunk_len;
                                let hi = (lo + chunk_len).min(len);
                                let part = &items[lo..hi];
                                // Catch per chunk so the *lowest-index*
                                // panicking chunk can be surfaced even
                                // when stealing reorders execution.
                                let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
                                    part.iter()
                                        .map(|item| f(slot, &mut s, item))
                                        .collect::<Vec<R>>()
                                }));
                                match run {
                                    Ok(rs) => parts.push((c, rs)),
                                    Err(payload) => {
                                        panicked = Some((c, WorkerPanic::from_payload(payload)));
                                        break 'drain;
                                    }
                                }
                            }
                        }
                        (parts, steals, t0.map(|t| t.elapsed()), panicked)
                    })
                })
                .collect();

            // Join every handle even after a panic: leaving a panicked
            // scoped thread unjoined would make the scope itself panic and
            // bypass the error conversion.
            let mut by_chunk: Vec<Option<Vec<R>>> = (0..chunks).map(|_| None).collect();
            let mut first_panic: Option<(usize, WorkerPanic)> = None;
            let mut busy = Duration::ZERO;
            let mut steal_total = 0u64;
            for h in handles {
                match h.join() {
                    Ok((parts, steals, worker_busy, panicked)) => {
                        for (c, rs) in parts {
                            by_chunk[c] = Some(rs);
                        }
                        steal_total += steals;
                        if let Some(b) = worker_busy {
                            busy += b;
                            if timed {
                                self.metrics.busy_us.observe_duration(b);
                            }
                        }
                        if let Some((c, p)) = panicked {
                            if first_panic.as_ref().is_none_or(|(fc, _)| c < *fc) {
                                first_panic = Some((c, p));
                            }
                        }
                    }
                    Err(payload) => {
                        // A panic that escaped the per-chunk catch (e.g.
                        // inside `percall`): surface it, but let any
                        // chunk-attributed panic win the ordering.
                        let p = WorkerPanic::from_payload(payload);
                        if first_panic.is_none() {
                            first_panic = Some((usize::MAX, p));
                        }
                    }
                }
            }

            self.metrics.steals.add(steal_total);
            if learning {
                self.sched.observe(&region, len, spec.weight, busy);
            }
            if let Some(start) = region_start {
                let span_ns = start.elapsed().as_nanos();
                if span_ns > 0 {
                    let pct = busy.as_nanos() * 100 / (span_ns * (workers.max(1) as u128));
                    self.metrics.utilization_pct.observe(pct.min(100) as u64);
                    if let Some(pred) = predicted_ns {
                        let actual = span_ns as f64;
                        let err = ((pred - actual).abs() * 100.0 / actual) as u64;
                        self.metrics.pred_err_pct.observe(err);
                    }
                }
            }

            if let Some((_, p)) = first_panic {
                return Err(p);
            }
            let mut all = Vec::with_capacity(len);
            for part in by_chunk {
                // Every cursor ran to its range end and no chunk panicked,
                // so every index was claimed and completed exactly once.
                all.extend(part.expect("chunk completed by exactly one worker"));
            }
            Ok(all)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A calibration fixture: decisions become a pure function of the
    /// config and observations, independent of the host.
    fn fixed_cal() -> Calibration {
        Calibration { spawn_ns: 20_000, hw_threads: 8 }
    }

    #[test]
    fn map_preserves_order_at_any_thread_count() {
        let items: Vec<u64> = (0..1000).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for threads in [1, 2, 3, 7, 16] {
            for cfg in [
                SchedConfig::default(),
                SchedConfig::legacy(),
                SchedConfig::forced(),
                SchedConfig { steal: false, ..SchedConfig::forced() },
                SchedConfig::with_calibration(fixed_cal()),
            ] {
                let pool = WorkerPool::with_config(threads, cfg.clone());
                let got = pool.map(&items, |x| x * 3 + 1).unwrap();
                assert_eq!(got, expect, "threads = {threads}, cfg = {cfg:?}");
            }
        }
    }

    #[test]
    fn scratch_is_per_worker_and_results_ordered() {
        let items: Vec<usize> = (0..500).collect();
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        // Scratch accumulates a per-worker counter; the mapped value must
        // not depend on it (determinism), only on the item.
        let got = pool
            .map_with(
                &items,
                || 0usize,
                |count, &x| {
                    *count += 1;
                    x * 2
                },
            )
            .unwrap();
        assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn legacy_mode_keeps_fixed_grain_thresholds() {
        let pool = WorkerPool::with_config(8, SchedConfig::legacy());
        assert!(!pool.would_parallelize(7));
        assert!(!pool.would_parallelize(31));
        assert!(pool.would_parallelize(8 * 4));
        // ...and still produce correct results below threshold.
        let got = pool.map(&[1, 2, 3], |x| x + 1).unwrap();
        assert_eq!(got, vec![2, 3, 4]);
    }

    #[test]
    fn adaptive_floors_keep_small_and_cheap_regions_serial() {
        let pool = WorkerPool::with_config(8, SchedConfig::with_calibration(fixed_cal()));
        // Hard min-items guard: below 16 items never fans out, whatever
        // the model thinks.
        assert!(!pool.would_parallelize(15));
        // A sub-millisecond region (sim seed: 2ns/unit · 1000 = 2us) stays
        // serial under the min-serial-time floor.
        assert!(!pool.would_parallelize_in(RegionSpec::weighted("sim_wave", 1), 1000));
        // A predicted-heavy region clears both floors and the model.
        assert!(pool.would_parallelize_in(RegionSpec::weighted("cpm_wave", 64), 10_000));
    }

    #[test]
    fn worker_panic_is_converted_not_propagated() {
        let items: Vec<usize> = (0..200).collect();
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        let err = pool
            .map(&items, |&x| {
                assert!(x != 137, "boom at {x}");
                x
            })
            .unwrap_err();
        assert!(err.0.contains("boom at 137"), "payload: {}", err.0);
        assert!(err.to_string().contains("worker thread panicked"));
    }

    #[test]
    fn multi_thread_pool_contains_panics_even_when_region_runs_serial() {
        // The error surface must not depend on the cutover decision: a
        // region the cost model keeps serial still returns WorkerPanic
        // on a multi-thread pool...
        let items: Vec<usize> = (0..8).collect(); // below the min-items floor
        let pool = WorkerPool::with_config(4, SchedConfig::with_calibration(fixed_cal()));
        let err = pool.map(&items, |&x| if x == 3 { panic!("serial boom") } else { x });
        assert!(err.unwrap_err().0.contains("serial boom"));
        // ...while a 1-thread pool deliberately propagates.
        let serial = WorkerPool::with_config(1, SchedConfig::with_calibration(fixed_cal()));
        let run = std::panic::catch_unwind(AssertUnwindSafe(|| {
            serial.map(&items, |&x| if x == 3 { panic!("serial boom") } else { x })
        }));
        assert!(run.is_err());
    }

    #[test]
    fn lowest_chunk_panic_wins_even_with_stealing() {
        let items: Vec<usize> = (0..400).collect();
        for steal in [true, false] {
            let pool = WorkerPool::with_config(4, SchedConfig { steal, ..SchedConfig::forced() });
            // every chunk panics; the payload of the lowest chunk wins
            let err = pool.map(&items, |&x| panic!("chunk item {x}")).unwrap_err();
            assert_eq!(err.0, "chunk item 0", "steal = {steal}");
        }
    }

    #[test]
    fn try_map_surfaces_first_error_in_item_order() {
        let items: Vec<usize> = (0..300).collect();
        let pool = WorkerPool::with_config(3, SchedConfig::forced());
        let inner = pool
            .try_map_with(&items, || (), |(), &x| if x % 100 == 50 { Err(x) } else { Ok(x) })
            .unwrap();
        assert_eq!(inner.unwrap_err(), 50);
    }

    #[test]
    fn stealing_rebalances_stragglers_and_preserves_order() {
        // One pathological item (index 0) is ~1000x the cost of the rest:
        // the worker that owns chunk 0 stalls there while the others
        // finish their ranges and steal its remaining chunks.
        let items: Vec<u64> = (0..4096).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x + 1).collect();
        let obs = als_obs::Obs::new(als_obs::ObsConfig::default()).unwrap();
        let pool = WorkerPool::with_config(4, SchedConfig::forced()).with_obs(&obs);
        let got = pool
            .map(&items, |&x| {
                if x == 0 {
                    std::thread::sleep(Duration::from_millis(30));
                }
                x + 1
            })
            .unwrap();
        assert_eq!(got, expect);
        let steals = obs.counter("als_sched_steals_total", "").get();
        assert!(steals > 0, "expected the stalled owner's chunks to be stolen");
    }

    #[test]
    fn persistent_store_reuses_slots_across_calls() {
        let pool = WorkerPool::with_config(4, SchedConfig::forced());
        let items: Vec<u64> = (0..256).collect();
        let builds = AtomicUsize::new(0);
        let mut store: WorkerScratch<Vec<u64>> = WorkerScratch::new();
        for round in 0..5 {
            let got = pool
                .map_store_in(
                    "eval",
                    &items,
                    &mut store,
                    || {
                        builds.fetch_add(1, Ordering::Relaxed);
                        Vec::with_capacity(64)
                    },
                    |buf, &x| {
                        buf.clear();
                        buf.push(x);
                        buf[0] * 2
                    },
                )
                .unwrap();
            assert_eq!(got, items.iter().map(|x| x * 2).collect::<Vec<_>>(), "round {round}");
        }
        let built = builds.load(Ordering::Relaxed);
        assert!(!store.is_empty());
        assert_eq!(built, store.len(), "slots built lazily once, then reused");
        assert!(built <= 4, "at most one slot per worker, got {built}");
    }

    #[test]
    fn hybrid_map_rebuilds_percall_scratch_only() {
        let pool = WorkerPool::with_config(2, SchedConfig::forced());
        let items: Vec<u64> = (0..64).collect();
        let persist_builds = AtomicUsize::new(0);
        let percall_builds = AtomicUsize::new(0);
        let mut store: WorkerScratch<u64> = WorkerScratch::new();
        for _ in 0..3 {
            let got = pool
                .map_hybrid_in(
                    "eval",
                    &items,
                    &mut store,
                    || {
                        persist_builds.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    || {
                        percall_builds.fetch_add(1, Ordering::Relaxed);
                        0u64
                    },
                    |_p, _s, &x| x,
                )
                .unwrap();
            assert_eq!(got, items);
        }
        assert!(persist_builds.load(Ordering::Relaxed) <= 2, "persistent slots reused");
        assert!(percall_builds.load(Ordering::Relaxed) >= 3, "per-call scratch rebuilt");
    }

    #[test]
    fn map_parallel_in_matches_serial_output() {
        let items: Vec<u64> = (0..100).collect();
        let forced = WorkerPool::with_config(4, SchedConfig::forced());
        let serial = WorkerPool::with_config(1, SchedConfig::default());
        assert_eq!(
            forced.map_parallel_in("sim_wave", &items, |x| x * 5).unwrap(),
            serial.map(&items, |x| x * 5).unwrap(),
        );
    }

    #[test]
    fn instrumented_pool_records_regions_and_matches_plain_output() {
        let obs = als_obs::Obs::new(als_obs::ObsConfig::default()).unwrap();
        let items: Vec<u64> = (0..1000).collect();
        let plain = WorkerPool::with_config(4, SchedConfig::forced());
        let pool = WorkerPool::with_config(4, SchedConfig::forced()).with_obs(&obs);
        assert_eq!(pool.map(&items, |x| x * 7).unwrap(), plain.map(&items, |x| x * 7).unwrap());
        let _small = pool.map(&[1u64], |x| *x).unwrap();
        assert_eq!(obs.counter("als_pool_regions_total", "").get(), 1);
        assert_eq!(obs.counter("als_pool_serial_regions_total", "").get(), 1);
        assert_eq!(obs.counter("als_pool_items_total", "").get(), 1001);
        assert_eq!(obs.counter("als_sched_cutover_parallel_total", "").get(), 1);
        assert_eq!(obs.counter("als_sched_cutover_floor_total", "").get(), 1);
        assert_eq!(obs.histogram("als_pool_worker_busy_us", "").count(), 4);
        assert_eq!(obs.histogram("als_pool_utilization_pct", "").count(), 1);
    }

    #[test]
    fn adaptive_records_serial_cutovers_and_pred_err() {
        let obs = als_obs::Obs::new(als_obs::ObsConfig::default()).unwrap();
        let pool =
            WorkerPool::with_config(8, SchedConfig::with_calibration(fixed_cal())).with_obs(&obs);
        let items: Vec<u64> = (0..10_000).collect();
        // Heavy region fans out and records a prediction error sample.
        pool.map_in(RegionSpec::weighted("cpm_wave", 64), &items, |x| x + 1).unwrap();
        // Tiny region floors.
        pool.map(&[1u64, 2], |x| *x).unwrap();
        assert_eq!(obs.counter("als_sched_cutover_parallel_total", "").get(), 1);
        assert_eq!(obs.counter("als_sched_cutover_floor_total", "").get(), 1);
        assert_eq!(obs.histogram("als_sched_pred_err_pct", "").count(), 1);
    }

    #[test]
    fn disabled_obs_pool_records_nothing() {
        let pool =
            WorkerPool::with_config(2, SchedConfig::forced()).with_obs(&als_obs::Obs::disabled());
        let items: Vec<u64> = (0..100).collect();
        pool.map(&items, |x| x + 1).unwrap();
        assert!(!pool.metrics.enabled);
        assert_eq!(pool.metrics.regions.get(), 0);
        assert_eq!(pool.metrics.items.get(), 0);
    }

    #[test]
    fn zero_threads_clamps_to_serial() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert!(pool.is_serial());
    }
}
