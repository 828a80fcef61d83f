//! The oracle: what makes a synthesis result correct, and the
//! out-of-sample quality numbers reported beside it.
//!
//! A result is correct when its circuit passes the structural check, when
//! re-simulating it on the flow's own pattern set reproduces the error the
//! flow reported, and when that error is within the bound. Repeated runs
//! of one input must also give the same circuit bytes; the workloads check
//! that with [`circuit_bytes`].
//!
//! The exact (exhaustive) and holdout errors are quality numbers, not
//! checks: the flows bound the error only on the patterns they optimise
//! against, and a circuit that exceeds the bound out of sample is
//! reported as such, never counted as a failed operation.

use std::sync::Arc;
use std::time::Instant;

use dualphase_als::aig::{check, io, Aig};
use dualphase_als::engine::FlowConfig;
use dualphase_als::error::{unsigned_weights, ErrorState, MetricKind};
use dualphase_als::map::{adp_ratio, CellLibrary};
use dualphase_als::obs::json::Json;
use dualphase_als::sim::{PackedBits, PatternSet, Simulator};

/// Patterns in the independent holdout set.
pub const HOLDOUT_PATTERNS: usize = 8192;
/// Widest circuit whose error is computed exhaustively (2^20 patterns).
pub const EXACT_MAX_INPUTS: usize = 20;
/// Words simulated at once on the exhaustive set, so the oracle's memory
/// stays below the flows' and `peak_rss_mb` measures the program.
const EXACT_CHUNK_WORDS: usize = 64;
/// Relative tolerance of the re-simulated error against the reported one.
const REL_TOL: f64 = 1e-9;

/// A pattern set, in chunks, with the original circuit's outputs on each.
pub struct Reference {
    chunks: Vec<(PatternSet, Vec<PackedBits>)>,
}

impl Reference {
    fn new(original: &Aig, chunks: Vec<PatternSet>) -> Reference {
        Reference {
            chunks: chunks
                .into_iter()
                .map(|p| {
                    let golden = outputs(original, &p);
                    (p, golden)
                })
                .collect(),
        }
    }

    /// The exhaustive reference of `original`, when it is narrow enough.
    pub fn exhaustive(original: &Aig) -> Option<Reference> {
        let n = original.num_inputs();
        if !(6..=EXACT_MAX_INPUTS).contains(&n) {
            return None;
        }
        let all = PatternSet::exhaustive(n);
        let chunks = (0..all.num_words())
            .step_by(EXACT_CHUNK_WORDS)
            .map(|w0| {
                let w1 = (w0 + EXACT_CHUNK_WORDS).min(all.num_words());
                PatternSet::from_vectors(
                    (0..n)
                        .map(|i| PackedBits::from_words(all.input(i).words()[w0..w1].to_vec()))
                        .collect(),
                )
            })
            .collect();
        Some(Reference::new(original, chunks))
    }

    /// Error states of `circuit` against the original, one per chunk.
    fn states(&self, metric: MetricKind, circuit: &Aig) -> Vec<ErrorState> {
        self.chunks
            .iter()
            .map(|(patterns, golden)| {
                let approx = outputs(circuit, patterns);
                ErrorState::new(metric, weights(circuit), golden.clone(), &approx)
            })
            .collect()
    }

    /// Error of `circuit` over the whole set (chunks are equally sized).
    fn error(&self, metric: MetricKind, circuit: &Aig) -> f64 {
        let states = self.states(metric, circuit);
        states.iter().map(ErrorState::error).sum::<f64>() / states.len() as f64
    }
}

/// One synthesis input — circuit and flow configuration — with the
/// reference simulations the oracle compares results against.
pub struct Instance {
    /// Name used in the report (`<circuit>/<metric>#<k>`).
    pub label: String,
    /// The circuit handed to the flow.
    pub original: Aig,
    /// The configuration handed to the flow.
    pub cfg: FlowConfig,
    /// Seed of the holdout set; always differs from the flow's seed.
    pub holdout_seed: u64,
    /// Seconds spent on `Simulator::new` plus the golden `ErrorState` on
    /// the flow's pattern set — the simulation set-up every run starts
    /// with.
    pub sim_setup_s: f64,
    in_sample: Reference,
    holdout: Reference,
    exact: Option<Arc<Reference>>,
}

impl Instance {
    /// Builds the instance and its references: the flow's own pattern set
    /// (the one `Flow::run` draws from `cfg.seed`), a holdout set, and the
    /// shared exhaustive set when the circuit has one.
    pub fn new(
        label: String,
        original: Aig,
        cfg: FlowConfig,
        holdout_seed: u64,
        exact: Option<Arc<Reference>>,
    ) -> Instance {
        let n = original.num_inputs();
        let start = Instant::now();
        let in_sample =
            Reference::new(&original, vec![PatternSet::random(n, cfg.pattern_words(), cfg.seed)]);
        let golden = &in_sample.chunks[0].1;
        let state = ErrorState::new(cfg.metric, weights(&original), golden.clone(), golden);
        debug_assert_eq!(state.error(), 0.0);
        let sim_setup_s = start.elapsed().as_secs_f64();
        let holdout_seed = if holdout_seed == cfg.seed { holdout_seed ^ 1 } else { holdout_seed };
        let holdout = Reference::new(
            &original,
            vec![PatternSet::random(n, HOLDOUT_PATTERNS / 64, holdout_seed)],
        );
        Instance { label, original, cfg, holdout_seed, sim_setup_s, in_sample, holdout, exact }
    }

    /// Error bound of the instance.
    pub fn bound(&self) -> f64 {
        self.cfg.error_bound
    }

    /// Checks one result; `Err` says why it is wrong.
    pub fn check(&self, circuit: &Aig, reported_error: f64) -> Result<(), String> {
        check::check(circuit).map_err(|e| format!("{}: broken circuit: {e}", self.label))?;
        if circuit.num_inputs() != self.original.num_inputs()
            || circuit.num_outputs() != self.original.num_outputs()
        {
            return Err(format!("{}: interface changed", self.label));
        }
        let measured = self.in_sample.error(self.cfg.metric, circuit);
        if (measured - reported_error).abs() > REL_TOL * (1.0 + measured.abs()) {
            return Err(format!(
                "{}: reported error {reported_error} but re-simulation gives {measured}",
                self.label
            ));
        }
        if measured > self.bound() * (1.0 + REL_TOL) {
            return Err(format!("{}: error {measured} exceeds bound {}", self.label, self.bound()));
        }
        Ok(())
    }

    /// Quality of a result that passed [`Instance::check`].
    pub fn quality(&self, circuit: &Aig) -> Quality {
        let metric = self.cfg.metric;
        let with_ci = |r: &Reference| {
            let s = &r.states(metric, circuit)[0];
            (s.error(), s.confidence_interval())
        };
        Quality {
            bound: self.bound(),
            adp_ratio: adp_ratio(circuit, &self.original, &CellLibrary::new()),
            in_sample: with_ci(&self.in_sample),
            holdout: with_ci(&self.holdout),
            exact: self.exact.as_ref().map(|r| r.error(metric, circuit)),
        }
    }
}

/// Out-of-sample quality of one result. Errors are in the metric's units;
/// the `*_ratio` accessors divide by the bound.
pub struct Quality {
    /// Error bound of the run.
    pub bound: f64,
    /// Approximate ADP over original ADP.
    pub adp_ratio: f64,
    /// Error on the flow's own patterns, with its ~95 % interval.
    pub in_sample: (f64, (f64, f64)),
    /// Error on the holdout set, with its ~95 % interval.
    pub holdout: (f64, (f64, f64)),
    /// Error over every input pattern, when the circuit is narrow enough.
    pub exact: Option<f64>,
}

impl Quality {
    /// Holdout error over the bound.
    pub fn holdout_ratio(&self) -> f64 {
        self.holdout.0 / self.bound
    }

    /// The report entry: every error with its interval, in metric units.
    pub fn to_json(&self) -> Json {
        let interval = |(e, (lo, hi)): (f64, (f64, f64))| {
            Json::obj().with("error", e).with("ci95_lo", lo).with("ci95_hi", hi)
        };
        let exact = match self.exact {
            Some(e) => Json::Num(e),
            None => Json::Str(format!("n/a (more than {EXACT_MAX_INPUTS} inputs)")),
        };
        Json::obj()
            .with("bound", self.bound)
            .with("adp_ratio", self.adp_ratio)
            .with("in_sample", interval(self.in_sample))
            .with("holdout", interval(self.holdout))
            .with("holdout_patterns", HOLDOUT_PATTERNS)
            .with("exact", exact)
    }
}

/// The canonical bytes of a circuit, compared across repetitions.
pub fn circuit_bytes(aig: &Aig) -> String {
    io::to_ascii_string(aig)
}

/// Output weights of MED and MSE (ER ignores them), as the flows use.
fn weights(original: &Aig) -> Vec<f64> {
    unsigned_weights(original.num_outputs())
}

fn outputs(aig: &Aig, patterns: &PatternSet) -> Vec<PackedBits> {
    let sim = Simulator::new(aig, patterns);
    (0..aig.num_outputs()).map(|o| sim.output_value(aig, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dualphase_als::prelude::*;

    fn instance() -> Instance {
        let original = dualphase_als::circuits::arith::ripple_adder(6);
        let cfg = FlowConfig::builder(MetricKind::Med, 2.0).patterns(512).seed(7).build().unwrap();
        let exact = Reference::exhaustive(&original).map(Arc::new);
        Instance::new("adder6".into(), original, cfg, 7, exact)
    }

    /// Inverts the first output literal by editing the ASCII AIGER text.
    fn invert_first_output(aig: &Aig) -> Aig {
        let text = circuit_bytes(aig);
        let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
        let header: Vec<usize> =
            lines[0].split_whitespace().skip(1).map(|t| t.parse().unwrap()).collect();
        let (inputs, latches) = (header[1], header[2]);
        let out = 1 + inputs + latches;
        let lit: u32 = lines[out].trim().parse().unwrap();
        lines[out] = (lit ^ 1).to_string();
        io::from_ascii_str(&(lines.join("\n") + "\n"), "tampered").unwrap()
    }

    #[test]
    fn untouched_result_passes() {
        let inst = instance();
        let res = flows::by_name("dp", inst.cfg.clone()).unwrap().run(&inst.original).unwrap();
        inst.check(&res.circuit, res.final_error).unwrap();
        assert_eq!(inst.holdout_seed, 6, "holdout seed must differ from the flow seed");
    }

    #[test]
    fn inverted_output_literal_fails() {
        let inst = instance();
        let res = flows::by_name("dp", inst.cfg.clone()).unwrap().run(&inst.original).unwrap();
        let tampered = invert_first_output(&res.circuit);
        assert_ne!(circuit_bytes(&tampered), circuit_bytes(&res.circuit));
        let err = inst.check(&tampered, res.final_error).unwrap_err();
        assert!(err.contains("re-simulation"), "{err}");
    }

    #[test]
    fn misreported_error_fails() {
        let inst = instance();
        let res = flows::by_name("dp", inst.cfg.clone()).unwrap().run(&inst.original).unwrap();
        assert!(inst.check(&res.circuit, res.final_error * 0.5 + 1e-3).is_err());
    }

    #[test]
    fn exact_error_is_computed_for_narrow_circuits() {
        let inst = instance();
        let q = inst.quality(&inst.original);
        assert_eq!(q.exact, Some(0.0));
        assert_eq!(q.adp_ratio, 1.0);
        assert_eq!(q.holdout_ratio(), 0.0);
    }
}
