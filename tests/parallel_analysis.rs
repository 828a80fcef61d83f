//! Parallel analysis must be byte-identical to serial analysis.
//!
//! The worker pool's determinism guarantee (chunk-ordered joins over pure
//! per-item computations) is checked end to end here: random circuits via
//! proptest for the pooled analysis steps (CPM, partial CPM, simulation)
//! at thread counts {1, 2, 7}, and a
//! whole dual-phase run compared at 1 vs 4 threads — same LAC sequence,
//! same final error, same serialized circuit.

use proptest::prelude::*;

use dualphase_als::aig::{Aig, Lit};
use dualphase_als::cuts::CutState;
use dualphase_als::par::{SchedConfig, WorkerPool};
use dualphase_als::sim::{PatternSet, Simulator};

/// A pool that always fans out when it can: the adaptive scheduler would
/// correctly keep these small test inputs serial (especially on few-core CI
/// hosts), which would make the byte-identity comparison vacuous.
fn forced_pool(threads: usize) -> WorkerPool {
    WorkerPool::with_config(threads, SchedConfig::forced())
}

/// Operation encoding for random circuit construction (mirrors props.rs).
#[derive(Clone, Debug)]
struct Op {
    kind: u8,
    a: u16,
    b: u16,
    c: u16,
}

fn arb_ops() -> impl Strategy<Value = (usize, Vec<Op>, u8)> {
    (
        4usize..8,
        proptest::collection::vec(
            (0u8..5, any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(kind, a, b, c)| Op {
                kind,
                a,
                b,
                c,
            }),
            5..60,
        ),
        1u8..4,
    )
}

fn build_circuit(num_inputs: usize, ops: &[Op], num_outputs: u8) -> Aig {
    let mut aig = Aig::new("random");
    let mut sigs: Vec<Lit> = aig.add_inputs("x", num_inputs);
    for op in ops {
        let pick = |sel: u16, sigs: &[Lit]| {
            let lit = sigs[sel as usize % sigs.len()];
            lit.xor_complement(sel & 0x100 != 0)
        };
        let la = pick(op.a, &sigs);
        let lb = pick(op.b, &sigs);
        let lc = pick(op.c, &sigs);
        let out = match op.kind {
            0 => aig.and(la, lb),
            1 => aig.or(la, lb),
            2 => aig.xor(la, lb),
            3 => aig.mux(la, lb, lc),
            _ => aig.maj(la, lb, lc),
        };
        sigs.push(out);
    }
    let n = sigs.len();
    for (k, &lit) in sigs[n.saturating_sub(num_outputs as usize)..].iter().enumerate() {
        aig.add_output(lit.xor_complement(k % 2 == 1), format!("o{k}"));
    }
    dualphase_als::aig::edit::sweep_dangling(&mut aig);
    aig
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 7];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn parallel_cpm_is_bit_identical((ni, ops, no) in arb_ops()) {
        let aig = build_circuit(ni, &ops, no);
        let patterns = PatternSet::random(aig.num_inputs(), 4, 21);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let serial = dualphase_als::cpm::compute_full(&aig, &sim, &cuts).unwrap();
        for threads in THREAD_COUNTS {
            let par = dualphase_als::cpm::compute_full_with(
                &aig, &sim, &cuts, &forced_pool(threads),
            ).unwrap();
            for n in aig.iter_live() {
                prop_assert_eq!(
                    serial.row(n), par.row(n), "row of {} at {} threads", n, threads
                );
            }
        }
    }

    #[test]
    fn parallel_partial_cpm_is_bit_identical(
        (ni, ops, no) in arb_ops(),
        cand_picks in proptest::collection::vec(any::<u16>(), 1..5),
    ) {
        let aig = build_circuit(ni, &ops, no);
        let ands: Vec<_> = aig.iter_ands().collect();
        if ands.is_empty() {
            return Ok(());
        }
        let s_cand: Vec<_> = cand_picks.iter().map(|&p| ands[p as usize % ands.len()]).collect();
        let patterns = PatternSet::random(aig.num_inputs(), 4, 22);
        let sim = Simulator::new(&aig, &patterns);
        let cuts = CutState::compute(&aig);
        let (serial, serial_closure) =
            dualphase_als::cpm::compute_partial(&aig, &sim, &cuts, &s_cand).unwrap();
        for threads in THREAD_COUNTS {
            let (par, par_closure) = dualphase_als::cpm::compute_partial_with(
                &aig, &sim, &cuts, &s_cand, &forced_pool(threads),
            ).unwrap();
            prop_assert_eq!(serial_closure, par_closure);
            for n in aig.iter_live() {
                prop_assert_eq!(serial.row(n), par.row(n), "row of {} at {} threads", n, threads);
            }
        }
    }

    #[test]
    fn parallel_simulation_is_bit_identical((ni, ops, no) in arb_ops()) {
        let aig = build_circuit(ni, &ops, no);
        let patterns = PatternSet::random(aig.num_inputs(), 4, 23);
        let serial = Simulator::new(&aig, &patterns);
        for threads in THREAD_COUNTS {
            let par = Simulator::new_with(&aig, &patterns, &forced_pool(threads));
            for n in aig.iter_live() {
                prop_assert_eq!(
                    serial.value(n), par.value(n), "value of {} at {} threads", n, threads
                );
            }
        }
    }
}

/// An entire dual-phase run is deterministic in the thread count: the same
/// LAC sequence, the same final error and the same serialized circuit.
#[test]
fn dual_phase_run_is_identical_at_any_thread_count() {
    use dualphase_als::engine::{DualPhaseFlow, Flow, FlowConfig};
    use dualphase_als::error::MetricKind;

    let aig = dualphase_als::circuits::benchmark(
        "adder",
        dualphase_als::circuits::BenchmarkScale::Reduced,
    );
    let cfg = |threads| {
        FlowConfig::new(MetricKind::Med, 4.0)
            .with_patterns(1024)
            .with_threads(threads)
            .with_sched(SchedConfig::forced())
    };
    let serial = DualPhaseFlow::with_self_adaption(cfg(1)).run(&aig).unwrap();
    let par = DualPhaseFlow::with_self_adaption(cfg(4)).run(&aig).unwrap();
    assert_eq!(serial.iterations.len(), par.iterations.len());
    for (a, b) in serial.iterations.iter().zip(&par.iterations) {
        assert_eq!(a.lac, b.lac);
        assert_eq!(a.error_after, b.error_after);
        assert_eq!(a.saving, b.saving);
    }
    assert_eq!(serial.final_error, par.final_error);
    assert_eq!(
        dualphase_als::aig::io::to_ascii_string(&serial.circuit),
        dualphase_als::aig::io::to_ascii_string(&par.circuit),
        "serialized circuits diverge between 1 and 4 threads"
    );
}
