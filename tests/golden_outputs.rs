//! Golden outputs: the dual-phase flow's synthesized circuits are pinned by
//! a hash of their ASCII AIGER text, so a refactor of any analysis layer
//! (cuts, CPM, evaluation) that claims "outputs unchanged" is checked byte
//! for byte rather than by bound compliance alone.
//!
//! The hashes were recorded before the disjoint-cut sweep was rewritten;
//! a mismatch means a synthesized circuit changed. If a change is meant to
//! alter outputs, re-record the table from the failure message and say why
//! in the change log.

use dualphase_als::circuits::{benchmark, BenchmarkScale};
use dualphase_als::engine::{DualPhaseFlow, Flow, FlowConfig};
use dualphase_als::error::{paper_thresholds, MetricKind};

/// FNV-1a, 64 bit: a stable, dependency-free content hash.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325u64, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// `(circuit, metric, expected hash)`, DP at the median paper bound, 1024
/// patterns, seed 13, one thread.
const GOLDEN: [(&str, MetricKind, u64); 10] = [
    ("c880", MetricKind::Er, 0xcfee4f6c9108de8a),
    ("c880", MetricKind::Med, 0x2ef69fbdb9e756de),
    ("c880", MetricKind::Mse, 0x3729b5c26cce90f5),
    ("adder", MetricKind::Er, 0x7ff64a6448854e4f),
    ("adder", MetricKind::Med, 0x392c85b45f3194e1),
    ("adder", MetricKind::Mse, 0xbd86f8d29a7214b3),
    ("c1908", MetricKind::Er, 0x4edd9b1b529e0751),
    ("c1908", MetricKind::Med, 0xb33f19f60d5565da),
    ("c1908", MetricKind::Mse, 0x10bc27f0cf85ff70),
    ("sm9x8", MetricKind::Med, 0x1d05af4f19966efe),
];

#[test]
fn dual_phase_outputs_match_recorded_hashes() {
    let mut mismatches = Vec::new();
    let mut table = String::new();
    for (name, metric, expected) in GOLDEN {
        let original = benchmark(name, BenchmarkScale::Reduced);
        let bound = paper_thresholds(metric, original.num_outputs())[1];
        let cfg = FlowConfig::new(metric, bound).with_patterns(1024).with_seed(13).with_threads(1);
        let res = DualPhaseFlow::new(cfg).run(&original).unwrap();
        let text = dualphase_als::aig::io::to_ascii_string(&res.circuit);
        let got = fnv1a(text.as_bytes());
        table.push_str(&format!("    (\"{name}\", MetricKind::{metric:?}, {got:#018x}),\n"));
        if got != expected {
            mismatches.push(format!("{name}/{metric:?}: {got:#018x} != {expected:#018x}"));
        }
    }
    assert!(mismatches.is_empty(), "outputs changed: {mismatches:?}\nactual table:\n{table}");
}
