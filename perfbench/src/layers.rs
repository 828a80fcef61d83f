//! Per-layer numbers of a traced run.
//!
//! Step times and span counts come from the program's JSONL span events
//! (collected in memory through an `Obs` listener for direct runs, read
//! from each job's `trace.jsonl` for the service); counters come from the
//! program's Prometheus exposition. Every number is reported per
//! operation (one `Flow::run` call or one job).

use std::collections::BTreeMap;

use dualphase_als::engine::{FlowResult, Phase};
use dualphase_als::obs::json::{self, Json};

use crate::Metrics;

/// The analysis steps of the paper, in span-name form.
const STEPS: [&str; 4] = ["cuts", "cpm", "eval", "apply"];
/// Span paths of the two phases' steps: `<prefix><step>`.
const PHASE_PREFIX: [&str; 2] = ["flow/iteration/phase1/", "flow/iteration/phase2/round/"];

/// Per-layer accumulators, summed over the traced operations.
#[derive(Default)]
pub struct Layers {
    /// Traced operations folded in.
    pub ops: usize,
    step_ns: [[u64; 4]; 2],
    cut_counts: BTreeMap<String, u64>,
    prom: BTreeMap<String, f64>,
    /// Wall time of the traced operations.
    pub wall_s: f64,
    /// Wall time of the same operations untraced (tracing-overhead base).
    pub untraced_wall_s: f64,
    lacs: f64,
    lacs_incremental: f64,
    comprehensive: f64,
    guard: [f64; 3],
    /// Simulation set-up seconds of the operations' inputs.
    pub sim_setup_s: f64,
    /// Bytes of the jobs' run journals.
    pub journal_bytes: f64,
    /// Bytes of the jobs' JSONL traces.
    pub trace_bytes: f64,
    /// Bytes of the jobs' other persisted state.
    pub state_bytes: f64,
    /// Client-side submit round trips.
    pub submit_s: f64,
    /// Time jobs waited between admission and the start of their run.
    pub queue_wait_s: f64,
    /// Time the daemon reports for the jobs' runs.
    pub run_s: f64,
    /// Job latency not spent in the run.
    pub overhead_s: f64,
}

impl Layers {
    /// Folds one JSONL span event in.
    pub fn add_span_line(&mut self, line: &str) {
        let Ok(ev) = json::parse(line) else { return };
        let (Some(path), Some(dur)) =
            (ev.get("path").and_then(Json::as_str), ev.get("dur_ns").and_then(Json::as_u64))
        else {
            return;
        };
        for (phase, prefix) in PHASE_PREFIX.iter().enumerate() {
            let Some(step) = path.strip_prefix(prefix) else { continue };
            let Some(s) = STEPS.iter().position(|&x| x == step) else { continue };
            self.step_ns[phase][s] += dur;
            if step == "cuts" {
                if let Some(Json::Obj(counts)) = ev.get("counts") {
                    for (k, v) in counts {
                        *self.cut_counts.entry(k.clone()).or_default() += v.as_u64().unwrap_or(0);
                    }
                }
            }
        }
    }

    /// Folds one Prometheus text exposition in (samples are summed).
    pub fn add_prom(&mut self, text: &str) {
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.split_whitespace();
            if let (Some(name), Some(value)) = (parts.next(), parts.next()) {
                if let Ok(v) = value.parse::<f64>() {
                    *self.prom.entry(name.to_string()).or_default() += v;
                }
            }
        }
    }

    /// Folds in the run statistics of one result.
    pub fn add_result(&mut self, res: &FlowResult) {
        self.lacs += res.iterations.len() as f64;
        self.lacs_incremental +=
            res.iterations.iter().filter(|r| r.phase == Phase::Incremental).count() as f64;
        self.comprehensive += res.comprehensive_analyses as f64;
        self.guard[0] += res.guard.validations as f64;
        self.guard[1] += res.guard.rollbacks as f64;
        self.guard[2] += res.guard.fallbacks as f64;
    }

    fn steps_s(&self) -> f64 {
        self.step_ns.iter().flatten().sum::<u64>() as f64 / 1e9
    }

    fn prom(&self, name: &str) -> f64 {
        self.prom.get(name).copied().unwrap_or(0.0)
    }

    /// Wall time not covered by the eight step spans, per operation.
    pub fn unaccounted_s(&self) -> f64 {
        (self.wall_s - self.steps_s()) / self.ops.max(1) as f64
    }

    /// Whether the step spans fit inside the wall time they were measured
    /// in (a span counted twice would break this).
    pub fn consistent(&self) -> bool {
        self.steps_s() <= self.wall_s
    }

    /// The report entry of the traced-run consistency check.
    pub fn consistency_json(&self) -> Json {
        let per_op_wall = self.wall_s / self.ops.max(1) as f64;
        let share = if per_op_wall > 0.0 { self.unaccounted_s() / per_op_wall } else { 0.0 };
        Json::obj()
            .with("steps_within_wall", self.consistent())
            .with("unaccounted_share", share)
            .with("unaccounted_over_5pct", share > 0.05)
    }

    /// Writes every per-layer metric this module owns into `m`.
    pub fn write(&self, m: &mut Metrics) {
        let ops = self.ops.max(1) as f64;
        let names = [
            ["phase1.cuts_s", "phase1.cpm_s", "phase1.eval_s", "phase1.apply_s"],
            ["phase2.cuts_s", "phase2.cpm_s", "phase2.eval_s", "phase2.apply_s"],
        ];
        for (phase, row) in names.iter().enumerate() {
            for (s, name) in row.iter().enumerate() {
                m.insert(name, self.step_ns[phase][s] as f64 / 1e9 / ops);
            }
        }
        let count = |k: &str| self.cut_counts.get(k).copied().unwrap_or(0) as f64;
        m.insert("cuts.recomputed_nodes", (count("nodes") + count("s_v")) / ops);
        m.insert("cuts.s_v", count("s_v") / ops);
        m.insert("cuts.spot_checks", count("spot_check") / ops);
        m.insert("cpm.rows_built", self.prom("als_cpm_rows_built_total") / ops);
        m.insert("cpm.rows_reused", self.prom("als_cpm_rows_reused_total") / ops);
        let lacs_evaluated = self.prom("als_lacs_evaluated_sum");
        m.insert("eval.lacs", lacs_evaluated / ops);
        m.insert(
            "eval.dedup_hit_ratio",
            ratio(self.prom("als_lac_dedup_hits_total"), lacs_evaluated),
        );
        m.insert("lacs_applied", self.lacs / ops);
        m.insert("comprehensive_analyses", self.comprehensive / ops);
        m.insert("phase2_lac_share", ratio(self.lacs_incremental, self.lacs));
        m.insert("unaccounted_s", self.unaccounted_s());
        m.insert(
            "tracing_overhead_pct",
            if self.untraced_wall_s > 0.0 {
                (self.wall_s / self.untraced_wall_s - 1.0) * 100.0
            } else {
                0.0
            },
        );
        m.insert("guard.validations", self.guard[0] / ops);
        m.insert("guard.rollbacks", self.guard[1] / ops);
        m.insert("guard.fallbacks", self.guard[2] / ops);
        m.insert("pool.regions_parallel", self.prom("als_pool_regions_total") / ops);
        m.insert("pool.regions_serial", self.prom("als_pool_serial_regions_total") / ops);
        m.insert("pool.steals", self.prom("als_sched_steals_total") / ops);
        m.insert("pool.busy_s", self.prom("als_pool_worker_busy_us_sum") / 1e6 / ops);
        m.insert(
            "pool.utilization_pct",
            ratio(
                self.prom("als_pool_utilization_pct_sum"),
                self.prom("als_pool_utilization_pct_count"),
            ),
        );
        m.insert("sim.setup_s", self.sim_setup_s / ops);
        m.insert("journal.appends", self.prom("als_journal_append_us_count") / ops);
        m.insert("journal.append_us_sum", self.prom("als_journal_append_us_sum") / ops);
        m.insert("journal.bytes", self.journal_bytes / ops);
        m.insert("trace.bytes", self.trace_bytes / ops);
        m.insert("serve.submit_s", self.submit_s / ops);
        m.insert("serve.queue_wait_s", self.queue_wait_s / ops);
        m.insert("serve.run_s", self.run_s / ops);
        m.insert("serve.overhead_s", self.overhead_s / ops);
        m.insert("serve.state_bytes", self.state_bytes / ops);
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_land_in_their_phase_and_step() {
        let mut l = Layers { ops: 1, wall_s: 1.0, ..Layers::default() };
        l.add_span_line(
            r#"{"t":"span","path":"flow/iteration/phase2/round/cuts","dur_ns":500000000,"counts":{"s_v":7,"spot_check":1}}"#,
        );
        l.add_span_line(r#"{"t":"span","path":"flow/iteration/phase1/eval","dur_ns":250000000}"#);
        l.add_span_line(r#"{"t":"span","path":"flow/iteration","dur_ns":900000000}"#);
        l.add_prom("# TYPE x counter\nals_cpm_rows_built_total 3\nals_lacs_evaluated_sum 10\n");
        l.add_prom("als_cpm_rows_built_total 4\n");
        let mut m = Metrics::new();
        l.write(&mut m);
        assert_eq!(m["phase2.cuts_s"], 0.5);
        assert_eq!(m["phase1.eval_s"], 0.25);
        assert_eq!(m["cuts.s_v"], 7.0);
        assert_eq!(m["cuts.spot_checks"], 1.0);
        assert_eq!(m["cpm.rows_built"], 7.0);
        assert_eq!(m["unaccounted_s"], 0.25);
        assert!(l.consistent());
    }
}
