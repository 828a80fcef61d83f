//! The conventional single-LAC-per-iteration flow (enhanced VECBEE,
//! `l = ∞`).

use als_aig::Aig;
use als_cuts::CutState;

use crate::config::FlowConfig;
use crate::context::Ctx;
use crate::error::EngineError;
use crate::flow::Flow;
use crate::guard::BudgetGuard;
use crate::report::{FlowResult, IterationRecord, Phase};
use crate::supervisor::{self, RunGovernor, StopReason};

/// One comprehensive analysis per applied LAC: full disjoint cuts, full
/// CPM, all candidate LACs evaluated, the best applied. Exact error
/// estimation throughout — the quality reference every acceleration is
/// measured against.
#[derive(Clone, Debug)]
pub struct ConventionalFlow {
    cfg: FlowConfig,
}

impl ConventionalFlow {
    /// Creates the flow.
    pub fn new(cfg: FlowConfig) -> ConventionalFlow {
        ConventionalFlow { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &FlowConfig {
        &self.cfg
    }
}

impl Flow for ConventionalFlow {
    fn name(&self) -> &str {
        "Conventional(l=inf)"
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        als_aig::check::check(original).map_err(EngineError::InvalidInput)?;
        let cfg = &self.cfg;
        crate::journal::reject_unsupported(cfg, self)?;
        let mut ctx = Ctx::new(original, cfg);
        let _flow_span = ctx.obs().span("flow");
        let mut guard = BudgetGuard::new(original, cfg);
        let mut iterations = Vec::new();
        let mut first_ranking = Vec::new();
        let mut analyses = 0usize;
        let gov = RunGovernor::new(&cfg.supervise);
        let mut tripped: Option<StopReason> = None;

        while iterations.len() < cfg.max_lacs {
            if let Some(reason) = gov.check(iterations.len()) {
                tripped = Some(reason);
                break;
            }
            let _iter_span = ctx.obs().span("iteration");
            let _phase_span = ctx.obs().span("phase1");
            // Step 1: disjoint cuts (full recomputation — this is the
            // "conventional" cost the dual-phase flow removes).
            let mut span = ctx.obs().span("cuts");
            span.count("nodes", ctx.aig.num_ands() as u64);
            let cuts = CutState::compute(&ctx.aig);
            ctx.times.cuts += span.finish();
            ctx.metrics.cut_recomputes.inc();

            // Step 2: full CPM.
            let mut span = ctx.obs().span("cpm");
            let cpm = als_cpm::compute_full_with(&ctx.aig, &ctx.sim, &cuts, ctx.pool())?;
            span.count("rows", cpm.num_rows() as u64);
            ctx.times.cpm += span.finish();
            ctx.metrics.cpm_rows_built.add(cpm.num_rows() as u64);

            // Step 3: all candidate LACs.
            let span = ctx.obs().span("eval");
            let lacs = als_lac::generate(&ctx.aig, &ctx.sim, &cfg.lac, None);
            ctx.times.eval += span.finish();
            if let Some(reason) = gov.check(iterations.len()) {
                tripped = Some(reason);
                break;
            }
            let evals = ctx.evaluate_lacs(&cpm, &lacs)?;
            analyses += 1;
            if first_ranking.is_empty() {
                first_ranking = Ctx::rank_targets(&evals);
            }

            let Some(applied) = guard.select_apply(&mut ctx, &evals, cfg.selection)? else {
                break;
            };
            ctx.metrics.iterations.inc();
            iterations.push(IterationRecord {
                lac: applied.eval.lac,
                error_after: applied.eval.error_after,
                saving: applied.eval.saving,
                nodes_after: ctx.aig.num_ands(),
                phase: Phase::Comprehensive,
                rollbacks: applied.rollbacks,
            });
        }

        let stop = match tripped {
            Some(reason) => reason,
            None => supervisor::natural_stop(iterations.len(), cfg.max_lacs),
        };
        ctx.metrics.note_stop(&stop, gov.elapsed());
        Ok(FlowResult {
            flow: self.name().to_string(),
            final_error: guard.final_error(&ctx),
            error_bound: cfg.error_bound,
            iterations,
            runtime: ctx.elapsed(),
            step_times: ctx.times,
            comprehensive_analyses: analyses,
            first_ranking,
            error_report: ctx.report(),
            comprehensive_time: ctx.elapsed(),
            incremental_time: std::time::Duration::ZERO,
            guard: guard.stats(),
            stop,
            circuit: ctx.aig,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use als_error::MetricKind;

    fn adder() -> Aig {
        // small hand-rolled 3-bit adder to avoid a circular dev-dependency
        let mut aig = Aig::new("add3");
        let a = aig.add_inputs("a", 3);
        let b = aig.add_inputs("b", 3);
        let mut carry = als_aig::Lit::FALSE;
        let mut outs = Vec::new();
        for i in 0..3 {
            let (s, c) = aig.full_adder(a[i], b[i], carry);
            outs.push(s);
            carry = c;
        }
        outs.push(carry);
        for (i, &o) in outs.iter().enumerate() {
            aig.add_output(o, format!("s{i}"));
        }
        aig
    }

    #[test]
    fn zero_bound_applies_only_free_lacs() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Er, 0.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert_eq!(res.final_error, 0.0);
        // any applied LAC must have been error-free
        for it in &res.iterations {
            assert_eq!(it.error_after, 0.0);
        }
    }

    #[test]
    fn bounded_run_respects_bound_and_saves_area() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 2.0 + 1e-9, "error {}", res.final_error);
        assert!(res.final_nodes() < aig.num_ands(), "no area saved");
        assert!(!res.iterations.is_empty());
        assert!(res.comprehensive_analyses >= res.lacs_applied());
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn monotone_bounds_monotone_quality() {
        let aig = adder();
        let loose = ConventionalFlow::new(FlowConfig::new(MetricKind::Med, 4.0).with_patterns(512))
            .run(&aig)
            .unwrap();
        let tight = ConventionalFlow::new(FlowConfig::new(MetricKind::Med, 0.5).with_patterns(512))
            .run(&aig)
            .unwrap();
        assert!(loose.final_nodes() <= tight.final_nodes());
    }

    #[test]
    fn first_ranking_is_populated() {
        let aig = adder();
        let cfg = FlowConfig::new(MetricKind::Med, 1.0).with_patterns(512);
        let res = ConventionalFlow::new(cfg).run(&aig).unwrap();
        assert!(!res.first_ranking.is_empty());
    }
}
