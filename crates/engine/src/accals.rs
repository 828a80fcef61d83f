//! AccALS-style multi-LAC selection baseline.

use std::collections::HashSet;

use als_aig::{Aig, NodeId};
use als_cuts::CutState;

use crate::config::FlowConfig;
use crate::context::Ctx;
use crate::error::EngineError;
use crate::flow::Flow;
use crate::guard::BudgetGuard;
use crate::report::{FlowResult, IterationRecord, Phase};
use crate::supervisor::{self, RunGovernor, StopReason};

/// AccALS accelerates the iterative flow by applying *multiple* LACs per
/// comprehensive analysis. After one full analysis, up to `multi_k`
/// candidates are taken in rank order, subject to non-interference (their
/// targets' reachable-output sets must not overlap an already-chosen
/// target's); each is validated exactly against the bound just before
/// application, because the batch estimates go stale as LACs land.
///
/// When validation shows a large deviation between the stale estimate and
/// the exact error, the batch stops early — in the worst case one LAC per
/// analysis is applied, which is the SEALS-like degeneration the paper
/// observes under the MED metric.
#[derive(Clone, Debug)]
pub struct AccAlsFlow {
    cfg: FlowConfig,
    /// Relative deviation between stale estimate and exact error above
    /// which the batch is abandoned.
    deviation_tolerance: f64,
}

impl AccAlsFlow {
    /// Creates the flow with the default deviation tolerance (25%).
    pub fn new(cfg: FlowConfig) -> AccAlsFlow {
        AccAlsFlow { cfg, deviation_tolerance: 0.25 }
    }

    /// Overrides the estimate-deviation tolerance.
    pub fn with_deviation_tolerance(mut self, tol: f64) -> AccAlsFlow {
        self.deviation_tolerance = tol.max(0.0);
        self
    }
}

impl Flow for AccAlsFlow {
    fn name(&self) -> &str {
        "AccALS"
    }

    fn run(&self, original: &Aig) -> Result<FlowResult, EngineError> {
        als_aig::check::check(original).map_err(EngineError::InvalidInput)?;
        let cfg = &self.cfg;
        crate::journal::reject_unsupported(cfg, self)?;
        let bound = cfg.error_bound;
        let mut ctx = Ctx::new(original, cfg);
        let _flow_span = ctx.obs().span("flow");
        let mut guard = BudgetGuard::new(original, cfg);
        let mut iterations = Vec::new();
        let mut first_ranking = Vec::new();
        let mut analyses = 0usize;
        let gov = RunGovernor::new(&cfg.supervise);
        let mut tripped: Option<StopReason> = None;

        'analysis: while iterations.len() < cfg.max_lacs {
            if let Some(reason) = gov.check(iterations.len()) {
                tripped = Some(reason);
                break 'analysis;
            }
            let _iter_span = ctx.obs().span("iteration");
            let _phase_span = ctx.obs().span("phase1");
            // Comprehensive analysis.
            let span = ctx.obs().span("cuts");
            let cuts = CutState::compute(&ctx.aig);
            ctx.times.cuts += span.finish();
            ctx.metrics.cut_recomputes.inc();
            let mut span = ctx.obs().span("cpm");
            let cpm = als_cpm::compute_full_with(&ctx.aig, &ctx.sim, &cuts, ctx.pool())?;
            span.count("rows", cpm.num_rows() as u64);
            ctx.times.cpm += span.finish();
            ctx.metrics.cpm_rows_built.add(cpm.num_rows() as u64);
            let span = ctx.obs().span("eval");
            let lacs = als_lac::generate(&ctx.aig, &ctx.sim, &cfg.lac, None);
            ctx.times.eval += span.finish();
            if let Some(reason) = gov.check(iterations.len()) {
                tripped = Some(reason);
                break 'analysis;
            }
            let mut evals = ctx.evaluate_lacs(&cpm, &lacs)?;
            analyses += 1;
            if first_ranking.is_empty() {
                first_ranking = Ctx::rank_targets(&evals);
            }
            evals.retain(|e| e.error_after <= bound);
            evals = guard.admissible(&evals);
            evals.sort_by(|a, b| {
                a.error_after
                    .total_cmp(&b.error_after)
                    .then(b.saving.cmp(&a.saving))
                    .then(a.lac.target.cmp(&b.lac.target))
            });
            if evals.is_empty() {
                break;
            }

            // Greedy multi-selection of non-interfering targets.
            let mut chosen: Vec<_> = Vec::new();
            let mut blocked_outputs = als_sim::PackedBits::zeros(cuts.reach().mask_words());
            let mut used_targets: HashSet<NodeId> = HashSet::new();
            for e in &evals {
                if chosen.len() >= cfg.multi_k {
                    break;
                }
                if used_targets.contains(&e.lac.target) {
                    continue;
                }
                let mask = cuts.reach().mask(e.lac.target);
                let interferes =
                    mask.words().iter().zip(blocked_outputs.words()).any(|(a, b)| a & b != 0);
                if chosen.is_empty() || !interferes {
                    blocked_outputs.or_assign(mask);
                    used_targets.insert(e.lac.target);
                    chosen.push(e.clone());
                }
            }

            // Apply the batch with exact revalidation.
            let mut applied_any = false;
            for (i, e) in chosen.iter().enumerate() {
                if let Some(reason) = gov.check(iterations.len()) {
                    tripped = Some(reason);
                    break 'analysis;
                }
                if !ctx.aig.is_live(e.lac.target) || !ctx.aig.node(e.lac.target).is_and() {
                    continue;
                }
                if let als_lac::LacKind::Substitute { sub } = e.lac.kind {
                    if !ctx.aig.is_live(sub.node()) {
                        continue;
                    }
                }
                let span = ctx.obs().span("eval");
                let exact = ctx.exact_error_of(&e.lac);
                ctx.times.eval += span.finish();
                if exact > bound {
                    break; // stale estimate no longer sound — stop the batch
                }
                // Large estimate deviation: degrade to single-LAC behaviour.
                let scale = bound.max(f64::MIN_POSITIVE);
                let deviation = (exact - e.error_after).abs() / scale;
                if i > 0 && deviation > self.deviation_tolerance {
                    break;
                }
                if guard.try_apply(&mut ctx, e)?.is_none() {
                    break; // the guard measured an overshoot — stop the batch
                }
                ctx.metrics.iterations.inc();
                iterations.push(IterationRecord {
                    lac: e.lac,
                    error_after: exact,
                    saving: e.saving,
                    nodes_after: ctx.aig.num_ands(),
                    phase: if i == 0 { Phase::Comprehensive } else { Phase::Incremental },
                    rollbacks: 0,
                });
                applied_any = true;
            }
            if !applied_any {
                break;
            }
        }

        let stop = match tripped {
            Some(reason) => reason,
            None => supervisor::natural_stop(iterations.len(), cfg.max_lacs),
        };
        ctx.metrics.note_stop(&stop, gov.elapsed());
        Ok(FlowResult {
            flow: self.name().to_string(),
            final_error: guard.final_error(&ctx),
            error_bound: bound,
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

    fn two_independent_adders() -> Aig {
        let mut aig = Aig::new("dual");
        let a = aig.add_inputs("a", 3);
        let b = aig.add_inputs("b", 3);
        let c = aig.add_inputs("c", 3);
        let d = aig.add_inputs("d", 3);
        let mut carry = als_aig::Lit::FALSE;
        for i in 0..3 {
            let (s, ca) = aig.full_adder(a[i], b[i], carry);
            aig.add_output(s, format!("x{i}"));
            carry = ca;
        }
        let mut carry2 = als_aig::Lit::FALSE;
        for i in 0..3 {
            let (s, ca) = aig.full_adder(c[i], d[i], carry2);
            aig.add_output(s, format!("y{i}"));
            carry2 = ca;
        }
        als_aig::edit::sweep_dangling(&mut aig);
        aig
    }

    #[test]
    fn bound_respected() {
        let aig = two_independent_adders();
        let cfg = FlowConfig::new(MetricKind::Med, 3.0).with_patterns(1024);
        let res = AccAlsFlow::new(cfg).run(&aig).unwrap();
        assert!(res.final_error <= 3.0 + 1e-9, "error {}", res.final_error);
        als_aig::check::check(&res.circuit).unwrap();
    }

    #[test]
    fn multi_selection_reduces_analyses() {
        let aig = two_independent_adders();
        let cfg = FlowConfig::new(MetricKind::Er, 0.6).with_patterns(1024);
        let res = AccAlsFlow::new(cfg).run(&aig).unwrap();
        if res.lacs_applied() >= 2 {
            assert!(res.comprehensive_analyses <= res.lacs_applied());
        }
    }

    #[test]
    fn zero_tolerance_still_sound() {
        let aig = two_independent_adders();
        let cfg = FlowConfig::new(MetricKind::Med, 2.0).with_patterns(512);
        let res = AccAlsFlow::new(cfg).with_deviation_tolerance(0.0).run(&aig).unwrap();
        assert!(res.final_error <= 2.0 + 1e-9);
    }
}
