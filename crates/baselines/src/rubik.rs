//! Rubik (Kasture et al., MICRO 2015), as characterized by the DeepPower
//! paper's related work (§6):
//!
//! "Rubik goes ahead by modeling the latency distribution. In order to
//! avoid SLA violation, Rubik takes the tail of the distribution as the
//! predicted latency. Considering the long-tailed distribution of request
//! service times, this prediction is overestimated."
//!
//! The governor is therefore **feature-free and conservative**: it learns
//! the empirical service-time distribution from profiling data, uses a
//! high quantile (p99 by default) as every request's predicted service
//! time, and — like ReTail — walks the frequency levels from low to high
//! until the (over-)prediction fits the request's remaining budget.
//! Against DeepPower this is the "statistical tail planning" point in the
//! design space: safe, simple, and systematically over-provisioned for
//! the short requests that dominate the workload.

use crate::profile::ProfileSample;
use deeppower_simd_server::{FreqCommands, FreqPlan, Governor, Request, ServerView};

/// Rubik tuning knobs.
#[derive(Clone, Copy, Debug)]
pub struct RubikConfig {
    /// Quantile of the profiled service-time distribution used as the
    /// per-request prediction (the paper: "the tail of the distribution").
    pub quantile: f64,
    /// Fraction of the SLA the backlog ahead of a queued request may
    /// consume before the dequeue frequency is raised (same queue guard
    /// as ReTail, so the comparison isolates the prediction policy).
    pub queue_budget_frac: f64,
}

impl Default for RubikConfig {
    fn default() -> Self {
        Self {
            quantile: 0.99,
            queue_budget_frac: 0.2,
        }
    }
}

/// The Rubik governor.
pub struct RubikGovernor {
    /// Tail service-time estimate at the reference frequency, ns.
    tail_pred_ns: f64,
    /// Mean service time (backlog estimates), ns.
    mean_ns: f64,
    plan: FreqPlan,
    cfg: RubikConfig,
}

impl RubikGovernor {
    /// Fit the empirical distribution from profiling samples.
    pub fn train(samples: &[ProfileSample], plan: FreqPlan, cfg: RubikConfig) -> Self {
        assert!(
            !samples.is_empty(),
            "cannot train Rubik on an empty profile"
        );
        assert!(
            (0.5..1.0).contains(&cfg.quantile),
            "quantile must be in [0.5, 1)"
        );
        let mut times: Vec<f64> = samples.iter().map(|s| s.service_ns).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let rank = ((cfg.quantile * times.len() as f64).ceil() as usize).clamp(1, times.len());
        let tail_pred_ns = times[rank - 1];
        let mean_ns = times.iter().sum::<f64>() / times.len() as f64;
        Self {
            tail_pred_ns,
            mean_ns,
            plan,
            cfg,
        }
    }

    /// The tail estimate used for every request.
    pub fn tail_prediction_ns(&self) -> f64 {
        self.tail_pred_ns
    }

    fn select_freq(&self, view: &ServerView<'_>, req: &Request) -> u32 {
        let budget = (req.arrival + req.sla).saturating_sub(view.now) as f64;
        let n_cores = view.cores.len().max(1) as f64;
        let backlog_ref = view.queue.len() as f64 * self.mean_ns / n_cores;
        let queue_budget = req.sla as f64 * self.cfg.queue_budget_frac;
        for &level in &self.plan.levels_mhz {
            let scale = self.plan.reference_mhz as f64 / level as f64;
            if self.tail_pred_ns * scale <= budget && backlog_ref * scale <= queue_budget {
                return level;
            }
        }
        self.plan.turbo_mhz
    }
}

impl Governor for RubikGovernor {
    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        cmds.set(core_id, self.select_freq(view, req));
    }

    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        for (i, core) in view.cores.iter().enumerate() {
            if !core.busy() {
                cmds.set(i, self.plan.min_mhz());
            }
        }
    }

    fn name(&self) -> &str {
        "rubik"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::collect_profile;
    use crate::retail::{RetailConfig, RetailGovernor};
    use deeppower_workload::{App, AppSpec};

    fn profiled(spec: &AppSpec) -> Vec<ProfileSample> {
        collect_profile(spec, 0.3, 2, 71)
    }

    #[test]
    fn tail_prediction_exceeds_mean_substantially() {
        let spec = AppSpec::get(App::Xapian);
        let samples = profiled(&spec);
        let gov = RubikGovernor::train(
            &samples,
            FreqPlan::xeon_gold_5218r(),
            RubikConfig::default(),
        );
        let mean = samples.iter().map(|s| s.service_ns).sum::<f64>() / samples.len() as f64;
        // "the prediction is overestimated" — tail over mean by the
        // long-tail factor (~3x for Xapian).
        assert!(gov.tail_prediction_ns() > 2.0 * mean);
    }

    #[test]
    fn rubik_overprovisions_short_requests_under_tight_budgets() {
        // §6's critique at the decision level: for a *short* request (small
        // observable feature) with a tight remaining budget, ReTail sizes
        // the frequency to the request's own (small) prediction, while
        // Rubik sizes it to the distribution tail — a strictly higher
        // frequency. Whole-run power differences can drown in queue-guard
        // noise, so the decision itself is what we pin down.
        let spec = AppSpec::get(App::Xapian);
        let samples = profiled(&spec);
        let plan = FreqPlan::xeon_gold_5218r();
        let rubik = RubikGovernor::train(&samples, plan.clone(), RubikConfig::default());
        let retail = RetailGovernor::train(&samples, plan, RetailConfig::default());

        let cores: Vec<deeppower_simd_server::CoreView> = Vec::new();
        let queue = std::collections::VecDeque::new();
        // 3 ms of budget left out of the 8 ms SLA.
        let view = ServerView {
            now: 5_000_000,
            queue: &queue,
            cores: &cores,
            total_arrived: 0,
            total_completed: 0,
            total_timeouts: 0,
            total_shed: 0,
            total_wasted: 0,
            energy_uj: 0,
        };
        let short_req = deeppower_simd_server::Request {
            id: 0,
            client_id: 0,
            attempt: 0,
            arrival: 0,
            first_arrival: 0,
            work_ref_ns: 0,
            freq_sensitivity: 1.0,
            sla: 8_000_000,
            features: 0.3.into(), // well below the mean size
        };
        let f_rubik = rubik.select_freq(&view, &short_req);
        let f_retail = retail_freq(&retail, &view, &short_req);
        assert!(
            f_rubik > f_retail,
            "rubik must over-clock a short request vs retail: {f_rubik} vs {f_retail}"
        );
        // And Rubik treats *every* request identically (feature-free).
        let long_req = deeppower_simd_server::Request {
            features: 4.0.into(),
            ..short_req
        };
        assert_eq!(rubik.select_freq(&view, &long_req), f_rubik);
    }

    /// ReTail's selection via its public interface (a one-shot run of the
    /// `on_request_start` hook).
    fn retail_freq(
        gov: &RetailGovernor,
        view: &ServerView<'_>,
        req: &deeppower_simd_server::Request,
    ) -> u32 {
        // The governor exposes prediction; replicate its level walk
        // through the same public pieces it uses.
        let plan = FreqPlan::xeon_gold_5218r();
        let pred = gov.predict_ns(&req.features) * RetailConfig::default().margin;
        let budget = (req.arrival + req.sla).saturating_sub(view.now) as f64;
        for &level in &plan.levels_mhz {
            let scale = plan.reference_mhz as f64 / level as f64;
            if pred * scale <= budget {
                return level;
            }
        }
        plan.turbo_mhz
    }

    #[test]
    fn quantile_bounds_enforced() {
        let spec = AppSpec::get(App::Masstree);
        let samples = profiled(&spec);
        let bad = RubikConfig {
            quantile: 1.5,
            ..Default::default()
        };
        let res = std::panic::catch_unwind(|| {
            RubikGovernor::train(&samples, FreqPlan::xeon_gold_5218r(), bad)
        });
        assert!(res.is_err());
    }
}
