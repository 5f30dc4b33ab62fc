//! Offline profiling: the training data for the predictor baselines.
//!
//! ReTail and Gemini both learn `features → service time` from data
//! collected at a fixed load (§2.2, §3.1). [`collect_profile`] reproduces
//! that procedure: run the application at a constant request rate with all
//! cores pinned at the reference frequency, and record each request's
//! observed *processing* time (start → completion, which is what a
//! server-side profiler sees) alongside its observable features.
//!
//! Because processing time includes the load-dependent contention
//! inflation, a model fitted at load *i* systematically mispredicts load
//! *j* — the Fig. 2 effect the motivation section quantifies.

use deeppower_simd_server::SECOND;
use deeppower_simd_server::{
    FixedFrequency, FreqCommands, Governor, Nanos, Request, RunOptions, Server, ServerConfig,
    ServerView,
};
use deeppower_workload::{constant_rate_arrivals, AppSpec};

/// One profiling observation.
#[derive(Clone, Debug, PartialEq)]
pub struct ProfileSample {
    pub features: Vec<f32>,
    /// Observed processing time (dequeue → completion) in nanoseconds.
    pub service_ns: f64,
}

/// A governor wrapper that records `(features, processing time)` pairs
/// while delegating frequency control.
struct RecordingGovernor<G> {
    inner: G,
    starts: Vec<Option<(Nanos, Vec<f32>)>>,
    samples: Vec<ProfileSample>,
}

impl<G: Governor> Governor for RecordingGovernor<G> {
    fn on_tick(&mut self, view: &ServerView<'_>, cmds: &mut FreqCommands) {
        self.inner.on_tick(view, cmds);
    }

    fn on_request_start(
        &mut self,
        view: &ServerView<'_>,
        core_id: usize,
        req: &Request,
        cmds: &mut FreqCommands,
    ) {
        self.starts[core_id] = Some((view.now, req.features.to_vec()));
        self.inner.on_request_start(view, core_id, req, cmds);
    }

    fn on_request_complete(&mut self, now: Nanos, core_id: usize, req: &Request, latency: Nanos) {
        if let Some((started, features)) = self.starts[core_id].take() {
            self.samples.push(ProfileSample {
                features,
                service_ns: (now - started) as f64,
            });
        }
        self.inner.on_request_complete(now, core_id, req, latency);
    }

    fn name(&self) -> &str {
        "recording"
    }
}

/// Collect `duration_s` seconds of profiling data for `spec` at
/// utilization `load`, with all cores at the reference frequency.
pub fn collect_profile(
    spec: &AppSpec,
    load: f64,
    duration_s: u64,
    seed: u64,
) -> Vec<ProfileSample> {
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let ref_mhz = server.config().freq_plan.reference_mhz;
    let arrivals = constant_rate_arrivals(spec, spec.rps_for_load(load), duration_s * SECOND, seed);
    let mut gov = RecordingGovernor {
        inner: FixedFrequency { mhz: ref_mhz },
        starts: vec![None; spec.n_threads],
        samples: Vec::with_capacity(arrivals.len()),
    };
    let _ = server.run(&arrivals, &mut gov, RunOptions::default());
    gov.samples
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linreg::LinReg;
    use deeppower_workload::App;

    #[test]
    fn profile_captures_every_request() {
        let spec = AppSpec::get(App::Xapian);
        let samples = collect_profile(&spec, 0.3, 2, 1);
        // 2 s at 30 % of 22.2k RPS ≈ 13k requests.
        assert!(samples.len() > 8_000, "only {} samples", samples.len());
        assert!(samples.iter().all(|s| s.service_ns > 0.0));
        assert!(samples.iter().all(|s| s.features.len() == 1));
    }

    #[test]
    fn linear_fit_on_profile_is_informative_at_same_load() {
        // The ReTail premise, tempered by the hidden variance: linreg over
        // the observable feature explains a good part of the service time
        // at a fixed load (clearly better than predicting the mean), but
        // far from all of it — the unpredictable remainder is what
        // motivates DeepPower's feature-free design.
        let spec = AppSpec::get(App::Xapian);
        let samples = collect_profile(&spec, 0.3, 3, 2);
        let xs: Vec<Vec<f32>> = samples.iter().map(|s| s.features.clone()).collect();
        let ys: Vec<f64> = samples.iter().map(|s| s.service_ns).collect();
        let model = LinReg::fit(&xs, &ys).unwrap();
        let rmse = model.rmse(&xs, &ys);
        let mean: f64 = ys.iter().sum::<f64>() / ys.len() as f64;
        let var = ys.iter().map(|y| (y - mean) * (y - mean)).sum::<f64>() / ys.len() as f64;
        let std = var.sqrt();
        assert!(
            rmse < std * 0.85,
            "model no better than the mean: rmse {rmse} vs std {std}"
        );
        assert!(
            rmse / mean < 0.7,
            "relative RMSE implausibly high: {}",
            rmse / mean
        );
    }

    #[test]
    fn higher_load_inflates_observed_service_time() {
        // The Fig. 2 driver: contention makes the same work take longer at
        // high load.
        let spec = AppSpec::get(App::Xapian);
        let low = collect_profile(&spec, 0.2, 2, 3);
        let high = collect_profile(&spec, 0.8, 2, 3);
        let mean =
            |s: &[ProfileSample]| s.iter().map(|x| x.service_ns).sum::<f64>() / s.len() as f64;
        assert!(
            mean(&high) > mean(&low) * 1.05,
            "no contention drift: {} vs {}",
            mean(&high),
            mean(&low)
        );
    }

    #[test]
    fn profile_deterministic_per_seed() {
        let spec = AppSpec::get(App::Masstree);
        let a = collect_profile(&spec, 0.3, 1, 7);
        let b = collect_profile(&spec, 0.3, 1, 7);
        assert_eq!(a, b);
    }
}
