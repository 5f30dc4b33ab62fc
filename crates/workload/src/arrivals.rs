//! Arrival generation: turning a rate function into concrete requests.
//!
//! Constant-rate arrivals are a homogeneous Poisson process (the
//! assumption of prior work the paper critiques in §4.3); trace-driven
//! arrivals are a non-homogeneous Poisson process generated by thinning
//! against the trace's peak rate.

use crate::apps::AppSpec;
use crate::distributions::Exponential;
use crate::diurnal::DiurnalTrace;
use deeppower_simd_server::{Nanos, Request, SECOND};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// Generate `duration_ns` of homogeneous Poisson arrivals at `rps` for the
/// given application.
pub fn constant_rate_arrivals(
    spec: &AppSpec,
    rps: f64,
    duration_ns: Nanos,
    seed: u64,
) -> Vec<Request> {
    assert!(rps > 0.0, "rps must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let inter = Exponential::new(rps / SECOND as f64); // events per ns
    let mut out = Vec::with_capacity((rps * duration_ns as f64 / SECOND as f64) as usize + 16);
    let mut t = 0.0f64;
    let mut id = 0u64;
    loop {
        t += inter.sample(&mut rng);
        let arrival = t as Nanos;
        if arrival >= duration_ns {
            break;
        }
        out.push(spec.sample_request(&mut rng, id, arrival));
        id += 1;
    }
    out
}

/// Generate non-homogeneous Poisson arrivals following `trace` for the
/// given application (thinning algorithm: candidate events at the peak
/// rate, accepted with probability `λ(t)/λ_max`).
pub fn trace_arrivals(spec: &AppSpec, trace: &DiurnalTrace, seed: u64) -> Vec<Request> {
    let lambda_max = trace.max_rps();
    assert!(lambda_max > 0.0, "trace has zero rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let inter = Exponential::new(lambda_max / SECOND as f64);
    let duration = trace.duration_ns();
    let mut out = Vec::new();
    let mut t = 0.0f64;
    let mut id = 0u64;
    loop {
        t += inter.sample(&mut rng);
        let arrival = t as Nanos;
        if arrival >= duration {
            break;
        }
        let accept: f64 = rng.random();
        if accept < trace.rps_at(arrival) / lambda_max {
            out.push(spec.sample_request(&mut rng, id, arrival));
            id += 1;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::App;
    use crate::diurnal::DiurnalConfig;

    #[test]
    fn constant_rate_count_matches_expectation() {
        let spec = AppSpec::get(App::Xapian);
        let reqs = constant_rate_arrivals(&spec, 1000.0, 10 * SECOND, 1);
        // Poisson(10_000): ±4σ ≈ ±400.
        assert!(
            (9_600..10_400).contains(&reqs.len()),
            "unexpected arrival count {}",
            reqs.len()
        );
    }

    #[test]
    fn arrivals_sorted_and_ids_sequential() {
        let spec = AppSpec::get(App::Masstree);
        let reqs = constant_rate_arrivals(&spec, 500.0, 5 * SECOND, 2);
        assert!(reqs.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival < 5 * SECOND);
        }
    }

    #[test]
    fn trace_arrivals_follow_rate_shape() {
        let spec = AppSpec::get(App::Xapian);
        let trace = DiurnalTrace::from_samples(
            SECOND,
            // 10 s low, 10 s high.
            [vec![200.0; 10], vec![2000.0; 10]].concat(),
        );
        let reqs = trace_arrivals(&spec, &trace, 3);
        let low = reqs.iter().filter(|r| r.arrival < 10 * SECOND).count();
        let high = reqs.iter().filter(|r| r.arrival >= 10 * SECOND).count();
        assert!(
            high as f64 / low.max(1) as f64 > 6.0,
            "rate shape not followed: low={low} high={high}"
        );
    }

    #[test]
    fn trace_arrivals_total_near_trace_integral() {
        let spec = AppSpec::get(App::Xapian);
        let trace = DiurnalTrace::generate(
            &DiurnalConfig {
                period_s: 60,
                base_rps: 500.0,
                ..Default::default()
            },
            4,
        );
        let reqs = trace_arrivals(&spec, &trace, 5);
        let expected: f64 = trace.samples().iter().sum(); // slot = 1 s
        let got = reqs.len() as f64;
        assert!(
            (got - expected).abs() / expected < 0.1,
            "count {got} vs trace integral {expected}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let spec = AppSpec::get(App::Moses);
        let a = constant_rate_arrivals(&spec, 100.0, SECOND, 9);
        let b = constant_rate_arrivals(&spec, 100.0, SECOND, 9);
        assert_eq!(a, b);
        let c = constant_rate_arrivals(&spec, 100.0, SECOND, 10);
        assert_ne!(a, c);
    }
}
