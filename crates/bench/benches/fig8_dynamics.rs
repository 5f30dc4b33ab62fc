//! Fig. 8 — critical indicators over time while DeepPower runs Xapian:
//! RPS, power, the agent's BaseFreq / ScalingCoef actions, and the mean
//! core frequency, sampled at every DRL step (1 s).
//!
//! Paper observations to reproduce:
//! * "the variation curve of the power consumption basically matches the
//!   RPS" — power tracks load;
//! * "DeepPower raises the ScalingCoef … in high loads … and maintains
//!   BaseFreq at a moderate level";
//! * the mean frequency rises and falls with load.
//!
//! The per-second series comes from the governor's `DrlStep` telemetry
//! events — the same stream `deeppower trace` serializes — instead of
//! the in-memory `StepLog` vector, so the figure and the artifact can
//! never drift apart.

use deeppower_bench::{default_trained_policy, downsample, sparkline, Scale};
use deeppower_core::evaluate_profiled;
use deeppower_simd_server::TraceConfig;
use deeppower_telemetry::{Event, Profiler, Recorder};
use deeppower_workload::App;

fn pearson(xs: &[f64], ys: &[f64]) -> f64 {
    let n = xs.len() as f64;
    let mx = xs.iter().sum::<f64>() / n;
    let my = ys.iter().sum::<f64>() / n;
    let cov: f64 = xs.iter().zip(ys).map(|(x, y)| (x - mx) * (y - my)).sum();
    let vx: f64 = xs.iter().map(|x| (x - mx) * (x - mx)).sum();
    let vy: f64 = ys.iter().map(|y| (y - my) * (y - my)).sum();
    cov / (vx.sqrt() * vy.sqrt()).max(1e-12)
}

fn main() {
    let scale = Scale::from_env();
    let policy = default_trained_policy(App::Xapian, scale);
    let rec = Recorder::ring(1 << 16);
    let eval = evaluate_profiled(
        &policy,
        deeppower_core::train::default_peak_load(App::Xapian),
        scale.eval_s,
        999,
        TraceConfig::default(),
        &rec,
        &Profiler::disabled(),
    );
    let steps: Vec<_> = rec
        .drain_events()
        .into_iter()
        .filter_map(|ev| match ev {
            Event::DrlStep(s) => Some(s),
            _ => None,
        })
        .collect();
    assert_eq!(
        steps.len(),
        eval.log.len(),
        "one DrlStep event per StepLog entry"
    );

    // Skip the first step (partial counters).
    let log: Vec<_> = steps.iter().skip(1).collect();
    let rps: Vec<f64> = log.iter().map(|l| l.num_req as f64).collect();
    let power: Vec<f64> = log.iter().map(|l| l.power_w).collect();
    let base: Vec<f64> = log.iter().map(|l| l.base_freq).collect();
    let coef: Vec<f64> = log.iter().map(|l| l.scaling_coef).collect();
    let freq: Vec<f64> = log.iter().map(|l| l.avg_freq_mhz).collect();

    println!(
        "# Fig. 8 — DeepPower running Xapian for {} s (per-second samples)\n",
        scale.eval_s
    );
    let w = 90;
    println!("RPS         |{}|", sparkline(&downsample(&rps, w)));
    println!("power (W)   |{}|", sparkline(&downsample(&power, w)));
    println!("BaseFreq    |{}|", sparkline(&downsample(&base, w)));
    println!("ScalingCoef |{}|", sparkline(&downsample(&coef, w)));
    println!("avg freq    |{}|", sparkline(&downsample(&freq, w)));

    let c_power = pearson(&rps, &power);
    let c_freq = pearson(&rps, &freq);
    let c_coef = pearson(&rps, &coef);
    println!(
        "\ncorrelation with RPS: power {c_power:.2}, avg-freq {c_freq:.2}, ScalingCoef {c_coef:.2}"
    );
    println!(
        "action ranges: BaseFreq [{:.2}, {:.2}], ScalingCoef [{:.2}, {:.2}]",
        base.iter().cloned().fold(f64::INFINITY, f64::min),
        base.iter().cloned().fold(0.0, f64::max),
        coef.iter().cloned().fold(f64::INFINITY, f64::min),
        coef.iter().cloned().fold(0.0, f64::max),
    );
    println!(
        "run totals: {:.1} W avg, p99 {:.2} ms, timeouts {:.2}%",
        eval.sim.avg_power_w,
        eval.sim.stats.p99_ns as f64 / 1e6,
        eval.sim.stats.timeout_rate() * 100.0
    );

    // Shape checks.
    assert!(c_power > 0.5, "power should track RPS (corr {c_power:.2})");
    assert!(
        c_freq > 0.3,
        "mean frequency should track RPS (corr {c_freq:.2})"
    );
    println!("\n[shape OK] power and frequency track the diurnal load; actions adapt per second");
}
