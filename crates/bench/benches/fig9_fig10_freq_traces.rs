//! Figs. 9 & 10 — per-core frequency traces during the run, per policy:
//! Xapian (ms-scale requests, Fig. 9) and Sphinx (second-scale requests,
//! Fig. 10).
//!
//! The paper's qualitative claim: "DeepPower achieves fine-grained control
//! by gradually scaling up the frequency during the request's processing
//! … the frequency is not boosted to its maximum level most of the time.
//! Conversely, Retail and Gemini select the frequency at a coarser
//! granularity (once or twice per request)," spending far more time at
//! max/turbo.
//!
//! This bench quantifies that: per policy it reports the number of
//! distinct frequency levels exercised, the frequency-transition count,
//! and the (time-weighted) fraction of core-time at max-or-turbo. All
//! series derive from the telemetry event stream — `CoreResidency` for
//! the dwell-time aggregates, `FreqTransition` for core 0's sparkline —
//! the same artifact `deeppower trace` writes.

use deeppower_baselines::{
    collect_profile, GeminiConfig, GeminiGovernor, RetailConfig, RetailGovernor,
};
use deeppower_bench::{default_trained_policy, downsample, sparkline, Scale};
use deeppower_core::train::{default_peak_load, trace_for};
use deeppower_core::{DeepPowerGovernor, Mode};
use deeppower_simd_server::{
    FreqPlan, Governor, Request, RunOptions, Server, ServerConfig, TraceConfig, MILLISECOND, SECOND,
};
use deeppower_telemetry::{freq_series, Event, Recorder};
use deeppower_workload::{trace_arrivals, App, AppSpec};

struct PolicyTrace {
    name: &'static str,
    distinct_levels: usize,
    transitions: u64,
    frac_at_max: f64,
    mean_freq: f64,
    core0: Vec<f64>,
}

/// Run `gov` with a recorder and reduce the event stream to the
/// figure's aggregates. Time-weighted stats come from `CoreResidency`
/// (exact dwell times, not ms samples).
fn run_traced(
    name: &'static str,
    server: &Server,
    arrivals: &[Request],
    gov: &mut dyn Governor,
    opts: RunOptions,
    window_s: u64,
) -> PolicyTrace {
    let rec = Recorder::ring(1 << 20);
    let res = server.session(arrivals, gov, opts, &rec).finish();
    let events = rec.drain_events();
    assert_eq!(rec.dropped_events(), 0, "event ring must not overflow");

    let mut levels = std::collections::HashSet::new();
    let mut ns_at_max = 0u64;
    let mut ns_total = 0u64;
    let mut mhz_ns = 0.0f64;
    for ev in &events {
        if let Event::CoreResidency(r) = ev {
            levels.insert(r.mhz);
            if r.mhz >= 2100 {
                ns_at_max += r.ns;
            }
            ns_total += r.ns;
            mhz_ns += r.mhz as f64 * r.ns as f64;
        }
    }
    let core0 = freq_series(
        &events,
        0,
        server.config().initial_mhz,
        window_s * SECOND,
        MILLISECOND,
    )
    .iter()
    .map(|&(_, f)| f as f64)
    .collect();
    PolicyTrace {
        name,
        distinct_levels: levels.len(),
        transitions: res.freq_transitions,
        frac_at_max: ns_at_max as f64 / ns_total.max(1) as f64,
        mean_freq: mhz_ns / ns_total.max(1) as f64,
        core0,
    }
}

fn run_app(app: App, window_s: u64, scale: Scale) -> Vec<PolicyTrace> {
    let spec = AppSpec::get(app);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let trace = trace_for(&spec, default_peak_load(app), window_s, 999);
    let arrivals = trace_arrivals(&spec, &trace, 4242);
    let profile = collect_profile(&spec, 0.5, 3, 77);
    let opts = RunOptions {
        trace: TraceConfig::millisecond(),
        ..Default::default()
    };

    let policy = default_trained_policy(app, scale);
    let mut agent = policy.build_agent();
    let mut dp = DeepPowerGovernor::new(&mut agent, policy.deeppower, Mode::Eval);
    let r_dp = run_traced(
        "deeppower",
        &server,
        &arrivals,
        &mut dp,
        RunOptions {
            tick_ns: policy.deeppower.short_time,
            trace: TraceConfig::millisecond(),
            ..Default::default()
        },
        window_s,
    );

    let mut retail = RetailGovernor::train(
        &profile,
        FreqPlan::xeon_gold_5218r(),
        RetailConfig::default(),
    );
    let r_retail = run_traced("retail", &server, &arrivals, &mut retail, opts, window_s);

    let mut gemini = GeminiGovernor::train(
        &profile,
        FreqPlan::xeon_gold_5218r(),
        spec.n_threads,
        GeminiConfig::default(),
        5,
    );
    let r_gemini = run_traced("gemini", &server, &arrivals, &mut gemini, opts, window_s);

    vec![r_dp, r_retail, r_gemini]
}

fn main() {
    let scale = Scale::from_env();
    for (fig, app, window_s) in [("Fig. 9", App::Xapian, 10), ("Fig. 10", App::Sphinx, 20)] {
        let spec = AppSpec::get(app);
        println!(
            "# {fig} — frequency traces, {} ({window_s} s window)\n",
            spec.name
        );
        let rows = run_app(app, window_s, scale);
        println!(
            "{:<11} {:>8} {:>12} {:>10} {:>11}",
            "policy", "levels", "transitions", "%at>=max", "mean(MHz)"
        );
        for r in &rows {
            println!(
                "{:<11} {:>8} {:>12} {:>9.1}% {:>11.0}",
                r.name,
                r.distinct_levels,
                r.transitions,
                r.frac_at_max * 100.0,
                r.mean_freq
            );
        }
        for r in &rows {
            println!("{:<11}|{}|", r.name, sparkline(&downsample(&r.core0, 90)));
        }

        // Shape checks per the paper's narrative: DeepPower ramps through
        // a rich set of levels and — unlike Gemini's boost-to-max second
        // stage — does not camp on the maximum frequency.
        let dp = &rows[0];
        let gemini = &rows[2];
        assert!(
            dp.distinct_levels >= 8,
            "DeepPower should ramp through many levels, used {}",
            dp.distinct_levels
        );
        assert!(
            dp.frac_at_max < 0.5,
            "DeepPower should not live at max frequency ({:.2})",
            dp.frac_at_max
        );
        assert!(
            dp.frac_at_max < gemini.frac_at_max,
            "DeepPower must spend less time boosted than Gemini ({:.2} vs {:.2})",
            dp.frac_at_max,
            gemini.frac_at_max
        );
        println!("[shape OK] DeepPower ramps through many levels and avoids the max plateau\n");
    }
}
