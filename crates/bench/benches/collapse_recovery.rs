//! Collapse & recovery under a retry storm — admission-co-managed
//! policy vs the unmanaged baseline.
//!
//! Both arms run the *same* closed-loop overload plan: Masstree near
//! saturation, a 4× flash-crowd burst, tight client deadlines, and
//! near-certain capped retries — the load-amplification loop of a
//! classic retry storm. The only difference is the admission axis:
//!
//! * **unmanaged** — `AdmissionMode::None`. The queue balloons during
//!   the burst, every completion lands after its client abandoned, each
//!   abandonment re-offers retries, and the server congestion-collapses:
//!   it stays busy doing almost exclusively wasted work.
//! * **managed** — `AdmissionMode::Drl` with the governor's third
//!   action head holding a tight admission threshold (the same command
//!   path a trained 3-action DeepPower policy drives). Excess load is
//!   shed at admission, sojourn stays under the client deadline, and
//!   goodput is sustained through the storm.
//!
//! Asserted bounds:
//! 1. the managed arm sustains ≥ 2× the goodput of the unmanaged arm;
//! 2. the fleet monitor's goodput SLO fires a collapse alert on both
//!    arms, and on the managed arm the alert **resolves** before run
//!    end while the unmanaged arm's stays open;
//! 3. both arms are bit-identical on a replay (same seed ⇒ same bytes).
//!
//! Writes `target/collapse-recovery.json`; the committed baseline is
//! `BENCH_collapse.json` and CI gates `managed_goodput_ratio` as a
//! higher-is-better bench-diff leaf.

use deeppower_core::{ControllerParams, ThreadController};
use deeppower_simd_server::{
    AdmissionMode, OverloadPlan, RunOptions, Server, ServerConfig, SimResult, SECOND,
};
use deeppower_telemetry::{
    BurnRateRule, FleetMonitor, HealthReport, MonitorConfig, MonitorSink, Recorder, SloSpec,
    METRIC_GOODPUT,
};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};
use std::cell::RefCell;
use std::rc::Rc;

/// The storm plan shared by both arms; only `admission` differs.
fn storm_plan(admission: AdmissionMode, sla_ns: u64) -> OverloadPlan {
    OverloadPlan {
        seed: 11,
        queue_capacity: 1024,
        client_timeout_ns: 2 * sla_ns,
        retry_prob: 0.95,
        max_attempts: 4,
        retry_backoff_ns: sla_ns,
        retry_jitter_ns: sla_ns / 4,
        burst_start_ns: 2 * SECOND,
        burst_duration_ns: 2 * SECOND,
        burst_factor: 4,
        admission,
        ..OverloadPlan::none()
    }
}

/// One arm: a fixed thread-controller policy whose third action head
/// pins the admission threshold at `admit_frac` of queue capacity.
fn run_arm(admission: AdmissionMode, admit_frac: f32, secs: u64) -> (SimResult, HealthReport) {
    let spec = AppSpec::get(App::Masstree);
    let arrivals = constant_rate_arrivals(&spec, spec.rps_for_load(0.9), secs * SECOND, 11);
    let mut params = ControllerParams::new(0.3, 1.0);
    params.admit_frac = admit_frac;
    let mut gov = ThreadController::new(params);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let slo = SloSpec {
        name: "collapse".into(),
        p99_ms: 0.0,
        timeout_rate: 0.0,
        power_w: 0.0,
        goodput_ratio: 0.5,
        rules: vec![BurnRateRule {
            long_windows: 2,
            short_windows: 1,
            max_burn: 1.2,
        }],
    };
    // Events stream into the monitor inline — a retry storm emits
    // millions of Shed/Retry events, far past any sane ring capacity.
    let monitor = Rc::new(RefCell::new(FleetMonitor::new(MonitorConfig::with_slo(
        slo,
    ))));
    let rec = Recorder::with_sink(Box::new(MonitorSink::new(Rc::clone(&monitor), 0)));
    let sim = server
        .session(
            &arrivals,
            &mut gov,
            RunOptions {
                overload: storm_plan(admission, spec.sla),
                ..Default::default()
            },
            &rec,
        )
        .finish();
    let health = monitor.borrow().finish();
    (sim, health)
}

fn goodput_ratio(sim: &SimResult) -> f64 {
    let offered = sim.goodput + sim.wasted + sim.shed;
    if offered == 0 {
        return 0.0;
    }
    sim.goodput as f64 / offered as f64
}

fn main() {
    let smoke = std::env::var("DEEPPOWER_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let full = std::env::var("DEEPPOWER_FULL")
        .map(|v| v != "0")
        .unwrap_or(false);
    let secs = if full && !smoke { 16 } else { 8 };

    let (unmanaged, un_health) = run_arm(AdmissionMode::None, 1.0, secs);
    let (managed, mg_health) = run_arm(AdmissionMode::Drl, 0.03, secs);

    // Determinism: the managed arm replays bit-identically.
    let (managed2, _) = run_arm(AdmissionMode::Drl, 0.03, secs);
    assert_eq!(managed.goodput, managed2.goodput);
    assert_eq!(managed.shed, managed2.shed);
    assert_eq!(managed.energy_j.to_bits(), managed2.energy_j.to_bits());

    let un_ratio = goodput_ratio(&unmanaged);
    let mg_ratio = goodput_ratio(&managed);
    println!("# Collapse & recovery — Masstree @ 90 % load, 4x retry storm, {secs} s\n");
    println!(
        "{:<10} {:>9} {:>9} {:>9} {:>9} {:>10} {:>8}",
        "arm", "goodput", "wasted", "shed", "retries", "wasted_s", "ratio"
    );
    for (name, sim, ratio) in [
        ("unmanaged", &unmanaged, un_ratio),
        ("managed", &managed, mg_ratio),
    ] {
        println!(
            "{:<10} {:>9} {:>9} {:>9} {:>9} {:>10.3} {:>8.3}",
            name, sim.goodput, sim.wasted, sim.shed, sim.retries, sim.wasted_s, ratio
        );
    }

    // 1. The admission-managed policy sustains ≥ 2× the goodput the
    //    collapsed baseline limps along at.
    assert!(
        managed.goodput >= 2 * unmanaged.goodput,
        "admission management must at least double goodput under the storm: \
         managed {} vs unmanaged {}",
        managed.goodput,
        unmanaged.goodput
    );

    // 2. Both arms trip the goodput SLO when the storm hits; the
    //    managed arm's alert resolves (recovery), the unmanaged arm's
    //    never does (collapse).
    let goodput_alert = |h: &HealthReport| {
        h.alerts
            .iter()
            .find(|a| a.metric == METRIC_GOODPUT)
            .cloned()
    };
    let un_alert = goodput_alert(&un_health).expect("unmanaged arm must trip the goodput SLO");
    assert_eq!(
        un_alert.t_resolve, 0,
        "unmanaged collapse alert must still be open at run end"
    );
    let mg_alert = goodput_alert(&mg_health).expect("managed arm must trip the goodput SLO");
    assert!(
        mg_alert.t_resolve > mg_alert.t_fire,
        "managed arm's collapse alert must resolve: fired {} ns, never resolved",
        mg_alert.t_fire
    );
    println!(
        "\n[bounds OK] managed goodput {}x unmanaged; managed alert resolved after {:.2} s, \
         unmanaged alert still open",
        managed.goodput / unmanaged.goodput.max(1),
        (mg_alert.t_resolve - mg_alert.t_fire) as f64 / 1e9
    );

    let json = format!(
        "{{\n  \"smoke\": {smoke},\n  \"collapse_recovery\": {{\"managed_goodput_ratio\": {mg_ratio:.3}, \"unmanaged_goodput_frac\": {un_ratio:.3}, \"managed_goodput\": {}, \"unmanaged_goodput\": {}, \"managed_shed\": {}, \"unmanaged_retries\": {}}}\n}}\n",
        managed.goodput, unmanaged.goodput, managed.shed, unmanaged.retries
    );
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/collapse-recovery.json");
    if let Err(e) = deeppower_telemetry::atomic_write(&out, json) {
        eprintln!("warning: could not write {}: {e}", out.display());
    } else {
        println!("report written to {}", out.display());
    }
}
