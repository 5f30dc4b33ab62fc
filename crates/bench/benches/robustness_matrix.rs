//! Robustness matrix — governors × seeded fault scenarios, each
//! governor run plain and wrapped in the `SafetyGovernor` layer.
//!
//! Three governors probe three behaviours of the safety layer:
//!
//! * `baseline` (max frequency) meets SLA everywhere — the wrapper must
//!   be **bit-transparent** in every scenario.
//! * `thread-controller(0.3, 1.0)` degrades mildly under DVFS faults
//!   (a few % timeouts, below the watchdog threshold) — the wrapper
//!   must **not intervene spuriously**: still bit-transparent.
//! * `thread-controller(0.0, 0.4)` is deliberately fragile (frequency
//!   ceiling at 40 % of the band, hopeless at 70 % load) — the SLA
//!   watchdog must **bound the timeout blow-up** to less than half of
//!   the unwrapped rate, in every scenario.
//!
//! The matrix also carries the three overload scenarios (`retry-storm`,
//! `flash-crowd`, `collapse`): closed-loop clients with bounded queues
//! and seeded retries, fault-free. The safety-transparency and
//! watchdog bounds are asserted over the fault scenarios only — under
//! a retry storm the watchdog may legitimately intervene — while the
//! overload rows are held to their goodput accounting.
//!
//! Cells run at a reduced 6 s duration by default; `DEEPPOWER_FULL=1`
//! raises it to 20 s, and `DEEPPOWER_SMOKE=1` (the CI knob) pins the
//! reduced duration even when `DEEPPOWER_FULL` is set.

use deeppower_bench::Scale;
use deeppower_harness::{robustness_matrix, robustness_scenarios, GovernorSpec, RobustnessRow};
use deeppower_workload::{App, AppSpec};

const N_SCENARIOS: usize = 8; // none | dvfs | sensor | stall | all + 3 overload
const N_FAULT: usize = 5; // the fault prefix the safety bounds cover

/// `report.rows` chunked per governor: 8 plain rows then 8 `+safe` rows.
fn chunk(rows: &[RobustnessRow], governor_idx: usize) -> (&[RobustnessRow], &[RobustnessRow]) {
    rows[governor_idx * 2 * N_SCENARIOS..(governor_idx + 1) * 2 * N_SCENARIOS].split_at(N_SCENARIOS)
}

fn assert_transparent(plain: &[RobustnessRow], safe: &[RobustnessRow], what: &str) {
    for (p, s) in plain.iter().zip(safe).take(N_FAULT) {
        assert_eq!(s.governor, format!("{}+safe", p.governor));
        assert_eq!(
            p.avg_power_w.to_bits(),
            s.avg_power_w.to_bits(),
            "{what}/{}: safety wrapper must be bit-transparent",
            p.scenario
        );
        assert_eq!(p.p99_ms.to_bits(), s.p99_ms.to_bits());
        assert_eq!(p.timeout_rate.to_bits(), s.timeout_rate.to_bits());
    }
}

fn main() {
    let scale = Scale::from_env();
    let smoke = std::env::var("DEEPPOWER_SMOKE")
        .map(|v| v != "0")
        .unwrap_or(false);
    let secs = if scale.full && !smoke { 20 } else { 6 };
    let governors = [
        GovernorSpec::MaxFreq,
        GovernorSpec::ThreadController(0.3, 1.0),
        GovernorSpec::ThreadController(0.0, 0.4),
    ];
    let scenarios = robustness_scenarios(5, AppSpec::get(App::Masstree).sla);
    let report = robustness_matrix(&scenarios, App::Masstree, &governors, true, 5, 0.7, secs, 0);
    println!("# Robustness matrix — Masstree @ 70 % load, {secs} s per cell\n");
    println!("{}", report.render_table());
    assert_eq!(report.rows.len(), governors.len() * 2 * N_SCENARIOS);

    // Baseline meets SLA everywhere; the sane controller's few-percent
    // timeout rate under DVFS faults stays below the watchdog threshold.
    // In both cases the wrapper must change nothing, down to the bit.
    let (plain, safe) = chunk(&report.rows, 0);
    assert_transparent(plain, safe, "baseline");
    let (plain, safe) = chunk(&report.rows, 1);
    assert!(
        plain[0].timeout_rate < 0.05,
        "sane controller should meet SLA fault-free (timeout {:.4})",
        plain[0].timeout_rate
    );
    assert_transparent(plain, safe, "thread-controller(0.3,1.0)");

    // The fragile controller times out almost everything; the watchdog
    // must cut that to under half — under faults and fault-free alike.
    let (plain, safe) = chunk(&report.rows, 2);
    for (p, s) in plain.iter().zip(safe).take(N_FAULT) {
        assert!(
            p.timeout_rate > 0.5,
            "{}: fragile controller should blow past SLA (timeout {:.4})",
            p.scenario,
            p.timeout_rate
        );
        assert!(
            s.timeout_rate < p.timeout_rate * 0.5,
            "{}: safety layer must cut the timeout rate below half \
             (safe {:.4} vs plain {:.4})",
            p.scenario,
            s.timeout_rate,
            p.timeout_rate
        );
    }
    // Overload rows: fault-free by construction, real goodput
    // accounting, and the bounded queue visibly sheds for the fragile
    // controller under the collapse regime.
    for g in 0..3 {
        let (plain, _) = chunk(&report.rows, g);
        for row in &plain[N_FAULT..] {
            assert_eq!(
                row.faults_injected, 0,
                "{}: overload row injected faults",
                row.scenario
            );
            assert!(
                row.goodput > 0,
                "{}: no goodput under overload",
                row.scenario
            );
        }
    }
    let (fragile, _) = chunk(&report.rows, 2);
    let collapse = fragile
        .iter()
        .find(|r| r.scenario == "collapse")
        .expect("collapse row present");
    assert!(
        collapse.shed > 0,
        "fragile controller under collapse must shed at the bounded queue"
    );
    println!(
        "[bounds OK] wrapper bit-transparent for healthy governors; \
         watchdog halves the fragile controller's timeout rate; \
         overload rows carry goodput/shed accounting"
    );
}
