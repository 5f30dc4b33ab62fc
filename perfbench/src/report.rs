//! Metric definitions, the measurements behind them (medians, peak
//! RSS), the run manifest and the JSON the benchmark prints.

use crate::replica::SimCounts;
use crate::trace::Tracer;
use crate::workloads::{Extras, Fnv, Outcome};
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end metrics, reported with tracing off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("host_ns_per_req", "ns"),
    ("rss_bytes_per_req", "B"),
    ("sim_p50_ms", "ms"),
    ("sim_p99_ms", "ms"),
    ("sim_j_per_goodput", "J"),
    ("sla_met_frac", "ratio"),
];

/// Layers whose self time the traced run reports as a share of its
/// wall time: every span and leaf name the replicas record.
pub const LAYERS: [&str; 16] = [
    "workload.arrivals",
    "workload.free",
    "fleet.balance",
    "fleet.build",
    "core.observe",
    "fleet.act",
    "engine.advance",
    "engine.finish",
    "core.governor",
    "core.governor.end",
    "drl.build",
    "drl.update",
    "drl.snapshot",
    "fleet.merge",
    "telemetry.sink",
    "telemetry.report",
];

/// Per-layer metrics from the traced run, besides the `self_frac.*`
/// share of every entry of [`LAYERS`].
pub const PER_LAYER: [(&str, &str); 30] = [
    ("workload.arrivals.ns_per_req", "ns"),
    ("workload.arrivals.bytes_per_req", "B"),
    ("fleet.balance.ns_per_req", "ns"),
    ("fleet.balance.max_over_mean", "ratio"),
    ("fleet.act.ns_per_node_epoch", "ns"),
    ("core.observe.ns_per_node_epoch", "ns"),
    ("engine.advance.ns_per_req", "ns"),
    ("engine.finish.ns_per_req", "ns"),
    ("engine.records.bytes_per_req", "B"),
    ("engine.shed_frac", "ratio"),
    ("engine.retries_per_req", "ratio"),
    ("engine.wasted_s", "s"),
    ("engine.peak_queue_depth", "count"),
    ("engine.freq_transitions_per_s", "1/s"),
    ("core.governor.ns_per_tick", "ns"),
    ("core.governor.ticks", "count"),
    ("drl.updates", "count"),
    ("drl.update_tick_ns", "ns"),
    ("fleet.merge.ns_per_req", "ns"),
    ("telemetry.sink.ns_per_event", "ns"),
    ("telemetry.events_per_req", "ratio"),
    ("telemetry.traces", "count"),
    ("telemetry.alerts", "count"),
    ("telemetry.profile.spans", "count"),
    ("telemetry.profile.dropped_frac", "ratio"),
    ("telemetry.profile.overhead_frac", "ratio"),
    ("trace.wall_s", "s"),
    ("trace.untraced_wall_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("trace.self_coverage", "ratio"),
];

pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("ratio", |(_, u)| u)
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Simulated metrics of one outcome.
pub fn sim_metrics(out: &Outcome) -> [(&'static str, f64); 4] {
    [
        ("sim_p50_ms", out.p50_ms),
        ("sim_p99_ms", out.p99_ms),
        ("sim_j_per_goodput", out.j_per_goodput()),
        ("sla_met_frac", out.sla_met_frac()),
    ]
}

/// Per-layer metrics of one traced replica run.
pub fn layer_metrics(
    tr: &Tracer,
    counts: &SimCounts,
    out: &Outcome,
    extras: &Extras,
    traced_wall_s: f64,
    untraced_wall_s: f64,
) -> BTreeMap<String, f64> {
    let layers = tr.layers();
    let get = |n: &str| layers.get(n).copied().unwrap_or_default();
    let req = counts.completed as f64;
    let generated = counts.generated as f64;
    let node_epochs = counts.node_epochs as f64;
    let gov = get("core.governor");
    let upd = get("drl.update");
    let sink = get("telemetry.sink");
    let ticks = (gov.count + upd.count) as f64;
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put(
        "workload.arrivals.ns_per_req",
        ratio(get("workload.arrivals").self_ns as f64, generated),
    );
    put(
        "workload.arrivals.bytes_per_req",
        ratio(counts.arrival_bytes as f64, generated),
    );
    put(
        "fleet.balance.ns_per_req",
        ratio(get("fleet.balance").self_ns as f64, generated),
    );
    put("fleet.balance.max_over_mean", counts.max_over_mean);
    put(
        "fleet.act.ns_per_node_epoch",
        ratio(get("fleet.act").self_ns as f64, node_epochs),
    );
    put(
        "core.observe.ns_per_node_epoch",
        ratio(get("core.observe").self_ns as f64, node_epochs),
    );
    put(
        "engine.advance.ns_per_req",
        ratio(get("engine.advance").self_ns as f64, req),
    );
    put(
        "engine.finish.ns_per_req",
        ratio(get("engine.finish").self_ns as f64, req),
    );
    put(
        "engine.records.bytes_per_req",
        ratio(counts.record_bytes as f64, req),
    );
    put(
        "engine.shed_frac",
        ratio(counts.shed as f64, generated + counts.retries as f64),
    );
    put(
        "engine.retries_per_req",
        ratio(counts.retries as f64, generated),
    );
    put("engine.wasted_s", counts.wasted_s);
    put("engine.peak_queue_depth", counts.peak_queue_depth as f64);
    put(
        "engine.freq_transitions_per_s",
        ratio(counts.freq_transitions as f64, counts.sim_s),
    );
    put(
        "core.governor.ns_per_tick",
        ratio((gov.total_ns + upd.total_ns) as f64, ticks),
    );
    put("core.governor.ticks", ticks);
    put("drl.updates", tr.counter("drl.updates") as f64);
    put(
        "drl.update_tick_ns",
        ratio(upd.total_ns as f64, upd.count as f64),
    );
    put(
        "fleet.merge.ns_per_req",
        ratio(get("fleet.merge").self_ns as f64, req),
    );
    put(
        "telemetry.sink.ns_per_event",
        ratio(sink.total_ns as f64, sink.count as f64),
    );
    put("telemetry.events_per_req", ratio(sink.count as f64, req));
    put("telemetry.traces", tr.counter("telemetry.traces") as f64);
    put("telemetry.alerts", out.alerts as f64);
    put("telemetry.profile.spans", extras.profile_spans as f64);
    put(
        "telemetry.profile.dropped_frac",
        ratio(
            extras.profile_dropped as f64,
            (extras.profile_spans + extras.profile_dropped) as f64,
        ),
    );
    put("trace.wall_s", traced_wall_s);
    put("trace.untraced_wall_s", untraced_wall_s);
    put(
        "trace.overhead_frac",
        ratio(traced_wall_s, untraced_wall_s) - 1.0,
    );
    let wall_ns = traced_wall_s * 1e9;
    put(
        "trace.self_coverage",
        ratio(tr.covered_ns() as f64, wall_ns),
    );
    for name in LAYERS {
        put(
            &format!("self_frac.{name}"),
            ratio(get(name).self_ns as f64, wall_ns),
        );
    }
    m
}

/// Every per-layer metric name, in output order.
pub fn per_layer_names() -> Vec<String> {
    PER_LAYER
        .iter()
        .map(|(n, _)| n.to_string())
        .chain(LAYERS.iter().map(|l| format!("self_frac.{l}")))
        .collect()
}

/// Peak resident set size of this process, bytes (`VmHWM`).
pub fn peak_rss_bytes() -> Option<u64> {
    status_kib("VmHWM:").map(|k| k * 1024)
}

/// Reset the peak-RSS high-water mark to the current RSS. Returns
/// whether the kernel accepted the reset.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

fn status_kib(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Where a number came from: source revision, host and run settings.
pub struct Manifest {
    pub fields: Vec<(&'static str, String)>,
}

impl Manifest {
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{\"manifest\":{{{}}}}}", body.join(","))
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The git revision of `root`, or — in a checkout without `.git` — a
/// digest of the sources the benchmark builds.
pub fn revision(root: &Path) -> String {
    if root.join(".git").exists() {
        let git = std::process::Command::new("git")
            .arg("-C")
            .arg(root)
            .args(["rev-parse", "HEAD"])
            .output();
        if let Ok(o) = git {
            if o.status.success() {
                return String::from_utf8_lossy(&o.stdout).trim().to_string();
            }
        }
    }
    let mut files = Vec::new();
    collect_files(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h = Fnv::new();
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            h.bytes(
                f.strip_prefix(root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            h.bytes(&bytes);
        }
    }
    format!("src-{:016x}", h.finish())
}

fn collect_files(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect_files(&p, out);
        } else {
            out.push(p);
        }
    }
}

pub fn rustc_version() -> String {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    std::process::Command::new(rustc)
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        })
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(String, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            let v = if v.is_finite() { *v } else { 0.0 };
            format!(
                "\"{name}\":{{\"value\":{v},\"unit\":\"{}\"}}",
                unit_of(name)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}
