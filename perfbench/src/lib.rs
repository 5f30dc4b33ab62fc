//! The repository benchmark. See `README.md` in this directory for the
//! workloads, the metrics and what each layer metric should move.

pub mod replica;
pub mod report;
pub mod speed;
pub mod trace;
pub mod workloads;

use replica::{fleet_traced, train_traced, SimCounts};
use report::{layer_metrics, median, sim_metrics};
use speed::Bracketed;
use std::collections::BTreeMap;
use std::time::Instant;
use trace::Tracer;
use workloads::{
    inputs, run_production, setup, Extras, Inputs, Outcome, Scale, Setup, TrainInputs, Workload,
};

/// Set-up is repeated this many times; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;
/// Fewest production calls an untraced run makes, however long each is.
pub const MIN_REPS: usize = 3;

/// Run the workload's traced replica once.
pub fn traced(inputs: &Inputs, tr: &Tracer) -> (Outcome, SimCounts, Extras) {
    match inputs {
        Inputs::Fleet {
            spec,
            policy,
            monitor,
        } => {
            let (out, counts) = fleet_traced(spec, policy, monitor.as_ref(), tr);
            (out, counts, Extras::default())
        }
        Inputs::Train(t) => {
            let prof = t.profiler();
            let (out, counts) = train_traced(t, &prof, tr);
            (out, counts, Extras::of(&prof))
        }
    }
}

fn open_loop(inputs: &Inputs) -> bool {
    match inputs {
        Inputs::Fleet { spec, .. } => !spec.overload.is_active(),
        Inputs::Train(_) => true,
    }
}

/// Simulated requests completed by one production call: every training
/// episode (open loop, so each completes what it generated) plus the
/// evaluations, or the fleet's completions.
pub fn simulated_requests(inputs: &Inputs, setup: &Setup, out: &Outcome) -> u64 {
    match inputs {
        Inputs::Fleet { .. } => out.completed,
        Inputs::Train(_) => setup.trained() + out.completed,
    }
}

/// What one benchmark run produced.
pub struct RunReport {
    pub correct: bool,
    pub error: Option<String>,
    /// Production (or traced replica) calls made and checked.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    pub digest: u64,
    /// Measurements behind the metrics, stamped on the manifest.
    pub notes: Vec<(&'static str, f64)>,
    /// The last traced replica's tracer and wall seconds (traced runs
    /// only).
    pub tracer: Option<(Tracer, f64)>,
}

fn fail(attempted: u64, err: String) -> RunReport {
    RunReport {
        correct: false,
        error: Some(err),
        attempted: attempted.max(1),
        failed: 1,
        metrics: Vec::new(),
        digest: 0,
        notes: Vec::new(),
        tracer: None,
    }
}

/// The untraced run: set-up several times, then production calls for
/// about `seconds` (at least [`MIN_REPS`]), checking every outcome.
/// Every set-up and call is timed between host-speed reference
/// readings; the host times are normalised medians (see [`speed`]).
pub fn run_untraced(w: Workload, workload_seed: u64, seconds: f64, scale: Scale) -> RunReport {
    let inputs = inputs(w, workload_seed, scale);
    let mut setups = Bracketed::start();
    let mut first_setup: Option<Setup> = None;
    for _ in 0..SETUP_REPS {
        let (s, generated) = setups.time(|| setup(&inputs));
        drop(generated);
        match &first_setup {
            None => first_setup = Some(s),
            Some(f) if *f != s => return fail(0, "set-up is not deterministic".into()),
            Some(_) => {}
        }
    }
    let setup_out = first_setup.expect("set-up ran");
    let t_measure = Instant::now();
    let mut calls = Bracketed::start();
    // Peak RSS is read over the first call only: later calls start from
    // whatever the allocator kept, so their peaks creep up with the
    // number of calls a run happens to fit in.
    let hwm_reset = report::reset_peak_rss();
    let mut peak = 0;

    let mut first: Option<Outcome> = None;
    loop {
        let out = calls.time(|| {
            let (out, _) = run_production(&inputs);
            if peak == 0 {
                peak = report::peak_rss_bytes().unwrap_or(0);
            }
            out
        });
        let attempted = calls.times.len() as u64;
        if let Err(e) = out.check(&setup_out, open_loop(&inputs)) {
            return fail(attempted, e);
        }
        match &first {
            None => first = Some(out),
            Some(f) if f.digest() != out.digest() => {
                return fail(attempted, "result digest changed between calls".into())
            }
            Some(_) => {}
        }
        // Stop before a call that would end past `seconds`.
        let elapsed = t_measure.elapsed().as_secs_f64();
        if calls.times.len() >= MIN_REPS && elapsed * (1.0 + 1.0 / attempted as f64) > seconds {
            break;
        }
    }
    let out = first.expect("at least one production call");
    let attempted = calls.times.len() as u64;

    let requests = simulated_requests(&inputs, &setup_out, &out) as f64;
    eprintln!(
        "production calls (s): {:.3?}; set-up (s): {:.3?}; reference readings (s): {:.3?}",
        calls.times, setups.times, calls.refs
    );
    let wall_s = calls.normalised_median();
    let mut metrics = vec![
        ("wall_s".to_string(), wall_s),
        ("setup_s".to_string(), setups.normalised_median()),
        ("host_ns_per_req".to_string(), wall_s * 1e9 / requests),
        ("rss_bytes_per_req".to_string(), peak as f64 / requests),
    ];
    metrics.extend(sim_metrics(&out).iter().map(|(k, v)| (k.to_string(), *v)));
    if !hwm_reset {
        eprintln!("note: peak RSS could not be reset after set-up; rss_bytes_per_req includes it");
    }
    RunReport {
        correct: true,
        error: None,
        attempted,
        failed: 0,
        metrics,
        digest: out.digest(),
        notes: vec![
            ("raw_wall_s", median(&calls.times)),
            ("raw_setup_s", median(&setups.times)),
            ("host_speed", calls.host_speed()),
        ],
        tracer: None,
    }
}

/// The traced run: one production call as the reference, one serial
/// untraced call as the overhead base, then traced replica calls for
/// about `seconds` (at least one); each must reproduce the reference bit
/// for bit. Per-layer metrics are medians over the replica calls.
/// Training then makes one more replica call on the `deeppower profile`
/// path (`train_profiled`/`evaluate_profiled` with an enabled
/// profiler): it too must reproduce the reference, and it gives the
/// `telemetry.profile.*` metrics.
pub fn run_traced(w: Workload, workload_seed: u64, seconds: f64, scale: Scale) -> RunReport {
    let inputs = inputs(w, workload_seed, scale);
    let setup_out = setup(&inputs).0;
    let (reference, _) = run_production(&inputs);
    if let Err(e) = reference.check(&setup_out, open_loop(&inputs)) {
        return fail(1, e);
    }
    let t = Instant::now();
    let serial_out = run_serial(&inputs);
    let untraced_wall_s = t.elapsed().as_secs_f64();
    if serial_out != reference {
        return fail(2, "serial driver differs from the production driver".into());
    }

    let mut reps = 0u64;
    // One traced replica call, checked against the reference.
    let mut replica = |inputs: &Inputs| {
        let tr = Tracer::new(reps as u32);
        let t = Instant::now();
        let (out, counts, extras) = traced(inputs, &tr);
        let traced_wall_s = t.elapsed().as_secs_f64();
        reps += 1;
        if out != reference {
            return Err(fail(
                reps + 2,
                format!(
                    "traced replica differs from the production driver:\n  replica    {out:?}\n  production {reference:?}"
                ),
            ));
        }
        if counts.completed != simulated_requests(inputs, &setup_out, &out) {
            return Err(fail(
                reps + 2,
                "traced replica completed a different request count".into(),
            ));
        }
        let m = layer_metrics(&tr, &counts, &out, &extras, traced_wall_s, untraced_wall_s);
        Ok((m, tr, traced_wall_s))
    };

    let mut per_rep: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut last;
    let t_measure = Instant::now();
    loop {
        let (m, tr, traced_wall_s) = match replica(&inputs) {
            Ok(r) => r,
            Err(report) => return report,
        };
        for (k, v) in m {
            per_rep.entry(k).or_default().push(v);
        }
        last = (tr, traced_wall_s);
        // Stop before a call that would end past `seconds`.
        let n = per_rep["trace.wall_s"].len() as f64;
        if t_measure.elapsed().as_secs_f64() * (1.0 + 1.0 / n) > seconds {
            break;
        }
    }
    if let Inputs::Train(t) = &inputs {
        let profiled = Inputs::Train(TrainInputs {
            profiled: true,
            ..t.clone()
        });
        let (m, _, traced_wall_s) = match replica(&profiled) {
            Ok(r) => r,
            Err(report) => return report,
        };
        for k in ["telemetry.profile.spans", "telemetry.profile.dropped_frac"] {
            per_rep.insert(k.to_string(), vec![m[k]]);
        }
        let plain_wall_s = median(&per_rep["trace.wall_s"]);
        per_rep.insert(
            "telemetry.profile.overhead_frac".to_string(),
            vec![traced_wall_s / plain_wall_s - 1.0],
        );
    }
    let metrics = report::per_layer_names()
        .into_iter()
        .map(|k| {
            let v = per_rep.get(&k).map_or(0.0, |vs| median(vs));
            (k, v)
        })
        .collect();
    RunReport {
        correct: true,
        error: None,
        attempted: reps + 2,
        failed: 0,
        metrics,
        digest: reference.digest(),
        notes: Vec::new(),
        tracer: Some(last),
    }
}

/// The same inputs run untraced on one thread, as the replica runs:
/// the serial fleet driver, or the unchanged training path. Its wall
/// time is the base of the tracing overhead.
pub fn run_serial(inputs: &Inputs) -> Outcome {
    match inputs {
        Inputs::Fleet {
            spec,
            policy,
            monitor: None,
        } => workloads::fleet_outcome(&deeppower_fleet::run_fleet_threaded(spec, policy, 1)),
        Inputs::Fleet {
            spec,
            policy,
            monitor: Some(cfg),
        } => {
            let (res, mon) =
                deeppower_fleet::run_fleet_monitored_full(spec, policy, 1, cfg.clone());
            workloads::monitored_outcome(&res, &mon)
        }
        Inputs::Train(_) => run_production(inputs).0,
    }
}
