//! The benchmark's own drivers, at reduced length: each traced replica
//! reproduces its production driver bit for bit, the timing wrappers
//! leave results unchanged, and the reports carry exactly the metrics
//! `BENCHMARK.json` declares.

use deeppower_core::{ControllerParams, ThreadController};
use deeppower_perfbench::replica::{ParamsController, TimedGovernor};
use deeppower_perfbench::report::{per_layer_names, END_TO_END};
use deeppower_perfbench::trace::Tracer;
use deeppower_perfbench::workloads::{
    inputs, run_production, setup, train_seeds, Inputs, Scale, SeedSet, TrainInputs, Workload,
};
use deeppower_perfbench::{run_traced, run_untraced, traced};
use deeppower_simd_server::{RunOptions, Server, ServerConfig};
use deeppower_workload::{constant_rate_arrivals, App, AppSpec};
use std::cell::Cell;
use std::rc::Rc;

const SEED: u64 = 1_003;

fn replica_matches(w: Workload) {
    let inp = inputs(w, SEED, Scale::SMOKE);
    let (prod, prod_extras) = run_production(&inp);
    prod.check(&setup(&inp).0, !matches!(w, Workload::OverloadCollapse4))
        .expect("production outcome passes the accounting checks");
    let tr = Tracer::new(0);
    let (replica, counts, extras) = traced(&inp, &tr);
    assert_eq!(
        replica, prod,
        "{w:?}: traced replica differs from production"
    );
    assert_eq!(replica.digest(), prod.digest());
    assert_eq!(extras.profile_spans, prod_extras.profile_spans);
    assert!(counts.completed > 0 && counts.generated > 0);
    assert!(tr.layer("engine.advance").count > 0);
}

#[test]
fn fleet_replica_matches_threaded_driver() {
    replica_matches(Workload::FleetJsq16);
}

#[test]
fn overload_replica_matches_monitored_driver() {
    replica_matches(Workload::OverloadCollapse4);
    let tr = Tracer::new(0);
    let inp = inputs(Workload::OverloadCollapse4, SEED, Scale::SMOKE);
    let (out, counts, _) = traced(&inp, &tr);
    assert!(out.shed > 0, "the collapse plan sheds");
    assert!(counts.retries > 0, "the collapse plan retries");
    assert!(
        tr.layer("telemetry.sink").count > 0,
        "the monitor saw no events"
    );
}

#[test]
fn train_replica_matches_train_and_evaluate() {
    replica_matches(Workload::TrainXapian);
}

#[test]
fn profiled_replica_matches_and_profiling_changes_nothing() {
    let Inputs::Train(t) = inputs(Workload::TrainXapian, SEED, Scale::SMOKE) else {
        panic!("train-xapian has training inputs");
    };
    let plain = Inputs::Train(t.clone());
    let profiled = Inputs::Train(TrainInputs {
        profiled: true,
        ..t
    });
    let (plain_out, _) = run_production(&plain);
    let (prof_out, prod_extras) = run_production(&profiled);
    assert_eq!(plain_out, prof_out);
    assert!(prod_extras.profile_spans > 0);
    let tr = Tracer::new(0);
    let (replica, _, extras) = traced(&profiled, &tr);
    assert_eq!(replica, prof_out);
    assert_eq!(extras.profile_spans, prod_extras.profile_spans);
}

#[test]
fn timed_governor_does_not_perturb_a_run() {
    let spec = AppSpec::get(App::Masstree);
    let arrivals = constant_rate_arrivals(&spec, 50_000.0, 200_000_000, 9);
    let server = Server::new(ServerConfig::paper_default(spec.n_threads));
    let params = ControllerParams::new(0.4, 0.5);
    let plain = server.run(
        &arrivals,
        &mut ThreadController::new(params),
        RunOptions::default(),
    );
    let tr = Tracer::new(0);
    let mut timed = TimedGovernor::new(
        ParamsController {
            params: Rc::new(Cell::new(params)),
        },
        tr.clone(),
        |_| 0,
    );
    let wrapped = server.run(&arrivals, &mut timed, RunOptions::default());
    assert_eq!(plain.energy_j.to_bits(), wrapped.energy_j.to_bits());
    assert_eq!(plain.records, wrapped.records);
    assert_eq!(plain.freq_transitions, wrapped.freq_transitions);
    assert!(
        tr.layer("core.governor").count > 100,
        "ticks were not timed"
    );
}

#[test]
fn untraced_run_reports_every_end_to_end_metric() {
    let r = run_untraced(Workload::OverloadCollapse4, SEED, 0.0, Scale::SMOKE);
    assert!(r.correct, "{:?}", r.error);
    assert_eq!(r.failed, 0);
    assert!(r.attempted >= deeppower_perfbench::MIN_REPS as u64);
    let names: Vec<&str> = r.metrics.iter().map(|(n, _)| n.as_str()).collect();
    let want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
    assert_eq!(names, want);
    assert!(r.metrics.iter().all(|(_, v)| v.is_finite() && *v > 0.0));
}

#[test]
fn traced_run_reports_every_layer_and_covers_the_wall() {
    let r = run_traced(Workload::FleetJsq16, SEED, 0.0, Scale::SMOKE);
    assert!(r.correct, "{:?}", r.error);
    let names: Vec<String> = r.metrics.iter().map(|(n, _)| n.clone()).collect();
    assert_eq!(names, per_layer_names());
    let coverage = r
        .metrics
        .iter()
        .find(|(n, _)| n == "trace.self_coverage")
        .expect("coverage is reported")
        .1;
    assert!(
        coverage >= 0.9,
        "spans cover only {coverage:.3} of the wall"
    );
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
    let section = |key: &str| -> Vec<String> {
        let start = text.find(&format!("\"{key}\"")).expect("section exists");
        let end = text[start..].find(']').map_or(text.len(), |e| start + e);
        text[start..end]
            .match_indices("\"name\": \"")
            .map(|(i, m)| {
                let rest = &text[start + i + m.len()..];
                rest[..rest.find('"').expect("closing quote")].to_string()
            })
            .collect()
    };
    let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(section("end_to_end"), e2e);
    assert_eq!(section("per_layer"), per_layer_names());
}

#[test]
fn heldout_seeds_are_disjoint_from_dev_seeds_and_training() {
    for s in [0, 1, 99] {
        assert_ne!(
            SeedSet::Dev.workload_seed(s),
            SeedSet::Heldout.workload_seed(s)
        );
    }
    for set in [SeedSet::Dev, SeedSet::Heldout] {
        let Inputs::Train(t) = inputs(Workload::TrainXapian, set.workload_seed(5), Scale::BENCH)
        else {
            panic!("train-xapian has training inputs");
        };
        let used = train_seeds(&t.cfg);
        assert!(t.eval_seeds.iter().all(|s| !used.contains(s)));
    }
}

#[test]
fn normalised_times_divide_each_call_by_the_readings_around_it() {
    use deeppower_perfbench::speed::{normalised_median, REFERENCE_S};
    // The host halves its speed during the second call: the raw times
    // double, the normalised ones do not move.
    let got = normalised_median(&[1.0, 1.5, 2.0], &[0.1, 0.1, 0.2, 0.2]);
    let want = 1.0 / 0.1 * REFERENCE_S;
    assert!((got - want).abs() < 1e-12, "{got} != {want}");
    // At the baseline host's speed a normalised time is the raw one.
    let got = normalised_median(&[3.0], &[REFERENCE_S, REFERENCE_S]);
    assert!((got - 3.0).abs() < 1e-12, "{got} != 3");
}
