//! CLI error handling: every bad-input path must exit non-zero with a
//! one-line diagnostic on stderr — never a panic, never a zero exit
//! with garbage on stdout. Exercised against the real binary via
//! `std::process::Command`, so the whole arg-parse → dispatch → error
//! reporting chain is covered.

use std::path::Path;
use std::process::{Command, Output};

fn deeppower(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_deeppower"))
        .args(args)
        .output()
        .expect("spawn deeppower binary")
}

/// The failure contract: non-zero exit, a diagnostic on stderr, no panic.
fn assert_clean_failure(out: &Output, expect_in_stderr: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !out.status.success(),
        "expected non-zero exit, got {:?}; stderr: {stderr}",
        out.status
    );
    assert!(
        !stderr.contains("panicked"),
        "CLI panicked instead of reporting an error: {stderr}"
    );
    assert!(
        stderr.contains(expect_in_stderr),
        "stderr missing `{expect_in_stderr}`:\n{stderr}"
    );
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let out = deeppower(&[]);
    assert_clean_failure(&out, "USAGE");
}

#[test]
fn unknown_subcommand_fails() {
    let out = deeppower(&["frobnicate"]);
    assert_clean_failure(&out, "unknown command `frobnicate`");
}

#[test]
fn missing_policy_file_fails() {
    let out = deeppower(&["eval", "--policy", "/nonexistent/policy.json"]);
    assert_clean_failure(&out, "");
    // The message should mention the underlying I/O failure, not panic.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("No such file") || stderr.contains("not found"),
        "stderr should explain the missing file:\n{stderr}"
    );
}

#[test]
fn malformed_policy_file_fails() {
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("garbage-policy.json");
    std::fs::write(&path, "{ this is not a policy").unwrap();
    let out = deeppower(&["eval", "--policy", path.to_str().unwrap()]);
    assert_clean_failure(&out, "");
    std::fs::remove_file(&path).ok();
}

#[test]
fn bad_flag_value_fails() {
    let out = deeppower(&["grid", "--apps", "xapian", "--duration-s", "soon"]);
    assert_clean_failure(&out, "bad value for --duration-s");
}

#[test]
fn unknown_app_fails() {
    let out = deeppower(&["robustness", "--app", "doom"]);
    assert_clean_failure(&out, "unknown app `doom`");
}

#[test]
fn unknown_governor_fails() {
    let out = deeppower(&["robustness", "--app", "xapian", "--governors", "psychic"]);
    assert_clean_failure(&out, "unknown governor `psychic`");
}

#[test]
fn flag_missing_value_fails() {
    let out = deeppower(&["grid", "--apps"]);
    assert_clean_failure(&out, "needs a value");
}

#[test]
fn positional_argument_is_rejected() {
    let out = deeppower(&["grid", "xapian"]);
    assert_clean_failure(&out, "unexpected argument `xapian`");
}

#[test]
fn monitor_without_input_fails() {
    let out = deeppower(&["monitor"]);
    assert_clean_failure(&out, "monitor needs --input");
}

#[test]
fn monitor_missing_artifact_fails() {
    let out = deeppower(&["monitor", "--input", "/nonexistent/node00.jsonl"]);
    assert_clean_failure(&out, "cannot read telemetry artifact");
}

#[test]
fn monitor_corrupt_artifact_fails() {
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("truncated.jsonl");
    // A truncated write: valid first line, garbage second.
    std::fs::write(&path, "{\"t\":0,\"kind\":\"nope\"\n{half a li").unwrap();
    let out = deeppower(&["monitor", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "corrupt artifact");
    // The diagnostic must point at the offending line.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("line 1"), "no line number in:\n{stderr}");
    std::fs::remove_file(&path).ok();
}

/// An artifact with events but no `WindowRollup`s (e.g. recorded before
/// windows existed, or with windowing disabled) has nothing for the
/// monitor to evaluate — that is an error, not an empty healthy report.
#[test]
fn monitor_artifact_without_rollups_fails() {
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("no-rollups.jsonl");
    std::fs::write(
        &path,
        "{\"LatencySnapshot\":{\"t\":1000000000,\"count\":10,\"p50_ns\":1,\"p95_ns\":2,\"p99_ns\":3,\"timeouts\":0}}\n",
    )
    .unwrap();
    let out = deeppower(&["monitor", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "no window rollups");
    std::fs::remove_file(&path).ok();
}

#[test]
fn monitor_bad_slo_spec_fails() {
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let slo = dir.join("bad-slo.json");
    std::fs::write(&slo, "{ not an slo").unwrap();
    // The SLO parse happens before artifacts are opened, so the input
    // path never being read is fine here.
    let out = deeppower(&[
        "monitor",
        "--input",
        "/nonexistent/node00.jsonl",
        "--slo",
        slo.to_str().unwrap(),
    ]);
    assert_clean_failure(&out, "bad SLO spec");
    std::fs::remove_file(&slo).ok();
}

#[test]
fn robustness_unknown_scenario_fails() {
    let out = deeppower(&[
        "robustness",
        "--app",
        "masstree",
        "--scenario",
        "retry-strom",
    ]);
    assert_clean_failure(
        &out,
        "unknown scenario `retry-strom` (none|dvfs|sensor|stall|all|retry-storm|flash-crowd|collapse)",
    );
    assert_one_line_error(&out);
}

#[test]
fn robustness_unknown_queue_policy_fails() {
    let out = deeppower(&[
        "robustness",
        "--app",
        "masstree",
        "--queue-policy",
        "random",
    ]);
    assert_clean_failure(
        &out,
        "unknown queue policy `random` (fifo|lifo|drop-newest|drop-oldest)",
    );
    assert_one_line_error(&out);
}

#[test]
fn robustness_zero_queue_capacity_fails() {
    let out = deeppower(&["robustness", "--app", "masstree", "--queue-capacity", "0"]);
    assert_clean_failure(&out, "queue capacity must be at least 1");
    assert_one_line_error(&out);
}

#[test]
fn robustness_unparseable_queue_capacity_fails() {
    let out = deeppower(&["robustness", "--app", "masstree", "--queue-capacity", "-3"]);
    assert_clean_failure(&out, "bad value for --queue-capacity");
    assert_one_line_error(&out);
}

#[test]
fn robustness_retry_prob_out_of_range_fails() {
    for bad in ["1.5", "-0.1"] {
        let out = deeppower(&["robustness", "--app", "masstree", "--retry-prob", bad]);
        assert_clean_failure(&out, "retry probability must be within [0, 1]");
        assert_one_line_error(&out);
    }
    let out = deeppower(&["robustness", "--app", "masstree", "--retry-prob", "often"]);
    assert_clean_failure(&out, "bad value for --retry-prob");
    assert_one_line_error(&out);
}

/// The diagnostic itself is a single `error: ...` line (the usage block
/// that follows is separated by a blank line).
fn assert_one_line_error(out: &Output) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    let first = stderr.lines().next().unwrap_or("");
    assert!(
        first.starts_with("[error] "),
        "diagnostic must lead stderr:\n{stderr}"
    );
    assert_eq!(
        stderr.lines().nth(1).unwrap_or(""),
        "",
        "diagnostic must be one line:\n{stderr}"
    );
}

#[test]
fn fleet_unknown_fault_scenario_fails() {
    let out = deeppower(&["fleet", "--app", "masstree", "--fault", "gremlins"]);
    assert_clean_failure(&out, "unknown fault scenario `gremlins`");
}

#[test]
fn fleet_monitor_and_telemetry_are_exclusive() {
    let out = deeppower(&[
        "fleet",
        "--app",
        "masstree",
        "--monitor",
        "--telemetry",
        "/tmp/deeppower-cli-errors-tele",
    ]);
    assert_clean_failure(&out, "mutually exclusive");
}

/// A report path whose parent directory does not exist must surface the
/// I/O error (from the atomic temp-file create) instead of panicking —
/// and fast, so use the cheapest possible grid cell.
#[test]
fn unwritable_report_path_fails() {
    let out = deeppower(&[
        "grid",
        "--apps",
        "masstree",
        "--governors",
        "baseline",
        "--seeds",
        "1",
        "--duration-s",
        "1",
        "-o",
        "/nonexistent-dir/report.json",
    ]);
    assert_clean_failure(&out, "");
    assert!(
        !Path::new("/nonexistent-dir/report.json").exists(),
        "no partial report may appear at the target path"
    );
}

#[test]
fn rtrace_sample_out_of_range_fails() {
    let out = deeppower(&["rtrace", "--app", "masstree", "--sample", "1.5"]);
    assert_clean_failure(&out, "bad value for --sample");
    let out = deeppower(&["rtrace", "--app", "masstree", "--sample", "-0.1"]);
    assert_clean_failure(&out, "bad value for --sample");
}

#[test]
fn rtrace_non_numeric_exemplars_fails() {
    let out = deeppower(&["rtrace", "--app", "masstree", "--exemplars", "many"]);
    assert_clean_failure(&out, "bad value for --exemplars");
}

#[test]
fn rtrace_missing_input_file_fails() {
    let out = deeppower(&["rtrace", "--input", "/nonexistent/traces.jsonl"]);
    assert_clean_failure(&out, "cannot read trace artifact");
}

#[test]
fn rtrace_corrupt_input_fails() {
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("corrupt-traces.jsonl");
    std::fs::write(&path, "this is not jsonl\n").unwrap();
    let out = deeppower(&["rtrace", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "corrupt artifact");
    std::fs::remove_file(&path).ok();
}

#[test]
fn rtrace_input_without_traces_fails() {
    // A valid telemetry artifact that holds no RequestTrace events must
    // say so, and point at how to record one.
    let dir = std::env::temp_dir().join("deeppower-cli-errors");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("no-traces.jsonl");
    std::fs::write(
        &path,
        "{\"JobStart\":{\"job\":0,\"app\":\"masstree\",\"governor\":\"max-freq\",\"seed\":1}}\n",
    )
    .unwrap();
    let out = deeppower(&["rtrace", "--input", path.to_str().unwrap()]);
    assert_clean_failure(&out, "no request traces");
    std::fs::remove_file(&path).ok();
}

#[test]
fn rtrace_input_and_live_run_are_mutually_exclusive() {
    let out = deeppower(&["rtrace", "--input", "x.jsonl", "--app", "masstree"]);
    assert_clean_failure(&out, "pick one");
}

#[test]
fn rtrace_unknown_scenario_fails() {
    let out = deeppower(&["rtrace", "--app", "masstree", "--scenario", "bogus"]);
    assert_clean_failure(&out, "unknown overload scenario `bogus`");
}

#[test]
fn fleet_trace_without_sink_fails() {
    let out = deeppower(&["fleet", "--app", "masstree", "--trace"]);
    assert_clean_failure(&out, "--trace needs a sink");
}

#[test]
fn fleet_trace_sample_out_of_range_fails() {
    let out = deeppower(&[
        "fleet",
        "--app",
        "masstree",
        "--monitor",
        "--trace",
        "--trace-sample",
        "7",
    ]);
    assert_clean_failure(&out, "bad value for --trace-sample");
}

#[test]
fn fleet_flight_dump_without_trace_fails() {
    let out = deeppower(&[
        "fleet",
        "--app",
        "masstree",
        "--monitor",
        "--flight-dump",
        "/tmp/deeppower-cli-errors-dumps",
    ]);
    assert_clean_failure(&out, "--flight-dump needs --trace --monitor");
}

#[test]
fn misspelled_flag_fails_and_names_flag_and_command() {
    let csv = "/tmp/deeppower-cli-errors-trace.csv";
    let _ = std::fs::remove_file(csv);
    let out = deeppower(&["workload-trace", "--perod-s", "10", "-o", csv]);
    assert_clean_failure(&out, "unknown flag `--perod-s` for `workload-trace`");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        stderr.lines().nth(1).unwrap_or(""),
        "",
        "diagnostic must be one line:\n{stderr}"
    );
    assert!(
        !Path::new(csv).exists(),
        "a rejected command still wrote its output"
    );
    // A flag another command reads is still unknown here.
    let out = deeppower(&["eval", "--threads", "2"]);
    assert_clean_failure(&out, "unknown flag `--threads` for `eval`");
}
