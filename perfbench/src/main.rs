//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! [--seed-set dev|heldout]`
//!
//! Prints a manifest line, then (traced runs) the per-layer self-time
//! table, and as its last line one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. Exits non-zero when a
//! correctness check fails.

use deeppower_perfbench::report::{json_str, result_json, revision, rustc_version, Manifest};
use deeppower_perfbench::workloads::{Scale, SeedSet, Workload};
use deeppower_perfbench::{run_traced, run_untraced};
use std::path::Path;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    seed_set: SeedSet,
}

const USAGE: &str = "usage: perfbench --workload <fleet-jsq16|overload-collapse4|train-xapian> \
--seed <n> --seconds <s> --trace <0|1> [--seed-set dev|heldout]";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut seed_set = SeedSet::Dev;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad seconds `{value}`"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            "--seed-set" => {
                seed_set = SeedSet::parse(value).ok_or(format!("unknown seed set `{value}`"))?
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        seed_set,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let scale = Scale::BENCH;
    let workload_seed = args.seed_set.workload_seed(args.seed);
    let seconds = args.seconds as f64;
    let report = if args.trace {
        run_traced(args.workload, workload_seed, seconds, scale)
    } else {
        run_untraced(args.workload, workload_seed, seconds, scale)
    };

    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the repository");
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut manifest = Manifest {
        fields: vec![
            ("revision", json_str(&revision(root))),
            ("nproc", nproc.to_string()),
            ("rustc", json_str(&rustc_version())),
            ("workload", json_str(args.workload.name())),
            ("seed", args.seed.to_string()),
            ("seed_set", json_str(args.seed_set.name())),
            ("workload_seed", workload_seed.to_string()),
            ("seconds", args.seconds.to_string()),
            ("trace", (args.trace as u8).to_string()),
            ("scale", json_str(&format!("{scale:?}"))),
            ("digest", json_str(&format!("{:016x}", report.digest))),
        ],
    };
    manifest
        .fields
        .extend(report.notes.iter().map(|(k, v)| (*k, v.to_string())));
    println!("{}", manifest.to_json());

    if let Some((tr, wall_s)) = &report.tracer {
        let layers = tr.layers();
        let wall = wall_s * 1e9;
        println!(
            "{:<22} {:>10} {:>12} {:>12} {:>7}",
            "layer", "count", "total_ms", "self_ms", "self%"
        );
        for (name, l) in &layers {
            println!(
                "{:<22} {:>10} {:>12.2} {:>12.2} {:>6.1}%",
                name,
                l.count,
                l.total_ns as f64 / 1e6,
                l.self_ns as f64 / 1e6,
                100.0 * l.self_ns as f64 / wall
            );
        }
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!(
            "spans-{}-{}-{}.jsonl",
            args.workload.name(),
            args.seed_set.name(),
            args.seed
        ));
        let written = std::fs::create_dir_all(&dir).and_then(|_| {
            let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
            tr.write_jsonl(&mut f)?;
            std::io::Write::flush(&mut f)
        });
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    if let Some(e) = &report.error {
        eprintln!("perfbench: check failed: {e}");
    }
    println!(
        "{}",
        result_json(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
