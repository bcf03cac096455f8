//! `agemul-benchmark`: the repository's benchmark. Four seeded workloads
//! drive the simulation stack and the resident service through their
//! public entry points; each run prints every metric by name with its unit,
//! checks the outputs, and ends with one JSON summary line.
//!
//! ```text
//! agemul-benchmark run [--workload NAME|all] [--seed N] [--seconds S]
//!                      [--trace 0|1] [--out FILE.jsonl] [--smoke]
//! agemul-benchmark compare PARENT.jsonl CHANGE.jsonl
//! ```
//!
//! See README.md for the workloads, the metrics and their bounds.

mod compare;
mod metrics;
mod openloop;
mod probes;
mod record;
mod rng;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::Command;

use agemul_conformance::Json;

use metrics::{unit_of, END_TO_END, PER_LAYER};
use record::Row;
use workloads::{Opts, Outcome, Workload};

const USAGE: &str = "usage:
  agemul-benchmark run [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]
                       [--out FILE.jsonl] [--smoke]
  agemul-benchmark compare PARENT.jsonl CHANGE.jsonl
workloads: profile-cold, aging-sweep, mc-yield, serve-open";

/// Seed of a run that names none.
const DEFAULT_SEED: u64 = 1;
/// Measured seconds of a run that names none (`run_seconds` in
/// BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;
/// Where a traced run writes `<workload>.spans.json`, relative to the
/// working directory.
const SPANS_DIR: &str = "target/bench-spans";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match args.first().map(String::as_str) {
        Some("run") => match parse_run(&args[1..]) {
            Ok(run) => cmd_run(&run),
            Err(e) => usage_error(&e),
        },
        Some("compare") if args.len() == 3 => {
            match compare::compare(args[1].as_ref(), args[2].as_ref()) {
                Ok(bad) => i32::from(bad),
                Err(e) => {
                    eprintln!("agemul-benchmark: {e}");
                    2
                }
            }
        }
        _ => usage_error("expected `run` or `compare A B`"),
    };
    std::process::exit(code);
}

fn usage_error(e: &str) -> i32 {
    eprintln!("agemul-benchmark: {e}\n{USAGE}");
    2
}

struct RunArgs {
    /// `None` runs every workload, each in its own process.
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
    smoke: bool,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            run.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                run.workload = match value.as_str() {
                    "all" => None,
                    name => Some(
                        Workload::parse(name)
                            .ok_or_else(|| format!("unknown workload {name:?}"))?,
                    ),
                }
            }
            "--seed" => run.seed = value.parse().map_err(|_| format!("bad --seed {value:?}"))?,
            "--seconds" => {
                run.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| {
                        format!("--seconds wants a number in (0, 600], got {value:?}")
                    })?;
            }
            "--trace" => {
                run.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                }
            }
            "--out" => run.out = Some(value.into()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(run)
}

fn cmd_run(run: &RunArgs) -> i32 {
    match run.workload {
        Some(workload) => run_one(workload, run),
        None => run_all(run),
    }
}

/// Runs each workload in a fresh process of this binary, in sequence, so
/// peak memory and cache state are per workload.
fn run_all(run: &RunArgs) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("agemul-benchmark: cannot locate own binary: {e}");
            return 1;
        }
    };
    let mut worst = 0;
    for workload in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args(["run", "--workload", workload.name()])
            .args(["--seed", &run.seed.to_string()])
            .args(["--seconds", &run.seconds.to_string()])
            .args(["--trace", if run.traced { "1" } else { "0" }]);
        if let Some(out) = &run.out {
            cmd.arg("--out").arg(out);
        }
        if run.smoke {
            cmd.arg("--smoke");
        }
        let code = match cmd.status() {
            Ok(status) => status.code().unwrap_or(1),
            Err(e) => {
                eprintln!("agemul-benchmark: {}: {e}", workload.name());
                1
            }
        };
        worst = worst.max(code);
    }
    worst
}

/// 0 when every check passed, 1 otherwise.
pub fn exit_code(outcome: &Outcome) -> i32 {
    i32::from(!outcome.correct())
}

fn run_one(workload: Workload, run: &RunArgs) -> i32 {
    let opts = Opts {
        seed: run.seed,
        seconds: run.seconds,
        traced: run.traced,
        smoke: run.smoke,
    };
    let w = workload.name();
    // One CPU for the whole run. The batch workloads are serial and lose
    // nothing by it; in serve-open the client and the server's workers then
    // hand requests over on one core instead of waking each other across
    // cores, which the host's scheduler times.
    match record::pin_to_one_cpu() {
        Ok(cpu) => println!("{w} pinned to cpu {cpu}"),
        Err(e) => eprintln!("{w}: running unpinned: {e}"),
    }
    let mut outcome = workloads::run(workload, &opts);
    let names: Vec<&str> = if run.traced {
        PER_LAYER.iter().map(|(n, _)| *n).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    let mut summary = Vec::new();
    for name in names {
        let unit = unit_of(name).unwrap_or("");
        let Some(r) = outcome.readings.get(name) else {
            if outcome.checks.iter().all(|c| c.result.is_ok()) {
                outcome.checks.push(workloads::Check::new(
                    "metrics",
                    Err(format!("{name} was not measured")),
                ));
            }
            continue;
        };
        let note = if r.detail.is_empty() {
            format!("n={}", r.samples)
        } else {
            format!("{}, n={}", r.detail, r.samples)
        };
        println!("{w} {name} {} {unit} ({note})", r.value);
        summary.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::Num(r.value)),
                ("unit".into(), Json::Str(unit.into())),
            ]),
        ));
    }
    println!("{w} digest {:016x}", outcome.digest);
    for check in &outcome.checks {
        match &check.result {
            Ok(()) => println!("{w} check {} ok", check.name),
            Err(e) => println!("{w} check {} FAILED: {e}", check.name),
        }
    }
    println!(
        "{w} ops attempted {} failed {}",
        outcome.attempted, outcome.failed
    );

    if run.traced {
        let dir = std::path::Path::new(SPANS_DIR);
        let path = dir.join(format!("{w}.spans.json"));
        let written = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::to_json(&outcome.spans).to_string()));
        match written {
            Ok(()) => eprintln!(
                "{w}: {} spans written to {}",
                outcome.spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("{w}: writing spans to {}: {e}", path.display()),
        }
    }
    if let Some(out) = &run.out {
        let row = Row {
            schema: record::SCHEMA.into(),
            commit: record::commit(),
            nproc: record::nproc(),
            seed: run.seed,
            workload: w.into(),
            traced: run.traced,
            seconds: run.seconds,
            correct: outcome.correct(),
            attempted: outcome.attempted,
            failed: outcome.failed,
            digest: outcome.digest,
            metrics: Row::metrics_from(&outcome.readings),
        };
        if let Err(e) = record::append(out, &row) {
            eprintln!("{w}: appending to {}: {e}", out.display());
        }
    }

    let last = Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.correct())),
        ("attempted".into(), Json::UInt(outcome.attempted.max(1))),
        ("failed".into(), Json::UInt(outcome.failed)),
        ("metrics".into(), Json::Obj(summary)),
    ]);
    println!("{last}");
    exit_code(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_flags_parse_and_reject() {
        let run = parse_run(&args(
            "--workload mc-yield --seed 9 --seconds 2.5 --trace 1 --smoke",
        ))
        .unwrap();
        assert_eq!(run.workload, Some(Workload::McYield));
        assert_eq!(
            (run.seed, run.seconds, run.traced, run.smoke),
            (9, 2.5, true, true)
        );
        assert_eq!(parse_run(&args("--workload all")).unwrap().workload, None);
        for bad in [
            "--trace 2",
            "--seconds 0",
            "--seconds nan",
            "--workload nope",
            "--seed",
            "--bogus 1",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad}");
        }
    }

    /// The catalogue in the code and the one in BENCHMARK.json agree.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let doc = Json::parse(&text).unwrap();
        let e2e = doc.get("end_to_end").and_then(Json::as_arr).unwrap();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (m, def) in e2e.iter().zip(END_TO_END) {
            assert_eq!(m.get("name").and_then(Json::as_str), Some(def.name));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(def.unit));
            assert_eq!(
                m.get("better").and_then(Json::as_str),
                Some(def.better.label())
            );
            assert_eq!(m.get("bound").and_then(Json::as_f64), Some(def.bound));
        }
        let layers = doc.get("per_layer").and_then(Json::as_arr).unwrap();
        let names: Vec<(&str, &str)> = layers
            .iter()
            .map(|m| {
                (
                    m.get("name").and_then(Json::as_str).unwrap(),
                    m.get("unit").and_then(Json::as_str).unwrap(),
                )
            })
            .collect();
        assert_eq!(names, PER_LAYER);
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(Workload::name));
    }
}
