//! `repro` — regenerate the paper's tables and figures from simulation,
//! or talk to a resident `agemul-serve` instance.
//!
//! ```text
//! repro [--quick | --paper] [--csv <dir>] [--list]
//!       [--resume <ckpt>] [--deadline-ms <N>] [--max-retries <N>]
//!       <experiment>... | all
//! repro serve [--addr <host:port> | --unix <path>] [--workers <N>]
//!       [--shard-cap <N>] [--snapshot <path>] [--max-retries <N>]
//! repro query [--addr <host:port> | --unix <path>] --op <op>
//!       [--kind <K>] [--width <N>] [--years <Y>] [--patterns <N>]
//!       [--seed <N>] [--periods <a,b,..>] [--skip <N>]
//!       [--faults <N>] [--fault-seed <N>] [--nodes <N>] [--epochs <N>]
//!       [--policy <P>] [--deadline-ms <N>]
//! ```
//!
//! A failing experiment no longer aborts the batch: every requested
//! experiment runs, a per-experiment pass/fail summary is printed at the
//! end, and the exit code is nonzero if *any* failed. With `--resume` (or
//! a deadline/retry budget) the batch runs under the `agemul-harness`
//! supervisor: completed experiments are checkpointed to the given path —
//! a killed `repro all` picks up where it died — panicking experiments are
//! quarantined instead of taking the batch down, and deadline overruns
//! degrade to the event-driven reference engine before giving up.
//!
//! Every value-taking flag may be given at most once — `--csv a --csv b`
//! is rejected instead of silently keeping the last value —
//! and `--deadline-ms 0` is rejected (a zero budget would quarantine
//! every experiment; omit the flag to disable the deadline).

use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use agemul::Json;
use agemul_fleet::RoutingPolicy;
use agemul_harness::{Attempt, CaseError, CaseStatus, Resume, Supervisor, SupervisorConfig};
use agemul_repro::{experiments, Context, Report, Scale};
use agemul_serve::{
    parse_kind, roundtrip, DesignQuery, Endpoint, Request, RequestBody, ServeConfig,
};

fn usage() {
    eprintln!(
        "usage: repro [--quick | --paper] [--csv <dir>] [--list] \
         [--resume <ckpt>] [--deadline-ms <N>] [--max-retries <N>] <experiment>... | all"
    );
    eprintln!(
        "       repro serve [--addr <host:port> | --unix <path>] [--workers <N>] \
         [--shard-cap <N>] [--snapshot <path>] [--max-retries <N>]"
    );
    eprintln!(
        "       repro query [--addr <host:port> | --unix <path>] --op \
         <profile|sweep|campaign|mc|fleet|stats|shutdown> [op fields...]"
    );
    eprintln!("experiments: {}", experiments::ALL_IDS.join(", "));
}

// ---------------------------------------------------------------------------
// CLI model + parser (unit-tested below)
// ---------------------------------------------------------------------------

/// Batch-run arguments (the original `repro` mode).
#[derive(Debug)]
struct RunArgs {
    scale: Scale,
    ids: Vec<String>,
    csv_dir: Option<PathBuf>,
    resume: Option<PathBuf>,
    deadline: Option<Duration>,
    max_retries: Option<u32>,
}

/// `repro serve` arguments.
#[derive(Debug)]
struct ServeArgs {
    endpoint: Endpoint,
    workers: usize,
    shard_capacity: Option<usize>,
    snapshot: Option<PathBuf>,
    max_retries: u32,
}

/// `repro query` arguments: where to connect and the request to send.
#[derive(Debug)]
struct QueryArgs {
    endpoint: Endpoint,
    request: Request,
}

/// What the command line asked for.
#[derive(Debug)]
enum Command {
    Help,
    List,
    Run(RunArgs),
    Serve(ServeArgs),
    Query(Box<QueryArgs>),
}

/// Sets a value-taking flag exactly once; a repeat is a parse error
/// instead of a silent keep-last.
fn set_once<T>(slot: &mut Option<T>, flag: &str, value: T) -> Result<(), String> {
    if slot.is_some() {
        return Err(format!(
            "flag {flag} given more than once; each value-taking flag may appear only once"
        ));
    }
    *slot = Some(value);
    Ok(())
}

/// Consumes the flag's value from the argument list.
fn next_value<'a>(args: &'a [String], i: &mut usize, flag: &str) -> Result<&'a str, String> {
    *i += 1;
    args.get(*i)
        .map(String::as_str)
        .ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_deadline_ms(raw: &str) -> Result<Duration, String> {
    let ms: u64 = raw
        .parse()
        .map_err(|e| format!("--deadline-ms: {e} (got {raw:?})"))?;
    if ms == 0 {
        return Err(
            "--deadline-ms 0 would quarantine every case; omit the flag to disable the deadline"
                .into(),
        );
    }
    Ok(Duration::from_millis(ms))
}

fn parse_usize(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse()
        .map_err(|e| format!("{flag}: {e} (got {raw:?})"))
}

fn parse_u64(flag: &str, raw: &str) -> Result<u64, String> {
    raw.parse()
        .map_err(|e| format!("{flag}: {e} (got {raw:?})"))
}

/// Parses the full command line (without `argv[0]`).
fn parse_cli(args: &[String]) -> Result<Command, String> {
    match args.first().map(String::as_str) {
        Some("serve") => parse_serve(&args[1..]),
        Some("query") => parse_query(&args[1..]),
        _ => parse_run(args),
    }
}

fn parse_run(args: &[String]) -> Result<Command, String> {
    let mut scale: Option<Scale> = None;
    let mut ids: Vec<String> = Vec::new();
    let mut csv_dir: Option<PathBuf> = None;
    let mut resume: Option<PathBuf> = None;
    let mut deadline: Option<Duration> = None;
    let mut max_retries: Option<u32> = None;

    let mut i = 0;
    while i < args.len() {
        let arg = args[i].as_str();
        match arg {
            "--quick" | "--paper" => {
                let s = if arg == "--quick" {
                    Scale::Quick
                } else {
                    Scale::Paper
                };
                if scale.is_some() {
                    return Err("scale (--quick/--paper) given more than once".into());
                }
                scale = Some(s);
            }
            "--csv" => {
                let v = next_value(args, &mut i, "--csv")?;
                set_once(&mut csv_dir, "--csv", PathBuf::from(v))?;
            }
            "--resume" => {
                let v = next_value(args, &mut i, "--resume")?;
                set_once(&mut resume, "--resume", PathBuf::from(v))?;
            }
            "--deadline-ms" => {
                let v = next_value(args, &mut i, "--deadline-ms")?;
                let d = parse_deadline_ms(v)?;
                set_once(&mut deadline, "--deadline-ms", d)?;
            }
            "--max-retries" => {
                let v = next_value(args, &mut i, "--max-retries")?;
                let n: u32 = v
                    .parse()
                    .map_err(|e| format!("--max-retries: {e} (got {v:?})"))?;
                set_once(&mut max_retries, "--max-retries", n)?;
            }
            "--list" => return Ok(Command::List),
            "--help" | "-h" => return Ok(Command::Help),
            "all" => ids.extend(experiments::ALL_IDS.iter().map(|s| s.to_string())),
            other if other.starts_with('-') => return Err(format!("unknown flag: {other}")),
            other => ids.push(other.to_string()),
        }
        i += 1;
    }
    if ids.is_empty() {
        return Err("no experiments requested".into());
    }
    ids.dedup();
    Ok(Command::Run(RunArgs {
        scale: scale.unwrap_or(Scale::Standard),
        ids,
        csv_dir,
        resume,
        deadline,
        max_retries,
    }))
}

/// Parses the shared `--addr`/`--unix` endpoint flags (mutually
/// exclusive); `default_addr` applies when neither is given.
fn parse_endpoint(
    addr: Option<String>,
    unix: Option<PathBuf>,
    default_addr: &str,
) -> Result<Endpoint, String> {
    match (addr, unix) {
        (Some(_), Some(_)) => Err("--addr and --unix are mutually exclusive".into()),
        (Some(addr), None) => Ok(Endpoint::Tcp(addr)),
        (None, Some(path)) => Ok(Endpoint::Unix(path)),
        (None, None) => Ok(Endpoint::Tcp(default_addr.into())),
    }
}

fn parse_serve(args: &[String]) -> Result<Command, String> {
    let mut addr: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut workers: Option<usize> = None;
    let mut shard_cap: Option<usize> = None;
    let mut snapshot: Option<PathBuf> = None;
    let mut max_retries: Option<u32> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let v = next_value(args, &mut i, "--addr")?;
                set_once(&mut addr, "--addr", v.to_string())?;
            }
            "--unix" => {
                let v = next_value(args, &mut i, "--unix")?;
                set_once(&mut unix, "--unix", PathBuf::from(v))?;
            }
            "--workers" => {
                let v = next_value(args, &mut i, "--workers")?;
                let n = parse_usize("--workers", v)?;
                if n == 0 {
                    return Err("--workers must be positive".into());
                }
                set_once(&mut workers, "--workers", n)?;
            }
            "--shard-cap" => {
                let v = next_value(args, &mut i, "--shard-cap")?;
                let n = parse_usize("--shard-cap", v)?;
                if n == 0 {
                    return Err("--shard-cap must be positive (it bounds each cache shard)".into());
                }
                set_once(&mut shard_cap, "--shard-cap", n)?;
            }
            "--snapshot" => {
                let v = next_value(args, &mut i, "--snapshot")?;
                set_once(&mut snapshot, "--snapshot", PathBuf::from(v))?;
            }
            "--max-retries" => {
                let v = next_value(args, &mut i, "--max-retries")?;
                let n: u32 = v
                    .parse()
                    .map_err(|e| format!("--max-retries: {e} (got {v:?})"))?;
                set_once(&mut max_retries, "--max-retries", n)?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
        i += 1;
    }
    Ok(Command::Serve(ServeArgs {
        endpoint: parse_endpoint(addr, unix, "127.0.0.1:7171")?,
        workers: workers.unwrap_or(4),
        shard_capacity: Some(shard_cap.unwrap_or(64)),
        snapshot,
        max_retries: max_retries.unwrap_or(1),
    }))
}

fn parse_query(args: &[String]) -> Result<Command, String> {
    let mut addr: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut op: Option<String> = None;
    let mut kind: Option<String> = None;
    let mut width: Option<usize> = None;
    let mut years: Option<f64> = None;
    let mut patterns: Option<usize> = None;
    let mut seed: Option<u64> = None;
    let mut periods: Option<Vec<f64>> = None;
    let mut skip: Option<u32> = None;
    let mut faults: Option<usize> = None;
    let mut fault_seed: Option<u64> = None;
    let mut corners: Option<usize> = None;
    let mut sigma: Option<f64> = None;
    let mut mc_seed: Option<u64> = None;
    let mut nodes: Option<usize> = None;
    let mut epochs: Option<usize> = None;
    let mut policy: Option<RoutingPolicy> = None;
    let mut deadline: Option<Duration> = None;

    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                let v = next_value(args, &mut i, "--addr")?;
                set_once(&mut addr, "--addr", v.to_string())?;
            }
            "--unix" => {
                let v = next_value(args, &mut i, "--unix")?;
                set_once(&mut unix, "--unix", PathBuf::from(v))?;
            }
            "--op" => {
                let v = next_value(args, &mut i, "--op")?;
                set_once(&mut op, "--op", v.to_string())?;
            }
            "--kind" => {
                let v = next_value(args, &mut i, "--kind")?;
                set_once(&mut kind, "--kind", v.to_string())?;
            }
            "--width" => {
                let v = next_value(args, &mut i, "--width")?;
                let n = parse_usize("--width", v)?;
                if n == 0 {
                    return Err("--width must be positive".into());
                }
                set_once(&mut width, "--width", n)?;
            }
            "--years" => {
                let v = next_value(args, &mut i, "--years")?;
                let y: f64 = v.parse().map_err(|e| format!("--years: {e} (got {v:?})"))?;
                if !y.is_finite() || y < 0.0 {
                    return Err(format!("--years must be finite and non-negative, got {v}"));
                }
                set_once(&mut years, "--years", y)?;
            }
            "--patterns" => {
                let v = next_value(args, &mut i, "--patterns")?;
                let n = parse_usize("--patterns", v)?;
                if n == 0 {
                    return Err("--patterns must be positive".into());
                }
                set_once(&mut patterns, "--patterns", n)?;
            }
            "--seed" => {
                let v = next_value(args, &mut i, "--seed")?;
                set_once(&mut seed, "--seed", parse_u64("--seed", v)?)?;
            }
            "--periods" => {
                let v = next_value(args, &mut i, "--periods")?;
                let mut parsed = Vec::new();
                for part in v.split(',') {
                    let p: f64 = part
                        .trim()
                        .parse()
                        .map_err(|e| format!("--periods: {e} (got {part:?})"))?;
                    if !p.is_finite() || p <= 0.0 {
                        return Err(format!(
                            "--periods: want finite positive values, got {part}"
                        ));
                    }
                    parsed.push(p);
                }
                if parsed.is_empty() {
                    return Err("--periods needs at least one value".into());
                }
                set_once(&mut periods, "--periods", parsed)?;
            }
            "--skip" => {
                let v = next_value(args, &mut i, "--skip")?;
                let n: u32 = v.parse().map_err(|e| format!("--skip: {e} (got {v:?})"))?;
                set_once(&mut skip, "--skip", n)?;
            }
            "--faults" => {
                let v = next_value(args, &mut i, "--faults")?;
                let n = parse_usize("--faults", v)?;
                if n == 0 {
                    return Err("--faults must be positive".into());
                }
                set_once(&mut faults, "--faults", n)?;
            }
            "--fault-seed" => {
                let v = next_value(args, &mut i, "--fault-seed")?;
                set_once(
                    &mut fault_seed,
                    "--fault-seed",
                    parse_u64("--fault-seed", v)?,
                )?;
            }
            "--corners" => {
                let v = next_value(args, &mut i, "--corners")?;
                let n = parse_usize("--corners", v)?;
                if n == 0 {
                    return Err("--corners must be positive".into());
                }
                set_once(&mut corners, "--corners", n)?;
            }
            "--sigma" => {
                let v = next_value(args, &mut i, "--sigma")?;
                let s: f64 = v.parse().map_err(|e| format!("--sigma: {e} (got {v:?})"))?;
                if !s.is_finite() || s < 0.0 {
                    return Err(format!("--sigma must be finite and non-negative, got {v}"));
                }
                set_once(&mut sigma, "--sigma", s)?;
            }
            "--mc-seed" => {
                let v = next_value(args, &mut i, "--mc-seed")?;
                set_once(&mut mc_seed, "--mc-seed", parse_u64("--mc-seed", v)?)?;
            }
            "--nodes" => {
                let v = next_value(args, &mut i, "--nodes")?;
                let n = parse_usize("--nodes", v)?;
                if n == 0 {
                    return Err("--nodes must be positive".into());
                }
                set_once(&mut nodes, "--nodes", n)?;
            }
            "--epochs" => {
                let v = next_value(args, &mut i, "--epochs")?;
                let n = parse_usize("--epochs", v)?;
                if n == 0 {
                    return Err("--epochs must be positive".into());
                }
                set_once(&mut epochs, "--epochs", n)?;
            }
            "--policy" => {
                let v = next_value(args, &mut i, "--policy")?;
                set_once(&mut policy, "--policy", RoutingPolicy::parse(v)?)?;
            }
            "--deadline-ms" => {
                let v = next_value(args, &mut i, "--deadline-ms")?;
                let d = parse_deadline_ms(v)?;
                set_once(&mut deadline, "--deadline-ms", d)?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("query: unknown argument {other:?}")),
        }
        i += 1;
    }

    let op = op.ok_or("query needs --op <profile|sweep|campaign|mc|fleet|stats|shutdown>")?;
    let design_query = |kind: &Option<String>| -> Result<DesignQuery, String> {
        let label = kind
            .as_deref()
            .ok_or_else(|| format!("--op {op} needs --kind"))?;
        Ok(DesignQuery {
            kind: parse_kind(label)?,
            width: width.ok_or_else(|| format!("--op {op} needs --width"))?,
            years: years.unwrap_or(0.0),
            patterns: patterns.unwrap_or(1_000),
            seed: seed.unwrap_or(42),
        })
    };
    let body = match op.as_str() {
        "profile" => RequestBody::Profile(design_query(&kind)?),
        "sweep" => RequestBody::Sweep {
            query: design_query(&kind)?,
            periods: periods.ok_or("--op sweep needs --periods <a,b,..>")?,
            skip: skip.unwrap_or(7),
        },
        "campaign" => RequestBody::Campaign {
            query: design_query(&kind)?,
            faults: faults.ok_or("--op campaign needs --faults")?,
            fault_seed: fault_seed.unwrap_or(1),
            skip: skip.unwrap_or(7),
        },
        "mc" => RequestBody::Mc {
            query: design_query(&kind)?,
            corners: corners.ok_or("--op mc needs --corners")?,
            sigma: sigma.unwrap_or(0.05),
            mc_seed: mc_seed.unwrap_or(1),
            skip: skip.unwrap_or(7),
        },
        "fleet" => RequestBody::Fleet {
            query: design_query(&kind)?,
            nodes: nodes.ok_or("--op fleet needs --nodes")?,
            epochs: epochs.ok_or("--op fleet needs --epochs")?,
            policy: policy.unwrap_or(RoutingPolicy::AgingAware),
            skip: skip.unwrap_or(7),
        },
        "stats" => RequestBody::Stats,
        "shutdown" => RequestBody::Shutdown,
        other => {
            return Err(format!(
                "unknown op {other:?} (want profile, sweep, campaign, mc, fleet, stats, or \
                 shutdown)"
            ))
        }
    };
    Ok(Command::Query(Box::new(QueryArgs {
        endpoint: parse_endpoint(addr, unix, "127.0.0.1:7171")?,
        request: Request {
            id: 1,
            deadline_ms: deadline.map(|d| d.as_millis() as u64),
            body,
        },
    })))
}

// ---------------------------------------------------------------------------
// Batch-run machinery (unchanged behaviour)
// ---------------------------------------------------------------------------

/// Prints one experiment's report (and optional CSV dump); returns `false`
/// if the experiment failed or a CSV could not be written.
fn emit(
    id: &str,
    outcome: agemul_repro::Result<Report>,
    secs: f64,
    csv_dir: Option<&Path>,
) -> bool {
    match outcome {
        Ok(report) => {
            println!("{report}");
            println!("[{id} completed in {secs:.1}s]\n");
            if let Some(dir) = csv_dir {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("cannot create {}: {e}", dir.display());
                    return false;
                }
                for table in &report.tables {
                    let path = dir.join(format!("{}__{}.csv", report.id, table.slug()));
                    if let Err(e) = std::fs::write(&path, table.to_csv()) {
                        eprintln!("cannot write {}: {e}", path.display());
                        return false;
                    }
                }
            }
            true
        }
        Err(e) => {
            eprintln!("experiment {id} failed: {e}");
            false
        }
    }
}

/// One line per experiment, then the aggregate verdict. Returns the exit
/// code: success only if every experiment passed.
fn summarize(results: &[(String, bool, f64)]) -> ExitCode {
    let failed: Vec<&str> = results
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|(id, _, _)| id.as_str())
        .collect();
    eprintln!("summary:");
    for (id, ok, secs) in results {
        eprintln!(
            "  {id:<20} {} ({secs:.1}s)",
            if *ok { "ok" } else { "FAILED" }
        );
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "{}/{} experiment(s) failed: {}",
            failed.len(),
            results.len(),
            failed.join(", ")
        );
        ExitCode::FAILURE
    }
}

/// Serializes a finished report (rendered text + CSV tables) as the
/// supervised case's checkpoint value, so a resumed run can re-emit it
/// without recomputing the experiment.
fn report_to_json(report: &Report) -> Json {
    let tables = report
        .tables
        .iter()
        .map(|t| {
            Json::Obj(vec![
                ("slug".into(), Json::Str(t.slug())),
                ("csv".into(), Json::Str(t.to_csv())),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("id".into(), Json::Str(report.id.clone())),
        ("text".into(), Json::Str(report.to_string())),
        ("tables".into(), Json::Arr(tables)),
    ])
}

/// Re-emits a checkpointed report value; returns `false` on decode or CSV
/// failures.
fn emit_json(id: &str, value: &Json, csv_dir: Option<&Path>) -> bool {
    let Some(text) = value.get("text").and_then(Json::as_str) else {
        eprintln!("experiment {id}: checkpointed value has no text");
        return false;
    };
    println!("{text}");
    if let Some(dir) = csv_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("cannot create {}: {e}", dir.display());
            return false;
        }
        for t in value.get("tables").and_then(Json::as_arr).unwrap_or(&[]) {
            let (Some(slug), Some(csv)) = (
                t.get("slug").and_then(Json::as_str),
                t.get("csv").and_then(Json::as_str),
            ) else {
                eprintln!("experiment {id}: malformed checkpointed table");
                return false;
            };
            let path = dir.join(format!("{id}__{slug}.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    true
}

/// Runs the batch under the harness supervisor: one case per experiment,
/// each on a fresh [`Context`] with the attempt's engine and deadline
/// token installed.
fn run_supervised(run: &RunArgs) -> ExitCode {
    let ids = &run.ids;
    let scale = run.scale;
    let csv_dir = run.csv_dir.as_deref();
    let config = SupervisorConfig {
        deadline: run.deadline,
        // Experiments are deterministic, so a failure repeats; retries
        // only pay off against deadline jitter.
        max_retries: run.max_retries.unwrap_or(0),
        checkpoint_every: 1,
        ..SupervisorConfig::default()
    };
    let supervisor = Supervisor::new(
        format!("repro/{scale:?}/{}", ids.join("+")),
        ids.to_vec(),
        config,
    );
    let worker = |attempt: &Attempt| -> Result<Json, CaseError> {
        let id = &ids[attempt.index];
        let mut ctx = Context::new(scale);
        ctx.set_supervision(attempt.engine, attempt.cancel.clone());
        let report =
            experiments::run_by_id(&mut ctx, id).map_err(|e| CaseError::from_error(&*e))?;
        Ok(report_to_json(&report))
    };

    let start = Instant::now();
    let ledger = match supervisor.run(
        &worker,
        run.resume.as_deref(),
        if run.resume.is_some() {
            Resume::Attempt
        } else {
            Resume::Fresh
        },
    ) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("supervised run failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let secs = start.elapsed().as_secs_f64();

    let mut results = Vec::with_capacity(ids.len());
    for rec in &ledger.records {
        let ok = match &rec.status {
            CaseStatus::Done { value } => {
                let ok = emit_json(&rec.label, value, csv_dir);
                if rec.degraded {
                    eprintln!(
                        "note: {} completed on the event-driven reference engine \
                         after exhausting its levelized-kernel budget",
                        rec.label
                    );
                }
                ok
            }
            CaseStatus::Quarantined { reason } => {
                eprintln!("experiment {} quarantined: {reason}", rec.label);
                false
            }
        };
        // Per-case timing is not tracked through the checkpoint; report
        // the batch total on the last line instead.
        results.push((rec.label.clone(), ok, 0.0));
    }
    eprintln!(
        "all {} experiment(s) done in {secs:.1}s (scale: {scale:?}, supervised)",
        ids.len()
    );
    summarize(&results)
}

fn run_batch(run: RunArgs) -> ExitCode {
    if run.resume.is_some() || run.deadline.is_some() || run.max_retries.is_some() {
        return run_supervised(&run);
    }

    let scale = run.scale;
    let ids = run.ids;
    let csv_dir = run.csv_dir;
    let overall = Instant::now();
    let mut results: Vec<(String, bool, f64)> = Vec::with_capacity(ids.len());

    // One shared Context streams each report as soon as its experiment
    // completes.
    let mut ctx = Context::new(scale);
    for id in &ids {
        let start = Instant::now();
        let outcome = experiments::run_by_id(&mut ctx, id);
        let secs = start.elapsed().as_secs_f64();
        let ok = emit(id, outcome, secs, csv_dir.as_deref());
        results.push((id.clone(), ok, secs));
    }
    eprintln!(
        "all {} experiment(s) done in {:.1}s (scale: {scale:?})",
        ids.len(),
        overall.elapsed().as_secs_f64()
    );
    summarize(&results)
}

// ---------------------------------------------------------------------------
// serve / query
// ---------------------------------------------------------------------------

fn run_serve(args: ServeArgs) -> ExitCode {
    let describe = match &args.endpoint {
        Endpoint::Tcp(addr) => format!("tcp {addr}"),
        Endpoint::Unix(path) => format!("unix {}", path.display()),
    };
    let handle = match agemul_serve::spawn(ServeConfig {
        endpoint: args.endpoint,
        workers: args.workers,
        shard_capacity: args.shard_capacity,
        snapshot: args.snapshot,
        max_retries: args.max_retries,
        ..ServeConfig::default()
    }) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("repro serve: cannot start on {describe}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match handle.tcp_addr() {
        Some(addr) => eprintln!("repro serve: listening on {addr}"),
        None => eprintln!("repro serve: listening on {describe}"),
    }
    eprintln!("repro serve: stop with a shutdown op (repro query --op shutdown)");
    match handle.run_until_shutdown() {
        Ok(()) => {
            eprintln!("repro serve: stopped");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("repro serve: shutdown error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run_query(args: QueryArgs) -> ExitCode {
    let frame = args.request.to_json();
    let response = match &args.endpoint {
        Endpoint::Tcp(addr) => TcpStream::connect(addr.as_str())
            .map_err(|e| format!("connect {addr}: {e}"))
            .and_then(|mut s| {
                let _ = s.set_nodelay(true);
                roundtrip(&mut s, &frame).map_err(|e| e.to_string())
            }),
        Endpoint::Unix(path) => UnixStream::connect(path)
            .map_err(|e| format!("connect {}: {e}", path.display()))
            .and_then(|mut s| roundtrip(&mut s, &frame).map_err(|e| e.to_string())),
    };
    match response {
        Ok(response) => {
            println!("{response}");
            if response.get("ok").and_then(Json::as_bool) == Some(true) {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("repro query: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_cli(&args) {
        Ok(Command::Help) => {
            usage();
            ExitCode::SUCCESS
        }
        Ok(Command::List) => {
            for id in experiments::ALL_IDS {
                println!("{id}");
            }
            ExitCode::SUCCESS
        }
        Ok(Command::Run(run)) => run_batch(run),
        Ok(Command::Serve(serve)) => run_serve(serve),
        Ok(Command::Query(query)) => run_query(*query),
        Err(e) => {
            eprintln!("repro: {e}");
            usage();
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(parts: &[&str]) -> Vec<String> {
        parts.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn duplicate_value_flags_are_rejected_not_kept_last() {
        // The old parser silently kept the last value of a repeated flag;
        // each of these must now fail with a message naming the flag.
        let cases = [
            argv(&["--csv", "a", "--csv", "b", "all"]),
            argv(&["--resume", "x.json", "--resume", "y.json", "all"]),
            argv(&["--deadline-ms", "100", "--deadline-ms", "200", "all"]),
            argv(&["--max-retries", "1", "--max-retries", "2", "all"]),
        ];
        for args in cases {
            let err = parse_cli(&args).unwrap_err();
            assert!(err.contains("more than once"), "{args:?} gave {err:?}");
            assert!(
                err.contains(&args[0]),
                "{err:?} does not name {:?}",
                args[0]
            );
        }
    }

    #[test]
    fn zero_deadline_is_rejected_with_guidance() {
        let err = parse_cli(&argv(&["--deadline-ms", "0", "all"])).unwrap_err();
        assert!(err.contains("quarantine"), "{err}");
        assert!(err.contains("omit"), "{err}");
    }

    #[test]
    fn single_flags_still_parse() {
        let cmd = parse_cli(&argv(&[
            "--quick",
            "--resume",
            "ckpt.json",
            "--max-retries",
            "2",
            "--deadline-ms",
            "250",
            "--csv",
            "out",
            "table4",
        ]))
        .unwrap();
        let Command::Run(run) = cmd else {
            panic!("expected run command");
        };
        assert_eq!(run.scale, Scale::Quick);
        assert_eq!(run.resume.as_deref(), Some(Path::new("ckpt.json")));
        assert_eq!(run.max_retries, Some(2));
        assert_eq!(run.deadline, Some(Duration::from_millis(250)));
        assert_eq!(run.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(run.ids, vec!["table4".to_string()]);

        // There is no batch-width option: the functional sweep is 64 lanes.
        let err = parse_cli(&argv(&["--lanes", "64", "all"])).unwrap_err();
        assert_eq!(err, "unknown flag: --lanes");
    }

    #[test]
    fn conflicting_scales_are_rejected() {
        let err = parse_cli(&argv(&["--quick", "--paper", "all"])).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
    }

    #[test]
    fn trailing_flag_without_value_is_an_error() {
        let err = parse_cli(&argv(&["all", "--resume"])).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
    }

    #[test]
    fn serve_defaults_and_duplicates() {
        let cmd = parse_cli(&argv(&["serve"])).unwrap();
        let Command::Serve(serve) = cmd else {
            panic!("expected serve command");
        };
        assert!(matches!(serve.endpoint, Endpoint::Tcp(ref a) if a == "127.0.0.1:7171"));
        assert_eq!(serve.workers, 4);
        assert_eq!(serve.shard_capacity, Some(64));

        let err = parse_cli(&argv(&["serve", "--workers", "2", "--workers", "3"])).unwrap_err();
        assert!(err.contains("more than once"), "{err}");
        let err = parse_cli(&argv(&["serve", "--addr", "x:1", "--unix", "/tmp/s"])).unwrap_err();
        assert!(err.contains("mutually exclusive"), "{err}");
        let err = parse_cli(&argv(&["serve", "--workers", "0"])).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn query_builds_a_profile_request() {
        let cmd = parse_cli(&argv(&[
            "query",
            "--op",
            "profile",
            "--kind",
            "CB",
            "--width",
            "8",
            "--years",
            "7",
            "--deadline-ms",
            "500",
        ]))
        .unwrap();
        let Command::Query(query) = cmd else {
            panic!("expected query command");
        };
        assert_eq!(query.request.deadline_ms, Some(500));
        let RequestBody::Profile(q) = &query.request.body else {
            panic!("expected profile body");
        };
        assert_eq!(q.width, 8);
        assert_eq!(q.years, 7.0);
        assert_eq!(q.patterns, 1_000, "default patterns");
        assert_eq!(q.seed, 42, "default seed");
    }

    #[test]
    fn query_builds_an_mc_request() {
        let cmd = parse_cli(&argv(&[
            "query",
            "--op",
            "mc",
            "--kind",
            "RB",
            "--width",
            "16",
            "--years",
            "7",
            "--corners",
            "32",
            "--sigma",
            "0.08",
            "--mc-seed",
            "9",
        ]))
        .unwrap();
        let Command::Query(query) = cmd else {
            panic!("expected query command");
        };
        let RequestBody::Mc {
            query: q,
            corners,
            sigma,
            mc_seed,
            skip,
        } = &query.request.body
        else {
            panic!("expected mc body");
        };
        assert_eq!((q.width, *corners, *mc_seed, *skip), (16, 32, 9, 7));
        assert_eq!(*sigma, 0.08);

        let err = parse_cli(&argv(&[
            "query", "--op", "mc", "--kind", "RB", "--width", "16",
        ]))
        .unwrap_err();
        assert!(err.contains("--corners"), "{err}");
        let err = parse_cli(&argv(&[
            "query",
            "--op",
            "mc",
            "--kind",
            "RB",
            "--width",
            "16",
            "--corners",
            "4",
            "--sigma",
            "-1",
        ]))
        .unwrap_err();
        assert!(err.contains("non-negative"), "{err}");
    }

    #[test]
    fn query_validates_ops_and_deadlines() {
        let err = parse_cli(&argv(&["query", "--op", "bogus"])).unwrap_err();
        assert!(err.contains("unknown op"), "{err}");
        let err = parse_cli(&argv(&["query", "--op", "profile"])).unwrap_err();
        assert!(err.contains("--kind"), "{err}");
        let err = parse_cli(&argv(&[
            "query", "--op", "sweep", "--kind", "CB", "--width", "8",
        ]))
        .unwrap_err();
        assert!(err.contains("--periods"), "{err}");
        let err = parse_cli(&argv(&["query", "--op", "stats", "--deadline-ms", "0"])).unwrap_err();
        assert!(err.contains("quarantine"), "{err}");
    }
}
