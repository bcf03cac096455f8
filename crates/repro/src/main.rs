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
//!       [--faults <N>] [--fault-seed <N>] [--corners <N>] [--sigma <S>]
//!       [--mc-seed <N>] [--nodes <N>] [--epochs <N>] [--policy <P>]
//!       [--deadline-ms <N>]
//! ```
//!
//! Every batch runs under the `agemul-harness` supervisor on one shared
//! [`Context`], so later experiments reuse the designs and profiles that
//! earlier ones built. Each report is printed, and its CSVs written, as
//! soon as its experiment finishes. A failing or panicking experiment is
//! quarantined instead of aborting the batch; a per-experiment summary
//! with each experiment's attempt time is printed at the end, and the
//! exit code is nonzero if *any* failed. `--deadline-ms` bounds every
//! attempt and `--max-retries` (default 0) adds attempts after a failure.
//! `--resume` checkpoints each completed experiment to the given path
//! (whose directory must exist), so a killed `repro all` picks up where it
//! died; experiments restored from the checkpoint are re-emitted after the
//! run and read `resumed` in the summary.
//!
//! The run list holds each experiment once, at its first mention, after
//! resolving aliases (`fig9 fig10` runs `fig9-10` once).
//!
//! `repro query` turns each `--flag value` into the request field of the
//! same name (`--fault-seed` sets `fault_seed`) and leaves validation to
//! `Request::from_json`, the decoder the server runs.
//!
//! Every value-taking flag may be given at most once — `--csv a --csv b`
//! is rejected instead of silently keeping the last value —
//! `--deadline-ms 0` is rejected (a zero budget would quarantine
//! every experiment; omit the flag to disable the deadline), and
//! `--max-retries` (batch runs and `repro serve`) accepts at most
//! [`MAX_RETRIES`].

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use agemul::Json;
use agemul_harness::{Attempt, CaseError, CaseStatus, Resume, Supervisor, SupervisorConfig};
use agemul_repro::{experiments, Context, Report, Scale};
use agemul_serve::{roundtrip, Endpoint, Request, ServeConfig};

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
         <profile|sweep|campaign|mc|fleet|stats|shutdown> [--<field> <value>]..."
    );
    let fields: Vec<String> = QUERY_FIELDS[1..]
        .iter()
        .map(|(name, _)| name.replace('_', "-"))
        .collect();
    eprintln!("query fields: {} (periods: a,b,..)", fields.join(", "));
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
    Serve(ServeConfig),
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

/// Largest accepted `--max-retries`. Retry `r` first sleeps the base
/// backoff times 2^(r-1), so the tenth retry already waits 512× the base;
/// a deterministic failure gains nothing from more. Unbounded, a huge
/// value would retry a missed deadline for billions of attempts.
const MAX_RETRIES: u32 = 10;

fn parse_max_retries(raw: &str) -> Result<u32, String> {
    let n: u32 = raw
        .parse()
        .map_err(|e| format!("--max-retries: {e} (got {raw:?})"))?;
    if n > MAX_RETRIES {
        return Err(format!(
            "--max-retries must be at most {MAX_RETRIES}, got {n}"
        ));
    }
    Ok(n)
}

fn parse_usize(flag: &str, raw: &str) -> Result<usize, String> {
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
                set_once(&mut max_retries, "--max-retries", parse_max_retries(v)?)?;
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
    if let Some(path) = &resume {
        check_checkpoint_dir(path)?;
    }
    // Resolve aliases, then keep each experiment's first mention. An
    // unknown id stays as typed and fails when it runs.
    let mut seen = HashSet::new();
    ids = ids
        .into_iter()
        .map(|id| experiments::canonical_id(&id).map_or(id, str::to_owned))
        .filter(|id| seen.insert(id.clone()))
        .collect();
    Ok(Command::Run(RunArgs {
        scale: scale.unwrap_or(Scale::Standard),
        ids,
        csv_dir,
        resume,
        deadline,
        max_retries: max_retries.unwrap_or(0),
    }))
}

/// Refuses a `--resume` path that is itself a directory or whose directory
/// does not exist, before any experiment runs: the first checkpoint write
/// would fail only after the first experiment had been computed.
fn check_checkpoint_dir(path: &Path) -> Result<(), String> {
    if path.is_dir() {
        return Err(format!("--resume: {} is a directory", path.display()));
    }
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    if dir.is_dir() {
        Ok(())
    } else {
        Err(format!(
            "--resume: directory {} does not exist (got {})",
            dir.display(),
            path.display()
        ))
    }
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
                set_once(&mut max_retries, "--max-retries", parse_max_retries(v)?)?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            other => return Err(format!("serve: unknown argument {other:?}")),
        }
        i += 1;
    }
    let defaults = ServeConfig::default();
    Ok(Command::Serve(ServeConfig {
        endpoint: parse_endpoint(addr, unix, "127.0.0.1:7171")?,
        workers: workers.unwrap_or(defaults.workers),
        shard_capacity: shard_cap.or(defaults.shard_capacity),
        snapshot,
        max_retries: max_retries.unwrap_or(defaults.max_retries),
        ..defaults
    }))
}

/// The request fields `repro query` sets from flags (`--fault-seed 3`
/// sets `fault_seed`), each with the value it takes when its flag is
/// absent. `--periods` takes a comma list; the request id is always 1.
/// `Request::from_json` validates the assembled object, so the client
/// rejects exactly what the server would.
const QUERY_FIELDS: [(&str, Option<&str>); 17] = [
    ("op", None),
    ("kind", None),
    ("width", None),
    ("years", Some("0")),
    ("patterns", Some("1000")),
    ("seed", Some("42")),
    ("periods", None),
    ("skip", Some("7")),
    ("faults", None),
    ("fault_seed", Some("1")),
    ("corners", None),
    ("sigma", Some("0.05")),
    ("mc_seed", Some("1")),
    ("nodes", None),
    ("epochs", None),
    ("policy", Some("aging-aware")),
    ("deadline_ms", None),
];

/// A flag value as JSON: an unsigned integer or other number when it
/// reads as one, a string otherwise.
fn flag_value(raw: &str) -> Json {
    if let Ok(n) = raw.parse() {
        Json::UInt(n)
    } else if let Ok(x) = raw.parse() {
        Json::Num(x)
    } else {
        Json::Str(raw.into())
    }
}

fn parse_query(args: &[String]) -> Result<Command, String> {
    let mut addr: Option<String> = None;
    let mut unix: Option<PathBuf> = None;
    let mut given: [Option<&str>; QUERY_FIELDS.len()] = [None; QUERY_FIELDS.len()];

    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--addr" => {
                let v = next_value(args, &mut i, flag)?;
                set_once(&mut addr, flag, v.to_string())?;
            }
            "--unix" => {
                let v = next_value(args, &mut i, flag)?;
                set_once(&mut unix, flag, PathBuf::from(v))?;
            }
            "--help" | "-h" => return Ok(Command::Help),
            _ => {
                let slot = QUERY_FIELDS
                    .iter()
                    .position(|(name, _)| {
                        flag.strip_prefix("--") == Some(name.replace('_', "-").as_str())
                    })
                    .ok_or_else(|| format!("query: unknown argument {flag:?}"))?;
                let v = next_value(args, &mut i, flag)?;
                set_once(&mut given[slot], flag, v)?;
            }
        }
        i += 1;
    }

    let mut fields = vec![("id".to_string(), Json::UInt(1))];
    for (&(name, default), value) in QUERY_FIELDS.iter().zip(given) {
        let Some(raw) = value.or(default) else {
            continue;
        };
        let value = if name == "periods" {
            Json::Arr(raw.split(',').map(|p| flag_value(p.trim())).collect())
        } else {
            flag_value(raw)
        };
        fields.push((name.to_string(), value));
    }
    Ok(Command::Query(Box::new(QueryArgs {
        endpoint: parse_endpoint(addr, unix, "127.0.0.1:7171")?,
        request: Request::from_json(&Json::Obj(fields))?,
    })))
}

// ---------------------------------------------------------------------------
// Batch runs
// ---------------------------------------------------------------------------

/// One line per experiment with its time (`None`: loaded from the
/// checkpoint, not run), then the aggregate verdict. Returns the exit
/// code: success only if every experiment passed.
fn summarize(results: &[(String, bool, Option<f64>)]) -> ExitCode {
    let failed: Vec<&str> = results
        .iter()
        .filter(|(_, ok, _)| !ok)
        .map(|(id, _, _)| id.as_str())
        .collect();
    eprintln!("summary:");
    for (id, ok, secs) in results {
        let time = match secs {
            Some(secs) => format!("{secs:.1}s"),
            None => "resumed".into(),
        };
        eprintln!("  {id:<20} {} ({time})", if *ok { "ok" } else { "FAILED" });
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

/// Prints a report value (see [`report_to_json`]) and writes its CSVs;
/// `secs`, the run time of a report computed in this process, adds the
/// `[id completed in …]` line. Returns `false` on decode or CSV failures.
fn emit_json(id: &str, value: &Json, secs: Option<f64>, csv_dir: Option<&Path>) -> bool {
    let (Some(report_id), Some(text)) = (
        value.get("id").and_then(Json::as_str),
        value.get("text").and_then(Json::as_str),
    ) else {
        eprintln!("experiment {id}: report value has no id or text");
        return false;
    };
    println!("{text}");
    if let Some(secs) = secs {
        println!("[{id} completed in {secs:.1}s]\n");
    }
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
                eprintln!("experiment {id}: malformed report table");
                return false;
            };
            let path = dir.join(format!("{report_id}__{slug}.csv"));
            if let Err(e) = std::fs::write(&path, csv) {
                eprintln!("cannot write {}: {e}", path.display());
                return false;
            }
        }
    }
    true
}

/// Adds one supervised attempt's wall time to its case's total when
/// dropped, so an attempt that panics is timed too.
struct AttemptTimer<'a> {
    total: &'a Cell<Option<f64>>,
    start: Instant,
}

impl Drop for AttemptTimer<'_> {
    fn drop(&mut self) {
        let secs = self.start.elapsed().as_secs_f64();
        self.total.set(Some(self.total.get().unwrap_or(0.0) + secs));
    }
}

/// Runs the batch under the harness supervisor: one case per experiment,
/// all on one shared [`Context`] with each attempt's deadline token
/// installed. A fresh report is emitted as soon as its case finishes;
/// reports restored from the `--resume` checkpoint are re-emitted after
/// the run.
fn run_experiments(run: &RunArgs) -> ExitCode {
    let ids = &run.ids;
    let scale = run.scale;
    let csv_dir = run.csv_dir.as_deref();
    let config = SupervisorConfig {
        deadline: run.deadline,
        // Experiments are deterministic, so a failure repeats; retries
        // only pay off against deadline jitter.
        max_retries: run.max_retries,
        checkpoint_every: 1,
        ..SupervisorConfig::default()
    };
    let supervisor = Supervisor::new(
        format!("repro/{scale:?}/{}", ids.join("+")),
        ids.to_vec(),
        config,
    );
    let ctx = RefCell::new(Context::new(scale));
    // Per case: seconds spent in its attempts, and whether its fresh
    // report was emitted. Both stay `None` for a case restored from the
    // checkpoint.
    let spent = vec![Cell::new(None); ids.len()];
    let emitted = vec![Cell::new(None); ids.len()];
    let worker = |attempt: &Attempt| -> Result<Json, CaseError> {
        let timer = AttemptTimer {
            total: &spent[attempt.index],
            start: Instant::now(),
        };
        let id = &ids[attempt.index];
        let mut ctx = ctx.borrow_mut();
        ctx.set_cancel(attempt.cancel.clone());
        let report =
            experiments::run_by_id(&mut ctx, id).map_err(|e| CaseError::from_error(&*e))?;
        let secs = timer.start.elapsed().as_secs_f64();
        let value = report_to_json(&report);
        emitted[attempt.index].set(Some(emit_json(id, &value, Some(secs), csv_dir)));
        Ok(value)
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
            CaseStatus::Done { value } => emitted[rec.index]
                .get()
                .unwrap_or_else(|| emit_json(&rec.label, value, None, csv_dir)),
            CaseStatus::Quarantined { reason } => {
                eprintln!("experiment {} quarantined: {reason}", rec.label);
                false
            }
        };
        results.push((rec.label.clone(), ok, spent[rec.index].get()));
    }
    eprintln!(
        "all {} experiment(s) done in {secs:.1}s (scale: {scale:?})",
        ids.len()
    );
    summarize(&results)
}

// ---------------------------------------------------------------------------
// serve / query
// ---------------------------------------------------------------------------

fn run_serve(config: ServeConfig) -> ExitCode {
    let describe = match &config.endpoint {
        Endpoint::Tcp(addr) => format!("tcp {addr}"),
        Endpoint::Unix(path) => format!("unix {}", path.display()),
    };
    let handle = match agemul_serve::spawn(config) {
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
        Ok(Command::Run(run)) => run_experiments(&run),
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
    use agemul_serve::{parse_kind, DesignQuery, RequestBody};

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
    fn max_retries_above_the_cap_is_rejected() {
        for value in [u32::MAX.to_string(), (MAX_RETRIES + 1).to_string()] {
            for args in [
                argv(&["--max-retries", &value, "all"]),
                argv(&["serve", "--max-retries", &value]),
            ] {
                let err = parse_cli(&args).unwrap_err();
                assert!(err.contains("--max-retries must be at most"), "{err}");
            }
        }
        assert!(parse_cli(&argv(&["--max-retries", "10", "all"])).is_ok());
        assert!(parse_cli(&argv(&["serve", "--max-retries", "10"])).is_ok());
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
        assert_eq!(run.max_retries, 2);
        assert_eq!(run.deadline, Some(Duration::from_millis(250)));
        assert_eq!(run.csv_dir.as_deref(), Some(Path::new("out")));
        assert_eq!(run.ids, vec!["table4".to_string()]);

        // There is no batch-width option: the functional sweep is 64 lanes.
        let err = parse_cli(&argv(&["--lanes", "64", "all"])).unwrap_err();
        assert_eq!(err, "unknown flag: --lanes");
    }

    #[test]
    fn each_experiment_runs_once_at_its_first_mention() {
        let ids = |args: &[&str]| match parse_cli(&argv(args)).unwrap() {
            Command::Run(run) => run.ids,
            _ => panic!("expected run command"),
        };
        assert_eq!(
            ids(&["--quick", "table1", "table2", "table1"]),
            ["table1", "table2"]
        );
        let mut expected = vec!["fig13"];
        expected.extend(experiments::ALL_IDS.iter().filter(|&&id| id != "fig13"));
        assert_eq!(ids(&["fig13", "all"]), expected);
        assert_eq!(ids(&["fig9", "fig10"]), ["fig9-10"]);
        assert_eq!(
            ids(&["fig22", "fig9-10", "fig19", "fig9", "table4", "table4"]),
            ["fig19-22", "fig9-10", "table4"]
        );
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
    fn resume_path_needs_an_existing_directory() {
        // A bare file name lives in the working directory.
        assert!(parse_cli(&argv(&["--resume", "ck.json", "table1"])).is_ok());
        let missing = std::env::temp_dir()
            .join(format!("agemul-no-dir-{}", std::process::id()))
            .join("ck.json");
        let err = parse_cli(&argv(&["--resume", missing.to_str().unwrap(), "table1"])).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        // A directory is not a checkpoint file, whatever its parent.
        let dir = std::env::temp_dir();
        let err = parse_cli(&argv(&["--resume", dir.to_str().unwrap(), "table1"])).unwrap_err();
        assert!(err.contains("is a directory"), "{err}");
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
        assert_eq!(serve.max_retries, 1);

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
        // Patterns 1000 and seed 42 are the defaults.
        let expected = Request {
            id: 1,
            deadline_ms: Some(500),
            body: RequestBody::Profile(DesignQuery {
                kind: parse_kind("CB").unwrap(),
                width: 8,
                years: 7.0,
                patterns: 1_000,
                seed: 42,
            }),
        };
        assert_eq!(query.request, expected);
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
        // Patterns 1000, seed 42 and skip 7 are the defaults.
        let expected = Request {
            id: 1,
            deadline_ms: None,
            body: RequestBody::Mc {
                query: DesignQuery {
                    kind: parse_kind("RB").unwrap(),
                    width: 16,
                    years: 7.0,
                    patterns: 1_000,
                    seed: 42,
                },
                corners: 32,
                sigma: 0.08,
                mc_seed: 9,
                skip: 7,
            },
        };
        assert_eq!(query.request, expected);

        let err = parse_cli(&argv(&[
            "query", "--op", "mc", "--kind", "RB", "--width", "16",
        ]))
        .unwrap_err();
        assert!(err.contains("\"corners\""), "{err}");
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
        assert!(err.contains("\"kind\""), "{err}");
        let err = parse_cli(&argv(&[
            "query", "--op", "sweep", "--kind", "CB", "--width", "8",
        ]))
        .unwrap_err();
        assert!(err.contains("\"periods\""), "{err}");
        let err = parse_cli(&argv(&["query", "--op", "stats", "--deadline-ms", "0"])).unwrap_err();
        assert!(err.contains("deadline_ms must be positive"), "{err}");
    }
}
