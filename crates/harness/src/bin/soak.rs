//! Kill/resume soak driver for `just soak-smoke`.
//!
//! Runs a small supervised fault campaign (ColumnBypass 4×4) with
//! per-case checkpointing, then writes the campaign report JSON to
//! `--out`. The smoke script runs this binary three ways — uninterrupted,
//! stalled-and-SIGKILLed, and `--resume`d from the survivor checkpoint —
//! and diffs the reports byte for byte.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use agemul::{EngineConfig, MultiplierDesign, PatternSet};
use agemul_circuits::MultiplierKind;
use agemul_faults::FaultSpec;
use agemul_harness::{run_campaign_supervised, Resume, SupervisorConfig};

const USAGE: &str = "usage: soak --ckpt <path> --out <path> [--resume] [--require] \
[--stall-ms N] [--deadline-ms N] [--max-retries N] [--poison] [--ops N] [--faults N]";

struct Opts {
    ckpt: PathBuf,
    out: PathBuf,
    resume: Resume,
    stall_ms: u64,
    deadline_ms: Option<u64>,
    max_retries: u32,
    poison: bool,
    ops: usize,
    faults: usize,
}

fn parse_args() -> Result<Opts, String> {
    let mut ckpt = None;
    let mut out = None;
    let mut resume = Resume::Fresh;
    let mut stall_ms = 0;
    let mut deadline_ms = None;
    let mut max_retries = 2;
    let mut poison = false;
    let mut ops = 24;
    let mut faults = 6;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--ckpt" => ckpt = Some(PathBuf::from(value("--ckpt")?)),
            "--out" => out = Some(PathBuf::from(value("--out")?)),
            "--resume" => resume = Resume::Attempt,
            "--require" => resume = Resume::Require,
            "--stall-ms" => {
                stall_ms = value("--stall-ms")?
                    .parse()
                    .map_err(|e| format!("--stall-ms: {e}"))?;
            }
            "--deadline-ms" => {
                deadline_ms = Some(
                    value("--deadline-ms")?
                        .parse()
                        .map_err(|e| format!("--deadline-ms: {e}"))?,
                );
            }
            "--max-retries" => {
                max_retries = value("--max-retries")?
                    .parse()
                    .map_err(|e| format!("--max-retries: {e}"))?;
            }
            "--poison" => poison = true,
            "--ops" => {
                ops = value("--ops")?.parse().map_err(|e| format!("--ops: {e}"))?;
            }
            "--faults" => {
                faults = value("--faults")?
                    .parse()
                    .map_err(|e| format!("--faults: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}\n{USAGE}")),
        }
    }
    Ok(Opts {
        ckpt: ckpt.ok_or_else(|| format!("--ckpt is required\n{USAGE}"))?,
        out: out.ok_or_else(|| format!("--out is required\n{USAGE}"))?,
        resume,
        stall_ms,
        deadline_ms,
        max_retries,
        poison,
        ops,
        faults,
    })
}

fn run(opts: &Opts) -> Result<(), String> {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 4)
        .map_err(|e| format!("design construction failed: {e}"))?;
    let patterns = PatternSet::uniform(4, opts.ops, 7);
    let mut faults = FaultSpec::sample(&design, opts.ops, opts.faults, 11);
    if opts.poison {
        faults.push(FaultSpec::PanicForTest);
    }

    let config = SupervisorConfig {
        deadline: opts.deadline_ms.map(Duration::from_millis),
        max_retries: opts.max_retries,
        // Per-case checkpoints: the tightest resume granularity, so a
        // SIGKILL anywhere loses at most one case of work.
        checkpoint_every: 1,
        stall_per_case: (opts.stall_ms > 0).then(|| Duration::from_millis(opts.stall_ms)),
        ..SupervisorConfig::default()
    };

    let supervised = run_campaign_supervised(
        &design,
        patterns.pairs(),
        &faults,
        &config,
        Some(&opts.ckpt),
        opts.resume,
    )
    .map_err(|e| format!("supervised campaign failed: {e}"))?;

    let report = supervised.campaign.run(&EngineConfig::adaptive(1.0, 2));
    std::fs::write(&opts.out, report.to_json().to_string())
        .map_err(|e| format!("writing {}: {e}", opts.out.display()))?;

    let quarantined = supervised.ledger.quarantined();
    println!(
        "soak: {} cases done, {} quarantined {:?}, report -> {}",
        supervised.ledger.records.len() - quarantined.len(),
        quarantined.len(),
        quarantined,
        opts.out.display(),
    );
    Ok(())
}

fn main() -> ExitCode {
    // Every panic in this process is a supervised case unwinding into the
    // quarantine ledger (which records the message); the default hook's
    // backtrace spew would only obscure the smoke-test output.
    std::panic::set_hook(Box::new(|_| {}));
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("soak: {msg}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("soak: {msg}");
            ExitCode::FAILURE
        }
    }
}
