//! The four workloads and what they share: options, outcome, timed set-up,
//! and the closed loop that runs the three batch workloads.

pub mod aging_sweep;
pub mod mc_yield;
pub mod profile_cold;
pub mod serve_open;

use std::time::{Duration, Instant};

use agemul_aging::BtiModel;
use agemul_logic::Technology;

use crate::metrics::{latency_readings, median, Readings};
use crate::record::peak_rss_mb;
use crate::trace::{self, Span, Tracer};

/// The workloads, in the order `all` runs them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ProfileCold,
    AgingSweep,
    McYield,
    ServeOpen,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::ProfileCold,
        Workload::AgingSweep,
        Workload::McYield,
        Workload::ServeOpen,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ProfileCold => "profile-cold",
            Workload::AgingSweep => "aging-sweep",
            Workload::McYield => "mc-yield",
            Workload::ServeOpen => "serve-open",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Opts {
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Sub-second sizes for tests.
    pub smoke: bool,
}

impl Opts {
    /// Set-up repetitions, `full` outside smoke runs; `setup_s` is their
    /// median.
    pub fn setup_reps(&self, full: usize) -> usize {
        if self.smoke {
            1
        } else {
            full
        }
    }

    /// Time each layer probe may spend.
    pub fn probe_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 1 } else { 250 })
    }
}

/// One correctness check run after the measured phase.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub result: Result<(), String>,
}

impl Check {
    pub fn new(name: &'static str, result: Result<(), String>) -> Self {
        Check { name, result }
    }
}

/// What a run produced.
#[derive(Clone, Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub readings: Readings,
    /// FNV-1a over the simulated outputs of the run's fixed digest prefix.
    pub digest: u64,
    pub checks: Vec<Check>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Whether every correctness check passed.
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|c| c.result.is_ok())
    }
}

/// Runs one workload. A run that cannot even set up reports that as a
/// failed check.
pub fn run(workload: Workload, opts: &Opts) -> Outcome {
    let result = match workload {
        Workload::ProfileCold => profile_cold::run(opts),
        Workload::AgingSweep => aging_sweep::run(opts),
        Workload::McYield => mc_yield::run(opts),
        Workload::ServeOpen => serve_open::run(opts),
    };
    result.unwrap_or_else(|e| Outcome {
        attempted: 1,
        failed: 1,
        checks: vec![Check::new("run", Err(e))],
        ..Outcome::default()
    })
}

/// The workspace-calibrated BTI model (7-year gate factor 1.132, the same
/// anchor the experiments and the service use).
pub fn bti() -> BtiModel {
    BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132)
}

/// Runs `f` `reps` times and returns the last result with the median
/// seconds per run.
///
/// # Errors
///
/// The first error `f` returns.
pub fn timed_setup<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut secs = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        last = Some(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    let value = last.expect("at least one repetition ran");
    Ok((value, crate::metrics::median(&secs)))
}

/// A closed-loop batch workload: one thread runs a stream of operations
/// back to back.
pub trait Batch {
    /// Runs operation `k` of the stream; returns the work units it
    /// completed.
    fn op(&mut self, k: u64, tracer: &mut Tracer) -> Result<f64, String>;

    /// Operations per round (one of every type). The stream stops only at
    /// a round boundary, so every type runs equally often in every run.
    fn round(&self) -> u64;
}

/// The result of running a batch stream for a while.
pub struct Phase {
    /// Seconds each successful operation took, in run order.
    pub op_secs: Vec<f64>,
    /// Work units the successful operations completed.
    pub work: f64,
    pub attempted: u64,
    pub failed: u64,
    pub secs: f64,
    /// The first operation index the phase did not run.
    pub next: u64,
    pub spans: Vec<Span>,
    /// Error of the first failed operation.
    pub first_error: Option<String>,
}

/// Runs operations `start..` of `batch` until `seconds` have passed and at
/// least `min_ops` ran, stopping at a round boundary.
fn run_batch(
    batch: &mut impl Batch,
    start: u64,
    seconds: f64,
    min_ops: u64,
    traced: bool,
) -> Phase {
    let origin = Instant::now();
    let mut tracer = Tracer::new(traced, origin);
    let mut phase = Phase {
        op_secs: Vec::new(),
        work: 0.0,
        attempted: 0,
        failed: 0,
        secs: 0.0,
        next: start,
        spans: Vec::new(),
        first_error: None,
    };
    let round = batch.round().max(1);
    let mut k = start;
    while origin.elapsed().as_secs_f64() < seconds
        || k - start < min_ops
        || !k.is_multiple_of(round)
    {
        let t = Instant::now();
        let result = tracer.span("bench.op", k, |tracer| batch.op(k, tracer));
        let secs = t.elapsed().as_secs_f64();
        phase.attempted += 1;
        match result {
            Ok(work) => {
                phase.op_secs.push(secs);
                phase.work += work;
            }
            Err(e) => {
                phase.failed += 1;
                phase.first_error.get_or_insert(e);
            }
        }
        k += 1;
    }
    phase.secs = origin.elapsed().as_secs_f64();
    phase.next = k;
    phase.spans = tracer.into_spans();
    phase
}

/// The measured phases of a batch workload: one untraced phase of
/// `opts.seconds`, or in a traced run an untraced and a traced half of
/// the same stream (the untraced half is the overhead baseline).
pub fn measure(batch: &mut impl Batch, opts: &Opts, min_ops: u64) -> (Phase, Option<Phase>) {
    if !opts.traced {
        return (run_batch(batch, 0, opts.seconds, min_ops, false), None);
    }
    let half = opts.seconds / 2.0;
    let untraced = run_batch(batch, 0, half, min_ops, false);
    let traced = run_batch(batch, untraced.next, half, 1, true);
    (untraced, Some(traced))
}

/// The end-to-end readings of a batch workload's measured phase: work
/// completed over the phase's wall time, and the median and tail of the
/// latencies of all its operations.
pub fn batch_end_to_end(phase: &Phase, setup_secs: f64, reps: usize) -> Readings {
    let mut r = Readings::default();
    r.set("setup_s", setup_secs, reps as u64);
    r.set("peak_rss_mb", peak_rss_mb(), 1);
    r.set("work_per_s", phase.work / phase.secs, phase.attempted);
    let mut sorted = phase.op_secs.clone();
    sorted.sort_by(f64::total_cmp);
    latency_readings(&mut r, &sorted);
    r
}

/// Per-layer readings common to every batch workload in a traced run:
/// attributed share and tracing overhead against the untraced phase.
pub fn batch_layers(untraced: &Phase, traced: &Phase) -> Readings {
    let mut r = Readings::layer_defaults();
    let times = trace::self_times(&traced.spans);
    r.set(
        "bench.attributed_share",
        trace::attributed_share(&times, traced.secs),
        traced.attempted,
    );
    let overhead = median(&traced.op_secs) / median(&untraced.op_secs) - 1.0;
    r.set(
        "bench.trace_overhead_pct",
        100.0 * overhead,
        traced.attempted,
    );
    r
}

/// A check that every operation of the phases succeeded.
pub fn ops_check(phases: &[&Phase]) -> Check {
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let first = phases.iter().find_map(|p| p.first_error.clone());
    Check::new(
        "ops",
        match first {
            None => Ok(()),
            Some(e) => Err(format!("{failed} operations failed; first: {e}")),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PER_LAYER;

    /// A traced run of every workload reports every layer metric, records
    /// spans, and still passes its checks.
    #[test]
    fn traced_smoke_runs_report_every_layer() {
        for workload in Workload::ALL {
            let opts = Opts {
                seed: 2,
                seconds: 0.3,
                traced: true,
                smoke: true,
            };
            let outcome = run(workload, &opts);
            let name = workload.name();
            assert!(outcome.correct(), "{name}: {:?}", outcome.checks);
            assert!(!outcome.spans.is_empty(), "{name}: no spans");
            for (metric, _) in PER_LAYER {
                assert!(
                    outcome.readings.get(metric).is_some(),
                    "{name}: {metric} missing"
                );
            }
            let share = outcome
                .readings
                .get("bench.attributed_share")
                .unwrap()
                .value;
            assert!(
                share > 0.0 && share <= 1.0 + 1e-9,
                "{name}: attributed share {share}"
            );
        }
    }
}
