//! Deterministic chaos soak: seeded fault schedules over the service's
//! three IO seams, asserting the standing robustness invariants.
//!
//! Each *schedule* is one armed [`ChaosPlan`] — a seed plus per-site
//! fault rules — driven against one seam:
//!
//! 1. **Checkpoint IO** ([`checkpoint_seam`]): torn temp writes, ENOSPC,
//!    rename failures, and read-back corruption against the harness's
//!    atomic checkpoint. Invariants: the prior generation survives every
//!    failed save, a checkpoint either loads clean or is refused with a
//!    typed error (never silently wrong), and a disarmed resume converges
//!    to the byte-identical document of an uninterrupted run.
//! 2. **Serve transport** ([`transport_seam`]): byte corruption, torn
//!    writes, mid-frame stalls, and abrupt resets on a live server's
//!    sockets. Invariants: the server never wedges (a clean request after
//!    every schedule succeeds with reference-identical values — so
//!    injected errors were never cached), no worker is lost, and the
//!    single-flight map drains to zero.
//! 3. **Cache / single-flight** ([`flight_seam`]): leader death at every
//!    await point (after winning leadership, mid-build, before publish)
//!    plus injected profiling failures. Invariants: waiters get a typed
//!    [`FlightError`](crate::FlightError) instead of hanging, failures are never cached, and
//!    the in-flight map drains.
//!
//! [`overload_probe`] is the fourth, fault-free scenario: a saturated
//! server (one worker pinned by a deliberately slow client) must answer
//! every excess connection with a typed `overloaded` response in
//! single-digit milliseconds, serve the admitted backlog once the
//! slow-client budget frees the worker, and disconnect the slow client
//! with a typed error.
//!
//! Every decision is a pure function of `(seed, site, invocation)`, so a
//! failing schedule replays exactly from its seed. The `chaos_soak`
//! binary drives all four at scale (`--schedules`, default 1000) and the
//! `repro chaos` experiment runs a miniature of the same engine.

use std::io::Read as _;
use std::net::TcpStream;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::{Duration, Instant};

use agemul::{Json, SimEngine};
use agemul_chaos::{arm, ChaosPlan, FaultKind, PPM};
use agemul_circuits::MultiplierKind;
use agemul_harness::{
    Attempt, CaseError, Checkpoint, CheckpointError, Resume, RunLedger, Supervisor,
    SupervisorConfig,
};

use crate::proto::{read_frame, write_frame, DesignQuery};
use crate::server::{spawn, ServeConfig};
use crate::state::ServerState;

/// Outcome of one seam's soak.
#[derive(Debug)]
pub struct SeamReport {
    /// Seam name (`checkpoint`, `transport`, `flight`, `overload`).
    pub seam: &'static str,
    /// Fault schedules (or probe rounds) driven.
    pub schedules: usize,
    /// Faults actually injected across every schedule.
    pub injected: u64,
    /// Operations attempted (supervised cases, requests, profile calls).
    pub operations: u64,
    /// Invariant violations — an empty vector is the pass criterion.
    pub violations: Vec<String>,
    /// Informational metrics (latency percentiles, shed counts).
    pub notes: Vec<String>,
}

impl SeamReport {
    fn new(seam: &'static str, schedules: usize) -> Self {
        SeamReport {
            seam,
            schedules,
            injected: 0,
            operations: 0,
            violations: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    /// One CSV row (see [`csv_header`]).
    pub fn csv_row(&self) -> String {
        format!(
            "{},{},{},{},{}",
            self.seam,
            self.schedules,
            self.injected,
            self.operations,
            self.violations.len()
        )
    }
}

/// Header for [`SeamReport::csv_row`].
pub fn csv_header() -> &'static str {
    "seam,schedules,injected,operations,violations"
}

/// Installs a panic hook that silences injected-fault panics (payloads
/// containing `chaos:`) so a soak's log is signal, not noise. Real panics
/// still print through the previous hook.
pub fn silence_chaos_panics() {
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !text.contains("chaos:") {
            previous(info);
        }
    }));
}

// ---------------------------------------------------------------------------
// Seam 1: checkpoint IO
// ---------------------------------------------------------------------------

const CKPT_CASES: usize = 6;
const CKPT_RUN_KEY: &str = "chaos-soak";

fn ckpt_supervisor() -> Supervisor {
    let labels = (0..CKPT_CASES).map(|i| format!("case{i}")).collect();
    let config = SupervisorConfig {
        retry_backoff: Duration::ZERO,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    };
    Supervisor::new(CKPT_RUN_KEY, labels, config)
}

fn ckpt_worker(a: &Attempt) -> Result<Json, CaseError> {
    Ok(Json::UInt(a.index as u64 * 7 + 1))
}

/// Any checkpoint that loads at all must contain exactly the reference
/// records for the indices it covers.
fn ckpt_prefix_violation(path: &Path, reference: &RunLedger) -> Option<String> {
    match Checkpoint::load(path, Some(CKPT_RUN_KEY)) {
        Ok(ck) => {
            if ck.total != CKPT_CASES {
                return Some(format!("checkpoint total {} != {CKPT_CASES}", ck.total));
            }
            for rec in &ck.entries {
                if rec != &reference.records[rec.index] {
                    return Some(format!(
                        "checkpoint entry {} diverges from the reference run",
                        rec.index
                    ));
                }
            }
            None
        }
        Err(e) => Some(format!("surviving checkpoint failed to load: {e}")),
    }
}

/// Drives `schedules` seeded fault schedules through the checkpoint
/// write/rename/read failpoints (see the module docs for the invariants).
pub fn checkpoint_seam(schedules: usize, base_seed: u64) -> SeamReport {
    let mut report = SeamReport::new("checkpoint", schedules);
    let dir = std::env::temp_dir().join(format!(
        "agemul-chaos-soak-{}-{base_seed:x}",
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        report.violations.push(format!("temp dir: {e}"));
        return report;
    }

    // The uninterrupted reference every schedule must converge to.
    let ref_path = dir.join("reference.json");
    let (ref_ledger, ref_doc) = {
        let ledger = match ckpt_supervisor().run(&ckpt_worker, Some(&ref_path), Resume::Fresh) {
            Ok(l) => l,
            Err(e) => {
                report.violations.push(format!("reference run: {e}"));
                return report;
            }
        };
        let doc = std::fs::read_to_string(&ref_path).unwrap_or_default();
        (ledger, doc)
    };

    for s in 0..schedules {
        let seed = base_seed.wrapping_add(s as u64);
        let run_dir = dir.join(format!("s{s}"));
        let _ = std::fs::create_dir_all(&run_dir);
        let path = run_dir.join("ck.json");
        let scope = run_dir.to_string_lossy().into_owned();
        report.operations += CKPT_CASES as u64;

        // Rotate the fault site; vary the rate with the schedule index so
        // the matrix covers always-fires, often-fires, and rare-fires.
        let rate = [PPM, 500_000, 250_000][s % 3];
        let injected = match s % 3 {
            0 | 1 => {
                let site = if s % 3 == 0 {
                    ("ckpt/write_tmp", vec![FaultKind::IoError, FaultKind::Torn])
                } else {
                    ("ckpt/rename", vec![FaultKind::IoError])
                };
                let guard = arm(ChaosPlan::new(seed).rule(site.0, &scope, rate, &site.1));
                match ckpt_supervisor().run(&ckpt_worker, Some(&path), Resume::Fresh) {
                    Ok(ledger) => {
                        if ledger != ref_ledger {
                            report
                                .violations
                                .push(format!("schedule {s}: completed ledger diverged"));
                        }
                    }
                    Err(e) if e.to_string().contains("chaos:") => {
                        // Save failed mid-run: the surviving generation
                        // (if any) must load clean.
                        if path.exists() {
                            if let Some(v) = ckpt_prefix_violation(&path, &ref_ledger) {
                                report.violations.push(format!("schedule {s}: {v}"));
                            }
                        }
                    }
                    Err(e) => report
                        .violations
                        .push(format!("schedule {s}: non-injected failure: {e}")),
                }
                guard.injected_total()
            }
            _ => {
                // Read-back corruption: install a clean checkpoint, then
                // load under fire — every load must be clean-or-refused —
                // and resume under fire, which recomputes on refusal.
                if ckpt_supervisor()
                    .run(&ckpt_worker, Some(&path), Resume::Fresh)
                    .is_err()
                {
                    report
                        .violations
                        .push(format!("schedule {s}: disarmed install failed"));
                    continue;
                }
                let guard = arm(ChaosPlan::new(seed).rule(
                    "ckpt/read",
                    &scope,
                    rate,
                    &[FaultKind::BitFlip, FaultKind::Torn, FaultKind::IoError],
                ));
                match Checkpoint::load(&path, Some(CKPT_RUN_KEY)) {
                    Ok(ck) => {
                        if ck.to_document() != ref_doc {
                            report.violations.push(format!(
                                "schedule {s}: corrupt checkpoint passed verification"
                            ));
                        }
                    }
                    Err(
                        CheckpointError::Io { .. }
                        | CheckpointError::Parse { .. }
                        | CheckpointError::Checksum { .. }
                        | CheckpointError::Schema { .. },
                    ) => {}
                    Err(other) => report
                        .violations
                        .push(format!("schedule {s}: unexpected refusal: {other}")),
                }
                match ckpt_supervisor().run(&ckpt_worker, Some(&path), Resume::Attempt) {
                    Ok(ledger) => {
                        if ledger != ref_ledger {
                            report
                                .violations
                                .push(format!("schedule {s}: armed resume diverged"));
                        }
                    }
                    Err(e) if e.to_string().contains("chaos:") => {}
                    Err(e) => report
                        .violations
                        .push(format!("schedule {s}: non-injected resume failure: {e}")),
                }
                guard.injected_total()
            }
        };
        report.injected += injected;

        // Disarmed resume must converge to the byte-identical document.
        match ckpt_supervisor().run(&ckpt_worker, Some(&path), Resume::Attempt) {
            Ok(ledger) => {
                if ledger != ref_ledger {
                    report
                        .violations
                        .push(format!("schedule {s}: disarmed resume ledger diverged"));
                } else if std::fs::read_to_string(&path).ok().as_deref() != Some(&ref_doc) {
                    report.violations.push(format!(
                        "schedule {s}: final checkpoint is not byte-identical"
                    ));
                }
            }
            Err(e) => report
                .violations
                .push(format!("schedule {s}: disarmed resume failed: {e}")),
        }
        let _ = std::fs::remove_dir_all(&run_dir);
    }

    if schedules >= 8 && report.injected == 0 {
        report
            .violations
            .push("the schedule matrix never injected a fault".into());
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

// ---------------------------------------------------------------------------
// Seam 2: serve transport
// ---------------------------------------------------------------------------

/// The small query grid the transport soak cycles through (tiny widths so
/// cold misses cost milliseconds; prewarmed so the chaos phase exercises
/// the transport, not the simulator).
fn transport_queries() -> Vec<Json> {
    let mut queries = Vec::new();
    for (i, (kind, years)) in [("AM", 0.0), ("CB", 0.0), ("AM", 3.0), ("CB", 3.0)]
        .into_iter()
        .enumerate()
    {
        queries.push(Json::Obj(vec![
            ("id".into(), Json::UInt(i as u64 + 1)),
            ("op".into(), Json::Str("profile".into())),
            ("kind".into(), Json::Str(kind.into())),
            ("width".into(), Json::UInt(4)),
            ("years".into(), Json::Num(years)),
            ("patterns".into(), Json::UInt(12)),
            ("seed".into(), Json::UInt(0x0A6E_0001)),
        ]));
    }
    queries
}

fn one_request(
    addr: std::net::SocketAddr,
    frame: &Json,
    timeout: Duration,
) -> Result<Json, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let _ = stream.set_nodelay(true);
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("timeout: {e}"))?;
    write_frame(&mut stream, frame).map_err(|e| format!("write: {e}"))?;
    match read_frame(&mut stream) {
        Ok(Some(response)) => Ok(response),
        Ok(None) => Err("closed before responding".into()),
        Err(e) => Err(format!("read: {e}")),
    }
}

fn result_avg(response: &Json) -> Option<f64> {
    response
        .get("result")
        .and_then(|r| r.get("avg_delay_ns"))
        .and_then(Json::as_f64)
}

/// Drives `schedules` seeded fault schedules through a live server's
/// `serve/read` / `serve/write` transport failpoints (see the module docs
/// for the invariants).
pub fn transport_seam(schedules: usize, base_seed: u64) -> SeamReport {
    let mut report = SeamReport::new("transport", schedules);
    let server = match spawn(ServeConfig {
        workers: 2,
        shard_capacity: Some(16),
        stall_budget: Duration::from_millis(500),
        ..ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("spawn: {e}"));
            return report;
        }
    };
    let Some(addr) = server.tcp_addr() else {
        report.violations.push("no tcp addr".into());
        return report;
    };
    let label = format!("tcp:{addr}");
    let queries = transport_queries();

    // Prewarm and record the reference values every disarmed check must
    // reproduce exactly (a cached injected error would diverge here).
    let mut reference = Vec::new();
    for q in &queries {
        match one_request(addr, q, Duration::from_secs(10)) {
            Ok(r) if r.get("ok").and_then(Json::as_bool) == Some(true) => {
                reference.push(result_avg(&r))
            }
            other => {
                report.violations.push(format!("prewarm failed: {other:?}"));
                let _ = server.shutdown();
                return report;
            }
        }
    }

    const KINDS: [FaultKind; 5] = [
        FaultKind::IoError,
        FaultKind::Torn,
        FaultKind::BitFlip,
        FaultKind::Stall,
        FaultKind::Disconnect,
    ];
    for s in 0..schedules {
        let seed = base_seed.wrapping_add(0x7A5 * s as u64);
        let rate = [250_000, 120_000, 60_000][s % 3];
        {
            let guard = arm(ChaosPlan::new(seed)
                .rule("serve/read", &label, rate, &KINDS)
                .rule("serve/write", &label, rate, &KINDS));
            for (i, q) in queries.iter().enumerate() {
                report.operations += 1;
                // An `Err` here is an injected disconnect / corruption /
                // timeout and is fine; a response that arrives intact must
                // be a typed protocol answer.
                if let Ok(response) = one_request(addr, q, Duration::from_millis(250)) {
                    if response.get("ok").and_then(Json::as_bool).is_none() {
                        report.violations.push(format!(
                            "schedule {s} req {i}: untyped response: {response}"
                        ));
                    }
                }
            }
            report.injected += guard.injected_total();
        }

        // Disarmed: the server must answer every query with the reference
        // value — never wedged, never serving a cached injected error.
        for (i, q) in queries.iter().enumerate() {
            match one_request(addr, q, Duration::from_secs(10)) {
                Ok(r)
                    if r.get("ok").and_then(Json::as_bool) == Some(true)
                        && result_avg(&r) == reference[i] => {}
                other => report.violations.push(format!(
                    "schedule {s}: disarmed query {i} diverged: {other:?}"
                )),
            }
        }
        if server.state().in_flight() != 0 {
            report
                .violations
                .push(format!("schedule {s}: single-flight map did not drain"));
        }
    }

    if schedules >= 8 && report.injected == 0 {
        report
            .violations
            .push("the schedule matrix never injected a fault".into());
    }
    if let Err(e) = server.shutdown() {
        report.violations.push(format!("shutdown: {e}"));
    }
    report
}

// ---------------------------------------------------------------------------
// Seam 3: cache / single-flight
// ---------------------------------------------------------------------------

/// Drives `schedules` seeded leader-death schedules through the
/// single-flight and cache failpoints on an in-process [`ServerState`]
/// (see the module docs for the invariants).
///
/// Uses width 6 so the `core/profile` scope (`x6`) cannot strike the
/// widths any concurrent experiment profiles.
pub fn flight_seam(schedules: usize, base_seed: u64) -> SeamReport {
    let mut report = SeamReport::new("flight", schedules);
    let scope = format!("flight-soak-{base_seed:x}");
    let state = ServerState::with_chaos_scope(Some(16), scope.clone());
    let queries: Vec<DesignQuery> = [(MultiplierKind::Array, 0.0), (MultiplierKind::Array, 2.0)]
        .into_iter()
        .map(|(kind, years)| DesignQuery {
            kind,
            width: 6,
            years,
            patterns: 10,
            seed: 0x0A6E_0001,
        })
        .collect();

    // Prewarm the designs/workloads (not the profiles: cold builds are the
    // interesting path) by profiling, then dropping the cache contents via
    // a fresh state would be overkill — instead keep the cache warm for
    // half the calls and vary `years` for cold keys per schedule.
    for s in 0..schedules {
        let seed = base_seed.wrapping_add(0x9E37 * s as u64);
        let rate = [400_000, 200_000, 100_000][s % 3];
        // A per-schedule cold key forces a real build under fire.
        let cold = DesignQuery {
            years: 4.0 + (s % 13) as f64 * 0.25,
            ..queries[0]
        };
        {
            let guard = arm(ChaosPlan::new(seed)
                .rule("flight/lead", &scope, rate, &[FaultKind::Panic])
                .rule("flight/publish", &scope, rate, &[FaultKind::Panic])
                .rule("serve/build", &scope, rate, &[FaultKind::Panic])
                .rule("core/profile", "x6", rate, &[FaultKind::IoError]));
            let outcomes: Vec<Result<bool, String>> = std::thread::scope(|ts| {
                let handles: Vec<_> = (0..4)
                    .map(|t| {
                        let state = &state;
                        let queries = &queries;
                        let cold = &cold;
                        ts.spawn(move || {
                            let mut results = Vec::new();
                            for k in 0..3 {
                                let q = if k == 2 { cold } else { &queries[(t + k) % 2] };
                                let outcome = catch_unwind(AssertUnwindSafe(|| {
                                    state.profile(q, SimEngine::Level, None).map(|_| ())
                                }));
                                results.push(match outcome {
                                    Ok(Ok(())) => Ok(true),
                                    // Typed flight/build error: acceptable.
                                    Ok(Err(_)) => Ok(false),
                                    Err(payload) => {
                                        let text = payload
                                            .downcast_ref::<&str>()
                                            .copied()
                                            .map(String::from)
                                            .or_else(|| payload.downcast_ref::<String>().cloned())
                                            .unwrap_or_default();
                                        if text.contains("chaos:") {
                                            Ok(false)
                                        } else {
                                            Err(format!("non-injected panic: {text}"))
                                        }
                                    }
                                });
                            }
                            results
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .flat_map(|h| h.join().unwrap_or_default())
                    .collect()
            });
            report.operations += outcomes.len() as u64;
            for o in outcomes {
                if let Err(v) = o {
                    report.violations.push(format!("schedule {s}: {v}"));
                }
            }
            report.injected += guard.injected_total();
        }

        // Disarmed: every key (including the one whose leader may have
        // died) must build cleanly — a cached error would surface here —
        // and the in-flight map must have drained.
        if state.in_flight() != 0 {
            report
                .violations
                .push(format!("schedule {s}: in-flight map did not drain"));
        }
        for q in queries.iter().chain(std::iter::once(&cold)) {
            if let Err(e) = state.profile(q, SimEngine::Level, None) {
                report
                    .violations
                    .push(format!("schedule {s}: disarmed profile failed: {e}"));
            }
        }
    }

    if schedules >= 8 && report.injected == 0 {
        report
            .violations
            .push("the schedule matrix never injected a fault".into());
    }
    report
}

// ---------------------------------------------------------------------------
// Scenario 4: overload shedding
// ---------------------------------------------------------------------------

/// Saturates a one-worker server behind a deliberately slow client and
/// asserts the overload contract: every excess connection receives a
/// typed `overloaded` response with p99 latency under 10 ms, admitted
/// connections are served once the slow-client budget frees the worker,
/// and the slow client itself is disconnected with a typed error.
pub fn overload_probe(flood: usize) -> SeamReport {
    let mut report = SeamReport::new("overload", 1);
    let stall_budget = Duration::from_millis(400);
    let server = match spawn(ServeConfig {
        workers: 1,
        admission_queue: 2,
        stall_budget,
        shard_capacity: Some(8),
        ..ServeConfig::default()
    }) {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("spawn: {e}"));
            return report;
        }
    };
    let Some(addr) = server.tcp_addr() else {
        report.violations.push("no tcp addr".into());
        return report;
    };

    // Pin the single worker: a partial length prefix, then silence.
    let mut slow = match TcpStream::connect(addr) {
        Ok(s) => s,
        Err(e) => {
            report.violations.push(format!("slow connect: {e}"));
            let _ = server.shutdown();
            return report;
        }
    };
    let _ = slow.set_read_timeout(Some(stall_budget + Duration::from_secs(2)));
    use std::io::Write as _;
    let _ = slow.write_all(&[0, 0]);
    // Give the worker time to claim the connection (freeing the queue).
    std::thread::sleep(Duration::from_millis(100));

    let stats = Json::Obj(vec![
        ("id".into(), Json::UInt(7)),
        ("op".into(), Json::Str("stats".into())),
    ]);
    let outcomes: Vec<(Duration, Result<Json, String>)> = std::thread::scope(|ts| {
        let handles: Vec<_> = (0..flood)
            .map(|_| {
                let stats = &stats;
                ts.spawn(move || {
                    let t0 = Instant::now();
                    let outcome = one_request(addr, stats, stall_budget + Duration::from_secs(2));
                    (t0.elapsed(), outcome)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or((Duration::ZERO, Err("flood thread panicked".into())))
            })
            .collect()
    });
    report.operations += flood as u64 + 1;

    let mut shed_latencies: Vec<f64> = Vec::new();
    let mut served = 0usize;
    for (latency, outcome) in &outcomes {
        match outcome {
            Ok(response) => {
                let overloaded = response.get("overloaded").and_then(Json::as_bool) == Some(true);
                let ok = response.get("ok").and_then(Json::as_bool) == Some(true);
                if overloaded {
                    shed_latencies.push(latency.as_secs_f64() * 1e3);
                } else if ok {
                    served += 1;
                } else {
                    report.violations.push(format!(
                        "flood response neither ok nor overloaded: {response}"
                    ));
                }
            }
            Err(e) => report
                .violations
                .push(format!("flood connection got no typed answer: {e}")),
        }
    }
    if shed_latencies.is_empty() {
        report
            .violations
            .push("saturated server never shed a connection".into());
    }
    if served == 0 {
        report
            .violations
            .push("no admitted connection was served after the budget fired".into());
    }
    shed_latencies.sort_by(|a, b| a.total_cmp(b));
    let p99 = shed_latencies
        .get(((shed_latencies.len() as f64 * 0.99).ceil() as usize).saturating_sub(1))
        .copied()
        .unwrap_or(0.0);
    if p99 >= 10.0 {
        report
            .violations
            .push(format!("shed p99 {p99:.2} ms breaches the 10 ms bound"));
    }
    report.notes.push(format!(
        "flood {flood}: shed {} (p99 {:.2} ms), served {served}",
        shed_latencies.len(),
        p99
    ));

    // The slow client must have received a typed slow-client error.
    match read_frame(&mut slow) {
        Ok(Some(response)) => {
            let error = response
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or_default();
            if response.get("ok").and_then(Json::as_bool) != Some(false)
                || !error.contains("slow client")
            {
                report
                    .violations
                    .push(format!("slow client got a non-typed goodbye: {response}"));
            }
        }
        other => report
            .violations
            .push(format!("slow client was not answered: {other:?}")),
    }
    // And the socket must actually be dead (worker freed for good).
    let mut probe = [0u8; 1];
    match slow.read(&mut probe) {
        Ok(0) | Err(_) => {}
        Ok(_) => report
            .violations
            .push("slow client socket still delivers data after teardown".into()),
    }

    let shed_total = server.state().shed();
    report
        .notes
        .push(format!("server shed counter: {shed_total}"));
    if shed_total == 0 {
        report
            .violations
            .push("stats shed counter never incremented".into());
    }
    if let Err(e) = server.shutdown() {
        report.violations.push(format!("shutdown: {e}"));
    }
    report
}

// ---------------------------------------------------------------------------
// The full soak
// ---------------------------------------------------------------------------

/// Runs every seam, splitting `total` schedules roughly 40 % checkpoint,
/// 20 % transport, 35 % flight, and the remainder as overload-probe
/// rounds (at least one).
pub fn run_soak(total: usize, base_seed: u64) -> Vec<SeamReport> {
    let probes = (total / 125).clamp(1, 8);
    let ckpt = (total * 2) / 5;
    let transport = total / 5;
    let flight = total.saturating_sub(ckpt + transport + probes).max(1);

    let mut reports = vec![
        checkpoint_seam(ckpt.max(1), base_seed),
        transport_seam(transport.max(1), base_seed ^ 0x74727370),
        flight_seam(flight, base_seed ^ 0x666C6774),
    ];
    let mut overload = SeamReport::new("overload", probes);
    for round in 0..probes {
        let r = overload_probe(16 + 4 * round);
        overload.injected += r.injected;
        overload.operations += r.operations;
        overload.violations.extend(r.violations);
        overload.notes.extend(r.notes);
    }
    reports.push(overload);
    reports
}

/// Writes the soak summary CSV (one row per seam).
///
/// # Errors
///
/// Propagates filesystem failures.
pub fn write_csv(path: &Path, reports: &[SeamReport]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        std::fs::create_dir_all(parent)?;
    }
    let mut doc = String::from(csv_header());
    doc.push('\n');
    for r in reports {
        doc.push_str(&r.csv_row());
        doc.push('\n');
    }
    std::fs::write(path, doc)
}
