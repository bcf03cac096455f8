//! Campaign preparation (the simulations) and replay (the classification).

use std::collections::VecDeque;

use agemul::{
    run_engine_traced, CancelToken, EngineConfig, MultiplierDesign, PatternProfile, ProfileCache,
    SimEngine,
};
use agemul_netlist::{BatchSim, FaultKind, FaultOverlay, GateId};

use crate::report::{CampaignReport, FaultClass, FaultOutcome};
use crate::{FaultError, FaultSpec};

/// A prepared fault campaign: the fault-free baseline profile plus one
/// piece of simulation evidence per injected fault.
///
/// Preparation ([`Campaign::prepare`]) does all the expensive,
/// engine-config-independent work once:
///
/// * the **baseline** timing profile of the fault-free design over the
///   workload (one levelized timing simulation);
/// * **logic faults** (stuck-at, transient) evaluated functionally in
///   lane-masked [`BatchSim`] chunks — up to 64 faulty variants per
///   bit-parallel sweep — counting operations whose product deviates from
///   `a × b`;
/// * **delay faults** re-profiled with the levelized timing kernel under
///   the inflated gate delay ([`MultiplierDesign::profile_with_delays`]),
///   optionally memoized through a [`ProfileCache`].
///
/// [`Campaign::run`] then replays that evidence through the
/// variable-latency engine under any [`EngineConfig`] — sweeping skip
/// numbers or Razor windows costs no further gate-level simulation.
#[derive(Clone, Debug)]
pub struct Campaign {
    baseline: PatternProfile,
    entries: Vec<(FaultSpec, FaultEvidence)>,
}

/// Config-independent simulation evidence for one fault.
#[derive(Clone, Debug, PartialEq)]
enum FaultEvidence {
    /// Functional evaluation of a stuck-at/transient fault.
    Logic {
        /// Operations whose product deviated from `a × b`.
        corrupted_ops: u64,
        /// 0-based workload index of the first corrupted operation.
        first_corrupted_op: Option<u64>,
    },
    /// Timing profile under an inflated gate delay.
    Delay {
        /// The re-profiled workload.
        profile: PatternProfile,
    },
}

impl Campaign {
    /// Prepares a campaign: baseline profile plus per-fault evidence.
    ///
    /// An empty `faults` slice yields a campaign whose baseline is exactly
    /// `design.profile(pairs, None)` and whose reports carry no outcomes —
    /// the zero-fault identity the property tests pin down.
    ///
    /// With a `cache`, the baseline and every delay-fault profile are
    /// looked up before they are simulated. Delay-fault evidence is a full
    /// re-profile of the workload under one inflated gate delay; across
    /// campaigns that share a workload (skip sweeps, Razor-window sweeps,
    /// repeated what-if runs) the same (gate, factor) sites recur, and the
    /// cache keys them exactly by the inflated assignment's fingerprint —
    /// see the re-profiling-cache notes in `EXPERIMENTS.md`. A cached
    /// campaign is bit-identical to an uncached one: hits return profiles
    /// produced by the very same simulation the miss path would run.
    /// Logic-fault evidence (corruption counts from lane-masked functional
    /// sweeps) is not a profile and is never cached.
    ///
    /// With a `cancel` token, the baseline profile, every logic-fault sweep
    /// and every delay-fault re-profile poll it, so a supervisor's deadline
    /// stops preparation cooperatively. Without one, preparation runs to
    /// completion.
    ///
    /// # Errors
    ///
    /// Returns [`FaultError::InvalidSpec`] for out-of-range fault sites or
    /// non-finite/non-positive delay factors, and propagates simulation
    /// failures, including
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// (wrapped in [`FaultError::Core`]) once the token fires.
    pub fn prepare(
        design: &MultiplierDesign,
        pairs: &[(u64, u64)],
        faults: &[FaultSpec],
        cache: Option<&ProfileCache>,
        cancel: Option<&CancelToken>,
    ) -> Result<Self, FaultError> {
        validate(design, faults)?;
        let profile_baseline = || {
            design
                .profile_supervised(pairs, None, SimEngine::Level, cancel)
                .map_err(FaultError::from)
        };
        let baseline = match cache {
            Some(c) => {
                let delays = design.delay_assignment(None)?;
                let profile = c.get_or_insert_with(design, &delays, pairs, profile_baseline)?;
                PatternProfile::clone(&profile)
            }
            None => profile_baseline()?,
        };

        // Logic faults share lane-masked batch sweeps, up to 64 per chunk.
        let logic: Vec<FaultSpec> = faults.iter().filter(|f| f.is_logic()).copied().collect();
        let mut logic_out: VecDeque<(u64, Option<u64>)> = VecDeque::new();
        for chunk in logic.chunks(BatchSim::LANES) {
            logic_out.extend(eval_logic_chunk(design, pairs, chunk, cancel)?);
        }

        let entries = faults
            .iter()
            .map(|&spec| {
                let evidence = match spec {
                    FaultSpec::Delay { gate, factor } => FaultEvidence::Delay {
                        profile: profile_delay_fault(design, pairs, gate, factor, cache, cancel)?,
                    },
                    _ => {
                        let (corrupted_ops, first_corrupted_op) = logic_out
                            .pop_front()
                            .expect("one logic result per logic fault");
                        FaultEvidence::Logic {
                            corrupted_ops,
                            first_corrupted_op,
                        }
                    }
                };
                Ok((spec, evidence))
            })
            .collect::<Result<_, FaultError>>()?;
        Ok(Campaign { baseline, entries })
    }

    /// The fault-free baseline profile the campaign classifies against.
    #[inline]
    pub fn baseline(&self) -> &PatternProfile {
        &self.baseline
    }

    /// Number of prepared faults.
    #[inline]
    pub fn fault_count(&self) -> usize {
        self.entries.len()
    }

    /// Replays the prepared evidence under `config` and classifies every
    /// fault (see [`FaultClass`] for the taxonomy):
    ///
    /// * logic faults are **silent** if they corrupted at least one
    ///   product (a stable-but-wrong value never trips Razor, which only
    ///   watches transition timing) and **masked** otherwise;
    /// * delay faults are classified by their engine replay against the
    ///   baseline replay: new undetected violations → **silent**, else new
    ///   Razor errors → **detected**, else **masked**. Detected faults
    ///   report the AHL's adaptation op and the latency overhead the
    ///   re-executions and re-tuned prediction cost.
    ///
    /// Replay is cheap (no gate-level simulation), so sweeping skip
    /// thresholds and Razor windows over one prepared campaign is the
    /// intended usage.
    ///
    /// # Panics
    ///
    /// Panics if `config.cycle_ns` is not finite and positive (same
    /// contract as [`run_engine_traced`]).
    pub fn run(&self, config: &EngineConfig) -> CampaignReport {
        let (base, _) = run_engine_traced(&self.baseline, config);
        let base_latency = base.avg_latency_ns();
        let outcomes = self
            .entries
            .iter()
            .map(|(spec, evidence)| match evidence {
                FaultEvidence::Logic {
                    corrupted_ops,
                    first_corrupted_op,
                } => FaultOutcome {
                    label: spec.label(),
                    class: if *corrupted_ops > 0 {
                        FaultClass::Silent
                    } else {
                        FaultClass::Masked
                    },
                    corrupted_ops: *corrupted_ops,
                    first_corrupted_op: *first_corrupted_op,
                    excess_errors: 0,
                    excess_undetected: 0,
                    aged_at_op: None,
                    latency_overhead_pct: 0.0,
                },
                FaultEvidence::Delay { profile } => {
                    let (m, trace) = run_engine_traced(profile, config);
                    let excess_errors = m.errors.saturating_sub(base.errors);
                    let excess_undetected = m.undetected.saturating_sub(base.undetected);
                    let class = if excess_undetected > 0 {
                        FaultClass::Silent
                    } else if excess_errors > 0 {
                        FaultClass::Detected
                    } else {
                        FaultClass::Masked
                    };
                    let latency_overhead_pct = if base_latency > 0.0 {
                        100.0 * (m.avg_latency_ns() / base_latency - 1.0)
                    } else {
                        0.0
                    };
                    FaultOutcome {
                        label: spec.label(),
                        class,
                        corrupted_ops: 0,
                        first_corrupted_op: None,
                        excess_errors,
                        excess_undetected,
                        aged_at_op: trace.aged_at_op,
                        latency_overhead_pct,
                    }
                }
            })
            .collect();
        CampaignReport {
            kind: self.baseline.kind().label().to_string(),
            width: self.baseline.width(),
            operations: self.baseline.len() as u64,
            cycle_ns: config.cycle_ns,
            skip: config.skip,
            window_factor: config.razor.window_factor,
            adaptive: config.adaptive,
            baseline_errors: base.errors,
            baseline_avg_latency_ns: base_latency,
            outcomes,
        }
    }
}

/// Rejects fault sites outside the design and malformed delay factors
/// before any simulation is spent.
fn validate(design: &MultiplierDesign, faults: &[FaultSpec]) -> Result<(), FaultError> {
    let nets = design.circuit().netlist().net_count();
    let gates = design.circuit().netlist().gate_count();
    for f in faults {
        match *f {
            FaultSpec::StuckAt0 { net }
            | FaultSpec::StuckAt1 { net }
            | FaultSpec::Transient { net, .. } => {
                if net.index() >= nets {
                    return Err(FaultError::InvalidSpec {
                        label: f.label(),
                        reason: format!("net {} out of range ({nets} nets)", net.index()),
                    });
                }
            }
            FaultSpec::Delay { gate, factor } => {
                if gate.index() >= gates {
                    return Err(FaultError::InvalidSpec {
                        label: f.label(),
                        reason: format!("gate {} out of range ({gates} gates)", gate.index()),
                    });
                }
                if !(factor.is_finite() && factor > 0.0) {
                    return Err(FaultError::InvalidSpec {
                        label: f.label(),
                        reason: format!("delay factor must be finite and positive, got {factor}"),
                    });
                }
            }
        }
    }
    Ok(())
}

/// Functionally evaluates up to 64 logic faults at once: fault `i` rides
/// lane `i` of a lane-masked batch sweep, and every operation whose lane
/// product deviates from `a × b` counts as corrupted for that fault.
///
/// Stuck-at faults live in a persistent overlay; on operations where a
/// transient fires, a clone of that overlay additionally carries the
/// one-shot flips. The optional [`CancelToken`] is polled once per
/// operation.
fn eval_logic_chunk(
    design: &MultiplierDesign,
    pairs: &[(u64, u64)],
    chunk: &[FaultSpec],
    cancel: Option<&CancelToken>,
) -> Result<Vec<(u64, Option<u64>)>, FaultError> {
    debug_assert!(chunk.len() <= BatchSim::LANES);
    let circuit = design.circuit();
    let netlist = circuit.netlist();
    let mut base = FaultOverlay::new(netlist);
    for (lane, f) in chunk.iter().enumerate() {
        let mask = 1u64 << lane;
        match *f {
            FaultSpec::StuckAt0 { net } => base.add(net, FaultKind::StuckAt0, mask)?,
            FaultSpec::StuckAt1 { net } => base.add(net, FaultKind::StuckAt1, mask)?,
            FaultSpec::Transient { .. } => {}
            FaultSpec::Delay { .. } => unreachable!("delay faults are not logic-chunk members"),
        }
    }

    let mut sim = BatchSim::new(netlist, design.topology());
    let product = circuit.product();
    let mut corrupted = vec![0u64; chunk.len()];
    let mut first: Vec<Option<u64>> = vec![None; chunk.len()];
    for (op, &(a, b)) in pairs.iter().enumerate() {
        if let Some(token) = cancel {
            token.check().map_err(agemul::CoreError::from)?;
        }
        let pattern = circuit.encode_inputs(a, b)?;
        let patterns = vec![pattern.as_slice(); chunk.len()];
        let fires_now = |f: &FaultSpec| matches!(f, FaultSpec::Transient { op: t, .. } if *t == op);
        if chunk.iter().any(fires_now) {
            let mut with_transients = base.clone();
            for (lane, f) in chunk.iter().enumerate() {
                if let FaultSpec::Transient { net, op: t } = *f {
                    if t == op {
                        with_transients.add(net, FaultKind::Flip, 1u64 << lane)?;
                    }
                }
            }
            sim.eval_batch_with_overlay(&patterns, &with_transients)?;
        } else {
            sim.eval_batch_with_overlay(&patterns, &base)?;
        }
        let expected = u128::from(a) * u128::from(b);
        for (lane, count) in corrupted.iter_mut().enumerate() {
            if product.decode_with(|net| sim.value(net, lane)) != Some(expected) {
                *count += 1;
                if first[lane].is_none() {
                    first[lane] = Some(op as u64);
                }
            }
        }
    }
    Ok(corrupted.into_iter().zip(first).collect())
}

/// Profiles the workload under one inflated gate delay — the same
/// two-vector measurement as the fault-free [`MultiplierDesign::profile`],
/// minus the functional pass (the fault is timing-only, so every product
/// stays correct by construction). With a cache, the inflated assignment's
/// fingerprint keys the memoized profile; the optional token cancels the
/// simulation.
fn profile_delay_fault(
    design: &MultiplierDesign,
    pairs: &[(u64, u64)],
    gate: GateId,
    factor: f64,
    cache: Option<&ProfileCache>,
    cancel: Option<&CancelToken>,
) -> Result<PatternProfile, FaultError> {
    let mut delays = design.delay_assignment(None)?;
    delays.inflate(gate, factor);
    let profile = || {
        design
            .profile_with_delays_supervised(pairs, &delays, SimEngine::Level, cancel)
            .map_err(FaultError::from)
    };
    match cache {
        Some(c) => {
            let profile = c.get_or_insert_with(design, &delays, pairs, profile)?;
            Ok(PatternProfile::clone(&profile))
        }
        None => profile(),
    }
}
