//! A multiplier design bound to the calibrated technology.

use agemul_circuits::{MultiplierCircuit, MultiplierKind, Operand};
use agemul_logic::{DelayModel, Logic};
use agemul_netlist::{
    BatchSim, CancelToken, DelayAssignment, EventSim, LevelSim, PatternTiming, SwitchingActivity,
    Topology, WorkloadStats,
};

use crate::{calibrated_delay_model, count_zeros, CoreError, PatternProfile, PatternRecord};

/// Which timing kernel a profiling run drives.
///
/// Both kernels are femtosecond-identical (property-tested in
/// `agemul-netlist`); they differ only in throughput. Everything in this
/// crate defaults to [`Level`](SimEngine::Level) — the explicit selector
/// exists for benchmarks and cross-checks that want the event-driven
/// reference on the same workload.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SimEngine {
    /// Priority-queue event-driven kernel ([`EventSim`]) — the reference.
    Event,
    /// Levelized incremental kernel ([`LevelSim`]) — the fast default.
    #[default]
    Level,
}

/// The batch width of the bit-parallel functional sweep. There is one
/// width, 64 lanes; this one-variant type exists only so the benchmark
/// probe's `verify_functional_wide(pairs, LaneWidth::W64)` call keeps
/// compiling.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneWidth {
    /// 64 patterns per pass, the only width.
    W64,
}

/// Enum dispatch over the two timing kernels, so the profiling loop is
/// written once. Boxed: the levelized kernel carries its truth tables and
/// arenas inline, and one simulator exists per profiling run.
enum TimingKernel<'a> {
    Event(Box<EventSim<'a>>),
    Level(Box<LevelSim<'a>>),
}

impl TimingKernel<'_> {
    fn settle(&mut self, inputs: &[Logic]) -> Result<(), agemul_netlist::NetlistError> {
        match self {
            TimingKernel::Event(s) => s.settle(inputs),
            TimingKernel::Level(s) => s.settle(inputs),
        }
    }

    fn step(&mut self, inputs: &[Logic]) -> Result<PatternTiming, agemul_netlist::NetlistError> {
        match self {
            TimingKernel::Event(s) => s.step(inputs),
            TimingKernel::Level(s) => s.step(inputs),
        }
    }

    fn gate_toggle_counts(&self) -> &[u64] {
        match self {
            TimingKernel::Event(s) => s.gate_toggle_counts(),
            TimingKernel::Level(s) => s.gate_toggle_counts(),
        }
    }

    fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        match self {
            TimingKernel::Event(s) => s.set_cancel_token(token),
            TimingKernel::Level(s) => s.set_cancel_token(token),
        }
    }
}

/// A generated multiplier plus everything needed to simulate it: validated
/// topology and the workspace-calibrated delay table.
///
/// This is the main entry point of the crate — see the crate-level docs for
/// the full workflow.
///
/// # Example
///
/// ```
/// use agemul::MultiplierDesign;
/// use agemul_circuits::MultiplierKind;
///
/// let d = MultiplierDesign::new(MultiplierKind::Array, 8)?;
/// assert_eq!(d.width(), 8);
/// let crit = d.critical_delay_ns(None)?;
/// assert!(crit > 0.0);
/// # Ok::<(), agemul::CoreError>(())
/// ```
#[derive(Clone, Debug)]
pub struct MultiplierDesign {
    circuit: MultiplierCircuit,
    topology: Topology,
    delay_model: DelayModel,
}

impl MultiplierDesign {
    /// Generates a design with the workspace-calibrated delay model.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] for unsupported widths, and any
    /// [`calibrated_delay_model`] error.
    pub fn new(kind: MultiplierKind, width: usize) -> Result<Self, CoreError> {
        Self::with_delay_model(kind, width, calibrated_delay_model()?.clone())
    }

    /// Generates a design with an explicit delay model (ablation studies).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] for unsupported widths.
    pub fn with_delay_model(
        kind: MultiplierKind,
        width: usize,
        delay_model: DelayModel,
    ) -> Result<Self, CoreError> {
        let circuit = MultiplierCircuit::generate(kind, width)?;
        let topology = circuit.netlist().topology()?;
        Ok(MultiplierDesign {
            circuit,
            topology,
            delay_model,
        })
    }

    /// The underlying circuit.
    #[inline]
    pub fn circuit(&self) -> &MultiplierCircuit {
        &self.circuit
    }

    /// The validated topology.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The delay model in force.
    #[inline]
    pub fn delay_model(&self) -> &DelayModel {
        &self.delay_model
    }

    /// The architecture kind.
    #[inline]
    pub fn kind(&self) -> MultiplierKind {
        self.circuit.kind()
    }

    /// Operand width in bits.
    #[inline]
    pub fn width(&self) -> usize {
        self.circuit.width()
    }

    /// Builds the per-gate delay assignment, optionally applying per-gate
    /// aging factors (from [`agemul_aging::aging_factors`]).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] if `factors` does not match the gate
    /// population.
    pub fn delay_assignment(&self, factors: Option<&[f64]>) -> Result<DelayAssignment, CoreError> {
        Ok(match factors {
            None => DelayAssignment::uniform(self.circuit.netlist(), &self.delay_model),
            Some(f) => DelayAssignment::with_factors(self.circuit.netlist(), &self.delay_model, f)?,
        })
    }

    /// The design's critical path delay — the static longest-path bound —
    /// optionally aged.
    ///
    /// This is the cycle period a fixed-latency deployment of this
    /// multiplier must clock at; no input pattern's sensitized delay can
    /// exceed it. For the worst *observed* dynamic delay, see
    /// [`measure_critical_delay`](crate::measure_critical_delay).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] on a malformed factor vector.
    pub fn critical_delay_ns(&self, factors: Option<&[f64]>) -> Result<f64, CoreError> {
        let delays = self.delay_assignment(factors)?;
        Ok(agemul_netlist::static_critical_path_ns(
            self.circuit.netlist(),
            &delays,
        )?)
    }

    /// Profiles a workload: one timed simulation recording each operation's
    /// sensitized delay and judged zero count, plus mean switching
    /// activity. A bit-parallel functional pass first checks every product
    /// against `a × b` (see [`verify_functional`](Self::verify_functional)).
    ///
    /// `factors` optionally ages every gate (see
    /// [`delay_assignment`](Self::delay_assignment)). The simulation starts
    /// from an all-zeros settle, then applies the pairs in order — each
    /// measurement is a genuine two-vector transition, as in the paper's
    /// 65 536-pattern experiments. The timing runs on the levelized
    /// [`LevelSim`] kernel; see
    /// [`profile_with_engine`](Self::profile_with_engine) to force the
    /// event-driven reference.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// [`CoreError::Netlist`] on a malformed factor vector, or
    /// [`CoreError::FunctionalMismatch`] if the circuit miscomputes a
    /// product (see [`verify_functional`](Self::verify_functional)).
    pub fn profile(
        &self,
        pairs: &[(u64, u64)],
        factors: Option<&[f64]>,
    ) -> Result<PatternProfile, CoreError> {
        self.profile_with_engine(pairs, factors, SimEngine::Level)
    }

    /// [`profile`](Self::profile) with an explicit timing kernel.
    ///
    /// Both engines produce bit-identical profiles; [`SimEngine::Event`]
    /// exists for benchmarking and cross-checking against the levelized
    /// default.
    ///
    /// # Errors
    ///
    /// Same contract as [`profile`](Self::profile).
    pub fn profile_with_engine(
        &self,
        pairs: &[(u64, u64)],
        factors: Option<&[f64]>,
        engine: SimEngine,
    ) -> Result<PatternProfile, CoreError> {
        self.profile_supervised(pairs, factors, engine, None)
    }

    /// [`profile_with_engine`](Self::profile_with_engine) under a
    /// supervisor: the optional [`CancelToken`] is installed in the timing
    /// kernel (polled inside each step) and additionally checked between
    /// patterns, so even workloads of tiny circuits abandon work promptly
    /// when a deadline expires.
    ///
    /// # Errors
    ///
    /// Same contract as [`profile`](Self::profile), plus
    /// [`CoreError::Netlist`] wrapping
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// once the token fires.
    pub fn profile_supervised(
        &self,
        pairs: &[(u64, u64)],
        factors: Option<&[f64]>,
        engine: SimEngine,
        cancel: Option<&CancelToken>,
    ) -> Result<PatternProfile, CoreError> {
        // Chaos failpoint `core/profile` (ctx "{kind}x{width}"): the
        // profiling attempt fails with a typed error, modelling a transient
        // kernel fault. Callers (supervised retry, the serve cache) must
        // surface or retry it — never cache it.
        if agemul_chaos::armed() {
            let ctx = format!("{}x{}", self.kind().label(), self.width());
            if let Some(shot) = agemul_chaos::hit("core/profile", &ctx) {
                return Err(CoreError::InvalidConfig {
                    reason: format!("chaos: injected profiling fault ({:?})", shot.kind),
                });
            }
        }
        // Functional-correctness pass: one bit-parallel sweep per 64 pairs
        // guards the timing numbers below against a miscompiled circuit.
        self.verify_functional(pairs)?;
        let delays = self.delay_assignment(factors)?;
        self.profile_timed(pairs, delays, engine, cancel)
    }

    /// Profiles `pairs` under an explicit, already-built delay assignment —
    /// the entry point for delay-fault campaigns and other flows that
    /// perturb individual gate delays.
    ///
    /// Skips the functional-correctness pass: a delay-only perturbation
    /// cannot change any settled product, so the caller (who typically
    /// verified the unperturbed design already) would pay it once per
    /// fault for nothing. Combine with
    /// [`ProfileCache::get_or_insert_with`](crate::ProfileCache::get_or_insert_with)
    /// to memoize repeated assignments.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover this design's gates (the kernel
    /// constructor's contract).
    pub fn profile_with_delays(
        &self,
        pairs: &[(u64, u64)],
        delays: &DelayAssignment,
    ) -> Result<PatternProfile, CoreError> {
        self.profile_timed(pairs, delays.clone(), SimEngine::Level, None)
    }

    /// [`profile_with_delays`](Self::profile_with_delays) with an explicit
    /// timing kernel and an optional [`CancelToken`] — the supervised entry
    /// point for delay-fault campaigns.
    ///
    /// # Errors
    ///
    /// Same contract as [`profile_with_delays`](Self::profile_with_delays),
    /// plus [`CoreError::Netlist`] wrapping
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// once the token fires.
    pub fn profile_with_delays_supervised(
        &self,
        pairs: &[(u64, u64)],
        delays: &DelayAssignment,
        engine: SimEngine,
        cancel: Option<&CancelToken>,
    ) -> Result<PatternProfile, CoreError> {
        self.profile_timed(pairs, delays.clone(), engine, cancel)
    }

    /// The shared timed-profiling loop: settle all-zeros, step each pair,
    /// collect records and mean switching activity. One encode buffer is
    /// reused across the workload.
    fn profile_timed(
        &self,
        pairs: &[(u64, u64)],
        delays: DelayAssignment,
        engine: SimEngine,
        cancel: Option<&CancelToken>,
    ) -> Result<PatternProfile, CoreError> {
        let mut sim = match engine {
            SimEngine::Event => TimingKernel::Event(Box::new(EventSim::new(
                self.circuit.netlist(),
                &self.topology,
                delays,
            ))),
            SimEngine::Level => TimingKernel::Level(Box::new(LevelSim::new(
                self.circuit.netlist(),
                &self.topology,
                delays,
            ))),
        };
        self.profile_on(&mut sim, pairs, cancel)
    }

    /// The workload half of [`profile_timed`](Self::profile_timed), over an
    /// already-constructed kernel: settle all-zeros, step each pair,
    /// collect records and mean switching activity. Shared verbatim by the
    /// from-scratch path and the retimed [`CornerProfiler`] path, so the
    /// two cannot drift apart.
    fn profile_on(
        &self,
        sim: &mut TimingKernel<'_>,
        pairs: &[(u64, u64)],
        cancel: Option<&CancelToken>,
    ) -> Result<PatternProfile, CoreError> {
        sim.set_cancel_token(cancel.cloned());
        let width = self.width();
        let mut encoded = Vec::with_capacity(2 * width);
        self.circuit.encode_inputs_into(0, 0, &mut encoded)?;
        sim.settle(&encoded)?;

        let judged = self.kind().judged_operand();
        let mut records = Vec::with_capacity(pairs.len());
        for &(a, b) in pairs {
            // Per-pattern poll: small circuits may never cross the kernels'
            // internal poll thresholds, so the workload loop is the
            // guaranteed cancellation point.
            if let Some(token) = cancel {
                token.check()?;
            }
            self.circuit.encode_inputs_into(a, b, &mut encoded)?;
            let timing = sim.step(&encoded)?;
            let judged_value = match judged {
                Operand::Multiplicand => a,
                Operand::Multiplicator => b,
            };
            records.push(PatternRecord {
                a,
                b,
                zeros: count_zeros(judged_value, width),
                delay_ns: timing.delay_ns,
            });
        }
        let toggles: u64 = sim.gate_toggle_counts().iter().sum();
        let avg_toggles = if pairs.is_empty() {
            0.0
        } else {
            toggles as f64 / pairs.len() as f64
        };
        Ok(PatternProfile::new(
            self.kind(),
            width,
            records,
            avg_toggles,
        ))
    }

    /// Builds a reusable [`CornerProfiler`] seeded with `delays` — the
    /// plan-reuse profiling path for corner-batched Monte Carlo campaigns.
    ///
    /// The profiler compiles the levelized kernel **once** (schedule, CSR
    /// fanout, truth-table LUTs, arenas); each subsequent corner swaps
    /// per-gate delays in place via [`LevelSim::retime`] instead of paying
    /// the construction cost again. Profiles are byte-identical to
    /// [`profile_with_delays`](Self::profile_with_delays) for the same
    /// assignment (the workload loop is literally shared, and the retime
    /// contract is property-pinned in `agemul-netlist`).
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover this design's gates, or if any
    /// delay rounds to zero femtoseconds (the levelized kernel's
    /// strict-positivity contract).
    pub fn corner_profiler(&self, delays: &DelayAssignment) -> CornerProfiler<'_> {
        CornerProfiler {
            design: self,
            sim: TimingKernel::Level(Box::new(LevelSim::new(
                self.circuit.netlist(),
                &self.topology,
                delays.clone(),
            ))),
        }
    }

    /// Checks that the gate-level circuit computes `a × b` for every pair,
    /// using one bit-parallel [`BatchSim`] sweep per 64 pairs (~64× cheaper
    /// than a scalar functional simulation of the same workload).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width, or
    /// [`CoreError::FunctionalMismatch`] naming the first offending pair.
    pub fn verify_functional(&self, pairs: &[(u64, u64)]) -> Result<(), CoreError> {
        let mut sim = BatchSim::new(self.circuit.netlist(), &self.topology);
        let product = self.circuit.product();
        // One lane-slot buffer set for the whole workload: each chunk
        // re-encodes into the same allocations.
        let lanes = BatchSim::LANES.min(pairs.len().max(1));
        let mut patterns: Vec<Vec<Logic>> = vec![Vec::with_capacity(2 * self.width()); lanes];
        for chunk in pairs.chunks(BatchSim::LANES) {
            for (slot, &(a, b)) in patterns.iter_mut().zip(chunk) {
                self.circuit.encode_inputs_into(a, b, slot)?;
            }
            sim.eval_batch(&patterns[..chunk.len()])?;
            for (lane, &(a, b)) in chunk.iter().enumerate() {
                let got = product.decode_with(|net| sim.value(net, lane));
                if got != Some(u128::from(a) * u128::from(b)) {
                    return Err(CoreError::FunctionalMismatch { a, b, got });
                }
            }
        }
        Ok(())
    }

    /// [`verify_functional`](Self::verify_functional) with a batch width.
    /// It exists only for the benchmark probe that calls it; the one
    /// [`LaneWidth`] changes nothing.
    ///
    /// # Errors
    ///
    /// Same contract as [`verify_functional`](Self::verify_functional).
    pub fn verify_functional_wide(
        &self,
        pairs: &[(u64, u64)],
        _width: LaneWidth,
    ) -> Result<(), CoreError> {
        self.verify_functional(pairs)
    }

    /// Collects the workload's signal probabilities (the aging model's
    /// stress input) over `pairs`.
    ///
    /// One bit-parallel functional sweep, 64 patterns per pass; no timing
    /// kernel is built. Switching activity
    /// for the power model comes from
    /// [`switching_activity`](Self::switching_activity).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width.
    pub fn workload_stats(&self, pairs: &[(u64, u64)]) -> Result<WorkloadStats, CoreError> {
        let mut stats = WorkloadStats::new(self.circuit.netlist());
        let encoded: Result<Vec<Vec<Logic>>, CoreError> = pairs
            .iter()
            .map(|&(a, b)| self.circuit.encode_inputs(a, b).map_err(CoreError::from))
            .collect();
        let encoded = encoded?;
        stats.observe_patterns(self.circuit.netlist(), &self.topology, encoded.iter())?;
        Ok(stats)
    }

    /// Counts per-gate switching activity (the power and electromigration
    /// models' input) over `pairs`: a timed [`LevelSim`] run at nominal
    /// delays from the all-zero settled state, glitches included
    /// (toggle-identical to the event-driven reference). It stays one
    /// sequential simulation by design: tri-state hold semantics make
    /// every step depend on the previous pattern's settled state. The
    /// optional [`CancelToken`] is polled as in
    /// [`profile_supervised`](Self::profile_supervised): inside each step
    /// and between patterns.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// or [`CoreError::Netlist`] wrapping
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// once `cancel` fires.
    pub fn switching_activity(
        &self,
        pairs: &[(u64, u64)],
        cancel: Option<&CancelToken>,
    ) -> Result<SwitchingActivity, CoreError> {
        let delays = self.delay_assignment(None)?;
        let mut sim = LevelSim::new(self.circuit.netlist(), &self.topology, delays);
        sim.set_cancel_token(cancel.cloned());
        let mut pattern = Vec::with_capacity(2 * self.width());
        self.circuit.encode_inputs_into(0, 0, &mut pattern)?;
        sim.settle(&pattern)?;
        for &(a, b) in pairs {
            if let Some(token) = cancel {
                token.check()?;
            }
            self.circuit.encode_inputs_into(a, b, &mut pattern)?;
            sim.step(&pattern)?;
        }
        let mut activity = SwitchingActivity::new(self.circuit.netlist());
        activity.record_toggles(sim.gate_toggle_counts(), pairs.len() as u64)?;
        Ok(activity)
    }
}

/// A levelized timing kernel compiled once and retimed per Monte Carlo
/// corner — the plan-reuse fast path behind
/// [`MultiplierDesign::corner_profiler`].
///
/// Construction pays the full `LevelSim` compile (levelized schedule, CSR
/// fanout, truth-table LUTs, event arenas, functional init sweep); each
/// [`retime`](Self::retime) afterwards is an in-place delay swap plus an
/// `O(nets)` state restore, which is what makes the per-corner marginal
/// cost an order of magnitude below a from-scratch build.
/// [`profile`](Self::profile) runs the exact same workload loop as
/// [`MultiplierDesign::profile_with_delays`], so retimed and from-scratch
/// profiles are byte-identical (property-pinned in `agemul-netlist`).
///
/// Like `profile_with_delays`, this path skips functional verification: a
/// delay-only perturbation cannot change any settled product.
pub struct CornerProfiler<'a> {
    design: &'a MultiplierDesign,
    sim: TimingKernel<'a>,
}

impl CornerProfiler<'_> {
    /// Swaps in a new per-gate delay assignment without rebuilding the
    /// kernel. The next [`profile`](Self::profile) behaves exactly as if
    /// the kernel had been constructed fresh with `delays`.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover the design's gates, or if any
    /// delay rounds to zero femtoseconds.
    pub fn retime(&mut self, delays: &DelayAssignment) {
        match &mut self.sim {
            TimingKernel::Level(sim) => sim.retime(delays),
            // corner_profiler only ever builds the Level variant.
            TimingKernel::Event(_) => unreachable!("CornerProfiler is always levelized"),
        }
    }

    /// Profiles `pairs` under the current delay assignment — byte-identical
    /// to [`MultiplierDesign::profile_with_delays`] for the same delays.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// or [`CoreError::Netlist`] wrapping
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// once `cancel` fires.
    pub fn profile(
        &mut self,
        pairs: &[(u64, u64)],
        cancel: Option<&CancelToken>,
    ) -> Result<PatternProfile, CoreError> {
        // Tri-state holds make settled values history-dependent; restoring
        // the construction snapshot keeps back-to-back profiles (with or
        // without an intervening retime) byte-identical to a fresh kernel.
        if let TimingKernel::Level(sim) = &mut self.sim {
            sim.reset();
        }
        self.design.profile_on(&mut self.sim, pairs, cancel)
    }
}

#[cfg(test)]
mod tests {
    use crate::PatternSet;

    use super::*;

    #[test]
    fn profile_records_match_workload() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 50, 1);
        let p = d.profile(patterns.pairs(), None).unwrap();
        assert_eq!(p.len(), 50);
        for (r, &(a, b)) in p.records().iter().zip(patterns.pairs()) {
            assert_eq!((r.a, r.b), (a, b));
            assert_eq!(r.zeros, count_zeros(a, 8)); // judged = multiplicand
            assert!(r.delay_ns >= 0.0);
        }
        assert!(p.max_delay_ns() > 0.0);
        assert!(p.avg_gate_toggles() > 0.0);
    }

    #[test]
    fn row_bypass_judges_multiplicator() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let p = d.profile(&[(0xFF, 0x01), (0x01, 0xFF)], None).unwrap();
        assert_eq!(p.records()[0].zeros, 7); // zeros of b = 0x01
        assert_eq!(p.records()[1].zeros, 0); // zeros of b = 0xFF
    }

    #[test]
    fn aged_profile_is_slower() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 40, 2);
        let fresh = d.profile(patterns.pairs(), None).unwrap();
        let factors = vec![1.15; d.circuit().netlist().gate_count()];
        let aged = d.profile(patterns.pairs(), Some(&factors)).unwrap();
        assert!(aged.avg_delay_ns() > fresh.avg_delay_ns());
        assert!(aged.max_delay_ns() > fresh.max_delay_ns());
    }

    #[test]
    fn critical_delay_responds_to_aging() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 8).unwrap();
        let fresh = d.critical_delay_ns(None).unwrap();
        let factors = vec![1.13; d.circuit().netlist().gate_count()];
        let aged = d.critical_delay_ns(Some(&factors)).unwrap();
        assert!((aged / fresh - 1.13).abs() < 0.01, "{fresh} → {aged}");
    }

    #[test]
    fn verify_functional_accepts_all_kinds() {
        for kind in MultiplierKind::ALL {
            let d = MultiplierDesign::new(kind, 8).unwrap();
            let patterns = PatternSet::uniform(8, 200, 5);
            d.verify_functional(patterns.pairs()).unwrap();
            // Corner operands in one partial batch.
            d.verify_functional(&[(0, 0), (0xFF, 0xFF), (0xFF, 1), (1, 0xFF), (0, 0xFF)])
                .unwrap();
        }
    }

    #[test]
    fn verify_functional_rejects_overflowing_operands() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        assert!(matches!(
            d.verify_functional(&[(0x10, 1)]),
            Err(crate::CoreError::Circuit(_))
        ));
    }

    #[test]
    fn cancelled_profile_aborts_with_typed_error() {
        use agemul_netlist::NetlistError;
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 20, 7);
        let token = CancelToken::new();
        token.cancel();
        for engine in [SimEngine::Event, SimEngine::Level] {
            let err = d
                .profile_supervised(patterns.pairs(), None, engine, Some(&token))
                .unwrap_err();
            assert!(
                matches!(err, CoreError::Netlist(NetlistError::Cancelled)),
                "{engine:?}: {err:?}"
            );
        }
        // Without the token the same call succeeds.
        let p = d
            .profile_supervised(patterns.pairs(), None, SimEngine::Level, None)
            .unwrap();
        assert_eq!(p.len(), 20);
    }

    #[test]
    fn stats_cover_probabilities_and_toggles() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let patterns = PatternSet::uniform(4, 64, 3);
        let stats = d.workload_stats(patterns.pairs()).unwrap();
        assert_eq!(stats.pattern_count(), 64);
        let activity = d.switching_activity(patterns.pairs(), None).unwrap();
        assert_eq!(activity.pattern_count(), 64);
        assert!(activity.total_toggles() > 0);
    }
}
