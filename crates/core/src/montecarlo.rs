//! Corner-batched Monte Carlo yield campaigns.
//!
//! The paper's aging analysis follows one *nominal* device through its
//! lifetime. Real silicon adds time-zero process variation on top: every
//! die starts from its own per-gate delay corner, and the question the
//! architecture must answer is a **yield** — what fraction of dies still
//! meets timing after `y` years, with and without the AHL's adaptive
//! cycle stretching.
//!
//! [`MonteCarloCampaign`] answers it by composing the two delay axes the
//! workspace already models:
//!
//! * **per-corner variation** — independent lognormal per-gate factors
//!   from [`VariationModel`], one deterministic seed stream per corner;
//! * **per-year BTI aging** — the workload-driven
//!   [`aging_factors`](agemul_aging::aging_factors) pipeline, computed
//!   once per lifetime point and shared by every corner.
//!
//! The composed per-gate factor is `variation[g] × bti_year[g]`, snapped
//! onto the shared [`AGING_FACTOR_GRID`](crate::AGING_FACTOR_GRID) —
//! the same quantization rule as [`ProfileCache`](crate::ProfileCache)
//! fingerprints and [`AgingSweep`](crate::AgingSweep), so campaign delay
//! assignments stay coherent with every other profiling path in the
//! workspace.
//!
//! # Why corners are cheap
//!
//! A naive campaign builds a fresh timing kernel per (corner, year) —
//! and kernel construction (levelized schedule, CSR fanout, truth-table
//! LUTs, arena allocation, functional init sweep) dwarfs the actual
//! workload replay for the small per-corner pattern sets a yield study
//! uses. The campaign instead compiles one [`CornerProfiler`] and never
//! rebuilds it. Within a corner, every lifetime point replays the same
//! operands and only the delays differ, so the lifetime points step in
//! lockstep as the lanes of one
//! [`LaneSim`](agemul_netlist::LaneSim) over the profiler's plan: one
//! levelized sweep per pattern serves up to
//! [`LaneSim::LANES`](agemul_netlist::LaneSim::LANES) years, sharing the
//! gate records, the input decode and the quiet-gate test (the
//! `mc/corner_*` benchmark rows time one corner; the `level_equiv`
//! property suite in `agemul-netlist` pins lanes ≡ separate kernels).

use agemul_aging::{aging_factors, BtiModel, VariationModel};

use crate::{
    quantize_factors, run_engine, CoreError, CornerProfiler, EngineConfig, MultiplierDesign,
    PatternProfile, SimEngine,
};

/// Configuration of a [`MonteCarloCampaign`].
#[derive(Clone, Debug, PartialEq)]
pub struct McConfig {
    /// Number of process corners (dies) to sample.
    pub corners: usize,
    /// Lognormal σ of the per-gate time-zero variation (0 = nominal).
    pub sigma: f64,
    /// Base seed of the campaign. Corner `c` draws its variation factors
    /// from a seed derived by a SplitMix64-style finalizer over
    /// `(seed, c)`, so corner streams are decorrelated and the whole
    /// campaign is reproducible from this one value.
    pub seed: u64,
    /// Lifetime points in years (ascending by convention; year 0 = fresh).
    pub years: Vec<f64>,
    /// Short cycle period in nanoseconds. Non-positive means "anchor to
    /// the design's fresh critical path" — the campaign resolves it at
    /// construction via
    /// [`critical_delay_ns`](MultiplierDesign::critical_delay_ns).
    pub cycle_ns: f64,
    /// AHL skip number (the zero-count threshold for one-cycle guesses).
    pub skip: u32,
    /// Adaptive pass criterion: a corner-year passes with AHL on iff it
    /// has no undetected errors **and** its detected-error rate stays at
    /// or below this many errors per 10 000 operations. Use
    /// `f64::INFINITY` (the [`new`](Self::new) default) to gate on
    /// undetected errors only — Razor corrects detected ones.
    pub error_limit_per_10k: f64,
}

impl McConfig {
    /// A campaign over `corners` dies at lognormal `sigma`, seeded with
    /// `seed`: lifetime points 0–7 years, cycle anchored to the fresh
    /// critical path, skip 7, and an undetected-only pass criterion.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or not finite (the
    /// [`VariationModel`] contract).
    pub fn new(corners: usize, sigma: f64, seed: u64) -> Self {
        // Validate eagerly so a bad σ fails at configuration time, not
        // deep inside a worker thread.
        let _ = VariationModel::new(sigma);
        McConfig {
            corners,
            sigma,
            seed,
            years: (0..=7).map(f64::from).collect(),
            cycle_ns: 0.0,
            skip: 7,
            error_limit_per_10k: f64::INFINITY,
        }
    }
}

/// One (corner, lifetime) evaluation: the profile summary plus both pass
/// verdicts.
#[derive(Clone, Debug, PartialEq)]
pub struct YearOutcome {
    /// Lifetime point in years.
    pub years: f64,
    /// Longest sensitized path delay the workload exposed, in ns.
    pub max_delay_ns: f64,
    /// AHL-off verdict: every operation fits the single short cycle
    /// (`max_delay_ns <= cycle_ns`). A fixed-latency die that misses this
    /// is dead silicon.
    pub baseline_pass: bool,
    /// Detected (Razor-corrected) timing errors per 10 000 operations
    /// under the adaptive engine.
    pub errors_per_10k: f64,
    /// Operations whose delay escaped even the stretched two-cycle
    /// window — silent data corruption, fails the die unconditionally.
    pub undetected: u64,
    /// Whether the adaptive engine entered aged mode during the replay.
    pub aged_mode_entered: bool,
    /// AHL-on verdict: no undetected errors and the detected-error rate
    /// within [`McConfig::error_limit_per_10k`].
    pub adaptive_pass: bool,
}

/// One sampled die: its seed and the outcome at every lifetime point.
#[derive(Clone, Debug, PartialEq)]
pub struct CornerOutcome {
    /// Corner index in `0..config.corners`.
    pub corner: usize,
    /// The derived per-corner variation seed (diagnostic: lets a single
    /// corner be replayed in isolation).
    pub seed: u64,
    /// One entry per configured lifetime point, in `years` order.
    pub outcomes: Vec<YearOutcome>,
}

/// A completed campaign: every corner × lifetime outcome plus the
/// resolved cycle anchor.
#[derive(Clone, Debug, PartialEq)]
pub struct McReport {
    /// The lifetime axis the campaign evaluated.
    pub years: Vec<f64>,
    /// Resolved short cycle period in ns.
    pub cycle_ns: f64,
    /// Per-corner outcomes in corner order.
    pub corners: Vec<CornerOutcome>,
}

impl McReport {
    /// The yield-vs-lifetime curve: for each lifetime point, the fraction
    /// of corners whose die passes — with the AHL (`adaptive = true`) or
    /// as a fixed-latency baseline (`adaptive = false`). Empty if the
    /// campaign sampled no corners.
    pub fn yield_curve(&self, adaptive: bool) -> Vec<(f64, f64)> {
        if self.corners.is_empty() {
            return Vec::new();
        }
        self.years
            .iter()
            .enumerate()
            .map(|(yi, &y)| {
                let passing = self
                    .corners
                    .iter()
                    .filter(|c| {
                        let o = &c.outcomes[yi];
                        if adaptive {
                            o.adaptive_pass
                        } else {
                            o.baseline_pass
                        }
                    })
                    .count();
                (y, passing as f64 / self.corners.len() as f64)
            })
            .collect()
    }
}

/// SplitMix64 finalizer over the `(base, corner)` pair.
///
/// [`VariationModel`] walks a SplitMix64 stream whose state starts at the
/// seed and advances by the golden-ratio gamma, so two seeds that differ
/// by a multiple of the gamma would produce *overlapping* factor
/// sequences. Scrambling the corner index through the finalizer first
/// makes every corner an effectively independent stream while keeping the
/// whole campaign a pure function of [`McConfig::seed`].
fn corner_seed(base: u64, corner: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((corner as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A seeded Monte Carlo yield campaign over one design + workload.
///
/// Construction pays everything shared across corners exactly once: the
/// functional verification sweep, the workload's signal statistics, and
/// one BTI factor vector per lifetime point. After that, corners are
/// independent, and each corner costs one lockstep workload replay per
/// [`LaneSim::LANES`](agemul_netlist::LaneSim::LANES) lifetime points.
///
/// # Example
///
/// ```no_run
/// use agemul::{McConfig, MonteCarloCampaign, MultiplierDesign, PatternSet};
/// use agemul_aging::BtiModel;
/// use agemul_circuits::MultiplierKind;
///
/// let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
/// let patterns = PatternSet::uniform(16, 256, 42);
/// let bti = BtiModel::reference();
/// let config = McConfig::new(200, 0.05, 7);
/// let campaign = MonteCarloCampaign::new(&design, patterns.pairs(), &bti, config)?;
/// let report = campaign.run(None)?;
/// for (years, yield_frac) in report.yield_curve(true) {
///     println!("{years} y: {:.1} % yield with AHL", 100.0 * yield_frac);
/// }
/// # Ok::<(), agemul::CoreError>(())
/// ```
pub struct MonteCarloCampaign<'a> {
    design: &'a MultiplierDesign,
    pairs: Vec<(u64, u64)>,
    config: McConfig,
    variation: VariationModel,
    /// One BTI factor vector per entry of `config.years`, shared by every
    /// corner (aging depends on the workload, not the corner).
    bti_by_year: Vec<Vec<f64>>,
}

impl<'a> MonteCarloCampaign<'a> {
    /// Prepares a campaign: verifies the circuit functionally (products
    /// are delay-independent, so once covers every corner), computes the
    /// workload's signal statistics, derives one BTI factor vector per
    /// lifetime point, and resolves the cycle anchor.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// [`CoreError::FunctionalMismatch`] if the circuit miscomputes a
    /// product, or [`CoreError::Netlist`] if the delay pipeline rejects a
    /// factor vector.
    pub fn new(
        design: &'a MultiplierDesign,
        pairs: &[(u64, u64)],
        bti: &BtiModel,
        mut config: McConfig,
    ) -> Result<Self, CoreError> {
        design.verify_functional(pairs)?;
        let stats = design.workload_stats(pairs)?;
        let bti_by_year = config
            .years
            .iter()
            .map(|&y| aging_factors(design.circuit().netlist(), &stats, bti, y))
            .collect();
        if config.cycle_ns <= 0.0 {
            config.cycle_ns = design.critical_delay_ns(None)?;
        }
        let variation = VariationModel::new(config.sigma);
        Ok(MonteCarloCampaign {
            design,
            pairs: pairs.to_vec(),
            config,
            variation,
            bti_by_year,
        })
    }

    /// The campaign's (cycle-resolved) configuration.
    #[inline]
    pub fn config(&self) -> &McConfig {
        &self.config
    }

    /// The workload the campaign profiles at every (corner, year) cell.
    #[inline]
    pub fn pairs(&self) -> &[(u64, u64)] {
        &self.pairs
    }

    /// The design under study.
    #[inline]
    pub fn design(&self) -> &'a MultiplierDesign {
        self.design
    }

    /// The derived variation seed of corner `corner` (what
    /// [`run_corner`](Self::run_corner) reports in
    /// [`CornerOutcome::seed`]).
    #[inline]
    pub fn seed_of(&self, corner: usize) -> u64 {
        corner_seed(self.config.seed, corner)
    }

    /// The composed, grid-quantized per-gate delay factors of one
    /// (corner, lifetime) cell: `variation[g] × bti[g]` snapped onto the
    /// shared [`AGING_FACTOR_GRID`](crate::AGING_FACTOR_GRID).
    ///
    /// # Panics
    ///
    /// Panics if `year_idx` is out of range of the configured lifetime
    /// axis.
    pub fn cell_factors(&self, corner: usize, year_idx: usize) -> Vec<f64> {
        let variation = self
            .variation
            .factors(self.design.circuit().netlist(), self.seed_of(corner));
        self.composed_factors(&variation, year_idx)
    }

    /// A fresh per-worker profiler, compiled once and reused by every
    /// corner [`run_corner`](Self::run_corner) evaluates.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] if the nominal delay pipeline fails
    /// (it cannot on a validated design).
    pub fn profiler(&self) -> Result<CornerProfiler<'a>, CoreError> {
        let nominal = self.design.delay_assignment(None)?;
        Ok(self.design.corner_profiler(&nominal))
    }

    /// Evaluates one corner across every configured lifetime point,
    /// reusing `profiler`'s compiled plan (never rebuilt). The lifetime
    /// axis is cut into chunks of at most
    /// [`LaneSim::LANES`](agemul_netlist::LaneSim::LANES) points, and each
    /// chunk replays the workload once with one lane per point; each
    /// point's delay assignment is built and dropped as its lane loads. A
    /// chunk of one point (a one-point axis, or the last of nine) gains
    /// nothing from lanes and runs on the profiler itself, retimed to it.
    /// This is the unit [`run`](Self::run) repeats per corner.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] on a malformed factor vector or —
    /// wrapping [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)
    /// — once `cancel` fires, and [`CoreError::Circuit`] if an operand
    /// overflows the width.
    pub fn run_corner(
        &self,
        profiler: &mut CornerProfiler<'_>,
        corner: usize,
        cancel: Option<&agemul_netlist::CancelToken>,
    ) -> Result<CornerOutcome, CoreError> {
        let variation = self
            .variation
            .factors(self.design.circuit().netlist(), self.seed_of(corner));
        let delays = |yi| {
            self.design
                .delay_assignment(Some(&self.composed_factors(&variation, yi)))
        };
        let mut outcomes = Vec::with_capacity(self.config.years.len());
        let lanes = agemul_netlist::LaneSim::LANES;
        for (first, chunk) in (0..).step_by(lanes).zip(self.config.years.chunks(lanes)) {
            if let [years] = *chunk {
                profiler.retime(&delays(first)?);
                let profile = profiler.profile(&self.pairs, cancel)?;
                outcomes.push(self.year_outcome(years, &profile));
                continue;
            }
            let profiles = profiler.profile_lanes(
                &self.pairs,
                (first..first + chunk.len()).map(delays),
                cancel,
            )?;
            for (&years, profile) in chunk.iter().zip(&profiles) {
                outcomes.push(self.year_outcome(years, profile));
            }
        }
        Ok(CornerOutcome {
            corner,
            seed: self.seed_of(corner),
            outcomes,
        })
    }

    /// [`run_corner`](Self::run_corner) without plan reuse: one
    /// from-scratch kernel per lifetime point on the requested `engine`.
    /// This is the slow reference path — the lockstep fast path is
    /// byte-identical to it on either engine (asserted in this module's
    /// tests).
    ///
    /// # Errors
    ///
    /// Same contract as [`run_corner`](Self::run_corner).
    pub fn run_corner_from_scratch(
        &self,
        corner: usize,
        engine: SimEngine,
        cancel: Option<&agemul_netlist::CancelToken>,
    ) -> Result<CornerOutcome, CoreError> {
        let variation = self
            .variation
            .factors(self.design.circuit().netlist(), self.seed_of(corner));
        let mut outcomes = Vec::with_capacity(self.config.years.len());
        for (yi, &years) in self.config.years.iter().enumerate() {
            let delays = self
                .design
                .delay_assignment(Some(&self.composed_factors(&variation, yi)))?;
            let profile =
                self.design
                    .profile_with_delays_supervised(&self.pairs, &delays, engine, cancel)?;
            outcomes.push(self.year_outcome(years, &profile));
        }
        Ok(CornerOutcome {
            corner,
            seed: self.seed_of(corner),
            outcomes,
        })
    }

    /// Composes one corner's variation factors with year `yi`'s BTI
    /// factors and snaps the product onto the shared grid.
    fn composed_factors(&self, variation: &[f64], yi: usize) -> Vec<f64> {
        let composed: Vec<f64> = variation
            .iter()
            .zip(&self.bti_by_year[yi])
            .map(|(v, a)| v * a)
            .collect();
        quantize_factors(&composed)
    }

    /// Judges one (corner, year) profile against both pass criteria.
    fn year_outcome(&self, years: f64, profile: &PatternProfile) -> YearOutcome {
        let max_delay_ns = profile.max_delay_ns();
        let adaptive = run_engine(
            profile,
            &EngineConfig::adaptive(self.config.cycle_ns, self.config.skip),
        );
        let errors_per_10k = adaptive.errors_per_10k_ops();
        YearOutcome {
            years,
            max_delay_ns,
            baseline_pass: max_delay_ns <= self.config.cycle_ns,
            errors_per_10k,
            undetected: adaptive.undetected,
            aged_mode_entered: adaptive.aged_mode_entered,
            adaptive_pass: adaptive.undetected == 0
                && errors_per_10k <= self.config.error_limit_per_10k,
        }
    }

    /// Runs the whole campaign, polling `cancel` inside every
    /// corner's workload replays. One compiled profiler serves all corners
    /// ([`run_corner`](Self::run_corner)).
    ///
    /// # Errors
    ///
    /// Propagates the first (in corner order) [`CoreError`] any corner
    /// produced; see [`run_corner`](Self::run_corner) for the cases.
    pub fn run(&self, cancel: Option<&agemul_netlist::CancelToken>) -> Result<McReport, CoreError> {
        let mut profiler = self.profiler()?;
        let outcomes = (0..self.config.corners)
            .map(|corner| self.run_corner(&mut profiler, corner, cancel))
            .collect::<Result<_, _>>()?;
        Ok(McReport {
            years: self.config.years.clone(),
            cycle_ns: self.config.cycle_ns,
            corners: outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use super::*;
    use crate::PatternSet;

    fn campaign<'a>(
        design: &'a MultiplierDesign,
        pairs: &[(u64, u64)],
        config: McConfig,
    ) -> MonteCarloCampaign<'a> {
        let bti = BtiModel::reference();
        MonteCarloCampaign::new(design, pairs, &bti, config).unwrap()
    }

    /// The lockstep fan-out must reproduce, corner for corner, what the
    /// slow path computes: a fresh from-scratch profile per (corner,
    /// year) cell through `profile_with_delays`. Three years fit one
    /// partial chunk of lanes, eight one full chunk, eleven a full chunk
    /// plus a partial one, and one and nine end in a lone point, which
    /// runs on the retimed profiler.
    #[test]
    fn campaign_matches_from_scratch_per_cell() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 24, 11);
        for years in [
            vec![0.0, 4.0, 7.0],
            (0..8).map(f64::from).collect(),
            (0..11).map(|y| 0.7 * f64::from(y)).collect(),
            vec![5.0],
            (0..9).map(|y| 0.8 * f64::from(y)).collect(),
        ] {
            let mut config = McConfig::new(6, 0.08, 99);
            config.years = years;
            assert_matches_from_scratch(&d, patterns.pairs(), &config);
        }
    }

    /// Runs the campaign `config` describes and checks every (corner,
    /// year) cell against a from-scratch profile of its delays.
    fn assert_matches_from_scratch(d: &MultiplierDesign, pairs: &[(u64, u64)], config: &McConfig) {
        let mc = campaign(d, pairs, config.clone());
        let report = mc.run(None).unwrap();
        assert_eq!(report.corners.len(), config.corners);

        for c in &report.corners {
            assert_eq!(c.outcomes.len(), config.years.len());
            for (yi, o) in c.outcomes.iter().enumerate() {
                let delays = d
                    .delay_assignment(Some(&mc.cell_factors(c.corner, yi)))
                    .unwrap();
                let scratch = d.profile_with_delays(pairs, &delays).unwrap();
                assert_eq!(
                    o.max_delay_ns.to_bits(),
                    scratch.max_delay_ns().to_bits(),
                    "corner {} year {}",
                    c.corner,
                    o.years
                );
                let metrics = run_engine(
                    &scratch,
                    &EngineConfig::adaptive(report.cycle_ns, config.skip),
                );
                assert_eq!(o.undetected, metrics.undetected);
                assert_eq!(
                    o.errors_per_10k.to_bits(),
                    metrics.errors_per_10k_ops().to_bits()
                );
            }
        }
    }

    /// A σ so wide that some corner's delays push a step's event times
    /// past the 2^30 fs a `u32` lane word holds: that corner runs on
    /// `u64` words and still reports exactly the from-scratch outcome, on
    /// either engine.
    #[test]
    fn corner_beyond_narrow_timestamps_matches_from_scratch() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 3);
        let mut config = McConfig::new(4, 2.3, 17);
        config.years = vec![0.0, 3.0, 7.0];
        let mc = campaign(&d, patterns.pairs(), config);
        let depth = u64::from(d.topology().max_level());
        let mut profiler = mc.profiler().unwrap();
        let mut wide = 0;
        for corner in 0..4 {
            let beyond = (0..3).any(|yi| {
                let delays = d.delay_assignment(Some(&mc.cell_factors(corner, yi)));
                delays.is_ok_and(|delays| {
                    let max = (0..delays.len())
                        .map(|g| delays.delay_fs(agemul_netlist::GateId::from_index(g)))
                        .max()
                        .unwrap_or(0);
                    (depth + 1) * max >= 1 << 30
                })
            });
            let fast = mc.run_corner(&mut profiler, corner, None);
            for engine in [SimEngine::Level, SimEngine::Event] {
                let slow = mc.run_corner_from_scratch(corner, engine, None);
                assert_eq!(fast, slow, "corner {corner} via {engine:?}");
            }
            if beyond && fast.is_ok() {
                wide += 1;
            }
        }
        assert!(wide > 0, "no corner both ran and passed 2^30 fs");
    }

    /// Same seed ⇒ byte-identical report; different seed ⇒ different
    /// corner factors (the campaign is a pure function of its config).
    #[test]
    fn campaign_is_deterministic_in_seed() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 3);
        let mut config = McConfig::new(4, 0.1, 1234);
        config.years = vec![0.0, 7.0];
        let a = campaign(&d, patterns.pairs(), config.clone())
            .run(None)
            .unwrap();
        let b = campaign(&d, patterns.pairs(), config.clone())
            .run(None)
            .unwrap();
        assert_eq!(a, b);

        config.seed = 1235;
        let c = campaign(&d, patterns.pairs(), config.clone());
        assert_ne!(mc_factors(&a), c_factors(&c));

        fn mc_factors(r: &McReport) -> Vec<u64> {
            r.corners.iter().map(|c| c.seed).collect()
        }
        fn c_factors(c: &MonteCarloCampaign<'_>) -> Vec<u64> {
            (0..c.config().corners).map(|i| c.seed_of(i)).collect()
        }
    }

    /// Yield is monotone in the pass criteria's generosity: the adaptive
    /// curve dominates the fixed-latency baseline at every lifetime point
    /// (two-cycle stretching can only save corners, never kill them).
    #[test]
    fn adaptive_yield_dominates_baseline() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 32, 5);
        let mut config = McConfig::new(12, 0.12, 77);
        config.years = vec![0.0, 3.0, 7.0];
        let report = campaign(&d, patterns.pairs(), config).run(None).unwrap();
        let base = report.yield_curve(false);
        let ahl = report.yield_curve(true);
        assert_eq!(base.len(), 3);
        for ((y_b, f_b), (y_a, f_a)) in base.iter().zip(&ahl) {
            assert_eq!(y_b, y_a);
            assert!(
                f_a >= f_b,
                "AHL yield {f_a} below baseline {f_b} at {y_b} y"
            );
        }
        // Year 0 at σ > 0 should not be a guaranteed-pass: the anchor is
        // the *nominal* critical path, and slow corners exceed it.
        assert!(base[0].1 <= 1.0);
    }

    /// From-scratch kernels, on either engine, report exactly what the
    /// retimed fast path does.
    #[test]
    fn from_scratch_event_engine_matches_retimed_path() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 20, 21);
        let mut config = McConfig::new(3, 0.07, 5);
        config.years = vec![0.0, 7.0];
        let mc = campaign(&d, patterns.pairs(), config);
        let mut profiler = mc.profiler().unwrap();
        for corner in 0..3 {
            let fast = mc.run_corner(&mut profiler, corner, None).unwrap();
            for engine in [SimEngine::Level, SimEngine::Event] {
                let slow = mc.run_corner_from_scratch(corner, engine, None).unwrap();
                assert_eq!(fast, slow, "corner {corner} via {engine:?}");
            }
        }
    }

    /// `run` reports, corner by corner, what from-scratch kernels on the
    /// event-driven reference engine report, and a fired token stops both
    /// paths with a cancellation.
    #[test]
    fn run_is_engine_invariant_and_cancellable() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 13);
        let mut config = McConfig::new(3, 0.06, 31);
        config.years = vec![0.0, 7.0];
        let mc = campaign(&d, patterns.pairs(), config);
        let report = mc.run(None).unwrap();
        for (corner, outcome) in report.corners.iter().enumerate() {
            let event = mc
                .run_corner_from_scratch(corner, SimEngine::Event, None)
                .unwrap();
            assert_eq!(*outcome, event, "corner {corner}");
        }

        let token = agemul_netlist::CancelToken::new();
        token.cancel();
        let cancelled = |err: CoreError| {
            matches!(
                err,
                CoreError::Netlist(agemul_netlist::NetlistError::Cancelled)
            )
        };
        assert!(cancelled(mc.run(Some(&token)).unwrap_err()));
        assert!(cancelled(
            mc.run_corner_from_scratch(0, SimEngine::Event, Some(&token))
                .unwrap_err()
        ));
    }

    /// The yield curve of an empty campaign is empty, not a division by
    /// zero.
    #[test]
    fn empty_campaign_yields_nothing() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let patterns = PatternSet::uniform(4, 8, 1);
        let mut config = McConfig::new(0, 0.05, 9);
        config.years = vec![0.0];
        let report = campaign(&d, patterns.pairs(), config).run(None).unwrap();
        assert!(report.corners.is_empty());
        assert!(report.yield_curve(true).is_empty());
    }
}
