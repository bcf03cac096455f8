//! Shared, cached experiment state.

use std::collections::HashMap;
use std::rc::Rc;

use agemul::{CancelToken, MultiplierDesign, PatternProfile, PatternSet, SimEngine};
use agemul_aging::{aging_factors, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_netlist::{SwitchingActivity, WorkloadStats};

/// Convenience result type for the harness.
pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// How much simulation to spend per experiment.
///
/// `Paper` matches the paper's pattern counts exactly (65 536 patterns for
/// the Fig. 5 distributions, 10 000 for the latency sweeps); `Standard`
/// trims the heaviest 32×32 runs to keep a full reproduction in minutes;
/// `Quick` is for smoke tests and benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Smoke-test sizes.
    Quick,
    /// Minutes-scale full reproduction (default).
    Standard,
    /// The paper's exact pattern counts.
    Paper,
}

impl Scale {
    /// Patterns for the Fig. 5 delay-distribution experiment.
    pub fn distribution_patterns(self) -> usize {
        match self {
            Scale::Quick => 4_096,
            Scale::Standard => 16_384,
            Scale::Paper => 65_536,
        }
    }

    /// Patterns per constrained-zeros group (Fig. 6).
    pub fn fig6_patterns(self) -> usize {
        match self {
            Scale::Quick => 600,
            Scale::Standard | Scale::Paper => 3_000,
        }
    }

    /// Patterns for the latency/error sweeps (Figs. 13–24).
    pub fn latency_patterns(self, width: usize) -> usize {
        match (self, width) {
            (Scale::Quick, w) if w > 16 => 800,
            (Scale::Quick, _) => 2_000,
            (Scale::Standard, w) if w > 16 => 3_000,
            (Scale::Standard, _) => 10_000,
            (Scale::Paper, _) => 10_000,
        }
    }

    /// Patterns per fault for the fault-injection campaigns (each delay
    /// fault costs one full event-driven profile of this workload).
    pub fn fault_patterns(self, width: usize) -> usize {
        match (self, width) {
            (Scale::Quick, w) if w > 16 => 300,
            (Scale::Quick, _) => 600,
            (_, w) if w > 16 => 1_000,
            (_, _) => 2_500,
        }
    }

    /// Faults sampled per campaign (per architecture × width).
    pub fn fault_specimens(self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Standard | Scale::Paper => 24,
        }
    }

    /// Patterns for the seven-year studies (Figs. 26/27).
    pub fn year_patterns(self, width: usize) -> usize {
        match (self, width) {
            (Scale::Quick, w) if w > 16 => 400,
            (Scale::Quick, _) => 800,
            (_, w) if w > 16 => 1_500,
            (_, _) => 3_000,
        }
    }

    /// Process corners sampled per architecture by the Monte Carlo yield
    /// campaign (`mc`).
    pub fn mc_corners(self) -> usize {
        match self {
            Scale::Quick => 12,
            Scale::Standard => 48,
            Scale::Paper => 128,
        }
    }

    /// Patterns per corner-year replay in the Monte Carlo campaign. Each
    /// corner re-profiles this workload at every lifetime point, so it is
    /// the hot axis of the `corners × years × patterns` product.
    pub fn mc_patterns(self, width: usize) -> usize {
        match (self, width) {
            (Scale::Quick, _) => 256,
            (_, w) if w > 16 => 512,
            (_, _) => 1_024,
        }
    }

    /// Operations routed per epoch in the fleet policy study (`fleet`).
    /// Every node profiles its corner over the epoch trace, so this is the
    /// study's hot axis; utilization-driven aging is normalized by the
    /// fair share, which keeps the policy dynamics comparable across
    /// scales. The floor is 192 even at `Quick`: below that the epoch
    /// traces under-utilize every node and no policy separates before the
    /// horizon ends, which would void the study's acceptance check.
    pub fn fleet_ops_per_epoch(self) -> usize {
        match self {
            Scale::Quick | Scale::Standard => 192,
            Scale::Paper => 384,
        }
    }

    /// Simulated epochs in the fleet policy study. Deliberately constant
    /// across scales: the epoch count times the per-epoch aging step *is*
    /// the lifetime horizon under test, so shrinking it would change the
    /// experiment rather than its resolution.
    pub fn fleet_epochs(self) -> usize {
        20
    }
}

/// Workload seed shared by the latency experiments, so every figure sees
/// the same operand stream (as in the paper, which reuses its random
/// pattern sets across scenarios).
const SEED_UNIFORM: u64 = 0x0A6E_0001;

fn years_key(years: f64) -> u32 {
    (years * 100.0).round() as u32
}

/// Lazily computed, cached artifacts shared across experiments: designs,
/// workload statistics and switching activity, aging factors, timing
/// profiles, and critical-path measurements.
///
/// Building a profile is the expensive step (one event-driven simulation
/// over the whole workload); everything downstream — period sweeps, skip
/// comparisons, adaptive-vs-traditional replays — reuses it, exactly as the
/// paper reuses one measured dataset across Figs. 13–24.
pub struct Context {
    scale: Scale,
    cancel: Option<CancelToken>,
    bti: BtiModel,
    designs: HashMap<(MultiplierKind, usize), Rc<MultiplierDesign>>,
    workloads: HashMap<(usize, usize), Rc<PatternSet>>,
    stats: HashMap<(MultiplierKind, usize), Rc<WorkloadStats>>,
    activity: HashMap<(MultiplierKind, usize), Rc<SwitchingActivity>>,
    factors: HashMap<(MultiplierKind, usize, u32), Rc<Vec<f64>>>,
    profiles: HashMap<(MultiplierKind, usize, u32, usize), Rc<PatternProfile>>,
    criticals: HashMap<(MultiplierKind, usize, u32), f64>,
}

impl Context {
    /// Creates a context at the given scale, aging through
    /// [`BtiModel::reference`]: the 16×16 column-bypassing multiplier's
    /// critical path grows by the paper's ≈13 % over seven years.
    pub fn new(scale: Scale) -> Self {
        Context {
            scale,
            cancel: None,
            bti: BtiModel::reference(),
            designs: HashMap::new(),
            workloads: HashMap::new(),
            stats: HashMap::new(),
            activity: HashMap::new(),
            factors: HashMap::new(),
            profiles: HashMap::new(),
            criticals: HashMap::new(),
        }
    }

    /// The configured scale.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// Places the context under supervision: the optional deadline token
    /// is threaded into the timing kernels, so a supervisor's deadline
    /// aborts an experiment cooperatively instead of leaving it wedged.
    pub fn set_cancel(&mut self, cancel: Option<CancelToken>) {
        self.cancel = cancel;
    }

    /// The calibrated BTI model.
    pub fn bti(&self) -> &BtiModel {
        &self.bti
    }

    /// The supervisor's deadline token, if any.
    pub fn cancel(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// The design for `kind` × `width` (cached).
    pub fn design(&mut self, kind: MultiplierKind, width: usize) -> Result<Rc<MultiplierDesign>> {
        if let Some(d) = self.designs.get(&(kind, width)) {
            return Ok(Rc::clone(d));
        }
        let d = Rc::new(MultiplierDesign::new(kind, width)?);
        self.designs.insert((kind, width), Rc::clone(&d));
        Ok(d)
    }

    /// The shared uniform workload of `count` patterns at `width` (cached).
    pub fn uniform_workload(&mut self, width: usize, count: usize) -> Rc<PatternSet> {
        if let Some(w) = self.workloads.get(&(width, count)) {
            return Rc::clone(w);
        }
        let w = Rc::new(PatternSet::uniform(width, count, SEED_UNIFORM));
        self.workloads.insert((width, count), Rc::clone(&w));
        w
    }

    /// Workload statistics (signal probabilities) for a design under the
    /// standard uniform workload (cached).
    pub fn stats(&mut self, kind: MultiplierKind, width: usize) -> Result<Rc<WorkloadStats>> {
        if let Some(s) = self.stats.get(&(kind, width)) {
            return Ok(Rc::clone(s));
        }
        let design = self.design(kind, width)?;
        let workload = self.stats_workload(width);
        let s = Rc::new(design.workload_stats(workload.pairs())?);
        self.stats.insert((kind, width), Rc::clone(&s));
        Ok(s)
    }

    /// Switching activity for a design under the same workload as
    /// [`stats`](Self::stats) (cached).
    pub fn activity(
        &mut self,
        kind: MultiplierKind,
        width: usize,
    ) -> Result<Rc<SwitchingActivity>> {
        if let Some(a) = self.activity.get(&(kind, width)) {
            return Ok(Rc::clone(a));
        }
        let design = self.design(kind, width)?;
        let workload = self.stats_workload(width);
        let a = Rc::new(design.switching_activity(workload.pairs(), self.cancel.as_ref())?);
        self.activity.insert((kind, width), Rc::clone(&a));
        Ok(a)
    }

    /// The workload behind [`stats`](Self::stats) and
    /// [`activity`](Self::activity). Statistics stabilize quickly; a
    /// moderate sample keeps them cheap.
    fn stats_workload(&mut self, width: usize) -> Rc<PatternSet> {
        let count = self.scale.year_patterns(width);
        self.uniform_workload(width, count)
    }

    /// Per-gate BTI aging factors for a design at `years` (cached).
    pub fn factors(
        &mut self,
        kind: MultiplierKind,
        width: usize,
        years: f64,
    ) -> Result<Rc<Vec<f64>>> {
        let key = (kind, width, years_key(years));
        if let Some(f) = self.factors.get(&key) {
            return Ok(Rc::clone(f));
        }
        let design = self.design(kind, width)?;
        let stats = self.stats(kind, width)?;
        let f = Rc::new(aging_factors(
            design.circuit().netlist(),
            &stats,
            &self.bti,
            years,
        ));
        self.factors.insert(key, Rc::clone(&f));
        Ok(f)
    }

    /// A timing profile of the standard uniform workload (`count`
    /// patterns) at age `years` (cached).
    pub fn profile(
        &mut self,
        kind: MultiplierKind,
        width: usize,
        years: f64,
        count: usize,
    ) -> Result<Rc<PatternProfile>> {
        let key = (kind, width, years_key(years), count);
        if let Some(p) = self.profiles.get(&key) {
            return Ok(Rc::clone(p));
        }
        let design = self.design(kind, width)?;
        let workload = self.uniform_workload(width, count);
        let factors = if years > 0.0 {
            Some(self.factors(kind, width, years)?)
        } else {
            None
        };
        let p = Rc::new(design.profile_supervised(
            workload.pairs(),
            factors.as_ref().map(|f| f.as_slice()),
            SimEngine::Level,
            self.cancel.as_ref(),
        )?);
        self.profiles.insert(key, Rc::clone(&p));
        Ok(p)
    }

    /// The measured critical-path delay at age `years` (cached).
    pub fn critical(&mut self, kind: MultiplierKind, width: usize, years: f64) -> Result<f64> {
        let key = (kind, width, years_key(years));
        if let Some(&c) = self.criticals.get(&key) {
            return Ok(c);
        }
        let design = self.design(kind, width)?;
        let factors = if years > 0.0 {
            Some(self.factors(kind, width, years)?)
        } else {
            None
        };
        let c = design.critical_delay_ns(factors.as_ref().map(|f| f.as_slice()))?;
        self.criticals.insert(key, c);
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caches_return_shared_instances() {
        let mut ctx = Context::new(Scale::Quick);
        let d1 = ctx.design(MultiplierKind::Array, 4).unwrap();
        let d2 = ctx.design(MultiplierKind::Array, 4).unwrap();
        assert!(Rc::ptr_eq(&d1, &d2));
        let w1 = ctx.uniform_workload(4, 16);
        let w2 = ctx.uniform_workload(4, 16);
        assert!(Rc::ptr_eq(&w1, &w2));
    }

    #[test]
    fn aged_critical_exceeds_fresh() {
        let mut ctx = Context::new(Scale::Quick);
        let fresh = ctx.critical(MultiplierKind::Array, 4, 0.0).unwrap();
        let aged = ctx.critical(MultiplierKind::Array, 4, 7.0).unwrap();
        assert!(aged > fresh);
    }

    #[test]
    fn seven_year_anchor_holds_at_circuit_level() {
        // The paper's Fig. 7 observable: ≈13 % critical-path growth of the
        // 16×16 column-bypassing multiplier over seven years.
        let mut ctx = Context::new(Scale::Quick);
        let fresh = ctx.critical(MultiplierKind::ColumnBypass, 16, 0.0).unwrap();
        let aged = ctx.critical(MultiplierKind::ColumnBypass, 16, 7.0).unwrap();
        let growth = aged / fresh - 1.0;
        assert!(
            (0.115..=0.145).contains(&growth),
            "7-year growth {:.2}% off the 13% anchor",
            100.0 * growth
        );
    }

    #[test]
    fn scale_tables_are_ordered() {
        assert!(Scale::Quick.distribution_patterns() < Scale::Paper.distribution_patterns());
        assert!(Scale::Quick.latency_patterns(16) <= Scale::Standard.latency_patterns(16));
        assert!(Scale::Standard.latency_patterns(32) <= Scale::Standard.latency_patterns(16));
    }
}
