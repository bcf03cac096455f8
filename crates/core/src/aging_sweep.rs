//! Year-over-year aging re-profiling of one workload.
//!
//! A multi-year aging study profiles the *same* workload under a slowly
//! drifting delay assignment: each year's BTI ΔVth step inflates the
//! per-gate aging factors by a fraction of a percent. [`AgingSweep`] pays
//! once for the work that repeats from year to year:
//!
//! 1. **Identical-year reuse** — aging factors are snapped onto the shared
//!    [`AGING_FACTOR_GRID`](crate::AGING_FACTOR_GRID) before a delay
//!    assignment is built, so a ΔVth step too small to cross a grid line
//!    yields an *identical* assignment and the call is answered with the
//!    previous year's profile (the same rule makes it a
//!    [`ProfileCache`](crate::ProfileCache) hit). A grid walk that asks for
//!    one profile per (year, period) configuration thus simulates once
//!    per year.
//! 2. **One retimed kernel** — the levelized kernel is compiled once, on
//!    the first year, as a [`CornerProfiler`]; every later year that does
//!    change a delay swaps the delays in place with
//!    [`CornerProfiler::retime`] and replays the whole workload. The
//!    workload is functionally verified once, in [`AgingSweep::new`].
//!
//! Every profile is byte-identical to a from-scratch
//! [`MultiplierDesign::profile`] of the same quantized factors (this
//! module's tests lock that in).
//!
//! # Why patterns are not skipped
//!
//! An earlier version also skipped, within a changed year, every pattern
//! whose recorded set of simulated gates held no gate whose delay changed.
//! On the workloads this repository runs that test never skipped a
//! pattern: a yearly ΔVth step moves nearly every stressed gate past the
//! 1/4096 grid, and a uniform pattern touches 61–77 % of the gates. The
//! 32×32 sweep re-simulated 7 years × 1,500 patterns = 10,500 patterns out
//! of 10,500, so the per-pattern touched sets and settled-state snapshots
//! were pure overhead and were removed.

use std::sync::Arc;

use crate::{quantize_factors, CoreError, CornerProfiler, MultiplierDesign, PatternProfile};

/// Work accounting for an [`AgingSweep`]: how many years were simulated
/// and how many were answered from the previous year.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Years profiled (one per [`AgingSweep::profile_year`] call).
    pub years: u64,
    /// Years that compiled the timing kernel (the first simulated year).
    pub full_profiles: u64,
    /// Years answered entirely from the previous year's profile because
    /// the quantized factor vectors were identical.
    pub identical_years: u64,
    /// Patterns replayed on the retimed kernel, summed over every year
    /// after the first that changed a delay.
    pub cone_resims: u64,
    /// Always 0: the sweep no longer replays patterns out of order. Kept
    /// because the benchmark reports it.
    pub cascade_resims: u64,
    /// Pattern records reused verbatim from the previous year.
    pub patterns_reused: u64,
}

impl SweepCounters {
    /// Total patterns replayed through the retimed kernel (cone +
    /// cascade).
    pub fn patterns_resimulated(&self) -> u64 {
        self.cone_resims + self.cascade_resims
    }
}

/// Multi-year profiling driver over one design + workload.
///
/// # Example
///
/// ```no_run
/// use agemul::{AgingSweep, MultiplierDesign, PatternSet};
/// use agemul_circuits::MultiplierKind;
///
/// let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
/// let patterns = PatternSet::uniform(16, 1_500, 7);
/// let mut sweep = AgingSweep::new(&design, patterns.pairs())?;
/// for year in 0..=7 {
///     let factors: Vec<f64> = /* agemul_aging::aging_factors(...) */
///     # vec![1.0 + 0.01 * year as f64; design.circuit().netlist().gate_count()];
///     let profile = sweep.profile_year(Some(&factors))?;
///     println!("year {year}: avg {:.3} ns", profile.avg_delay_ns());
/// }
/// println!("replayed {} patterns", sweep.counters().patterns_resimulated());
/// # Ok::<(), agemul::CoreError>(())
/// ```
pub struct AgingSweep<'a> {
    design: &'a MultiplierDesign,
    pairs: Vec<(u64, u64)>,
    /// Built on the first simulated year, retimed on every later one.
    profiler: Option<CornerProfiler<'a>>,
    /// The previous year: its quantized factors (`None` = fresh delays)
    /// and its profile.
    last: Option<(Option<Vec<f64>>, Arc<PatternProfile>)>,
    counters: SweepCounters,
}

impl<'a> AgingSweep<'a> {
    /// Prepares a sweep over `pairs`, verifying the circuit functionally
    /// once (products are delay-independent).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// or [`CoreError::FunctionalMismatch`] if the circuit miscomputes a
    /// product.
    pub fn new(design: &'a MultiplierDesign, pairs: &[(u64, u64)]) -> Result<Self, CoreError> {
        design.verify_functional(pairs)?;
        Ok(AgingSweep {
            design,
            pairs: pairs.to_vec(),
            profiler: None,
            last: None,
            counters: SweepCounters::default(),
        })
    }

    /// The accumulated work counters.
    #[inline]
    pub fn counters(&self) -> SweepCounters {
        self.counters
    }

    /// Profiles the workload under `factors` (quantized onto the shared
    /// grid; `None` = fresh delays). A year whose quantized factors equal
    /// the previous call's returns the previous profile; any other year
    /// replays the workload on the retimed kernel. The returned profile is
    /// byte-identical to [`MultiplierDesign::profile`] of the same
    /// quantized factors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] on a malformed factor vector.
    pub fn profile_year(
        &mut self,
        factors: Option<&[f64]>,
    ) -> Result<Arc<PatternProfile>, CoreError> {
        let gates = self.design.circuit().netlist().gate_count();
        // `None` and an all-1.0 vector describe the same delays: keep one
        // spelling so the identical-year check sees one year.
        let quantized = factors
            .map(quantize_factors)
            .filter(|q| q.len() != gates || q.iter().any(|&f| f != 1.0));
        self.counters.years += 1;
        let n = self.pairs.len() as u64;

        if let Some((prev, profile)) = &self.last {
            if *prev == quantized {
                self.counters.identical_years += 1;
                self.counters.patterns_reused += n;
                return Ok(profile.clone());
            }
        }

        let delays = self.design.delay_assignment(quantized.as_deref())?;
        let profiler = match &mut self.profiler {
            Some(profiler) => {
                profiler.retime(&delays);
                self.counters.cone_resims += n;
                profiler
            }
            None => {
                self.counters.full_profiles += 1;
                self.profiler.insert(self.design.corner_profiler(&delays))
            }
        };
        let profile = Arc::new(profiler.profile(&self.pairs, None)?);
        self.last = Some((quantized, profile.clone()));
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use super::*;
    use crate::PatternSet;

    /// Drifting years on small designs: every year's profile must be
    /// byte-identical to a from-scratch profile of the same quantized
    /// factors, and every year after the first replays the whole workload
    /// on the one retimed kernel. The drift is dense: every third gate ages
    /// fast, the rest slowly.
    #[test]
    fn incremental_years_match_from_scratch() {
        for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
            let d = MultiplierDesign::new(kind, 8).unwrap();
            let gates = d.circuit().netlist().gate_count();
            let years: Vec<Vec<f64>> = (0..=4u32)
                .map(|year| {
                    (0..gates)
                        .map(|g| 1.0 + (0.012 + 0.004 * ((g % 3) as f64)) * f64::from(year))
                        .collect()
                })
                .collect();
            assert_years_match_from_scratch(&d, &years, &format!("{kind:?} dense"));
        }
    }

    /// Aging exactly one gate, in the first and in the last (partial)
    /// 64-gate word: the changed year replays the workload once on the
    /// retimed kernel, whose cone-limited steps re-evaluate only the gates
    /// each transition reaches, and stays byte-identical to a from-scratch
    /// profile.
    #[test]
    fn single_gate_drift_replays_exactly_its_cone() {
        for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
            let d = MultiplierDesign::new(kind, 8).unwrap();
            let gates = d.circuit().netlist().gate_count();
            assert_ne!(gates % 64, 0, "{kind:?}: the last word must be partial");
            for g in [0, gates - 1] {
                let mut aged = vec![1.0; gates];
                aged[g] = 1.5;
                let years = [vec![1.0; gates], aged];
                assert_years_match_from_scratch(&d, &years, &format!("{kind:?} gate {g}"));
            }
        }
    }

    /// Sweeps `years` over a workload that repeats each pair twice back to
    /// back (half the patterns are no-transition steps) and checks every
    /// year against a from-scratch profile and the replay counters.
    fn assert_years_match_from_scratch(d: &MultiplierDesign, years: &[Vec<f64>], drift: &str) {
        let base = PatternSet::uniform(8, 30, 9);
        let pairs: Vec<(u64, u64)> = base.pairs().iter().flat_map(|&p| [p, p]).collect();
        let mut sweep = AgingSweep::new(d, &pairs).unwrap();
        for (year, factors) in years.iter().enumerate() {
            let swept = sweep.profile_year(Some(factors)).unwrap();
            let scratch = d.profile(&pairs, Some(&quantize_factors(factors))).unwrap();
            let what = format!("{drift} year {year}");
            assert_eq!(swept.records(), scratch.records(), "{what}");
            assert_eq!(
                swept.avg_gate_toggles().to_bits(),
                scratch.avg_gate_toggles().to_bits(),
                "{what}"
            );
        }
        let c = sweep.counters();
        assert_eq!(c.full_profiles, 1, "{drift}: {c:?}");
        let retimed = (years.len() - 1) * pairs.len();
        assert_eq!(c.cone_resims, retimed as u64, "{drift}: {c:?}");
    }

    /// A sub-grid ΔVth step reuses the entire previous year.
    #[test]
    fn sub_threshold_year_is_fully_reused() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let gates = d.circuit().netlist().gate_count();
        let patterns = PatternSet::uniform(8, 25, 3);
        let mut sweep = AgingSweep::new(&d, patterns.pairs()).unwrap();

        let base = vec![1.05; gates];
        let nudged: Vec<f64> = base
            .iter()
            .map(|f| f + 0.1 / crate::AGING_FACTOR_GRID)
            .collect();
        let y0 = sweep.profile_year(Some(&base)).unwrap();
        let y1 = sweep.profile_year(Some(&nudged)).unwrap();
        assert!(Arc::ptr_eq(&y0, &y1));
        let c = sweep.counters();
        assert_eq!(c.identical_years, 1);
        assert_eq!(c.patterns_resimulated(), 0);
    }

    /// `None` factors and explicit uniform-1.0 factors describe the same
    /// delays; stepping between them replays nothing.
    #[test]
    fn none_and_unit_factors_are_one_year() {
        let d = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let gates = d.circuit().netlist().gate_count();
        let patterns = PatternSet::uniform(4, 20, 1);
        let mut sweep = AgingSweep::new(&d, patterns.pairs()).unwrap();
        sweep.profile_year(None).unwrap();
        sweep.profile_year(Some(&vec![1.0; gates])).unwrap();
        assert_eq!(sweep.counters().patterns_resimulated(), 0);
    }
}
