//! Incremental year-over-year aging re-profiling.
//!
//! A multi-year aging study profiles the *same* workload under a slowly
//! drifting delay assignment: each year's BTI ΔVth step inflates a subset
//! of the per-gate aging factors by a fraction of a percent. Re-simulating
//! every pattern from scratch at every year repeats almost all of the
//! work — the sensitized cone of a typical pattern misses most of the
//! gates whose delay moved, and most delays barely move at all.
//!
//! [`AgingSweep`] exploits both facts:
//!
//! 1. **Factor quantization** — aging factors are snapped onto the shared
//!    [`AGING_FACTOR_GRID`](crate::AGING_FACTOR_GRID) before a delay
//!    assignment is built, so a ΔVth step too small to cross a grid line
//!    yields an *identical* assignment and the whole year is answered from
//!    the previous year's profile (the same rule makes it a
//!    [`ProfileCache`](crate::ProfileCache) hit).
//! 2. **Dirty-cone pattern skipping** — for a year that does change some
//!    gates, the sweep replays only the patterns whose recorded *touched
//!    set* (the gates the levelized kernel actually visited for that
//!    pattern) intersects the set of changed-delay gates. Every other
//!    pattern's record is reused verbatim.
//!
//! # Why skipping is exact
//!
//! Let pattern `i` start from settled state `S` and let `T` be the set of
//! gates [`LevelSim`] visited while simulating it (a gate is visited iff
//! one of its input nets carried an event). The input events at `t = 0`
//! depend only on `S` and the applied vector, not on any delay. By
//! induction over topological levels, every visited gate sees identical
//! input waveforms and — if its own delay is unchanged — produces an
//! identical output waveform; every unvisited gate produces none either
//! way. So if no gate in `T` changed delay and the pre-state `S` matches
//! the recorded one, the pattern's timing, toggle count, and settled
//! post-state are all bit-identical to the recorded year — including
//! glitches and inertial filtering, which is why the rule keys on the
//! *visited* set rather than any static cone approximation.
//!
//! The pre-state condition is tracked dynamically: the sweep stores each
//! pattern's packed settled state (2 bits/net via
//! [`LevelSim::snapshot_into`]) and, after every replayed pattern,
//! compares the new post-state against the recorded one. On a mismatch it
//! enters *cascade* mode — subsequent patterns are replayed regardless of
//! their touched sets (their recorded pre-state is stale) — and leaves it
//! as soon as a replayed pattern's post-state reconverges. Skipped
//! patterns keep their recorded state; before the next replay the kernel
//! is rewound with [`LevelSim::restore_values`].
//!
//! # Per-pattern state
//!
//! Each pattern's touched set is the kernel's own bitset
//! ([`LevelSim::touched_gates`], 1 bit/gate), so a pattern costs
//! ⌈gates/64⌉·8 + ⌈nets/32⌉·8 bytes of cone state however many gates it
//! visits. Both records live in flat arenas with one fixed-size slot per
//! settled state, written in place; a year allocates nothing per pattern,
//! and the dirty-cone test is a word-wise `AND` against the year's
//! changed-gate bitset.
//!
//! The result is byte-identical to a from-scratch
//! [`MultiplierDesign::profile`] of the same (quantized) factors — the
//! property this module's tests lock in — at a fraction of the
//! simulated work, which [`SweepCounters`] quantifies.

use std::sync::Arc;

use agemul_logic::Logic;
use agemul_netlist::LevelSim;

use crate::{
    count_zeros, quantize_factors, CoreError, MultiplierDesign, PatternProfile, PatternRecord,
};

/// Work accounting for an [`AgingSweep`]: how much simulation the
/// incremental path actually performed versus reused.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepCounters {
    /// Years profiled (one per [`AgingSweep::profile_year`] call).
    pub years: u64,
    /// Years answered by a full from-scratch profile (the first year, or
    /// any call before state exists).
    pub full_profiles: u64,
    /// Years answered entirely from the previous year's profile because
    /// the quantized factor vectors were identical.
    pub identical_years: u64,
    /// Patterns replayed because their touched set contained a
    /// changed-delay gate.
    pub cone_resims: u64,
    /// Patterns replayed because a preceding replay diverged the settled
    /// trajectory (cascade mode).
    pub cascade_resims: u64,
    /// Pattern records reused verbatim from the previous year.
    pub patterns_reused: u64,
}

impl SweepCounters {
    /// Total patterns replayed through the timing kernel across all
    /// incremental years (cone + cascade).
    pub fn patterns_resimulated(&self) -> u64 {
        self.cone_resims + self.cascade_resims
    }
}

/// Per-year state carried between [`AgingSweep::profile_year`] calls.
struct SweepState {
    /// Quantized factor vector of the profiled year (`None` = fresh).
    quantized: Option<Vec<f64>>,
    profile: Arc<PatternProfile>,
    cones: ConeArena,
    /// Per-pattern gate-output toggles, so the workload mean reconstructs
    /// from the exact integer sum regardless of which patterns replayed.
    toggles: Vec<u64>,
}

/// The per-pattern cone state, one fixed-size slot per settled state:
/// slot 0 is the initial settle, slot `i + 1` pattern `i`.
struct ConeArena {
    /// Words per slot: ⌈gates/64⌉ in `touched`, ⌈nets/32⌉ in `snapshots`.
    touched_words: usize,
    snapshot_words: usize,
    /// Touched-gate bitsets ([`LevelSim::touched_gates`]).
    touched: Vec<u64>,
    /// Packed settled states ([`LevelSim::snapshot_into`], 2 bits/net).
    snapshots: Vec<u64>,
    /// Scratch the fresh snapshot is packed into before it is compared
    /// against the recorded one.
    scratch: Vec<u64>,
}

impl ConeArena {
    fn new(design: &MultiplierDesign, slots: usize) -> Self {
        let netlist = design.circuit().netlist();
        let touched_words = netlist.gate_count().div_ceil(64);
        let snapshot_words = netlist.net_count().div_ceil(32);
        ConeArena {
            touched_words,
            snapshot_words,
            touched: vec![0; slots * touched_words],
            snapshots: vec![0; slots * snapshot_words],
            scratch: vec![0; snapshot_words],
        }
    }

    fn touched(&self, slot: usize) -> &[u64] {
        &self.touched[slot * self.touched_words..][..self.touched_words]
    }

    fn snapshot(&self, slot: usize) -> &[u64] {
        &self.snapshots[slot * self.snapshot_words..][..self.snapshot_words]
    }

    /// Records `sim`'s touched set and settled state in `slot`, returning
    /// whether the settled state equals the one the slot held before.
    fn store(&mut self, slot: usize, sim: &LevelSim<'_>) -> bool {
        let (tw, sw) = (self.touched_words, self.snapshot_words);
        self.touched[slot * tw..][..tw].copy_from_slice(sim.touched_gates());
        sim.snapshot_into(&mut self.scratch);
        let recorded = &mut self.snapshots[slot * sw..][..sw];
        let same = *recorded == *self.scratch;
        recorded.copy_from_slice(&self.scratch);
        same
    }
}

/// Incremental multi-year profiling driver over one design + workload.
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
    /// Pre-encoded input vectors, one per pair (encoding is
    /// delay-independent, so it is paid once for the whole sweep).
    encoded: Vec<Vec<Logic>>,
    /// The all-zeros settle vector.
    zeros: Vec<Logic>,
    state: Option<SweepState>,
    counters: SweepCounters,
}

impl<'a> AgingSweep<'a> {
    /// Prepares a sweep over `pairs`: verifies the circuit functionally
    /// (once — products are delay-independent) and pre-encodes every
    /// input vector.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Circuit`] if an operand overflows the width,
    /// or [`CoreError::FunctionalMismatch`] if the circuit miscomputes a
    /// product.
    pub fn new(design: &'a MultiplierDesign, pairs: &[(u64, u64)]) -> Result<Self, CoreError> {
        Self::with_lanes(design, pairs, crate::LaneWidth::default())
    }

    /// [`new`](Self::new) with an explicit batch width for the one-time
    /// functional verification sweep.
    ///
    /// # Errors
    ///
    /// Same contract as [`new`](Self::new).
    pub fn with_lanes(
        design: &'a MultiplierDesign,
        pairs: &[(u64, u64)],
        lanes: crate::LaneWidth,
    ) -> Result<Self, CoreError> {
        design.verify_functional_wide(pairs, lanes)?;
        let encoded: Result<Vec<Vec<Logic>>, CoreError> = pairs
            .iter()
            .map(|&(a, b)| {
                design
                    .circuit()
                    .encode_inputs(a, b)
                    .map_err(CoreError::from)
            })
            .collect();
        let mut zeros = Vec::with_capacity(2 * design.width());
        design.circuit().encode_inputs_into(0, 0, &mut zeros)?;
        Ok(AgingSweep {
            design,
            pairs: pairs.to_vec(),
            encoded: encoded?,
            zeros,
            state: None,
            counters: SweepCounters::default(),
        })
    }

    /// The accumulated work counters.
    #[inline]
    pub fn counters(&self) -> SweepCounters {
        self.counters
    }

    /// Profiles the workload under `factors` (quantized onto the shared
    /// grid; `None` = fresh delays), reusing every pattern whose sensitized
    /// cone provably avoided the gates that changed since the previous
    /// call. The returned profile is byte-identical to
    /// [`MultiplierDesign::profile`] of the same quantized factors.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::Netlist`] on a malformed factor vector.
    pub fn profile_year(
        &mut self,
        factors: Option<&[f64]>,
    ) -> Result<Arc<PatternProfile>, CoreError> {
        let quantized = factors.map(quantize_factors);
        self.counters.years += 1;

        if let Some(prev) = &self.state {
            if prev.quantized == quantized {
                self.counters.identical_years += 1;
                self.counters.patterns_reused += self.pairs.len() as u64;
                return Ok(prev.profile.clone());
            }
        }

        let delays = self.design.delay_assignment(quantized.as_deref())?;
        let gate_count = self.design.circuit().netlist().gate_count();
        match self.state.take() {
            None => {
                self.counters.full_profiles += 1;
                self.run_full(quantized, delays)
            }
            Some(prev) => {
                // Per-gate diff of the quantized factor vectors as a bitset
                // laid out like the touched sets; a `None` side reads as
                // the uniform factor 1.0.
                let at = |q: &Option<Vec<f64>>, g: usize| q.as_ref().map_or(1.0, |v| v[g]);
                let mut changed = vec![0u64; gate_count.div_ceil(64)];
                for g in 0..gate_count {
                    if at(&prev.quantized, g) != at(&quantized, g) {
                        changed[g / 64] |= 1 << (g % 64);
                    }
                }
                self.run_incremental(prev, quantized, delays, &changed)
            }
        }
    }

    /// From-scratch year: simulate every pattern, recording the per-pattern
    /// state the incremental path needs (touched sets, packed snapshots,
    /// toggle counts).
    fn run_full(
        &mut self,
        quantized: Option<Vec<f64>>,
        delays: agemul_netlist::DelayAssignment,
    ) -> Result<Arc<PatternProfile>, CoreError> {
        let n = self.pairs.len();
        let mut sim = LevelSim::new(
            self.design.circuit().netlist(),
            self.design.topology(),
            delays,
        );
        let mut cones = ConeArena::new(self.design, n + 1);
        let mut toggles = Vec::with_capacity(n);
        let mut records = Vec::with_capacity(n);

        sim.settle(&self.zeros)?;
        cones.store(0, &sim);

        for (i, &(a, b)) in self.pairs.iter().enumerate() {
            let timing = sim.step(&self.encoded[i])?;
            cones.store(i + 1, &sim);
            toggles.push(timing.gate_toggles);
            records.push(self.record(a, b, timing.delay_ns));
        }

        Ok(self.commit(quantized, records, cones, toggles))
    }

    /// Incremental year: replay only dirty-cone (and cascaded) patterns,
    /// splicing everything else from the recorded state.
    fn run_incremental(
        &mut self,
        prev: SweepState,
        quantized: Option<Vec<f64>>,
        delays: agemul_netlist::DelayAssignment,
        changed: &[u64],
    ) -> Result<Arc<PatternProfile>, CoreError> {
        let n = self.pairs.len();
        let mut sim = LevelSim::new(
            self.design.circuit().netlist(),
            self.design.topology(),
            delays,
        );
        let SweepState {
            mut cones,
            mut toggles,
            profile: prev_profile,
            ..
        } = prev;
        let prev_records = prev_profile.records();
        let mut records = Vec::with_capacity(n);

        let hits = |set: &[u64]| set.iter().zip(changed).any(|(&t, &c)| t & c != 0);

        // Whether the settled trajectory under the new delays still matches
        // the recorded one (reuse is only sound while it does).
        let mut in_sync;
        // Snapshot index whose state the kernel currently holds: `Some(i)`
        // = the post-state of snapshot `i`; `None` = the freshly
        // initialized pre-settle state.
        let mut sim_at: Option<usize> = None;

        // The initial settle is "pattern −1": its pre-state (functional
        // re-initialization) is delay-independent, so only its own touched
        // set gates whether it must be replayed.
        if hits(cones.touched(0)) {
            sim.settle(&self.zeros)?;
            in_sync = cones.store(0, &sim);
            sim_at = Some(0);
        } else {
            in_sync = true;
        }

        for (i, &(a, b)) in self.pairs.iter().enumerate() {
            if in_sync && !hits(cones.touched(i + 1)) {
                self.counters.patterns_reused += 1;
                records.push(prev_records[i]);
                continue;
            }
            if in_sync {
                self.counters.cone_resims += 1;
            } else {
                self.counters.cascade_resims += 1;
            }
            if sim_at != Some(i) {
                sim.restore_values(cones.snapshot(i));
            }
            let timing = sim.step(&self.encoded[i])?;
            in_sync = cones.store(i + 1, &sim);
            toggles[i] = timing.gate_toggles;
            records.push(self.record(a, b, timing.delay_ns));
            sim_at = Some(i + 1);
        }

        Ok(self.commit(quantized, records, cones, toggles))
    }

    fn record(&self, a: u64, b: u64, delay_ns: f64) -> PatternRecord {
        let judged = match self.design.kind().judged_operand() {
            agemul_circuits::Operand::Multiplicand => a,
            agemul_circuits::Operand::Multiplicator => b,
        };
        PatternRecord {
            a,
            b,
            zeros: count_zeros(judged, self.design.width()),
            delay_ns,
        }
    }

    /// Folds the year's results into a [`PatternProfile`] (the toggle mean
    /// is computed from the exact integer sum, so replayed and reused
    /// patterns combine byte-identically to a from-scratch run) and stores
    /// the state for the next year.
    fn commit(
        &mut self,
        quantized: Option<Vec<f64>>,
        records: Vec<PatternRecord>,
        cones: ConeArena,
        toggles: Vec<u64>,
    ) -> Arc<PatternProfile> {
        let avg_toggles = if records.is_empty() {
            0.0
        } else {
            toggles.iter().sum::<u64>() as f64 / records.len() as f64
        };
        let profile = Arc::new(PatternProfile::new(
            self.design.kind(),
            self.design.width(),
            records,
            avg_toggles,
        ));
        self.state = Some(SweepState {
            quantized,
            profile: profile.clone(),
            cones,
            toggles,
        });
        profile
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use super::*;
    use crate::PatternSet;

    /// Drifting years on a small design: every year's profile must be
    /// byte-identical to a from-scratch profile of the same quantized
    /// factors. The workload repeats each pair twice back to back, so the
    /// second application is a no-transition pattern with an *empty*
    /// touched set — reusable even when every gate in the design ages.
    #[test]
    fn incremental_years_match_from_scratch() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let gates = d.circuit().netlist().gate_count();
        let base = PatternSet::uniform(8, 30, 9);
        let pairs: Vec<(u64, u64)> = base.pairs().iter().flat_map(|&p| [p, p]).collect();
        let mut sweep = AgingSweep::new(&d, &pairs).unwrap();

        for year in 0..=4u32 {
            // Dense drift: every third gate ages fast, the rest slowly —
            // the hostile case where most sensitized cones go dirty.
            let factors: Vec<f64> = (0..gates)
                .map(|g| 1.0 + (0.012 + 0.004 * ((g % 3) as f64)) * f64::from(year))
                .collect();
            let inc = sweep.profile_year(Some(&factors)).unwrap();
            let scratch = d
                .profile(&pairs, Some(&quantize_factors(&factors)))
                .unwrap();
            assert_eq!(inc.records(), scratch.records(), "year {year}");
            assert_eq!(
                inc.avg_gate_toggles().to_bits(),
                scratch.avg_gate_toggles().to_bits(),
                "year {year}"
            );
        }
        let c = sweep.counters();
        assert_eq!(c.full_profiles, 1);
        // The 4 incremental years each reuse at least the 30 repeated
        // (no-transition) patterns.
        assert!(c.patterns_reused >= 4 * 30, "{c:?}");
        assert!(c.cone_resims > 0, "{c:?}");
    }

    /// Aging exactly one gate replays exactly the patterns whose recorded
    /// touched set holds it, for a gate in the first bitset word and one
    /// in the last, partial word, and the year stays byte-identical to a
    /// from-scratch profile. Each pair repeats back to back, so half the
    /// patterns touch nothing, and the aged gate is one that only some of
    /// the busy patterns touch.
    #[test]
    fn single_gate_drift_replays_exactly_its_cone() {
        for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
            let d = MultiplierDesign::new(kind, 8).unwrap();
            let circuit = d.circuit();
            let gates = circuit.netlist().gate_count();
            assert_ne!(gates % 64, 0, "{kind:?}: the last word must be partial");
            let base = PatternSet::uniform(8, 40, 5);
            let pairs: Vec<(u64, u64)> = base.pairs().iter().flat_map(|&p| [p, p]).collect();

            // From-scratch touched sets under fresh delays: per gate, the
            // number of patterns (the settle excluded) that visit it.
            let delays = d.delay_assignment(None).unwrap();
            let mut sim = LevelSim::new(circuit.netlist(), d.topology(), delays);
            sim.settle(&circuit.encode_inputs(0, 0).unwrap()).unwrap();
            let mut visits = vec![0u64; gates];
            let mut busy = 0;
            for &(a, b) in &pairs {
                sim.step(&circuit.encode_inputs(a, b).unwrap()).unwrap();
                busy += u64::from(sim.touched_gates().iter().any(|&w| w != 0));
                for (g, v) in visits.iter_mut().enumerate() {
                    *v += (sim.touched_gates()[g / 64] >> (g % 64)) & 1;
                }
            }
            let partial = |g: &usize| (1..busy).contains(&visits[*g]);
            let first = (0..64).find(partial).unwrap();
            let last = ((gates - 1) / 64 * 64..gates).rev().find(partial).unwrap();

            for g in [first, last] {
                let mut sweep = AgingSweep::new(&d, &pairs).unwrap();
                sweep.profile_year(None).unwrap();
                let mut factors = vec![1.0; gates];
                factors[g] = 1.5;
                let inc = sweep.profile_year(Some(&factors)).unwrap();
                let scratch = d
                    .profile(&pairs, Some(&quantize_factors(&factors)))
                    .unwrap();
                assert_eq!(inc.records(), scratch.records(), "{kind:?} gate {g}");
                assert_eq!(
                    inc.avg_gate_toggles().to_bits(),
                    scratch.avg_gate_toggles().to_bits(),
                    "{kind:?} gate {g}"
                );
                let c = sweep.counters();
                assert_eq!(c.cone_resims, visits[g], "{kind:?} gate {g}: {c:?}");
            }
        }
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
