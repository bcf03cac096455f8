//! Cycle-period sweep helpers.

use crate::{
    run_engine, CoreError, EngineConfig, MultiplierDesign, PatternProfile, ProfileCache, RunMetrics,
};

/// The outcome of sweeping one profile across cycle periods.
#[derive(Clone, Debug)]
pub struct PeriodSweep {
    points: Vec<(f64, RunMetrics)>,
}

impl PeriodSweep {
    /// Replays `profile` under `config` at each period in `periods_ns`
    /// (every other config field is held fixed).
    ///
    /// This is the inner loop of the paper's Figs. 13–24 and of any
    /// deployment-tuning flow: one expensive profile, many cheap replays.
    ///
    /// # Panics
    ///
    /// Panics if `periods_ns` is empty or contains a non-positive period.
    ///
    /// # Example
    ///
    /// ```no_run
    /// use agemul::{EngineConfig, MultiplierDesign, PatternSet, PeriodSweep};
    /// use agemul_circuits::MultiplierKind;
    ///
    /// let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
    /// let profile = design.profile(PatternSet::uniform(16, 2_000, 1).pairs(), None)?;
    /// let periods: Vec<f64> = (12..=26).map(|i| 0.05 * i as f64).collect();
    /// let sweep = PeriodSweep::run(&profile, &EngineConfig::adaptive(1.0, 7), &periods);
    /// let (best_period, best) = sweep.best_latency();
    /// println!("best {:.3} ns at {best_period:.2} ns", best.avg_latency_ns());
    /// # Ok::<(), agemul::CoreError>(())
    /// ```
    pub fn run(profile: &PatternProfile, config: &EngineConfig, periods_ns: &[f64]) -> Self {
        assert!(!periods_ns.is_empty(), "sweep needs at least one period");
        for &p in periods_ns {
            assert!(
                p.is_finite() && p > 0.0,
                "period must be finite and positive, got {p}"
            );
        }
        let points = periods_ns
            .iter()
            .map(|&p| {
                let cfg = EngineConfig {
                    cycle_ns: p,
                    ..*config
                };
                (p, run_engine(profile, &cfg))
            })
            .collect();
        PeriodSweep { points }
    }

    /// Profiles `pairs` through `cache` (a hit skips the timed simulation
    /// entirely) and sweeps the resulting profile across `periods_ns`.
    ///
    /// This is the memoized front door for tuning flows that restart the
    /// same sweep under different engine configs or aging epochs: the
    /// profile is keyed by design, delay fingerprint, and workload (see
    /// [`ProfileCache`]), so only the first call per epoch pays for gate-
    /// level simulation.
    ///
    /// # Errors
    ///
    /// Propagates [`MultiplierDesign::profile`] errors from a cache miss.
    ///
    /// # Panics
    ///
    /// Panics on an empty or non-positive period grid, as [`run`](Self::run).
    pub fn run_cached(
        design: &MultiplierDesign,
        cache: &ProfileCache,
        pairs: &[(u64, u64)],
        factors: Option<&[f64]>,
        config: &EngineConfig,
        periods_ns: &[f64],
    ) -> Result<Self, CoreError> {
        let profile = cache.profile(design, pairs, factors)?;
        Ok(Self::run(&profile, config, periods_ns))
    }

    /// Reassembles a sweep from externally held points — the
    /// reconstruction path for sweeps resumed from a checkpoint, where
    /// each `(period, metrics)` pair was produced by an earlier
    /// [`run`](Self::run) and must round-trip bit-identically.
    ///
    /// # Panics
    ///
    /// Panics if `points` is empty or contains a non-positive period, as
    /// [`run`](Self::run).
    pub fn from_points(points: Vec<(f64, RunMetrics)>) -> Self {
        assert!(!points.is_empty(), "sweep needs at least one period");
        for &(p, _) in &points {
            assert!(
                p.is_finite() && p > 0.0,
                "period must be finite and positive, got {p}"
            );
        }
        PeriodSweep { points }
    }

    /// All sweep points in period order.
    pub fn points(&self) -> &[(f64, RunMetrics)] {
        &self.points
    }

    /// The period with the lowest average latency (the first such period
    /// on a tie).
    pub fn best_latency(&self) -> (f64, RunMetrics) {
        // Both constructors reject an empty grid, so `points[0]` exists.
        let latency = |p: &(f64, RunMetrics)| p.1.avg_latency_ns();
        self.points[1..].iter().fold(self.points[0], |best, &p| {
            if latency(&p).total_cmp(&latency(&best)).is_lt() {
                p
            } else {
                best
            }
        })
    }

    /// The shortest period whose error rate (per operation) does not
    /// exceed `max_error_rate`, if any — deployment tuning under a
    /// reliability budget.
    pub fn shortest_period_within_errors(&self, max_error_rate: f64) -> Option<(f64, RunMetrics)> {
        self.points
            .iter()
            .filter(|(_, m)| {
                m.operations > 0 && (m.errors as f64 / m.operations as f64) <= max_error_rate
            })
            .min_by(|a, b| a.0.total_cmp(&b.0))
            .copied()
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use crate::{MultiplierDesign, PatternSet};

    use super::*;

    fn sweep() -> PeriodSweep {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let profile = design
            .profile(PatternSet::uniform(8, 300, 2).pairs(), None)
            .unwrap();
        let periods: Vec<f64> = (4..=14).map(|i| 0.1 * f64::from(i)).collect();
        PeriodSweep::run(&profile, &EngineConfig::adaptive(1.0, 4), &periods)
    }

    #[test]
    fn covers_all_periods_in_order() {
        let s = sweep();
        assert_eq!(s.points().len(), 11);
        assert!(s.points().windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn best_latency_is_minimal() {
        let s = sweep();
        let (_, best) = s.best_latency();
        assert!(s
            .points()
            .iter()
            .all(|(_, m)| best.avg_latency_ns() <= m.avg_latency_ns() + 1e-12));
    }

    #[test]
    fn reliability_budget_selection() {
        let s = sweep();
        // Zero-error budget: must pick a period at least as long as any
        // period that still errors.
        if let Some((p0, m0)) = s.shortest_period_within_errors(0.0) {
            assert_eq!(m0.errors, 0);
            for (p, m) in s.points() {
                if m.errors > 0 {
                    assert!(*p < p0, "errorful period {p} ≥ selected {p0}");
                }
            }
        }
        // An infinite budget picks the shortest period outright.
        let (p_any, _) = s.shortest_period_within_errors(1.0).unwrap();
        assert!((p_any - 0.4).abs() < 1e-12);
    }

    /// The sweep must equal a hand-rolled per-period replay loop exactly.
    #[test]
    fn sweep_is_bit_identical_to_serial_replay() {
        let design = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let profile = design
            .profile(PatternSet::uniform(8, 250, 9).pairs(), None)
            .unwrap();
        let config = EngineConfig::adaptive(0.8, 4);
        let periods: Vec<f64> = (5..=12).map(|i| 0.1 * f64::from(i)).collect();

        let sweep = PeriodSweep::run(&profile, &config, &periods);
        for (&p, point) in periods.iter().zip(sweep.points()) {
            let cfg = EngineConfig {
                cycle_ns: p,
                ..config
            };
            assert_eq!(point, &(p, run_engine(&profile, &cfg)));
        }
    }

    #[test]
    #[should_panic(expected = "at least one period")]
    fn rejects_empty_grid() {
        let design = MultiplierDesign::new(MultiplierKind::Array, 4).unwrap();
        let profile = design
            .profile(PatternSet::uniform(4, 10, 1).pairs(), None)
            .unwrap();
        let _ = PeriodSweep::run(&profile, &EngineConfig::adaptive(1.0, 2), &[]);
    }
}
