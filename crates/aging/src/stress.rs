//! Per-gate stress extraction and netlist-wide aging factors.

use agemul_netlist::{Netlist, WorkloadStats};

use crate::BtiModel;

/// Extracts each gate's output-high probability from workload statistics.
///
/// The returned vector is indexable by [`agemul_netlist::GateId::index`] and is the `S`
/// input of the BTI model: the pull-up network is NBTI-stressed while the
/// output is high, the pull-down PBTI-stressed while it is low.
pub fn stress_probabilities(netlist: &Netlist, stats: &WorkloadStats) -> Vec<f64> {
    netlist
        .gates()
        .iter()
        .map(|g| stats.net_high_probability(g.output()))
        .collect()
}

/// Computes per-gate-instance delay degradation factors after `years` of
/// operation under the workload summarized by `stats`.
///
/// The result plugs into
/// [`agemul_netlist::DelayAssignment::with_factors`] to build an aged
/// timing view of the circuit. Gates that the workload never exercises
/// still age (their stress probability defaults to the 0.5 prior), which
/// mirrors the paper's static/dynamic BTI distinction: an idle gate held at
/// a fixed level experiences *static* stress on one network.
///
/// The model runs once per distinct stress level, not once per gate
/// ([`BtiModel::delay_factors_in_place`], writing over the
/// [`stress_probabilities`] buffer). This is exact: a probability is
/// `weight / patterns` with the weight a multiple of 0.5, so a 512-pattern
/// workload has at most 1,025 levels against ~10,000 gates of a 32×32
/// multiplier, and each level's factor comes from the same
/// [`BtiModel::delay_factor`] call a per-gate loop would make, so every
/// factor is bit-identical to it.
///
/// # Example
///
/// ```
/// use agemul_aging::{aging_factors, BtiModel};
/// use agemul_logic::{GateKind, Logic, Technology};
/// use agemul_netlist::{Netlist, WorkloadStats};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let y = n.add_gate(GateKind::Not, &[a])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut stats = WorkloadStats::new(&n);
/// stats.observe_patterns(&n, &topo, [[Logic::Zero], [Logic::One]])?;
///
/// let model = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
/// let factors = aging_factors(&n, &stats, &model, 7.0);
/// assert_eq!(factors.len(), 1);
/// assert!(factors[0] > 1.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn aging_factors(
    netlist: &Netlist,
    stats: &WorkloadStats,
    model: &BtiModel,
    years: f64,
) -> Vec<f64> {
    let mut factors = stress_probabilities(netlist, stats);
    model.delay_factors_in_place(years, &mut factors);
    factors
}

/// Convenience: the single delay factor of the most-stressed gate — an
/// upper bound on how much any path can stretch.
pub fn worst_gate_factor(factors: &[f64]) -> f64 {
    factors.iter().copied().fold(1.0, f64::max)
}

#[cfg(test)]
mod tests {
    use agemul_circuits::{MultiplierCircuit, MultiplierKind};
    use agemul_logic::{GateKind, Logic, Technology};
    use agemul_netlist::Netlist;

    use super::*;

    fn fixture() -> (Netlist, WorkloadStats) {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let z = n.add_gate(GateKind::Or, &[a, b]).unwrap();
        n.mark_output(y, "y");
        n.mark_output(z, "z");
        let topo = n.topology().unwrap();
        let mut stats = WorkloadStats::new(&n);
        // Uniform two-bit workload: AND high 1/4, OR high 3/4.
        let pats = [
            [Logic::Zero, Logic::Zero],
            [Logic::Zero, Logic::One],
            [Logic::One, Logic::Zero],
            [Logic::One, Logic::One],
        ];
        stats.observe_patterns(&n, &topo, pats).unwrap();
        (n, stats)
    }

    #[test]
    fn stress_matches_output_probability() {
        let (n, stats) = fixture();
        let s = stress_probabilities(&n, &stats);
        assert!((s[0] - 0.25).abs() < 1e-12);
        assert!((s[1] - 0.75).abs() < 1e-12);
    }

    #[test]
    fn factors_cover_all_gates_and_exceed_one() {
        let (n, stats) = fixture();
        let model = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
        let f = aging_factors(&n, &stats, &model, 7.0);
        assert_eq!(f.len(), n.gate_count());
        assert!(f.iter().all(|&x| x > 1.0));
    }

    #[test]
    fn skewed_duty_ages_slower_than_balanced() {
        // α(S) = Sⁿ with n = 1/6 is very flat, so the balanced gate (both
        // networks stressed half the time) has the worst *average* factor;
        // the skewed 0.25/0.75 pair sits strictly below it.
        let (n, stats) = fixture();
        let model = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
        let f = aging_factors(&n, &stats, &model, 7.0);
        let balanced = model.delay_factor(7.0, 0.5);
        assert!(f[0] < balanced);
        assert!(f[1] < balanced);
        // And by NBTI/PBTI symmetry the two complementary gates match.
        assert!((f[0] - f[1]).abs() < 1e-12);
    }

    #[test]
    fn zero_years_is_identity() {
        let (n, stats) = fixture();
        let model = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
        let f = aging_factors(&n, &stats, &model, 0.0);
        assert!(f.iter().all(|&x| (x - 1.0).abs() < 1e-12));
    }

    /// Asserts that `aging_factors` gives every gate, bit for bit, what a
    /// per-gate `delay_factor` call gives it, at years 0, 1, 7 and 100.
    fn assert_matches_per_gate(n: &Netlist, stats: &WorkloadStats) {
        let model = BtiModel::reference();
        let p_high = stress_probabilities(n, stats);
        for years in [0.0, 1.0, 7.0, 100.0] {
            let factors = aging_factors(n, stats, &model, years);
            assert_eq!(factors.len(), p_high.len());
            for (g, (&got, &p)) in factors.iter().zip(&p_high).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    model.delay_factor(years, p).to_bits(),
                    "gate {g}, p_high {p}, {years} years"
                );
            }
        }
    }

    #[test]
    fn zero_pattern_and_held_x_workloads_match_per_gate_factors() {
        let (n, stats) = fixture();
        assert_matches_per_gate(&n, &stats);

        // No patterns: every gate sits at the 0.5 prior.
        let empty = WorkloadStats::new(&n);
        assert!(stress_probabilities(&n, &empty).iter().all(|&p| p == 0.5));
        assert_matches_per_gate(&n, &empty);

        // Input `b` held at X: AND(0, X) = 0 and AND(1, X) = X, so the
        // AND gate's weight is a single half (0.5 over 2 patterns).
        let topo = n.topology().unwrap();
        let mut held = WorkloadStats::new(&n);
        held.observe_patterns(&n, &topo, [[Logic::Zero, Logic::X], [Logic::One, Logic::X]])
            .unwrap();
        let p_high = stress_probabilities(&n, &held);
        assert_eq!(p_high, vec![0.25, 0.75]);
        assert_matches_per_gate(&n, &held);
    }

    #[test]
    fn more_levels_than_table_slots_match_per_gate_factors() {
        // A 32×32 multiplier under 8192 patterns has more distinct stress
        // levels than the 1,024-slot table, so slots collide, the table
        // fills, and the remaining levels are evaluated directly.
        let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 32).unwrap();
        let n = m.netlist();
        let topo = n.topology().unwrap();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state & 0xffff_ffff
        };
        let patterns: Vec<Vec<Logic>> = (0..8192)
            .map(|_| m.encode_inputs(next(), next()).unwrap())
            .collect();
        let mut stats = WorkloadStats::new(n);
        stats.observe_patterns(n, &topo, &patterns).unwrap();
        let mut levels: Vec<u64> = stress_probabilities(n, &stats)
            .iter()
            .map(|p| p.to_bits())
            .collect();
        levels.sort_unstable();
        levels.dedup();
        assert!(levels.len() > 1024, "only {} levels", levels.len());
        assert_matches_per_gate(n, &stats);
    }

    #[test]
    fn invalid_probabilities_still_reach_the_model_assertion() {
        let model = &BtiModel::reference();
        // NaNs (including the all-ones pattern), the empty-slot bits
        // (−1.0), and values outside [0, 1], each after valid levels are
        // stored and as the very first probability.
        let invalid = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(u64::MAX),
            -1.0,
            1.5,
            f64::NEG_INFINITY,
        ];
        for bad in invalid {
            for mut p_high in [vec![0.5, 0.25, bad, 0.5], vec![bad]] {
                let outcome = std::panic::catch_unwind(move || {
                    model.delay_factors_in_place(7.0, &mut p_high);
                });
                let message = outcome.expect_err("an invalid probability must panic");
                let text = message
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .unwrap_or_default();
                assert!(
                    text.contains("stress probability must be in [0, 1]"),
                    "{text}"
                );
            }
        }
        // Invalid years fail on the first gate, as a per-gate loop does;
        // an empty netlist asks nothing.
        model.delay_factors_in_place(-1.0, &mut []);
        let outcome = std::panic::catch_unwind(|| {
            model.delay_factors_in_place(-1.0, &mut [0.5]);
        });
        assert!(outcome.is_err());
    }

    #[test]
    fn worst_factor_is_max() {
        assert_eq!(worst_gate_factor(&[1.1, 1.3, 1.2]), 1.3);
        assert_eq!(worst_gate_factor(&[]), 1.0);
    }
}
