//! Electromigration wire-aging extension (paper §V outlook).
//!
//! The paper's conclusion notes that besides BTI, interconnect ages through
//! electromigration: sustained current density displaces metal ions, wires
//! narrow, resistance — and therefore RC delay — grows, and in the limit
//! the wire opens. The paper argues (without experiments) that the proposed
//! variable-latency multipliers tolerate this combined degradation better
//! than fixed-latency designs. This module provides the simple model used
//! by this repository's extension benches to test that claim.
//!
//! We model fractional wire-width loss as proportional to accumulated
//! charge flow — activity × time — with Black's-equation-like behaviour
//! folded into a single rate constant. The per-gate delay factor composes
//! multiplicatively with the BTI factor.

use agemul_netlist::{GateId, Netlist, SwitchingActivity};

/// A first-order electromigration model.
///
/// `width_loss(t) = rate · activity · years` (clamped), and the wire's
/// resistance — hence its contribution to the gate's delay — scales as
/// `1 / (1 − width_loss)`.
///
/// # Example
///
/// ```
/// use agemul_aging::electromigration::EmModel;
///
/// let em = EmModel::new(0.004);
/// let f = em.delay_factor(7.0, 1.0);
/// assert!(f > 1.0 && f < 1.05);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EmModel {
    /// Fractional width loss per (toggle-per-pattern · year).
    rate_per_activity_year: f64,
}

impl EmModel {
    /// Creates a model with the given width-loss rate.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or not finite.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate.is_finite() && rate >= 0.0,
            "electromigration rate must be finite and non-negative, got {rate}"
        );
        EmModel {
            rate_per_activity_year: rate,
        }
    }

    /// A default rate tuned so a continuously switching wire loses ≈3 % of
    /// its width over seven years — a mild, secondary effect next to BTI,
    /// as the paper's discussion implies.
    pub fn nominal() -> Self {
        EmModel::new(0.03 / 7.0)
    }

    /// Delay growth factor of a wire with the given switching `activity`
    /// (average toggles per pattern) after `years`.
    ///
    /// # Panics
    ///
    /// Panics if `years` or `activity` is negative or not finite.
    pub fn delay_factor(&self, years: f64, activity: f64) -> f64 {
        assert!(
            years.is_finite() && years >= 0.0,
            "years must be finite and non-negative, got {years}"
        );
        assert!(
            activity.is_finite() && activity >= 0.0,
            "activity must be finite and non-negative, got {activity}"
        );
        let loss = (self.rate_per_activity_year * activity * years).min(0.5);
        1.0 / (1.0 - loss)
    }

    /// Per-gate electromigration delay factors for a netlist, driven by the
    /// workload's recorded switching activity. Composes multiplicatively
    /// with [`crate::aging_factors`].
    pub fn wire_factors(
        &self,
        netlist: &Netlist,
        activity: &SwitchingActivity,
        years: f64,
    ) -> Vec<f64> {
        (0..netlist.gate_count())
            .map(|i| self.delay_factor(years, activity.gate_activity(GateId::from_index(i))))
            .collect()
    }
}

impl Default for EmModel {
    fn default() -> Self {
        Self::nominal()
    }
}

/// Composes two per-gate factor vectors multiplicatively.
///
/// # Panics
///
/// Panics if the vectors differ in length.
pub fn compose_factors(bti: &[f64], em: &[f64]) -> Vec<f64> {
    assert_eq!(bti.len(), em.len(), "factor vectors must align");
    bti.iter().zip(em).map(|(&a, &b)| a * b).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_wires_do_not_age() {
        let em = EmModel::nominal();
        assert_eq!(em.delay_factor(7.0, 0.0), 1.0);
    }

    #[test]
    fn busier_wires_age_faster() {
        let em = EmModel::nominal();
        assert!(em.delay_factor(7.0, 2.0) > em.delay_factor(7.0, 0.5));
    }

    #[test]
    fn loss_saturates() {
        let em = EmModel::new(10.0);
        let f = em.delay_factor(100.0, 10.0);
        assert!((f - 2.0).abs() < 1e-12); // 50 % loss cap → factor 2
    }

    #[test]
    fn nominal_seven_year_target() {
        let em = EmModel::nominal();
        let f = em.delay_factor(7.0, 1.0);
        assert!((f - 1.0 / 0.97).abs() < 1e-9);
    }

    #[test]
    fn composition_is_elementwise() {
        let c = compose_factors(&[1.1, 1.2], &[1.0, 1.5]);
        assert!((c[0] - 1.1).abs() < 1e-12);
        assert!((c[1] - 1.8).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must align")]
    fn composition_checks_length() {
        let _ = compose_factors(&[1.0], &[1.0, 1.0]);
    }
}
