//! Per-gate-kind nominal propagation delays.

use std::fmt;

use crate::GateKind;

/// A table of nominal propagation delays (nanoseconds) per [`GateKind`].
///
/// This model stands in for the paper's SPICE/Nanosim timing backend: each
/// gate kind gets a single pin-to-output delay, and the event-driven timing
/// simulator in `agemul-netlist` adds them up along sensitized paths. The
/// aging engine in `agemul-aging` later multiplies each *gate instance*'s
/// delay by a BTI degradation factor.
///
/// The nominal values are loosely based on 32 nm high-k/metal-gate FO4-style
/// ratios (an inverter is fastest; XOR/XNOR cost roughly three inverter
/// delays; a transmission-gate mux sits in between). Because the paper's
/// claims are all *comparative*, what matters is the ratio structure and the
/// final calibration: [`DelayModel::calibrated`] rescales the entire table so
/// that a chosen circuit (in practice the 16×16 array multiplier) hits the
/// paper's reported critical-path delay of 1.32 ns.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind};
///
/// let nominal = DelayModel::nominal();
/// let doubled = nominal.scaled(2.0);
/// assert_eq!(
///     doubled.delay_ns(GateKind::Xor),
///     2.0 * nominal.delay_ns(GateKind::Xor),
/// );
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct DelayModel {
    /// Indexed by the discriminant order of [`GateKind::ALL`].
    table_ns: [f64; 10],
}

impl DelayModel {
    /// Nominal 32 nm-flavoured delay table (see type-level docs).
    pub fn nominal() -> Self {
        let mut table_ns = [0.0; 10];
        for (i, kind) in GateKind::ALL.iter().enumerate() {
            table_ns[i] = match kind {
                GateKind::Not => 0.008,
                GateKind::Buf => 0.010,
                GateKind::Nand => 0.010,
                GateKind::Nor => 0.012,
                GateKind::And => 0.014,
                GateKind::Or => 0.016,
                GateKind::Xor => 0.024,
                GateKind::Xnor => 0.024,
                GateKind::Mux2 => 0.016,
                GateKind::Tbuf => 0.010,
            };
        }
        DelayModel { table_ns }
    }

    /// Builds a model from an explicit `(kind, delay_ns)` table; kinds not
    /// mentioned keep their [`DelayModel::nominal`] value.
    ///
    /// # Panics
    ///
    /// Panics if any provided delay is not finite and positive.
    pub fn with_overrides(overrides: &[(GateKind, f64)]) -> Self {
        let mut model = Self::nominal();
        for &(kind, d) in overrides {
            model.set_delay_ns(kind, d);
        }
        model
    }

    /// The propagation delay of `kind` in nanoseconds.
    #[inline]
    pub fn delay_ns(&self, kind: GateKind) -> f64 {
        self.table_ns[Self::index(kind)]
    }

    /// Overrides the delay of a single gate kind.
    ///
    /// # Panics
    ///
    /// Panics if `delay_ns` is not finite and positive.
    pub fn set_delay_ns(&mut self, kind: GateKind, delay_ns: f64) {
        assert!(
            delay_ns.is_finite() && delay_ns > 0.0,
            "gate delay must be finite and positive, got {delay_ns}"
        );
        self.table_ns[Self::index(kind)] = delay_ns;
    }

    /// Returns a copy of the model with every delay multiplied by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not finite and positive.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(
            factor.is_finite() && factor > 0.0,
            "scale factor must be finite and positive, got {factor}"
        );
        let mut table_ns = self.table_ns;
        for d in &mut table_ns {
            *d *= factor;
        }
        DelayModel { table_ns }
    }

    /// Rescales the model so that a circuit measured at `measured_ns` with
    /// this model would instead exhibit `target_ns`.
    ///
    /// The repository uses this once, to pin the 16×16 array multiplier's
    /// critical path to the paper's 1.32 ns; every other delay in every
    /// figure then falls out of the shared table.
    ///
    /// # Panics
    ///
    /// Panics if either argument is not finite and positive.
    pub fn calibrated(&self, target_ns: f64, measured_ns: f64) -> Self {
        assert!(
            measured_ns.is_finite() && measured_ns > 0.0,
            "measured delay must be finite and positive, got {measured_ns}"
        );
        assert!(
            target_ns.is_finite() && target_ns > 0.0,
            "target delay must be finite and positive, got {target_ns}"
        );
        self.scaled(target_ns / measured_ns)
    }

    /// The table slot of `kind`: [`GateKind::ALL`] lists the kinds in
    /// declaration order, so the discriminant is the position.
    #[inline]
    fn index(kind: GateKind) -> usize {
        kind as usize
    }
}

impl Default for DelayModel {
    fn default() -> Self {
        Self::nominal()
    }
}

impl fmt::Display for DelayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DelayModel (ns):")?;
        for kind in GateKind::ALL {
            writeln!(f, "  {kind:>5}: {:.4}", self.delay_ns(kind))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_orderings() {
        let m = DelayModel::nominal();
        // The inverter is the fastest gate; XOR-family the slowest.
        for kind in GateKind::ALL {
            assert!(m.delay_ns(kind) >= m.delay_ns(GateKind::Not), "{kind}");
            assert!(m.delay_ns(kind) <= m.delay_ns(GateKind::Xor), "{kind}");
        }
    }

    #[test]
    fn all_delays_positive() {
        let m = DelayModel::nominal();
        for kind in GateKind::ALL {
            assert!(m.delay_ns(kind) > 0.0);
        }
    }

    #[test]
    fn overrides_apply() {
        let m = DelayModel::with_overrides(&[(GateKind::Xor, 0.1)]);
        assert_eq!(m.delay_ns(GateKind::Xor), 0.1);
        assert_eq!(
            m.delay_ns(GateKind::Not),
            DelayModel::nominal().delay_ns(GateKind::Not)
        );
    }

    #[test]
    fn scaling_is_uniform() {
        let m = DelayModel::nominal();
        let s = m.scaled(3.0);
        for kind in GateKind::ALL {
            let ratio = s.delay_ns(kind) / m.delay_ns(kind);
            assert!((ratio - 3.0).abs() < 1e-12, "{kind}: {ratio}");
        }
    }

    #[test]
    fn calibration_hits_target() {
        let m = DelayModel::nominal();
        // Pretend the AM measured 0.9 ns and we want the paper's 1.32 ns.
        let c = m.calibrated(1.32, 0.9);
        for kind in GateKind::ALL {
            let expect = m.delay_ns(kind) * 1.32 / 0.9;
            assert!((c.delay_ns(kind) - expect).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nonpositive_delay() {
        let mut m = DelayModel::nominal();
        m.set_delay_ns(GateKind::And, 0.0);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn rejects_nan_scale() {
        let _ = DelayModel::nominal().scaled(f64::NAN);
    }

    #[test]
    fn default_is_nominal() {
        assert_eq!(DelayModel::default(), DelayModel::nominal());
    }

    #[test]
    fn display_mentions_every_kind() {
        let s = DelayModel::nominal().to_string();
        for kind in GateKind::ALL {
            assert!(s.contains(&kind.to_string()), "missing {kind}");
        }
    }
}
