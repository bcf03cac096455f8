//! The reaction–diffusion BTI model (paper Eqs. 1–2).

use agemul_logic::Technology;

/// Seconds in a (Julian) year, used to convert the experiment timescale.
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// The ac reaction–diffusion BTI model with alpha-power-law delay mapping.
///
/// Threshold drift follows the paper's Eq. (1):
///
/// ```text
/// ΔVth(t) ≈ α(S) · K_DC · tⁿ,     α(S) = Sⁿ
/// ```
///
/// where `S` is the stress signal probability, `n` the RD time exponent
/// (1/6 for H₂ diffusion), and `K_DC` the technology constant of Eq. (2):
///
/// ```text
/// K_DC = A · T_OX · √(C_OX (V_GS − V_th)) · (1 − V_DS/(α_sat(V_GS−V_th)))
///        · exp(E_OX / E₀) · exp(−E_a / kT)
/// ```
///
/// Delay degradation uses the alpha-power law: a gate's drive current goes
/// as `(V_DD − V_th)^α`, so its delay grows by
/// `((V_DD − V_th0) / (V_DD − V_th0 − ΔVth))^α`.
///
/// On 32 nm high-k/metal-gate processes PBTI (nMOS) is comparable to NBTI
/// (pMOS) — the paper's premise — so the model treats the two symmetrically:
/// the pull-up stresses while the output is high (probability `S`), the
/// pull-down while it is low (probability `1 − S`), and
/// [`delay_factor`](BtiModel::delay_factor) averages the rising and falling
/// edge degradations.
///
/// The absolute constant `A` is not meaningfully known outside a fab; use
/// [`BtiModel::calibrated`] to pin it to the paper's observable — ≈13 %
/// critical-path growth after seven years (Fig. 7).
#[derive(Clone, Debug, PartialEq)]
pub struct BtiModel {
    tech: Technology,
    a_const: f64,
}

impl BtiModel {
    /// Creates a model with an explicit Eq.-2 pre-factor `A`
    /// (volts · cm^(−1/2) · F^(−1/2) · s^(−n) scale, absorbed).
    ///
    /// # Panics
    ///
    /// Panics if `a_const` is not finite and non-negative.
    pub fn new(tech: Technology, a_const: f64) -> Self {
        assert!(
            a_const.is_finite() && a_const >= 0.0,
            "A constant must be finite and non-negative, got {a_const}"
        );
        BtiModel { tech, a_const }
    }

    /// Calibrates `A` so that a reference gate with stress probability 0.5
    /// exhibits exactly `seven_year_delay_factor` after seven years.
    ///
    /// The paper's Fig. 7 reports ≈13 % for the 16×16 bypassing
    /// multipliers; [`BtiModel::reference`] is the calibration used
    /// throughout this repository.
    ///
    /// # Panics
    ///
    /// Panics if `seven_year_delay_factor ≤ 1` or is not finite, or if it
    /// implies ΔVth beyond the overdrive voltage.
    pub fn calibrated(tech: Technology, seven_year_delay_factor: f64) -> Self {
        assert!(
            seven_year_delay_factor.is_finite() && seven_year_delay_factor > 1.0,
            "delay factor must exceed 1, got {seven_year_delay_factor}"
        );
        // Invert the alpha-power law for the target ΔVth…
        let overdrive = tech.overdrive_v();
        let dvth = overdrive * (1.0 - seven_year_delay_factor.powf(-1.0 / tech.alpha_power));
        assert!(
            dvth < overdrive,
            "unreachable target delay factor {seven_year_delay_factor}"
        );
        // …then divide out everything except A.
        let probe = BtiModel::new(tech.clone(), 1.0);
        let unit = probe.delta_vth_v(7.0, 0.5);
        BtiModel::new(tech, dvth / unit)
    }

    /// The workspace's reference model: 32 nm high-k/metal-gate
    /// constants, calibrated to a per-gate seven-year factor of 1.132.
    ///
    /// The paper's ≈13 % (Fig. 7) is a *circuit-level* observable: the
    /// static critical path grows by the duty-cycle-weighted average of
    /// the per-gate factors along it, which sits slightly below the
    /// balanced-gate factor. 1.132 was found by sweeping the gate-level
    /// target until the 16×16 column-bypassing multiplier's 7-year
    /// critical-path growth landed on the paper's 13 % (the sweep is
    /// `crates/repro/examples/probe_aging.rs`); the repro context's
    /// `seven_year_anchor_holds_at_circuit_level` test asserts the anchor
    /// still holds. The repro experiments and the serve service both age
    /// through this model, so a served profile matches the batch
    /// experiments bit for bit.
    pub fn reference() -> Self {
        BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132)
    }

    /// The underlying technology constants.
    #[inline]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The K_DC constant of Eq. (2) for this technology and `A`.
    pub fn kdc(&self) -> f64 {
        let t = &self.tech;
        let overdrive = t.overdrive_v();
        // Velocity-saturation correction (1 − V_DS / (α_sat · overdrive)):
        // with V_DS at half rail and α_sat ≈ 1.3 this is a constant < 1.
        let vds = 0.5 * t.vdd_v;
        let sat = (1.0 - vds / (t.alpha_power * overdrive)).max(0.05);
        self.a_const
            * t.tox_cm
            * (t.cox_f_per_cm2 * overdrive).sqrt()
            * sat
            * (t.eox_v_per_cm() / t.e0_v_per_cm).exp()
            * (-t.ea_ev / t.kt_ev()).exp()
    }

    /// Threshold-voltage drift after `years` under stress probability
    /// `stress` (Eq. 1 with `α(S) = Sⁿ`), in volts.
    ///
    /// # Panics
    ///
    /// Panics if `years` is negative/non-finite or `stress` outside `[0,1]`.
    pub fn delta_vth_v(&self, years: f64, stress: f64) -> f64 {
        assert!(
            years.is_finite() && years >= 0.0,
            "years must be finite and non-negative, got {years}"
        );
        assert!(
            (0.0..=1.0).contains(&stress),
            "stress probability must be in [0, 1], got {stress}"
        );
        let n = self.tech.time_exponent;
        let t_sec = years * SECONDS_PER_YEAR;
        // α(S)·tⁿ = (S·t)ⁿ — the RD model's effective-stress-time form.
        self.kdc() * (stress * t_sec).powf(n)
    }

    /// The delay growth factor of a single transistor network whose
    /// threshold drifted by `delta_vth_v` (alpha-power law), ≥ 1.
    ///
    /// Saturates (rather than diverging) once ΔVth consumes 90 % of the
    /// overdrive, so extreme extrapolations stay finite.
    pub fn delay_factor_from_dvth(&self, delta_vth_v: f64) -> f64 {
        let overdrive = self.tech.overdrive_v();
        let dv = delta_vth_v.clamp(0.0, 0.9 * overdrive);
        (overdrive / (overdrive - dv)).powf(self.tech.alpha_power)
    }

    /// The gate-delay growth factor after `years` for a gate whose output
    /// sits high with probability `p_high`.
    ///
    /// The pull-up pMOS network is NBTI-stressed while the output is high
    /// (it is the conducting side), the pull-down nMOS network is
    /// PBTI-stressed while the output is low; rising and falling edges each
    /// see one network, so the path-level factor is the mean of the two.
    ///
    /// # Panics
    ///
    /// Panics on invalid `years` or `p_high` (see
    /// [`delta_vth_v`](Self::delta_vth_v)).
    pub fn delay_factor(&self, years: f64, p_high: f64) -> f64 {
        let up = self.delay_factor_from_dvth(self.delta_vth_v(years, p_high));
        let down = self.delay_factor_from_dvth(self.delta_vth_v(years, 1.0 - p_high));
        0.5 * (up + down)
    }

    /// Replaces every output-high probability in `p_high` with its
    /// [`delay_factor`](Self::delay_factor) after `years`, evaluating the
    /// model once per distinct probability.
    ///
    /// A workload's probabilities take few values (a gate's is
    /// `weight / patterns` with the weight a multiple of 0.5, so `n`
    /// patterns give at most `2n + 1` levels), while a netlist has many
    /// gates. Each distinct bit pattern is evaluated by `delay_factor`
    /// itself and remembered in a fixed stack table, so every output is
    /// bit-identical to a per-gate call; a probability seen after the
    /// table is full is evaluated directly.
    ///
    /// # Panics
    ///
    /// Panics where `delay_factor` would, on the first invalid `years` or
    /// probability.
    pub fn delay_factors_in_place(&self, years: f64, p_high: &mut [f64]) {
        const SLOTS_LOG2: u32 = 10;
        const SLOTS: usize = 1 << SLOTS_LOG2;
        // Linear probing stays short below three-quarters occupancy.
        const MAX_LEVELS: usize = SLOTS / 4 * 3;
        // An empty slot holds the bits of −1.0. Emptiness is tested before
        // any key comparison, so a probability with these bits (or any
        // other invalid one) still reaches `delay_factor`'s assertion and
        // is never stored.
        const EMPTY: u64 = 0xbff0_0000_0000_0000;
        let mut keys = [EMPTY; SLOTS];
        let mut factors = [0.0f64; SLOTS];
        let mut levels = 0;
        for p in p_high.iter_mut() {
            let bits = p.to_bits();
            // Fibonacci hashing of the folded bits picks the first slot.
            let folded = bits ^ (bits >> 32);
            let mut slot =
                (folded.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - SLOTS_LOG2)) as usize;
            *p = loop {
                if keys[slot] == EMPTY {
                    let factor = self.delay_factor(years, *p);
                    if levels < MAX_LEVELS {
                        keys[slot] = bits;
                        factors[slot] = factor;
                        levels += 1;
                    }
                    break factor;
                }
                if keys[slot] == bits {
                    break factors[slot];
                }
                slot = (slot + 1) % SLOTS;
            };
        }
    }

    /// Threshold drift expressed as a fraction of the zero-time overdrive —
    /// handy for the power model's leakage/current scaling.
    pub fn overdrive_loss(&self, years: f64, p_high: f64) -> f64 {
        let dv = 0.5 * (self.delta_vth_v(years, p_high) + self.delta_vth_v(years, 1.0 - p_high));
        (dv / self.tech.overdrive_v()).clamp(0.0, 0.9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> BtiModel {
        BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13)
    }

    #[test]
    fn calibration_hits_target() {
        let m = model();
        assert!((m.delay_factor(7.0, 0.5) - 1.13).abs() < 1e-9);
    }

    #[test]
    fn zero_time_means_no_aging() {
        let m = model();
        assert_eq!(m.delta_vth_v(0.0, 0.5), 0.0);
        assert!((m.delay_factor(0.0, 0.7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn monotone_in_time() {
        let m = model();
        let mut last = 1.0;
        for y in 1..=10 {
            let f = m.delay_factor(y as f64, 0.5);
            assert!(f > last, "year {y}: {f} ≤ {last}");
            last = f;
        }
    }

    #[test]
    fn sublinear_time_exponent() {
        // tⁿ with n = 1/6: doubling time grows ΔVth by 2^(1/6) ≈ 1.122.
        let m = model();
        let r = m.delta_vth_v(2.0, 0.5) / m.delta_vth_v(1.0, 0.5);
        assert!((r - 2f64.powf(1.0 / 6.0)).abs() < 1e-9);
    }

    #[test]
    fn stress_extremes_balance_out() {
        // A gate stuck high ages its pull-up maximally and its pull-down
        // not at all; by symmetry the mean factor equals the stuck-low one.
        let m = model();
        let hi = m.delay_factor(7.0, 1.0);
        let lo = m.delay_factor(7.0, 0.0);
        assert!((hi - lo).abs() < 1e-12);
        // α(S) = Sⁿ is extremely flat (n = 1/6): a half-duty network ages
        // to 89 % of the always-on drift, so a *balanced* gate — both of
        // whose networks stress half the time — averages worse than a
        // stuck gate, which ages only one network.
        assert!(m.delay_factor(7.0, 0.5) > hi);
    }

    #[test]
    fn hotter_is_worse() {
        let cool = BtiModel::new(Technology::ptm_32nm_hk().at_temperature(300.0), 1.0);
        let hot = BtiModel::new(Technology::ptm_32nm_hk(), 1.0); // 398 K
        assert!(hot.kdc() > cool.kdc());
    }

    #[test]
    fn delay_factor_saturates() {
        let m = BtiModel::new(Technology::ptm_32nm_hk(), 1e6);
        let f = m.delay_factor(1000.0, 1.0);
        assert!(f.is_finite());
    }

    #[test]
    fn overdrive_loss_bounds() {
        let m = model();
        for y in [0.0, 3.0, 7.0] {
            let l = m.overdrive_loss(y, 0.5);
            assert!((0.0..=0.9).contains(&l), "year {y}: {l}");
        }
    }

    #[test]
    #[should_panic(expected = "stress probability")]
    fn rejects_bad_stress() {
        let _ = model().delta_vth_v(1.0, 1.5);
    }

    #[test]
    fn per_level_factors_keep_nearby_probabilities_apart() {
        // 1,500 probabilities that differ only in the low half of their
        // bits (more than the table holds, so probe chains collide), and
        // both signed zeros: each keeps its own factor.
        let m = model();
        let base = 0.3f64.to_bits();
        let levels: Vec<f64> = (0..1500u64)
            .map(|k| f64::from_bits(base + (k << 12)))
            .chain([0.0, -0.0, 1.0, 0.5])
            .collect();
        let expected: Vec<u64> = levels
            .iter()
            .map(|&x| m.delay_factor(7.0, x).to_bits())
            .collect();
        assert_ne!(expected[0], expected[1]);
        let mut factors = levels.repeat(3);
        m.delay_factors_in_place(7.0, &mut factors);
        for (i, f) in factors.iter().enumerate() {
            assert_eq!(f.to_bits(), expected[i % levels.len()], "entry {i}");
        }
    }

    #[test]
    #[should_panic(expected = "delay factor must exceed 1")]
    fn rejects_bad_calibration() {
        let _ = BtiModel::calibrated(Technology::ptm_32nm_hk(), 0.9);
    }

    #[test]
    fn seven_year_drift_is_plausible_millivolts() {
        // The calibrated ΔVth at seven years should be tens of millivolts —
        // the range NBTI literature reports for 32 nm-class nodes.
        let m = model();
        let dv = m.delta_vth_v(7.0, 0.5);
        assert!((0.01..=0.12).contains(&dv), "ΔVth = {dv} V");
    }
}
