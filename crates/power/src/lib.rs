//! Switching-activity power and energy models.
//!
//! Stands in for the paper's Nanosim power analysis. The model splits
//! multiplier power the same way the paper's Figs. 26(b)/27(b) discussion
//! does:
//!
//! * **Dynamic (combinational)** — every gate-output toggle (glitches
//!   included, as recorded by the event-driven simulator) charges an
//!   effective capacitance proportional to the gate's transistor count:
//!   `E = N_toggle · c_t · V_DD²`. Bypassing wins here because frozen
//!   adders do not toggle.
//! * **Sequential** — input flip-flops, output flip-flops (plain D for the
//!   fixed-latency designs, Razor for the variable-latency ones) burn a
//!   per-clock-edge energy proportional to their transistor count.
//! * **Leakage** — subthreshold leakage proportional to total transistor
//!   count, decaying exponentially as BTI raises `V_th`
//!   (`10^(−ΔV_th / ss)`); this is why every design's power *drops* over
//!   the seven-year horizon in the paper's plots.
//!
//! Absolute numbers are technology-flavoured estimates; every figure that
//! consumes them is normalized, exactly as in the paper.
//!
//! # Example
//!
//! ```
//! use agemul_power::PowerModel;
//!
//! let pm = PowerModel::ptm_32nm_hk();
//! let fresh = pm.leakage_power_uw(10_000, 0.0);
//! let aged = pm.leakage_power_uw(10_000, 0.05); // ΔVth = 50 mV
//! assert!(aged < fresh);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agemul_logic::{AreaModel, FlopKind, Technology};
use agemul_netlist::{GateId, Netlist, SwitchingActivity};

/// Per-operation energy breakdown of a multiplier architecture.
///
/// Produced by the architecture-level accounting in the `agemul` core
/// crate; kept here so the power math lives next to its coefficients.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EnergyBreakdown {
    /// Combinational switching energy per operation, femtojoules.
    pub dynamic_fj: f64,
    /// Sequential (flip-flop clocking) energy per operation, femtojoules.
    pub sequential_fj: f64,
    /// Leakage energy per operation, femtojoules.
    pub leakage_fj: f64,
}

impl EnergyBreakdown {
    /// Total energy per operation, femtojoules.
    #[inline]
    pub fn total_fj(&self) -> f64 {
        self.dynamic_fj + self.sequential_fj + self.leakage_fj
    }

    /// Average power in microwatts given the operation latency.
    ///
    /// # Panics
    ///
    /// Panics if `latency_ns` is not finite and positive.
    pub fn average_power_uw(&self, latency_ns: f64) -> f64 {
        assert!(
            latency_ns.is_finite() && latency_ns > 0.0,
            "latency must be finite and positive, got {latency_ns}"
        );
        // fJ / ns = µW.
        self.total_fj() / latency_ns
    }

    /// Energy-delay product in fJ·ns (the paper's EDP metric up to
    /// normalization: `P · D² = E · D`).
    pub fn edp_fj_ns(&self, latency_ns: f64) -> f64 {
        assert!(
            latency_ns.is_finite() && latency_ns > 0.0,
            "latency must be finite and positive, got {latency_ns}"
        );
        self.total_fj() * latency_ns
    }
}

/// Technology-level power coefficients.
///
/// See the crate docs for the model structure. All methods are pure; the
/// architecture simulation in `agemul` assembles them into
/// [`EnergyBreakdown`]s.
#[derive(Clone, Debug, PartialEq)]
pub struct PowerModel {
    tech: Technology,
    area: AreaModel,
    /// Effective switched capacitance per transistor, femtofarads.
    cap_per_transistor_ff: f64,
    /// Zero-time leakage per transistor at the operating point, nanowatts.
    leak_per_transistor_nw: f64,
    /// Subthreshold swing, volts per decade of leakage.
    subthreshold_swing_v: f64,
    /// Clock-tree + internal energy per flip-flop transistor per clock
    /// edge, femtojoules.
    flop_energy_per_transistor_fj: f64,
}

impl PowerModel {
    /// Coefficients flavoured for the 32 nm high-k/metal-gate node at
    /// 125 °C (the paper's operating point).
    pub fn ptm_32nm_hk() -> Self {
        PowerModel {
            tech: Technology::ptm_32nm_hk(),
            area: AreaModel::standard_cell(),
            cap_per_transistor_ff: 0.05,
            leak_per_transistor_nw: 2.0,
            subthreshold_swing_v: 0.1,
            flop_energy_per_transistor_fj: 0.03,
        }
    }

    /// The technology operating point.
    #[inline]
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The area model used for capacitance/leakage proxies.
    #[inline]
    pub fn area_model(&self) -> &AreaModel {
        &self.area
    }

    /// Energy of a single output toggle of a gate with `transistors`
    /// devices, femtojoules: `c_t · N · V_DD²`.
    #[inline]
    pub fn toggle_energy_fj(&self, transistors: u32) -> f64 {
        self.cap_per_transistor_ff * f64::from(transistors) * self.tech.vdd_v * self.tech.vdd_v
    }

    /// Average combinational switching energy per applied pattern,
    /// femtojoules, from recorded workload activity.
    pub fn dynamic_energy_per_op_fj(&self, netlist: &Netlist, activity: &SwitchingActivity) -> f64 {
        netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(i, g)| {
                let t = self.area.gate_transistors(g.kind(), g.inputs().len());
                activity.gate_activity(GateId::from_index(i)) * self.toggle_energy_fj(t)
            })
            .sum()
    }

    /// Per-clock-edge energy of `count` flip-flops of the given kind,
    /// femtojoules.
    pub fn flop_energy_fj(&self, kind: FlopKind, count: usize) -> f64 {
        self.flop_energy_per_transistor_fj
            * f64::from(self.area.flop_transistors(kind))
            * count as f64
    }

    /// Leakage power of `transistors` devices after BTI has raised the
    /// threshold by `delta_vth_v` volts, microwatts.
    ///
    /// Subthreshold leakage falls one decade per
    /// `subthreshold_swing_v` of threshold increase — this is the
    /// mechanism behind the paper's downward-sloping power curves.
    ///
    /// # Panics
    ///
    /// Panics if `delta_vth_v` is negative or not finite.
    pub fn leakage_power_uw(&self, transistors: u64, delta_vth_v: f64) -> f64 {
        assert!(
            delta_vth_v.is_finite() && delta_vth_v >= 0.0,
            "threshold drift must be finite and non-negative, got {delta_vth_v}"
        );
        let fresh_nw = self.leak_per_transistor_nw * transistors as f64;
        fresh_nw * 10f64.powf(-delta_vth_v / self.subthreshold_swing_v) / 1000.0
    }

    /// Leakage energy accrued over one operation of `latency_ns`,
    /// femtojoules.
    pub fn leakage_energy_fj(&self, transistors: u64, delta_vth_v: f64, latency_ns: f64) -> f64 {
        // µW · ns = fJ.
        self.leakage_power_uw(transistors, delta_vth_v) * latency_ns
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::ptm_32nm_hk()
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::{DelayModel, GateKind, Logic};
    use agemul_netlist::{DelayAssignment, EventSim};

    use super::*;

    #[test]
    fn toggle_energy_scales_with_size() {
        let pm = PowerModel::ptm_32nm_hk();
        assert!(pm.toggle_energy_fj(8) > pm.toggle_energy_fj(2));
        assert!((pm.toggle_energy_fj(4) - 2.0 * pm.toggle_energy_fj(2)).abs() < 1e-12);
    }

    #[test]
    fn leakage_decays_with_aging() {
        let pm = PowerModel::ptm_32nm_hk();
        let fresh = pm.leakage_power_uw(1000, 0.0);
        let aged = pm.leakage_power_uw(1000, 0.05);
        assert!(aged < fresh);
        // 50 mV at 100 mV/decade → one half decade ≈ 0.316×.
        assert!((aged / fresh - 10f64.powf(-0.5)).abs() < 1e-9);
    }

    #[test]
    fn razor_flops_cost_more_than_plain() {
        let pm = PowerModel::ptm_32nm_hk();
        assert!(pm.flop_energy_fj(FlopKind::RazorFf, 32) > pm.flop_energy_fj(FlopKind::Dff, 32));
    }

    #[test]
    fn dynamic_energy_tracks_recorded_activity() {
        // One inverter toggling every pattern vs every other pattern.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(y, "y");
        let topo = n.topology().unwrap();
        let pm = PowerModel::ptm_32nm_hk();

        let run = |pats: &[Logic]| {
            let mut sim = EventSim::new(
                &n,
                &topo,
                DelayAssignment::uniform(&n, &DelayModel::nominal()),
            );
            sim.settle(&[Logic::Zero]).unwrap();
            for &p in pats {
                sim.step(&[p]).unwrap();
            }
            let mut activity = SwitchingActivity::new(&n);
            activity
                .record_toggles(sim.gate_toggle_counts(), pats.len() as u64)
                .unwrap();
            pm.dynamic_energy_per_op_fj(&n, &activity)
        };

        let busy = run(&[Logic::One, Logic::Zero, Logic::One, Logic::Zero]);
        let calm = run(&[Logic::Zero, Logic::Zero, Logic::One, Logic::One]);
        assert!(busy > calm, "busy {busy} vs calm {calm}");
    }

    #[test]
    fn breakdown_arithmetic() {
        let e = EnergyBreakdown {
            dynamic_fj: 10.0,
            sequential_fj: 5.0,
            leakage_fj: 1.0,
        };
        assert_eq!(e.total_fj(), 16.0);
        assert!((e.average_power_uw(2.0) - 8.0).abs() < 1e-12);
        assert!((e.edp_fj_ns(2.0) - 32.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "finite and positive")]
    fn power_rejects_zero_latency() {
        let e = EnergyBreakdown::default();
        let _ = e.average_power_uw(0.0);
    }

    #[test]
    fn leakage_energy_is_power_times_time() {
        let pm = PowerModel::ptm_32nm_hk();
        let e = pm.leakage_energy_fj(500, 0.0, 3.0);
        let p = pm.leakage_power_uw(500, 0.0);
        assert!((e - 3.0 * p).abs() < 1e-12);
    }
}
