//! Architecture-level energy accounting (paper Figs. 26/27).

use agemul_netlist::SwitchingActivity;
use agemul_power::{EnergyBreakdown, PowerModel};

use crate::{AreaReport, MultiplierDesign};

/// Inputs to the per-operation energy computation.
///
/// Mirrors the paper's accounting: "the power of AM, FLCB, and FLRB
/// includes the power of flip-flops at the input and output, and the power
/// of A-VLCB and A-VLRB includes the power of flip-flops at the input and
/// the power of Razor flip-flops at the output" — the [`AreaReport`]
/// carries exactly that flip-flop population.
#[derive(Clone, Copy, Debug)]
pub struct EnergyInputs<'a> {
    /// Technology power coefficients.
    pub power: &'a PowerModel,
    /// Workload switching activity (drives dynamic energy).
    pub activity: &'a SwitchingActivity,
    /// Architecture area/flip-flop population.
    pub area: &'a AreaReport,
    /// Mean clock cycles per operation (1 for fixed latency).
    pub avg_cycles_per_op: f64,
    /// Mean latency per operation, nanoseconds (sets the leakage window).
    pub avg_latency_ns: f64,
    /// BTI threshold drift at the evaluation epoch, volts (0 at year 0);
    /// shrinks leakage as the circuit ages.
    pub delta_vth_v: f64,
}

/// Computes the per-operation energy breakdown of a deployed multiplier.
///
/// * dynamic: recorded gate toggles × per-gate switched capacitance;
/// * sequential: input + output flip-flops clocked `avg_cycles_per_op`
///   times per operation (clock gating means a two-cycle operation clocks
///   the input flops once, but the output flops every cycle — we charge
///   the architected cycle count to both, a ½-LSB simplification);
/// * leakage: the whole transistor population leaking for the operation's
///   latency, derated by the BTI threshold drift.
///
/// # Panics
///
/// Panics if `avg_cycles_per_op` or `avg_latency_ns` is not finite and
/// positive.
///
/// # Example
///
/// ```no_run
/// use agemul::{area_report, energy_report, Architecture, EnergyInputs, MultiplierDesign, PatternSet};
/// use agemul_circuits::MultiplierKind;
/// use agemul_power::PowerModel;
///
/// let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
/// let patterns = PatternSet::uniform(16, 1000, 11);
/// let activity = d.switching_activity(patterns.pairs(), None)?;
/// let area = area_report(&d, Architecture::AdaptiveVariableLatency, 7)?;
/// let power = PowerModel::ptm_32nm_hk();
///
/// let e = energy_report(
///     &d,
///     EnergyInputs {
///         power: &power,
///         activity: &activity,
///         area: &area,
///         avg_cycles_per_op: 1.3,
///         avg_latency_ns: 1.17,
///         delta_vth_v: 0.0,
///     },
/// );
/// assert!(e.total_fj() > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn energy_report(design: &MultiplierDesign, inputs: EnergyInputs<'_>) -> EnergyBreakdown {
    assert!(
        inputs.avg_cycles_per_op.is_finite() && inputs.avg_cycles_per_op > 0.0,
        "cycles per op must be finite and positive, got {}",
        inputs.avg_cycles_per_op
    );
    let dynamic_fj = inputs
        .power
        .dynamic_energy_per_op_fj(design.circuit().netlist(), inputs.activity);

    let per_edge = inputs
        .power
        .flop_energy_fj(agemul_logic::FlopKind::Dff, inputs.area.input_flop_count)
        + inputs
            .power
            .flop_energy_fj(inputs.area.output_flop_kind, inputs.area.output_flop_count);
    let sequential_fj = per_edge * inputs.avg_cycles_per_op;

    let leakage_fj = inputs.power.leakage_energy_fj(
        inputs.area.total_transistors(),
        inputs.delta_vth_v,
        inputs.avg_latency_ns,
    );

    EnergyBreakdown {
        dynamic_fj,
        sequential_fj,
        leakage_fj,
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use crate::{area_report, Architecture, PatternSet};

    use super::*;

    fn fixture() -> (MultiplierDesign, SwitchingActivity) {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 60, 5);
        let activity = d.switching_activity(patterns.pairs(), None).unwrap();
        (d, activity)
    }

    #[test]
    fn breakdown_components_positive() {
        let (d, activity) = fixture();
        let area = area_report(&d, Architecture::AdaptiveVariableLatency, 4).unwrap();
        let power = PowerModel::ptm_32nm_hk();
        let e = energy_report(
            &d,
            EnergyInputs {
                power: &power,
                activity: &activity,
                area: &area,
                avg_cycles_per_op: 1.2,
                avg_latency_ns: 1.0,
                delta_vth_v: 0.0,
            },
        );
        assert!(e.dynamic_fj > 0.0);
        assert!(e.sequential_fj > 0.0);
        assert!(e.leakage_fj > 0.0);
    }

    #[test]
    fn aging_reduces_energy() {
        let (d, activity) = fixture();
        let area = area_report(&d, Architecture::AdaptiveVariableLatency, 4).unwrap();
        let power = PowerModel::ptm_32nm_hk();
        let base = EnergyInputs {
            power: &power,
            activity: &activity,
            area: &area,
            avg_cycles_per_op: 1.2,
            avg_latency_ns: 1.0,
            delta_vth_v: 0.0,
        };
        let fresh = energy_report(&d, base);
        let aged = energy_report(
            &d,
            EnergyInputs {
                delta_vth_v: 0.05,
                ..base
            },
        );
        assert!(aged.total_fj() < fresh.total_fj());
        assert_eq!(aged.dynamic_fj, fresh.dynamic_fj); // only leakage shrinks
    }

    #[test]
    fn razor_outputs_cost_more_than_plain() {
        let (d, activity) = fixture();
        let power = PowerModel::ptm_32nm_hk();
        let fl_area = area_report(&d, Architecture::FixedLatency, 4).unwrap();
        let avl_area = area_report(&d, Architecture::AdaptiveVariableLatency, 4).unwrap();
        let mk = |area| {
            energy_report(
                &d,
                EnergyInputs {
                    power: &power,
                    activity: &activity,
                    area,
                    avg_cycles_per_op: 1.0,
                    avg_latency_ns: 1.0,
                    delta_vth_v: 0.0,
                },
            )
        };
        assert!(mk(&avl_area).sequential_fj > mk(&fl_area).sequential_fj);
    }
}
