//! Workspace-wide delay calibration against the paper's reference point.

use std::sync::OnceLock;

use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::{DelayModel, Logic};
use agemul_netlist::{static_critical_path_ns, DelayAssignment, LevelSim, Netlist, Topology};

use crate::CoreError;

/// The paper's reported critical-path delay of the 16×16 array multiplier
/// (Fig. 5): 1.32 ns. The workspace delay model is scaled so our simulated
/// AM hits exactly this number (as a static longest-path bound); every
/// other delay in every experiment then shares the same scale.
pub const PAPER_AM16_CRITICAL_NS: f64 = 1.32;

/// Measures a circuit's worst *observed* sensitized path delay.
///
/// Event-driven timing only sees sensitized paths, so the measurement
/// drives a deterministic battery of adversarial transitions — all-zeros ↔
/// all-ones, checkerboards, single-operand saturations — plus `samples`
/// LCG-generated pseudo-random pairs, and returns the worst delay seen.
///
/// This is a *lower* bound on the true critical path (finding the worst
/// sensitizable vector pair of a multiplier is hard); fixed-latency
/// deployments and the workspace calibration therefore use the
/// conservative static bound
/// ([`agemul_netlist::static_critical_path_ns`]) instead, and the test
/// suite checks `measured ≤ static` as a simulator invariant.
///
/// # Errors
///
/// Returns [`CoreError::Netlist`] if `width` does not match the
/// netlist's operand inputs (`2 × width` primary inputs).
///
/// # Example
///
/// ```
/// use agemul::measure_critical_delay;
/// use agemul_circuits::{MultiplierCircuit, MultiplierKind};
/// use agemul_logic::DelayModel;
/// use agemul_netlist::DelayAssignment;
///
/// let m = MultiplierCircuit::generate(MultiplierKind::Array, 8)?;
/// let topo = m.netlist().topology()?;
/// let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
/// let crit = measure_critical_delay(m.netlist(), &topo, &delays, 8, 256)?;
/// assert!(crit > 0.0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn measure_critical_delay(
    netlist: &Netlist,
    topology: &Topology,
    delays: &DelayAssignment,
    width: usize,
    samples: usize,
) -> Result<f64, CoreError> {
    let mask = if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    };
    let checker_a = 0xAAAA_AAAA_AAAA_AAAAu64 & mask;
    let checker_5 = 0x5555_5555_5555_5555u64 & mask;

    let mut sequence: Vec<(u64, u64)> = vec![
        (0, 0),
        (mask, mask),
        (0, 0),
        (mask, 1),
        (1, mask),
        (mask, mask),
        (0, mask),
        (mask, mask),
        (mask, 0),
        (mask, mask),
        (checker_a, mask),
        (checker_5, mask),
        (mask, checker_a),
        (mask, checker_5),
        (mask, mask),
        (mask - 1, mask),
        (mask, mask - 1),
        (mask, mask),
    ];
    // Deterministic LCG tail: worst cases sometimes hide in odd corners.
    let mut state = 0x5DEE_CE66_D1CE_4E5Du64;
    for _ in 0..samples {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let a = (state >> 8) & mask;
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let b = (state >> 8) & mask;
        sequence.push((a, b));
    }

    // The levelized kernel is femtosecond-identical to the event-driven
    // one, so swapping it in here changes nothing but the probe's cost.
    let mut sim = LevelSim::new(netlist, topology, delays.clone());
    let encode = |a: u64, b: u64| -> Vec<Logic> {
        let mut v = Vec::with_capacity(2 * width);
        for i in 0..width {
            v.push(Logic::from((a >> i) & 1 == 1));
        }
        for i in 0..width {
            v.push(Logic::from((b >> i) & 1 == 1));
        }
        v
    };
    sim.settle(&encode(0, 0))?;
    let mut worst: f64 = 0.0;
    for (a, b) in sequence {
        let t = sim.step(&encode(a, b))?;
        worst = worst.max(t.delay_ns);
    }
    Ok(worst)
}

/// The workspace's calibrated delay table.
///
/// Computed once per process: the nominal [`DelayModel`] is rescaled so the
/// 16×16 array multiplier's *static* critical path equals
/// [`PAPER_AM16_CRITICAL_NS`]. Fully deterministic.
///
/// # Errors
///
/// Returns the error of generating or timing the 16×16 reference circuit;
/// neither can fail for the built-in generator, but the failure is
/// reported rather than panicking.
pub fn calibrated_delay_model() -> Result<&'static DelayModel, CoreError> {
    static MODEL: OnceLock<Result<DelayModel, CoreError>> = OnceLock::new();
    MODEL
        .get_or_init(|| {
            let nominal = DelayModel::nominal();
            let m = MultiplierCircuit::generate(MultiplierKind::Array, 16)?;
            let delays = DelayAssignment::uniform(m.netlist(), &nominal);
            let measured = static_critical_path_ns(m.netlist(), &delays)?;
            Ok(nominal.calibrated(PAPER_AM16_CRITICAL_NS, measured))
        })
        .as_ref()
        .map_err(Clone::clone)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calibration_pins_am16_static_critical_path() {
        let model = calibrated_delay_model().unwrap();
        let m = MultiplierCircuit::generate(MultiplierKind::Array, 16).unwrap();
        let delays = DelayAssignment::uniform(m.netlist(), model);
        let crit = static_critical_path_ns(m.netlist(), &delays).unwrap();
        // Integer-femtosecond rounding leaves a sub-10⁻⁴ ns residue.
        assert!(
            (crit - PAPER_AM16_CRITICAL_NS).abs() < 1e-3,
            "calibrated critical path {crit}"
        );
    }

    #[test]
    fn dynamic_measurement_never_exceeds_static_bound() {
        let model = calibrated_delay_model().unwrap();
        for kind in MultiplierKind::ALL {
            let m = MultiplierCircuit::generate(kind, 8).unwrap();
            let topo = m.netlist().topology().unwrap();
            let delays = DelayAssignment::uniform(m.netlist(), model);
            let dynamic = measure_critical_delay(m.netlist(), &topo, &delays, 8, 512).unwrap();
            let bound = static_critical_path_ns(m.netlist(), &delays).unwrap();
            assert!(dynamic <= bound + 1e-9, "{kind:?}: {dynamic} > {bound}");
        }
    }

    #[test]
    fn adversarial_battery_beats_light_random_sampling() {
        // The battery-driven measurement should never be below a purely
        // random probe with few samples.
        let m = MultiplierCircuit::generate(MultiplierKind::Array, 8).unwrap();
        let topo = m.netlist().topology().unwrap();
        let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
        let with_battery = measure_critical_delay(m.netlist(), &topo, &delays, 8, 0).unwrap();
        assert!(with_battery > 0.0);
        let with_more = measure_critical_delay(m.netlist(), &topo, &delays, 8, 512).unwrap();
        assert!(with_more >= with_battery);
    }

    #[test]
    fn calibrated_model_is_cached() {
        let a = calibrated_delay_model().unwrap() as *const DelayModel;
        let b = calibrated_delay_model().unwrap() as *const DelayModel;
        assert_eq!(a, b);
    }
}
