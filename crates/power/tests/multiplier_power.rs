//! Integration: the power model over real multiplier workloads.

use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::{DelayModel, FlopKind};
use agemul_netlist::{DelayAssignment, EventSim, SwitchingActivity};
use agemul_power::{EnergyBreakdown, PowerModel};

fn recorded_activity(m: &MultiplierCircuit, count: usize, seed: u64) -> SwitchingActivity {
    let topo = m.netlist().topology().unwrap();
    let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
    let mut sim = EventSim::new(m.netlist(), &topo, delays);
    sim.settle(&m.encode_inputs(0, 0).unwrap()).unwrap();
    let width = m.width();
    let mask = (1u64 << width) - 1;
    let mut state = seed;
    for _ in 0..count {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (state >> 9) & mask;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b = (state >> 9) & mask;
        sim.step(&m.encode_inputs(a, b).unwrap()).unwrap();
    }
    let mut activity = SwitchingActivity::new(m.netlist());
    activity
        .record_toggles(sim.gate_toggle_counts(), count as u64)
        .unwrap();
    activity
}

#[test]
fn dynamic_energy_scales_with_operand_width() {
    let pm = PowerModel::ptm_32nm_hk();
    let energy = |width: usize| {
        let m = MultiplierCircuit::generate(MultiplierKind::Array, width).unwrap();
        let activity = recorded_activity(&m, 150, 3);
        pm.dynamic_energy_per_op_fj(m.netlist(), &activity)
    };
    let e8 = energy(8);
    let e16 = energy(16);
    // An n² array should burn roughly 4× the switching energy at 2× width.
    assert!(e16 > 2.5 * e8, "e8 {e8} vs e16 {e16}");
}

#[test]
fn idle_workload_burns_no_dynamic_energy() {
    let pm = PowerModel::ptm_32nm_hk();
    let m = MultiplierCircuit::generate(MultiplierKind::Array, 8).unwrap();
    let topo = m.netlist().topology().unwrap();
    let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
    let mut sim = EventSim::new(m.netlist(), &topo, delays);
    sim.settle(&m.encode_inputs(123, 45).unwrap()).unwrap();
    for _ in 0..50 {
        sim.step(&m.encode_inputs(123, 45).unwrap()).unwrap();
    }
    let mut activity = SwitchingActivity::new(m.netlist());
    activity
        .record_toggles(sim.gate_toggle_counts(), 50)
        .unwrap();
    assert_eq!(pm.dynamic_energy_per_op_fj(m.netlist(), &activity), 0.0);
}

#[test]
fn leakage_tracks_area_and_aging_across_designs() {
    let pm = PowerModel::ptm_32nm_hk();
    let area = pm.area_model().clone();
    let transistors = |kind| {
        MultiplierCircuit::generate(kind, 16)
            .unwrap()
            .netlist()
            .transistor_count(&area)
    };
    let am = transistors(MultiplierKind::Array);
    let rb = transistors(MultiplierKind::RowBypass);
    assert!(rb > am);
    // Bigger circuit leaks more; aging reduces both by the same ratio.
    let fresh_ratio = pm.leakage_power_uw(rb, 0.0) / pm.leakage_power_uw(am, 0.0);
    let aged_ratio = pm.leakage_power_uw(rb, 0.04) / pm.leakage_power_uw(am, 0.04);
    assert!((fresh_ratio - aged_ratio).abs() < 1e-9);
    assert!(fresh_ratio > 1.0);
}

#[test]
fn breakdown_composes_into_sane_power() {
    let pm = PowerModel::ptm_32nm_hk();
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 16).unwrap();
    let activity = recorded_activity(&m, 200, 7);
    let e = EnergyBreakdown {
        dynamic_fj: pm.dynamic_energy_per_op_fj(m.netlist(), &activity),
        sequential_fj: pm.flop_energy_fj(FlopKind::Dff, 32)
            + pm.flop_energy_fj(FlopKind::RazorFf, 32),
        leakage_fj: pm.leakage_energy_fj(m.netlist().transistor_count(pm.area_model()), 0.0, 1.2),
    };
    let power_uw = e.average_power_uw(1.2);
    // Sixteen-bit multiplier at ~GHz rates: order 100 µW–10 mW. Sanity
    // band, not a calibration claim.
    assert!(
        (50.0..20_000.0).contains(&power_uw),
        "implausible power {power_uw} µW"
    );
    assert!(e.edp_fj_ns(1.2) > 0.0);
}

#[test]
fn bypassing_reduces_per_gate_switching_under_sparse_selects() {
    // With a sparse multiplicand most CB diagonals freeze: per-gate
    // activity must drop well below the dense case.
    let pm = PowerModel::ptm_32nm_hk();
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 16).unwrap();
    let topo = m.netlist().topology().unwrap();

    let energy_for = |a_mask: u64, seed: u64| {
        let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
        let mut sim = EventSim::new(m.netlist(), &topo, delays);
        sim.settle(&m.encode_inputs(0, 0).unwrap()).unwrap();
        let mut state = seed;
        for _ in 0..150 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 9) & a_mask;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 9) & 0xFFFF;
            sim.step(&m.encode_inputs(a, b).unwrap()).unwrap();
        }
        let mut activity = SwitchingActivity::new(m.netlist());
        activity
            .record_toggles(sim.gate_toggle_counts(), 150)
            .unwrap();
        pm.dynamic_energy_per_op_fj(m.netlist(), &activity)
    };

    let sparse = energy_for(0x0003, 21); // multiplicand uses 2 bits
    let dense = energy_for(0xFFFF, 21);
    assert!(
        sparse < 0.5 * dense,
        "sparse {sparse} fJ vs dense {dense} fJ"
    );
}
