//! Integration: BTI aging applied to real multiplier circuits.

use agemul_aging::electromigration::{compose_factors, EmModel};
use agemul_aging::{aging_factors, stress_probabilities, worst_gate_factor, BtiModel};
use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::{DelayModel, Logic, Technology};
use agemul_netlist::{static_critical_path_ns, DelayAssignment, SwitchingActivity, WorkloadStats};

fn workload_stats(m: &MultiplierCircuit, count: usize, seed: u64) -> WorkloadStats {
    let topo = m.netlist().topology().unwrap();
    let mut stats = WorkloadStats::new(m.netlist());
    let mut state = seed;
    let width = m.width();
    let mask = (1u64 << width) - 1;
    let patterns: Vec<Vec<Logic>> = (0..count)
        .map(|_| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = (state >> 7) & mask;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = (state >> 7) & mask;
            m.encode_inputs(a, b).unwrap()
        })
        .collect();
    stats
        .observe_patterns(m.netlist(), &topo, patterns.iter())
        .unwrap();
    stats
}

#[test]
fn stress_probabilities_are_physical() {
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 8).unwrap();
    let stats = workload_stats(&m, 400, 3);
    let probs = stress_probabilities(m.netlist(), &stats);
    assert_eq!(probs.len(), m.netlist().gate_count());
    assert!(probs.iter().all(|&p| (0.0..=1.0).contains(&p)));
    // A random workload must produce diverse duty cycles, not a constant.
    let lo = probs.iter().copied().fold(1.0f64, f64::min);
    let hi = probs.iter().copied().fold(0.0f64, f64::max);
    assert!(hi - lo > 0.3, "stress spread {lo}..{hi} too tight");
}

#[test]
fn static_critical_path_ages_within_gate_bounds() {
    let m = MultiplierCircuit::generate(MultiplierKind::RowBypass, 8).unwrap();
    let stats = workload_stats(&m, 300, 5);
    let model = BtiModel::reference();
    let factors = aging_factors(m.netlist(), &stats, &model, 7.0);

    let delays = DelayModel::nominal();
    let fresh =
        static_critical_path_ns(m.netlist(), &DelayAssignment::uniform(m.netlist(), &delays))
            .unwrap();
    let aged = static_critical_path_ns(
        m.netlist(),
        &DelayAssignment::with_factors(m.netlist(), &delays, &factors).unwrap(),
    )
    .unwrap();

    let growth = aged / fresh;
    let bound = worst_gate_factor(&factors);
    assert!(growth > 1.0, "no aging observed");
    assert!(
        growth <= bound + 1e-9,
        "path growth {growth} exceeds worst gate factor {bound}"
    );
}

#[test]
fn aging_is_monotone_across_years_on_circuit() {
    let m = MultiplierCircuit::generate(MultiplierKind::Array, 8).unwrap();
    let stats = workload_stats(&m, 200, 9);
    let model = BtiModel::reference();
    let delays = DelayModel::nominal();
    let mut last = 0.0;
    for year in 0..=10 {
        let factors = aging_factors(m.netlist(), &stats, &model, f64::from(year));
        let crit = static_critical_path_ns(
            m.netlist(),
            &DelayAssignment::with_factors(m.netlist(), &delays, &factors).unwrap(),
        )
        .unwrap();
        assert!(crit >= last, "year {year}: {crit} < {last}");
        last = crit;
    }
}

#[test]
fn electromigration_composes_with_bti() {
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 8).unwrap();
    let topo = m.netlist().topology().unwrap();
    // Toggle data for the EM model's activity input.
    let stats = workload_stats(&m, 200, 11);
    let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
    let mut sim = agemul_netlist::EventSim::new(m.netlist(), &topo, delays);
    sim.settle(&m.encode_inputs(0, 0).unwrap()).unwrap();
    let mut state = 77u64;
    for _ in 0..200 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (state >> 9) & 0xFF;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b = (state >> 9) & 0xFF;
        sim.step(&m.encode_inputs(a, b).unwrap()).unwrap();
    }
    let mut activity = SwitchingActivity::new(m.netlist());
    activity
        .record_toggles(sim.gate_toggle_counts(), 200)
        .unwrap();

    let bti = BtiModel::reference();
    let bti_factors = aging_factors(m.netlist(), &stats, &bti, 7.0);
    let em_factors = EmModel::nominal().wire_factors(m.netlist(), &activity, 7.0);
    let combined = compose_factors(&bti_factors, &em_factors);

    // EM only adds on top of BTI, and only where wires actually switch.
    for ((&c, &b), &e) in combined.iter().zip(&bti_factors).zip(&em_factors) {
        assert!(c >= b - 1e-12);
        assert!((c - b * e).abs() < 1e-12);
    }
    let em_active = em_factors.iter().filter(|&&e| e > 1.0).count();
    assert!(em_active > 0, "no wire aged under a switching workload");
}

#[test]
fn hotter_operation_ages_circuits_faster() {
    let m = MultiplierCircuit::generate(MultiplierKind::Array, 6).unwrap();
    let stats = workload_stats(&m, 150, 13);
    let delays = DelayModel::nominal();
    let crit_at = |temp_k: f64| {
        let tech = Technology::ptm_32nm_hk().at_temperature(temp_k);
        // Same A constant → temperature effect comes straight from Eq. 2.
        let model = BtiModel::new(tech, 5.0e8);
        let factors = aging_factors(m.netlist(), &stats, &model, 7.0);
        static_critical_path_ns(
            m.netlist(),
            &DelayAssignment::with_factors(m.netlist(), &delays, &factors).unwrap(),
        )
        .unwrap()
    };
    assert!(crit_at(398.15) > crit_at(328.15));
}
