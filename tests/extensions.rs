//! Integration tests for the beyond-the-paper extensions.

use agemul_suite::prelude::*;

/// Correlated (low-activity) workloads: fewer bit flips per operation must
/// mean shorter sensitized delays and less switching than uniform traffic.
#[test]
fn correlated_workloads_are_calmer() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16).unwrap();
    let uniform = design
        .profile(PatternSet::uniform(16, 400, 4).pairs(), None)
        .unwrap();
    let calm = design
        .profile(PatternSet::correlated(16, 400, 0.05, 4).pairs(), None)
        .unwrap();
    assert!(calm.avg_delay_ns() < uniform.avg_delay_ns());
    assert!(calm.avg_gate_toggles() < 0.5 * uniform.avg_gate_toggles());
}

/// The sweep helper, the replay engine, and the cycle-accurate co-simulator
/// must all agree on the chosen deployment point.
#[test]
fn sweep_choice_validates_cycle_accurately() {
    let design = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 250, 6);
    let profile = design.profile(patterns.pairs(), None).unwrap();
    let periods: Vec<f64> = (5..=12).map(|i| 0.1 * f64::from(i)).collect();
    let sweep = agemul::PeriodSweep::run(&profile, &EngineConfig::adaptive(1.0, 4), &periods);
    let (best_period, best) = sweep.best_latency();

    let live = cycle_accurate_run(
        &design,
        &patterns,
        None,
        &EngineConfig::adaptive(best_period, 4),
    )
    .unwrap();
    assert_eq!(live, best);
}

/// Signed Booth through the event-driven simulator with stale state.
#[test]
fn signed_booth_event_sequences() {
    let m = MultiplierCircuit::generate_signed_booth(8).unwrap();
    let topo = m.netlist().topology().unwrap();
    let delays = DelayAssignment::uniform(m.netlist(), calibrated_delay_model().unwrap());
    let mut sim = EventSim::new(m.netlist(), &topo, delays);
    sim.settle(&m.encode_inputs(0, 0).unwrap()).unwrap();
    let to_signed = |v: u64, w: u32| -> i64 {
        let shift = 64 - w;
        ((v << shift) as i64) >> shift
    };
    let mut state = 0xABCD_EF01u64;
    for _ in 0..200 {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let a = (state >> 9) & 0xFF;
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
        let b = (state >> 9) & 0xFF;
        sim.step(&m.encode_inputs(a, b).unwrap()).unwrap();
        let got = m.product().decode_with(|net| sim.value(net)).unwrap() as u64;
        let expect = to_signed(a, 8).wrapping_mul(to_signed(b, 8));
        assert_eq!(to_signed(got, 16), expect, "{a:#x} × {b:#x}");
    }
}

/// The gate-level AHL and the behavioural AHL drive the same decisions on
/// a live workload stream, including across the aged-mode switch.
#[test]
fn gate_level_ahl_tracks_behavioural_model_through_aging() {
    let width = 16;
    let skip = 7;
    let hw = GateLevelAhl::generate(width, skip).unwrap();
    let mut sw = Ahl::adaptive(skip, AhlConfig::paper());
    let patterns = PatternSet::uniform(width, 600, 8);
    for (i, &(a, _)) in patterns.pairs().iter().enumerate() {
        let zeros = count_zeros(a, width);
        let hw_decision = hw.decide(a, sw.is_aged_mode()).unwrap();
        assert_eq!(hw_decision, sw.decide(zeros), "op {i}");
        // Error pressure in the middle third of the stream trips the
        // indicator; the hardware must follow the mode input.
        let error = (200..400).contains(&i) && hw_decision == CycleDecision::OneCycle;
        sw.record(error);
    }
    assert!(sw.is_aged_mode());
}

/// Variation, BTI, and electromigration compose into a single coherent
/// delay view the architecture still masters.
#[test]
fn triple_aging_stack_is_absorbed() {
    use agemul_aging::electromigration::{compose_factors, EmModel};

    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16).unwrap();
    let patterns = PatternSet::uniform(16, 500, 10);
    let stats = design.workload_stats(patterns.pairs()).unwrap();
    let activity = design.switching_activity(patterns.pairs(), None).unwrap();
    let bti = BtiModel::reference();

    let f_bti = aging_factors(design.circuit().netlist(), &stats, &bti, 7.0);
    let f_em = EmModel::nominal().wire_factors(design.circuit().netlist(), &activity, 7.0);
    let f_var = VariationModel::new(0.05).factors(design.circuit().netlist(), 77);
    let combined = compose_factors(&compose_factors(&f_bti, &f_em), &f_var);

    let profile = design.profile(patterns.pairs(), Some(&combined)).unwrap();
    let aged_crit = design.critical_delay_ns(Some(&combined)).unwrap();
    let fixed = run_fixed_latency(profile.len() as u64, aged_crit);
    let adaptive = run_engine(&profile, &EngineConfig::adaptive(1.05, 7));
    assert!(
        adaptive.avg_latency_ns() < fixed.avg_latency_ns(),
        "adaptive {} vs fixed {}",
        adaptive.avg_latency_ns(),
        fixed.avg_latency_ns()
    );
}
