//! Long-run stress: thousands of back-to-back operations through the
//! event-driven simulator with continuous invariant checking.

use agemul_suite::prelude::*;

/// 2 000 consecutive random multiplications on the 8×8 column-bypassing
/// multiplier: every product correct, every sensitized delay inside the
/// static bound, toggle accounting consistent.
#[test]
fn long_event_sequence_holds_all_invariants() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let bound = design.critical_delay_ns(None).unwrap();
    let netlist = design.circuit().netlist();
    let delays = DelayAssignment::uniform(netlist, calibrated_delay_model().unwrap());
    let mut sim = EventSim::new(netlist, design.topology(), delays);
    sim.settle(&design.circuit().encode_inputs(0, 0).unwrap())
        .unwrap();

    let patterns = PatternSet::uniform(8, 2_000, 0x57AE55);
    let mut reported_toggles = 0u64;
    for (i, &(a, b)) in patterns.pairs().iter().enumerate() {
        let t = sim
            .step(&design.circuit().encode_inputs(a, b).unwrap())
            .unwrap();
        reported_toggles += t.gate_toggles;
        assert!(
            t.delay_ns <= bound + 1e-9,
            "op {i}: {} > {bound}",
            t.delay_ns
        );
        let got = design.circuit().product().decode_with(|net| sim.value(net));
        assert_eq!(got, Some(u128::from(a) * u128::from(b)), "op {i}: {a}×{b}");
    }
    let counted: u64 = sim.gate_toggle_counts().iter().sum();
    assert_eq!(reported_toggles, counted);
}

/// The same stream interleaved with re-executions (repeat patterns) and
/// correlated bursts: the simulator state never corrupts.
#[test]
fn mixed_replay_and_burst_traffic() {
    let design = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let netlist = design.circuit().netlist();
    let delays = DelayAssignment::uniform(netlist, calibrated_delay_model().unwrap());
    let mut sim = EventSim::new(netlist, design.topology(), delays);
    sim.settle(&design.circuit().encode_inputs(0, 0).unwrap())
        .unwrap();

    let bursts = PatternSet::correlated(8, 500, 0.1, 0xB00);
    for &(a, b) in bursts.pairs() {
        sim.step(&design.circuit().encode_inputs(a, b).unwrap())
            .unwrap();
        // Razor-style re-execution: the repeat must be quiescent.
        let redo = sim
            .step(&design.circuit().encode_inputs(a, b).unwrap())
            .unwrap();
        assert_eq!(redo.events, 0, "{a}×{b} re-execution not quiescent");
        let got = design.circuit().product().decode_with(|net| sim.value(net));
        assert_eq!(got, Some(u128::from(a) * u128::from(b)));
    }
}
