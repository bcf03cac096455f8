//! Femtosecond bit-identity of `LevelSim` against `EventSim`.
//!
//! The levelized kernel replaces the priority-queue simulator on the
//! profiling hot path, so its contract is *exact* equivalence, not
//! approximate agreement: for every circuit, every vector sequence, every
//! delay assignment (uniform, aged factors, per-gate inflation), and every
//! fault overlay, both kernels must report identical [`PatternTiming`]
//! (femtosecond-derived delays compare with `==`), identical settled values
//! on **every** net, and identical cumulative per-gate toggle counters.

use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GEN_INPUTS};
use agemul_logic::DelayModel;
use agemul_netlist::{
    DelayAssignment, EventSim, FaultKind, FaultOverlay, GateId, LevelSim, NetId, Netlist,
};
use proptest::prelude::*;
fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::StuckAt0),
        Just(FaultKind::StuckAt1),
        Just(FaultKind::Flip),
    ]
}

/// Steps both kernels through `seqs` and asserts full-state identity after
/// every step: timing, every net value, cumulative toggle counters.
fn assert_locked_steps(
    n: &Netlist,
    level: &mut LevelSim,
    event: &mut EventSim,
    inputs: usize,
    seqs: &[u64],
) {
    for &bits in seqs {
        let v = input_vector(bits, inputs);
        let tl = level.step(&v).unwrap();
        let te = event.step(&v).unwrap();
        prop_assert_eq!(tl, te, "timing diverged on bits {:#x}", bits);
        for idx in 0..n.net_count() {
            let net = NetId::from_index(idx);
            prop_assert_eq!(
                level.value(net),
                event.value(net),
                "net {} diverged on bits {:#x}",
                idx,
                bits
            );
        }
        prop_assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
    }
}

/// Steps both kernels through `seqs` and checks `LevelSim`'s touched set
/// against an oracle built from `EventSim`: gate `g` is touched iff one of
/// its input nets carried an event this step — a primary input whose
/// value changed, or a net whose driving gate's toggle counter grew.
fn assert_touched_oracle(
    n: &Netlist,
    level: &mut LevelSim,
    event: &mut EventSim,
    inputs: usize,
    seqs: &[u64],
) {
    let gates = n.gate_count();
    let mut driver = vec![None; n.net_count()];
    for (g, gate) in n.gates().iter().enumerate() {
        driver[gate.output().index()] = Some(g);
    }
    for &bits in seqs {
        let v = input_vector(bits, inputs);
        let pis_before: Vec<_> = n.inputs().iter().map(|&i| event.value(i)).collect();
        let toggles_before = event.gate_toggle_counts().to_vec();
        level.step(&v).unwrap();
        event.step(&v).unwrap();

        let mut carried = vec![false; n.net_count()];
        for (&pi, before) in n.inputs().iter().zip(pis_before) {
            carried[pi.index()] = event.value(pi) != before;
        }
        for (net, d) in driver.iter().enumerate() {
            if let Some(g) = *d {
                carried[net] = event.gate_toggle_counts()[g] > toggles_before[g];
            }
        }

        let touched = level.touched_gates();
        prop_assert_eq!(touched.len(), gates.div_ceil(64));
        for (g, gate) in n.gates().iter().enumerate() {
            let expect = gate.inputs().iter().any(|i| carried[i.index()]);
            let got = (touched[g / 64] >> (g % 64)) & 1 == 1;
            prop_assert_eq!(got, expect, "gate {} on bits {:#x}", g, bits);
        }
        if !gates.is_multiple_of(64) {
            let spare = touched[gates / 64] >> (gates % 64);
            prop_assert_eq!(spare, 0, "bits past gate {} set on {:#x}", gates, bits);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The touched bitset is exactly the set of gates with an input event,
    /// on netlists whose gate count leaves the last bitset word partial.
    #[test]
    fn touched_gates_match_event_oracle(
        recipes in proptest::collection::vec(arb_gate(), 1..200),
        seqs in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        // One gate per recipe: drop one where the count is a multiple of 64.
        let keep = recipes.len() - usize::from(recipes.len().is_multiple_of(64));
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes[..keep], inputs);
        prop_assert!(!n.gate_count().is_multiple_of(64));
        let topo = n.topology().unwrap();
        let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        assert_touched_oracle(&n, &mut level, &mut event, inputs, &seqs);
    }

    /// Uniform nominal delays: both kernels agree femtosecond-for-
    /// femtosecond across whole vector sequences (the incremental cone
    /// path is exercised by every partial bit change in the sequence).
    #[test]
    fn level_sim_matches_event_sim_on_random_circuits(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        seqs in proptest::collection::vec(any::<u64>(), 1..10),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);
    }

    /// Aged per-gate factors plus a localized inflation hot spot — the
    /// delay-fault shapes the campaigns replay — keep the kernels locked.
    #[test]
    fn level_sim_matches_event_sim_under_aged_and_inflated_delays(
        recipes in proptest::collection::vec(arb_gate(), 1..50),
        seqs in proptest::collection::vec(any::<u64>(), 1..8),
        factor_seed in proptest::collection::vec(0.5f64..4.0, 1..50),
        hot_gate in any::<u16>(),
        hot_factor in 1.0f64..20.0,
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let factors: Vec<f64> = (0..n.gate_count())
            .map(|g| factor_seed[g % factor_seed.len()])
            .collect();
        let mut delays =
            DelayAssignment::with_factors(&n, &DelayModel::nominal(), &factors).unwrap();
        delays.inflate(GateId::from_index(hot_gate as usize % n.gate_count()), hot_factor);
        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);
    }

    /// Fault overlays (stuck-at / flip on a random net) coerce both kernels
    /// identically, including the re-initialization on attach and detach.
    #[test]
    fn level_sim_matches_event_sim_under_fault_overlay(
        recipes in proptest::collection::vec(arb_gate(), 1..50),
        seqs in proptest::collection::vec(any::<u64>(), 1..8),
        net_pick in any::<u16>(),
        kind in arb_fault_kind(),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let net = NetId::from_index(net_pick as usize % n.net_count());
        let mut overlay = FaultOverlay::new(&n);
        overlay.add(net, kind, 1).unwrap();

        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        level.set_fault_overlay(overlay.clone());
        event.set_fault_overlay(overlay);
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);

        // Detach: the faulted state must re-initialize identically too.
        level.clear_fault_overlay();
        event.clear_fault_overlay();
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);
    }
}
