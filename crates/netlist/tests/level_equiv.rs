//! Femtosecond bit-identity of `LevelSim` against `EventSim`.
//!
//! The levelized kernel replaces the priority-queue simulator on the
//! profiling hot path, so its contract is *exact* equivalence, not
//! approximate agreement: for every circuit, every vector sequence, every
//! delay assignment (uniform, aged factors, per-gate inflation), and every
//! fault overlay, both kernels must report identical [`PatternTiming`]
//! (femtosecond-derived delays compare with `==`), identical settled values
//! on **every** net, and identical cumulative per-gate toggle counters.

use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GateRecipe, GEN_INPUTS};
use agemul_logic::{DelayModel, GateKind};
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

/// The variadic kinds, the only ones that take more than three inputs.
const VARIADIC: [GateKind; 6] = [
    GateKind::And,
    GateKind::Or,
    GateKind::Nand,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

/// A variadic gate of arity 3–6: a kind selector and one net pick per
/// input, each reduced modulo the net count when the gate is appended.
fn arb_wide_gate() -> impl Strategy<Value = (usize, Vec<u16>)> {
    (
        0..VARIADIC.len(),
        proptest::collection::vec(any::<u16>(), 3..=6),
    )
}

/// `build_netlist(narrow, inputs)` followed by `wide` variadic gates, each
/// reading any earlier net (a narrow gate's glitchy output, an input, a
/// constant or an earlier wide gate) and marked as a primary output.
fn build_wide_netlist(narrow: &[GateRecipe], wide: &[(usize, Vec<u16>)], inputs: usize) -> Netlist {
    let mut n = build_netlist(narrow, inputs);
    for (i, (kind, picks)) in wide.iter().enumerate() {
        let ins: Vec<NetId> = picks
            .iter()
            .map(|&p| NetId::from_index(p as usize % n.net_count()))
            .collect();
        let out = n.add_gate(VARIADIC[*kind], &ins).unwrap();
        n.mark_output(out, format!("w{i}"));
    }
    n
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Uniform nominal delays: both kernels agree femtosecond-for-
    /// femtosecond across whole vector sequences.
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

    /// Single-bit walks: every step flips one input bit of the previous
    /// vector, and one vector is applied twice in a row. Each step then
    /// leaves most gates quiet (the dense sweep's skip), drives gates with
    /// exactly one switching input (the single-active merge), and the
    /// repeat switches nothing at all.
    #[test]
    fn level_sim_matches_event_sim_on_single_bit_walks(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        start in any::<u64>(),
        flips in proptest::collection::vec(0..GEN_INPUTS, 1..12),
        repeat_at in any::<u16>(),
        factor_seed in proptest::collection::vec(0.5f64..4.0, 1..50),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let mut seqs = vec![start];
        for &bit in &flips {
            let prev = seqs[seqs.len() - 1];
            seqs.push(prev ^ (1 << bit));
        }
        let at = repeat_at as usize % seqs.len();
        seqs.insert(at + 1, seqs[at]);
        let factors: Vec<f64> = (0..n.gate_count())
            .map(|g| factor_seed[g % factor_seed.len()])
            .collect();
        let delays =
            DelayAssignment::with_factors(&n, &DelayModel::nominal(), &factors).unwrap();
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

    /// Variadic gates of arity 3–6, which the conformance generator never
    /// builds: the 3-input table merge and the wide-gate merge stay locked
    /// to `EventSim` on aged delays, with and without a fault overlay.
    #[test]
    fn level_sim_matches_event_sim_on_wide_variadic_gates(
        narrow in proptest::collection::vec(arb_gate(), 1..30),
        wide in proptest::collection::vec(arb_wide_gate(), 1..12),
        seqs in proptest::collection::vec(any::<u64>(), 1..8),
        factor_seed in proptest::collection::vec(0.5f64..4.0, 1..50),
        net_pick in any::<u16>(),
        kind in arb_fault_kind(),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_wide_netlist(&narrow, &wide, inputs);
        let topo = n.topology().unwrap();
        let factors: Vec<f64> = (0..n.gate_count())
            .map(|g| factor_seed[g % factor_seed.len()])
            .collect();
        let delays =
            DelayAssignment::with_factors(&n, &DelayModel::nominal(), &factors).unwrap();
        let mut level = LevelSim::new(&n, &topo, delays.clone());
        let mut event = EventSim::new(&n, &topo, delays);
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);

        let mut overlay = FaultOverlay::new(&n);
        overlay
            .add(NetId::from_index(net_pick as usize % n.net_count()), kind, 1)
            .unwrap();
        level.set_fault_overlay(overlay.clone());
        event.set_fault_overlay(overlay);
        assert_locked_steps(&n, &mut level, &mut event, inputs, &seqs);
    }
}
