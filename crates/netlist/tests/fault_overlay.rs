//! Property tests for the fault-injection overlay.
//!
//! Two guarantees back the campaign subsystem:
//!
//! 1. **Zero-fault identity** — an *empty* overlay run is bit-identical to
//!    the fault-free simulators on every net (and every lane, for
//!    `BatchSim`). A campaign with no injected faults therefore reproduces
//!    the plain simulation exactly.
//! 2. **Lane/scalar agreement** — a fault masked to lane `i` of a batch
//!    produces, on that lane, exactly what the scalar `FuncSim` produces
//!    with the same fault on its (lane-0) view, while every other lane
//!    stays fault-free.

use agemul_logic::{GateKind, Logic};
use agemul_netlist::{BatchSim, FaultKind, FaultOverlay, FuncSim, NetId, Netlist};
use proptest::prelude::*;

/// Recipe for one random gate (same scheme as `batch_equiv.rs`).
#[derive(Clone, Debug)]
struct GateRecipe {
    kind_sel: u8,
    picks: [u16; 3],
}

fn arb_gate() -> impl Strategy<Value = GateRecipe> {
    (any::<u8>(), any::<u16>(), any::<u16>(), any::<u16>()).prop_map(|(k, a, b, c)| GateRecipe {
        kind_sel: k,
        picks: [a, b, c],
    })
}

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop_oneof![
        Just(Logic::Zero),
        Just(Logic::One),
        Just(Logic::Z),
        Just(Logic::X),
    ]
}

fn arb_fault_kind() -> impl Strategy<Value = FaultKind> {
    prop_oneof![
        Just(FaultKind::StuckAt0),
        Just(FaultKind::StuckAt1),
        Just(FaultKind::Flip),
    ]
}

fn build(recipes: &[GateRecipe], inputs: usize) -> Netlist {
    let mut n = Netlist::new();
    let mut nets: Vec<NetId> = (0..inputs).map(|i| n.add_input(format!("i{i}"))).collect();
    nets.push(n.const_zero());
    nets.push(n.const_one());
    for r in recipes {
        let pick = |p: u16| nets[p as usize % nets.len()];
        let kind = match r.kind_sel % 10 {
            0 => GateKind::Buf,
            1 => GateKind::Not,
            2 => GateKind::And,
            3 => GateKind::Or,
            4 => GateKind::Nand,
            5 => GateKind::Nor,
            6 => GateKind::Xor,
            7 => GateKind::Xnor,
            8 => GateKind::Mux2,
            _ => GateKind::Tbuf,
        };
        let ins: Vec<NetId> = match kind.fixed_arity() {
            Some(1) => vec![pick(r.picks[0])],
            Some(3) => vec![pick(r.picks[0]), pick(r.picks[1]), pick(r.picks[2])],
            _ => vec![pick(r.picks[0]), pick(r.picks[1])],
        };
        let out = n.add_gate(kind, &ins).expect("recipe inputs are valid");
        nets.push(out);
    }
    for (i, &o) in nets.iter().rev().take(4).enumerate() {
        n.mark_output(o, format!("o{i}"));
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// An empty overlay is bit-identical to the fault-free simulators on
    /// every net and every lane — the zero-fault campaign guarantee.
    #[test]
    fn empty_overlay_is_bit_identical(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        patterns in proptest::collection::vec(
            proptest::collection::vec(arb_logic(), 6),
            1..65,
        ),
    ) {
        let patterns = &patterns[..patterns.len().min(64)];
        let n = build(&recipes, 6);
        let topo = n.topology().unwrap();
        let overlay = FaultOverlay::new(&n);
        prop_assert!(overlay.is_empty());

        let mut plain_batch = BatchSim::new(&n, &topo);
        let mut fault_batch = BatchSim::new(&n, &topo);
        plain_batch.eval_batch(patterns).unwrap();
        fault_batch.eval_batch_with_overlay(patterns, &overlay).unwrap();
        prop_assert_eq!(plain_batch.words(), fault_batch.words());

        let mut plain = FuncSim::new(&n, &topo);
        let mut faulted = FuncSim::new(&n, &topo);
        for p in patterns {
            plain.eval(p).unwrap();
            faulted.eval_with_overlay(p, &overlay).unwrap();
            prop_assert_eq!(plain.values(), faulted.values());
        }
    }

    /// A fault masked to one batch lane reproduces, on that lane, the
    /// scalar simulator's view of the same fault — and leaves every other
    /// lane bit-identical to the fault-free run.
    #[test]
    fn lane_masked_fault_matches_scalar_and_isolates_lanes(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        patterns in proptest::collection::vec(
            proptest::collection::vec(arb_logic(), 6),
            1..33,
        ),
        net_pick in any::<u16>(),
        kind in arb_fault_kind(),
        lane_pick in any::<u8>(),
    ) {
        let n = build(&recipes, 6);
        let topo = n.topology().unwrap();
        let net = NetId::from_index(net_pick as usize % n.net_count());
        let lane = lane_pick as usize % patterns.len();

        // Batch overlay: the fault on `lane` only.
        let mut batch_overlay = FaultOverlay::new(&n);
        batch_overlay.add(net, kind, 1u64 << lane).unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        batch.eval_batch_with_overlay(&patterns, &batch_overlay).unwrap();

        // Scalar overlay: the same fault on the lane-0 view.
        let mut scalar_overlay = FaultOverlay::new(&n);
        scalar_overlay.add(net, kind, 1).unwrap();
        let mut scalar = FuncSim::new(&n, &topo);
        let mut clean = FuncSim::new(&n, &topo);

        for (i, p) in patterns.iter().enumerate() {
            if i == lane {
                scalar.eval_with_overlay(p, &scalar_overlay).unwrap();
                for (idx, &expected) in scalar.values().iter().enumerate() {
                    prop_assert_eq!(
                        batch.words()[idx].get(i),
                        expected,
                        "faulted lane: net {} lane {}", idx, i
                    );
                }
            } else {
                clean.eval(p).unwrap();
                for (idx, &expected) in clean.values().iter().enumerate() {
                    prop_assert_eq!(
                        batch.words()[idx].get(i),
                        expected,
                        "clean lane: net {} lane {}", idx, i
                    );
                }
            }
        }
    }
}
