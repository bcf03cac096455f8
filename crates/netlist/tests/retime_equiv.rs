//! Femtosecond bit-identity of a *retimed* `LevelSim` against a kernel
//! built from scratch for the same delay assignment.
//!
//! [`LevelSim::retime`] swaps the delay-dependent slice of the compiled
//! schedule in place and reuses every topology-invariant structure. Its
//! contract is exact equivalence with a from-scratch construction: for
//! every circuit, every chain of delay assignments (aged factors, per-gate
//! inflation hot spots), and every fault overlay, a retimed kernel settled
//! on the same vector as a fresh kernel must report identical
//! [`agemul_netlist::PatternTiming`] on every step, identical settled
//! values on **every** net, and identical cumulative toggle counters.
//! This is the property the corner-batched Monte Carlo campaign leans on:
//! the fast path (one kernel, thousands of retimes) is byte-identical to
//! the slow one (one kernel per corner).

use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GEN_INPUTS};
use agemul_logic::DelayModel;
use agemul_netlist::{DelayAssignment, FaultKind, FaultOverlay, GateId, LevelSim, NetId, Netlist};
use proptest::prelude::*;

/// Builds one delay assignment from a factor vector (cycled over the gate
/// population) plus one inflation hot spot.
fn assignment(n: &Netlist, factors: &[f64], hot_gate: u16, hot_factor: f64) -> DelayAssignment {
    let per_gate: Vec<f64> = (0..n.gate_count())
        .map(|g| factors[g % factors.len()])
        .collect();
    let mut d = DelayAssignment::with_factors(n, &DelayModel::nominal(), &per_gate).unwrap();
    if n.gate_count() > 0 {
        d.inflate(
            GateId::from_index(hot_gate as usize % n.gate_count()),
            hot_factor,
        );
    }
    d
}

/// Settles both kernels on vector 0 of `seqs`, then steps the rest in
/// lockstep asserting full-state identity: timing, every net value,
/// cumulative toggle counters.
fn assert_locked(
    n: &Netlist,
    retimed: &mut LevelSim,
    fresh: &mut LevelSim,
    inputs: usize,
    seqs: &[u64],
) {
    retimed.settle(&input_vector(seqs[0], inputs)).unwrap();
    fresh.settle(&input_vector(seqs[0], inputs)).unwrap();
    for &bits in &seqs[1..] {
        let v = input_vector(bits, inputs);
        let tr = retimed.step(&v).unwrap();
        let tf = fresh.step(&v).unwrap();
        prop_assert_eq!(tr, tf, "timing diverged on bits {:#x}", bits);
        for idx in 0..n.net_count() {
            let net = NetId::from_index(idx);
            prop_assert_eq!(
                retimed.value(net),
                fresh.value(net),
                "net {} diverged on bits {:#x}",
                idx,
                bits
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// A chain of aged + inflated delay assignments replayed through ONE
    /// kernel via `retime` matches a fresh kernel per assignment — the
    /// corner loop's exact shape. Toggle counters are compared per corner
    /// (both sides settle, which resets them).
    #[test]
    fn retimed_kernel_matches_fresh_kernel_per_assignment(
        recipes in proptest::collection::vec(arb_gate(), 1..50),
        seqs in proptest::collection::vec(any::<u64>(), 2..8),
        corner_factors in proptest::collection::vec(
            proptest::collection::vec(0.5f64..4.0, 1..20), 1..5),
        hot_gate in any::<u16>(),
        hot_factor in 1.0f64..8.0,
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut retimed = LevelSim::new(&n, &topo, nominal);
        for factors in &corner_factors {
            let delays = assignment(&n, factors, hot_gate, hot_factor);
            retimed.retime(&delays);
            let mut fresh = LevelSim::new(&n, &topo, delays);
            assert_locked(&n, &mut retimed, &mut fresh, inputs, &seqs);
            retimed.reset_toggle_counts();
            prop_assert_eq!(retimed.gate_toggle_counts(), vec![0u64; n.gate_count()]);
        }
    }

    /// Retiming with a fault overlay attached: the overlay survives the
    /// swap and coerces identically to a fresh kernel that had the same
    /// overlay installed after construction.
    #[test]
    fn retime_under_fault_overlay_matches_fresh(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        seqs in proptest::collection::vec(any::<u64>(), 2..8),
        factors in proptest::collection::vec(0.5f64..4.0, 1..20),
        hot_gate in any::<u16>(),
        fault_net in any::<u16>(),
        fault_kind in prop_oneof![
            Just(FaultKind::StuckAt0),
            Just(FaultKind::StuckAt1),
            Just(FaultKind::Flip),
        ],
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let target = NetId::from_index(fault_net as usize % n.net_count());
        let mut overlay = FaultOverlay::new(&n);
        overlay.add(target, fault_kind, 1).unwrap();

        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let delays = assignment(&n, &factors, hot_gate, 2.5);

        // Overlay installed before the retime on one side, after a
        // from-scratch build on the other.
        let mut retimed = LevelSim::new(&n, &topo, nominal);
        retimed.set_fault_overlay(overlay.clone());
        retimed.retime(&delays);
        let mut fresh = LevelSim::new(&n, &topo, delays);
        fresh.set_fault_overlay(overlay);
        assert_locked(&n, &mut retimed, &mut fresh, inputs, &seqs);
    }

    /// Round trip: retime away from nominal and back must reproduce the
    /// original kernel's behaviour exactly (the delay swap leaves no
    /// residue in any topology-invariant structure).
    #[test]
    fn retime_round_trip_is_lossless(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        seqs in proptest::collection::vec(any::<u64>(), 2..8),
        factors in proptest::collection::vec(1.0f64..4.0, 1..20),
        hot_gate in any::<u16>(),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let perturbed = assignment(&n, &factors, hot_gate, 3.0);

        let mut round_trip = LevelSim::new(&n, &topo, nominal.clone());
        round_trip.retime(&perturbed);
        round_trip.settle(&input_vector(seqs[0], inputs)).unwrap();
        round_trip.step(&input_vector(seqs[seqs.len() - 1], inputs)).unwrap();
        round_trip.retime(&nominal);

        let mut pristine = LevelSim::new(&n, &topo, nominal);
        assert_locked(&n, &mut round_trip, &mut pristine, inputs, &seqs);
    }
}
