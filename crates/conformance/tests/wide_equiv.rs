//! Wide-lane bit-identity: the scalar, 64-lane, and 256-lane kernels
//! must agree on every net of every pattern over the conformance
//! generator's random netlists — clean and under lane-masked fault
//! overlays, where a block replicates the 64-bit mask per chunk.

use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GEN_INPUTS};
use agemul_logic::Logic;
use agemul_netlist::{BlockSim, FaultKind, FaultOverlay, FuncSim, NetId, Netlist};
use proptest::prelude::*;

/// Evaluates `patterns` through a `64 × W`-lane kernel (chunked at its
/// native batch width) and returns every net's value per pattern.
fn run_wide<const W: usize>(
    n: &Netlist,
    patterns: &[Vec<Logic>],
    overlay: Option<&FaultOverlay>,
) -> Vec<Vec<Logic>> {
    let topo = n.topology().unwrap();
    let mut sim = BlockSim::<W>::new(n, &topo);
    let mut out = Vec::with_capacity(patterns.len());
    for chunk in patterns.chunks(BlockSim::<W>::LANES) {
        match overlay {
            Some(o) => sim.eval_batch_with_overlay(chunk, o).unwrap(),
            None => sim.eval_batch(chunk).unwrap(),
        };
        for lane in 0..chunk.len() {
            out.push(
                (0..n.net_count())
                    .map(|idx| sim.value(NetId::from_index(idx), lane))
                    .collect(),
            );
        }
    }
    out
}

/// A random overlay: up to three faults on generator-chosen nets, each
/// with an arbitrary 64-bit lane mask.
fn overlay_from(n: &Netlist, faults: &[(u64, u8, u64)]) -> FaultOverlay {
    let mut o = FaultOverlay::new(n);
    for &(net_sel, kind_sel, lanes) in faults {
        let net = NetId::from_index((net_sel % n.net_count() as u64) as usize);
        let kind = match kind_sel % 3 {
            0 => FaultKind::StuckAt0,
            1 => FaultKind::StuckAt1,
            _ => FaultKind::Flip,
        };
        o.add(net, kind, lanes).unwrap();
    }
    o
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Clean sweeps: every wide width reproduces the scalar interpreter
    /// exactly, net for net, pattern for pattern.
    #[test]
    fn wide_clean_matches_scalar(
        recipes in proptest::collection::vec(arb_gate(), 1..24),
        workload in proptest::collection::vec(any::<u64>(), 1..40),
    ) {
        let n = build_netlist(&recipes, GEN_INPUTS);
        let topo = n.topology().unwrap();
        let patterns: Vec<Vec<Logic>> =
            workload.iter().map(|&w| input_vector(w, GEN_INPUTS)).collect();

        let mut fsim = FuncSim::new(&n, &topo);
        let scalar: Vec<Vec<Logic>> = patterns
            .iter()
            .map(|p| {
                fsim.eval(p).unwrap();
                fsim.values().to_vec()
            })
            .collect();

        prop_assert_eq!(&run_wide::<1>(&n, &patterns, None), &scalar);
        prop_assert_eq!(&run_wide::<4>(&n, &patterns, None), &scalar);
    }

    /// Overlay sweeps: a wide batch with an arbitrary lane-masked overlay
    /// equals the 64-lane kernel on the same workload — the mask
    /// replication contract (`lane i` faulted iff bit `i % 64` set) makes
    /// the 64-lane run the exact per-chunk reference.
    #[test]
    fn wide_overlay_matches_64_lane(
        recipes in proptest::collection::vec(arb_gate(), 1..24),
        workload in proptest::collection::vec(any::<u64>(), 1..40),
        faults in proptest::collection::vec(
            (any::<u64>(), any::<u8>(), any::<u64>()), 1..4),
    ) {
        let n = build_netlist(&recipes, GEN_INPUTS);
        let patterns: Vec<Vec<Logic>> =
            workload.iter().map(|&w| input_vector(w, GEN_INPUTS)).collect();
        let overlay = overlay_from(&n, &faults);

        let narrow = run_wide::<1>(&n, &patterns, Some(&overlay));
        prop_assert_eq!(&run_wide::<4>(&n, &patterns, Some(&overlay)), &narrow);

        // Lane 0 of the masked run additionally matches the scalar view.
        let topo = n.topology().unwrap();
        let mut fsim = FuncSim::new(&n, &topo);
        for (pat_idx, pattern) in patterns.iter().enumerate() {
            if pat_idx % BlockSim::<1>::LANES == 0 {
                fsim.eval_with_overlay(pattern, &overlay).unwrap();
                prop_assert_eq!(&narrow[pat_idx], &fsim.values().to_vec());
            }
        }
    }
}
