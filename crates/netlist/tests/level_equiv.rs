//! Femtosecond bit-identity of `LevelSim` against `EventSim`.
//!
//! The levelized kernel replaces the priority-queue simulator on the
//! profiling hot path, so its contract is *exact* equivalence, not
//! approximate agreement: for every circuit, every vector sequence, every
//! delay assignment (uniform, aged factors, per-gate inflation), and every
//! fault overlay, both kernels must report identical [`PatternTiming`]
//! (femtosecond-derived delays compare with `==`), identical settled values
//! on **every** net, and identical cumulative per-gate toggle counters.
//!
//! The lane kernel is held to the one-lane kernel the same way: `K` delay
//! assignments stepped as the lanes of one `LaneSim` report, lane for
//! lane, what `K` separate `LevelSim`s report — timing, every net's
//! settled value and the toggle total — on `u32` and on `u64` event words.

use agemul_conformance::gen::{arb_gate, build_netlist, input_vector, GateRecipe, GEN_INPUTS};
use agemul_logic::{DelayModel, GateKind, Logic};
use agemul_netlist::{
    DelayAssignment, EventSim, FaultKind, FaultOverlay, GateId, LaneSim, LevelSim, NetId, Netlist,
    Topology,
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

/// One aged assignment per factor vector (each cycled over the gates),
/// with gate `hot % gates` of lane `lane` inflated by `hot_factor` on top
/// in every lane where `lane % 3 == 0`.
fn lane_delays(n: &Netlist, lanes: &[Vec<f64>], hot: u16, hot_factor: f64) -> Vec<DelayAssignment> {
    lanes
        .iter()
        .enumerate()
        .map(|(lane, seed)| {
            let factors: Vec<f64> = (0..n.gate_count()).map(|g| seed[g % seed.len()]).collect();
            let mut d = DelayAssignment::with_factors(n, &DelayModel::nominal(), &factors).unwrap();
            if lane % 3 == 0 {
                d.inflate(
                    GateId::from_index(hot as usize % n.gate_count()),
                    hot_factor,
                );
            }
            d
        })
        .collect()
}

/// `sim` with `overlay` attached, if any.
fn faulted<'a>(mut sim: LevelSim<'a>, overlay: Option<&FaultOverlay>) -> LevelSim<'a> {
    if let Some(o) = overlay {
        sim.set_fault_overlay(o.clone());
    }
    sim
}

/// Settles a `LaneSim` holding `delays` and one `LevelSim` per assignment
/// on vector 0 of `seqs` (all under `overlay`), then steps the rest and
/// asserts, lane for lane, identical timing, settled values on every net
/// and toggle totals.
fn assert_lanes_match(
    n: &Netlist,
    topo: &Topology,
    delays: &[DelayAssignment],
    overlay: Option<&FaultOverlay>,
    seqs: &[u64],
) {
    // The base kernel's own delays play no part in the lanes.
    let base = faulted(
        LevelSim::new(n, topo, DelayAssignment::uniform(n, &DelayModel::nominal())),
        overlay,
    );
    let mut singles: Vec<LevelSim<'_>> = delays
        .iter()
        .map(|d| faulted(LevelSim::new(n, topo, d.clone()), overlay))
        .collect();
    let mut lanes = LaneSim::new(&base);
    for d in delays {
        lanes.push_lane(d);
    }
    assert_eq!(lanes.lanes(), delays.len());

    let first = input_vector(seqs[0], GEN_INPUTS);
    lanes.settle(&first).unwrap();
    for single in &mut singles {
        single.settle(&first).unwrap();
    }
    for &bits in &seqs[1..] {
        let v = input_vector(bits, GEN_INPUTS);
        let timings = lanes.step(&v).unwrap().to_vec();
        prop_assert_eq!(timings.len(), singles.len());
        for (lane, (single, timing)) in singles.iter_mut().zip(timings).enumerate() {
            prop_assert_eq!(
                timing,
                single.step(&v).unwrap(),
                "lane {} timing diverged on bits {:#x}",
                lane,
                bits
            );
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                prop_assert_eq!(
                    lanes.value(lane, net),
                    single.value(net),
                    "lane {} net {} diverged on bits {:#x}",
                    lane,
                    idx,
                    bits
                );
            }
            prop_assert_eq!(
                lanes.toggle_total(lane),
                single.gate_toggle_counts().iter().sum::<u64>()
            );
        }
    }
}

/// Whether some lane of `delays` lets a step's event times (at most depth
/// × max gate delay) reach 2^30 fs, past what a `u32` word holds.
fn beyond_u32_words(topo: &Topology, delays: &[DelayAssignment]) -> bool {
    let max_delay = delays
        .iter()
        .flat_map(|d| (0..d.len()).map(|g| d.delay_fs(GateId::from_index(g))))
        .max()
        .unwrap_or(0);
    (u64::from(topo.max_level()) + 1) * max_delay >= 1 << 30
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `K` lanes ≡ `K` separate one-lane runs: aged per-lane delays with
    /// hot spots, on generator netlists with and without variadic wide
    /// gates, fault-free and under a fault overlay, on `u32` words.
    #[test]
    fn lanes_match_separate_level_sims(
        narrow in proptest::collection::vec(arb_gate(), 1..40),
        wide in proptest::collection::vec(arb_wide_gate(), 0..6),
        seqs in proptest::collection::vec(any::<u64>(), 2..9),
        lane_factors in proptest::collection::vec(
            proptest::collection::vec(0.5f64..4.0, 1..20), 1..=LaneSim::LANES),
        hot in any::<u16>(),
        hot_factor in 1.0f64..20.0,
        net_pick in any::<u16>(),
        kind in arb_fault_kind(),
    ) {
        let n = build_wide_netlist(&narrow, &wide, GEN_INPUTS);
        let topo = n.topology().unwrap();
        let delays = lane_delays(&n, &lane_factors, hot, hot_factor);
        prop_assert!(!beyond_u32_words(&topo, &delays));
        assert_lanes_match(&n, &topo, &delays, None, &seqs);

        let mut overlay = FaultOverlay::new(&n);
        overlay
            .add(NetId::from_index(net_pick as usize % n.net_count()), kind, 1)
            .unwrap();
        assert_lanes_match(&n, &topo, &delays, Some(&overlay), &seqs);
    }

    /// One lane whose hot spot pushes a step's event times past 2^30 fs
    /// switches the whole set to `u64` words, wherever it loads, and every
    /// lane still matches its separate run.
    #[test]
    fn lanes_on_wide_words_match_separate_level_sims(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        seqs in proptest::collection::vec(any::<u64>(), 2..9),
        lane_factors in proptest::collection::vec(
            proptest::collection::vec(0.5f64..4.0, 1..20), 2..=LaneSim::LANES),
        hot in any::<u16>(),
        slow_lane in any::<u8>(),
        net_pick in any::<u16>(),
        kind in arb_fault_kind(),
    ) {
        let n = build_netlist(&recipes, GEN_INPUTS);
        let topo = n.topology().unwrap();
        let mut delays = lane_delays(&n, &lane_factors, hot, 2.0);
        // Every nominal delay is above 1 ps, so 10^6 × puts this gate past
        // the 2^30 fs (≈ 1.07 µs) a u32 word holds.
        let slow = slow_lane as usize % delays.len();
        delays[slow].inflate(GateId::from_index(hot as usize % n.gate_count()), 1e6);
        prop_assert!(beyond_u32_words(&topo, &delays));
        assert_lanes_match(&n, &topo, &delays, None, &seqs);

        let mut overlay = FaultOverlay::new(&n);
        overlay
            .add(NetId::from_index(net_pick as usize % n.net_count()), kind, 1)
            .unwrap();
        assert_lanes_match(&n, &topo, &delays, Some(&overlay), &seqs);
    }

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

/// The generated multipliers at 16 bits, where one lockstep step writes
/// far more waveform words than the lane kernel keeps before compacting
/// its arena: eight lanes of per-gate aged delays (a different jitter per
/// lane) match eight separate `LevelSim`s on every step, fault-free and
/// with a product bit's driver flipped.
#[test]
fn lanes_match_separate_level_sims_on_multipliers() {
    use agemul_circuits::{MultiplierCircuit, MultiplierKind};

    for kind in [
        MultiplierKind::Array,
        MultiplierKind::ColumnBypass,
        MultiplierKind::RowBypass,
    ] {
        let m = MultiplierCircuit::generate(kind, 16).unwrap();
        let n = m.netlist();
        let topo = n.topology().unwrap();
        // A fixed LCG: per-lane, per-gate factors in [1.00, 1.16).
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut jitter = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            1.0 + (state >> 40) as f64 / (1u64 << 24) as f64 * 0.16
        };
        let lanes: Vec<Vec<f64>> = (0..LaneSim::LANES)
            .map(|_| (0..n.gate_count()).map(|_| jitter()).collect())
            .collect();
        let delays = lane_delays(n, &lanes, 0, 1.0);
        let mut seqs: Vec<u64> = vec![0];
        seqs.extend((0..10).map(|_| (jitter() * 1e9) as u64));
        let pairs: Vec<Vec<Logic>> = seqs
            .iter()
            .map(|&bits| {
                m.encode_inputs(bits & 0xFFFF, (bits >> 16) & 0xFFFF)
                    .unwrap()
            })
            .collect();

        let mut overlay = FaultOverlay::new(n);
        overlay.add(n.outputs()[9], FaultKind::Flip, 1).unwrap();
        for overlay in [None, Some(&overlay)] {
            let base = faulted(LevelSim::new(n, &topo, delays[0].clone()), overlay);
            let mut singles: Vec<_> = delays
                .iter()
                .map(|d| faulted(LevelSim::new(n, &topo, d.clone()), overlay))
                .collect();
            let mut sim = LaneSim::new(&base);
            for d in &delays {
                sim.push_lane(d);
            }
            sim.settle(&pairs[0]).unwrap();
            for single in &mut singles {
                single.settle(&pairs[0]).unwrap();
            }
            let mut busiest = 0;
            for (step, v) in pairs.iter().enumerate().skip(1) {
                let timings = sim.step(v).unwrap().to_vec();
                busiest = busiest.max(timings.iter().map(|t| t.events).sum::<u64>());
                for (lane, single) in singles.iter_mut().enumerate() {
                    assert_eq!(
                        timings[lane],
                        single.step(v).unwrap(),
                        "{kind:?} lane {lane} step {step}"
                    );
                    for idx in 0..n.net_count() {
                        let net = NetId::from_index(idx);
                        assert_eq!(
                            sim.value(lane, net),
                            single.value(net),
                            "{kind:?} lane {lane} net {idx}"
                        );
                    }
                    assert_eq!(
                        sim.toggle_total(lane),
                        single.gate_toggle_counts().iter().sum::<u64>()
                    );
                }
            }
            // Every event but the 32 × 8 input seeds is an arena word, so
            // the arena passed the 2^14 words the lane kernel compacts at.
            assert!(busiest > (1 << 14) + 32 * 8, "{kind:?}: {busiest} events");
        }
    }
}
