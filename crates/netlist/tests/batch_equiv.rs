//! Property tests: `BatchSim` is lane-for-lane equivalent to `FuncSim`.
//!
//! Random well-formed DAG netlists covering every `GateKind` — including
//! tri-state buffers that float to `Z` and muxes masking unknown branches —
//! are driven with random batches of up to 64 four-valued patterns, and
//! every net of every lane is compared against a scalar `FuncSim` run of
//! the same pattern.

use agemul_conformance::gen::{arb_gate, build_netlist, GateRecipe, GEN_INPUTS};
use agemul_logic::Logic;
use agemul_netlist::{BatchSim, FuncSim, NetlistError};
use proptest::prelude::*;

fn arb_logic() -> impl Strategy<Value = Logic> {
    prop_oneof![
        Just(Logic::Zero),
        Just(Logic::One),
        Just(Logic::Z),
        Just(Logic::X),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every net of every lane matches the scalar simulator — the
    /// headline equivalence guarantee, over fully four-valued inputs.
    #[test]
    fn batch_matches_scalar_on_every_net_and_lane(
        recipes in proptest::collection::vec(arb_gate(), 1..60),
        patterns in proptest::collection::vec(
            proptest::collection::vec(arb_logic(), 6),
            1..65,
        ),
    ) {
        let patterns = &patterns[..patterns.len().min(64)];
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();

        let mut batch = BatchSim::new(&n, &topo);
        prop_assert_eq!(batch.eval_batch(patterns).unwrap(), patterns.len());

        let mut scalar = FuncSim::new(&n, &topo);
        for (lane, p) in patterns.iter().enumerate() {
            scalar.eval(p).unwrap();
            for (idx, &expected) in scalar.values().iter().enumerate() {
                let got = batch.words()[idx].get(lane);
                prop_assert_eq!(
                    got, expected,
                    "net {} lane {} pattern {:?}", idx, lane, p
                );
            }
        }
    }

    /// The batched signal-probability accumulator agrees exactly with the
    /// scalar `high_weight` sum (weights are multiples of 0.5, so this is
    /// an exact f64 comparison, not approximate).
    #[test]
    fn batch_high_weight_is_exact(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        patterns in proptest::collection::vec(
            proptest::collection::vec(arb_logic(), 6),
            1..65,
        ),
    ) {
        let patterns = &patterns[..patterns.len().min(64)];
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();

        let mut batch = BatchSim::new(&n, &topo);
        batch.eval_batch(patterns).unwrap();

        let mut scalar = FuncSim::new(&n, &topo);
        let mut expected = vec![0.0f64; n.net_count()];
        for p in patterns {
            scalar.eval(p).unwrap();
            for (idx, v) in scalar.values().iter().enumerate() {
                expected[idx] += v.high_weight();
            }
        }
        for (idx, &e) in expected.iter().enumerate() {
            prop_assert_eq!(
                batch.words()[idx].high_weight_sum(batch.lanes()),
                e,
                "net {}", idx
            );
        }
    }

    /// `BatchSim::write_outputs` agrees with `FuncSim::write_outputs`
    /// (both non-allocating paths) on every lane.
    #[test]
    fn batched_outputs_match_scalar_outputs(
        recipes in proptest::collection::vec(arb_gate(), 1..40),
        patterns in proptest::collection::vec(
            proptest::collection::vec(arb_logic(), 6),
            1..33,
        ),
    ) {
        let inputs = GEN_INPUTS;
        let n = build_netlist(&recipes, inputs);
        let topo = n.topology().unwrap();

        let mut batch = BatchSim::new(&n, &topo);
        batch.eval_batch(&patterns).unwrap();

        let mut scalar = FuncSim::new(&n, &topo);
        let mut got = vec![Logic::X; n.output_count()];
        let mut expected = vec![Logic::X; n.output_count()];
        for (lane, p) in patterns.iter().enumerate() {
            scalar.eval(p).unwrap();
            scalar.write_outputs(&mut expected).unwrap();
            batch.write_outputs(lane, &mut got).unwrap();
            prop_assert_eq!(&got, &expected, "lane {}", lane);
        }
    }

    /// Oversized batches are rejected, never truncated silently.
    #[test]
    fn oversized_batches_error(extra in 1usize..16) {
        let n = build_netlist(&[GateRecipe { kind_sel: 6, picks: [0, 1, 2] }], GEN_INPUTS);
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        let patterns = vec![vec![Logic::Zero; GEN_INPUTS]; 64 + extra];
        prop_assert_eq!(
            batch.eval_batch(&patterns).unwrap_err(),
            NetlistError::BatchSize { got: 64 + extra }
        );
    }
}
