//! Property-based tests over the whole stack (proptest).

use agemul_suite::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every architecture computes a × b for arbitrary operands at an
    /// arbitrary (small) width.
    #[test]
    fn multipliers_are_correct(
        width in 2usize..=9,
        a in any::<u64>(),
        b in any::<u64>(),
        kind_idx in 0usize..MultiplierKind::ALL.len(),
    ) {
        let kind = MultiplierKind::ALL[kind_idx];
        let mask = (1u64 << width) - 1;
        let (a, b) = (a & mask, b & mask);
        let m = MultiplierCircuit::generate(kind, width).unwrap();
        let topo = m.netlist().topology().unwrap();
        let mut sim = FuncSim::new(m.netlist(), &topo);
        sim.eval(&m.encode_inputs(a, b).unwrap()).unwrap();
        prop_assert_eq!(
            m.product().decode(sim.values()),
            Some(u128::from(a) * u128::from(b))
        );
    }

    /// The event-driven simulator agrees with the functional simulator on
    /// settled output values, for any consecutive pattern pair.
    #[test]
    fn event_and_functional_sims_agree(
        a1 in any::<u64>(), b1 in any::<u64>(),
        a2 in any::<u64>(), b2 in any::<u64>(),
        kind_idx in 0usize..MultiplierKind::ALL.len(),
    ) {
        let kind = MultiplierKind::ALL[kind_idx];
        let width = 6usize;
        let mask = (1u64 << width) - 1;
        let m = MultiplierCircuit::generate(kind, width).unwrap();
        let topo = m.netlist().topology().unwrap();
        let delays = DelayAssignment::uniform(m.netlist(), &DelayModel::nominal());
        let mut esim = EventSim::new(m.netlist(), &topo, delays);
        esim.settle(&m.encode_inputs(a1 & mask, b1 & mask).unwrap()).unwrap();
        esim.step(&m.encode_inputs(a2 & mask, b2 & mask).unwrap()).unwrap();

        let mut fsim = FuncSim::new(m.netlist(), &topo);
        fsim.eval(&m.encode_inputs(a2 & mask, b2 & mask).unwrap()).unwrap();

        for &out in m.netlist().outputs() {
            prop_assert_eq!(esim.value(out), fsim.value(out), "net {}", out);
        }
    }

    /// No sensitized delay ever exceeds the static critical-path bound,
    /// fresh or aged.
    #[test]
    fn static_bound_dominates_dynamic_delays(
        seed in any::<u64>(),
        aged in proptest::bool::ANY,
    ) {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let factors = if aged {
            Some(vec![1.1; design.circuit().netlist().gate_count()])
        } else {
            None
        };
        let bound = design.critical_delay_ns(factors.as_deref()).unwrap();
        let patterns = PatternSet::uniform(8, 64, seed);
        let profile = design.profile(patterns.pairs(), factors.as_deref()).unwrap();
        prop_assert!(profile.max_delay_ns() <= bound + 1e-9);
    }

    /// Engine cycle accounting is internally consistent for any config.
    #[test]
    fn engine_accounting_invariants(
        period in 0.3f64..2.0,
        skip in 0u32..=16,
        adaptive in proptest::bool::ANY,
        seed in any::<u64>(),
    ) {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16).unwrap();
        let profile = design
            .profile(PatternSet::uniform(16, 200, seed).pairs(), None)
            .unwrap();
        let cfg = if adaptive {
            EngineConfig::adaptive(period, skip)
        } else {
            EngineConfig::traditional(period, skip)
        };
        let m = run_engine(&profile, &cfg);
        prop_assert_eq!(m.operations, 200);
        prop_assert_eq!(m.one_cycle_ops + m.two_cycle_ops, m.operations);
        prop_assert!(m.errors <= m.one_cycle_ops);
        // cycles = one_cycle + 2·two_cycle + penalty·errors.
        prop_assert_eq!(
            m.cycles,
            m.one_cycle_ops
                + 2 * m.two_cycle_ops
                + u64::from(cfg.error_penalty_cycles) * m.errors
        );
        prop_assert!(m.avg_latency_ns() >= 0.0);
    }

    /// A longer cycle period never increases the Razor error count.
    #[test]
    fn errors_monotone_in_period(seed in any::<u64>()) {
        let design = MultiplierDesign::new(MultiplierKind::RowBypass, 16).unwrap();
        let profile = design
            .profile(PatternSet::uniform(16, 300, seed).pairs(), None)
            .unwrap();
        let mut last = u64::MAX;
        for step in 0..8 {
            let period = 0.6 + 0.1 * f64::from(step);
            let m = run_engine(&profile, &EngineConfig::traditional(period, 7));
            prop_assert!(m.errors <= last, "errors rose at period {period}");
            last = m.errors;
        }
    }

    /// The gate-level judging block agrees with the software zero counter
    /// for every operand.
    #[test]
    fn gate_level_judging_matches_software(value in any::<u64>(), skip in 0u64..=10) {
        let width = 8usize;
        let value = value & 0xFF;
        let mut n = Netlist::new();
        let bus: Bus = (0..width).map(|i| n.add_input(format!("x{i}"))).collect();
        let pred = agemul_circuits::zeros_at_least(&mut n, &bus, skip).unwrap();
        n.mark_output(pred, "p");
        let topo = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &topo);
        sim.eval(&bus.encode(value.into()).unwrap()).unwrap();
        let expected = u64::from(count_zeros(value, width)) >= skip;
        prop_assert_eq!(sim.value(pred).to_bool(), Some(expected));
    }

    /// Aging factors are ≥ 1, finite, and monotone in years.
    #[test]
    fn aging_factors_are_sane(years in 0.0f64..20.0, p in 0.0f64..=1.0) {
        let bti = BtiModel::reference();
        let f = bti.delay_factor(years, p);
        prop_assert!(f >= 1.0 && f.is_finite());
        let later = bti.delay_factor(years + 1.0, p);
        prop_assert!(later >= f);
    }

    /// Bus encode/decode round-trips through a netlist value map.
    #[test]
    fn bus_round_trip(value in any::<u64>(), width in 1usize..=16) {
        let value = u128::from(value) & ((1u128 << width) - 1);
        let mut n = Netlist::new();
        let bus: Bus = (0..width).map(|i| n.add_input(format!("b{i}"))).collect();
        let word = bus.encode(value).unwrap();
        let mut values = vec![Logic::X; n.net_count()];
        for (i, &net) in bus.nets().iter().enumerate() {
            values[net.index()] = word[i];
        }
        prop_assert_eq!(bus.decode(&values), Some(value));
    }
}
