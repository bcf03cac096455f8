//! Cross-crate integration: the full paper pipeline, end to end.

use agemul_suite::prelude::*;

/// The complete proposed-architecture flow: generate → profile → deploy →
/// age → re-profile → adapt. Exercises every crate in the workspace.
#[test]
fn full_aging_aware_pipeline() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16).unwrap();
    let patterns = PatternSet::uniform(16, 1_500, 7);

    // Year 0: variable latency beats the fixed-latency deployment.
    let profile = design.profile(patterns.pairs(), None).unwrap();
    let critical = design.critical_delay_ns(None).unwrap();
    let fixed = run_fixed_latency(profile.len() as u64, critical);
    let fresh = run_engine(&profile, &EngineConfig::adaptive(1.0, 7));
    assert!(
        fresh.avg_latency_ns() < fixed.avg_latency_ns(),
        "VL {} ≥ FL {}",
        fresh.avg_latency_ns(),
        fixed.avg_latency_ns()
    );

    // Age the silicon seven years under the observed workload.
    let stats = design.workload_stats(patterns.pairs()).unwrap();
    let bti = BtiModel::reference();
    let factors = aging_factors(design.circuit().netlist(), &stats, &bti, 7.0);
    assert!(factors.iter().all(|&f| f >= 1.0));

    let aged_profile = design.profile(patterns.pairs(), Some(&factors)).unwrap();
    assert!(aged_profile.avg_delay_ns() > profile.avg_delay_ns());

    // The aged adaptive design still beats the aged fixed-latency one.
    let aged_critical = design.critical_delay_ns(Some(&factors)).unwrap();
    assert!(aged_critical > critical);
    let aged_fixed = run_fixed_latency(aged_profile.len() as u64, aged_critical);
    let aged_vl = run_engine(&aged_profile, &EngineConfig::adaptive(1.0, 7));
    assert!(aged_vl.avg_latency_ns() < aged_fixed.avg_latency_ns());

    // And the adaptive hold logic outperforms the traditional one when the
    // circuit is aged and the clock is aggressive.
    let aggressive = 0.85;
    let adaptive = run_engine(&aged_profile, &EngineConfig::adaptive(aggressive, 7));
    let traditional = run_engine(&aged_profile, &EngineConfig::traditional(aggressive, 7));
    assert!(adaptive.errors <= traditional.errors);
    assert!(adaptive.avg_latency_ns() <= traditional.avg_latency_ns() * 1.001);
}

/// Functional equivalence of all three architectures through the whole
/// stack, including stale bypass state between consecutive operations.
#[test]
fn architectures_agree_with_integer_multiplication() {
    let patterns = PatternSet::uniform(8, 300, 3);
    for kind in MultiplierKind::ALL {
        let design = MultiplierDesign::new(kind, 8).unwrap();
        let netlist = design.circuit().netlist();
        let topo = design.topology();
        let delays = DelayAssignment::uniform(netlist, calibrated_delay_model().unwrap());
        let mut sim = EventSim::new(netlist, topo, delays);
        sim.settle(&design.circuit().encode_inputs(0, 0).unwrap())
            .unwrap();
        for &(a, b) in patterns.pairs() {
            sim.step(&design.circuit().encode_inputs(a, b).unwrap())
                .unwrap();
            let got = design.circuit().product().decode_with(|net| sim.value(net));
            assert_eq!(got, Some(u128::from(a) * u128::from(b)), "{kind:?} {a}×{b}");
        }
    }
}

/// The energy model composes with the architecture: area and energy
/// orderings the paper relies on.
#[test]
fn area_and_energy_orderings() {
    let power = PowerModel::ptm_32nm_hk();
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16).unwrap();
    let patterns = PatternSet::uniform(16, 400, 9);
    let activity = design.switching_activity(patterns.pairs(), None).unwrap();

    let fl = area_report(&design, Architecture::FixedLatency, 7).unwrap();
    let avl = area_report(&design, Architecture::AdaptiveVariableLatency, 7).unwrap();
    assert!(avl.total_transistors() > fl.total_transistors());

    let mk = |area: &AreaReport, dvth: f64| {
        energy_report(
            &design,
            EnergyInputs {
                power: &power,
                activity: &activity,
                area,
                avg_cycles_per_op: 1.3,
                avg_latency_ns: 1.2,
                delta_vth_v: dvth,
            },
        )
    };
    // Razor outputs cost more than plain flops; aging shrinks leakage.
    assert!(mk(&avl, 0.0).sequential_fj > mk(&fl, 0.0).sequential_fj);
    assert!(mk(&avl, 0.05).total_fj() < mk(&avl, 0.0).total_fj());
}

/// The Fig. 4 variable-latency adder story holds on our gate level: the
/// hold function's two-cycle population is ~25 % and hold-0 patterns are
/// faster than the worst case.
#[test]
fn vl_rca_hold_logic_statistics() {
    let vl = VariableLatencyRca::generate(8).unwrap();
    let topo = vl.netlist().topology().unwrap();
    let mut sim = FuncSim::new(vl.netlist(), &topo);
    let mut holds = 0u32;
    let mut total = 0u32;
    for a in (0..=255u64).step_by(5) {
        for b in (0..=255u64).step_by(3) {
            sim.eval(&vl.encode_inputs(a, b).unwrap()).unwrap();
            total += 1;
            if sim.value(vl.hold()) == Logic::One {
                holds += 1;
            }
        }
    }
    let ratio = f64::from(holds) / f64::from(total);
    // (A4⊕B4)(A5⊕B5) is 1 with probability 1/4 under uniform inputs.
    assert!((ratio - 0.25).abs() < 0.03, "hold ratio {ratio}");
}

/// Deterministic reproduction: same seed, same profile, same metrics.
#[test]
fn experiments_are_deterministic() {
    let design = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
    let p1 = design
        .profile(PatternSet::uniform(8, 200, 11).pairs(), None)
        .unwrap();
    let p2 = design
        .profile(PatternSet::uniform(8, 200, 11).pairs(), None)
        .unwrap();
    for (a, b) in p1.records().iter().zip(p2.records()) {
        assert_eq!(a, b);
    }
    let m1 = run_engine(&p1, &EngineConfig::adaptive(0.8, 4));
    let m2 = run_engine(&p2, &EngineConfig::adaptive(0.8, 4));
    assert_eq!(m1, m2);
}
