//! Engine-equivalence acceptance tests on real multipliers.
//!
//! The levelized kernel ([`agemul::SimEngine::Level`]) must be
//! femtosecond-identical to the event-driven reference
//! ([`agemul::SimEngine::Event`]) on the designs the experiments actually
//! run: column- and row-bypassing multipliers, nominal and aged. The
//! random-circuit property tests live in `agemul-netlist`; these tests pin
//! the full profiling pipeline (encode → settle → two-vector steps →
//! records) end to end.

use agemul::{MultiplierDesign, PatternProfile, PatternSet, SimEngine};
use agemul_circuits::MultiplierKind;

/// Asserts two profiles are bit-identical: every record (operands, zeros,
/// measured delay) and the aggregate switching activity.
fn assert_profiles_identical(level: &PatternProfile, event: &PatternProfile, label: &str) {
    assert_eq!(level.len(), event.len(), "{label}: record count");
    for (i, (l, e)) in level.records().iter().zip(event.records()).enumerate() {
        assert_eq!(l, e, "{label}: record {i}");
    }
    assert_eq!(
        level.avg_gate_toggles().to_bits(),
        event.avg_gate_toggles().to_bits(),
        "{label}: switching activity"
    );
    assert_eq!(
        level.max_delay_ns().to_bits(),
        event.max_delay_ns().to_bits(),
        "{label}: max delay"
    );
}

/// A deterministic, non-uniform aging-factor vector covering every gate.
fn aged_factors(design: &MultiplierDesign) -> Vec<f64> {
    let gates = design.circuit().netlist().gate_count();
    (0..gates)
        .map(|i| 1.0 + 0.35 * ((i * 13) % 29) as f64 / 29.0)
        .collect()
}

/// Timing-kernel smoke: LevelSim vs EventSim bit-identity
/// on the 8×8 column-bypassing multiplier under a uniform workload.
#[test]
fn timing_equiv_smoke_cb8() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 500, 42);
    let level = design
        .profile_with_engine(patterns.pairs(), None, SimEngine::Level)
        .unwrap();
    let event = design
        .profile_with_engine(patterns.pairs(), None, SimEngine::Event)
        .unwrap();
    assert_profiles_identical(&level, &event, "CB8 nominal");
}

#[test]
fn engines_agree_on_bypassing_multipliers_nominal_and_aged() {
    for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
        let design = MultiplierDesign::new(kind, 8).unwrap();
        let patterns = PatternSet::uniform(8, 250, 7);
        let factors = aged_factors(&design);
        for (label, f) in [("nominal", None), ("aged", Some(factors.as_slice()))] {
            let level = design
                .profile_with_engine(patterns.pairs(), f, SimEngine::Level)
                .unwrap();
            let event = design
                .profile_with_engine(patterns.pairs(), f, SimEngine::Event)
                .unwrap();
            assert_profiles_identical(&level, &event, &format!("{kind:?} {label}"));
        }
    }
}

#[test]
fn engines_agree_on_the_array_multiplier() {
    let design = MultiplierDesign::new(MultiplierKind::Array, 8).unwrap();
    let patterns = PatternSet::uniform(8, 250, 19);
    let level = design
        .profile_with_engine(patterns.pairs(), None, SimEngine::Level)
        .unwrap();
    let event = design
        .profile_with_engine(patterns.pairs(), None, SimEngine::Event)
        .unwrap();
    assert_profiles_identical(&level, &event, "Array nominal");
}

/// `profile_with_delays` (the delay-fault fast path, which skips the
/// functional sweep) must agree with the full `profile` under the same
/// uniform assignment, and with the event-driven reference under an
/// inflated single-gate assignment.
#[test]
fn delay_only_profiling_matches_full_profiling() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    let patterns = PatternSet::uniform(8, 200, 23);

    let uniform = design.delay_assignment(None).unwrap();
    let fast = design
        .profile_with_delays(patterns.pairs(), &uniform)
        .unwrap();
    let full = design.profile(patterns.pairs(), None).unwrap();
    assert_profiles_identical(&fast, &full, "CB8 uniform fast path");

    // Inflate one mid-netlist gate hard enough to reorder sensitized
    // paths; the levelized fast path must still track EventSim through
    // the public profiling loop. The event reference is reproduced via
    // aging factors that encode the same inflation.
    let gates = design.circuit().netlist().gate_count();
    let mut factors = vec![1.0; gates];
    factors[gates / 2] = 8.0;
    let inflated = design.delay_assignment(Some(&factors)).unwrap();
    let fast = design
        .profile_with_delays(patterns.pairs(), &inflated)
        .unwrap();
    let event = design
        .profile_with_engine(patterns.pairs(), Some(&factors), SimEngine::Event)
        .unwrap();
    assert_profiles_identical(&fast, &event, "CB8 inflated fast path");
}
