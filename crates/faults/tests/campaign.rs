//! End-to-end campaign tests on a real (small) bypassing multiplier.
//!
//! The acceptance properties from the campaign design:
//!
//! * a zero-fault campaign is bit-identical to the fault-free simulation
//!   (baseline profile == `design.profile`, no outcomes);
//! * every fault family lands in its expected class on constructed
//!   workloads (stuck-at/transient → silent-or-masked, delay → detected /
//!   silent depending on the Razor window);
//! * detected faults feed the AHL: the report carries the adaptation op;
//! * cached and per-fault preparation produce identical reports.

use agemul::{EngineConfig, MultiplierDesign, PatternSet, ProfileCache, RazorConfig};
use agemul_circuits::MultiplierKind;
use agemul_faults::{Campaign, FaultClass, FaultError, FaultSpec};
use agemul_netlist::{GateId, NetId};

fn design() -> MultiplierDesign {
    MultiplierDesign::new(MultiplierKind::ColumnBypass, 4).unwrap()
}

/// A GateId on an always-sensitized path: the driver of a product bit that
/// toggles for the given workload. Product bit 1 (weight 2) toggles for
/// most operand pairs of a 4×4 multiplier.
fn driver_of_product_bit(d: &MultiplierDesign, bit: usize) -> GateId {
    let net = d.circuit().product().nets()[bit];
    d.circuit()
        .netlist()
        .driver_gate(net)
        .expect("product bits are gate-driven")
}

#[test]
fn zero_fault_campaign_is_bit_identical_to_fault_free_run() {
    let d = design();
    let patterns = PatternSet::uniform(4, 150, 11);
    let campaign = Campaign::prepare(&d, patterns.pairs(), &[], None, None).unwrap();
    let reference = d.profile(patterns.pairs(), None).unwrap();

    assert_eq!(campaign.fault_count(), 0);
    assert_eq!(campaign.baseline().len(), reference.len());
    for (got, want) in campaign
        .baseline()
        .records()
        .iter()
        .zip(reference.records())
    {
        assert_eq!(got, want);
    }

    let cfg = EngineConfig::adaptive(1.0, 2);
    let report = campaign.run(&cfg);
    assert!(report.outcomes.is_empty());
    assert_eq!(
        report.baseline_errors,
        agemul::run_engine(&reference, &cfg).errors
    );
    assert_eq!(report.coverage(), 1.0);
}

#[test]
fn stuck_faults_classify_as_silent_or_masked_by_observability() {
    let d = design();
    // All-zero products: a stuck-at-0 on any product bit is invisible,
    // a stuck-at-1 on a product bit corrupts every operation.
    let pairs: Vec<(u64, u64)> = (0..40).map(|i| (0, i % 16)).collect();
    let p0 = d.circuit().product().nets()[0];
    let faults = [
        FaultSpec::StuckAt0 { net: p0 },
        FaultSpec::StuckAt1 { net: p0 },
    ];
    let campaign = Campaign::prepare(&d, &pairs, &faults, None, None).unwrap();
    let report = campaign.run(&EngineConfig::adaptive(1.0, 2));

    assert_eq!(report.outcomes[0].class, FaultClass::Masked);
    assert_eq!(report.outcomes[0].corrupted_ops, 0);

    assert_eq!(report.outcomes[1].class, FaultClass::Silent);
    assert_eq!(report.outcomes[1].corrupted_ops, pairs.len() as u64);
    assert_eq!(report.outcomes[1].first_corrupted_op, Some(0));
    // A silently corrupting logic fault never trips Razor.
    assert_eq!(report.outcomes[1].excess_errors, 0);
}

#[test]
fn transient_corrupts_exactly_its_operation() {
    let d = design();
    let pairs: Vec<(u64, u64)> = (0..30).map(|i| (15, (i % 15) + 1)).collect();
    let p0 = d.circuit().product().nets()[0];
    let faults = [
        FaultSpec::Transient { net: p0, op: 7 },
        // Never fires: beyond the workload.
        FaultSpec::Transient { net: p0, op: 999 },
    ];
    let campaign = Campaign::prepare(&d, &pairs, &faults, None, None).unwrap();
    let report = campaign.run(&EngineConfig::adaptive(1.0, 2));

    assert_eq!(report.outcomes[0].class, FaultClass::Silent);
    assert_eq!(report.outcomes[0].corrupted_ops, 1);
    assert_eq!(report.outcomes[0].first_corrupted_op, Some(7));

    assert_eq!(report.outcomes[1].class, FaultClass::Masked);
    assert_eq!(report.outcomes[1].corrupted_ops, 0);
}

#[test]
fn delay_fault_is_detected_then_silent_as_the_window_shrinks() {
    let d = design();
    let patterns = PatternSet::uniform(4, 400, 3);
    let baseline = d.profile(patterns.pairs(), None).unwrap();
    // Clock just above the fault-free worst case: zero baseline errors,
    // and skip 0 keeps every operation on the one-cycle path.
    let cycle = baseline.max_delay_ns() * 1.05;
    let gate = driver_of_product_bit(&d, 1);
    let faults = [
        FaultSpec::Delay { gate, factor: 20.0 },
        // A hot spot far below the timing slack stays masked.
        FaultSpec::Delay {
            gate,
            factor: 1.001,
        },
    ];
    let campaign = Campaign::prepare(&d, patterns.pairs(), &faults, None, None).unwrap();

    let full = campaign.run(&EngineConfig::adaptive(cycle, 0));
    assert_eq!(full.baseline_errors, 0);
    let slow = &full.outcomes[0];
    assert_eq!(slow.class, FaultClass::Detected, "{slow:?}");
    assert!(slow.excess_errors > 0);
    assert_eq!(slow.excess_undetected, 0);
    assert!(slow.latency_overhead_pct > 0.0);
    assert_eq!(full.outcomes[1].class, FaultClass::Masked);
    assert!((full.coverage() - 1.0).abs() < 1e-12);

    // Same campaign, near-zero shadow window: the hot spot's late
    // transitions land past the window and the fault goes silent. No new
    // gate-level simulation is spent on this replay.
    let mut shrunken = EngineConfig::adaptive(cycle, 0);
    shrunken.razor = RazorConfig {
        window_factor: 0.01,
    };
    let narrow = campaign.run(&shrunken);
    assert_eq!(narrow.outcomes[0].class, FaultClass::Silent, "{narrow}");
    assert!(narrow.outcomes[0].excess_undetected > 0);
    assert!(narrow.coverage() < 1.0);
}

#[test]
fn detected_fault_reports_ahl_adaptation_latency() {
    let d = design();
    let patterns = PatternSet::uniform(4, 400, 5);
    let baseline = d.profile(patterns.pairs(), None).unwrap();
    let cycle = baseline.max_delay_ns() * 1.05;
    let gate = driver_of_product_bit(&d, 1);
    let campaign = Campaign::prepare(
        &d,
        patterns.pairs(),
        &[FaultSpec::Delay { gate, factor: 20.0 }],
        None,
        None,
    )
    .unwrap();
    let report = campaign.run(&EngineConfig::adaptive(cycle, 0));

    let o = &report.outcomes[0];
    assert_eq!(o.class, FaultClass::Detected);
    // Enough detected errors accumulate that the aging indicator engages;
    // the paper's window is 100 ops, so adaptation lands on a boundary.
    let aged_at = o.aged_at_op.expect("sustained error pressure must age");
    assert!(
        aged_at.is_multiple_of(100) && aged_at <= 400,
        "aged at {aged_at}"
    );
}

#[test]
fn cached_preparation_is_bit_identical_and_reuses_profiles() {
    let d = design();
    let patterns = PatternSet::uniform(4, 120, 13);
    let gate = driver_of_product_bit(&d, 1);
    let faults = [
        FaultSpec::Delay { gate, factor: 4.0 },
        FaultSpec::Delay { gate, factor: 1.5 },
        FaultSpec::StuckAt1 {
            net: d.circuit().product().nets()[0],
        },
    ];

    let cache = ProfileCache::new();
    let cached = Campaign::prepare(&d, patterns.pairs(), &faults, Some(&cache), None).unwrap();
    let plain = Campaign::prepare(&d, patterns.pairs(), &faults, None, None).unwrap();
    for cfg in [
        EngineConfig::adaptive(1.0, 2),
        EngineConfig::traditional(0.8, 3),
    ] {
        assert_eq!(cached.run(&cfg), plain.run(&cfg));
    }
    // First pass: baseline + one profile per distinct delay fault, all misses.
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.hits(), 0);

    // Re-preparing the same campaign re-simulates nothing.
    let again = Campaign::prepare(&d, patterns.pairs(), &faults, Some(&cache), None).unwrap();
    assert_eq!(cache.misses(), 3);
    assert_eq!(cache.hits(), 3);
    let cfg = EngineConfig::adaptive(1.0, 2);
    assert_eq!(again.run(&cfg), plain.run(&cfg));
}

#[test]
fn more_than_one_chunk_of_logic_faults_is_handled() {
    let d = design();
    let pairs: Vec<(u64, u64)> = (0..20).map(|i| (i % 16, 15)).collect();
    // 70 stuck faults → two lane-masked chunks.
    let nets = d.circuit().netlist().net_count();
    let faults: Vec<FaultSpec> = (0..70)
        .map(|i| {
            let net = NetId::from_index(i % nets);
            if i % 2 == 0 {
                FaultSpec::StuckAt0 { net }
            } else {
                FaultSpec::StuckAt1 { net }
            }
        })
        .collect();
    let campaign = Campaign::prepare(&d, &pairs, &faults, None, None).unwrap();
    let report = campaign.run(&EngineConfig::adaptive(1.0, 2));
    assert_eq!(report.outcomes.len(), 70);
    // Every fault got classified, and the labels line up with the specs.
    for (o, f) in report.outcomes.iter().zip(&faults) {
        assert_eq!(o.label, f.label());
    }
    assert!(report.silent() > 0, "stuck product logic must corrupt");
}

/// Each fault prepared on its own classifies exactly as it does inside
/// one batch: a lane of a 64-wide sweep is exact, so chunking is pure
/// throughput and a fault's outcome never depends on its neighbours.
#[test]
fn per_case_preparation_assembles_into_an_identical_campaign() {
    let d = design();
    let patterns = PatternSet::uniform(4, 120, 21);
    let faults = FaultSpec::sample(&d, patterns.pairs().len(), 9, 0xDEED);

    let batch = Campaign::prepare(&d, patterns.pairs(), &faults, None, None).unwrap();
    let alone: Vec<Campaign> = faults
        .iter()
        .map(|f| Campaign::prepare(&d, patterns.pairs(), std::slice::from_ref(f), None, None))
        .collect::<Result<_, _>>()
        .unwrap();

    for cfg in [
        EngineConfig::adaptive(1.0, 2),
        EngineConfig::traditional(0.8, 3),
    ] {
        let assembled: Vec<_> = alone.iter().flat_map(|c| c.run(&cfg).outcomes).collect();
        assert_eq!(assembled, batch.run(&cfg).outcomes);
    }
}

#[test]
fn invalid_specs_are_rejected_before_simulation() {
    let d = design();
    let pairs = [(1u64, 1u64)];
    let nets = d.circuit().netlist().net_count();
    let gates = d.circuit().netlist().gate_count();

    let bad_net = Campaign::prepare(
        &d,
        &pairs,
        &[FaultSpec::StuckAt0 {
            net: NetId::from_index(nets),
        }],
        None,
        None,
    );
    assert!(matches!(bad_net, Err(FaultError::InvalidSpec { .. })));

    let bad_gate = Campaign::prepare(
        &d,
        &pairs,
        &[FaultSpec::Delay {
            gate: GateId::from_index(gates),
            factor: 1.5,
        }],
        None,
        None,
    );
    assert!(matches!(bad_gate, Err(FaultError::InvalidSpec { .. })));

    let bad_factor = Campaign::prepare(
        &d,
        &pairs,
        &[FaultSpec::Delay {
            gate: GateId::from_index(0),
            factor: f64::NAN,
        }],
        None,
        None,
    );
    assert!(matches!(bad_factor, Err(FaultError::InvalidSpec { .. })));
}
