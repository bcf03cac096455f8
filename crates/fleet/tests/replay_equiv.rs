//! The deterministic-replay test layer.
//!
//! Three pins, from strongest to most specific:
//!
//! 1. **Purity**: `(seed → event log)` is a pure function — re-running a
//!    campaign from the same configuration yields byte-identical logs and
//!    identical final fleet state, across traces and routing policies.
//! 2. **Golden hashes**: the log hashes of a reference scenario are
//!    constants, so a refactor of the epoch loop or the profile sweep
//!    that reordered or perturbed anything breaks them even though each
//!    run stays self-consistent.
//! 3. **Resume identity**: a sim restored from a mid-campaign snapshot
//!    continues the uninterrupted run's event log byte for byte and
//!    converges to the same final state.

use agemul::MultiplierDesign;
use agemul_aging::BtiModel;
use agemul_circuits::MultiplierKind;
use agemul_fleet::{FleetCampaign, FleetConfig, FleetPolicy, FleetSim, RoutingPolicy, TraceKind};
use proptest::prelude::*;

fn design() -> MultiplierDesign {
    MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap()
}

fn bti() -> BtiModel {
    BtiModel::reference()
}

/// A small but non-degenerate scenario: three divergently aged nodes,
/// three epochs, aggressive per-epoch aging so policy actions and AHL
/// state changes actually occur within the horizon.
fn scenario(seed: u64, trace: TraceKind, routing: RoutingPolicy) -> FleetConfig {
    let mut config = FleetConfig::new(3, 3, 48, seed);
    config.trace = trace;
    config.policy = FleetPolicy::baseline(routing);
    config.years_per_epoch = 1.5;
    config
}

/// Runs a scenario to completion; returns the log bytes and the final
/// state snapshot (which covers every node counter, age, and status).
fn run_to_end(config: &FleetConfig) -> (Vec<u8>, agemul::Json) {
    let design = design();
    let bti = bti();
    let campaign = FleetCampaign::new(&design, &bti, config.clone()).unwrap();
    let mut sim = FleetSim::new(&campaign);
    sim.run(None).unwrap();
    (sim.log().bytes().to_vec(), sim.snapshot())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Re-running any (seed, trace, policy) scenario reproduces the event
    /// log and the final fleet state exactly.
    #[test]
    fn seed_to_event_log_is_pure(
        seed in any::<u64>(),
        trace_idx in 0usize..4,
        routing_idx in 0usize..3,
    ) {
        let config = scenario(
            seed,
            TraceKind::ALL[trace_idx],
            RoutingPolicy::ALL[routing_idx],
        );
        let (log_a, state_a) = run_to_end(&config);
        let (log_b, state_b) = run_to_end(&config);
        prop_assert_eq!(log_a, log_b);
        prop_assert_eq!(state_a, state_b);
    }

    /// A sim restored from an epoch-`split` snapshot continues the
    /// uninterrupted byte stream exactly and converges to the same state.
    #[test]
    fn resume_mid_campaign_is_byte_identical(
        seed in any::<u64>(),
        split in 1u32..3,
        routing_idx in 0usize..3,
    ) {
        let config = scenario(seed, TraceKind::Uniform, RoutingPolicy::ALL[routing_idx]);
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, config).unwrap();

        let mut uninterrupted = FleetSim::new(&campaign);
        for _ in 0..split {
            uninterrupted.run_epoch(None).unwrap();
        }
        let snapshot = uninterrupted.snapshot();
        let prefix = uninterrupted.log().bytes().to_vec();
        uninterrupted.run(None).unwrap();

        let mut resumed = FleetSim::restore(&campaign, &snapshot).unwrap();
        resumed.run(None).unwrap();

        let mut stitched = prefix;
        stitched.extend_from_slice(resumed.log().bytes());
        prop_assert_eq!(stitched, uninterrupted.log().bytes());
        prop_assert_eq!(resumed.snapshot(), uninterrupted.snapshot());
    }
}

/// Pinned log fingerprints for two seeds of the reference scenario. These
/// constants are the cross-refactor witness: any change to the sweep or
/// the epoch loop must keep reproducing them.
const GOLDEN: [(u64, u64); 2] = [
    (0x0A6E_0005, 0xC32E_4F00_5E5D_A074),
    (0xD15E_A5ED_CAFE_F00D, 0x9357_50D7_B5BA_5CF4),
];

#[test]
fn golden_log_hashes_are_stable() {
    for (seed, expected) in GOLDEN {
        let config = scenario(seed, TraceKind::Uniform, RoutingPolicy::AgingAware);
        let design = design();
        let bti = bti();
        let campaign = FleetCampaign::new(&design, &bti, config).unwrap();
        let mut sim = FleetSim::new(&campaign);
        sim.run(None).unwrap();
        assert_eq!(
            sim.log().hash(),
            expected,
            "seed {seed:#x}: log hash {:#018x} drifted from the pinned golden value",
            sim.log().hash()
        );
    }
}
