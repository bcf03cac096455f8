//! Cross-policy metamorphic relations.
//!
//! Routing policies may change *where* operations execute, but physics
//! they cannot change: with aging switched off every node is identical,
//! so every policy must produce the same completed-op count and the same
//! cycle totals; and under any amount of stress the fleet-total cycle
//! ledger must equal the per-node engine identity
//! `cycles = one_cycle_ops + 2·two_cycle_ops + penalty·errors`
//! summed over nodes.

use agemul::MultiplierDesign;
use agemul_aging::BtiModel;
use agemul_circuits::MultiplierKind;
use agemul_fleet::{
    epoch_trace, trace_pairs, FleetCampaign, FleetConfig, FleetPolicy, FleetSim, FleetSummary,
    RoutingPolicy, TraceKind,
};

fn bti() -> BtiModel {
    BtiModel::reference()
}

fn run(design: &MultiplierDesign, config: FleetConfig) -> FleetSummary {
    let bti = bti();
    let campaign = FleetCampaign::new(design, &bti, config).unwrap();
    let mut sim = FleetSim::new(&campaign);
    sim.run(None).unwrap()
}

/// With σ = 0, zero per-epoch aging, and no burn-in spread, every node is
/// an identical fresh instance: an operation's cycle class depends only
/// on its operands, never on which node served it. All routing policies —
/// including the rejuvenation rotation, which merely shuffles traffic —
/// must therefore complete the same operations in the same cycle totals,
/// with zero errors.
#[test]
fn zero_aging_makes_all_policies_equivalent() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    // Pin the cycle at the fresh whole-workload maximum (operands are pure
    // in (kind, seed, epoch, ops, width), so the anchor covers every epoch)
    // — this test is about routing equivalence, not timing marginality.
    let pairs: Vec<(u64, u64)> = (0..2)
        .flat_map(|epoch| {
            trace_pairs(&epoch_trace(
                TraceKind::Uniform,
                0x0A6E_0005,
                epoch,
                96,
                8,
                1,
            ))
        })
        .collect();
    let cycle_ns = design.profile(&pairs, None).unwrap().max_delay_ns() * 1.05;
    let scenarios = [
        FleetPolicy::baseline(RoutingPolicy::RoundRobin),
        FleetPolicy::baseline(RoutingPolicy::LeastLoaded),
        FleetPolicy::baseline(RoutingPolicy::AgingAware),
        FleetPolicy::with_rotation(RoutingPolicy::AgingAware, 1, 0.25),
    ];
    let summaries: Vec<FleetSummary> = scenarios
        .into_iter()
        .map(|policy| {
            let mut config = FleetConfig::new(4, 2, 96, 0x0A6E_0005);
            config.sigma = 0.0;
            config.years_per_epoch = 0.0;
            config.burn_in_years = 0.0;
            config.cycle_ns = cycle_ns;
            config.policy = policy;
            run(&design, config)
        })
        .collect();
    let reference = &summaries[0];
    assert_eq!(reference.completed_ops, 2 * 96, "every arrival completes");
    for s in &summaries {
        assert_eq!(
            s.errors, 0,
            "{}: fresh identical nodes cannot violate",
            s.policy
        );
        assert_eq!(s.undetected, 0, "{}", s.policy);
        assert_eq!(s.dropped_ops, 0, "{}", s.policy);
        assert_eq!(s.completed_ops, reference.completed_ops, "{}", s.policy);
        assert_eq!(s.cycles, reference.cycles, "{}", s.policy);
        assert_eq!(s.one_cycle_ops, reference.one_cycle_ops, "{}", s.policy);
        assert_eq!(s.two_cycle_ops, reference.two_cycle_ops, "{}", s.policy);
    }
}

/// Under heavy stress (low skip so marginal one-cycle paths exist, fast
/// aging, divergent corners) the ledger identity holds per node and the
/// fleet totals are exactly the per-node sums — and the scenario really
/// does produce detected violations, so the identity is exercised with a
/// non-zero penalty term.
#[test]
fn fleet_totals_match_the_per_node_cycle_identity_under_stress() {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
    for routing in RoutingPolicy::ALL {
        let mut config = FleetConfig::new(3, 4, 96, 0x0A6E_0005);
        config.skip = 2;
        config.years_per_epoch = 2.0;
        config.policy = FleetPolicy::baseline(routing);
        let summary = run(&design, config);

        let penalty = u64::from(3u32);
        let mut ops = 0u64;
        let mut cycles = 0u64;
        let mut one = 0u64;
        let mut two = 0u64;
        let mut errors = 0u64;
        for report in &summary.node_reports {
            let c = &report.counters;
            assert_eq!(
                c.cycles,
                c.one_cycle_ops + 2 * c.two_cycle_ops + penalty * c.errors,
                "{}: node {} breaks the engine identity",
                summary.policy,
                report.id
            );
            ops += c.ops;
            cycles += c.cycles;
            one += c.one_cycle_ops;
            two += c.two_cycle_ops;
            errors += c.errors;
        }
        assert_eq!(summary.completed_ops, ops, "{}", summary.policy);
        assert_eq!(summary.cycles, cycles, "{}", summary.policy);
        assert_eq!(summary.one_cycle_ops, one, "{}", summary.policy);
        assert_eq!(summary.two_cycle_ops, two, "{}", summary.policy);
        assert_eq!(summary.errors, errors, "{}", summary.policy);
        assert_eq!(
            summary.recovery_cycles,
            penalty * errors,
            "{}",
            summary.policy
        );
        assert!(
            summary.errors > 0,
            "{}: the stress scenario must actually produce violations for \
             the identity to be exercised (got zero)",
            summary.policy
        );
    }
}
