//! Fleet discrete-event campaign throughput: operations simulated per
//! second as the datacenter scales out.
//!
//! Each row runs one full seeded campaign — per-node corner profiling,
//! epoch trace generation, event-queue routing, AHL judging, and the
//! event-log replay witness — on the levelized kernel. The
//! `fleet_run_*nodes` rows scale the node count at a fixed per-epoch
//! operation budget, so the profiling sweeps (one per node per epoch)
//! dominate and the scaling is expected slightly superlinear in wall
//! time; the `fleet_policy_*` pair holds the fleet shape fixed and
//! isolates the routing-policy overhead (aging-aware consults every
//! node's profile each epoch, round-robin none).
//!
//! Campaign construction (cycle anchoring profiles the fresh design) is
//! hoisted outside the timed region; each iteration replays the
//! campaign from a fresh [`FleetSim`], which is the reproducibility
//! contract's unit of work.
//!
//! Run with `cargo bench -p agemul-bench --bench fleet`; set
//! `CRITERION_JSON=<file>` to record machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use agemul::MultiplierDesign;
use agemul_aging::BtiModel;
use agemul_circuits::MultiplierKind;
use agemul_fleet::{FleetCampaign, FleetConfig, FleetPolicy, FleetSim, RoutingPolicy};

/// Operations routed per epoch in every row.
const OPS: usize = 48;

/// Epochs per campaign in every row.
const EPOCHS: usize = 2;

fn config(nodes: usize, routing: RoutingPolicy) -> FleetConfig {
    let mut config = FleetConfig::new(nodes, EPOCHS, OPS, 0x0A6E_0005);
    config.years_per_epoch = 1.0;
    config.policy = FleetPolicy::baseline(routing);
    config
}

fn bench_fleet(c: &mut Criterion) {
    let mut g = c.benchmark_group("fleet");
    g.sample_size(10);
    let bti = BtiModel::reference();
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();

    // Scale-out: node count is the profiling-sweep multiplier.
    for nodes in [2usize, 4, 8] {
        let campaign =
            FleetCampaign::new(&design, &bti, config(nodes, RoutingPolicy::AgingAware)).unwrap();
        g.bench_function(format!("fleet_run_{nodes}nodes"), |b| {
            b.iter(|| {
                let mut sim = FleetSim::new(&campaign);
                black_box(sim.run(None).unwrap())
            })
        });
    }

    // Policy overhead at a fixed fleet shape.
    for routing in [RoutingPolicy::RoundRobin, RoutingPolicy::AgingAware] {
        let campaign = FleetCampaign::new(&design, &bti, config(4, routing)).unwrap();
        g.bench_function(format!("fleet_policy_{}", routing.label()), |b| {
            b.iter(|| {
                let mut sim = FleetSim::new(&campaign);
                black_box(sim.run(None).unwrap())
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fleet);
criterion_main!(benches);
