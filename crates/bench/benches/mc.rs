//! Monte Carlo corner-switch cost: plan-reuse re-timing vs from-scratch
//! kernel construction.
//!
//! The campaign's fast path compiles one levelized kernel per worker and
//! re-times it per (corner, year) — an in-place delay rewrite plus a
//! settled-state restore, both O(gates) memcpys. The reference path pays
//! full `LevelSim` construction (levelize, CSR fanout, truth-table LUTs,
//! arena allocation) for every cell. The `retime_corner_*` /
//! `rebuild_corner_*` row pair isolates exactly that marginal cost — the
//! acceptance target is retime ≥ 10× below rebuild. The full campaign
//! is measured end to end by the benchmark's `mc-yield` workload.
//!
//! Both paths produce byte-identical reports (pinned by `agemul`'s
//! campaign tests), so the ratio is pure overhead, not accuracy traded
//! away.
//!
//! Run with `cargo bench -p agemul-bench --bench mc`; set
//! `CRITERION_JSON=<file>` to record machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use agemul::{McConfig, MonteCarloCampaign, MultiplierDesign, PatternSet};
use agemul_aging::BtiModel;
use agemul_circuits::MultiplierKind;
use agemul_netlist::DelayAssignment;

/// Patterns per corner-year replay of the campaign the rows are built on.
const OPS: usize = 48;

/// Distinct delay assignments cycled through the corner-switch rows.
const CORNERS: usize = 8;

fn bench_mc(c: &mut Criterion) {
    let mut g = c.benchmark_group("mc");
    g.sample_size(10);
    let bti = BtiModel::reference();
    for (label, kind) in [
        ("CB16", MultiplierKind::ColumnBypass),
        ("RB16", MultiplierKind::RowBypass),
    ] {
        let design = MultiplierDesign::new(kind, 16).unwrap();
        let patterns = PatternSet::uniform(16, OPS, 7);
        let config = McConfig::new(CORNERS, 0.05, 0x0A6E_0002);
        let campaign = MonteCarloCampaign::new(&design, patterns.pairs(), &bti, config).unwrap();

        // One aged (year-7) delay assignment per corner, derived outside
        // the timed region: the row pair measures kernel work, not the
        // factor pipeline both paths share.
        let year7 = campaign.config().years.len() - 1;
        let delays: Vec<DelayAssignment> = (0..CORNERS)
            .map(|corner| {
                design
                    .delay_assignment(Some(&campaign.cell_factors(corner, year7)))
                    .unwrap()
            })
            .collect();

        // Marginal cost of pointing an existing kernel at the next
        // corner: in-place delay swap + settled-state restore.
        g.bench_function(format!("retime_corner_{label}"), |b| {
            let mut profiler = campaign.profiler().unwrap();
            let mut i = 0;
            b.iter(|| {
                profiler.retime(black_box(&delays[i % CORNERS]));
                i += 1;
            })
        });

        // The from-scratch alternative: compile a whole new levelized
        // kernel for the same delays.
        g.bench_function(format!("rebuild_corner_{label}"), |b| {
            let mut i = 0;
            b.iter(|| {
                black_box(design.corner_profiler(&delays[i % CORNERS]));
                i += 1;
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_mc);
criterion_main!(benches);
