//! Raw timing-kernel stepping: event-driven vs levelized.
//!
//! The `level_sim` group steps each timing kernel over a pre-encoded
//! workload, isolating the scheduler from encode/verify overhead. The
//! whole profiling pipeline (`MultiplierDesign::profile`) is measured end
//! to end by the benchmark's `profile-cold` workload instead.
//!
//! Run with `cargo bench -p agemul-bench --bench profile`; set
//! `CRITERION_JSON=<file>` to append machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};

use agemul::{calibrated_delay_model, PatternSet};
use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::Logic;
use agemul_netlist::{DelayAssignment, EventSim, LevelSim};

const CASES: [(&str, MultiplierKind, usize); 4] = [
    ("CB16", MultiplierKind::ColumnBypass, 16),
    ("RB16", MultiplierKind::RowBypass, 16),
    ("CB32", MultiplierKind::ColumnBypass, 32),
    ("RB32", MultiplierKind::RowBypass, 32),
];

const OPS: usize = 256;

/// Raw kernel stepping: 256 pre-encoded two-vector transitions through
/// each timing kernel, no encode or functional-verification overhead.
fn bench_level_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("level_sim");
    g.sample_size(10);
    for (label, kind, width) in CASES {
        let m = MultiplierCircuit::generate(kind, width).unwrap();
        let topo = m.netlist().topology().unwrap();
        let delays = DelayAssignment::uniform(m.netlist(), calibrated_delay_model().unwrap());
        let encoded: Vec<Vec<Logic>> = PatternSet::uniform(width, OPS, 7)
            .pairs()
            .iter()
            .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
            .collect();
        let zeros = m.encode_inputs(0, 0).unwrap();

        g.bench_function(format!("{label}_event{OPS}"), |b| {
            b.iter(|| {
                let mut sim = EventSim::new(m.netlist(), &topo, delays.clone());
                sim.settle(&zeros).unwrap();
                let mut worst = 0.0f64;
                for p in &encoded {
                    worst = worst.max(sim.step(p).unwrap().delay_ns);
                }
                worst
            })
        });
        g.bench_function(format!("{label}_level{OPS}"), |b| {
            b.iter(|| {
                let mut sim = LevelSim::new(m.netlist(), &topo, delays.clone());
                sim.settle(&zeros).unwrap();
                let mut worst = 0.0f64;
                for p in &encoded {
                    worst = worst.max(sim.step(p).unwrap().delay_ns);
                }
                worst
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_level_sim);
criterion_main!(benches);
