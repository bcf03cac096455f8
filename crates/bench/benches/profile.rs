//! Profiling-path throughput: event-driven vs levelized vs memoized.
//!
//! The tentpole comparison for the levelized timing kernel. The `profile`
//! group measures the full pipeline (`MultiplierDesign::profile`) per
//! engine plus the `ProfileCache` hit path; the `level_sim` group strips
//! it to raw kernel stepping over a pre-encoded workload, isolating the
//! scheduler from encode/verify overhead.
//!
//! Run with `cargo bench -p agemul-bench --bench profile`; set
//! `CRITERION_JSON=<file>` to append machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};

use agemul::{
    calibrated_delay_model, LaneWidth, MultiplierDesign, PatternSet, ProfileCache, SimEngine,
};
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

/// Full profiling pipeline over 256 operand pairs: functional sweep,
/// delay assignment, settle, and one two-vector timed step per pair.
/// `_event` runs the priority-queue reference, the unsuffixed row the
/// levelized default, and `_cached` replays through a pre-warmed
/// [`ProfileCache`] (pure hit: no gate-level simulation at all).
fn bench_profile(c: &mut Criterion) {
    let mut g = c.benchmark_group("profile");
    g.sample_size(10);
    for (label, kind, width) in CASES {
        let design = MultiplierDesign::new(kind, width).unwrap();
        let patterns = PatternSet::uniform(width, OPS, 7);
        let pairs = patterns.pairs();

        g.bench_function(format!("{label}_event"), |b| {
            b.iter(|| {
                design
                    .profile_with_engine(pairs, None, SimEngine::Event)
                    .unwrap()
            })
        });
        g.bench_function(label, |b| {
            b.iter(|| {
                design
                    .profile_with_engine(pairs, None, SimEngine::Level)
                    .unwrap()
            })
        });

        let cache = ProfileCache::new();
        cache.profile(&design, pairs, None).unwrap();
        g.bench_function(format!("{label}_cached"), |b| {
            b.iter(|| cache.profile(&design, pairs, None).unwrap())
        });

        // The wide-lane batch kernel under profiling's functional
        // verification sweep: 64 and 256 lanes per block.
        for lanes in LaneWidth::ALL {
            g.bench_function(format!("{label}_verify_wide{}", lanes.lanes()), |b| {
                b.iter(|| design.verify_functional_wide(pairs, lanes).unwrap())
            });
        }
    }
    g.finish();
}

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

criterion_group!(benches, bench_profile, bench_level_sim);
criterion_main!(benches);
