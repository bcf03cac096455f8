//! Scalar vs bit-parallel profiling throughput.
//!
//! The headline comparison for the 64-lane batch simulator: collecting
//! signal probabilities and functionally verifying products over a fixed
//! workload, scalar `FuncSim` (one sweep per pattern) against `BatchSim`
//! (one sweep per 64 patterns).
//!
//! Run with `cargo bench -p agemul-bench --bench batch_sim`; set
//! `CRITERION_JSON=<file>` to append machine-readable results (see
//! `BENCH_sim.json` at the workspace root).

use criterion::{criterion_group, criterion_main, Criterion};

use agemul::{MultiplierDesign, PatternSet};
use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::Logic;
use agemul_netlist::{FuncSim, WorkloadStats};

const CASES: [(&str, MultiplierKind, usize); 4] = [
    ("CB16", MultiplierKind::ColumnBypass, 16),
    ("RB16", MultiplierKind::RowBypass, 16),
    ("CB32", MultiplierKind::ColumnBypass, 32),
    ("RB32", MultiplierKind::RowBypass, 32),
];

/// Encodes a fixed seed-derived workload for `m`.
fn workload(m: &MultiplierCircuit, width: usize, count: usize) -> Vec<Vec<Logic>> {
    PatternSet::uniform(width, count, 7)
        .pairs()
        .iter()
        .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
        .collect()
}

/// Signal-probability collection over 256 patterns: the aging model's
/// hot loop. `scalar` sweeps one pattern at a time; `batch` goes through
/// `WorkloadStats::observe_patterns` (64 lanes per sweep).
fn bench_signal_prob(c: &mut Criterion) {
    let mut g = c.benchmark_group("signal_prob");
    g.sample_size(10);
    for (label, kind, width) in CASES {
        let m = MultiplierCircuit::generate(kind, width).unwrap();
        let topo = m.netlist().topology().unwrap();
        let patterns = workload(&m, width, 256);

        g.bench_function(format!("{label}_scalar256"), |b| {
            b.iter(|| {
                let mut sim = FuncSim::new(m.netlist(), &topo);
                let mut weights = vec![0.0f64; m.netlist().net_count()];
                for p in &patterns {
                    sim.eval(p).unwrap();
                    for (acc, v) in weights.iter_mut().zip(sim.values()) {
                        *acc += v.high_weight();
                    }
                }
                weights
            })
        });
        g.bench_function(format!("{label}_batch256"), |b| {
            b.iter(|| {
                let mut stats = WorkloadStats::new(m.netlist());
                stats
                    .observe_patterns(m.netlist(), &topo, patterns.iter())
                    .unwrap();
                stats
            })
        });
    }
    g.finish();
}

/// Functional product verification over 1024 operand pairs. The batch row
/// uses `MultiplierDesign::verify_functional`.
fn bench_verify(c: &mut Criterion) {
    let mut g = c.benchmark_group("verify");
    g.sample_size(10);
    for (label, kind, width) in CASES {
        let design = MultiplierDesign::new(kind, width).unwrap();
        let m = design.circuit();
        let topo = m.netlist().topology().unwrap();
        let patterns = PatternSet::uniform(width, 1024, 11);
        let encoded: Vec<Vec<Logic>> = patterns
            .pairs()
            .iter()
            .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
            .collect();

        g.bench_function(format!("{label}_scalar1024"), |b| {
            b.iter(|| {
                let mut sim = FuncSim::new(m.netlist(), &topo);
                for (p, &(a, bb)) in encoded.iter().zip(patterns.pairs()) {
                    sim.eval(p).unwrap();
                    let got = m.product().decode(sim.values());
                    assert_eq!(got, Some(u128::from(a) * u128::from(bb)));
                }
            })
        });
        g.bench_function(format!("{label}_batch1024"), |b| {
            b.iter(|| design.verify_functional(patterns.pairs()).unwrap())
        });
    }
    g.finish();
}

criterion_group!(benches, bench_signal_prob, bench_verify);
criterion_main!(benches);
