//! Low-noise step harness for the levelized kernel (not a benchmark — see
//! `benches/profile.rs` for the tracked numbers).
//!
//! One `LevelSim` per design (AM, CB and RB at 32 bits) steps 256
//! pre-encoded uniform pairs; each of the 15 reps starts from `reset` +
//! `settle`, so every rep replays identical work. Single runs on a shared
//! host swing by 2×, so the line to compare across builds is the minimum
//! µs/step (the median is printed beside it). The FNV-1a digest folds
//! every step's `(delay_ns, events)` of the first rep: two builds with the
//! same digest simulated the same waveforms.
//!
//! The lane lines step CB and RB at 16 bits (the Monte Carlo shape) as
//! the 8 lanes of one `LaneSim`, lane `l` under every gate delay scaled by
//! `1 + 0.02 l`; each rep loads a fresh `LaneSim`. They report µs per
//! lane-step (a step's time over its 8 lanes) and fold every lane's
//! `(delay_ns, events)` into the digest.
//!
//! Run with `cargo run --release -p agemul-bench --example levelprof`.

use std::time::Instant;

use agemul::{calibrated_delay_model, PatternSet};
use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::Logic;
use agemul_netlist::{DelayAssignment, LaneSim, LevelSim};

const WIDTH: usize = 32;
const STEPS: usize = 256;
const REPS: usize = 15;

const LANE_WIDTH: usize = 16;

const LANE_DESIGNS: [(&str, MultiplierKind); 2] = [
    ("CB16", MultiplierKind::ColumnBypass),
    ("RB16", MultiplierKind::RowBypass),
];

const DESIGNS: [(&str, MultiplierKind); 3] = [
    ("AM32", MultiplierKind::Array),
    ("CB32", MultiplierKind::ColumnBypass),
    ("RB32", MultiplierKind::RowBypass),
];

/// FNV-1a over 64-bit words, one byte at a time.
fn fnv1a(hash: u64, word: u64) -> u64 {
    word.to_le_bytes().iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

fn main() {
    let model = calibrated_delay_model().unwrap();
    for (label, kind) in DESIGNS {
        let m = MultiplierCircuit::generate(kind, WIDTH).unwrap();
        let topo = m.netlist().topology().unwrap();
        let delays = DelayAssignment::uniform(m.netlist(), model);
        let encoded: Vec<Vec<Logic>> = PatternSet::uniform(WIDTH, STEPS, 7)
            .pairs()
            .iter()
            .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
            .collect();
        let zeros = m.encode_inputs(0, 0).unwrap();

        let mut sim = LevelSim::new(m.netlist(), &topo, delays);
        let mut us_per_step = Vec::with_capacity(REPS);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut events = 0u64;
        for rep in 0..REPS {
            sim.reset();
            sim.settle(&zeros).unwrap();
            let t0 = Instant::now();
            for p in &encoded {
                let t = sim.step(p).unwrap();
                if rep == 0 {
                    digest = fnv1a(fnv1a(digest, t.delay_ns.to_bits()), t.events);
                    events += t.events;
                }
            }
            us_per_step.push(t0.elapsed().as_secs_f64() * 1e6 / STEPS as f64);
        }
        us_per_step.sort_by(f64::total_cmp);
        println!(
            "{label}: gates={} min={:.1} us/step median={:.1} us/step events/step={} digest={digest:016x}",
            m.netlist().gate_count(),
            us_per_step[0],
            us_per_step[REPS / 2],
            events / STEPS as u64,
        );
    }
    for (label, kind) in LANE_DESIGNS {
        let m = MultiplierCircuit::generate(kind, LANE_WIDTH).unwrap();
        let n = m.netlist();
        let topo = n.topology().unwrap();
        let lanes: Vec<DelayAssignment> = (0..LaneSim::LANES)
            .map(|l| {
                let factors = vec![1.0 + 0.02 * l as f64; n.gate_count()];
                DelayAssignment::with_factors(n, model, &factors).unwrap()
            })
            .collect();
        let encoded: Vec<Vec<Logic>> = PatternSet::uniform(LANE_WIDTH, STEPS, 7)
            .pairs()
            .iter()
            .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
            .collect();
        let zeros = m.encode_inputs(0, 0).unwrap();

        let base = LevelSim::new(n, &topo, lanes[0].clone());
        let lane_steps = (STEPS * LaneSim::LANES) as f64;
        let mut us_per_lane_step = Vec::with_capacity(REPS);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        let mut events = 0u64;
        for rep in 0..REPS {
            let mut sim = LaneSim::new(&base);
            for d in &lanes {
                sim.push_lane(d);
            }
            sim.settle(&zeros).unwrap();
            let t0 = Instant::now();
            for p in &encoded {
                let timings = sim.step(p).unwrap();
                if rep == 0 {
                    for t in timings {
                        digest = fnv1a(fnv1a(digest, t.delay_ns.to_bits()), t.events);
                        events += t.events;
                    }
                }
            }
            us_per_lane_step.push(t0.elapsed().as_secs_f64() * 1e6 / lane_steps);
        }
        us_per_lane_step.sort_by(f64::total_cmp);
        println!(
            "{label}x{}: gates={} min={:.1} us/lane-step median={:.1} us/lane-step events/lane-step={} digest={digest:016x}",
            LaneSim::LANES,
            n.gate_count(),
            us_per_lane_step[0],
            us_per_lane_step[REPS / 2],
            events / lane_steps as u64,
        );
    }
}
