//! Ad-hoc profiling driver for the levelized kernel (not a benchmark —
//! see `benches/profile.rs` for the tracked numbers).

use std::time::Instant;

use agemul::{calibrated_delay_model, PatternSet};
use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::Logic;
use agemul_netlist::{DelayAssignment, EventSim, LevelSim};

fn main() {
    let width = 32;
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, width).unwrap();
    let topo = m.netlist().topology().unwrap();
    let delays = DelayAssignment::uniform(m.netlist(), calibrated_delay_model().unwrap());
    let encoded: Vec<Vec<Logic>> = PatternSet::uniform(width, 256, 7)
        .pairs()
        .iter()
        .map(|&(a, b)| m.encode_inputs(a, b).unwrap())
        .collect();
    let zeros = m.encode_inputs(0, 0).unwrap();

    println!(
        "gates={} nets={} depth={}",
        m.netlist().gate_count(),
        m.netlist().net_count(),
        topo.depth()
    );

    let mut sim = LevelSim::new(m.netlist(), &topo, delays.clone());
    sim.settle(&zeros).unwrap();
    let mut events = 0u64;
    let mut toggles = 0u64;
    let t0 = Instant::now();
    for p in &encoded {
        let t = sim.step(p).unwrap();
        events += t.events;
        toggles += t.gate_toggles;
    }
    let dt = t0.elapsed();
    println!(
        "level: {:?} total, {:.1} us/step, events/step={}, gate_toggles/step={}, ns/event={:.1}",
        dt,
        dt.as_secs_f64() * 1e6 / 256.0,
        events / 256,
        toggles / 256,
        dt.as_secs_f64() * 1e9 / events as f64
    );

    let mut sim = EventSim::new(m.netlist(), &topo, delays.clone());
    sim.settle(&zeros).unwrap();
    let t0 = Instant::now();
    for p in &encoded {
        sim.step(p).unwrap();
    }
    let dt = t0.elapsed();
    println!(
        "event: {:?} total, {:.1} us/step",
        dt,
        dt.as_secs_f64() * 1e6 / 256.0
    );
}
