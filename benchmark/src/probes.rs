//! Layer probes: after the timed phase, call the layers that sit inside one
//! entry point directly, on the workload's own design and operand pairs,
//! and record the median time per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use agemul::{CoreError, LaneWidth, MultiplierDesign};
use agemul_aging::{aging_factors, BtiModel, VariationModel};
use agemul_circuits::MultiplierCircuit;
use agemul_logic::Logic;
use agemul_netlist::LevelSim;

use crate::metrics::{median, Readings};

/// Median seconds per call of `f`, over at least 3 calls and as many more
/// as fit in `budget` (at most 200).
fn median_secs(budget: Duration, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut secs = Vec::new();
    while secs.len() < 3 || (start.elapsed() < budget && secs.len() < 200) {
        let t = Instant::now();
        f();
        secs.push(t.elapsed().as_secs_f64());
    }
    median(&secs)
}

/// Probes every netlist, circuit and aging layer on `design` × `pairs`,
/// spending about `budget` on each.
///
/// # Errors
///
/// Propagates simulation errors (none occur on a generated design).
pub fn probe_layers(
    design: &MultiplierDesign,
    pairs: &[(u64, u64)],
    bti: &BtiModel,
    budget: Duration,
    readings: &mut Readings,
) -> Result<(), CoreError> {
    let (kind, width) = (design.kind(), design.width());
    let netlist = design.circuit().netlist();
    let topology = design.topology();
    let n = pairs.len() as u64;

    let generate = median_secs(budget, || {
        black_box(MultiplierCircuit::generate(kind, width).map(|c| c.netlist().gate_count())).ok();
    });
    readings.set("circuits.generate_ms", generate * 1e3, 1);
    let topo = median_secs(budget, || {
        black_box(netlist.topology().map(|t| t.depth())).ok();
    });
    readings.set("netlist.topology_ms", topo * 1e3, 1);

    let nominal = design.delay_assignment(None)?;
    let plan = median_secs(budget, || {
        black_box(LevelSim::new(netlist, topology, nominal.clone()));
    });
    readings.set("netlist.plan_us", plan * 1e6, 1);

    let mut zeros = Vec::new();
    design.circuit().encode_inputs_into(0, 0, &mut zeros)?;
    let encoded: Vec<Vec<Logic>> = pairs
        .iter()
        .map(|&(a, b)| design.circuit().encode_inputs(a, b))
        .collect::<Result<_, _>>()?;
    let mut sim = LevelSim::new(netlist, topology, nominal.clone());
    let settle = median_secs(budget, || {
        black_box(sim.settle(&zeros)).ok();
    });
    readings.set("netlist.settle_us", settle * 1e6, 1);

    // One timed pass over the workload's pairs, as the profiler runs it.
    sim.settle(&zeros)?;
    let (mut events, mut toggles) = (0u64, 0u64);
    let t = Instant::now();
    for pattern in &encoded {
        let timing = sim.step(pattern)?;
        events += timing.events;
        toggles += timing.gate_toggles;
    }
    let per_step = t.elapsed().as_secs_f64() / n.max(1) as f64;
    readings.set("netlist.step_us", per_step * 1e6, n);
    readings.set(
        "netlist.events_per_step",
        events as f64 / n.max(1) as f64,
        n,
    );
    readings.set(
        "netlist.toggles_per_step",
        toggles as f64 / n.max(1) as f64,
        n,
    );

    let stats = design.workload_stats(pairs)?;
    let aged = design.delay_assignment(Some(&aging_factors(netlist, &stats, bti, 7.0)))?;
    let mut flip = false;
    let retime = median_secs(budget, || {
        flip = !flip;
        sim.retime(if flip { &aged } else { &nominal });
    });
    readings.set("netlist.retime_us", retime * 1e6, 1);

    let verify = median_secs(budget, || {
        black_box(design.verify_functional_wide(pairs, LaneWidth::W64)).ok();
    });
    readings.set("netlist.verify_us", verify * 1e6, n);
    let stats_secs = median_secs(budget, || {
        black_box(design.workload_stats(pairs)).ok();
    });
    readings.set("netlist.stats_ms", stats_secs * 1e3, n);
    let factors = median_secs(budget, || {
        black_box(aging_factors(netlist, &stats, bti, 7.0));
    });
    readings.set("aging.factors_ms", factors * 1e3, 1);
    let variation = VariationModel::new(0.05);
    let mut seed = 0u64;
    let vary = median_secs(budget, || {
        seed += 1;
        black_box(variation.factors(netlist, seed));
    });
    readings.set("aging.variation_ms", vary * 1e3, 1);
    Ok(())
}
