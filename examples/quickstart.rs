//! Quickstart: build an aging-aware variable-latency multiplier and watch
//! it beat its fixed-latency twin.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use agemul_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 16×16 column-bypassing multiplier with the workspace-calibrated
    //    delay model (16×16 array multiplier critical path = 1.32 ns).
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
    println!(
        "column-bypassing 16×16: {} gates, critical path {:.3} ns",
        design.circuit().netlist().gate_count(),
        design.critical_delay_ns(None)?
    );

    // 2. Profile a workload: one event-driven timing simulation records
    //    every operation's sensitized delay and judged zero count.
    let patterns = PatternSet::uniform(16, 5_000, 42);
    let profile = design.profile(patterns.pairs(), None)?;
    println!(
        "workload: {} ops, avg sensitized delay {:.3} ns, max {:.3} ns",
        profile.len(),
        profile.avg_delay_ns(),
        profile.max_delay_ns()
    );

    // 3. Deploy fixed-latency (clocked at the critical path) vs the
    //    proposed adaptive variable-latency architecture (Skip-7, a short
    //    0.95 ns clock, Razor recovery on mispredictions).
    let fixed = run_fixed_latency(profile.len() as u64, design.critical_delay_ns(None)?);
    let adaptive = run_engine(&profile, &EngineConfig::adaptive(0.95, 7));

    println!("\n               avg latency   cycles/op   razor errors");
    println!(
        "fixed-latency    {:7.3} ns     {:5.2}          {:>5}",
        fixed.avg_latency_ns(),
        fixed.avg_cycles(),
        fixed.errors
    );
    println!(
        "adaptive VL      {:7.3} ns     {:5.2}          {:>5}",
        adaptive.avg_latency_ns(),
        adaptive.avg_cycles(),
        adaptive.errors
    );
    println!(
        "\nthe adaptive design is {:.1}% faster on average",
        100.0 * (1.0 - adaptive.avg_latency_ns() / fixed.avg_latency_ns())
    );

    // 4. The same machinery after seven years of NBTI/PBTI stress: compute
    //    per-gate aging factors from the workload's signal probabilities
    //    and re-profile.
    let stats = design.workload_stats(patterns.pairs())?;
    let bti = BtiModel::reference();
    let factors = aging_factors(design.circuit().netlist(), &stats, &bti, 7.0);
    let aged_profile = design.profile(patterns.pairs(), Some(&factors))?;
    let aged_fixed = run_fixed_latency(
        aged_profile.len() as u64,
        design.critical_delay_ns(Some(&factors))?,
    );
    let aged_adaptive = run_engine(&aged_profile, &EngineConfig::adaptive(0.95, 7));
    println!(
        "\nafter 7 years: fixed {:.3} ns (+{:.1}%), adaptive {:.3} ns (+{:.1}%), \
         aged-mode engaged: {}",
        aged_fixed.avg_latency_ns(),
        100.0 * (aged_fixed.avg_latency_ns() / fixed.avg_latency_ns() - 1.0),
        aged_adaptive.avg_latency_ns(),
        100.0 * (aged_adaptive.avg_latency_ns() / adaptive.avg_latency_ns() - 1.0),
        aged_adaptive.aged_mode_entered
    );
    Ok(())
}
