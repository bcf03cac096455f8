//! Design-space exploration: pick the best (kind, skip, period) deployment
//! for a latency target under an area budget.
//!
//! ```sh
//! cargo run --release --example design_space
//! ```

use agemul_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let width = 16;
    let patterns = PatternSet::uniform(width, 4_000, 2024);

    println!("16×16 design-space sweep (year 0 and year 7), uniform workload\n");
    println!("kind  skip  period   latency@0   latency@7   errors@7   area (T)");

    let bti = BtiModel::reference();
    let mut best: Option<(String, f64)> = None;

    for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
        let design = MultiplierDesign::new(kind, width)?;
        let stats = design.workload_stats(patterns.pairs())?;
        let factors = aging_factors(design.circuit().netlist(), &stats, &bti, 7.0);
        let fresh = design.profile(patterns.pairs(), None)?;
        let aged = design.profile(patterns.pairs(), Some(&factors))?;

        for skip in [7u32, 8, 9] {
            let area = area_report(&design, Architecture::AdaptiveVariableLatency, skip)?;
            // Best period for the *aged* circuit — lifetime-aware tuning.
            let mut chosen: Option<(f64, RunMetrics, RunMetrics)> = None;
            for step in 0..=14 {
                let period = 0.60 + 0.05 * f64::from(step);
                let m7 = run_engine(&aged, &EngineConfig::adaptive(period, skip));
                let m0 = run_engine(&fresh, &EngineConfig::adaptive(period, skip));
                let better = chosen
                    .as_ref()
                    .is_none_or(|(_, _, old7)| m7.avg_latency_ns() < old7.avg_latency_ns());
                if better {
                    chosen = Some((period, m0, m7));
                }
            }
            let (period, m0, m7) = chosen.expect("sweep is non-empty");
            println!(
                "{:4}  {skip:4}  {period:.2} ns   {:7.3} ns   {:7.3} ns   {:7.0}   {:8}",
                kind.label(),
                m0.avg_latency_ns(),
                m7.avg_latency_ns(),
                m7.errors_per_10k_cycles(),
                area.total_transistors(),
            );
            let label = format!("{} Skip-{skip} @ {period:.2} ns", kind.label());
            if best.as_ref().is_none_or(|(_, l)| m7.avg_latency_ns() < *l) {
                best = Some((label, m7.avg_latency_ns()));
            }
        }
    }

    let (label, latency) = best.expect("at least one configuration");
    println!("\nlifetime-optimal configuration: {label} ({latency:.3} ns average at year 7)");
    Ok(())
}
