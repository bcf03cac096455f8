//! Lifetime planning: what happens to each deployment style as the silicon
//! ages year by year — including what the paper's §V warns about when
//! electromigration is stacked on top of BTI.
//!
//! ```sh
//! cargo run --release --example lifetime_planning
//! ```

use agemul_aging::electromigration::{compose_factors, EmModel};
use agemul_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
    let patterns = PatternSet::uniform(16, 3_000, 99);
    let stats = design.workload_stats(patterns.pairs())?;
    let activity = design.switching_activity(patterns.pairs(), None)?;
    let bti = BtiModel::reference();
    let em = EmModel::nominal();

    // A fixed-latency deployment signs off at year-0 timing plus a 5 %
    // guard band (the "overdesign" the paper calls pessimistic).
    let signoff = design.critical_delay_ns(None)? * 1.05;
    // The adaptive deployment clocks aggressively and lets Razor + AHL
    // absorb the drift.
    let vl_period = 1.00;

    println!("fixed-latency sign-off: {signoff:.3} ns (year-0 critical + 5% guard band)");
    println!("adaptive VL clock:      {vl_period:.3} ns (Skip-7)\n");
    println!("year   crit path   fixed OK?   A-VL latency   errors/10k   aged mode");

    for year in 0..=10 {
        let y = f64::from(year);
        let bti_factors = aging_factors(design.circuit().netlist(), &stats, &bti, y);
        let em_factors = em.wire_factors(design.circuit().netlist(), &activity, y);
        let factors = compose_factors(&bti_factors, &em_factors);

        let crit = design.critical_delay_ns(Some(&factors))?;
        let fixed_ok = crit <= signoff;

        let profile = design.profile(patterns.pairs(), Some(&factors))?;
        let m = run_engine(&profile, &EngineConfig::adaptive(vl_period, 7));

        println!(
            "{year:4}   {crit:7.3} ns   {}   {:9.3} ns   {:9.0}    {}",
            if fixed_ok { "  yes    " } else { " *FAIL*  " },
            m.avg_latency_ns(),
            m.errors_per_10k_cycles(),
            if m.aged_mode_entered {
                "engaged"
            } else {
                "—"
            },
        );
    }

    println!(
        "\nthe guard-banded fixed design eventually violates its own sign-off\n\
         (silent timing failure in the field), while the adaptive design\n\
         keeps meeting its latency budget by demoting borderline patterns —\n\
         the paper's reliability argument, with electromigration included."
    );
    Ok(())
}
