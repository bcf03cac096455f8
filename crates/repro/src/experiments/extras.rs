//! Beyond the paper: design-choice ablations and extension architectures.

use agemul::{
    run_engine, AhlConfig, EngineConfig, MultiplierDesign, PatternSet, RazorConfig, SimEngine,
};
use agemul_circuits::MultiplierKind;

use super::{f3, pct, period_grid, skips};
use crate::{Context, Report, Result, Table};

/// Design-choice ablations (`DESIGN.md` §"Design choices to ablate"):
/// skip number, aging-indicator threshold and stickiness, Razor penalty
/// and detection window, and the static-vs-observed timing margin.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn ablations(ctx: &mut Context) -> Result<Report> {
    let width = 16usize;
    let count = ctx.scale().latency_patterns(width);
    let mut report = Report::new("ablations", format!("design ablations, {width}×{width}"));

    let fresh = ctx.profile(MultiplierKind::ColumnBypass, width, 0.0, count)?;
    let aged = ctx.profile(MultiplierKind::ColumnBypass, width, 7.0, count)?;

    // 1. Skip number at a fixed aggressive period.
    let mut skip_table = Table::new(
        "skip threshold (A-VLCB, period 0.95 ns, year 0)",
        &["skip", "one-cycle", "errors/10k", "avg latency (ns)"],
    );
    for skip in 5..=11u32 {
        let m = run_engine(&fresh, &EngineConfig::adaptive(0.95, skip));
        skip_table.row(&[
            format!("Skip-{skip}"),
            pct(m.one_cycle_ratio()),
            format!("{:.0}", m.errors_per_10k_cycles()),
            f3(m.avg_latency_ns()),
        ]);
    }
    skip_table.note("the paper's Skip-7/8/9 window brackets the latency minimum");
    report.push(skip_table);

    // 2. Aging-indicator threshold and stickiness on the aged circuit.
    let mut ahl_table = Table::new(
        "aging indicator (A-VLCB, period 1.00 ns, 7-year aged)",
        &["config", "errors/10k", "avg latency (ns)", "aged mode"],
    );
    let configs: [(&str, AhlConfig); 5] = [
        (
            "threshold 5%",
            AhlConfig {
                error_threshold: 5,
                ..AhlConfig::paper()
            },
        ),
        ("threshold 10% (paper)", AhlConfig::paper()),
        (
            "threshold 20%",
            AhlConfig {
                error_threshold: 20,
                ..AhlConfig::paper()
            },
        ),
        (
            "threshold 40%",
            AhlConfig {
                error_threshold: 40,
                ..AhlConfig::paper()
            },
        ),
        (
            "10%, non-latching",
            AhlConfig {
                sticky: false,
                ..AhlConfig::paper()
            },
        ),
    ];
    for (label, ahl) in configs {
        let cfg = EngineConfig {
            ahl,
            ..EngineConfig::adaptive(1.00, 7)
        };
        let m = run_engine(&aged, &cfg);
        ahl_table.row(&[
            label.to_string(),
            format!("{:.0}", m.errors_per_10k_cycles()),
            f3(m.avg_latency_ns()),
            if m.aged_mode_entered { "yes" } else { "no" }.to_string(),
        ]);
    }
    ahl_table.note("a lazier threshold tolerates more re-execution; non-latching oscillates");
    report.push(ahl_table);

    // 3. Razor re-execution penalty sensitivity.
    let mut razor_table = Table::new(
        "razor penalty & window (A-VLCB, period 0.85 ns, year 0)",
        &["config", "errors/10k", "undetected", "avg latency (ns)"],
    );
    for penalty in [1u32, 2, 3, 5] {
        let cfg = EngineConfig {
            error_penalty_cycles: penalty,
            ..EngineConfig::adaptive(0.85, 7)
        };
        let m = run_engine(&fresh, &cfg);
        razor_table.row(&[
            format!(
                "penalty {penalty} cycles{}",
                if penalty == 3 { " (paper)" } else { "" }
            ),
            format!("{:.0}", m.errors_per_10k_cycles()),
            m.undetected.to_string(),
            f3(m.avg_latency_ns()),
        ]);
    }
    for window in [1.0f64, 0.5, 0.1] {
        let cfg = EngineConfig {
            razor: RazorConfig {
                window_factor: window,
            },
            ..EngineConfig::adaptive(0.70, 7)
        };
        let m = run_engine(&fresh, &cfg);
        razor_table.row(&[
            format!("window {window}× @0.70 ns"),
            format!("{:.0}", m.errors_per_10k_cycles()),
            m.undetected.to_string(),
            f3(m.avg_latency_ns()),
        ]);
    }
    razor_table.note("a shrunken shadow window trades detected errors for silent corruption");
    report.push(razor_table);

    // 4. Static sign-off bound vs worst observed sensitized delay.
    let mut timing_table = Table::new(
        "static sign-off vs observed dynamic worst case (year 0)",
        &["multiplier", "static (ns)", "observed max (ns)", "margin"],
    );
    for kind in MultiplierKind::PAPER {
        let stat = ctx.critical(kind, width, 0.0)?;
        let profile = ctx.profile(kind, width, 0.0, count)?;
        let dynamic = profile.max_delay_ns();
        timing_table.row(&[
            kind.label().to_string(),
            f3(stat),
            f3(dynamic),
            format!("{:+.1}%", 100.0 * (stat / dynamic - 1.0)),
        ]);
    }
    timing_table
        .note("clocking at the observed max instead of the bound risks unsensitized-path escapes");
    report.push(timing_table);

    Ok(report)
}

/// Extension architectures (Wallace tree, radix-4 Booth): how the paper's
/// variable-latency recipe fares on multipliers it was not designed for.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn extensions(ctx: &mut Context) -> Result<Report> {
    let width = 16usize;
    let count = ctx.scale().latency_patterns(width).min(5_000);
    let mut report = Report::new(
        "extensions",
        format!("Wallace/Booth extension study, {width}×{width} ({count} patterns)"),
    );
    let patterns = PatternSet::uniform(width, count, 0x0A6E_0001);

    let mut table = Table::new(
        "variable-latency fit by architecture",
        &[
            "kind",
            "gates",
            "critical (ns)",
            "avg delay (ns)",
            "delay/zeros corr",
            "best A-VL (ns)",
            "vs fixed",
        ],
    );
    for kind in MultiplierKind::ALL {
        let design = MultiplierDesign::new(kind, width)?;
        let critical = design.critical_delay_ns(None)?;
        let profile =
            design.profile_supervised(patterns.pairs(), None, SimEngine::Level, ctx.cancel())?;

        // Pearson correlation between judged zero count and delay.
        let n = profile.len() as f64;
        let (mut sz, mut sd, mut szz, mut sdd, mut szd) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for r in profile.records() {
            let z = f64::from(r.zeros);
            sz += z;
            sd += r.delay_ns;
            szz += z * z;
            sdd += r.delay_ns * r.delay_ns;
            szd += z * r.delay_ns;
        }
        let cov = szd / n - (sz / n) * (sd / n);
        let var_z = szz / n - (sz / n) * (sz / n);
        let var_d = sdd / n - (sd / n) * (sd / n);
        let corr = if var_z > 0.0 && var_d > 0.0 {
            cov / (var_z * var_d).sqrt()
        } else {
            0.0
        };

        // Best adaptive deployment over the standard grid and skips.
        let mut best = f64::INFINITY;
        for period in period_grid(width) {
            for skip in skips(width) {
                let m = run_engine(&profile, &EngineConfig::adaptive(period, skip));
                best = best.min(m.avg_latency_ns());
            }
        }

        table.row(&[
            kind.label().to_string(),
            design.circuit().netlist().gate_count().to_string(),
            f3(critical),
            f3(profile.avg_delay_ns()),
            format!("{corr:+.2}"),
            f3(best),
            format!("{:+.1}%", 100.0 * (best / critical - 1.0)),
        ]);
    }
    table.note("bypassing multipliers: strong negative correlation → VL pays; Wallace/Booth: weak correlation and short critical paths → VL pays less, as expected");
    report.push(table);

    // Process variation (related work [19]): the same elastic machinery
    // that absorbs aging absorbs time-zero variation.
    let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, width)?;
    let mut var_table = Table::new(
        "process-variation tolerance (A-VLCB, Skip-7, period 0.95 ns)",
        &[
            "sigma",
            "static critical (ns)",
            "avg latency (ns)",
            "errors/10k",
        ],
    );
    for sigma in [0.0f64, 0.05, 0.10] {
        let factors =
            agemul_aging::VariationModel::new(sigma).factors(design.circuit().netlist(), 0x5EED);
        let crit = design.critical_delay_ns(Some(&factors))?;
        let profile = design.profile_supervised(
            patterns.pairs(),
            Some(&factors),
            SimEngine::Level,
            ctx.cancel(),
        )?;
        let m = run_engine(&profile, &EngineConfig::adaptive(0.95, 7));
        var_table.row(&[
            format!("{:.0}%", 100.0 * sigma),
            f3(crit),
            f3(m.avg_latency_ns()),
            format!("{:.0}", m.errors_per_10k_cycles()),
        ]);
    }
    var_table.note(
        "a fixed-latency design must guard-band the grown critical path; \
         the adaptive design absorbs variation through Razor + AHL at a \
         small latency cost",
    );
    report.push(var_table);
    Ok(report)
}
