//! Figs. 26/27 — latency, power, and EDP over a seven-year horizon.

use agemul::{area_report, energy_report, run_engine, Architecture, EnergyInputs, EngineConfig};
use agemul_circuits::MultiplierKind;
use agemul_power::PowerModel;

use crate::{Context, Report, Result, Table};

/// One design's trajectory across the years.
struct Series {
    name: &'static str,
    latency_ns: Vec<f64>,
    power_uw: Vec<f64>,
    edp: Vec<f64>,
    errors: u64,
}

fn seven_year_study(
    ctx: &mut Context,
    width: usize,
    cycle_ns: f64,
    skip: u32,
    id: &str,
) -> Result<Report> {
    let power_model = PowerModel::ptm_32nm_hk();
    let count = ctx.scale().year_patterns(width);
    let years: Vec<f64> = (0..=7).map(f64::from).collect();

    let mut series: Vec<Series> = Vec::new();

    // Fixed-latency designs: latency is the aged critical path.
    for (name, kind) in [
        ("AM", MultiplierKind::Array),
        ("FLCB", MultiplierKind::ColumnBypass),
        ("FLRB", MultiplierKind::RowBypass),
    ] {
        let design = ctx.design(kind, width)?;
        let activity = ctx.activity(kind, width)?;
        let area = area_report(&design, Architecture::FixedLatency, skip)?;
        let mut s = Series {
            name,
            latency_ns: Vec::new(),
            power_uw: Vec::new(),
            edp: Vec::new(),
            errors: 0,
        };
        for &y in &years {
            let latency = ctx.critical(kind, width, y)?;
            let dvth = ctx.bti().delta_vth_v(y, 0.5);
            let e = energy_report(
                &design,
                EnergyInputs {
                    power: &power_model,
                    activity: &activity,
                    area: &area,
                    avg_cycles_per_op: 1.0,
                    avg_latency_ns: latency,
                    delta_vth_v: dvth,
                },
            );
            s.latency_ns.push(latency);
            s.power_uw.push(e.average_power_uw(latency));
            s.edp.push(e.edp_fj_ns(latency));
        }
        series.push(s);
    }

    // Adaptive variable-latency designs at the fixed cycle period.
    for (name, kind) in [
        ("A-VLCB", MultiplierKind::ColumnBypass),
        ("A-VLRB", MultiplierKind::RowBypass),
    ] {
        let design = ctx.design(kind, width)?;
        let activity = ctx.activity(kind, width)?;
        let area = area_report(&design, Architecture::AdaptiveVariableLatency, skip)?;
        let mut s = Series {
            name,
            latency_ns: Vec::new(),
            power_uw: Vec::new(),
            edp: Vec::new(),
            errors: 0,
        };
        for &y in &years {
            let profile = ctx.profile(kind, width, y, count)?;
            let metrics = run_engine(&profile, &EngineConfig::adaptive(cycle_ns, skip));
            s.errors += metrics.errors;
            let latency = metrics.avg_latency_ns();
            let dvth = ctx.bti().delta_vth_v(y, 0.5);
            let e = energy_report(
                &design,
                EnergyInputs {
                    power: &power_model,
                    activity: &activity,
                    area: &area,
                    avg_cycles_per_op: metrics.avg_cycles(),
                    avg_latency_ns: latency,
                    delta_vth_v: dvth,
                },
            );
            s.latency_ns.push(latency);
            s.power_uw.push(e.average_power_uw(latency));
            s.edp.push(e.edp_fj_ns(latency));
        }
        series.push(s);
    }

    let mut report = Report::new(
        id,
        format!(
            "{width}×{width}, cycle {cycle_ns} ns, Skip-{skip}, years 0–7 ({count} patterns/yr)"
        ),
    );
    let am0_latency = series[0].latency_ns[0];
    let am0_power = series[0].power_uw[0];
    let am0_edp = series[0].edp[0];

    let headers: Vec<&str> = std::iter::once("year")
        .chain(series.iter().map(|s| s.name))
        .collect();
    let build = |title: &str, pick: &dyn Fn(&Series, usize) -> f64, base: f64| -> Table {
        let mut t = Table::new(title, &headers);
        for (yi, y) in years.iter().enumerate() {
            let mut row: Vec<String> = vec![format!("{y:.0}")];
            for s in &series {
                row.push(format!("{:.3}", pick(s, yi) / base));
            }
            t.row(&row);
        }
        t
    };

    let mut latency = build(
        "normalized average latency (AM year 0 = 1)",
        &|s, i| s.latency_ns[i],
        am0_latency,
    );
    for s in &series {
        let growth = s.latency_ns[7] / s.latency_ns[0] - 1.0;
        latency.note(format!(
            "{} latency growth over 7y: {:+.2}%",
            s.name,
            100.0 * growth
        ));
    }
    let vl_errors: u64 = series[3].errors + series[4].errors;
    latency.note(format!(
        "razor errors across all A-VL runs: {vl_errors} (paper: none at this period)"
    ));
    report.push(latency);

    report.push(build(
        "normalized average power (AM year 0 = 1)",
        &|s, i| s.power_uw[i],
        am0_power,
    ));
    let mut edp = build("normalized EDP (AM year 0 = 1)", &|s, i| s.edp[i], am0_edp);
    let avg = |s: &Series| s.edp.iter().sum::<f64>() / s.edp.len() as f64;
    let am_avg = avg(&series[0]);
    edp.note(format!(
        "average EDP vs AM: A-VLCB {:+.1}%, A-VLRB {:+.1}%",
        100.0 * (avg(&series[3]) / am_avg - 1.0),
        100.0 * (avg(&series[4]) / am_avg - 1.0)
    ));
    report.push(edp);
    Ok(report)
}

/// Fig. 26 — 16×16 normalized latency/power/EDP across seven years at a
/// 1.2 ns cycle with Skip-7 (the paper's setting, chosen so no timing
/// violations occur).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig26(ctx: &mut Context) -> Result<Report> {
    seven_year_study(ctx, 16, 1.2, 7, "fig26")
}

/// Fig. 27 — 32×32 normalized latency/power/EDP across seven years at a
/// 2.3 ns cycle with Skip-15 (the paper's §IV-E says "skip number is 7",
/// which we read as a typo for the 32-bit skip used everywhere else).
///
/// # Errors
///
/// Propagates simulation failures.
pub fn fig27(ctx: &mut Context) -> Result<Report> {
    seven_year_study(ctx, 32, 2.3, 15, "fig27")
}
