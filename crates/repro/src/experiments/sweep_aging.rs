//! `sweep` — the 7-year × multi-period aging sweep as a *driver* study.
//!
//! Every other experiment asks "what does the paper's figure look like";
//! this one asks "how fast can we regenerate the whole aged design space".
//! The sweep walks the full configuration grid — every (year, cycle
//! period) pair on the 32×32 column- and row-bypassing multipliers — and
//! needs a timing profile per configuration before it can replay the
//! variable-latency engine.
//!
//! The profile depends on the year only, so each year is profiled once,
//! from scratch under factors quantized onto the shared
//! [`AGING_FACTOR_GRID`](agemul::AGING_FACTOR_GRID), and every period of
//! that year replays the engine over it. Profiling runs on the context's
//! engine and deadline token, so a supervisor can degrade or cancel it.

use std::time::Instant;

use agemul::{quantize_factors, run_engine, EngineConfig, SimEngine};
use agemul_circuits::MultiplierKind;

use super::{f3, period_grid, skips};
use crate::{Context, Report, Result, Table};

fn sweep_study(
    ctx: &mut Context,
    width: usize,
    skip: u32,
    periods: &[f64],
    id: &str,
) -> Result<Report> {
    let count = ctx.scale().year_patterns(width);
    let years: Vec<f64> = (0..=7).map(f64::from).collect();
    let configs = years.len() * periods.len();

    let mut report = Report::new(
        id,
        format!(
            "{width}×{width}, Skip-{skip}, years 0–7 × {} periods ({count} patterns/yr)",
            periods.len(),
        ),
    );

    for (name, kind) in [
        ("A-VLCB", MultiplierKind::ColumnBypass),
        ("A-VLRB", MultiplierKind::RowBypass),
    ] {
        let design = ctx.design(kind, width)?;
        let workload = ctx.uniform_workload(width, count);
        let pairs = workload.pairs();

        let mut rows: Vec<Vec<String>> = periods.iter().map(|p| vec![f3(*p)]).collect();
        let mut profiling = 0.0_f64;
        let mut replaying = 0.0_f64;

        for &y in &years {
            // The BTI pipeline (workload statistics + aging model) runs
            // outside the profiling clock: it is not what this experiment
            // measures.
            let quant = if y > 0.0 {
                Some(quantize_factors(&ctx.factors(kind, width, y)?))
            } else {
                None
            };
            let t0 = Instant::now();
            let profile = design.profile_supervised(
                pairs,
                quant.as_deref(),
                SimEngine::Level,
                ctx.cancel(),
            )?;
            profiling += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            for (row, &period) in rows.iter_mut().zip(periods) {
                let metrics = run_engine(&profile, &EngineConfig::adaptive(period, skip));
                row.push(f3(metrics.avg_latency_ns()));
            }
            replaying += t1.elapsed().as_secs_f64();
        }

        let year_headers: Vec<String> = std::iter::once("period_ns".to_string())
            .chain(years.iter().map(|y| format!("year {y:.0}")))
            .collect();
        let headers: Vec<&str> = year_headers.iter().map(String::as_str).collect();
        let mut t = Table::new(
            format!("{name} average latency ns by period and year"),
            &headers,
        );
        for row in &rows {
            t.row(row);
        }
        t.note(format!(
            "{configs} configurations from {} year profiles: profiled in {profiling:.1}s, \
             replayed in {replaying:.1}s",
            years.len()
        ));
        report.push(t);
    }
    Ok(report)
}

/// `sweep` — 7-year × 17-period profiling-driver study on the 32×32
/// column- and row-bypassing multipliers (Skip-15, the paper's 32-bit
/// setting).
///
/// # Errors
///
/// Propagates simulation failures, including a supervisor's deadline
/// cancellation.
pub fn sweep(ctx: &mut Context) -> Result<Report> {
    sweep_study(ctx, 32, skips(32)[0], &period_grid(32), "sweep")
}
