//! `mc` — Monte Carlo yield-vs-lifetime study over process corners.
//!
//! The paper's figures evaluate one nominal die per architecture; real
//! silicon spreads. This experiment samples lognormal per-gate time-zero
//! variation ([`VariationModel`](agemul_aging::VariationModel)) on top of
//! the calibrated BTI aging trajectory and asks, at every lifetime point:
//! what fraction of dies still meets the short cycle
//!
//! * **AHL off** (fixed-latency baseline): a die passes iff its workload's
//!   longest sensitized path fits the single short cycle;
//! * **AHL on** (adaptive): a die passes iff the two-cycle fallback
//!   catches every slow operation (no undetected errors) — the
//!   aging-aware design's whole value proposition, read as a yield curve.
//!
//! Each corner reuses one compiled levelized kernel across the lifetime
//! axis ([`CornerProfiler`](agemul::CornerProfiler) re-timing; see
//! `agemul::montecarlo`). The campaign polls the context's deadline
//! token, so a supervised `repro` batch can cancel it like any other
//! experiment.
//!
//! Conventions (also recorded in `EXPERIMENTS.md`): σ = 0.05 lognormal,
//! base seed `0x0A6E_0002`, corner seeds derived by a SplitMix64
//! finalizer over `(base, corner)`, lifetime points 0–7 years. The cycle
//! is anchored to each design's fresh nominal *observed* workload max
//! delay times a [`GUARDBAND`] of 10 % — deliberately inside the ~13 %
//! seven-year aging margin, so the fixed-latency baseline passes young
//! dies and decays as aging (plus unlucky variation) eats the guardband,
//! while the AHL's checked two-cycle fallback keeps passing. Anchoring to
//! the topological critical path instead would pin both curves at 1.0
//! (critical paths are rarely sensitized — the paper's own Fig. 5 point)
//! and measure nothing.

use std::time::Instant;

use agemul::{McConfig, MonteCarloCampaign};
use agemul_circuits::MultiplierKind;

use super::{f3, skips};
use crate::{Context, Report, Result, Table};

/// Lognormal σ of the per-gate time-zero variation.
const MC_SIGMA: f64 = 0.05;

/// Campaign base seed (the workspace seed family; `0x0A6E_0001` is the
/// shared uniform-workload seed).
const MC_SEED: u64 = 0x0A6E_0002;

/// Cycle guardband over the fresh nominal observed max delay (see the
/// module docs for why it sits inside the seven-year aging margin).
const GUARDBAND: f64 = 1.10;

pub(super) fn mc_study(
    ctx: &mut Context,
    width: usize,
    corners: usize,
    id: &str,
) -> Result<Report> {
    let patterns = ctx.scale().mc_patterns(width);
    let skip = skips(width)[0];

    let mut report = Report::new(
        id,
        format!(
            "{width}×{width} yield vs lifetime: {corners} corners/arch at lognormal σ {MC_SIGMA}, \
             {patterns} patterns per corner-year, Skip-{skip}, cycle anchored {:.0} % over the \
             fresh nominal observed max delay",
            (GUARDBAND - 1.0) * 100.0
        ),
    );

    for (name, kind) in [
        ("AM", MultiplierKind::Array),
        ("A-VLCB", MultiplierKind::ColumnBypass),
        ("A-VLRB", MultiplierKind::RowBypass),
    ] {
        let design = ctx.design(kind, width)?;
        let workload = ctx.uniform_workload(width, patterns);

        let mut config = McConfig::new(corners, MC_SIGMA, MC_SEED);
        config.skip = skip;
        config.cycle_ns = ctx.profile(kind, width, 0.0, patterns)?.max_delay_ns() * GUARDBAND;
        let campaign = MonteCarloCampaign::new(&design, workload.pairs(), ctx.bti(), config)?;

        let t0 = Instant::now();
        let mc_report = campaign.run(ctx.cancel())?;
        let elapsed = t0.elapsed().as_secs_f64();

        let baseline = mc_report.yield_curve(false);
        let adaptive = mc_report.yield_curve(true);

        let mut t = Table::new(
            format!("{name} yield vs lifetime"),
            &["year", "baseline_yield", "ahl_yield", "mean_max_delay_ns"],
        );
        for (yi, ((year, base), (_, ahl))) in baseline.iter().zip(&adaptive).enumerate() {
            // The AHL never un-passes a die the baseline passes (its
            // one-cycle guesses are checked, not trusted); a crossing
            // curve means the engine semantics regressed.
            if ahl + 1e-12 < *base {
                return Err(format!(
                    "{name}: AHL yield {ahl:.4} below baseline {base:.4} at year {year}"
                )
                .into());
            }
            let mean_max = mc_report
                .corners
                .iter()
                .map(|c| c.outcomes[yi].max_delay_ns)
                .sum::<f64>()
                / corners as f64;
            t.row(&[format!("{year:.0}"), f3(*base), f3(*ahl), f3(mean_max)]);
        }
        t.note(format!("{corners} corners, evaluated in {elapsed:.1}s"));
        t.note(format!(
            "cycle {} ns (fresh nominal observed max × {GUARDBAND}), base seed {MC_SEED:#010x}, \
             σ {MC_SIGMA}",
            f3(campaign.config().cycle_ns)
        ));
        report.push(t);
    }
    Ok(report)
}

/// `mc` — Monte Carlo yield-vs-lifetime curves for the 16×16 array,
/// column-bypassing, and row-bypassing multipliers, with the AHL on and
/// off (see the module docs for conventions).
///
/// # Errors
///
/// Propagates campaign failures (including cancellation), and fails if
/// the AHL yield drops below the fixed-latency baseline at any lifetime
/// point (the adaptive engine must dominate).
pub fn mc(ctx: &mut Context) -> Result<Report> {
    mc_study(ctx, 16, ctx.scale().mc_corners(), "mc")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    /// The campaign is a pure function of its seeds: two studies at the
    /// same configuration render cell-identical tables.
    #[test]
    fn study_is_reproducible() {
        let mut ctx_a = Context::new(Scale::Quick);
        let a = mc_study(&mut ctx_a, 8, 4, "mc-test").unwrap();
        let mut ctx_b = Context::new(Scale::Quick);
        let b = mc_study(&mut ctx_b, 8, 4, "mc-test").unwrap();

        assert_eq!(a.tables.len(), 3);
        assert_eq!(a.tables.len(), b.tables.len());
        for (ta, tb) in a.tables.iter().zip(&b.tables) {
            assert_eq!(ta.row_count(), 8, "one row per lifetime point");
            assert_eq!(ta.row_count(), tb.row_count());
            for r in 0..ta.row_count() {
                for c in 0..4 {
                    assert_eq!(ta.cell(r, c), tb.cell(r, c), "row {r} col {c}");
                }
            }
        }
    }
}
