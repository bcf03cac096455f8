//! One function per paper table/figure.
//!
//! | id | function | paper artifact |
//! |----|----------|----------------|
//! | `fig5` | [`fig5`] | path-delay distribution, 16×16 AM/CB/RB |
//! | `fig6` | [`fig6`] | CB delay distribution vs zeros in multiplicand |
//! | `fig7` | [`fig7`] | critical-path growth over 7 years |
//! | `fig9-10` | [`fig9_10`] | zero/one count distributions |
//! | `table1` | [`table1`] | one-cycle ratios, 16×16 |
//! | `table2` | [`table2`] | one-cycle ratios, 32×32 |
//! | `fig13` | [`fig13`] | latency vs period, 16×16, per skip |
//! | `fig14` | [`fig14`] | latency vs period, 32×32, per skip |
//! | `fig15` | [`fig15`] | latency vs period across skips, 16×16 |
//! | `fig16` | [`fig16`] | error counts, 16×16 |
//! | `fig17` | [`fig17`] | latency across skips, 32×32 |
//! | `fig18` | [`fig18`] | error counts, 32×32 |
//! | `fig19-22` | [`fig19_22`] | T-VL vs A-VL error counts, aged |
//! | `fig23` | [`fig23`] | FL/T-VL/A-VL latency, aged, 16×16 |
//! | `fig24` | [`fig24`] | FL/T-VL/A-VL latency, aged, 32×32 |
//! | `fig25` | [`fig25`] | area in transistors |
//! | `fig26` | [`fig26`] | latency/power/EDP over 7 years, 16×16 |
//! | `fig27` | [`fig27`] | latency/power/EDP over 7 years, 32×32 |
//! | `sweep` | [`sweep`] | 7-year × multi-period profiling-driver study, 32×32 |
//! | `mc` | [`mc`] | Monte Carlo yield vs lifetime over process corners, 16×16 |
//! | `fleet` | [`fleet`] | fleet quorum-loss lifetime by routing policy, 16×16 |
//! | `chaos` | [`chaos`] | deterministic fault-injection soak over the IO seams |

mod aged;
mod aging_trend;
mod area;
mod chaos;
mod conformance;
mod dist;
mod extras;
mod fault_campaigns;
mod fleet;
mod montecarlo;
mod ratios;
mod sweep_aging;
mod sweeps;
mod years;

pub use aged::{fig19_22, fig23, fig24};
pub use aging_trend::fig7;
pub use area::fig25;
pub use chaos::chaos;
pub use conformance::conformance;
pub use dist::{fig5, fig6, fig9_10};
pub use extras::{ablations, extensions};
pub use fault_campaigns::faults;
pub use fleet::fleet;
pub use montecarlo::mc;
pub use ratios::{table1, table2};
pub use sweep_aging::sweep;
pub use sweeps::{fig13, fig14, fig15, fig16, fig17, fig18};
pub use years::{fig26, fig27};

use crate::{Context, Report, Result};

/// All experiment ids: the paper's artifacts in paper order, then the
/// repository's own ablation and extension studies.
pub const ALL_IDS: [&str; 26] = [
    "fig5",
    "fig6",
    "fig7",
    "fig9-10",
    "table1",
    "table2",
    "fig13",
    "fig14",
    "fig15",
    "fig16",
    "fig17",
    "fig18",
    "fig19-22",
    "fig23",
    "fig24",
    "fig25",
    "fig26",
    "fig27",
    "ablations",
    "extensions",
    "faults",
    "conformance",
    "sweep",
    "mc",
    "fleet",
    "chaos",
];

/// The [`ALL_IDS`] entry that `id` names, or `None` for an unknown id.
///
/// The figure aliases `fig9`/`fig10` and `fig19`–`fig22` resolve to
/// `fig9-10` and `fig19-22`. [`run_by_id`] dispatches on the result, and
/// the CLI deduplicates its run list by it.
pub fn canonical_id(id: &str) -> Option<&'static str> {
    match id {
        "fig9" | "fig10" => Some("fig9-10"),
        "fig19" | "fig20" | "fig21" | "fig22" => Some("fig19-22"),
        _ => ALL_IDS.iter().copied().find(|&known| known == id),
    }
}

/// Runs an experiment by id (see [`ALL_IDS`] and [`canonical_id`]).
///
/// # Errors
///
/// Returns an error for unknown ids or failed simulations.
pub fn run_by_id(ctx: &mut Context, id: &str) -> Result<Report> {
    match canonical_id(id) {
        Some("fig5") => fig5(ctx),
        Some("fig6") => fig6(ctx),
        Some("fig7") => fig7(ctx),
        Some("fig9-10") => fig9_10(ctx),
        Some("table1") => table1(ctx),
        Some("table2") => table2(ctx),
        Some("fig13") => fig13(ctx),
        Some("fig14") => fig14(ctx),
        Some("fig15") => fig15(ctx),
        Some("fig16") => fig16(ctx),
        Some("fig17") => fig17(ctx),
        Some("fig18") => fig18(ctx),
        Some("fig19-22") => fig19_22(ctx),
        Some("fig23") => fig23(ctx),
        Some("fig24") => fig24(ctx),
        Some("fig25") => fig25(ctx),
        Some("fig26") => fig26(ctx),
        Some("fig27") => fig27(ctx),
        Some("ablations") => ablations(ctx),
        Some("extensions") => extensions(ctx),
        Some("faults") => faults(ctx),
        Some("conformance") => conformance(ctx),
        Some("sweep") => sweep(ctx),
        Some("mc") => mc(ctx),
        Some("fleet") => fleet(ctx),
        Some("chaos") => chaos(ctx),
        _ => Err(format!("unknown experiment id: {id}").into()),
    }
}

/// The paper's skip-number scenarios per operand width.
pub(crate) fn skips(width: usize) -> [u32; 3] {
    if width <= 16 {
        [7, 8, 9]
    } else {
        [15, 16, 17]
    }
}

/// Cycle-period grids for the sweep figures, nanoseconds.
pub(crate) fn period_grid(width: usize) -> Vec<f64> {
    if width <= 16 {
        // 0.60 .. 1.30 in 0.05 steps.
        (0..=14).map(|i| 0.60 + 0.05 * i as f64).collect()
    } else {
        // 1.00 .. 2.60 in 0.10 steps.
        (0..=16).map(|i| 1.00 + 0.10 * i as f64).collect()
    }
}

/// Percentile (0..=100) of a pre-sorted slice.
pub(crate) fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Formats a float with 3 decimals (the table cell convention).
pub(crate) fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Formats a ratio as a percentage with 2 decimals.
pub(crate) fn pct(x: f64) -> String {
    format!("{:.2}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grids_are_ascending() {
        for width in [16, 32] {
            let g = period_grid(width);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
            assert!(g.len() > 10);
        }
    }

    #[test]
    fn percentile_basics() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 5.0);
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn skip_scenarios_match_paper() {
        assert_eq!(skips(16), [7, 8, 9]);
        assert_eq!(skips(32), [15, 16, 17]);
    }

    /// The Monte Carlo and fleet studies observe the context's deadline
    /// token: with the baseline profile already cached, a fired token
    /// stops each study inside its campaign, and the batch supervisor
    /// classifies the failure as a cancellation. So do the fault
    /// campaigns (in preparation), the extension study (in its
    /// profiles) and Fig. 27 (in its switching-activity pass).
    #[test]
    fn mc_and_fleet_studies_observe_a_fired_deadline() {
        use agemul::CancelToken;
        use agemul_harness::CaseError;

        use crate::{Context, Scale};

        let mut ctx = Context::new(Scale::Quick);
        montecarlo::mc_study(&mut ctx, 8, 4, "mc-test").unwrap();

        let token = CancelToken::new();
        token.cancel();
        ctx.set_cancel(Some(token));
        let mc = montecarlo::mc_study(&mut ctx, 8, 4, "mc-test").unwrap_err();
        assert_eq!(
            CaseError::from_error(&*mc),
            CaseError::Cancelled,
            "mc: {mc}"
        );
        let fleet = fleet::fleet_study(&mut ctx, 2, 48, false, "fleet-test").unwrap_err();
        assert_eq!(
            CaseError::from_error(&*fleet),
            CaseError::Cancelled,
            "fleet: {fleet}"
        );
        for (id, run) in [
            ("faults", faults as fn(&mut Context) -> crate::Result<_>),
            ("extensions", extensions),
            ("fig27", fig27),
        ] {
            let err = run(&mut ctx).unwrap_err();
            assert_eq!(
                CaseError::from_error(&*err),
                CaseError::Cancelled,
                "{id}: {err}"
            );
        }
    }
}
