//! Beyond the paper: gate-level fault-injection campaigns validating the
//! Razor/AHL resilience story.

use agemul::{EngineConfig, RazorConfig};
use agemul_circuits::MultiplierKind;
use agemul_faults::{Campaign, FaultClass, FaultSpec};

use super::{pct, skips};
use crate::{Context, Report, Result, Table};

/// Seed of the sampled fault lists — fixed so the committed tables are
/// reproducible run-to-run.
const CAMPAIGN_SEED: u64 = 0xFA17_0001;

/// The campaign's fixed clock period per width: mid-grid values the sweep
/// figures identify as competitive deployments (aggressive enough that
/// delay faults can matter, relaxed enough that the fault-free baseline is
/// clean or nearly so).
fn campaign_period(width: usize) -> f64 {
    if width <= 16 {
        0.95
    } else {
        1.90
    }
}

/// Fault-injection campaigns: stuck-at, transient bit-flip, and localized
/// delay faults on the CB/RB multipliers at 16×16 and 32×32, classified as
/// masked / detected-by-Razor / silently-corrupting, plus the detection
/// coverage surface over skip threshold × Razor window.
///
/// # Errors
///
/// Propagates simulation failures.
pub fn faults(ctx: &mut Context) -> Result<Report> {
    let mut report = Report::new(
        "faults",
        "gate-level fault-injection campaigns (Razor/AHL resilience)",
    );

    let mut sweep = Table::new(
        "fault coverage vs skip threshold vs razor window",
        &[
            "arch",
            "skip",
            "window",
            "masked",
            "detected",
            "silent",
            "coverage",
            "avg detected overhead",
        ],
    );

    for width in [16usize, 32] {
        let count = ctx.scale().fault_patterns(width);
        let specimens = ctx.scale().fault_specimens();
        let period = campaign_period(width);
        for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
            let design = ctx.design(kind, width)?;
            let workload = ctx.uniform_workload(width, count);
            let mut specs =
                FaultSpec::sample(&design, workload.pairs().len(), specimens, CAMPAIGN_SEED);
            // Random single-gate hot spots mostly hide in timing slack, so
            // add targeted ones at escalating severities on the drivers of
            // frequently-toggling product bits — where BTI stress actually
            // concentrates and where added delay is observable.
            let netlist = design.circuit().netlist();
            let product = design.circuit().product().nets();
            for (i, bit) in [width / 2, width, 3 * width / 2, 2 * width - 2]
                .into_iter()
                .enumerate()
            {
                if let Some(gate) = netlist.driver_gate(product[bit]) {
                    specs.push(FaultSpec::Delay {
                        gate,
                        factor: 4.0 * (1 << i) as f64,
                    });
                }
            }
            let campaign =
                Campaign::prepare(&design, workload.pairs(), &specs, None, ctx.cancel())?;

            // Per-fault classification at the paper-flavoured config.
            let paper_cfg = EngineConfig::adaptive(period, skips(width)[0]);
            let paper = campaign.run(&paper_cfg);
            let mut t = Table::new(
                format!(
                    "fault classification ({} {width}x{width}, skip {}, period {period} ns, {count} ops)",
                    kind.label(),
                    paper_cfg.skip,
                ),
                &[
                    "fault",
                    "class",
                    "corrupted ops",
                    "excess errors",
                    "aged at op",
                    "latency overhead",
                ],
            );
            for o in &paper.outcomes {
                t.row(&[
                    o.label.clone(),
                    o.class.label().to_string(),
                    o.corrupted_ops.to_string(),
                    o.excess_errors.to_string(),
                    o.aged_at_op.map_or_else(|| "-".into(), |x| x.to_string()),
                    format!("{:+.2}%", o.latency_overhead_pct),
                ]);
            }
            t.note(
                "logic faults (sa0/sa1/flip) produce stable-but-wrong values Razor cannot \
                 see: they are silent when they propagate, masked otherwise; delay faults \
                 surface as Razor errors the AHL then absorbs",
            );
            report.push(t);

            // Coverage surface: skip × Razor window on the same evidence.
            for skip in skips(width) {
                for window in [1.0f64, 0.5, 0.25] {
                    let cfg = EngineConfig {
                        razor: RazorConfig {
                            window_factor: window,
                        },
                        ..EngineConfig::adaptive(period, skip)
                    };
                    let r = campaign.run(&cfg);
                    let detected: Vec<f64> = r
                        .outcomes
                        .iter()
                        .filter(|o| o.class == FaultClass::Detected)
                        .map(|o| o.latency_overhead_pct)
                        .collect();
                    let overhead = if detected.is_empty() {
                        "-".to_string()
                    } else {
                        format!(
                            "{:+.2}%",
                            detected.iter().sum::<f64>() / detected.len() as f64
                        )
                    };
                    sweep.row(&[
                        format!("{} {width}x{width}", kind.label()),
                        format!("Skip-{skip}"),
                        format!("{window}x"),
                        r.masked().to_string(),
                        r.detected().to_string(),
                        r.silent().to_string(),
                        pct(r.coverage()),
                        overhead,
                    ]);
                }
            }

            debug_assert_eq!(paper.operations, count as u64);
        }
    }
    sweep.note(
        "coverage = detected / (detected + silent) over manifested faults; \
         shrinking the Razor window converts detected delay faults into silent \
         ones, while the skip threshold only shifts how much error pressure \
         the AHL sees before adapting",
    );
    report.push(sweep);
    Ok(report)
}
