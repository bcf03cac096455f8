//! `mc-yield`: Monte Carlo yield over process corners. One
//! `CornerProfiler` per design is retimed for every corner and lifetime
//! point (`run_corner`), so this is the plan-reuse path: `retime` instead
//! of a rebuild, on small pattern sets, where settle and retime take a
//! larger share of the time.

use agemul::{
    CornerOutcome, CornerProfiler, McConfig, MonteCarloCampaign, MultiplierDesign, PatternSet,
    SimEngine,
};
use agemul_circuits::MultiplierKind;

use super::{
    batch_end_to_end, batch_layers, bti, measure, ops_check, timed_setup, Batch, Check, Opts,
    Outcome,
};
use crate::metrics::Digest;
use crate::probes::probe_layers;
use crate::rng::derive;
use crate::trace::{self, Tracer};

struct Sizes {
    width: usize,
    pairs: usize,
    skip: u32,
    digest_ops: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        Sizes {
            width: if smoke { 8 } else { 16 },
            pairs: if smoke { 16 } else { 256 },
            skip: 7,
            digest_ops: 4,
        }
    }
}

const DESIGNS: [MultiplierKind; 2] = [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass];
/// Lognormal σ of per-gate time-zero variation.
const SIGMA: f64 = 0.05;
/// Cycle anchor over the fresh nominal observed maximum delay: inside the
/// ~13 % seven-year aging margin, so the fixed-latency baseline decays
/// while the AHL keeps passing (the `repro mc` convention).
const GUARDBAND: f64 = 1.10;

struct Corners<'a> {
    campaigns: &'a [MonteCarloCampaign<'a>],
    profilers: Vec<CornerProfiler<'a>>,
    outcomes: Vec<Vec<CornerOutcome>>,
    digest_ops: u64,
    digest: Digest,
}

impl Batch for Corners<'_> {
    fn op(&mut self, k: u64, tracer: &mut Tracer) -> Result<f64, String> {
        let n = self.campaigns.len() as u64;
        let d = (k % n) as usize;
        let corner = (k / n) as usize;
        let campaign = &self.campaigns[d];
        let profiler = &mut self.profilers[d];
        let outcome = tracer
            .span("core.mc_corner", k, |_| {
                campaign.run_corner(profiler, corner, None)
            })
            .map_err(|e| e.to_string())?;
        if k < self.digest_ops {
            self.digest.u64(outcome.seed);
            for y in &outcome.outcomes {
                self.digest.f64(y.max_delay_ns);
                self.digest.f64(y.errors_per_10k);
                self.digest.u64(y.undetected);
                self.digest.u64(
                    u64::from(y.baseline_pass)
                        | u64::from(y.adaptive_pass) << 1
                        | u64::from(y.aged_mode_entered) << 2,
                );
            }
        }
        self.outcomes[d].push(outcome);
        Ok(1.0)
    }

    fn round(&self) -> u64 {
        self.campaigns.len() as u64
    }
}

/// Corner 0 of each design must match the from-scratch reference path, and
/// at every lifetime point the AHL must pass at least every die the
/// fixed-latency baseline passes.
fn yield_check(
    campaigns: &[MonteCarloCampaign<'_>],
    outcomes: &[Vec<CornerOutcome>],
) -> Result<(), String> {
    for (campaign, corners) in campaigns.iter().zip(outcomes) {
        let label = campaign.design().kind().label();
        let Some(first) = corners.iter().find(|c| c.corner == 0) else {
            return Err(format!("{label}: corner 0 never ran"));
        };
        let reference = campaign
            .run_corner_from_scratch(0, SimEngine::Level, None)
            .map_err(|e| e.to_string())?;
        if &reference != first {
            return Err(format!(
                "{label}: retimed corner 0 differs from a from-scratch run"
            ));
        }
        for (yi, &years) in campaign.config().years.iter().enumerate() {
            let base = corners
                .iter()
                .filter(|c| c.outcomes[yi].baseline_pass)
                .count();
            let ahl = corners
                .iter()
                .filter(|c| c.outcomes[yi].adaptive_pass)
                .count();
            if ahl < base {
                return Err(format!(
                    "{label}: AHL passes {ahl} dies, baseline {base}, at {years} y"
                ));
            }
        }
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::new(opts.smoke);
    let bti = bti();
    let reps = opts.setup_reps(5);
    let (designs, design_secs) = timed_setup(reps, || {
        DESIGNS
            .iter()
            .map(|&k| MultiplierDesign::new(k, sizes.width))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let pairs: Vec<PatternSet> = (0..designs.len())
        .map(|d| PatternSet::uniform(sizes.width, sizes.pairs, derive(opts.seed, d as u64)))
        .collect();
    // Campaign preparation: cycle anchor, functional verification,
    // workload statistics, one aging-factor vector per lifetime point.
    let (campaigns, prep_secs) = timed_setup(reps, || {
        designs
            .iter()
            .zip(&pairs)
            .enumerate()
            .map(|(d, (design, p))| {
                let mut config = McConfig::new(1, SIGMA, derive(opts.seed, 100 + d as u64));
                config.skip = sizes.skip;
                config.cycle_ns = design.profile(p.pairs(), None)?.max_delay_ns() * GUARDBAND;
                MonteCarloCampaign::new(design, p.pairs(), &bti, config)
            })
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;
    let profilers = campaigns
        .iter()
        .map(MonteCarloCampaign::profiler)
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let setup_secs = design_secs + prep_secs;

    let mut corners = Corners {
        campaigns: &campaigns,
        profilers,
        outcomes: vec![Vec::new(); campaigns.len()],
        digest_ops: sizes.digest_ops,
        digest: Digest::default(),
    };
    let (untraced, traced) = measure(&mut corners, opts, sizes.digest_ops);
    let phases: Vec<_> = std::iter::once(&untraced).chain(traced.as_ref()).collect();

    let mut outcome = Outcome {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        digest: corners.digest.finish(),
        ..Outcome::default()
    };
    outcome.readings = match &traced {
        None => batch_end_to_end(&untraced, setup_secs, reps),
        Some(traced) => {
            let mut r = batch_layers(&untraced, traced);
            let times = trace::self_times(&traced.spans);
            r.set(
                "core.mc_corner_ms",
                trace::mean_self_secs(&times, "core.mc_corner") * 1e3,
                traced.attempted,
            );
            probe_layers(
                &designs[0],
                pairs[0].pairs(),
                &bti,
                opts.probe_budget(),
                &mut r,
            )
            .map_err(|e| e.to_string())?;
            outcome.spans = traced.spans.clone();
            r
        }
    };
    outcome.checks = vec![
        ops_check(&phases),
        Check::new("yield", yield_check(&campaigns, &corners.outcomes)),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_correct_and_repeatable() {
        let opts = Opts {
            seed: 5,
            seconds: 0.05,
            traced: false,
            smoke: true,
        };
        let a = run(&opts).unwrap();
        assert!(a.correct(), "{:?}", a.checks);
        assert!(a.attempted >= 4 && a.attempted.is_multiple_of(2));
        assert_eq!(run(&opts).unwrap().digest, a.digest);
    }
}
