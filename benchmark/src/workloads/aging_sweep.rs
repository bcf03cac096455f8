//! `aging-sweep`: the paper's lifetime study. For each design × workload
//! seed, one `AgingSweep` walks years 0–7, and every year's profile is
//! replayed through `run_engine` at every clock period under adaptive and
//! traditional hold logic. Each sweep builds its kernel plan once, so plan
//! and verify cost almost nothing; the work is incremental cone replay,
//! which makes this the workload that shows what a `LevelSim` change does
//! to the snapshot/restore path.

use std::sync::Arc;

use agemul::{
    quantize_factors, run_engine, AgingSweep, EngineConfig, MultiplierDesign, PatternProfile,
    PatternSet, SweepCounters,
};
use agemul_aging::aging_factors;
use agemul_circuits::MultiplierKind;

use super::{
    batch_end_to_end, batch_layers, bti, measure, ops_check, timed_setup, Batch, Check, Opts,
    Outcome,
};
use crate::metrics::Digest;
use crate::probes::probe_layers;
use crate::rng::derive;
use crate::trace::{self, Tracer};
use crate::workloads::profile_cold::same_profile;

struct Sizes {
    width: usize,
    pairs: usize,
    seeds: usize,
    periods: Vec<f64>,
    skip: u32,
    digest_ops: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Sizes {
                width: 8,
                pairs: 24,
                seeds: 2,
                periods: vec![0.5, 0.8, 1.1],
                skip: 3,
                digest_ops: 8,
            }
        } else {
            Sizes {
                width: 32,
                pairs: 512,
                seeds: 2,
                // 1.0–2.6 ns in 0.1 ns steps, Skip-15: the paper's 32-bit grid.
                periods: (0..=16).map(|i| 1.0 + 0.1 * f64::from(i)).collect(),
                skip: 15,
                digest_ops: 8,
            }
        }
    }
}

const YEARS: usize = 8;
const DESIGNS: [MultiplierKind; 2] = [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass];

/// One design × workload seed lifetime study.
struct Study {
    design: usize,
    pairs: Vec<(u64, u64)>,
    /// Aging factors per year (`None` = fresh).
    factors: Vec<Option<Vec<f64>>>,
}

struct Running<'a> {
    sweep: AgingSweep<'a>,
    last: Option<(usize, Arc<PatternProfile>)>,
}

struct Sweeps<'a> {
    sizes: &'a Sizes,
    designs: &'a [MultiplierDesign],
    studies: &'a [Study],
    running: Vec<Option<Running<'a>>>,
    /// Counters of sweeps already finished.
    retired: SweepCounters,
    digest: Digest,
}

impl Sweeps<'_> {
    fn counters(&self) -> SweepCounters {
        let mut total = self.retired;
        for r in self.running.iter().flatten() {
            add(&mut total, &r.sweep.counters());
        }
        total
    }
}

fn add(total: &mut SweepCounters, c: &SweepCounters) {
    total.years += c.years;
    total.full_profiles += c.full_profiles;
    total.identical_years += c.identical_years;
    total.cone_resims += c.cone_resims;
    total.cascade_resims += c.cascade_resims;
    total.patterns_reused += c.patterns_reused;
}

impl Batch for Sweeps<'_> {
    fn op(&mut self, k: u64, tracer: &mut Tracer) -> Result<f64, String> {
        let n = self.studies.len() as u64;
        let s = (k % n) as usize;
        let year = ((k / n) % YEARS as u64) as usize;
        // Copied out so the sweep's borrow of the design outlives `self`.
        let (designs, studies) = (self.designs, self.studies);
        let study = &studies[s];
        let design = &designs[study.design];
        if year == 0 {
            if let Some(done) = self.running[s].take() {
                add(&mut self.retired, &done.sweep.counters());
            }
            let sweep = tracer
                .span("core.sweep_new", k, |_| {
                    AgingSweep::new(design, &study.pairs)
                })
                .map_err(|e| e.to_string())?;
            self.running[s] = Some(Running { sweep, last: None });
        }
        let running = self.running[s]
            .as_mut()
            .ok_or("no sweep in progress for this study")?;
        let profile = tracer
            .span("core.sweep_year", k, |_| {
                running.sweep.profile_year(study.factors[year].as_deref())
            })
            .map_err(|e| e.to_string())?;
        let mut configs = 0.0;
        for &period in &self.sizes.periods {
            for config in [
                EngineConfig::adaptive(period, self.sizes.skip),
                EngineConfig::traditional(period, self.sizes.skip),
            ] {
                let m = tracer.span("core.engine", k, |_| run_engine(&profile, &config));
                if k < self.sizes.digest_ops {
                    for v in [
                        m.operations,
                        m.cycles,
                        m.errors,
                        m.one_cycle_ops,
                        m.two_cycle_ops,
                        m.undetected,
                    ] {
                        self.digest.u64(v);
                    }
                    self.digest.u64(u64::from(m.aged_mode_entered));
                }
                configs += 1.0;
            }
        }
        running.last = Some((year, profile));
        Ok(configs)
    }

    fn round(&self) -> u64 {
        self.studies.len() as u64
    }
}

/// The last year each running sweep profiled must equal a from-scratch
/// profile of the same quantized factors, and each sweep must have built
/// exactly one full profile.
fn sweep_check(sweeps: &Sweeps<'_>) -> Result<(), String> {
    for (study, running) in sweeps.studies.iter().zip(&sweeps.running) {
        let Some(running) = running else { continue };
        let design = &sweeps.designs[study.design];
        let label = design.kind().label();
        let full = running.sweep.counters().full_profiles;
        if full != 1 {
            return Err(format!(
                "{label}: {full} full profiles in one sweep, want 1"
            ));
        }
        let Some((year, profile)) = &running.last else {
            continue;
        };
        let factors = study.factors[*year].as_deref().map(quantize_factors);
        let reference = design
            .profile(&study.pairs, factors.as_deref())
            .map_err(|e| e.to_string())?;
        same_profile(&reference, profile).map_err(|e| format!("{label} year {year}: {e}"))?;
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::new(opts.smoke);
    let bti = bti();
    let reps = opts.setup_reps(3);
    // Set-up is everything shared by the sweeps: designs, workloads, and
    // the BTI pipeline (workload statistics and per-year aging factors).
    let ((designs, studies), setup_secs) = timed_setup(reps, || {
        let designs = DESIGNS
            .iter()
            .map(|&k| MultiplierDesign::new(k, sizes.width))
            .collect::<Result<Vec<_>, _>>()?;
        let mut studies = Vec::new();
        for (d, design) in designs.iter().enumerate() {
            for s in 0..sizes.seeds {
                let seed = derive(opts.seed, (d * sizes.seeds + s) as u64);
                let pairs = PatternSet::uniform(sizes.width, sizes.pairs, seed)
                    .pairs()
                    .to_vec();
                let stats = design.workload_stats(&pairs)?;
                let factors = (0..YEARS)
                    .map(|y| {
                        (y > 0).then(|| {
                            aging_factors(design.circuit().netlist(), &stats, &bti, y as f64)
                        })
                    })
                    .collect();
                studies.push(Study {
                    design: d,
                    pairs,
                    factors,
                });
            }
        }
        Ok::<_, agemul::CoreError>((designs, studies))
    })
    .map_err(|e| e.to_string())?;

    let mut sweeps = Sweeps {
        sizes: &sizes,
        designs: &designs,
        studies: &studies,
        running: studies.iter().map(|_| None).collect(),
        retired: SweepCounters::default(),
        digest: Digest::default(),
    };
    let (untraced, traced) = measure(&mut sweeps, opts, sizes.digest_ops);
    let phases: Vec<_> = std::iter::once(&untraced).chain(traced.as_ref()).collect();

    let mut outcome = Outcome {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        digest: sweeps.digest.finish(),
        ..Outcome::default()
    };
    outcome.readings = match &traced {
        None => batch_end_to_end(&untraced, setup_secs, reps),
        Some(traced) => {
            let mut r = batch_layers(&untraced, traced);
            let times = trace::self_times(&traced.spans);
            let n = traced.attempted;
            r.set(
                "core.sweep_year_ms",
                trace::mean_self_secs(&times, "core.sweep_year") * 1e3,
                n,
            );
            r.set(
                "core.engine_us",
                trace::mean_self_secs(&times, "core.engine") * 1e6,
                n,
            );
            // Counters cover the whole traced run, like the cache counters
            // of profile-cold.
            let c = sweeps.counters();
            let replayed = c.cone_resims + c.cascade_resims;
            r.set("core.cone_resims", c.cone_resims as f64, c.years);
            r.set("core.cascade_resims", c.cascade_resims as f64, c.years);
            r.set(
                "core.sweep_reuse_ratio",
                c.patterns_reused as f64 / (c.patterns_reused + replayed).max(1) as f64,
                c.years,
            );
            probe_layers(
                &designs[0],
                &studies[0].pairs,
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
        Check::new("sweep-exact", sweep_check(&sweeps)),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_is_correct_and_repeatable() {
        let opts = Opts {
            seed: 11,
            seconds: 0.05,
            traced: false,
            smoke: true,
        };
        let a = run(&opts).unwrap();
        assert!(a.correct(), "{:?}", a.checks);
        assert!(a.attempted >= 8);
        assert_eq!(run(&opts).unwrap().digest, a.digest);
    }
}
