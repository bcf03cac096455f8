//! `profile-cold`: the cold design-space question. One thread profiles
//! fresh workloads back to back through `ProfileCache::profile`; every job
//! draws a new pattern seed, so every lookup misses and the cache is used
//! write-only. Aged jobs derive their aging factors inside the job
//! (`workload_stats`, then `aging_factors`). The time goes to kernel build,
//! functional verification and `LevelSim::step`.

use std::sync::Arc;

use agemul::{
    quantize_factors, MultiplierDesign, PatternProfile, PatternSet, ProfileCache, SimEngine,
};
use agemul_aging::{aging_factors, BtiModel};
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
    /// Jobs whose profiles enter the digest (every run completes them).
    digest_jobs: u64,
    /// One job in this many is re-profiled on the event-driven engine.
    event_every: u64,
}

impl Sizes {
    fn new(smoke: bool) -> Self {
        if smoke {
            Sizes {
                width: 8,
                pairs: 24,
                digest_jobs: 6,
                event_every: 16,
            }
        } else {
            Sizes {
                width: 32,
                pairs: 256,
                digest_jobs: 6,
                event_every: 16,
            }
        }
    }
}

/// Aging years of the job types; with the three kinds this gives six job
/// types, run round-robin so the mix never depends on the seed.
const YEARS: [f64; 2] = [0.0, 7.0];

/// A job kept for the event-engine cross-check.
struct Kept {
    design: usize,
    pattern_seed: u64,
    factors: Option<Vec<f64>>,
    profile: Arc<PatternProfile>,
}

struct ProfileCold<'a> {
    seed: u64,
    sizes: &'a Sizes,
    designs: &'a [MultiplierDesign],
    bti: &'a BtiModel,
    cache: ProfileCache,
    digest: Digest,
    kept: Vec<Kept>,
}

impl Batch for ProfileCold<'_> {
    fn op(&mut self, k: u64, tracer: &mut Tracer) -> Result<f64, String> {
        let kind = (k % 6) as usize;
        let (d, years) = (kind % 3, YEARS[kind / 3]);
        let design = &self.designs[d];
        let pattern_seed = derive(self.seed, k);
        let (width, count) = (self.sizes.width, self.sizes.pairs);
        let patterns = tracer.span("core.patterns", k, |_| {
            PatternSet::uniform(width, count, pattern_seed)
        });
        let factors = if years > 0.0 {
            let stats = tracer
                .span("netlist.stats", k, |_| {
                    design.workload_stats(patterns.pairs())
                })
                .map_err(|e| e.to_string())?;
            let netlist = design.circuit().netlist();
            Some(tracer.span("aging.factors", k, |_| {
                aging_factors(netlist, &stats, self.bti, years)
            }))
        } else {
            None
        };
        let profile = tracer
            .span("core.profile", k, |_| {
                self.cache
                    .profile(design, patterns.pairs(), factors.as_deref())
            })
            .map_err(|e| e.to_string())?;
        if k < self.sizes.digest_jobs {
            digest_profile(&mut self.digest, &profile);
        }
        if k.is_multiple_of(self.sizes.event_every) {
            self.kept.push(Kept {
                design: d,
                pattern_seed,
                factors,
                profile,
            });
        }
        Ok(count as f64)
    }

    fn round(&self) -> u64 {
        6
    }
}

fn digest_profile(digest: &mut Digest, profile: &PatternProfile) {
    for r in profile.records() {
        digest.u64(r.a);
        digest.u64(r.b);
        digest.u64(u64::from(r.zeros));
        digest.f64(r.delay_ns);
    }
    digest.f64(profile.avg_gate_toggles());
}

/// Bit-identity of two profiles: every record and the toggle mean.
pub fn same_profile(expected: &PatternProfile, got: &PatternProfile) -> Result<(), String> {
    if expected.len() != got.len() {
        return Err(format!(
            "{} records, expected {}",
            got.len(),
            expected.len()
        ));
    }
    if let Some(i) = (0..expected.len()).find(|&i| expected.records()[i] != got.records()[i]) {
        return Err(format!(
            "record {i} differs: {:?} vs expected {:?}",
            got.records()[i],
            expected.records()[i]
        ));
    }
    if expected.avg_gate_toggles().to_bits() != got.avg_gate_toggles().to_bits() {
        return Err("toggle means differ".into());
    }
    Ok(())
}

/// Re-profiles every kept job on the event-driven engine; the cached
/// levelized profile must match it bit for bit.
fn event_check(designs: &[MultiplierDesign], sizes: &Sizes, kept: &[Kept]) -> Result<(), String> {
    for job in kept {
        let design = &designs[job.design];
        let patterns = PatternSet::uniform(sizes.width, sizes.pairs, job.pattern_seed);
        // The cache quantizes factors before simulating; so does the check.
        let factors = job.factors.as_deref().map(quantize_factors);
        let reference = design
            .profile_with_engine(patterns.pairs(), factors.as_deref(), SimEngine::Event)
            .map_err(|e| e.to_string())?;
        same_profile(&reference, &job.profile).map_err(|e| {
            format!(
                "{} job, seed {:#x}: {e}",
                design.kind().label(),
                job.pattern_seed
            )
        })?;
    }
    Ok(())
}

pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let sizes = Sizes::new(opts.smoke);
    let bti = bti();
    // Three designs take a few milliseconds to build: more repetitions
    // keep the median steady.
    let reps = opts.setup_reps(15);
    let (designs, setup_secs) = timed_setup(reps, || {
        MultiplierKind::PAPER
            .iter()
            .map(|&k| MultiplierDesign::new(k, sizes.width))
            .collect::<Result<Vec<_>, _>>()
    })
    .map_err(|e| e.to_string())?;

    let mut batch = ProfileCold {
        seed: opts.seed,
        sizes: &sizes,
        designs: &designs,
        bti: &bti,
        cache: ProfileCache::new(),
        digest: Digest::default(),
        kept: Vec::new(),
    };
    let (untraced, traced) = measure(&mut batch, opts, sizes.digest_jobs);
    let phases: Vec<_> = std::iter::once(&untraced).chain(traced.as_ref()).collect();

    let mut outcome = Outcome {
        attempted: phases.iter().map(|p| p.attempted).sum(),
        failed: phases.iter().map(|p| p.failed).sum(),
        digest: batch.digest.finish(),
        ..Outcome::default()
    };
    outcome.readings = match &traced {
        None => batch_end_to_end(&untraced, setup_secs, reps),
        Some(traced) => {
            let mut r = batch_layers(&untraced, traced);
            let times = trace::self_times(&traced.spans);
            r.set(
                "core.profile_ms",
                trace::mean_self_secs(&times, "core.profile") * 1e3,
                traced.attempted,
            );
            let (hits, misses) = (batch.cache.hits(), batch.cache.misses());
            r.set("core.cache_misses", misses as f64, hits + misses);
            r.set(
                "core.cache_hit_ratio",
                hits as f64 / (hits + misses).max(1) as f64,
                hits + misses,
            );
            let pairs = PatternSet::uniform(sizes.width, sizes.pairs, derive(opts.seed, 0));
            probe_layers(
                &designs[1],
                pairs.pairs(),
                &bti,
                opts.probe_budget(),
                &mut r,
            )
            .map_err(|e| e.to_string())?;
            outcome.spans = traced.spans.clone();
            r
        }
    };

    let profiled: u64 = phases.iter().map(|p| p.attempted - p.failed).sum();
    outcome.checks = vec![
        ops_check(&phases),
        Check::new(
            "every-lookup-misses",
            if batch.cache.hits() == 0 && batch.cache.misses() == profiled {
                Ok(())
            } else {
                Err(format!(
                    "{} hits and {} misses over {profiled} jobs",
                    batch.cache.hits(),
                    batch.cache.misses()
                ))
            },
        ),
        Check::new("event-engine", event_check(&designs, &sizes, &batch.kept)),
    ];
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(seed: u64) -> Opts {
        Opts {
            seed,
            seconds: 0.05,
            traced: false,
            smoke: true,
        }
    }

    #[test]
    fn smoke_run_is_correct_and_repeatable() {
        let a = run(&smoke(3)).unwrap();
        assert!(a.correct(), "{:?}", a.checks);
        assert_eq!(a.failed, 0);
        assert!(a.attempted >= 6 && a.attempted.is_multiple_of(6));
        let b = run(&smoke(3)).unwrap();
        assert_eq!(a.digest, b.digest, "same seed, same digest");
        let c = run(&smoke(4)).unwrap();
        assert_ne!(a.digest, c.digest, "the seed drives the inputs");
    }

    /// The checker catches a single flipped record, and a failed check
    /// makes the run exit nonzero.
    #[test]
    fn checker_rejects_a_mismatched_profile() {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 5);
        let good = design.profile(patterns.pairs(), None).unwrap();
        let mut records = good.records().to_vec();
        records[7].delay_ns += 1e-3;
        let bad = PatternProfile::from_records_with_toggles(
            good.kind(),
            good.width(),
            records,
            good.avg_gate_toggles(),
        );
        assert!(same_profile(&good, &good).is_ok());
        let err = same_profile(&good, &bad).unwrap_err();
        assert!(err.contains("record 7"), "{err}");

        let outcome = Outcome {
            checks: vec![Check::new("event-engine", same_profile(&good, &bad))],
            ..Outcome::default()
        };
        assert!(!outcome.correct());
        assert_ne!(crate::exit_code(&outcome), 0);
    }
}
