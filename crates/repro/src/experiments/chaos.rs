//! `chaos` — the deterministic fault-injection soak as an experiment.
//!
//! Runs the `agemul-serve` chaos engine (seeded fault schedules over the
//! checkpoint, transport, and cache/single-flight seams, plus the
//! overload-shedding probe) at a scale-dependent schedule count and
//! renders one row per seam. The experiment *fails* on any invariant
//! violation — a corrupt checkpoint that loaded, a resume that was not
//! byte-identical, a cached injected error, a wedged server, or a shed
//! request without a typed sub-10 ms `overloaded` answer — so a
//! robustness regression breaks `repro chaos` (and the gate's
//! `scripts/quick_digests.sh` step) loudly.
//!
//! Every schedule is a pure function of `(seed, site, invocation)`: the
//! base seed below replays the identical fault sequence on every run, so
//! the table's injected-fault counts are deterministic.

use std::time::Instant;

use agemul_serve::chaos::{run_soak, silence_chaos_panics};

use crate::{Context, Report, Result, Scale, Table};

/// Chaos soak base seed (the workspace seed family: `0x0A6E_0001`
/// uniform workloads, `0x0A6E_0005` fleet).
const CHAOS_SEED: u64 = 0x0A6E_C405;

fn schedule_count(scale: Scale) -> usize {
    match scale {
        Scale::Quick => 24,
        Scale::Standard => 120,
        Scale::Paper => 400,
    }
}

/// `chaos` — seeded fault schedules across the three IO seams plus the
/// overload probe (see the module docs).
///
/// # Errors
///
/// Fails on any chaos invariant violation, listing every violated
/// invariant with the seam and schedule that produced it.
pub fn chaos(ctx: &mut Context) -> Result<Report> {
    silence_chaos_panics();
    let schedules = schedule_count(ctx.scale());
    let t0 = Instant::now();
    let reports = run_soak(schedules, CHAOS_SEED);
    let elapsed = t0.elapsed().as_secs_f64();

    let violations: Vec<String> = reports
        .iter()
        .flat_map(|r| r.violations.iter().map(|v| format!("[{}] {v}", r.seam)))
        .collect();
    if !violations.is_empty() {
        return Err(format!(
            "chaos: {} invariant violation(s): {}",
            violations.len(),
            violations.join("; ")
        )
        .into());
    }

    let mut report = Report::new(
        "chaos",
        format!(
            "deterministic chaos soak: {schedules} seeded fault schedules over checkpoint IO, \
             serve transport, and cache/single-flight, plus the overload-shedding probe"
        ),
    );
    let mut t = Table::new(
        "chaos soak by seam",
        &["seam", "schedules", "injected", "operations", "violations"],
    );
    for r in &reports {
        t.row(&[
            r.seam.to_string(),
            r.schedules.to_string(),
            r.injected.to_string(),
            r.operations.to_string(),
            r.violations.len().to_string(),
        ]);
    }
    t.note(format!(
        "base seed {CHAOS_SEED:#010x}; every fault decision is SplitMix64 over \
         (seed, site, invocation), so a failing schedule replays from its seed alone \
         (transport invocation *counts* ride live-socket read segmentation, so that \
         seam's injected total may wobble by a few; latencies are wall-clock)"
    ));
    for r in &reports {
        for note in &r.notes {
            t.note(format!("{}: {note}", r.seam));
        }
    }
    t.note(format!(
        "invariants: no corrupt checkpoint loads, resume byte-identical, errors never \
         cached, server never wedges, every shed request answered typed; evaluated in \
         {elapsed:.1}s"
    ));
    report.push(t);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature soak holds every invariant and renders one row per
    /// seam.
    #[test]
    fn quick_soak_holds_invariants() {
        let mut ctx = Context::new(Scale::Quick);
        let report = chaos(&mut ctx).unwrap();
        assert_eq!(report.tables.len(), 1);
        let t = &report.tables[0];
        assert_eq!(t.row_count(), 4, "one row per seam");
        for r in 0..t.row_count() {
            assert_eq!(t.cell(r, 4), Some("0"), "violations column must be zero");
        }
    }
}
