//! Supervised Monte Carlo yield campaigns: one case per process corner.
//!
//! A yield campaign is the longest-running workload in the tree — corners
//! × lifetime points × workload replays — and exactly the shape the
//! supervisor was built for: every corner is independent, corner costs
//! are uneven (a slow corner sensitizes longer paths), and losing a
//! half-finished overnight run to one panic is unacceptable. Each corner
//! is one supervised case: checkpointed by corner index, deadline-bounded
//! through the kernels' cooperative [`CancelToken`](agemul::CancelToken)
//! polling, retried with the fast retimed profiler, and — if the retry
//! budget runs out — degraded to [`MonteCarloCampaign::run_corner_from_scratch`]
//! on the event-driven reference engine, which computes byte-identical
//! outcomes without the plan-reuse machinery under suspicion.
//!
//! Corner evidence round-trips bit-identically through the checkpoint
//! JSON, so a killed campaign resumed with [`Resume::Attempt`] assembles
//! the same [`McReport`] an uninterrupted run would (pinned by
//! `truncated_checkpoint_resumes_identically` below).

use std::path::Path;

use agemul::{CornerOutcome, Json, McReport, MonteCarloCampaign, SimEngine, YearOutcome};

use crate::campaign::fnv1a64;
use crate::supervisor::{Attempt, CaseError, Resume, RunLedger, Supervisor, SupervisorConfig};
use crate::HarnessError;

/// A supervised Monte Carlo run: the assembled report (quarantined
/// corners omitted) plus the raw ledger.
#[derive(Clone, Debug)]
pub struct SupervisedMc {
    /// The yield report over every corner whose evaluation completed.
    /// Yield fractions are over the *usable* corners; check
    /// `ledger.quarantined()` (the quarantined corner indices) before
    /// quoting them.
    pub report: McReport,
    /// The full per-case execution record.
    pub ledger: RunLedger,
}

/// Fingerprints a campaign's work: design, workload, and every
/// result-determining configuration knob. Two runs share a key exactly
/// when every corner's outcome is interchangeable.
pub fn mc_run_key(campaign: &MonteCarloCampaign<'_>) -> String {
    let design = campaign.design();
    let config = campaign.config();
    let kind = design.kind();
    let mut h = fnv1a64(0, kind.label().as_bytes());
    h = fnv1a64(h, &(design.width() as u64).to_le_bytes());
    for &(a, b) in campaign.pairs() {
        h = fnv1a64(h, &a.to_le_bytes());
        h = fnv1a64(h, &b.to_le_bytes());
    }
    h = fnv1a64(h, &(config.corners as u64).to_le_bytes());
    h = fnv1a64(h, &config.sigma.to_bits().to_le_bytes());
    h = fnv1a64(h, &config.seed.to_le_bytes());
    for &y in &config.years {
        h = fnv1a64(h, &y.to_bits().to_le_bytes());
    }
    h = fnv1a64(h, &config.cycle_ns.to_bits().to_le_bytes());
    h = fnv1a64(h, &config.skip.to_le_bytes());
    h = fnv1a64(h, &config.error_limit_per_10k.to_bits().to_le_bytes());
    format!(
        "mc/{}{}x{}/{}corners/{h:016x}",
        kind.label(),
        design.width(),
        design.width(),
        config.corners,
    )
}

/// Serializes one corner's evidence losslessly (floats as
/// shortest-round-trip, so `to_bits` survives the checkpoint).
pub fn corner_to_json(c: &CornerOutcome) -> Json {
    let outcomes = c
        .outcomes
        .iter()
        .map(|o| {
            Json::Obj(vec![
                ("years".into(), Json::Num(o.years)),
                ("max_delay_ns".into(), Json::Num(o.max_delay_ns)),
                ("baseline_pass".into(), Json::Bool(o.baseline_pass)),
                ("errors_per_10k".into(), Json::Num(o.errors_per_10k)),
                ("undetected".into(), Json::UInt(o.undetected)),
                ("aged_mode_entered".into(), Json::Bool(o.aged_mode_entered)),
                ("adaptive_pass".into(), Json::Bool(o.adaptive_pass)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("corner".into(), Json::UInt(c.corner as u64)),
        ("seed".into(), Json::UInt(c.seed)),
        ("outcomes".into(), Json::Arr(outcomes)),
    ])
}

/// Rebuilds a [`CornerOutcome`] from [`corner_to_json`] output.
///
/// # Errors
///
/// A rendered description of the first missing or mistyped field.
pub fn corner_from_json(v: &Json) -> Result<CornerOutcome, String> {
    let outcomes = v
        .get_arr("outcomes")?
        .iter()
        .map(|o| {
            Ok(YearOutcome {
                years: o.get_f64("years")?,
                max_delay_ns: o.get_f64("max_delay_ns")?,
                baseline_pass: o.get_bool("baseline_pass")?,
                errors_per_10k: o.get_f64("errors_per_10k")?,
                undetected: o.get_u64("undetected")?,
                aged_mode_entered: o.get_bool("aged_mode_entered")?,
                adaptive_pass: o.get_bool("adaptive_pass")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(CornerOutcome {
        corner: v.get_u64("corner")? as usize,
        seed: v.get_u64("seed")?,
        outcomes,
    })
}

/// Runs a [`MonteCarloCampaign`] under supervision, one case per corner.
///
/// Primary attempts use the plan-reuse fast path (one retimed
/// [`CornerProfiler`](agemul::CornerProfiler) per case, shared across the
/// case's lifetime points); the degradation attempt rebuilds every
/// kernel from scratch on the event-driven reference engine. Both paths
/// compute byte-identical outcomes (pinned in `agemul`'s campaign
/// tests), so a ledger mixing engines still assembles one coherent
/// report.
///
/// Quarantined corners are omitted from the report and listed by the
/// ledger's [`quarantined`](RunLedger::quarantined); the whole run fails with
/// [`HarnessError::NoUsableCases`] only if *every* corner was
/// quarantined.
///
/// # Errors
///
/// Checkpoint I/O failures, decode failures on recovered evidence, and
/// the all-quarantined case above.
pub fn run_mc_supervised(
    campaign: &MonteCarloCampaign<'_>,
    config: &SupervisorConfig,
    checkpoint: Option<&Path>,
    resume: Resume,
) -> Result<SupervisedMc, HarnessError> {
    let corners = campaign.config().corners;
    let labels = (0..corners).map(|c| format!("corner {c}")).collect();
    let supervisor = Supervisor::new(mc_run_key(campaign), labels, config.clone());

    let worker = |attempt: &Attempt| -> Result<Json, CaseError> {
        let cancel = attempt.cancel.as_ref();
        let outcome = match attempt.engine {
            SimEngine::Level => {
                // One compiled kernel per case, retimed across the
                // lifetime axis. (Per-case construction keeps each case
                // hermetic for retry/quarantine; the plan reuse across
                // years is where the profiling time goes anyway.)
                let mut profiler = campaign.profiler().map_err(|e| CaseError::from_error(&e))?;
                campaign.run_corner(&mut profiler, attempt.index, cancel)
            }
            SimEngine::Event => {
                campaign.run_corner_from_scratch(attempt.index, SimEngine::Event, cancel)
            }
        }
        .map_err(|e| CaseError::from_error(&e))?;
        Ok(corner_to_json(&outcome))
    };
    let ledger = supervisor.run(&worker, checkpoint, resume)?;

    let usable: Vec<CornerOutcome> = ledger
        .decode(.., corner_from_json)?
        .into_iter()
        .map(|(_, outcome)| outcome)
        .collect();
    if usable.is_empty() && corners > 0 {
        return Err(HarnessError::NoUsableCases);
    }
    Ok(SupervisedMc {
        report: campaign.report(usable),
        ledger,
    })
}

#[cfg(test)]
mod tests {
    use agemul::{McConfig, MultiplierDesign, PatternSet};
    use agemul_aging::BtiModel;
    use agemul_circuits::MultiplierKind;
    use agemul_logic::Technology;

    use super::*;
    use crate::checkpoint::Checkpoint;

    fn fixture<'a>(
        design: &'a MultiplierDesign,
        pairs: &[(u64, u64)],
        corners: usize,
    ) -> MonteCarloCampaign<'a> {
        let bti = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132);
        let mut config = McConfig::new(corners, 0.08, 404);
        config.years = vec![0.0, 7.0];
        MonteCarloCampaign::new(design, pairs, &bti, config).unwrap()
    }

    fn sup() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: std::time::Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    /// The supervised run assembles exactly the unsupervised report.
    #[test]
    fn supervised_matches_unsupervised_run() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 2);
        let mc = fixture(&d, patterns.pairs(), 5);
        let supervised = run_mc_supervised(&mc, &sup(), None, Resume::Fresh).unwrap();
        let unsupervised = mc.run(None).unwrap();
        assert_eq!(supervised.report, unsupervised);
        assert!(supervised.ledger.quarantined().is_empty());
    }

    /// Corner evidence round-trips bit-identically through checkpoint
    /// text.
    #[test]
    fn corner_evidence_round_trips() {
        let d = MultiplierDesign::new(MultiplierKind::RowBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 12, 8);
        let mc = fixture(&d, patterns.pairs(), 1);
        let mut profiler = mc.profiler().unwrap();
        let outcome = mc.run_corner(&mut profiler, 0, None).unwrap();
        let text = corner_to_json(&outcome).to_string();
        let back = corner_from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, outcome);
        for (a, b) in back.outcomes.iter().zip(&outcome.outcomes) {
            assert_eq!(a.max_delay_ns.to_bits(), b.max_delay_ns.to_bits());
            assert_eq!(a.errors_per_10k.to_bits(), b.errors_per_10k.to_bits());
        }
    }

    /// Kill → resume: a checkpoint truncated mid-run resumes to the same
    /// report, recomputing only the missing corners.
    #[test]
    fn truncated_checkpoint_resumes_identically() {
        let dir = std::env::temp_dir().join(format!("agemul-mc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mc.ckpt.json");

        let d = MultiplierDesign::new(MultiplierKind::Array, 8).unwrap();
        let patterns = PatternSet::uniform(8, 16, 6);
        let mc = fixture(&d, patterns.pairs(), 6);
        let first = run_mc_supervised(&mc, &sup(), Some(&path), Resume::Fresh).unwrap();

        let mut ck = Checkpoint::load(&path, Some(&mc_run_key(&mc))).unwrap();
        ck.entries.truncate(2);
        ck.save_atomic(&path).unwrap();

        let resumed = run_mc_supervised(&mc, &sup(), Some(&path), Resume::Require).unwrap();
        assert_eq!(resumed.report, first.report);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The run key pins every result-determining knob: nudging the seed
    /// or the workload changes it; a fresh identical campaign does not.
    #[test]
    fn run_key_tracks_campaign_identity() {
        let d = MultiplierDesign::new(MultiplierKind::ColumnBypass, 8).unwrap();
        let patterns = PatternSet::uniform(8, 10, 3);
        let a = fixture(&d, patterns.pairs(), 4);
        let b = fixture(&d, patterns.pairs(), 4);
        assert_eq!(mc_run_key(&a), mc_run_key(&b));

        let bti = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.132);
        let mut config = McConfig::new(4, 0.08, 405);
        config.years = vec![0.0, 7.0];
        let c = MonteCarloCampaign::new(&d, patterns.pairs(), &bti, config).unwrap();
        assert_ne!(mc_run_key(&a), mc_run_key(&c));
    }
}
