//! Supervised fault campaigns: one case per fault plus the baseline.
//!
//! The batch path ([`Campaign::prepare`]) evaluates up to 64 logic faults
//! per bit-parallel sweep; the supervised path trades that throughput for
//! per-case isolation — each fault is one supervised case that can be
//! checkpointed, retried, or quarantined on its own. Each lane
//! of a batch sweep is exact, so the per-case evidence is bit-identical to
//! the chunked evidence and a fully-recovered supervised campaign replays
//! identically to an unsupervised one (pinned by the faults crate's
//! `per_case_preparation_assembles_into_an_identical_campaign` test).

use std::path::Path;

use agemul::{Json, MultiplierDesign};
use agemul_faults::{prepare_baseline, prepare_fault, Campaign, FaultSpec};

use crate::checkpoint::CaseStatus;
use crate::snapshot::{evidence_from_json, evidence_to_json, profile_from_json, profile_to_json};
use crate::supervisor::{Attempt, CaseError, Resume, RunLedger, Supervisor, SupervisorConfig};
use crate::HarnessError;

/// FNV-1a 64-bit — the workspace's offline fingerprint hash.
pub(crate) fn fnv1a64(seed: u64, bytes: &[u8]) -> u64 {
    let mut h = if seed == 0 {
        0xCBF2_9CE4_8422_2325
    } else {
        seed
    };
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Fingerprints a campaign's work: design, workload, and fault list. Two
/// runs share a key exactly when every case's result is interchangeable.
pub fn campaign_run_key(
    design: &MultiplierDesign,
    pairs: &[(u64, u64)],
    faults: &[FaultSpec],
) -> String {
    let kind = design.circuit().kind();
    let mut h = fnv1a64(0, kind.label().as_bytes());
    h = fnv1a64(h, &(design.circuit().width() as u64).to_le_bytes());
    for &(a, b) in pairs {
        h = fnv1a64(h, &a.to_le_bytes());
        h = fnv1a64(h, &b.to_le_bytes());
    }
    for f in faults {
        h = fnv1a64(h, f.label().as_bytes());
    }
    format!(
        "campaign/{}{}x{}/{}cases/{h:016x}",
        kind.label(),
        design.circuit().width(),
        design.circuit().width(),
        faults.len() + 1,
    )
}

/// A supervised campaign run: the reassembled [`Campaign`] plus the raw
/// ledger (retries, quarantine reasons).
#[derive(Clone, Debug)]
pub struct SupervisedCampaign {
    /// The campaign, ready for [`Campaign::run`] replays. Quarantined
    /// faults appear in its reports' `quarantined` ledger.
    pub campaign: Campaign,
    /// The full per-case execution record.
    pub ledger: RunLedger,
}

/// Prepares a fault campaign under supervision.
///
/// Case 0 is the fault-free baseline profile; case `1 + i` is `faults[i]`.
/// The supervisor checkpoints completed cases to `checkpoint` (if given),
/// so a killed run resumed with [`Resume::Attempt`] or [`Resume::Require`]
/// recomputes only the missing cases and — because every serialized piece
/// of evidence round-trips bit-identically — produces a campaign whose
/// reports match an uninterrupted run exactly.
///
/// A quarantined *fault* is recorded in the campaign's quarantine ledger
/// and excluded from classification; a quarantined *baseline* is fatal
/// ([`HarnessError::PoisonedBaseline`]) since nothing can be classified
/// without it.
///
/// # Errors
///
/// Checkpoint failures, decode failures on recovered evidence, and the
/// poisoned-baseline case above.
pub fn run_campaign_supervised(
    design: &MultiplierDesign,
    pairs: &[(u64, u64)],
    faults: &[FaultSpec],
    config: &SupervisorConfig,
    checkpoint: Option<&Path>,
    resume: Resume,
) -> Result<SupervisedCampaign, HarnessError> {
    let mut labels = Vec::with_capacity(faults.len() + 1);
    labels.push("baseline".to_string());
    labels.extend(faults.iter().map(FaultSpec::label));

    let supervisor = Supervisor::new(
        campaign_run_key(design, pairs, faults),
        labels,
        config.clone(),
    );
    let worker = |attempt: &Attempt| -> Result<Json, CaseError> {
        let cancel = attempt.cancel.as_ref();
        if attempt.index == 0 {
            let profile =
                prepare_baseline(design, pairs, cancel).map_err(|e| CaseError::from_error(&e))?;
            Ok(profile_to_json(&profile))
        } else {
            let spec = &faults[attempt.index - 1];
            let evidence = prepare_fault(design, pairs, spec, cancel)
                .map_err(|e| CaseError::from_error(&e))?;
            Ok(evidence_to_json(&evidence))
        }
    };
    let ledger = supervisor.run(&worker, checkpoint, resume)?;

    if let CaseStatus::Quarantined { reason } = &ledger.records[0].status {
        return Err(HarnessError::PoisonedBaseline {
            reason: reason.clone(),
        });
    }
    let (_, baseline) = ledger
        .decode(..1, profile_from_json)?
        .pop()
        .ok_or(HarnessError::NoUsableCases)?;
    let entries = ledger
        .decode(1.., evidence_from_json)?
        .into_iter()
        .map(|(index, evidence)| (faults[index - 1], evidence))
        .collect();
    let quarantined = ledger
        .quarantined()
        .into_iter()
        .map(|index| faults[index - 1].label())
        .collect();
    Ok(SupervisedCampaign {
        campaign: Campaign::assemble(baseline, entries, quarantined),
        ledger,
    })
}
