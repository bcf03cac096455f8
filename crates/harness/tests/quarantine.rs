//! Panic isolation and deadline budgets, end to end.
//!
//! A genuinely unwinding fault case ([`FaultSpec::PanicForTest`]) must be
//! quarantined while the rest of the campaign completes and is counted in
//! the [`CampaignReport`]'s quarantine ledger; a deadline that cannot be
//! met must quarantine through the cancellation path threaded into the
//! gate-level simulators, not by killing the process.

use std::path::PathBuf;
use std::time::Duration;

use agemul::{EngineConfig, MultiplierDesign, PatternSet};
use agemul_circuits::MultiplierKind;
use agemul_faults::FaultSpec;
use agemul_harness::{run_campaign_supervised, HarnessError, Resume, SupervisorConfig};

fn design() -> MultiplierDesign {
    MultiplierDesign::new(MultiplierKind::ColumnBypass, 4).unwrap()
}

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agemul-quar-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ckpt.json")
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_every: 1,
        retry_backoff: Duration::ZERO,
        ..SupervisorConfig::default()
    }
}

#[test]
fn poison_fault_is_quarantined_and_campaign_completes() {
    let d = design();
    let patterns = PatternSet::uniform(4, 16, 21);
    let mut faults = FaultSpec::sample(&d, 16, 4, 33);
    faults.insert(2, FaultSpec::PanicForTest);

    let supervised = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        None,
        Resume::Fresh,
    )
    .unwrap();

    // Ledger: exactly the poison case (campaign case index 3 = fault 2)
    // quarantined, with the panic message recorded; no retries burned.
    assert_eq!(supervised.ledger.quarantined(), vec![3]);
    let rec = &supervised.ledger.records[3];
    assert_eq!(rec.retries, 0, "a panic must not consume the retry budget");

    // Report: the four real faults classified, the poison one counted.
    let report = supervised.campaign.run(&EngineConfig::adaptive(1.0, 2));
    assert_eq!(report.outcomes.len(), 4);
    assert_eq!(report.quarantined, vec!["poison".to_string()]);
    assert_eq!(report.quarantined(), 1);
    assert!(report
        .to_json()
        .to_string()
        .contains("\"quarantined\":[\"poison\"]"));
}

#[test]
fn poison_case_survives_checkpoint_and_resume() {
    let d = design();
    let patterns = PatternSet::uniform(4, 12, 2);
    let faults = vec![FaultSpec::PanicForTest];
    let path = temp_path("resume");

    let first = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Fresh,
    )
    .unwrap();
    assert_eq!(first.ledger.quarantined(), vec![1]);

    // Resuming replays the quarantine verdict from the checkpoint — the
    // poison worker must NOT run again (it would panic again, fine, but
    // the record proves it was skipped: retries and reason are identical).
    let resumed = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Require,
    )
    .unwrap();
    assert_eq!(resumed.ledger, first.ledger);
    assert_eq!(
        resumed.campaign.run(&EngineConfig::adaptive(1.0, 2)),
        first.campaign.run(&EngineConfig::adaptive(1.0, 2))
    );
}

#[test]
fn poisoned_baseline_is_fatal_not_silent() {
    // An impossible deadline cancels the baseline profile on every
    // attempt, which must surface
    // as a typed fatal error — a campaign without a baseline means
    // nothing.
    let d = design();
    let patterns = PatternSet::uniform(4, 64, 5);
    let faults = FaultSpec::sample(&d, 64, 2, 6);
    let err = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &SupervisorConfig {
            deadline: Some(Duration::ZERO),
            ..config()
        },
        None,
        Resume::Fresh,
    )
    .unwrap_err();
    match err {
        HarnessError::PoisonedBaseline { reason } => {
            assert!(reason.contains("deadline exceeded"), "{reason}");
        }
        other => panic!("expected PoisonedBaseline, got {other}"),
    }
}

#[test]
fn generous_deadline_completes_without_retries_or_degradation() {
    let d = design();
    let patterns = PatternSet::uniform(4, 16, 8);
    let faults = FaultSpec::sample(&d, 16, 3, 9);
    let supervised = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &SupervisorConfig {
            deadline: Some(Duration::from_secs(60)),
            ..config()
        },
        None,
        Resume::Fresh,
    )
    .unwrap();
    assert!(supervised.ledger.quarantined().is_empty());
    for rec in &supervised.ledger.records {
        assert_eq!(rec.retries, 0);
    }
}
