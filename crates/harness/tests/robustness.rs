//! Checkpoint robustness: damaged snapshots must never corrupt results.
//!
//! [`Resume::Require`] refuses every damaged form with a typed error;
//! [`Resume::Attempt`] silently restarts from scratch and still produces
//! the uninterrupted result — recomputation is the only acceptable cost of
//! a bad snapshot.

use std::path::{Path, PathBuf};

use agemul::{EngineConfig, MultiplierDesign, PatternSet};
use agemul_circuits::MultiplierKind;
use agemul_faults::FaultSpec;
use agemul_harness::{
    run_campaign_supervised, Checkpoint, CheckpointError, HarnessError, Resume, SupervisorConfig,
};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agemul-robust-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn design() -> MultiplierDesign {
    MultiplierDesign::new(MultiplierKind::ColumnBypass, 4).unwrap()
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_every: 1,
        retry_backoff: std::time::Duration::ZERO,
        ..SupervisorConfig::default()
    }
}

/// Writes a healthy checkpoint, returns its path and document text.
fn healthy_checkpoint(tag: &str) -> (PathBuf, String, String) {
    let d = design();
    let patterns = PatternSet::uniform(4, 10, 1);
    let faults = FaultSpec::sample(&d, 10, 2, 2);
    let path = temp_dir(tag).join("ckpt.json");
    run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Fresh,
    )
    .unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    let run_key = Checkpoint::load(&path, None).unwrap().run_key;
    (path, text, run_key)
}

fn rerun(path: &Path, resume: Resume) -> Result<String, HarnessError> {
    let d = design();
    let patterns = PatternSet::uniform(4, 10, 1);
    let faults = FaultSpec::sample(&d, 10, 2, 2);
    run_campaign_supervised(&d, patterns.pairs(), &faults, &config(), Some(path), resume).map(|s| {
        s.campaign
            .run(&EngineConfig::adaptive(1.0, 2))
            .to_json()
            .to_string()
    })
}

#[test]
fn damaged_checkpoints_are_refused_under_require() {
    let (path, text, _) = healthy_checkpoint("require");
    let reference = rerun(&path, Resume::Require).unwrap();

    // Truncation (torn write survivor) → Parse.
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(matches!(
        rerun(&path, Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Parse { .. }))
    ));

    // Single-character corruption that still parses → Checksum.
    std::fs::write(&path, text.replace("baseline", "basemine")).unwrap();
    assert!(matches!(
        rerun(&path, Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Checksum { .. }))
    ));

    // Unknown schema → Schema.
    std::fs::write(
        &path,
        text.replace("agemul-harness-ckpt/1", "agemul-harness-ckpt/999"),
    )
    .unwrap();
    assert!(matches!(
        rerun(&path, Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Schema { .. }))
    ));

    // Missing file → Io.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        rerun(&path, Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Io { .. }))
    ));

    // After all that, a fresh run still reproduces the reference.
    assert_eq!(rerun(&path, Resume::Fresh).unwrap(), reference);
}

#[test]
fn attempt_mode_restarts_cleanly_from_every_damaged_form() {
    let (path, text, _) = healthy_checkpoint("attempt");
    let reference = rerun(&path, Resume::Fresh).unwrap();

    for (name, damaged) in [
        ("truncated", text[..text.len() / 3].to_string()),
        ("bit-flipped", text.replace("baseline", "basemine")),
        (
            "wrong-schema",
            text.replace("agemul-harness-ckpt/1", "nope/0"),
        ),
        ("not-json", "}{ definitely not json".to_string()),
    ] {
        std::fs::write(&path, &damaged).unwrap();
        let report = rerun(&path, Resume::Attempt).unwrap();
        assert_eq!(report, reference, "damage mode: {name}");
        // The damaged file was overwritten with a healthy checkpoint.
        Checkpoint::load(&path, None).unwrap();
    }
}

#[test]
fn checkpoint_from_a_different_workload_is_not_merged() {
    let (path, _, run_key) = healthy_checkpoint("foreign");

    // Same file, different workload: keys differ → Require refuses…
    let d = design();
    let other = PatternSet::uniform(4, 10, 999);
    let faults = FaultSpec::sample(&d, 10, 2, 2);
    let err = run_campaign_supervised(
        &d,
        other.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Require,
    )
    .unwrap_err();
    match err {
        HarnessError::Checkpoint(CheckpointError::RunMismatch { found, .. }) => {
            assert_eq!(found, run_key);
        }
        other => panic!("expected RunMismatch, got {other}"),
    }

    // …and Attempt recomputes rather than merging foreign evidence.
    let supervised = run_campaign_supervised(
        &d,
        other.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Attempt,
    )
    .unwrap();
    assert!(supervised.ledger.quarantined().is_empty());
    // The checkpoint now belongs to the new run.
    assert_ne!(Checkpoint::load(&path, None).unwrap().run_key, run_key);
}
