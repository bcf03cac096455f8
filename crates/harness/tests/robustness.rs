//! Checkpoint robustness: damaged snapshots must never corrupt results.
//!
//! [`Resume::Require`] refuses every damaged form with a typed error;
//! [`Resume::Attempt`] silently restarts from scratch and still produces
//! the uninterrupted result — recomputation is the only acceptable cost of
//! a bad snapshot.

mod common;

use std::path::PathBuf;

use agemul_harness::{Checkpoint, CheckpointError, HarnessError, Resume, RunLedger};
use common::{temp_dir, Workloads};

fn workloads() -> Workloads {
    Workloads::new(1, 3, 10)
}

/// Writes a healthy checkpoint; returns its path, document text and the
/// uninterrupted ledger.
fn healthy_checkpoint(tag: &str) -> (PathBuf, String, RunLedger) {
    let path = temp_dir(tag).join("ckpt.json");
    let ledger = workloads().run(Some(&path), Resume::Fresh).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    (path, text, ledger)
}

#[test]
fn damaged_checkpoints_are_refused_under_require() {
    let (path, text, reference) = healthy_checkpoint("require");
    let w = workloads();
    assert_eq!(w.run(Some(&path), Resume::Require).unwrap(), reference);

    // Truncation (torn write survivor) → Parse.
    std::fs::write(&path, &text[..text.len() / 2]).unwrap();
    assert!(matches!(
        w.run(Some(&path), Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Parse { .. }))
    ));

    // Single-character corruption that still parses → Checksum.
    std::fs::write(&path, text.replace("workload1", "workloadX")).unwrap();
    assert!(matches!(
        w.run(Some(&path), Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Checksum { .. }))
    ));

    // Unknown schema → Schema.
    std::fs::write(
        &path,
        text.replace("agemul-harness-ckpt/1", "agemul-harness-ckpt/999"),
    )
    .unwrap();
    assert!(matches!(
        w.run(Some(&path), Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Schema { .. }))
    ));

    // Missing file → Io.
    std::fs::remove_file(&path).unwrap();
    assert!(matches!(
        w.run(Some(&path), Resume::Require),
        Err(HarnessError::Checkpoint(CheckpointError::Io { .. }))
    ));

    // None of the refused runs evaluated a case; a fresh run still
    // reproduces the reference.
    assert_eq!(w.take_evaluated(), 0);
    assert_eq!(w.run(Some(&path), Resume::Fresh).unwrap(), reference);
}

#[test]
fn attempt_mode_restarts_cleanly_from_every_damaged_form() {
    let (path, text, reference) = healthy_checkpoint("attempt");
    let w = workloads();

    for (name, damaged) in [
        ("truncated", text[..text.len() / 3].to_string()),
        ("bit-flipped", text.replace("workload1", "workloadX")),
        (
            "wrong-schema",
            text.replace("agemul-harness-ckpt/1", "nope/0"),
        ),
        ("not-json", "}{ definitely not json".to_string()),
    ] {
        std::fs::write(&path, &damaged).unwrap();
        assert_eq!(
            w.run(Some(&path), Resume::Attempt).unwrap(),
            reference,
            "damage mode: {name}"
        );
        assert_eq!(w.take_evaluated(), reference.records.len(), "{name}");
        // The damaged file was overwritten with the healthy checkpoint.
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text, "{name}");
    }
}

#[test]
fn checkpoint_from_a_different_workload_is_not_merged() {
    let (path, _, reference) = healthy_checkpoint("foreign");

    // Same file, different workload: keys differ → Require refuses…
    let other = Workloads::new(999, 3, 10);
    match other.run(Some(&path), Resume::Require).unwrap_err() {
        HarnessError::Checkpoint(CheckpointError::RunMismatch { found, .. }) => {
            assert_eq!(found, reference.run_key);
        }
        e => panic!("expected RunMismatch, got {e}"),
    }

    // …and Attempt recomputes every case rather than merging foreign
    // evidence.
    let ledger = other.run(Some(&path), Resume::Attempt).unwrap();
    assert_eq!(other.take_evaluated(), ledger.records.len());
    assert!(ledger.quarantined().is_empty());
    assert_ne!(ledger, reference);
    // The checkpoint now belongs to the new run.
    assert_eq!(
        Checkpoint::load(&path, None).unwrap().run_key,
        other.run_key()
    );
}
