//! Checkpoint robustness under injected filesystem faults (chaos seam 1).
//!
//! Each test arms a seeded `agemul-chaos` plan scoped to its own temp
//! directory and drives a supervised run through the `ckpt/write_tmp`,
//! `ckpt/rename`, and `ckpt/read` failpoints, asserting the standing
//! invariants: the prior checkpoint generation survives every failed save,
//! a checkpoint on disk either loads cleanly with trustworthy content or is
//! refused with a typed error, and a disarmed resume converges to the
//! byte-identical ledger and document of an uninterrupted run.

use std::path::{Path, PathBuf};

use agemul::Json;
use agemul_chaos::{arm, ChaosPlan, FaultKind, PPM};
use agemul_harness::{
    Attempt, CaseStatus, Checkpoint, CheckpointError, Resume, RunLedger, Supervisor,
    SupervisorConfig,
};

const CASES: usize = 6;

fn labels() -> Vec<String> {
    (0..CASES).map(|i| format!("case{i}")).collect()
}

fn config() -> SupervisorConfig {
    SupervisorConfig {
        retry_backoff: std::time::Duration::ZERO,
        checkpoint_every: 2,
        ..SupervisorConfig::default()
    }
}

fn worker(a: &Attempt) -> Result<Json, agemul_harness::CaseError> {
    Ok(Json::UInt(a.index as u64 * 7 + 1))
}

fn supervisor() -> Supervisor {
    Supervisor::new("chaos-ckpt", labels(), config())
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agemul-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// An uninterrupted run's ledger and final on-disk checkpoint document —
/// the byte-identity reference every chaos run must converge to.
fn reference(dir: &Path) -> (RunLedger, String) {
    let path = dir.join("reference.json");
    let ledger = supervisor()
        .run(&worker, Some(&path), Resume::Fresh)
        .unwrap();
    let doc = std::fs::read_to_string(&path).unwrap();
    (ledger, doc)
}

/// Any checkpoint that loads at all must contain exactly the reference
/// records for the indices it covers — a partial generation is fine, a
/// divergent one never is.
fn assert_clean_prefix(path: &Path, reference: &RunLedger) {
    match Checkpoint::load(path, Some("chaos-ckpt")) {
        Ok(ck) => {
            assert_eq!(ck.total, CASES);
            for rec in &ck.entries {
                assert_eq!(
                    rec, &reference.records[rec.index],
                    "checkpoint entry {} diverges from the reference run",
                    rec.index
                );
            }
        }
        Err(e) => panic!("surviving checkpoint failed to load: {e}"),
    }
}

#[test]
fn enospc_mid_run_preserves_prior_generation_and_resume_is_byte_identical() {
    let dir = temp_dir("enospc");
    let (ref_ledger, ref_doc) = reference(&dir);

    let mut injected_total = 0;
    for seed in 0..8u64 {
        let run_dir = dir.join(format!("seed{seed}"));
        std::fs::create_dir_all(&run_dir).unwrap();
        let path = run_dir.join("ck.json");
        let scope = run_dir.to_string_lossy().into_owned();

        let outcome = {
            let guard = arm(ChaosPlan::new(seed).rule(
                "ckpt/write_tmp",
                &scope,
                500_000,
                &[FaultKind::IoError, FaultKind::Torn],
            ));
            let outcome = supervisor().run(&worker, Some(&path), Resume::Fresh);
            injected_total += guard.injected_total();
            outcome
        };

        match outcome {
            // A save failed mid-run: whatever generation survives on disk
            // must load cleanly (or not exist at all — the very first save
            // may have been the one hit).
            Err(e) => {
                assert!(e.to_string().contains("chaos:"), "unexpected failure: {e}");
                if path.exists() {
                    assert_clean_prefix(&path, &ref_ledger);
                }
            }
            Ok(ledger) => assert_eq!(ledger, ref_ledger),
        }

        // A torn temp file may remain — exactly what a crash would leave.
        // It must never shadow the committed generation.
        let resumed = supervisor()
            .run(&worker, Some(&path), Resume::Attempt)
            .unwrap();
        assert_eq!(resumed, ref_ledger, "seed {seed}: resume diverged");
        assert_eq!(
            std::fs::read_to_string(&path).unwrap(),
            ref_doc,
            "seed {seed}: final checkpoint is not byte-identical"
        );
    }
    assert!(
        injected_total > 0,
        "the schedule matrix never injected a write fault"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rename_failure_leaves_prior_generation_untouched() {
    let dir = temp_dir("rename");
    let (ref_ledger, ref_doc) = reference(&dir);
    let path = dir.join("ck.json");

    // Install a prior generation: the first two completed cases.
    let prior = Checkpoint {
        run_key: "chaos-ckpt".into(),
        total: CASES,
        entries: ref_ledger.records[..2].to_vec(),
    };
    prior.save_atomic(&path).unwrap();
    let prior_doc = std::fs::read_to_string(&path).unwrap();

    {
        let _guard = arm(ChaosPlan::new(41).rule(
            "ckpt/rename",
            &dir.to_string_lossy(),
            PPM,
            &[FaultKind::IoError],
        ));
        let err = supervisor()
            .run(&worker, Some(&path), Resume::Attempt)
            .unwrap_err();
        assert!(err.to_string().contains("chaos: injected rename failure"));
    }

    // The commit rename never happened: the prior generation is untouched
    // byte for byte, and the orphaned temp file sits beside it.
    assert_eq!(std::fs::read_to_string(&path).unwrap(), prior_doc);
    assert!(dir.join("ck.json.tmp").exists(), "temp file should remain");
    assert_clean_prefix(&path, &ref_ledger);

    // Disarmed resume completes the run byte-identically.
    let resumed = supervisor()
        .run(&worker, Some(&path), Resume::Attempt)
        .unwrap();
    assert_eq!(resumed, ref_ledger);
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_doc);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupted_read_back_is_typed_and_attempt_recomputes() {
    let dir = temp_dir("readback");
    let (ref_ledger, ref_doc) = reference(&dir);
    let path = dir.join("ck.json");
    supervisor()
        .run(&worker, Some(&path), Resume::Fresh)
        .unwrap();

    let scope = dir.to_string_lossy().into_owned();
    let mut refused = 0;
    for seed in 0..16u64 {
        let guard = arm(ChaosPlan::new(seed).rule(
            "ckpt/read",
            &scope,
            PPM,
            &[FaultKind::BitFlip, FaultKind::Torn, FaultKind::IoError],
        ));
        // Corrupt read-back must be a typed refusal — never an `Ok` with
        // silently-wrong content (the schema/CRC envelope's whole job).
        match Checkpoint::load(&path, Some("chaos-ckpt")) {
            Ok(ck) => {
                let doc = ck.to_document();
                assert_eq!(
                    doc, ref_doc,
                    "seed {seed}: corrupt load passed verification"
                );
            }
            Err(
                CheckpointError::Io { .. }
                | CheckpointError::Parse { .. }
                | CheckpointError::Checksum { .. }
                | CheckpointError::Schema { .. },
            ) => refused += 1,
            Err(other) => panic!("seed {seed}: unexpected refusal {other}"),
        }
        drop(guard);
    }
    assert!(refused > 0, "no read-back corruption was ever injected");

    // Under Resume::Attempt a refused load restarts from scratch and the
    // recomputed run converges to the identical document.
    {
        let _guard = arm(ChaosPlan::new(3).rule("ckpt/read", &scope, PPM, &[FaultKind::Torn]));
        let ledger = supervisor()
            .run(&worker, Some(&path), Resume::Attempt)
            .unwrap();
        assert_eq!(ledger, ref_ledger);
    }
    assert_eq!(std::fs::read_to_string(&path).unwrap(), ref_doc);

    // Resume::Require refuses to run at all when the load is poisoned.
    {
        let _guard = arm(ChaosPlan::new(5).rule("ckpt/read", &scope, PPM, &[FaultKind::IoError]));
        let err = supervisor()
            .run(&worker, Some(&path), Resume::Require)
            .unwrap_err();
        assert!(err.to_string().contains("chaos:"), "{err}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quarantined_entries_survive_faulted_saves() {
    // A run with a quarantined case exercises the other CaseStatus arm
    // through the same fault schedule: the poisoned record must round-trip
    // through partial generations exactly like a Done record.
    let dir = temp_dir("quarantine");
    let path = dir.join("ck.json");
    let poison = |a: &Attempt| {
        if a.index == 3 {
            panic!("deliberate poison");
        }
        worker(a)
    };
    let ref_ledger = supervisor()
        .run(&poison, Some(&path), Resume::Fresh)
        .unwrap();
    let ref_doc = std::fs::read_to_string(&path).unwrap();
    assert_eq!(ref_ledger.quarantined(), vec![3]);
    std::fs::remove_file(&path).unwrap();

    let scope = dir.to_string_lossy().into_owned();
    for seed in 0..4u64 {
        let run_path = dir.join(format!("ck-{seed}.json"));
        {
            let _guard = arm(ChaosPlan::new(seed).rule(
                "ckpt/write_tmp",
                &scope,
                400_000,
                &[FaultKind::Torn, FaultKind::IoError],
            ));
            let _ = supervisor().run(&poison, Some(&run_path), Resume::Fresh);
        }
        let resumed = supervisor()
            .run(&poison, Some(&run_path), Resume::Attempt)
            .unwrap();
        assert_eq!(resumed, ref_ledger);
        assert_eq!(std::fs::read_to_string(&run_path).unwrap(), ref_doc);
        let ck = Checkpoint::load(&run_path, Some("chaos-ckpt")).unwrap();
        assert!(matches!(
            ck.entries[3].status,
            CaseStatus::Quarantined { .. }
        ));
    }
    std::fs::remove_dir_all(&dir).ok();
}
