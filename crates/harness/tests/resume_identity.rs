//! Resume identity: a supervised run interrupted at any point and resumed
//! from its checkpoint produces a ledger, and a checkpoint document,
//! **bit-identical** to an uninterrupted run — the tentpole guarantee of
//! the harness.
//!
//! The tests simulate the interruption by truncating the checkpoint file
//! (exactly what a SIGKILL between snapshot writes leaves behind) and
//! resuming with [`Resume::Require`]. Every case profiles a real workload
//! and records it through the lossless profile codec, so the compared
//! bytes carry full-precision delays. `scripts/quick_digests.sh` repeats
//! the experiment with a real SIGKILL against `repro --resume`.

mod common;

use agemul_harness::{profile_from_json, CaseStatus, Checkpoint, Resume, Supervisor};
use common::{config, temp_dir, Workloads};
use proptest::prelude::*;

#[test]
fn campaign_resumed_from_truncated_checkpoint_is_bit_identical() {
    let w = Workloads::new(3, 6, 20);
    let dir = temp_dir("resume-cut");
    let path = dir.join("ckpt.json");
    let full = w.run(Some(&path), Resume::Fresh).unwrap();
    let full_doc = std::fs::read_to_string(&path).unwrap();
    // Every recorded value decodes to the profile computed directly.
    for rec in &full.records {
        let CaseStatus::Done { value } = &rec.status else {
            panic!("case {} quarantined: {:?}", rec.index, rec.status);
        };
        assert_eq!(profile_from_json(value).unwrap(), w.profile(rec.index));
    }

    // Interrupt at every possible point: 0 completed cases .. all-but-one.
    for survivors in 0..full.records.len() {
        let mut ck = Checkpoint::load(&path, Some(&w.run_key())).unwrap();
        ck.entries.truncate(survivors);
        let cut = dir.join(format!("cut{survivors}.json"));
        ck.save_atomic(&cut).unwrap();

        w.take_evaluated();
        let resumed = w.run(Some(&cut), Resume::Require).unwrap();
        assert_eq!(resumed, full, "survivors={survivors}");
        assert_eq!(
            w.take_evaluated(),
            full.records.len() - survivors,
            "only the missing cases run"
        );
        // The rewritten checkpoint is complete, byte for byte.
        assert_eq!(std::fs::read_to_string(&cut).unwrap(), full_doc);
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint written before the Level→Event fallback was retired, its
/// entries still carrying `"engine"` and `"degraded"`: the first two of
/// four cases of a CB 4×4 campaign (24 pairs, seed 5), a profile and a
/// fault's evidence. It loads under the unchanged schema, and its
/// recorded entries come back verbatim; only the two missing cases run.
#[test]
fn checkpoint_written_before_the_rung_removal_resumes_identically() {
    const FIXTURE: &str = include_str!("fixtures/campaign-before-rung-removal.ckpt.json");
    assert!(FIXTURE.contains(r#""engine":"level""#) && FIXTURE.contains(r#""degraded":false"#));
    let recorded = Checkpoint::from_document(FIXTURE).unwrap();
    assert_eq!((recorded.total, recorded.entries.len()), (4, 2));

    let dir = temp_dir("legacy");
    let path = dir.join("ckpt.json");
    std::fs::write(&path, FIXTURE).unwrap();
    // Case 0 of these workloads is the fixture's profile: 24 pairs, seed 5.
    let w = Workloads::new(5, 4, 24);
    let supervisor = Supervisor::new(recorded.run_key.clone(), w.labels(), config());
    let ledger = supervisor
        .run(&|a| w.work(a), Some(&path), Resume::Require)
        .unwrap();

    assert_eq!(w.take_evaluated(), 2);
    assert_eq!(ledger.records[..2], recorded.entries[..]);
    let CaseStatus::Done { value } = &ledger.records[0].status else {
        panic!("fixture profile quarantined");
    };
    assert_eq!(profile_from_json(value).unwrap(), w.profile(0));
    for rec in &ledger.records[2..] {
        assert!(matches!(rec.status, CaseStatus::Done { .. }), "{rec:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized workload seeds and cut points: the resumed ledger and
    /// checkpoint always equal the uninterrupted ones.
    #[test]
    fn resume_identity_holds_for_random_seeds_and_cuts(
        seed in any::<u64>(),
        cut_pick in any::<u16>(),
    ) {
        let w = Workloads::new(seed, 4, 12);
        let dir = temp_dir(&format!("prop-{seed:x}"));
        let path = dir.join("ckpt.json");
        let full = w.run(Some(&path), Resume::Fresh).unwrap();
        let full_doc = std::fs::read_to_string(&path).unwrap();

        let mut ck = Checkpoint::load(&path, None).unwrap();
        let survivors = usize::from(cut_pick) % ck.entries.len();
        ck.entries.truncate(survivors);
        ck.save_atomic(&path).unwrap();

        let resumed = w.run(Some(&path), Resume::Require).unwrap();
        prop_assert_eq!(&resumed, &full);
        prop_assert_eq!(std::fs::read_to_string(&path).unwrap(), full_doc);
        std::fs::remove_dir_all(&dir).ok();
    }
}
