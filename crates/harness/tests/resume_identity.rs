//! Resume identity: a supervised run interrupted at any point and resumed
//! from its checkpoint produces results **bit-identical** to an
//! uninterrupted run — the tentpole guarantee of the harness.
//!
//! The tests simulate the interruption by truncating the checkpoint file
//! (exactly what a SIGKILL between snapshot writes leaves behind) and
//! resuming with [`Resume::Require`], then compare rendered reports byte
//! for byte. `just soak-smoke` repeats the experiment with a real SIGKILL
//! against the `soak` binary.

use std::path::PathBuf;

use agemul::{EngineConfig, MultiplierDesign, PatternSet};
use agemul_circuits::MultiplierKind;
use agemul_faults::{Campaign, FaultSpec};
use agemul_harness::{run_campaign_supervised, Checkpoint, Resume, SupervisorConfig};
use proptest::prelude::*;

fn temp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agemul-resume-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join("ckpt.json")
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

#[test]
fn supervised_campaign_matches_unsupervised_batch_path() {
    let d = design();
    let patterns = PatternSet::uniform(4, 24, 7);
    let faults = FaultSpec::sample(&d, 24, 5, 11);

    let batch = Campaign::prepare(&d, patterns.pairs(), &faults).unwrap();
    let supervised = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        None,
        Resume::Fresh,
    )
    .unwrap();

    let cfg = EngineConfig::adaptive(1.0, 2);
    assert_eq!(
        supervised.campaign.run(&cfg).to_json().to_string(),
        batch.run(&cfg).to_json().to_string(),
        "per-case supervised evidence must be bit-identical to the 64-lane batch path"
    );
}

#[test]
fn campaign_resumed_from_truncated_checkpoint_is_bit_identical() {
    let d = design();
    let patterns = PatternSet::uniform(4, 20, 3);
    let faults = FaultSpec::sample(&d, 20, 6, 5);
    let cfg = EngineConfig::adaptive(1.0, 2);

    let path = temp_path("campaign");
    let full = run_campaign_supervised(
        &d,
        patterns.pairs(),
        &faults,
        &config(),
        Some(&path),
        Resume::Fresh,
    )
    .unwrap();
    let full_json = full.campaign.run(&cfg).to_json().to_string();

    // Interrupt at every possible point: 0 completed cases .. all-but-one.
    for survivors in 0..full.ledger.records.len() {
        let mut ck = Checkpoint::load(&path, None).unwrap();
        let run_key = ck.run_key.clone();
        ck.entries.truncate(survivors);
        let cut = temp_path(&format!("campaign-cut{survivors}"));
        ck.save_atomic(&cut).unwrap();

        let resumed = run_campaign_supervised(
            &d,
            patterns.pairs(),
            &faults,
            &config(),
            Some(&cut),
            Resume::Require,
        )
        .unwrap();
        assert_eq!(resumed.ledger, full.ledger, "survivors={survivors}");
        assert_eq!(resumed.campaign.run(&cfg).to_json().to_string(), full_json);
        // The rewritten checkpoint is complete and still keyed to the run.
        let after = Checkpoint::load(&cut, Some(&run_key)).unwrap();
        assert_eq!(after.entries.len(), full.ledger.records.len());
    }
}

/// A checkpoint written before the Level→Event fallback was retired, its
/// entries still carrying `"engine"` and `"degraded"`: the baseline and
/// first fault of a CB 4×4 campaign (24 pairs, seed 5; 3 faults, seed 6).
/// It resumes under the unchanged schema to the uninterrupted report.
#[test]
fn checkpoint_written_before_the_rung_removal_resumes_identically() {
    const FIXTURE: &str = include_str!("fixtures/campaign-before-rung-removal.ckpt.json");
    assert!(FIXTURE.contains(r#""engine":"level""#) && FIXTURE.contains(r#""degraded":false"#));
    let d = design();
    let patterns = PatternSet::uniform(4, 24, 5);
    let faults = FaultSpec::sample(&d, 24, 3, 6);
    let path = temp_path("legacy");
    std::fs::write(&path, FIXTURE).unwrap();
    let run = |checkpoint, resume| {
        run_campaign_supervised(&d, patterns.pairs(), &faults, &config(), checkpoint, resume)
            .unwrap()
    };
    let full = run(None, Resume::Fresh);
    let resumed = run(Some(path.as_path()), Resume::Require);
    assert_eq!(resumed.ledger, full.ledger);
    let cfg = EngineConfig::adaptive(1.0, 2);
    assert_eq!(
        resumed.campaign.run(&cfg).to_json().to_string(),
        full.campaign.run(&cfg).to_json().to_string()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized workload seeds and cut points: the resumed ledger always
    /// equals the uninterrupted one, and so does the rendered report.
    #[test]
    fn resume_identity_holds_for_random_seeds_and_cuts(
        seed in any::<u64>(),
        cut_pick in any::<u16>(),
    ) {
        let d = design();
        let patterns = PatternSet::uniform(4, 12, seed);
        let faults = FaultSpec::sample(&d, 12, 3, seed ^ 0xA5A5);
        let cfg = EngineConfig::adaptive(1.0, 2);

        let path = temp_path(&format!("prop-{seed:x}"));
        let full = run_campaign_supervised(
            &d, patterns.pairs(), &faults, &config(), Some(&path), Resume::Fresh,
        ).unwrap();

        let mut ck = Checkpoint::load(&path, None).unwrap();
        let survivors = usize::from(cut_pick) % ck.entries.len();
        ck.entries.truncate(survivors);
        ck.save_atomic(&path).unwrap();

        let resumed = run_campaign_supervised(
            &d, patterns.pairs(), &faults, &config(), Some(&path), Resume::Require,
        ).unwrap();
        prop_assert_eq!(&resumed.ledger, &full.ledger);
        prop_assert_eq!(
            resumed.campaign.run(&cfg).to_json().to_string(),
            full.campaign.run(&cfg).to_json().to_string()
        );
    }
}
