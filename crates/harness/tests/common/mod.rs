//! The real worker the harness's end-to-end tests supervise: case `i`
//! profiles one small CB 4×4 workload on the levelized kernel and records
//! it through [`profile_to_json`], so every compared ledger and checkpoint
//! carries the lossless profile codec.

#![allow(dead_code)] // each test binary uses its own subset

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::time::Duration;

use agemul::{Json, MultiplierDesign, PatternProfile, PatternSet, SimEngine};
use agemul_circuits::MultiplierKind;
use agemul_harness::{
    profile_to_json, Attempt, CaseError, HarnessError, Resume, RunLedger, Supervisor,
    SupervisorConfig,
};

/// Checkpoint after every case, retry without sleeping.
pub fn config() -> SupervisorConfig {
    SupervisorConfig {
        checkpoint_every: 1,
        retry_backoff: Duration::ZERO,
        ..SupervisorConfig::default()
    }
}

/// A fresh per-process temp directory for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("agemul-harness-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// `cases` workloads of `pairs` uniform operand pairs each, seeded
/// `seed`, `seed + 1`, …; case `i` profiles workload `i`.
pub struct Workloads {
    design: MultiplierDesign,
    seed: u64,
    cases: usize,
    pairs: usize,
    evaluated: Cell<usize>,
}

impl Workloads {
    pub fn new(seed: u64, cases: usize, pairs: usize) -> Self {
        Workloads {
            design: MultiplierDesign::new(MultiplierKind::ColumnBypass, 4).unwrap(),
            seed,
            cases,
            pairs,
            evaluated: Cell::new(0),
        }
    }

    /// Fingerprints the work: two runs share a key exactly when every
    /// case's result is interchangeable.
    pub fn run_key(&self) -> String {
        format!(
            "profile/CB4x4/{}x{}/{:x}",
            self.cases, self.pairs, self.seed
        )
    }

    pub fn labels(&self) -> Vec<String> {
        (0..self.cases).map(|i| format!("workload{i}")).collect()
    }

    fn patterns(&self, index: usize) -> PatternSet {
        PatternSet::uniform(4, self.pairs, self.seed.wrapping_add(index as u64))
    }

    /// The supervised worker: profiles case `attempt.index` under the
    /// attempt's deadline token.
    pub fn work(&self, attempt: &Attempt) -> Result<Json, CaseError> {
        self.evaluated.set(self.evaluated.get() + 1);
        let profile = self
            .design
            .profile_supervised(
                self.patterns(attempt.index).pairs(),
                None,
                SimEngine::Level,
                attempt.cancel.as_ref(),
            )
            .map_err(|e| CaseError::from_error(&e))?;
        Ok(profile_to_json(&profile))
    }

    /// Case `index`'s profile, computed directly without supervision.
    pub fn profile(&self, index: usize) -> PatternProfile {
        self.design
            .profile(self.patterns(index).pairs(), None)
            .unwrap()
    }

    /// Attempts the worker has run since the last call.
    pub fn take_evaluated(&self) -> usize {
        self.evaluated.replace(0)
    }

    pub fn run_with(
        &self,
        config: SupervisorConfig,
        checkpoint: Option<&Path>,
        resume: Resume,
    ) -> Result<RunLedger, HarnessError> {
        Supervisor::new(self.run_key(), self.labels(), config).run(
            &|a: &Attempt| self.work(a),
            checkpoint,
            resume,
        )
    }

    pub fn run(
        &self,
        checkpoint: Option<&Path>,
        resume: Resume,
    ) -> Result<RunLedger, HarnessError> {
        self.run_with(config(), checkpoint, resume)
    }
}
