//! The supervised case loop: catch panics, enforce deadlines, retry with
//! backoff, checkpoint.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Duration;

use agemul::{CancelToken, Json};

use crate::checkpoint::{CaseRecord, CaseStatus, Checkpoint, CheckpointError};
use crate::snapshot::is_cancellation;
use crate::HarnessError;

/// Supervision policy for one run.
#[derive(Clone, Debug)]
pub struct SupervisorConfig {
    /// Per-attempt wall-clock budget, enforced cooperatively through the
    /// attempt's [`CancelToken`]. `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Retries after the first attempt, so a case gets at most
    /// `max_retries + 1` attempts. 0 means one try.
    pub max_retries: u32,
    /// Base backoff before retry `r` (sleeps `backoff << (r-1)`, capped at
    /// 1024×). Keep small; this exists to let transient load pass, not to
    /// pace a scheduler.
    pub retry_backoff: Duration,
    /// Cases to complete between checkpoint writes (min 1).
    pub checkpoint_every: usize,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            deadline: None,
            max_retries: 2,
            retry_backoff: Duration::from_millis(1),
            checkpoint_every: 8,
        }
    }
}

/// How to treat an existing checkpoint at run start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Resume {
    /// Ignore any checkpoint on disk and recompute every case (the
    /// checkpoint file, if configured, is overwritten as the run
    /// progresses).
    Fresh,
    /// Resume from the checkpoint if it loads cleanly and matches this
    /// run; otherwise silently restart from scratch. The default for
    /// unattended runs: a corrupt snapshot costs recomputation, never
    /// corrupt merged results.
    Attempt,
    /// Resume or fail: any load error (missing file included) aborts the
    /// run. For workflows where recomputation must be impossible.
    Require,
}

/// One attempt at one case, handed to the worker.
#[derive(Clone, Debug)]
pub struct Attempt {
    /// 0-based case index.
    pub index: usize,
    /// Which retry this is (0 = first attempt).
    pub retry: u32,
    /// Deadline token for this attempt, if the policy sets one. Workers
    /// thread it into the simulation layers ([`agemul::MultiplierDesign::
    /// profile_supervised`] and friends poll it cooperatively).
    pub cancel: Option<CancelToken>,
}

/// Why a worker gave up on an attempt (panics are caught separately).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CaseError {
    /// The attempt's deadline fired (the worker observed
    /// [`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)).
    Cancelled,
    /// Any other failure, rendered.
    Failed(String),
}

impl CaseError {
    /// Classifies a worker's failure: [`CaseError::Cancelled`] when `err`'s
    /// source chain bottoms out in a cooperative deadline
    /// ([`NetlistError::Cancelled`](agemul_netlist::NetlistError::Cancelled)),
    /// [`CaseError::Failed`] with the rendered error otherwise.
    pub fn from_error(err: &(dyn std::error::Error + 'static)) -> CaseError {
        if is_cancellation(err) {
            CaseError::Cancelled
        } else {
            CaseError::Failed(err.to_string())
        }
    }
}

/// The completed ledger of a supervised run: every case accounted for, in
/// index order.
#[derive(Clone, Debug, PartialEq)]
pub struct RunLedger {
    /// The run fingerprint the ledger belongs to.
    pub run_key: String,
    /// One record per case, index order, no gaps.
    pub records: Vec<CaseRecord>,
}

impl RunLedger {
    /// Indices of quarantined cases, in order.
    pub fn quarantined(&self) -> Vec<usize> {
        self.records
            .iter()
            .filter(|r| matches!(r.status, CaseStatus::Quarantined { .. }))
            .map(|r| r.index)
            .collect()
    }
}

/// Runs an indexed list of cases under the crate's three protections.
/// See the crate docs for the model; construct with [`Supervisor::new`]
/// and execute with [`Supervisor::run`].
pub struct Supervisor {
    run_key: String,
    labels: Vec<String>,
    config: SupervisorConfig,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl Supervisor {
    /// A supervisor for `labels.len()` cases identified by `run_key`.
    ///
    /// The key should fingerprint everything that determines the cases'
    /// results (design, workload, case list); resuming checks it against
    /// the checkpoint's recorded key.
    pub fn new(run_key: impl Into<String>, labels: Vec<String>, config: SupervisorConfig) -> Self {
        Supervisor {
            run_key: run_key.into(),
            labels,
            config,
        }
    }

    /// Executes every case not already recorded in the checkpoint.
    ///
    /// `worker` evaluates one [`Attempt`] to its serialized evidence. It
    /// runs under `catch_unwind`; a panic quarantines the case. Returning
    /// [`CaseError::Cancelled`] (deadline) or [`CaseError::Failed`]
    /// consumes a retry; once the budget is exhausted, the case is
    /// quarantined with the last failure reason.
    ///
    /// # Errors
    ///
    /// Checkpoint I/O failures, and any load failure under
    /// [`Resume::Require`].
    pub fn run<W>(
        &self,
        worker: &W,
        checkpoint: Option<&Path>,
        resume: Resume,
    ) -> Result<RunLedger, HarnessError>
    where
        W: Fn(&Attempt) -> Result<Json, CaseError>,
    {
        let total = self.labels.len();
        let mut loaded: Vec<Option<CaseRecord>> = vec![None; total];

        if resume != Resume::Fresh {
            if let Some(path) = checkpoint {
                match Checkpoint::load(path, Some(&self.run_key)) {
                    Ok(ck) if ck.total == total => {
                        for rec in ck.entries {
                            let i = rec.index;
                            if i < total {
                                loaded[i] = Some(rec);
                            }
                        }
                    }
                    Ok(ck) => {
                        if resume == Resume::Require {
                            return Err(CheckpointError::RunMismatch {
                                expected: format!("{} ({total} cases)", self.run_key),
                                found: format!("{} ({} cases)", ck.run_key, ck.total),
                            }
                            .into());
                        }
                    }
                    Err(e) => {
                        if resume == Resume::Require {
                            return Err(e.into());
                        }
                        // Resume::Attempt: a missing or untrustworthy
                        // snapshot restarts from scratch — never merge
                        // suspect results.
                    }
                }
            }
        }

        // Each case's record is its loaded one or a fresh run, in index
        // order; a snapshot follows every `checkpoint_every` fresh runs and
        // the last one.
        let batch_size = self.config.checkpoint_every.max(1);
        let mut unsaved = 0;
        let mut records = Vec::with_capacity(total);
        for index in 0..total {
            let record = match loaded[index].take() {
                Some(rec) => rec,
                None => {
                    unsaved += 1;
                    run_case(&self.config, index, &self.labels[index], worker)
                }
            };
            records.push(record);
            if unsaved > 0 && (unsaved == batch_size || index + 1 == total) {
                if let Some(path) = checkpoint {
                    self.snapshot(&records, &loaded).save_atomic(path)?;
                }
                unsaved = 0;
            }
        }
        Ok(RunLedger {
            run_key: self.run_key.clone(),
            records,
        })
    }

    /// The checkpoint of the cases `done` so far plus the loaded records
    /// not yet reached, in index order.
    fn snapshot(&self, done: &[CaseRecord], loaded: &[Option<CaseRecord>]) -> Checkpoint {
        let entries = done.iter().chain(loaded.iter().flatten());
        Checkpoint {
            run_key: self.run_key.clone(),
            total: self.labels.len(),
            entries: entries.cloned().collect(),
        }
    }
}

/// Runs one case to its record: up to `max_retries + 1` attempts with
/// exponential backoff between them. A panic quarantines the case at once;
/// so does a failed last attempt, with its reason.
pub(crate) fn run_case<W>(
    config: &SupervisorConfig,
    index: usize,
    label: &str,
    worker: &W,
) -> CaseRecord
where
    W: Fn(&Attempt) -> Result<Json, CaseError>,
{
    let record = |retries: u32, status: CaseStatus| CaseRecord {
        index,
        label: label.to_string(),
        retries,
        status,
    };
    let mut last_reason = String::from("no attempt ran");
    for retry in 0..=config.max_retries {
        if retry > 0 {
            let shift = retry.saturating_sub(1).min(10);
            let backoff = config.retry_backoff.saturating_mul(1 << shift);
            if !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
        }
        let attempt = Attempt {
            index,
            retry,
            cancel: config.deadline.map(CancelToken::with_deadline),
        };
        match catch_unwind(AssertUnwindSafe(|| worker(&attempt))) {
            Ok(Ok(value)) => return record(retry, CaseStatus::Done { value }),
            Ok(Err(CaseError::Cancelled)) => {
                last_reason = format!("deadline exceeded (attempt {})", retry + 1);
            }
            Ok(Err(CaseError::Failed(msg))) => {
                last_reason = format!("failed (attempt {}): {msg}", retry + 1);
            }
            // A panic is deterministic poison: no retry — quarantine
            // immediately with the message.
            Err(payload) => {
                let reason = format!("panic: {}", panic_message(payload));
                return record(retry, CaseStatus::Quarantined { reason });
            }
        }
    }
    record(
        config.max_retries,
        CaseStatus::Quarantined {
            reason: last_reason,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SupervisorConfig {
        SupervisorConfig {
            retry_backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        }
    }

    fn labels(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("case{i}")).collect()
    }

    #[test]
    fn all_cases_complete_in_index_order() {
        let sup = Supervisor::new("k", labels(5), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| Ok(Json::UInt(a.index as u64 * 10)),
                None,
                Resume::Fresh,
            )
            .unwrap();
        assert_eq!(ledger.records.len(), 5);
        for (i, r) in ledger.records.iter().enumerate() {
            assert_eq!(r.index, i);
            assert_eq!(r.retries, 0);
            assert_eq!(
                r.status,
                CaseStatus::Done {
                    value: Json::UInt(i as u64 * 10)
                }
            );
        }
        assert!(ledger.quarantined().is_empty());
    }

    #[test]
    fn panicking_case_is_quarantined_without_retry() {
        let sup = Supervisor::new("k", labels(3), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| {
                    if a.index == 1 {
                        panic!("deliberate poison");
                    }
                    Ok(Json::Null)
                },
                None,
                Resume::Fresh,
            )
            .unwrap();
        assert_eq!(ledger.quarantined(), vec![1]);
        let r = &ledger.records[1];
        assert_eq!(r.retries, 0, "panic must not consume retries");
        assert!(
            matches!(&r.status, CaseStatus::Quarantined { reason } if reason.contains("deliberate poison"))
        );
        // Neighbours completed.
        assert!(matches!(ledger.records[0].status, CaseStatus::Done { .. }));
        assert!(matches!(ledger.records[2].status, CaseStatus::Done { .. }));
    }

    #[test]
    fn failed_case_retries_then_succeeds() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let sup = Supervisor::new("k", labels(1), cfg());
        let ledger = sup
            .run(
                &|a: &Attempt| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    if a.retry < 2 {
                        Err(CaseError::Failed("transient fault".into()))
                    } else {
                        Ok(Json::Str("on the last retry".into()))
                    }
                },
                None,
                Resume::Fresh,
            )
            .unwrap();
        // max_retries = 2 → the third attempt is the last and succeeds.
        assert_eq!(attempts.load(Ordering::Relaxed), 3);
        let r = &ledger.records[0];
        assert_eq!(r.retries, 2);
        assert!(matches!(r.status, CaseStatus::Done { .. }));
        assert!(ledger.quarantined().is_empty());
    }

    #[test]
    fn exhausted_budget_quarantines_with_last_reason() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let attempts = AtomicU32::new(0);
        let sup = Supervisor::new(
            "k",
            labels(1),
            SupervisorConfig {
                max_retries: 1,
                ..cfg()
            },
        );
        let ledger = sup
            .run(
                &|_: &Attempt| {
                    attempts.fetch_add(1, Ordering::Relaxed);
                    Err(CaseError::Cancelled)
                },
                None,
                Resume::Fresh,
            )
            .unwrap();
        // max_retries = 1 → exactly two attempts, then quarantine.
        assert_eq!(attempts.load(Ordering::Relaxed), 2);
        let r = &ledger.records[0];
        assert_eq!(
            r.status,
            CaseStatus::Quarantined {
                reason: "deadline exceeded (attempt 2)".into()
            }
        );
        assert_eq!(r.retries, 1);
    }

    #[test]
    fn resume_skips_recorded_cases() {
        use std::sync::atomic::{AtomicU32, Ordering};
        let dir = std::env::temp_dir().join(format!("agemul-sup-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");

        let sup = Supervisor::new("k", labels(4), cfg());
        let first = sup
            .run(
                &|a: &Attempt| Ok(Json::UInt(a.index as u64)),
                Some(&path),
                Resume::Fresh,
            )
            .unwrap();

        // Truncate the checkpoint to two completed cases.
        let mut ck = Checkpoint::load(&path, Some("k")).unwrap();
        ck.entries.truncate(2);
        ck.save_atomic(&path).unwrap();

        let evaluated = AtomicU32::new(0);
        let resumed = sup
            .run(
                &|a: &Attempt| {
                    evaluated.fetch_add(1, Ordering::Relaxed);
                    Ok(Json::UInt(a.index as u64))
                },
                Some(&path),
                Resume::Require,
            )
            .unwrap();
        assert_eq!(
            evaluated.load(Ordering::Relaxed),
            2,
            "only missing cases run"
        );
        assert_eq!(resumed, first);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn require_fails_on_missing_or_foreign_checkpoint() {
        let dir = std::env::temp_dir().join(format!("agemul-supreq-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ledger.json");
        let ok = |a: &Attempt| Ok(Json::UInt(a.index as u64));

        let sup = Supervisor::new("k", labels(2), cfg());
        assert!(sup.run(&ok, Some(&path), Resume::Require).is_err());

        // A checkpoint from a different run key is refused under Require
        // but silently recomputed under Attempt.
        Supervisor::new("other", labels(2), cfg())
            .run(&ok, Some(&path), Resume::Fresh)
            .unwrap();
        assert!(matches!(
            sup.run(&ok, Some(&path), Resume::Require),
            Err(HarnessError::Checkpoint(
                CheckpointError::RunMismatch { .. }
            ))
        ));
        let ledger = sup.run(&ok, Some(&path), Resume::Attempt).unwrap();
        assert_eq!(ledger.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
