//! Supervised execution runtime for the workspace's long-running work.
//!
//! The paper's architecture keeps delivering correct products while the
//! hardware degrades for *years*; this crate applies the same philosophy
//! to the simulations themselves. Paper-scale fault campaigns, Monte Carlo
//! yield studies, and fleet policy studies run minutes to hours, and
//! before this crate a single panic, wedged case, or killed process
//! discarded every completed case. The [`Supervisor`] wraps any indexed list of cases in three
//! protections:
//!
//! * **crash-safe checkpointing** — completed-case ledgers are snapshotted
//!   as JSON ([`Checkpoint`]) with an atomic temp-file + rename write and a
//!   CRC32 self-check; a resumed run skips exactly the recorded cases, and
//!   the per-case evidence round-trips bit-identically, so a killed run
//!   resumed from its checkpoint matches an uninterrupted run;
//! * **panic isolation and quarantine** — each case executes under
//!   [`std::panic::catch_unwind`]; a panicking case lands in the poisoned-
//!   case ledger with its panic message instead of aborting the run;
//! * **deadline budgets with bounded retry** — an optional per-case
//!   wall-clock deadline is enforced cooperatively through
//!   [`CancelToken`](agemul::CancelToken), which the `EventSim`/`LevelSim`
//!   step loops and the campaign evaluation loops poll; an overrun case is
//!   retried with exponential backoff before quarantining. Every attempt
//!   runs on the levelized kernel, as the paper re-executes a failed
//!   operation on the same multiplier.
//!
//! Two entry points wire the supervisor over the tree's work units.
//! [`Supervisor::run`] runs an indexed list of cases; the `repro` binary
//! runs one case per experiment on a shared context, threads each
//! attempt's deadline token into its simulations, and checkpoints every
//! finished report, so a killed `repro --resume` run picks up where it
//! died. [`run_request_supervised`] runs one service request as a single
//! case — same protections, no ledger or checkpoint. Workers classify
//! their failures with [`CaseError::from_error`], and profiles round-trip
//! through checkpoints losslessly with [`profile_to_json`] and
//! [`profile_from_json`].
//!
//! # Example
//!
//! ```no_run
//! use agemul::{MultiplierDesign, PatternSet, SimEngine};
//! use agemul_circuits::MultiplierKind;
//! use agemul_harness::{
//!     profile_to_json, Attempt, CaseError, Resume, Supervisor, SupervisorConfig,
//! };
//!
//! let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
//! let seeds = [1u64, 2, 3, 4];
//! // One case per workload seed; the run key fingerprints the work, so a
//! // checkpoint from different work is never merged.
//! let supervisor = Supervisor::new(
//!     "profile/CB16/2000x4",
//!     seeds.iter().map(|s| format!("seed{s}")).collect(),
//!     SupervisorConfig::default(),
//! );
//! let worker = |attempt: &Attempt| {
//!     let patterns = PatternSet::uniform(16, 2_000, seeds[attempt.index]);
//!     let profile = design
//!         .profile_supervised(patterns.pairs(), None, SimEngine::Level, attempt.cancel.as_ref())
//!         .map_err(|e| CaseError::from_error(&e))?;
//!     Ok(profile_to_json(&profile))
//! };
//! // Resumes from the checkpoint when it matches this run, else starts over.
//! let ledger = supervisor.run(
//!     &worker,
//!     Some(std::path::Path::new("profiles.ckpt.json")),
//!     Resume::Attempt,
//! )?;
//! println!("{} cases, quarantined {:?}", ledger.records.len(), ledger.quarantined());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod checkpoint;
mod error;
mod request;
mod snapshot;
mod supervisor;

pub use checkpoint::{crc32, CaseRecord, CaseStatus, Checkpoint, CheckpointError, SCHEMA};
pub use error::HarnessError;
pub use request::run_request_supervised;
pub use snapshot::{is_cancellation, profile_from_json, profile_to_json};
pub use supervisor::{Attempt, CaseError, Resume, RunLedger, Supervisor, SupervisorConfig};
