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
//! Two adapters wire the supervisor over the tree's work units:
//! [`run_campaign_supervised`] (one case per fault plus the baseline,
//! reassembled with [`Campaign::assemble`](agemul_faults::Campaign::assemble))
//! and [`run_request_supervised`], which runs one service request as a
//! single case — same protections, no ledger or checkpoint. Other
//! long-running work (the `repro` experiments, including the Monte Carlo
//! and fleet studies) runs one case per experiment and threads the
//! attempt's deadline token into its simulations. Workers classify
//! their failures with [`CaseError::from_error`]. The `soak` binary drives
//! a kill → resume → diff smoke test (`scripts/soak_smoke.sh`).
//!
//! # Example
//!
//! ```no_run
//! use agemul::{EngineConfig, MultiplierDesign, PatternSet};
//! use agemul_circuits::MultiplierKind;
//! use agemul_faults::FaultSpec;
//! use agemul_harness::{run_campaign_supervised, Resume, SupervisorConfig};
//!
//! let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
//! let patterns = PatternSet::uniform(16, 2_000, 42);
//! let faults = FaultSpec::sample(&design, patterns.pairs().len(), 24, 7);
//!
//! let run = run_campaign_supervised(
//!     &design,
//!     patterns.pairs(),
//!     &faults,
//!     &SupervisorConfig::default(),
//!     Some(std::path::Path::new("campaign.ckpt.json")),
//!     Resume::Attempt,
//! )?;
//! println!("{}", run.campaign.run(&EngineConfig::adaptive(0.95, 7)));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod campaign;
mod checkpoint;
mod error;
mod request;
mod snapshot;
mod supervisor;

pub use campaign::{campaign_run_key, run_campaign_supervised, SupervisedCampaign};
pub use checkpoint::{crc32, CaseRecord, CaseStatus, Checkpoint, CheckpointError, SCHEMA};
pub use error::HarnessError;
pub use request::run_request_supervised;
pub use snapshot::{
    evidence_from_json, evidence_to_json, is_cancellation, profile_from_json, profile_to_json,
};
pub use supervisor::{Attempt, CaseError, Resume, RunLedger, Supervisor, SupervisorConfig};
