//! Gate-level fault-injection campaigns for the aging-aware multiplier.
//!
//! The paper's resilience argument rests on two mechanisms: Razor
//! flip-flops catch *late* transitions, and the AHL re-tunes the cycle
//! prediction once errors accumulate. This crate stress-tests that
//! argument by injecting faults into the gate-level simulation and
//! classifying what the architecture does with each one:
//!
//! * **masked** — the fault never reaches an observable output (logic
//!   faults) or never produces a new timing violation (delay faults);
//! * **detected** — the fault manifests as late transitions inside the
//!   Razor shadow window, so every corrupted operation is caught and
//!   re-executed, and the AHL sees the error stream;
//! * **silent** — the fault corrupts results without tripping Razor:
//!   stable-but-wrong values from stuck-at/flip faults (Razor only
//!   watches transition *timing*), or transitions landing beyond a
//!   shrunken shadow window.
//!
//! # Fault model
//!
//! [`FaultSpec`] covers three families, mirroring the classic gate-level
//! taxonomy specialized to BTI-era failure modes:
//!
//! * [`FaultSpec::StuckAt0`] / [`FaultSpec::StuckAt1`] — a net
//!   permanently pinned, the end state of a worn-out driver;
//! * [`FaultSpec::Transient`] — a single-operation bit-flip (SEU-style
//!   soft error) on one net;
//! * [`FaultSpec::Delay`] — one gate's propagation delay inflated by a
//!   factor, modeling a localized BTI hot spot long before it becomes a
//!   hard failure.
//!
//! Logic faults are injected through
//! [`FaultOverlay`](agemul_netlist::FaultOverlay) lane masks, so one
//! bit-parallel [`BatchSim`](agemul_netlist::BatchSim) sweep evaluates up
//! to 64 faulty circuit variants at once; delay faults get a private
//! event-driven timing profile via
//! [`DelayAssignment::inflate`](agemul_netlist::DelayAssignment::inflate).
//!
//! # Workflow
//!
//! ```no_run
//! use agemul::{EngineConfig, MultiplierDesign, PatternSet};
//! use agemul_circuits::MultiplierKind;
//! use agemul_faults::{Campaign, FaultSpec};
//!
//! let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)?;
//! let patterns = PatternSet::uniform(16, 2_000, 42);
//! let faults = FaultSpec::sample(&design, patterns.pairs().len(), 24, 7);
//!
//! // Expensive, config-independent: one baseline profile + one simulation
//! // per fault family (no profile cache, no deadline token).
//! let campaign = Campaign::prepare(&design, patterns.pairs(), &faults, None, None)?;
//!
//! // Cheap replays: sweep engine configs over the same prepared evidence.
//! let report = campaign.run(&EngineConfig::adaptive(0.95, 7));
//! println!("{report}");
//! println!("{}", report.to_json());
//! # Ok::<(), agemul_faults::FaultError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod campaign;
mod error;
mod report;
mod spec;

pub use campaign::Campaign;
pub use error::FaultError;
pub use report::{CampaignReport, FaultClass, FaultOutcome};
pub use spec::FaultSpec;
