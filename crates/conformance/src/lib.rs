//! Cross-engine conformance subsystem.
//!
//! The workspace carries four ways of evaluating the same netlist —
//! [`FuncSim`](agemul_netlist::FuncSim) (zero-delay scalar),
//! [`BatchSim`](agemul_netlist::BatchSim) (64-lane bit-parallel),
//! [`EventSim`](agemul_netlist::EventSim) (event-driven femtosecond
//! timing), and [`LevelSim`](agemul_netlist::LevelSim) (levelized
//! incremental kernel) — plus fault overlays and a profile cache. Every
//! future performance PR must preserve bit- and femtosecond-identity
//! across all of them, so this crate turns the scattered one-off
//! equivalence tests into a permanent correctness-tooling layer:
//!
//! * [`gen`] — the shared random-netlist generator that the property
//!   suites in `agemul-netlist` also use (one `GateRecipe` scheme instead
//!   of three private copies);
//! * [`Case`] — a seeded, self-contained conformance case: netlist recipe,
//!   workload, delay assignment, and optional fault, replayable from JSON;
//! * [`check_case`] — the differential oracle: every case through all four
//!   engines plus an independent reference interpreter, with and without a
//!   [`FaultOverlay`](agemul_netlist::FaultOverlay) (including the
//!   attach → detach waveform-identity axis), diffing settled values on
//!   every net/lane and femtosecond [`PatternTiming`](agemul_netlist::PatternTiming);
//! * [`check_multiplier_conformance`] — the metamorphic-invariant checker
//!   encoding the paper's AHL/Razor/aging laws: judging-block
//!   monotonicity, BTI stress-delay monotonicity, the cycle-accounting
//!   identity `total = 1·one_cycle + 2·two_cycle + penalty·errors`, and
//!   cache-hit ≡ cache-miss (cold and warm
//!   [`ProfileCache`](agemul::ProfileCache));
//! * [`shrink_case`] — a delta-debugging reducer that minimizes any
//!   divergent case to a small gate-level repro, dumped as a replayable
//!   JSON artifact by [`repro_artifact`];
//! * [`run_gate`] — the seeded conformance gate wired into
//!   `scripts/verify.sh` and the `repro conformance` subcommand.
//!
//! # Example
//!
//! ```
//! use agemul_conformance::{check_case, Case};
//!
//! let case = Case::generate(42);
//! let divergences = check_case(&case).unwrap();
//! assert!(divergences.is_empty(), "engines disagreed: {divergences:?}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod case;
mod gate;
pub mod gen;
mod invariants;
mod oracle;
mod shrink;

/// Re-exported from `agemul`, where the JSON model lives.
pub use agemul::Json;
pub use case::{Case, DelaySpec, FaultCase};
pub use gate::{case_seed, run_gate, DivergentCase, GateOutcome};
pub use invariants::{check_multiplier_conformance, check_profile_laws, Violation};
pub use oracle::{check_case, reference_eval, Divergence, EngineId};
pub use shrink::{repro_artifact, shrink_case};
