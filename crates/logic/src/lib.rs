//! Four-valued digital logic, gate primitives, and technology models.
//!
//! `agemul-logic` is the lowest-level substrate of the `agemul` workspace. It
//! defines the vocabulary every other crate speaks:
//!
//! * [`Logic`] — a four-valued signal (`Zero`, `One`, `Z`, `X`) with the usual
//!   Kleene-style gate semantics, rich enough to model the tri-state
//!   bypassing networks used by the column- and row-bypassing multipliers of
//!   the paper *"Aging-Aware Reliable Multiplier Design With Adaptive Hold
//!   Logic"* (Lin, Cho, Yang).
//! * [`GateKind`] — the structural gate library (inverter, n-ary
//!   AND/OR/NAND/NOR, XOR/XNOR, 2:1 mux, tri-state buffer) together with a
//!   pure evaluation function used by both the functional and the
//!   event-driven timing simulators in `agemul-netlist`.
//! * [`DelayModel`] — per-gate-kind nominal propagation delays (in
//!   nanoseconds) with calibration helpers, standing in for the paper's
//!   SPICE/Nanosim timing backend.
//! * [`AreaModel`] — per-gate-kind transistor counts used to regenerate the
//!   paper's Fig. 25 area comparison.
//! * [`Technology`] — 32 nm high-k/metal-gate constants consumed by the BTI
//!   aging model in `agemul-aging`.
//!
//! # Example
//!
//! ```
//! use agemul_logic::{GateKind, Logic, DelayModel};
//!
//! // Evaluate a 2:1 mux selecting its `1` branch.
//! let out = GateKind::Mux2.eval(&[Logic::Zero, Logic::One, Logic::One]);
//! assert_eq!(out, Logic::One);
//!
//! // Nominal delays come from a calibratable table.
//! let delays = DelayModel::nominal();
//! assert!(delays.delay_ns(GateKind::Xor) > delays.delay_ns(GateKind::Nand));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod area;
mod delay;
mod gate;
mod tech;
mod value;
mod word;

pub use area::{AreaModel, FlopKind};
pub use delay::DelayModel;
pub use gate::GateKind;
pub use tech::Technology;
pub use value::Logic;
pub use word::{lane_mask, LogicWord};
