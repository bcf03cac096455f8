//! Gate-level circuit generators for the aging-aware multiplier study.
//!
//! This crate builds, as [`agemul_netlist::Netlist`]s, every combinational
//! circuit the paper evaluates:
//!
//! * [`MultiplierKind::Array`] — the normal n×n array multiplier (AM) of
//!   Fig. 1: a carry-save adder array with a final ripple row.
//! * [`MultiplierKind::ColumnBypass`] — the low-power column-bypassing
//!   multiplier of Fig. 2 (Wen et al., ISCAS'05): full adders in the
//!   diagonal controlled by multiplicand bit `a_i` are skipped through
//!   tri-state gates and a sum multiplexer whenever `a_i = 0`.
//! * [`MultiplierKind::RowBypass`] — the low-power row-bypassing multiplier
//!   of Fig. 3 (Ohban et al., APCCAS'02): the whole adder row controlled by
//!   multiplicator bit `b_j` is skipped (sum *and* carry multiplexers) when
//!   `b_j = 0`.
//! * [`ripple_carry_adder`] — a plain RCA building block.
//! * [`VariableLatencyRca`] — the didactic 8-bit variable-latency adder with
//!   hold logic from Fig. 4, used by the quickstart example.
//!
//! All three multipliers share the same carry-save skeleton, so their
//! functional outputs are identical (`a × b`), while their *timing* and
//! *switching activity* differ — exactly the contrast the paper studies.
//!
//! # Example
//!
//! ```
//! use agemul_circuits::{MultiplierCircuit, MultiplierKind};
//! use agemul_netlist::FuncSim;
//!
//! let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 8)?;
//! let topo = m.netlist().topology()?;
//! let mut sim = FuncSim::new(m.netlist(), &topo);
//! sim.eval(&m.encode_inputs(23, 91)?)?;
//! assert_eq!(m.product().decode(sim.values()), Some(23 * 91));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod array;
mod booth;
mod cells;
mod cla;
mod column;
mod common;
mod compressor;
mod csela;
mod error;
mod multiplier;
mod popcount;
mod rca;
mod row;
mod vl_rca;
mod wallace;

pub use cla::kogge_stone_adder;
pub use compressor::BitColumns;
pub use csela::carry_select_adder;
pub use error::CircuitError;
pub use multiplier::{MultiplierCircuit, MultiplierKind, Operand};
pub use popcount::{greater_equal_const, popcount, zeros_at_least};
pub use rca::ripple_carry_adder;
pub use vl_rca::VariableLatencyRca;

/// Maximum supported operand width in bits.
///
/// Products are decoded into `u128`, so operands are capped at 64 bits; the
/// paper's experiments use 16 and 32.
pub const MAX_WIDTH: usize = 64;

/// Minimum supported operand width in bits.
pub const MIN_WIDTH: usize = 2;
