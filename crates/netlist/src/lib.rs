//! Gate-level netlist representation and simulation.
//!
//! This crate is the circuit substrate of the `agemul` workspace. It replaces
//! the Verilog + SPICE (Laker/Nanosim) flow used by the paper *"Aging-Aware
//! Reliable Multiplier Design With Adaptive Hold Logic"* with a pure-Rust
//! stack:
//!
//! * [`Netlist`] — an arena-style combinational netlist: nets identified by
//!   [`NetId`], gates by [`GateId`], primary inputs/outputs, and constants.
//!   Each table is one allocation: a gate of arity ≤ 3 keeps its inputs
//!   inline, and only named nets (inputs, outputs, constants) carry a name.
//! * [`Topology`] — validated structure: single-driver check, combinational
//!   cycle detection, the logic depth, and every net's fanout in one
//!   compressed-sparse-row table.
//! * [`FuncSim`] — a zero-delay functional simulator (topological sweep),
//!   used for correctness checking and for collecting signal probabilities.
//! * [`BatchSim`] — the bit-parallel batch counterpart of [`FuncSim`]: 64
//!   patterns per sweep packed into `LogicWord` lane words, lane-for-lane
//!   equivalent to the scalar simulator (including `X`/`Z` semantics).
//! * [`EventSim`] — an event-driven *two-vector* timing simulator with
//!   per-gate-instance delays and tri-state **hold** semantics. Applying a
//!   new input vector on top of the previous one yields the input-dependent
//!   sensitized path delay — the quantity the paper's variable-latency
//!   design exploits — along with per-gate toggle counts for power.
//! * [`LevelSim`] — the levelized counterpart of [`EventSim`]: the netlist
//!   is compiled into one gate-major timing record per gate, and each
//!   pattern is one sweep over them in topological order, merging every
//!   gate's input waveforms through per-kind output-code tables.
//!   Femtosecond-identical to [`EventSim`] (property-tested), an order of
//!   magnitude faster on the profiling hot path.
//! * [`WorkloadStats`] — per-net signal probabilities accumulated over a
//!   workload by a functional sweep, feeding the BTI aging model.
//! * [`SwitchingActivity`] — per-gate toggle counts from a timed run,
//!   feeding the power and electromigration models.
//! * [`FaultOverlay`] — a lane-masked fault-injection overlay (stuck-at,
//!   bit-flip) applied through dedicated `*_with_overlay` entry points so
//!   the fault-free simulation paths stay untouched.
//!
//! # Example
//!
//! Build a 1-bit full adder and time a carry transition:
//!
//! ```
//! use agemul_logic::{DelayModel, GateKind, Logic};
//! use agemul_netlist::{DelayAssignment, EventSim, Netlist};
//!
//! let mut n = Netlist::new();
//! let a = n.add_input("a");
//! let b = n.add_input("b");
//! let cin = n.add_input("cin");
//! let axb = n.add_gate(GateKind::Xor, &[a, b])?;
//! let sum = n.add_gate(GateKind::Xor, &[axb, cin])?;
//! let g1 = n.add_gate(GateKind::And, &[a, b])?;
//! let g2 = n.add_gate(GateKind::And, &[axb, cin])?;
//! let cout = n.add_gate(GateKind::Or, &[g1, g2])?;
//! n.mark_output(sum, "sum");
//! n.mark_output(cout, "cout");
//!
//! let topo = n.topology()?;
//! let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
//! let mut sim = EventSim::new(&n, &topo, delays);
//!
//! sim.settle(&[Logic::Zero, Logic::Zero, Logic::Zero])?;
//! let t = sim.step(&[Logic::One, Logic::One, Logic::Zero])?;
//! assert!(t.delay_ns > 0.0); // the 1+1 pattern flips sum and carry
//! # Ok::<(), agemul_netlist::NetlistError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod batch_sim;
mod bus;
mod cancel;
mod error;
mod event_sim;
mod fault;
mod func_sim;
mod ids;
mod level_sim;
mod netlist;
mod plan;
mod report;
mod sta;
mod stats;
mod topology;
mod vcd;
mod verilog;

pub use batch_sim::BatchSim;
pub use bus::Bus;
pub use cancel::CancelToken;
pub use error::NetlistError;
pub use event_sim::{DelayAssignment, EventSim, PatternTiming, TraceEvent};
pub use fault::{FaultKind, FaultOverlay};
pub use func_sim::FuncSim;
pub use ids::{GateId, NetId};
pub use level_sim::LevelSim;
pub use netlist::{Gate, Netlist};
pub use report::NetlistReport;
pub use sta::static_critical_path_ns;
pub use stats::{SwitchingActivity, WorkloadStats};
pub use topology::Topology;
pub use vcd::write_vcd;
pub use verilog::write_verilog;
