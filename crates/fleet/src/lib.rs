//! Fleet-scale discrete-event simulation of aging multiplier
//! datacenters.
//!
//! The workspace's lower layers answer "how does *one* aging-aware
//! multiplier behave?" — this crate scales the question to a *fleet*:
//! many multiplier instances (each with its own process corner, its own
//! BTI trajectory, its own AHL/Razor state and clock), a seeded workload
//! flowing through a deterministic event queue, and pluggable routing +
//! health policies deciding where operations execute and when nodes
//! retire, down-clock, or rest.
//!
//! The load-bearing property is **determinism**: a campaign is a pure
//! function of its configuration, and a run resumed from a mid-campaign
//! checkpoint continues the uninterrupted run's event log byte for byte.
//! The replay test layer (`tests/`) pins both.
//!
//! Layering: [`EventQueue`] (total, seed-stable event order) →
//! [`epoch_trace`] (pure seeded workloads) → [`NodeState`] (one
//! instance) → [`route`]/[`FleetPolicy`] (schedulers and health) →
//! [`FleetCampaign`]/[`FleetSim`] (the epoch loop, checkpointing, and
//! summaries).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

mod event;
mod node;
mod policy;
mod sim;
mod trace;

pub use event::{fnv1a64, Event, EventKind, EventQueue};
pub use node::{NodeCounters, NodeState, NodeStatus};
pub use policy::{route, FleetPolicy, RoutingPolicy};
pub use sim::{
    node_corner_seed, EventLog, FleetCampaign, FleetConfig, FleetSim, FleetSummary, NodeReport,
};
pub use trace::{epoch_seed, epoch_trace, trace_pairs, TraceKind, TraceOp};
