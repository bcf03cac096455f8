//! Per-node state: one multiplier instance in the fleet.
//!
//! A node is a full deployment of the paper's architecture — its own
//! process corner, its own BTI aging trajectory, its own AHL/Razor state,
//! and its own (possibly down-clocked) cycle — plus the operational
//! bookkeeping the schedulers and health policies read. Everything here
//! round-trips losslessly through the dependency-free `Json` model, which
//! is what makes mid-campaign checkpoint/resume byte-identical.

use agemul::{Ahl, AhlConfig, AhlState, Json};

/// A node's operational status.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NodeStatus {
    /// Serving traffic.
    Active,
    /// Resting this epoch under the rejuvenation rotation — no traffic,
    /// partial BTI recovery.
    Resting,
    /// Permanently withdrawn by the retirement policy.
    Retired,
}

impl NodeStatus {
    /// A stable lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            NodeStatus::Active => "active",
            NodeStatus::Resting => "resting",
            NodeStatus::Retired => "retired",
        }
    }

    fn parse(label: &str) -> Result<NodeStatus, String> {
        match label {
            "active" => Ok(NodeStatus::Active),
            "resting" => Ok(NodeStatus::Resting),
            "retired" => Ok(NodeStatus::Retired),
            other => Err(format!("unknown node status {other:?}")),
        }
    }
}

/// Cumulative execution counters of one node — the per-node ledger the
/// paper's cycle-accounting identity is asserted over:
/// `cycles = one_cycle_ops + 2·two_cycle_ops + penalty·errors`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCounters {
    /// Operations completed.
    pub ops: u64,
    /// Operations the AHL classified one-cycle (errors and undetected
    /// violations included, matching [`agemul::RunMetrics`]).
    pub one_cycle_ops: u64,
    /// Operations the AHL classified two-cycle.
    pub two_cycle_ops: u64,
    /// Razor-detected timing violations.
    pub errors: u64,
    /// Violations that escaped the Razor window.
    pub undetected: u64,
    /// Total clock cycles consumed, penalties included.
    pub cycles: u64,
    /// Total busy time, femtoseconds.
    pub busy_fs: u64,
}

impl NodeCounters {
    /// Razor error-recovery overhead in cycles: the penalty cycles spent
    /// re-executing detected violations (beyond the one cycle every
    /// one-cycle operation pays anyway).
    pub fn recovery_cycles(&self, penalty: u32) -> u64 {
        self.errors * u64::from(penalty)
    }

    /// The counters as object fields, in their serialized order.
    pub(crate) fn json_pairs(&self) -> [(String, Json); 7] {
        [
            ("ops".into(), Json::UInt(self.ops)),
            ("one_cycle_ops".into(), Json::UInt(self.one_cycle_ops)),
            ("two_cycle_ops".into(), Json::UInt(self.two_cycle_ops)),
            ("errors".into(), Json::UInt(self.errors)),
            ("undetected".into(), Json::UInt(self.undetected)),
            ("cycles".into(), Json::UInt(self.cycles)),
            ("busy_fs".into(), Json::UInt(self.busy_fs)),
        ]
    }

    /// Reads the [`json_pairs`](Self::json_pairs) fields back out of an
    /// object.
    pub(crate) fn from_json(v: &Json) -> Result<NodeCounters, String> {
        Ok(NodeCounters {
            ops: v.get_u64("ops")?,
            one_cycle_ops: v.get_u64("one_cycle_ops")?,
            two_cycle_ops: v.get_u64("two_cycle_ops")?,
            errors: v.get_u64("errors")?,
            undetected: v.get_u64("undetected")?,
            cycles: v.get_u64("cycles")?,
            busy_fs: v.get_u64("busy_fs")?,
        })
    }
}

/// One multiplier instance.
#[derive(Clone, Debug)]
pub struct NodeState {
    /// Fleet-local id (also the deterministic routing tie-breaker).
    pub id: u32,
    /// Derived variation seed of this node's process corner.
    pub corner_seed: u64,
    /// Effective BTI age, years. Advances with utilization; rejuvenation
    /// rest subtracts from it.
    pub age_years: f64,
    /// Operational status.
    pub status: NodeStatus,
    /// Epoch at which the node retired (if it did).
    pub retired_at_epoch: Option<u32>,
    /// Down-clock actions applied so far.
    pub downclocks: u32,
    /// Current clock period, femtoseconds (stretched by down-clocking).
    pub cycle_fs: u64,
    /// The node is busy until this simulated instant.
    pub busy_until_fs: u64,
    /// The node's AHL (aging indicator state persists across epochs).
    pub ahl: Ahl,
    /// Cumulative execution counters.
    pub counters: NodeCounters,
    /// Longest observed delay of the node's current epoch profile,
    /// nanoseconds — the degradation metric aging-aware routing reads.
    pub profile_max_delay_ns: f64,
    /// Operations routed to the node this epoch (policy window).
    pub epoch_ops: u64,
    /// Razor errors this epoch (policy window).
    pub epoch_errors: u64,
    /// Undetected violations this epoch (policy window).
    pub epoch_undetected: u64,
}

impl NodeState {
    /// A fresh active node with its corner seed, base cycle, and AHL.
    pub fn new(id: u32, corner_seed: u64, age_years: f64, cycle_fs: u64, skip: u32) -> Self {
        NodeState {
            id,
            corner_seed,
            age_years,
            status: NodeStatus::Active,
            retired_at_epoch: None,
            downclocks: 0,
            cycle_fs,
            busy_until_fs: 0,
            ahl: Ahl::adaptive(skip, AhlConfig::paper()),
            counters: NodeCounters::default(),
            profile_max_delay_ns: 0.0,
            epoch_ops: 0,
            epoch_errors: 0,
            epoch_undetected: 0,
        }
    }

    /// The node's current clock period in nanoseconds.
    pub fn cycle_ns(&self) -> f64 {
        self.cycle_fs as f64 / 1.0e6
    }

    /// Whether the node can be routed to right now.
    pub fn is_routable(&self) -> bool {
        self.status == NodeStatus::Active
    }

    /// Clears the per-epoch policy window.
    pub fn reset_epoch_window(&mut self) {
        self.epoch_ops = 0;
        self.epoch_errors = 0;
        self.epoch_undetected = 0;
    }

    /// Serializes the node for a checkpoint. Lossless: `f64` fields ride
    /// the shortest-round-trip float encoding, `u64` fields the distinct
    /// unsigned variant.
    pub fn to_json(&self) -> Json {
        let ahl = self.ahl.snapshot();
        let mut pairs = vec![
            ("id".into(), Json::UInt(u64::from(self.id))),
            ("corner_seed".into(), Json::UInt(self.corner_seed)),
            ("age_years".into(), Json::Num(self.age_years)),
            ("status".into(), Json::Str(self.status.label().into())),
            ("downclocks".into(), Json::UInt(u64::from(self.downclocks))),
            ("cycle_fs".into(), Json::UInt(self.cycle_fs)),
            ("busy_until_fs".into(), Json::UInt(self.busy_until_fs)),
            ("ahl_aged".into(), Json::Bool(ahl.aged)),
            ("ahl_ops".into(), Json::UInt(u64::from(ahl.ops_in_window))),
            (
                "ahl_errors".into(),
                Json::UInt(u64::from(ahl.errors_in_window)),
            ),
            ("ahl_transitions".into(), Json::UInt(ahl.transitions)),
        ];
        pairs.extend(self.counters.json_pairs());
        pairs.push((
            "profile_max_delay_ns".into(),
            Json::Num(self.profile_max_delay_ns),
        ));
        if let Some(epoch) = self.retired_at_epoch {
            pairs.push(("retired_at_epoch".into(), Json::UInt(u64::from(epoch))));
        }
        Json::Obj(pairs)
    }

    /// Reconstructs a node from its checkpoint object. `skip` must match
    /// the fleet configuration the snapshot was taken under (the AHL's
    /// judging blocks are construction parameters, not snapshot state).
    ///
    /// # Errors
    ///
    /// Describes the first missing or mistyped field.
    pub fn from_json(v: &Json, skip: u32) -> Result<NodeState, String> {
        let decode = || {
            let mut ahl = Ahl::adaptive(skip, AhlConfig::paper());
            ahl.restore(AhlState {
                aged: v.get_bool("ahl_aged")?,
                ops_in_window: v.get_u32("ahl_ops")?,
                errors_in_window: v.get_u32("ahl_errors")?,
                transitions: v.get_u64("ahl_transitions")?,
            });
            Ok(NodeState {
                id: v.get_u32("id")?,
                corner_seed: v.get_u64("corner_seed")?,
                age_years: v.get_f64("age_years")?,
                status: NodeStatus::parse(v.get_str("status")?)?,
                retired_at_epoch: v.get_opt_u32("retired_at_epoch")?,
                downclocks: v.get_u32("downclocks")?,
                cycle_fs: v.get_u64("cycle_fs")?,
                busy_until_fs: v.get_u64("busy_until_fs")?,
                ahl,
                counters: NodeCounters::from_json(v)?,
                profile_max_delay_ns: v.get_f64("profile_max_delay_ns")?,
                // Snapshots are taken at epoch boundaries, where the policy
                // window is always empty.
                epoch_ops: 0,
                epoch_errors: 0,
                epoch_undetected: 0,
            })
        };
        decode().map_err(|e: String| format!("node: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_round_trips_through_json() {
        let mut node = NodeState::new(3, 0xDEAD_BEEF, 1.75, 950_000, 7);
        node.status = NodeStatus::Resting;
        node.downclocks = 2;
        node.cycle_fs = 1_047_375;
        node.busy_until_fs = 123_456_789;
        node.counters = NodeCounters {
            ops: 4096,
            one_cycle_ops: 3000,
            two_cycle_ops: 1096,
            errors: 17,
            undetected: 1,
            cycles: 5243,
            busy_fs: 999_999,
        };
        node.profile_max_delay_ns = 1.3321;
        for i in 0..137 {
            node.ahl.record(i % 11 == 0);
        }
        let back = NodeState::from_json(&node.to_json(), 7).unwrap();
        assert_eq!(back.id, node.id);
        assert_eq!(back.corner_seed, node.corner_seed);
        assert_eq!(back.age_years.to_bits(), node.age_years.to_bits());
        assert_eq!(back.status, node.status);
        assert_eq!(back.downclocks, node.downclocks);
        assert_eq!(back.cycle_fs, node.cycle_fs);
        assert_eq!(back.busy_until_fs, node.busy_until_fs);
        assert_eq!(back.counters, node.counters);
        assert_eq!(
            back.profile_max_delay_ns.to_bits(),
            node.profile_max_delay_ns.to_bits()
        );
        assert_eq!(back.ahl.snapshot(), node.ahl.snapshot());
    }

    #[test]
    fn retired_epoch_survives_round_trip() {
        let mut node = NodeState::new(0, 1, 0.0, 1_000_000, 7);
        node.status = NodeStatus::Retired;
        node.retired_at_epoch = Some(5);
        let back = NodeState::from_json(&node.to_json(), 7).unwrap();
        assert_eq!(back.retired_at_epoch, Some(5));
        assert_eq!(back.status, NodeStatus::Retired);
    }

    #[test]
    fn recovery_cycles_follow_the_penalty() {
        let counters = NodeCounters {
            errors: 5,
            ..NodeCounters::default()
        };
        assert_eq!(counters.recovery_cycles(3), 15);
    }
}
