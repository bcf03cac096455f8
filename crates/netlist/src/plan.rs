//! The timing schedule [`LevelSim`](crate::LevelSim) executes.
//!
//! [`TimedPlan`] holds one gate-major record per gate: its kind, arity,
//! inputs, output, propagation delay in integer femtoseconds and
//! primary-output flag, so the timed kernel sweeps the gates once per step
//! in builder order, reading one record per gate, instead of popping a
//! priority queue.

use agemul_logic::GateKind;

use crate::{DelayAssignment, GateId, Netlist, Topology};

/// One gate of a [`TimedPlan`]: everything a merge and its publish read,
/// in one 32-byte record.
#[derive(Clone, Copy, Debug)]
pub(crate) struct TimedGate {
    /// Propagation delay in femtoseconds.
    pub(crate) delay_fs: u64,
    /// The input nets of a gate of arity ≤ 3 (unused slots are 0). A wider
    /// gate's inputs are `wide[inputs[0]..inputs[1]]` in the plan's side
    /// list ([`TimedPlan::wide_inputs`]).
    pub(crate) inputs: [u32; 3],
    /// The output net.
    pub(crate) output: u32,
    pub(crate) kind: GateKind,
    /// The input count for arity ≤ 3, [`WIDE`] for every wider gate.
    pub(crate) arity: u8,
    /// Whether the output net is a primary output.
    pub(crate) is_output: bool,
}

/// [`TimedGate::arity`] of a gate with four or more inputs.
pub(crate) const WIDE: u8 = 4;

/// A timing schedule: one gate-major [`TimedGate`] record per gate, in
/// builder order.
///
/// This is the compiled form [`LevelSim`](crate::LevelSim) executes. Gate
/// order is builder order, which is topological (every gate reads nets
/// created before it), so one ascending sweep reaches each gate only after
/// the complete step waveform of each of its input nets is final. A merge
/// reads its gate's kind, inputs, output, delay and primary-output flag
/// from one record. Gates of arity ≥ 4 keep their inputs in a side list;
/// no generated multiplier has one. The depth
/// ([`max_level`](Self::max_level), from [`Topology`]) bounds the latest
/// event time of a step, which the kernel checks against its
/// packed-timestamp headroom.
#[derive(Clone, Debug)]
pub(crate) struct TimedPlan {
    gates: Vec<TimedGate>,
    /// Input nets of the [`WIDE`] gates, back to back.
    wide: Vec<u32>,
    max_level: u32,
}

impl TimedPlan {
    /// Compiles `netlist` + `delays` into a timing schedule.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the netlist's gates (the
    /// same contract as [`EventSim::new`](crate::EventSim::new)).
    pub(crate) fn new(netlist: &Netlist, topology: &Topology, delays: &DelayAssignment) -> Self {
        assert_eq!(
            delays.len(),
            netlist.gate_count(),
            "delay assignment covers {} gates, netlist has {}",
            delays.len(),
            netlist.gate_count()
        );
        let mut wide = Vec::new();
        let gates = netlist
            .gates()
            .iter()
            .enumerate()
            .map(|(g, gate)| {
                let nets = gate.inputs();
                let mut inputs = [0u32; 3];
                let arity = if nets.len() <= 3 {
                    for (slot, net) in inputs.iter_mut().zip(nets) {
                        *slot = net.index() as u32;
                    }
                    nets.len() as u8
                } else {
                    inputs[0] = wide.len() as u32;
                    wide.extend(nets.iter().map(|n| n.index() as u32));
                    inputs[1] = wide.len() as u32;
                    WIDE
                };
                TimedGate {
                    delay_fs: delays.delay_fs(GateId::from_index(g)),
                    inputs,
                    output: gate.output().index() as u32,
                    kind: gate.kind(),
                    arity,
                    is_output: topology.is_output(gate.output()),
                }
            })
            .collect();
        TimedPlan {
            gates,
            wide,
            max_level: topology.max_level(),
        }
    }

    /// Rewrites every record's delay in place, leaving every
    /// topology-invariant field (kinds, nets, depth) untouched. The
    /// in-place rewrite is what makes corner-batched Monte Carlo profiling
    /// cheap: only the delay-dependent field of the schedule changes
    /// between corners, with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the schedule's gates (the
    /// same contract as [`new`](Self::new)).
    pub(crate) fn set_delays(&mut self, delays: &DelayAssignment) {
        assert_eq!(
            delays.len(),
            self.gates.len(),
            "delay assignment covers {} gates, schedule has {}",
            delays.len(),
            self.gates.len()
        );
        for (g, gate) in self.gates.iter_mut().enumerate() {
            gate.delay_fs = delays.delay_fs(GateId::from_index(g));
        }
    }

    /// The gate records in builder order.
    #[inline]
    pub(crate) fn gates(&self) -> &[TimedGate] {
        &self.gates
    }

    /// The input nets of a [`WIDE`] gate.
    #[inline]
    pub(crate) fn wide_inputs(&self, gate: &TimedGate) -> &[u32] {
        &self.wide[gate.inputs[0] as usize..gate.inputs[1] as usize]
    }

    /// The deepest level in the schedule (0 for a gate-free netlist).
    #[inline]
    pub(crate) fn max_level(&self) -> u32 {
        self.max_level
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::GateKind;

    use super::*;
    use crate::Netlist;

    #[test]
    fn timed_plan_carries_delays_and_levels() {
        use agemul_logic::DelayModel;

        use crate::DelayAssignment;

        let mut n = Netlist::new();
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[x]).unwrap();
        n.mark_output(y, "y");
        let topo = n.topology().unwrap();
        let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());

        let plan = TimedPlan::new(&n, &topo, &delays);
        assert_eq!(std::mem::size_of::<TimedGate>(), 32);
        assert_eq!(plan.gates().len(), 2);
        assert_eq!(plan.max_level(), 2);
        for (g, gate) in plan.gates().iter().enumerate() {
            assert_eq!(gate.delay_fs, delays.delay_fs(GateId::from_index(g)));
            assert_eq!(gate.kind, GateKind::Not);
            assert_eq!(gate.arity, 1);
        }
        let [first, last] = plan.gates() else {
            panic!("two gates");
        };
        assert_eq!(first.inputs[0], a.index() as u32);
        assert!(!first.is_output);
        assert_eq!(last.inputs[0], x.index() as u32);
        assert_eq!(last.output, y.index() as u32);
        assert!(last.is_output);
    }

    #[test]
    fn timed_plan_keeps_wide_inputs_in_side_list() {
        use agemul_logic::DelayModel;

        use crate::DelayAssignment;

        let mut n = Netlist::new();
        let ins: Vec<_> = (0..5).map(|i| n.add_input(format!("i{i}"))).collect();
        let m = n.add_gate(GateKind::Mux2, &ins[..3]).unwrap();
        let w = n.add_gate(GateKind::And, &ins).unwrap();
        let v = n.add_gate(GateKind::Xor, &[m, w, ins[0], ins[1]]).unwrap();
        n.mark_output(v, "v");
        let topo = n.topology().unwrap();
        let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());

        let plan = TimedPlan::new(&n, &topo, &delays);
        let [mux, and, xor] = plan.gates() else {
            panic!("three gates");
        };
        let index =
            |nets: &[crate::NetId]| nets.iter().map(|n| n.index() as u32).collect::<Vec<_>>();
        assert_eq!(mux.arity, 3);
        assert_eq!(mux.inputs.to_vec(), index(&ins[..3]));
        assert_eq!((and.arity, xor.arity), (WIDE, WIDE));
        assert_eq!(plan.wide_inputs(and), index(&ins));
        assert_eq!(plan.wide_inputs(xor), index(&[m, w, ins[0], ins[1]]));
        assert_eq!(xor.output, v.index() as u32);
    }
}
