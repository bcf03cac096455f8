//! Flattened gate-evaluation plans shared by the simulators.
//!
//! [`FuncSim`](crate::FuncSim) and [`BatchSim`](crate::BatchSim) both sweep
//! the gates in builder order; the plan precomputes everything that sweep
//! needs — gate kind, output slot, and a *flat* input-index array — once at
//! simulator construction instead of chasing `Gate` structs and `NetId`
//! wrappers on every pattern. On wide multipliers this removes one pointer
//! indirection per gate input per pattern from the hottest loop in the
//! workspace.
//!
//! [`TimedPlan`] extends the functional [`GatePlan`] into a *timing*
//! schedule for [`LevelSim`](crate::LevelSim): the same flat arrays plus
//! each gate instance's propagation delay in integer femtoseconds, so the
//! timed kernel sweeps the gates once per step in the same builder order,
//! in linear memory, instead of popping a priority queue.

use agemul_logic::GateKind;

use crate::{DelayAssignment, GateId, Netlist, Topology};

/// Precomputed, cache-friendly sweep order over a netlist's gates.
#[derive(Clone, Debug)]
pub(crate) struct GatePlan {
    kinds: Vec<GateKind>,
    outputs: Vec<u32>,
    /// `offsets[g]..offsets[g + 1]` indexes `inputs` for gate `g`.
    offsets: Vec<u32>,
    inputs: Vec<u32>,
    max_arity: usize,
}

impl GatePlan {
    /// Flattens `netlist`'s gates (builder order, which is topological by
    /// construction: every gate reads previously created nets).
    pub(crate) fn new(netlist: &Netlist) -> Self {
        let gates = netlist.gates();
        let mut kinds = Vec::with_capacity(gates.len());
        let mut outputs = Vec::with_capacity(gates.len());
        let mut offsets = Vec::with_capacity(gates.len() + 1);
        let mut inputs = Vec::new();
        let mut max_arity = 0;
        offsets.push(0);
        for gate in gates {
            kinds.push(gate.kind());
            outputs.push(gate.output().index() as u32);
            max_arity = max_arity.max(gate.inputs().len());
            inputs.extend(gate.inputs().iter().map(|n| n.index() as u32));
            offsets.push(inputs.len() as u32);
        }
        GatePlan {
            kinds,
            outputs,
            offsets,
            inputs,
            max_arity,
        }
    }

    /// Number of gates in the plan.
    #[inline]
    pub(crate) fn gate_count(&self) -> usize {
        self.kinds.len()
    }

    /// The widest gate's input count (scratch sizing).
    #[inline]
    pub(crate) fn max_arity(&self) -> usize {
        self.max_arity
    }

    /// Gate `g`'s kind.
    #[inline]
    pub(crate) fn kind(&self, g: usize) -> GateKind {
        self.kinds[g]
    }

    /// Gate `g`'s output net index.
    #[inline]
    pub(crate) fn output(&self, g: usize) -> usize {
        self.outputs[g] as usize
    }

    /// Gate `g`'s input net indices.
    #[inline]
    pub(crate) fn inputs_of(&self, g: usize) -> &[u32] {
        &self.inputs[self.offsets[g] as usize..self.offsets[g + 1] as usize]
    }
}

/// A timing schedule: the flat [`GatePlan`] arrays plus per-gate
/// integer-femtosecond delays.
///
/// This is the compiled form [`LevelSim`](crate::LevelSim) executes. Gate
/// order is builder order, which is topological (every gate reads nets
/// created before it), so one ascending sweep reaches each gate only after
/// the complete step waveform of each of its input nets is final. The
/// depth ([`max_level`](Self::max_level), from [`Topology`]) bounds the
/// latest event time of a step, which the kernel checks against its
/// packed-timestamp headroom.
#[derive(Clone, Debug)]
pub(crate) struct TimedPlan {
    gates: GatePlan,
    delays_fs: Vec<u64>,
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
        let gates = GatePlan::new(netlist);
        let delays_fs = (0..netlist.gate_count())
            .map(|g| delays.delay_fs(GateId::from_index(g)))
            .collect();
        TimedPlan {
            gates,
            delays_fs,
            max_level: topology.max_level(),
        }
    }

    /// Swaps in a new per-gate delay vector, leaving every
    /// topology-invariant part (flat gate arrays, depth) untouched. The
    /// in-place rewrite is what makes corner-batched Monte Carlo profiling
    /// cheap: only the delay-dependent slice of the schedule changes
    /// between corners, with zero allocation.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the schedule's gates (the
    /// same contract as [`new`](Self::new)).
    pub(crate) fn set_delays(&mut self, delays: &DelayAssignment) {
        assert_eq!(
            delays.len(),
            self.gate_count(),
            "delay assignment covers {} gates, schedule has {}",
            delays.len(),
            self.gate_count()
        );
        for (g, slot) in self.delays_fs.iter_mut().enumerate() {
            *slot = delays.delay_fs(GateId::from_index(g));
        }
    }

    /// Number of gates in the schedule.
    #[inline]
    pub(crate) fn gate_count(&self) -> usize {
        self.gates.gate_count()
    }

    /// The widest gate's input count (scratch sizing).
    #[inline]
    pub(crate) fn max_arity(&self) -> usize {
        self.gates.max_arity()
    }

    /// Gate `g`'s kind.
    #[inline]
    pub(crate) fn kind(&self, g: usize) -> GateKind {
        self.gates.kind(g)
    }

    /// Gate `g`'s output net index.
    #[inline]
    pub(crate) fn output(&self, g: usize) -> usize {
        self.gates.output(g)
    }

    /// Gate `g`'s input net indices.
    #[inline]
    pub(crate) fn inputs_of(&self, g: usize) -> &[u32] {
        self.gates.inputs_of(g)
    }

    /// Gate `g`'s propagation delay in femtoseconds.
    #[inline]
    pub(crate) fn delay_fs(&self, g: usize) -> u64 {
        self.delays_fs[g]
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
    fn plan_mirrors_builder_order() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Mux2, &[a, b, x]).unwrap();
        n.mark_output(y, "y");

        let plan = GatePlan::new(&n);
        assert_eq!(plan.gate_count(), 2);
        assert_eq!(plan.max_arity(), 3);
        assert_eq!(plan.kind(0), GateKind::Xor);
        assert_eq!(plan.kind(1), GateKind::Mux2);
        assert_eq!(plan.inputs_of(0), [a.index() as u32, b.index() as u32]);
        assert_eq!(plan.output(0), x.index());
        assert_eq!(
            plan.inputs_of(1),
            [a.index() as u32, b.index() as u32, x.index() as u32]
        );
        assert_eq!(plan.output(1), y.index());
    }

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
        assert_eq!(plan.gate_count(), 2);
        assert_eq!(plan.max_level(), 2);
        for g in 0..2 {
            assert_eq!(plan.delay_fs(g), delays.delay_fs(GateId::from_index(g)));
            assert_eq!(plan.kind(g), GateKind::Not);
        }
        assert_eq!(plan.inputs_of(1), [x.index() as u32]);
        assert_eq!(plan.output(1), y.index());
    }
}
