//! Validated structural view of a netlist: fanout, depth, output flags.

use crate::netlist::Driver;
use crate::{GateId, NetId, Netlist, NetlistError};

/// The validated topological structure of a [`Netlist`].
///
/// Building a `Topology` proves the gate graph is a DAG and precomputes the
/// data both simulators need:
///
/// * per-net **fanout lists** (which gates read each net), stored as one
///   compressed-sparse-row table,
/// * the **depth** (longest gate-count distance from a primary input or
///   constant to any gate),
/// * per-net **output flags** for O(1) "is this a primary output?" checks in
///   the event-driven simulator's inner loop.
///
/// The [`Netlist`] builder allocates every gate's output net *after* its
/// input nets, so gate-id order is already topological; `Topology::build`
/// re-verifies that invariant rather than trusting it.
///
/// # Example
///
/// ```
/// use agemul_logic::GateKind;
/// use agemul_netlist::Netlist;
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let x = n.add_gate(GateKind::Not, &[a])?;
/// let y = n.add_gate(GateKind::Not, &[x])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
/// assert_eq!(topo.max_level(), 2);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    /// `fanout[fanout_start[net]..fanout_start[net + 1]]` = gates reading
    /// that net, ascending.
    fanout_start: Vec<u32>,
    fanout: Vec<GateId>,
    /// `is_output[net.index()]`.
    is_output: Vec<bool>,
    max_level: u32,
}

impl Topology {
    pub(crate) fn build(netlist: &Netlist) -> Result<Self, NetlistError> {
        let net_count = netlist.net_count();
        let gates = netlist.gates();

        // Fanout in two passes: count each net's readers into the slot
        // after it and prefix-sum the counts into row starts; the second
        // pass fills the rows in gate order, so each row is ascending.
        let mut fanout_start = vec![0u32; net_count + 1];
        for gate in gates {
            for &i in gate.inputs() {
                fanout_start[i.index() + 1] += 1;
            }
        }
        for net in 0..net_count {
            fanout_start[net + 1] += fanout_start[net];
        }
        let mut fill = fanout_start.clone();
        let mut fanout = vec![GateId(0); fanout_start[net_count] as usize];

        // The same pass levels the nets: inputs/constants are level 0; a
        // gate's output is 1 + max input level. Gate-id order must be
        // topological — if a gate reads a net driven by a later gate, the
        // graph was corrupted and we report a cycle.
        let mut net_level: Vec<u32> = vec![0; net_count];
        let mut max_level = 0;
        for (idx, gate) in gates.iter().enumerate() {
            let mut lvl = 0;
            for &i in gate.inputs() {
                if let Driver::Gate(g) = netlist.nets[i.index()].driver {
                    if g.index() >= idx {
                        return Err(NetlistError::CombinationalCycle {
                            gate: GateId(idx as u32),
                        });
                    }
                }
                fanout[fill[i.index()] as usize] = GateId(idx as u32);
                fill[i.index()] += 1;
                lvl = lvl.max(net_level[i.index()]);
            }
            net_level[gate.output().index()] = lvl + 1;
            max_level = max_level.max(lvl + 1);
        }

        let mut is_output = vec![false; net_count];
        for &out in netlist.outputs() {
            is_output[out.index()] = true;
        }

        Ok(Topology {
            fanout_start,
            fanout,
            is_output,
            max_level,
        })
    }

    /// The gates reading `net`, in ascending id order (a gate reading the
    /// net on several pins appears once per pin).
    #[inline]
    pub fn fanout(&self, net: NetId) -> &[GateId] {
        let row = net.index();
        &self.fanout[self.fanout_start[row] as usize..self.fanout_start[row + 1] as usize]
    }

    /// The deepest logic level in the netlist (0 for a gate-free netlist),
    /// where a gate reading only inputs and constants is level 1.
    #[inline]
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Whether `net` is a primary output.
    #[inline]
    pub fn is_output(&self, net: NetId) -> bool {
        self.is_output[net.index()]
    }

    /// An upper bound on the number of gates along any input→output path,
    /// handy for sizing event queues.
    #[inline]
    pub fn depth(&self) -> usize {
        self.max_level as usize
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::GateKind;

    use super::*;

    #[test]
    fn levels_count_gate_depth() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::And, &[a, b]).unwrap();
        let y = n.add_gate(GateKind::Not, &[x]).unwrap();
        let z = n.add_gate(GateKind::Or, &[y, a]).unwrap();
        n.mark_output(z, "z");
        let t = n.topology().unwrap();
        assert_eq!(t.max_level(), 3);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn fanout_lists_cover_all_readers() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let _y = n.add_gate(GateKind::And, &[a, x]).unwrap();
        let t = n.topology().unwrap();
        assert_eq!(t.fanout(a).len(), 2);
        assert_eq!(t.fanout(x), &[GateId(1)]);
    }

    #[test]
    fn output_flags() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        assert!(t.is_output(y));
        assert!(!t.is_output(a));
    }

    #[test]
    fn output_on_input_net_accepted() {
        // Every net the builder allocates has a driver, so a netlist with
        // no gates and an output on an input net is valid.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        n.mark_output(a, "a");
        assert!(n.topology().is_ok());
    }

    #[test]
    fn empty_netlist_topology() {
        let n = Netlist::new();
        let t = n.topology().unwrap();
        assert_eq!(t.max_level(), 0);
    }

    #[test]
    fn constants_are_level_zero_sources() {
        let mut n = Netlist::new();
        let z = n.const_zero();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Or, &[z, a]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        assert_eq!(t.max_level(), 1);
    }
}
