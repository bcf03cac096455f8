//! The netlist graph and its builder API.

use std::collections::BTreeMap;

use agemul_logic::{AreaModel, GateKind, Logic};

use crate::{GateId, NetId, NetlistError, Topology};

/// One combinational gate instance.
///
/// Gates are created through [`Netlist::add_gate`]; each gate drives exactly
/// one freshly allocated net, so the graph is single-driver by construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Gate {
    kind: GateKind,
    inputs: Inputs,
    output: NetId,
}

/// A gate's input nets: up to three inline, so the gate table of a
/// generated multiplier is one allocation, and a wider gate's list boxed.
/// The unused inline slots stay `NetId(0)`, so `Eq` is exact.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Inputs {
    Inline(u8, [NetId; 3]),
    Wide(Box<[NetId]>),
}

impl Inputs {
    fn new(nets: &[NetId]) -> Self {
        if nets.len() > 3 {
            return Inputs::Wide(nets.into());
        }
        let mut inline = [NetId(0); 3];
        inline[..nets.len()].copy_from_slice(nets);
        Inputs::Inline(nets.len() as u8, inline)
    }
}

impl Gate {
    /// The gate's kind.
    #[inline]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The gate's input nets, in pin order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        match &self.inputs {
            Inputs::Inline(len, nets) => &nets[..usize::from(*len)],
            Inputs::Wide(nets) => nets,
        }
    }

    /// The net driven by this gate.
    #[inline]
    pub fn output(&self) -> NetId {
        self.output
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum Driver {
    /// Driven by a primary input pin.
    Input,
    /// Driven by a gate.
    Gate(GateId),
    /// Tied to a constant level.
    Const(Logic),
}

#[derive(Clone, Debug)]
pub(crate) struct NetInfo {
    pub(crate) driver: Option<Driver>,
}

/// A combinational gate-level netlist.
///
/// `Netlist` is both the data structure and its builder: nets and gates are
/// appended through [`add_input`](Netlist::add_input),
/// [`add_gate`](Netlist::add_gate), [`const_zero`](Netlist::const_zero) /
/// [`const_one`](Netlist::const_one), and
/// [`mark_output`](Netlist::mark_output). Once built, call
/// [`topology`](Netlist::topology) to validate the graph and obtain the
/// levelized view the simulators require.
///
/// Sequential elements (input flip-flops, Razor flip-flops, the AHL's D
/// flip-flop) are deliberately *not* part of the netlist: the `agemul` core
/// crate models them behaviourally around the combinational cloud, exactly
/// as the paper's architecture wraps the multiplier array.
///
/// # Example
///
/// ```
/// use agemul_logic::GateKind;
/// use agemul_netlist::Netlist;
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::And, &[a, b])?;
/// n.mark_output(y, "y");
/// assert_eq!(n.gate_count(), 1);
/// assert_eq!(n.input_count(), 2);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug, Default)]
pub struct Netlist {
    pub(crate) nets: Vec<NetInfo>,
    pub(crate) gates: Vec<Gate>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<NetId>,
    /// Names of the nets that have one: inputs, constants and outputs.
    names: BTreeMap<NetId, String>,
    const_zero: Option<NetId>,
    const_one: Option<NetId>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh net driven by a primary input pin.
    ///
    /// Input order is significant: the simulators accept input vectors whose
    /// positions correspond to the order of `add_input` calls.
    pub fn add_input(&mut self, name: impl Into<String>) -> NetId {
        let id = self.alloc_net(Some(name.into()), Some(Driver::Input));
        self.inputs.push(id);
        id
    }

    /// Adds a gate of `kind` reading `inputs`, returning the net it drives.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the input count is illegal for
    /// `kind`, or [`NetlistError::UnknownNet`] if any input id is foreign.
    pub fn add_gate(&mut self, kind: GateKind, inputs: &[NetId]) -> Result<NetId, NetlistError> {
        if !kind.accepts_arity(inputs.len()) {
            return Err(NetlistError::BadArity {
                kind: kind.to_string(),
                got: inputs.len(),
            });
        }
        for &i in inputs {
            if i.index() >= self.nets.len() {
                return Err(NetlistError::UnknownNet { net: i });
            }
        }
        let gate_id = GateId(self.gates.len() as u32);
        let out = self.alloc_net(None, Some(Driver::Gate(gate_id)));
        self.gates.push(Gate {
            kind,
            inputs: Inputs::new(inputs),
            output: out,
        });
        Ok(out)
    }

    /// The net tied to constant `0`, allocating it on first use.
    pub fn const_zero(&mut self) -> NetId {
        if let Some(id) = self.const_zero {
            return id;
        }
        let id = self.alloc_net(Some("const0".into()), Some(Driver::Const(Logic::Zero)));
        self.const_zero = Some(id);
        id
    }

    /// The net tied to constant `1`, allocating it on first use.
    pub fn const_one(&mut self) -> NetId {
        if let Some(id) = self.const_one {
            return id;
        }
        let id = self.alloc_net(Some("const1".into()), Some(Driver::Const(Logic::One)));
        self.const_one = Some(id);
        id
    }

    /// Marks `net` as a primary output, giving it a name.
    ///
    /// Output order is significant and follows the order of `mark_output`
    /// calls. A net may be marked as output at most once; marking it again
    /// is ignored (the first name wins).
    pub fn mark_output(&mut self, net: NetId, name: impl Into<String>) {
        assert!(
            net.index() < self.nets.len(),
            "mark_output on unknown net {net}"
        );
        if self.outputs.contains(&net) {
            return;
        }
        self.names.entry(net).or_insert_with(|| name.into());
        self.outputs.push(net);
    }

    /// Validates the netlist and computes its topological structure.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UndrivenOutput`] if a primary output has no
    /// driver, or [`NetlistError::CombinationalCycle`] if the gate graph is
    /// cyclic (impossible through this builder, but `Topology` re-checks so
    /// the simulators can rely on it).
    pub fn topology(&self) -> Result<Topology, NetlistError> {
        Topology::build(self)
    }

    /// Number of nets (including constants).
    #[inline]
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gate instances.
    #[inline]
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Number of primary inputs.
    #[inline]
    pub fn input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Number of primary outputs.
    #[inline]
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// Primary inputs in declaration order.
    #[inline]
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs in declaration order.
    #[inline]
    pub fn outputs(&self) -> &[NetId] {
        &self.outputs
    }

    /// All gates, indexable by [`GateId::index`].
    #[inline]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// The gate record for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range for this netlist.
    #[inline]
    pub fn gate(&self, id: GateId) -> &Gate {
        &self.gates[id.index()]
    }

    /// The name of `net`, if any was assigned.
    pub fn net_name(&self, net: NetId) -> Option<&str> {
        self.names.get(&net).map(String::as_str)
    }

    /// The constant level driven onto `net`, if it is a constant net.
    pub fn const_level(&self, net: NetId) -> Option<Logic> {
        match self.nets.get(net.index())?.driver {
            Some(Driver::Const(v)) => Some(v),
            _ => None,
        }
    }

    /// Returns the gate driving `net`, if it is gate-driven.
    pub fn driver_gate(&self, net: NetId) -> Option<GateId> {
        match self.nets.get(net.index())?.driver {
            Some(Driver::Gate(g)) => Some(g),
            _ => None,
        }
    }

    /// Returns `true` if `net` is a primary input.
    pub fn is_input(&self, net: NetId) -> bool {
        matches!(
            self.nets.get(net.index()).and_then(|n| n.driver.as_ref()),
            Some(Driver::Input)
        )
    }

    /// Total transistor count of the combinational cloud under `area`.
    ///
    /// Sequential overhead (input flops, Razor flops, AHL) is added by the
    /// architecture-level area accounting in the `agemul` core crate.
    pub fn transistor_count(&self, area: &AreaModel) -> u64 {
        self.gates
            .iter()
            .map(|g| u64::from(area.gate_transistors(g.kind, g.inputs().len())))
            .sum()
    }

    fn alloc_net(&mut self, name: Option<String>, driver: Option<Driver>) -> NetId {
        let id = NetId(self.nets.len() as u32);
        self.nets.push(NetInfo { driver });
        if let Some(name) = name {
            self.names.insert(id, name);
        }
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assigns_dense_ids() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        assert_eq!(y.index(), 2);
        assert_eq!(n.gate_count(), 1);
        assert_eq!(n.driver_gate(y), Some(GateId(0)));
    }

    #[test]
    fn constants_are_interned() {
        let mut n = Netlist::new();
        let z1 = n.const_zero();
        let z2 = n.const_zero();
        let o = n.const_one();
        assert_eq!(z1, z2);
        assert_ne!(z1, o);
        assert_eq!(n.const_level(z1), Some(Logic::Zero));
        assert_eq!(n.const_level(o), Some(Logic::One));
    }

    #[test]
    fn bad_arity_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let err = n.add_gate(GateKind::Not, &[a, a]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 2, .. }));
    }

    #[test]
    fn foreign_net_is_rejected() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let bogus = NetId(99);
        let err = n.add_gate(GateKind::And, &[a, bogus]).unwrap_err();
        assert_eq!(err, NetlistError::UnknownNet { net: bogus });
    }

    #[test]
    fn outputs_preserve_order_and_dedupe() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(y, "y");
        n.mark_output(a, "a_out");
        n.mark_output(y, "y_again");
        assert_eq!(n.outputs(), &[y, a]);
        assert_eq!(n.net_name(y), Some("y"));
    }

    #[test]
    fn names_round_trip() {
        let mut n = Netlist::new();
        let a = n.add_input("alpha");
        assert_eq!(n.net_name(a), Some("alpha"));
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        assert_eq!(n.net_name(y), None);
    }

    #[test]
    fn transistor_count_sums_gates() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Xor, &[a, b]).unwrap(); // 8T
        let _ = n.add_gate(GateKind::Not, &[x]).unwrap(); // 2T
        assert_eq!(n.transistor_count(&AreaModel::standard_cell()), 10);
    }

    #[test]
    fn input_flags() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        assert!(n.is_input(a));
        assert!(!n.is_input(y));
    }
}
