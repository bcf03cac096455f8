//! Zero-delay functional simulator.

use agemul_logic::Logic;

use crate::{NetId, Netlist, NetlistError, Topology};

/// A zero-delay functional simulator: one topological sweep per pattern.
///
/// `FuncSim` computes the settled value of every net for a given primary
/// input assignment. It is the reference model for correctness tests (the
/// multipliers are checked against integer multiplication through it) and
/// the workhorse for signal-probability collection, where tens of thousands
/// of patterns must be evaluated cheaply.
///
/// Tri-state buffers are memoryless here: a disabled `TBUF` output reads as
/// [`Logic::Z`]. In the bypassing multipliers every such floating net is
/// masked downstream by a mux with a known select or an AND with a
/// controlling zero, so primary outputs are always defined — a property the
/// test suites assert heavily.
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic};
/// use agemul_netlist::{FuncSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::Xor, &[a, b])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut sim = FuncSim::new(&n, &topo);
/// sim.eval(&[Logic::One, Logic::Zero])?;
/// assert_eq!(sim.value(y), Logic::One);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct FuncSim<'a> {
    netlist: &'a Netlist,
    values: Vec<Logic>,
    scratch: Vec<Logic>,
    /// Constant nets and their levels, preloaded once; used to undo fault
    /// coercion left behind by [`eval_with_overlay`](Self::eval_with_overlay).
    consts: Vec<(u32, Logic)>,
    consts_dirty: bool,
}

impl<'a> FuncSim<'a> {
    /// Creates a simulator for `netlist`.
    ///
    /// The `topology` argument exists to prove the caller validated the
    /// netlist; the functional sweep itself walks the netlist's gate table
    /// in builder order.
    pub fn new(netlist: &'a Netlist, _topology: &Topology) -> Self {
        let mut values = vec![Logic::X; netlist.net_count()];
        let mut consts = Vec::new();
        for (idx, info) in netlist.nets.iter().enumerate() {
            if let Some(crate::netlist::Driver::Const(v)) = info.driver {
                values[idx] = v;
                consts.push((idx as u32, v));
            }
        }
        FuncSim {
            netlist,
            values,
            scratch: Vec::with_capacity(3),
            consts,
            consts_dirty: false,
        }
    }

    /// Evaluates the netlist for one input assignment.
    ///
    /// `inputs[i]` is applied to `netlist.inputs()[i]`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `inputs` does not match the
    /// primary input count.
    pub fn eval(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.input_count(),
                got: inputs.len(),
            });
        }
        if self.consts_dirty {
            for &(idx, v) in &self.consts {
                self.values[idx as usize] = v;
            }
            self.consts_dirty = false;
        }
        for (&net, &v) in self.netlist.inputs().iter().zip(inputs) {
            self.values[net.index()] = v;
        }
        for gate in self.netlist.gates() {
            self.scratch.clear();
            self.scratch
                .extend(gate.inputs().iter().map(|i| self.values[i.index()]));
            self.values[gate.output().index()] = gate.kind().eval(&self.scratch);
        }
        Ok(())
    }

    /// Evaluates the netlist for one input assignment with a
    /// [`FaultOverlay`](crate::FaultOverlay) coercing net values as they settle.
    ///
    /// Every net — constant, primary input, or gate output — is passed
    /// through the overlay's scalar (lane-0) view immediately after its
    /// driver resolves, so downstream gates observe the faulted level. An
    /// empty overlay yields bit-identical results to
    /// [`eval`](Self::eval), which remains the fault-free fast path.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `inputs` does not match
    /// the primary input count.
    pub fn eval_with_overlay(
        &mut self,
        inputs: &[Logic],
        overlay: &crate::FaultOverlay,
    ) -> Result<(), NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.input_count(),
                got: inputs.len(),
            });
        }
        // Constants are preloaded in `new`; re-coerce the faulted ones and
        // let the next plain `eval` restore them.
        for &(idx, v) in &self.consts {
            self.values[idx as usize] = overlay.apply_scalar(idx as usize, v);
        }
        self.consts_dirty = !overlay.is_empty();
        for (&net, &v) in self.netlist.inputs().iter().zip(inputs) {
            self.values[net.index()] = overlay.apply_scalar(net.index(), v);
        }
        for gate in self.netlist.gates() {
            self.scratch.clear();
            self.scratch
                .extend(gate.inputs().iter().map(|i| self.values[i.index()]));
            let out = gate.output().index();
            self.values[out] = overlay.apply_scalar(out, gate.kind().eval(&self.scratch));
        }
        Ok(())
    }

    /// The settled value of `net` after the most recent [`eval`](Self::eval).
    #[inline]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// All settled net values, indexable by [`NetId::index`].
    #[inline]
    pub fn values(&self) -> &[Logic] {
        &self.values
    }

    /// The settled primary output values in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Writes the settled primary output values into `out` (declaration
    /// order) without allocating — the per-pattern companion of
    /// [`output_values`](Self::output_values) for profiling loops.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `out.len()` is not the
    /// primary output count.
    pub fn write_outputs(&self, out: &mut [Logic]) -> Result<(), NetlistError> {
        if out.len() != self.netlist.output_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.output_count(),
                got: out.len(),
            });
        }
        for (slot, &o) in out.iter_mut().zip(self.netlist.outputs()) {
            *slot = self.values[o.index()];
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::GateKind;

    use super::*;

    fn xor_netlist() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::Xor, &[a, b]).unwrap();
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn evaluates_truth_table() {
        let n = xor_netlist();
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            sim.eval(&[Logic::from(a), Logic::from(b)]).unwrap();
            assert_eq!(sim.output_values(), vec![Logic::from(a ^ b)]);
        }
    }

    #[test]
    fn width_mismatch_detected() {
        let n = xor_netlist();
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);
        let err = sim.eval(&[Logic::One]).unwrap_err();
        assert_eq!(
            err,
            NetlistError::WidthMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn constants_preloaded() {
        let mut n = Netlist::new();
        let z = n.const_zero();
        let o = n.const_one();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::And, &[o, a]).unwrap();
        let w = n.add_gate(GateKind::Or, &[z, a]).unwrap();
        n.mark_output(y, "y");
        n.mark_output(w, "w");
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);
        sim.eval(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(sim.value(w), Logic::One);
    }

    #[test]
    fn disabled_tbuf_floats_but_mux_masks() {
        let mut n = Netlist::new();
        let d = n.add_input("d");
        let en = n.add_input("en");
        let bypass = n.add_input("bypass");
        let gated = n.add_gate(GateKind::Tbuf, &[d, en]).unwrap();
        // mux: en selects between the bypass value and the gated value.
        let y = n.add_gate(GateKind::Mux2, &[bypass, gated, en]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);

        // Disabled: gated floats, mux picks bypass — output defined.
        sim.eval(&[Logic::One, Logic::Zero, Logic::Zero]).unwrap();
        assert_eq!(sim.value(gated), Logic::Z);
        assert_eq!(sim.value(y), Logic::Zero);

        // Enabled: gated drives, mux picks it.
        sim.eval(&[Logic::One, Logic::One, Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn write_outputs_matches_output_values() {
        let n = xor_netlist();
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);
        sim.eval(&[Logic::One, Logic::Zero]).unwrap();
        let mut buf = [Logic::X; 1];
        sim.write_outputs(&mut buf).unwrap();
        assert_eq!(buf.to_vec(), sim.output_values());

        let mut wrong = [Logic::X; 3];
        assert_eq!(
            sim.write_outputs(&mut wrong).unwrap_err(),
            NetlistError::WidthMismatch {
                expected: 1,
                got: 3
            }
        );
    }

    #[test]
    fn overlay_coerces_inputs_gates_and_consts() {
        use crate::{FaultKind, FaultOverlay};
        let mut n = Netlist::new();
        let one = n.const_one();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::And, &[a, one]).unwrap();
        let y = n.add_gate(GateKind::Or, &[x, b]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);

        // Stuck-at-0 on the constant-one net kills the AND.
        let mut o = FaultOverlay::new(&n);
        o.add(one, FaultKind::StuckAt0, 1).unwrap();
        sim.eval_with_overlay(&[Logic::One, Logic::Zero], &o)
            .unwrap();
        assert_eq!(sim.value(x), Logic::Zero);
        assert_eq!(sim.value(y), Logic::Zero);

        // A plain eval afterwards must see the unfaulted constant again.
        sim.eval(&[Logic::One, Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);

        // Flip on a gate output propagates downstream.
        let mut o = FaultOverlay::new(&n);
        o.add(x, FaultKind::Flip, 1).unwrap();
        sim.eval_with_overlay(&[Logic::One, Logic::Zero], &o)
            .unwrap();
        assert_eq!(sim.value(x), Logic::Zero);
        assert_eq!(sim.value(y), Logic::Zero);

        // Stuck-at-1 on an input.
        let mut o = FaultOverlay::new(&n);
        o.add(b, FaultKind::StuckAt1, 1).unwrap();
        sim.eval_with_overlay(&[Logic::Zero, Logic::Zero], &o)
            .unwrap();
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn empty_overlay_matches_plain_eval() {
        use crate::FaultOverlay;
        let n = xor_netlist();
        let t = n.topology().unwrap();
        let mut plain = FuncSim::new(&n, &t);
        let mut faulted = FuncSim::new(&n, &t);
        let o = FaultOverlay::new(&n);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let pattern = [Logic::from(a), Logic::from(b)];
            plain.eval(&pattern).unwrap();
            faulted.eval_with_overlay(&pattern, &o).unwrap();
            assert_eq!(plain.values(), faulted.values());
        }
    }

    #[test]
    fn repeated_eval_reuses_state_safely() {
        let n = xor_netlist();
        let t = n.topology().unwrap();
        let mut sim = FuncSim::new(&n, &t);
        sim.eval(&[Logic::One, Logic::One]).unwrap();
        sim.eval(&[Logic::Zero, Logic::One]).unwrap();
        assert_eq!(sim.output_values(), vec![Logic::One]);
    }
}
