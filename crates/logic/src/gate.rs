//! The structural gate library and its combinational semantics.

use std::fmt;

use crate::Logic;

/// The kind of a combinational gate in a netlist.
///
/// The library is deliberately small — it is exactly the set of primitives
/// needed to build the paper's circuits at gate granularity:
///
/// * array / bypassing multipliers: [`And`], [`Xor`], [`Or`], inverters,
///   [`Mux2`] (the bypass multiplexers), [`Tbuf`] (the tri-state gates that
///   freeze a skipped full adder's inputs);
/// * the AHL judging blocks and hold logic: the same plus [`Nand`]/[`Nor`].
///
/// `And`, `Or`, `Nand`, `Nor`, `Xor` and `Xnor` are n-ary (arity ≥ 2 decided
/// by the netlist); the remaining kinds have fixed arity.
///
/// # Pin conventions
///
/// * [`Mux2`]: inputs `[in0, in1, sel]`, output `sel ? in1 : in0`.
/// * [`Tbuf`]: inputs `[data, enable]`, output `data` when `enable` is high,
///   [`Logic::Z`] when low. The event-driven simulator additionally gives
///   `Tbuf` *hold* semantics (a disabled tri-state does not propagate input
///   transitions), which is what makes bypassing save power.
///
/// [`And`]: GateKind::And
/// [`Xor`]: GateKind::Xor
/// [`Or`]: GateKind::Or
/// [`Mux2`]: GateKind::Mux2
/// [`Tbuf`]: GateKind::Tbuf
/// [`Nand`]: GateKind::Nand
/// [`Nor`]: GateKind::Nor
/// [`Xnor`]: GateKind::Xnor
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic};
///
/// // A three-input AND gate with a controlling zero.
/// let out = GateKind::And.eval(&[Logic::One, Logic::Zero, Logic::X]);
/// assert_eq!(out, Logic::Zero);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum GateKind {
    /// Non-inverting buffer (1 input).
    Buf,
    /// Inverter (1 input).
    Not,
    /// n-ary AND (≥ 2 inputs).
    And,
    /// n-ary OR (≥ 2 inputs).
    Or,
    /// n-ary NAND (≥ 2 inputs).
    Nand,
    /// n-ary NOR (≥ 2 inputs).
    Nor,
    /// n-ary XOR, i.e. odd parity (≥ 2 inputs).
    Xor,
    /// n-ary XNOR, i.e. even parity (≥ 2 inputs).
    Xnor,
    /// 2:1 multiplexer; inputs `[in0, in1, sel]`.
    Mux2,
    /// Tri-state buffer; inputs `[data, enable]`, output `Z` when disabled.
    Tbuf,
}

impl GateKind {
    /// Every gate kind, for table-driven tests and model exhaustiveness
    /// checks.
    pub const ALL: [GateKind; 10] = [
        GateKind::Buf,
        GateKind::Not,
        GateKind::And,
        GateKind::Or,
        GateKind::Nand,
        GateKind::Nor,
        GateKind::Xor,
        GateKind::Xnor,
        GateKind::Mux2,
        GateKind::Tbuf,
    ];

    /// The exact arity of the gate, or `None` for the variadic kinds.
    #[inline]
    pub fn fixed_arity(self) -> Option<usize> {
        match self {
            GateKind::Buf | GateKind::Not => Some(1),
            GateKind::Mux2 => Some(3),
            GateKind::Tbuf => Some(2),
            _ => None,
        }
    }

    /// The minimum legal number of inputs.
    #[inline]
    pub fn min_arity(self) -> usize {
        self.fixed_arity().unwrap_or(2)
    }

    /// Returns `true` if `n` inputs is a legal arity for this gate kind.
    #[inline]
    pub fn accepts_arity(self, n: usize) -> bool {
        match self.fixed_arity() {
            Some(k) => n == k,
            None => n >= 2,
        }
    }

    /// Evaluates the gate on the given input levels.
    ///
    /// This is the single source of combinational truth for both simulators.
    /// Inputs at [`Logic::Z`] are read as unknown; outputs are therefore
    /// never `Z` except for a disabled [`GateKind::Tbuf`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the gate kind (the
    /// netlist builder validates arity at construction, so a panic here
    /// indicates a corrupted netlist).
    pub fn eval(self, inputs: &[Logic]) -> Logic {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {self} evaluated with illegal arity {}",
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0].read(),
            GateKind::Not => !inputs[0],
            GateKind::And => inputs.iter().copied().fold(Logic::One, Logic::and),
            GateKind::Or => inputs.iter().copied().fold(Logic::Zero, Logic::or),
            GateKind::Nand => !inputs.iter().copied().fold(Logic::One, Logic::and),
            GateKind::Nor => !inputs.iter().copied().fold(Logic::Zero, Logic::or),
            GateKind::Xor => inputs.iter().copied().fold(Logic::Zero, Logic::xor),
            GateKind::Xnor => !inputs.iter().copied().fold(Logic::Zero, Logic::xor),
            GateKind::Mux2 => {
                let (in0, in1, sel) = (inputs[0].read(), inputs[1].read(), inputs[2].read());
                match sel.to_bool() {
                    Some(false) => in0,
                    Some(true) => in1,
                    // Unknown select: the output is still defined when both
                    // branches agree on a known value.
                    None if in0 == in1 && in0.is_known() => in0,
                    None => Logic::X,
                }
            }
            GateKind::Tbuf => match inputs[1].read().to_bool() {
                Some(true) => inputs[0].read(),
                Some(false) => Logic::Z,
                None => Logic::X,
            },
        }
    }

    /// Returns `true` for the kinds whose first-order switching load is
    /// dominated by internal nodes rather than output capacitance; used by
    /// the power model to weight toggles.
    #[inline]
    pub fn is_complex(self) -> bool {
        matches!(self, GateKind::Xor | GateKind::Xnor | GateKind::Mux2)
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            GateKind::Buf => "BUF",
            GateKind::Not => "NOT",
            GateKind::And => "AND",
            GateKind::Or => "OR",
            GateKind::Nand => "NAND",
            GateKind::Nor => "NOR",
            GateKind::Xor => "XOR",
            GateKind::Xnor => "XNOR",
            GateKind::Mux2 => "MUX2",
            GateKind::Tbuf => "TBUF",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(v: bool) -> Logic {
        Logic::from(v)
    }

    #[test]
    fn two_input_truth_tables() {
        for a in [false, true] {
            for bb in [false, true] {
                let ins = [b(a), b(bb)];
                assert_eq!(GateKind::And.eval(&ins), b(a & bb));
                assert_eq!(GateKind::Or.eval(&ins), b(a | bb));
                assert_eq!(GateKind::Nand.eval(&ins), b(!(a & bb)));
                assert_eq!(GateKind::Nor.eval(&ins), b(!(a | bb)));
                assert_eq!(GateKind::Xor.eval(&ins), b(a ^ bb));
                assert_eq!(GateKind::Xnor.eval(&ins), b(!(a ^ bb)));
            }
        }
    }

    #[test]
    fn variadic_gates() {
        let ins = [b(true), b(true), b(true), b(false)];
        assert_eq!(GateKind::And.eval(&ins), Logic::Zero);
        assert_eq!(GateKind::Or.eval(&ins), Logic::One);
        // XOR over 4 inputs = parity.
        assert_eq!(GateKind::Xor.eval(&ins), b(true ^ true ^ true ^ false));
    }

    #[test]
    fn inverter_and_buffer() {
        assert_eq!(GateKind::Not.eval(&[Logic::Zero]), Logic::One);
        assert_eq!(GateKind::Buf.eval(&[Logic::One]), Logic::One);
        assert_eq!(GateKind::Buf.eval(&[Logic::Z]), Logic::X);
    }

    #[test]
    fn mux_selects() {
        for in0 in [false, true] {
            for in1 in [false, true] {
                assert_eq!(GateKind::Mux2.eval(&[b(in0), b(in1), Logic::Zero]), b(in0));
                assert_eq!(GateKind::Mux2.eval(&[b(in0), b(in1), Logic::One]), b(in1));
            }
        }
    }

    #[test]
    fn mux_unknown_select_agreeing_branches() {
        assert_eq!(
            GateKind::Mux2.eval(&[Logic::One, Logic::One, Logic::X]),
            Logic::One
        );
        assert_eq!(
            GateKind::Mux2.eval(&[Logic::Zero, Logic::One, Logic::X]),
            Logic::X
        );
    }

    #[test]
    fn mux_masks_unknown_branch() {
        // The select is known, so an X on the unselected branch is invisible.
        // This property is what makes tri-state bypassing functionally safe.
        assert_eq!(
            GateKind::Mux2.eval(&[Logic::One, Logic::X, Logic::Zero]),
            Logic::One
        );
        assert_eq!(
            GateKind::Mux2.eval(&[Logic::X, Logic::Zero, Logic::One]),
            Logic::Zero
        );
    }

    #[test]
    fn tbuf_drives_or_floats() {
        assert_eq!(GateKind::Tbuf.eval(&[Logic::One, Logic::One]), Logic::One);
        assert_eq!(GateKind::Tbuf.eval(&[Logic::One, Logic::Zero]), Logic::Z);
        assert_eq!(GateKind::Tbuf.eval(&[Logic::Zero, Logic::X]), Logic::X);
    }

    #[test]
    fn arity_rules() {
        assert_eq!(GateKind::Not.fixed_arity(), Some(1));
        assert_eq!(GateKind::Mux2.fixed_arity(), Some(3));
        assert_eq!(GateKind::Tbuf.fixed_arity(), Some(2));
        assert_eq!(GateKind::And.fixed_arity(), None);
        assert!(GateKind::And.accepts_arity(2));
        assert!(GateKind::And.accepts_arity(9));
        assert!(!GateKind::And.accepts_arity(1));
        assert!(!GateKind::Mux2.accepts_arity(2));
    }

    #[test]
    #[should_panic(expected = "illegal arity")]
    fn eval_rejects_bad_arity() {
        let _ = GateKind::Mux2.eval(&[Logic::One]);
    }

    #[test]
    fn unknown_inputs_do_not_leak_z() {
        // No combinational gate other than a disabled TBUF may emit Z.
        for kind in GateKind::ALL {
            if kind == GateKind::Tbuf {
                continue;
            }
            let n = kind.fixed_arity().unwrap_or(2);
            let ins = vec![Logic::Z; n];
            let out = kind.eval(&ins);
            assert_ne!(out, Logic::Z, "{kind} produced Z");
        }
    }

    /// Tables indexed by `kind as usize` rely on this order.
    #[test]
    fn all_lists_kinds_in_declaration_order() {
        for (i, kind) in GateKind::ALL.into_iter().enumerate() {
            assert_eq!(kind as usize, i, "{kind}");
        }
    }

    #[test]
    fn display_names_are_unique() {
        let mut names: Vec<String> = GateKind::ALL.iter().map(|k| k.to_string()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), GateKind::ALL.len());
    }
}
