//! Bit-parallel batch functional simulator: 64 patterns per sweep.
//!
//! [`BatchSim`] is the throughput counterpart of [`FuncSim`](crate::FuncSim).
//! Where `FuncSim` walks one [`Logic`] value per gate per pattern, `BatchSim`
//! packs input assignments into [`LogicWord`] lane words — lane `i` of
//! every net belongs to pattern `i` — and performs **one** topological sweep
//! per batch, evaluating each gate with word-wide bitwise operations
//! ([`agemul_logic::GateKind::eval_wide`]).
//!
//! # Lane packing layout
//!
//! ```text
//! patterns[0]  = [a0, b0, c0, ...]        ─┐ lane 0
//! patterns[1]  = [a1, b1, c1, ...]        ─┤ lane 1   per-net words:
//!    ...                                   ├────────▶ word(a) = ⟨a0 a1 ...⟩
//! patterns[N]  = [aN, bN, cN, ...]        ─┘ lane N   word(b) = ⟨b0 b1 ...⟩
//! ```
//!
//! Packing is column-wise: one word per *net*, one lane per *pattern*. A
//! partial batch (fewer than 64 patterns) leaves the surplus lanes at `X`;
//! every accessor takes or masks a lane index so those lanes never leak.
//!
//! # Equivalence guarantee
//!
//! For every net and every lane, `BatchSim` produces exactly the value
//! `FuncSim` produces for that pattern — including [`Logic::Z`] on disabled
//! tri-state outputs and the `X`-masking muxes of the bypassing
//! multipliers. The property-test suites
//! (`crates/netlist/tests/batch_equiv.rs`,
//! `crates/netlist/tests/fault_overlay.rs`) assert this over random
//! netlists covering every [`agemul_logic::GateKind`], clean and under a
//! fault overlay; the word-level gate formulas are additionally checked
//! exhaustively against the scalar evaluator in `agemul-logic`.

use agemul_logic::{lane_mask, Logic, LogicWord};

use crate::plan::GatePlan;
use crate::{NetId, Netlist, NetlistError, Topology};

/// A bit-parallel functional simulator evaluating up to 64 patterns per
/// topological sweep.
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic};
/// use agemul_netlist::{BatchSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::Xor, &[a, b])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut sim = BatchSim::new(&n, &topo);
/// let patterns = [
///     [Logic::Zero, Logic::Zero],
///     [Logic::Zero, Logic::One],
///     [Logic::One, Logic::One],
/// ];
/// sim.eval_batch(&patterns)?;
/// assert_eq!(sim.value(y, 0), Logic::Zero);
/// assert_eq!(sim.value(y, 1), Logic::One);
/// assert_eq!(sim.value(y, 2), Logic::Zero);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct BatchSim<'a> {
    netlist: &'a Netlist,
    plan: GatePlan,
    words: Vec<LogicWord>,
    scratch: Vec<LogicWord>,
    lanes: usize,
    /// Constant nets and their splatted words, preloaded once; used to undo
    /// fault coercion left behind by
    /// [`eval_batch_with_overlay`](Self::eval_batch_with_overlay).
    consts: Vec<(u32, LogicWord)>,
    consts_dirty: bool,
}

impl<'a> BatchSim<'a> {
    /// Number of patterns one sweep evaluates.
    pub const LANES: usize = 64;

    /// Creates a batch simulator for `netlist`.
    ///
    /// As with [`FuncSim`](crate::FuncSim), the `topology` argument proves
    /// the caller validated the netlist; the sweep itself uses builder
    /// order via a flattened gate plan.
    pub fn new(netlist: &'a Netlist, _topology: &Topology) -> Self {
        let mut words = vec![LogicWord::ALL_X; netlist.net_count()];
        let mut consts = Vec::new();
        for (idx, w) in words.iter_mut().enumerate() {
            if let Some(level) = netlist.const_level(NetId(idx as u32)) {
                *w = LogicWord::splat(level);
                consts.push((idx as u32, *w));
            }
        }
        let plan = GatePlan::new(netlist);
        let scratch = Vec::with_capacity(plan.max_arity().max(1));
        BatchSim {
            netlist,
            plan,
            words,
            scratch,
            lanes: 0,
            consts,
            consts_dirty: false,
        }
    }

    /// Evaluates up to 64 input assignments in one topological sweep
    /// and returns the number of valid lanes.
    ///
    /// `patterns[i]` becomes lane `i`; each pattern must supply one
    /// [`Logic`] per primary input, in `netlist.inputs()` order (exactly
    /// the slice [`FuncSim::eval`](crate::FuncSim::eval) accepts). Lanes
    /// beyond `patterns.len()` are driven to `X` and excluded by the lane
    /// masks of the accessors.
    ///
    /// # Errors
    ///
    /// * [`NetlistError::BatchSize`] if `patterns` is empty or longer than
    ///   [`Self::LANES`].
    /// * [`NetlistError::WidthMismatch`] if any pattern's width is not the
    ///   primary input count.
    pub fn eval_batch<P: AsRef<[Logic]>>(&mut self, patterns: &[P]) -> Result<usize, NetlistError> {
        self.check_batch(patterns)?;

        if self.consts_dirty {
            for &(idx, w) in &self.consts {
                self.words[idx as usize] = w;
            }
            self.consts_dirty = false;
        }

        // Pack column-wise: per input net, gather that input's column
        // across all patterns into one word.
        for (j, &net) in self.netlist.inputs().iter().enumerate() {
            let mut w = LogicWord::ALL_X;
            for (lane, p) in patterns.iter().enumerate() {
                w.set(lane, p.as_ref()[j]);
            }
            self.words[net.index()] = w;
        }

        // One bit-parallel sweep over the flattened plan.
        for g in 0..self.plan.gate_count() {
            self.scratch.clear();
            self.scratch.extend(
                self.plan
                    .inputs_of(g)
                    .iter()
                    .map(|&i| self.words[i as usize]),
            );
            self.words[self.plan.output(g)] = self.plan.kind(g).eval_wide(&self.scratch);
        }

        self.lanes = patterns.len();
        Ok(self.lanes)
    }

    /// Evaluates up to 64 input assignments with a
    /// [`FaultOverlay`](crate::FaultOverlay) coercing net words as they
    /// settle; returns the number of valid lanes.
    ///
    /// Lane `i` observes the faults whose mask includes bit `i`, so
    /// replicating one input pattern across the lanes simulates up to 64
    /// fault candidates in a single sweep — the core trick of the fault
    /// campaigns. An empty overlay yields bit-identical words to
    /// [`eval_batch`](Self::eval_batch),
    /// which remains the fault-free fast path.
    ///
    /// # Errors
    ///
    /// Same contract as [`eval_batch`](Self::eval_batch).
    pub fn eval_batch_with_overlay<P: AsRef<[Logic]>>(
        &mut self,
        patterns: &[P],
        overlay: &crate::FaultOverlay,
    ) -> Result<usize, NetlistError> {
        self.check_batch(patterns)?;

        // Constants are preloaded in `new`; re-coerce the faulted ones and
        // let the next plain `eval_batch` restore them.
        for &(idx, w) in &self.consts {
            self.words[idx as usize] = overlay.apply_word(idx as usize, w);
        }
        self.consts_dirty = !overlay.is_empty();

        for (j, &net) in self.netlist.inputs().iter().enumerate() {
            let mut w = LogicWord::ALL_X;
            for (lane, p) in patterns.iter().enumerate() {
                w.set(lane, p.as_ref()[j]);
            }
            self.words[net.index()] = overlay.apply_word(net.index(), w);
        }

        for g in 0..self.plan.gate_count() {
            self.scratch.clear();
            self.scratch.extend(
                self.plan
                    .inputs_of(g)
                    .iter()
                    .map(|&i| self.words[i as usize]),
            );
            let out = self.plan.output(g);
            self.words[out] = overlay.apply_word(out, self.plan.kind(g).eval_wide(&self.scratch));
        }

        self.lanes = patterns.len();
        Ok(self.lanes)
    }

    /// Shared size/width validation for the two batch entry points.
    fn check_batch<P: AsRef<[Logic]>>(&self, patterns: &[P]) -> Result<(), NetlistError> {
        if patterns.is_empty() || patterns.len() > Self::LANES {
            return Err(NetlistError::BatchSize {
                got: patterns.len(),
            });
        }
        let input_count = self.netlist.input_count();
        for p in patterns {
            if p.as_ref().len() != input_count {
                return Err(NetlistError::WidthMismatch {
                    expected: input_count,
                    got: p.as_ref().len(),
                });
            }
        }
        Ok(())
    }

    /// Number of valid lanes in the most recent batch (0 before the first
    /// [`eval_batch`](Self::eval_batch)).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Bit mask selecting the valid lanes of the most recent batch.
    #[inline]
    pub fn valid_mask(&self) -> u64 {
        lane_mask(self.lanes)
    }

    /// The settled lane word of `net` after the most recent batch.
    #[inline]
    pub fn word(&self, net: NetId) -> LogicWord {
        self.words[net.index()]
    }

    /// All settled lane words, indexable by [`NetId::index`].
    #[inline]
    pub fn words(&self) -> &[LogicWord] {
        &self.words
    }

    /// The settled value of `net` for pattern `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a valid lane of the most recent batch.
    #[inline]
    pub fn value(&self, net: NetId, lane: usize) -> Logic {
        assert!(lane < self.lanes, "lane {lane} of {} evaluated", self.lanes);
        self.words[net.index()].get(lane)
    }

    /// Writes pattern `lane`'s primary output values into `out`
    /// (declaration order) without allocating.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `out.len()` is not the
    /// primary output count.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a valid lane of the most recent batch.
    pub fn write_outputs(&self, lane: usize, out: &mut [Logic]) -> Result<(), NetlistError> {
        assert!(lane < self.lanes, "lane {lane} of {} evaluated", self.lanes);
        if out.len() != self.netlist.output_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.output_count(),
                got: out.len(),
            });
        }
        for (slot, &o) in out.iter_mut().zip(self.netlist.outputs()) {
            *slot = self.words[o.index()].get(lane);
        }
        Ok(())
    }

    /// Sum of [`Logic::high_weight`] over the valid lanes of `net` — the
    /// batched building block of signal-probability collection.
    #[inline]
    pub fn high_weight_sum(&self, net: NetId) -> f64 {
        self.words[net.index()].high_weight_sum(self.lanes)
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::GateKind;

    use super::*;
    use crate::FuncSim;

    fn bypass_netlist() -> Netlist {
        // Tbuf + masking mux + constants: the shapes that exercise the
        // four-valued planes.
        let mut n = Netlist::new();
        let d = n.add_input("d");
        let en = n.add_input("en");
        let bypass = n.add_input("bypass");
        let one = n.const_one();
        let gated = n.add_gate(GateKind::Tbuf, &[d, en]).unwrap();
        let picked = n.add_gate(GateKind::Mux2, &[bypass, gated, en]).unwrap();
        let y = n.add_gate(GateKind::And, &[picked, one]).unwrap();
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn matches_funcsim_on_bypass_shapes() {
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        let mut scalar = FuncSim::new(&n, &topo);

        // All 4^3 = 64 input combinations in a single batch.
        let patterns: Vec<[Logic; 3]> = (0..64)
            .map(|c| {
                [
                    Logic::ALL[c % 4],
                    Logic::ALL[(c / 4) % 4],
                    Logic::ALL[(c / 16) % 4],
                ]
            })
            .collect();
        assert_eq!(batch.eval_batch(&patterns).unwrap(), 64);

        for (lane, p) in patterns.iter().enumerate() {
            scalar.eval(p).unwrap();
            for idx in 0..n.net_count() {
                let net = NetId(idx as u32);
                assert_eq!(
                    batch.value(net, lane),
                    scalar.value(net),
                    "net {net} lane {lane} pattern {p:?}"
                );
            }
        }
    }

    #[test]
    fn partial_batches_mask_surplus_lanes() {
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        let patterns = [[Logic::One, Logic::One, Logic::Zero]];
        assert_eq!(batch.eval_batch(&patterns).unwrap(), 1);
        assert_eq!(batch.lanes(), 1);
        assert_eq!(batch.valid_mask(), 1);
        let y = *n.outputs().first().unwrap();
        assert_eq!(batch.value(y, 0), Logic::One);
        assert_eq!(batch.high_weight_sum(y), 1.0);
    }

    #[test]
    fn rejects_bad_batch_sizes_and_widths() {
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);

        let empty: [[Logic; 3]; 0] = [];
        assert_eq!(
            batch.eval_batch(&empty).unwrap_err(),
            NetlistError::BatchSize { got: 0 }
        );

        let oversized = vec![[Logic::Zero; 3]; 65];
        assert_eq!(
            batch.eval_batch(&oversized).unwrap_err(),
            NetlistError::BatchSize { got: 65 }
        );

        let narrow = [vec![Logic::Zero; 2]];
        assert_eq!(
            batch.eval_batch(&narrow).unwrap_err(),
            NetlistError::WidthMismatch {
                expected: 3,
                got: 2
            }
        );
    }

    #[test]
    fn write_outputs_round_trips() {
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        let patterns = [
            [Logic::One, Logic::One, Logic::Zero],
            [Logic::Zero, Logic::Zero, Logic::One],
        ];
        batch.eval_batch(&patterns).unwrap();
        let mut out = [Logic::X; 1];
        batch.write_outputs(0, &mut out).unwrap();
        assert_eq!(out[0], Logic::One);
        batch.write_outputs(1, &mut out).unwrap();
        assert_eq!(out[0], Logic::One); // mux picks the bypass value
    }

    #[test]
    fn lane_masked_overlay_runs_distinct_variants_per_lane() {
        use crate::{FaultKind, FaultOverlay};
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(y, "y");
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);

        // One pattern (a=1, b=1) replicated over four lanes; each lane a
        // different fault candidate: lane 0 fault-free, lane 1 sa0 on a,
        // lane 2 sa0 on b, lane 3 flip on y.
        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::StuckAt0, 0b0010).unwrap();
        o.add(b, FaultKind::StuckAt0, 0b0100).unwrap();
        o.add(y, FaultKind::Flip, 0b1000).unwrap();
        let pattern = [Logic::One, Logic::One];
        let patterns = [pattern; 4];
        assert_eq!(batch.eval_batch_with_overlay(&patterns, &o).unwrap(), 4);
        assert_eq!(batch.value(y, 0), Logic::One);
        assert_eq!(batch.value(y, 1), Logic::Zero);
        assert_eq!(batch.value(y, 2), Logic::Zero);
        assert_eq!(batch.value(y, 3), Logic::Zero);

        // A plain batch afterwards is unaffected by the overlay run.
        batch.eval_batch(&patterns).unwrap();
        for lane in 0..4 {
            assert_eq!(batch.value(y, lane), Logic::One);
        }
    }

    #[test]
    fn overlay_on_const_net_is_restored_for_plain_batches() {
        use crate::{FaultKind, FaultOverlay};
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let one = (0..n.net_count())
            .map(|i| NetId(i as u32))
            .find(|&net| n.const_level(net) == Some(Logic::One))
            .unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        let mut o = FaultOverlay::new(&n);
        o.add(one, FaultKind::StuckAt0, !0).unwrap();
        let patterns = [[Logic::One, Logic::One, Logic::Zero]];
        batch.eval_batch_with_overlay(&patterns, &o).unwrap();
        let y = *n.outputs().first().unwrap();
        assert_eq!(batch.value(y, 0), Logic::Zero); // AND with stuck-0 one
        batch.eval_batch(&patterns).unwrap();
        assert_eq!(batch.value(y, 0), Logic::One);
    }

    #[test]
    fn reeval_overwrites_previous_batch() {
        let n = bypass_netlist();
        let topo = n.topology().unwrap();
        let mut batch = BatchSim::new(&n, &topo);
        batch
            .eval_batch(&[[Logic::One, Logic::One, Logic::Zero]])
            .unwrap();
        batch
            .eval_batch(&[[Logic::Zero, Logic::One, Logic::Zero]])
            .unwrap();
        let y = *n.outputs().first().unwrap();
        assert_eq!(batch.value(y, 0), Logic::Zero);
    }
}
