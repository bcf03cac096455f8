//! Workload statistics: signal probabilities and switching activity.

use agemul_logic::Logic;

use crate::{BlockSim, GateId, NetId, Netlist, NetlistError, Topology};

/// Per-net signal probabilities accumulated over a workload.
///
/// The **BTI aging model** needs the fraction of time each gate's
/// transistors spend under stress, which this type approximates with the
/// settled high-probability of each net (`α(S)` in Eq. 1 of the paper).
/// It comes from a zero-delay functional sweep; the timed per-gate toggle
/// counts the power model needs live in [`SwitchingActivity`].
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic};
/// use agemul_netlist::{Netlist, WorkloadStats};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let y = n.add_gate(GateKind::Not, &[a])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut stats = WorkloadStats::new(&n);
/// stats.observe_patterns(&n, &topo, [[Logic::Zero], [Logic::One], [Logic::One]])?;
/// assert!((stats.net_high_probability(a) - 2.0 / 3.0).abs() < 1e-12);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct WorkloadStats {
    patterns: u64,
    net_high_weight: Vec<f64>,
}

impl WorkloadStats {
    /// Creates an empty accumulator sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        WorkloadStats {
            patterns: 0,
            net_high_weight: vec![0.0; netlist.net_count()],
        }
    }

    /// Functionally evaluates each pattern and accumulates settled net
    /// values into the high-probability estimate.
    ///
    /// Internally the patterns run through [`BatchSim`](crate::BatchSim) in chunks of up to
    /// 64: one bit-parallel sweep per chunk instead of one scalar sweep per
    /// pattern, with per-net weights recovered by popcount. The accumulated
    /// weights are *identical* to the scalar path — `high_weight` values
    /// are multiples of 0.5, which f64 sums exactly.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if any pattern width differs
    /// from the netlist's input count.
    pub fn observe_patterns<I, P>(
        &mut self,
        netlist: &Netlist,
        topology: &Topology,
        patterns: I,
    ) -> Result<(), NetlistError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[Logic]>,
    {
        self.observe_patterns_wide::<1, I, P>(netlist, topology, patterns)
    }

    /// [`observe_patterns`](Self::observe_patterns) on a `64 × W`-lane
    /// [`BlockSim`]: fewer, wider sweeps with the same accumulated weights.
    ///
    /// The sums are bit-identical at every lane width — per-lane weights
    /// are exact multiples of 0.5 and the per-net popcounts are summed in
    /// lane order — so lane width is purely a throughput knob.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if any pattern width differs
    /// from the netlist's input count.
    pub fn observe_patterns_wide<const W: usize, I, P>(
        &mut self,
        netlist: &Netlist,
        topology: &Topology,
        patterns: I,
    ) -> Result<(), NetlistError>
    where
        I: IntoIterator<Item = P>,
        P: AsRef<[Logic]>,
    {
        let mut sim = BlockSim::<W>::new(netlist, topology);
        let mut chunk: Vec<P> = Vec::with_capacity(BlockSim::<W>::LANES);
        for p in patterns {
            chunk.push(p);
            if chunk.len() == BlockSim::<W>::LANES {
                self.observe_chunk(&mut sim, &chunk)?;
                chunk.clear();
            }
        }
        if !chunk.is_empty() {
            self.observe_chunk(&mut sim, &chunk)?;
        }
        Ok(())
    }

    fn observe_chunk<const W: usize, P: AsRef<[Logic]>>(
        &mut self,
        sim: &mut BlockSim<'_, W>,
        chunk: &[P],
    ) -> Result<(), NetlistError> {
        let lanes = sim.eval_batch(chunk)?;
        self.patterns += lanes as u64;
        for (w, block) in self.net_high_weight.iter_mut().zip(sim.blocks()) {
            *w += block.high_weight_sum(lanes);
        }
        Ok(())
    }

    /// Folds another accumulator over the same netlist into this one —
    /// the reduction step when pattern chunks are observed separately.
    /// Addition order is fixed by the caller's fold order, and
    /// the weights are multiples of 0.5, so merging chunk accumulators
    /// yields bit-identical sums to serial observation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `other` was sized for a
    /// netlist with a different net count.
    pub fn merge(&mut self, other: &WorkloadStats) -> Result<(), NetlistError> {
        if other.net_high_weight.len() != self.net_high_weight.len() {
            return Err(NetlistError::WidthMismatch {
                expected: self.net_high_weight.len(),
                got: other.net_high_weight.len(),
            });
        }
        self.patterns += other.patterns;
        for (w, &o) in self.net_high_weight.iter_mut().zip(&other.net_high_weight) {
            *w += o;
        }
        Ok(())
    }

    /// Number of patterns observed functionally.
    #[inline]
    pub fn pattern_count(&self) -> u64 {
        self.patterns
    }

    /// The probability that `net` settles high under the observed workload,
    /// or 0.5 if nothing was observed (maximum-uncertainty prior).
    pub fn net_high_probability(&self, net: NetId) -> f64 {
        if self.patterns == 0 {
            return 0.5;
        }
        self.net_high_weight[net.index()] / self.patterns as f64
    }
}

/// Per-gate switching activity accumulated over a workload: output toggles
/// (glitches included) counted by a timing simulator, and the number of
/// applied patterns they cover.
///
/// The **power model** (dynamic energy) and the electromigration model
/// read it; the aging model does not, so flows that only need
/// [`WorkloadStats`] never run a timed simulation.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind, Logic};
/// use agemul_netlist::{DelayAssignment, EventSim, GateId, Netlist, SwitchingActivity};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let y = n.add_gate(GateKind::Not, &[a])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut sim = EventSim::new(&n, &topo, DelayAssignment::uniform(&n, &DelayModel::nominal()));
/// sim.settle(&[Logic::Zero])?;
/// sim.step(&[Logic::One])?;
/// sim.step(&[Logic::One])?;
///
/// let mut activity = SwitchingActivity::new(&n);
/// activity.record_toggles(sim.gate_toggle_counts(), 2)?;
/// assert_eq!(activity.total_toggles(), 1);
/// assert!((activity.gate_activity(GateId::from_index(0)) - 0.5).abs() < 1e-12);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug)]
pub struct SwitchingActivity {
    gate_toggles: Vec<u64>,
    patterns: u64,
}

impl SwitchingActivity {
    /// Creates an empty accumulator sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        SwitchingActivity {
            gate_toggles: vec![0; netlist.gate_count()],
            patterns: 0,
        }
    }

    /// Adds per-gate toggle counters from an [`EventSim`] or [`LevelSim`]
    /// run covering `patterns` applied input vectors.
    ///
    /// [`EventSim`]: crate::EventSim
    /// [`LevelSim`]: crate::LevelSim
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `toggles` does not cover
    /// exactly the gate population this accumulator was sized for.
    pub fn record_toggles(&mut self, toggles: &[u64], patterns: u64) -> Result<(), NetlistError> {
        if toggles.len() != self.gate_toggles.len() {
            return Err(NetlistError::WidthMismatch {
                expected: self.gate_toggles.len(),
                got: toggles.len(),
            });
        }
        for (acc, &t) in self.gate_toggles.iter_mut().zip(toggles) {
            *acc += t;
        }
        self.patterns += patterns;
        Ok(())
    }

    /// Average output toggles per applied pattern for `gate` (glitches
    /// included), or 0 if nothing was recorded.
    pub fn gate_activity(&self, gate: GateId) -> f64 {
        if self.patterns == 0 {
            return 0.0;
        }
        self.gate_toggles[gate.index()] as f64 / self.patterns as f64
    }

    /// Total recorded toggles across all gates.
    pub fn total_toggles(&self) -> u64 {
        self.gate_toggles.iter().sum()
    }

    /// Number of applied patterns the recorded toggles cover.
    #[inline]
    pub fn pattern_count(&self) -> u64 {
        self.patterns
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::{DelayModel, GateKind};

    use crate::{DelayAssignment, EventSim};

    use super::*;

    fn not_netlist() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let y = n.add_gate(GateKind::Not, &[a]).unwrap();
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn probabilities_track_patterns() {
        let n = not_netlist();
        let t = n.topology().unwrap();
        let mut stats = WorkloadStats::new(&n);
        stats
            .observe_patterns(
                &n,
                &t,
                [[Logic::One], [Logic::One], [Logic::One], [Logic::Zero]],
            )
            .unwrap();
        let a = n.inputs()[0];
        let y = n.outputs()[0];
        assert_eq!(stats.pattern_count(), 4);
        assert!((stats.net_high_probability(a) - 0.75).abs() < 1e-12);
        assert!((stats.net_high_probability(y) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn empty_stats_use_uniform_prior() {
        let n = not_netlist();
        let stats = WorkloadStats::new(&n);
        assert_eq!(stats.net_high_probability(n.inputs()[0]), 0.5);
        let activity = SwitchingActivity::new(&n);
        assert_eq!(activity.gate_activity(GateId::from_index(0)), 0.0);
    }

    #[test]
    fn toggle_merge_from_event_sim() {
        let n = not_netlist();
        let t = n.topology().unwrap();
        let mut sim = EventSim::new(&n, &t, DelayAssignment::uniform(&n, &DelayModel::nominal()));
        sim.settle(&[Logic::Zero]).unwrap();
        sim.step(&[Logic::One]).unwrap();
        sim.step(&[Logic::Zero]).unwrap();

        let mut activity = SwitchingActivity::new(&n);
        activity
            .record_toggles(sim.gate_toggle_counts(), 2)
            .unwrap();
        assert_eq!(activity.total_toggles(), 2);
        assert_eq!(activity.pattern_count(), 2);
        assert!((activity.gate_activity(GateId::from_index(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn toggle_width_checked() {
        let n = not_netlist();
        let mut activity = SwitchingActivity::new(&n);
        assert_eq!(
            activity.record_toggles(&[1, 2], 1).unwrap_err(),
            NetlistError::WidthMismatch {
                expected: 1,
                got: 2,
            }
        );
    }

    #[test]
    fn batched_observation_crosses_chunk_boundaries() {
        // 150 patterns = 2 full 64-lane batches + a 22-lane remainder.
        let n = not_netlist();
        let t = n.topology().unwrap();
        let patterns: Vec<[Logic; 1]> = (0..150).map(|i| [Logic::from(i % 3 == 0)]).collect();

        let mut stats = WorkloadStats::new(&n);
        stats.observe_patterns(&n, &t, patterns.iter()).unwrap();
        assert_eq!(stats.pattern_count(), 150);

        let highs = patterns.iter().filter(|p| p[0] == Logic::One).count();
        let a = n.inputs()[0];
        assert!((stats.net_high_probability(a) - highs as f64 / 150.0).abs() < 1e-15);
    }

    #[test]
    fn merge_equals_serial_observation() {
        let n = not_netlist();
        let t = n.topology().unwrap();
        let patterns: Vec<[Logic; 1]> = (0..100)
            .map(|i| {
                [if i % 7 == 0 {
                    Logic::X
                } else {
                    Logic::from(i % 2 == 0)
                }]
            })
            .collect();

        let mut serial = WorkloadStats::new(&n);
        serial.observe_patterns(&n, &t, patterns.iter()).unwrap();

        let mut merged = WorkloadStats::new(&n);
        for chunk in patterns.chunks(33) {
            let mut part = WorkloadStats::new(&n);
            part.observe_patterns(&n, &t, chunk.iter()).unwrap();
            merged.merge(&part).unwrap();
        }

        assert_eq!(merged.pattern_count(), serial.pattern_count());
        for idx in 0..n.net_count() {
            let net = NetId::from_index(idx);
            // Bit-identical, not approximately equal.
            assert_eq!(
                merged.net_high_probability(net).to_bits(),
                serial.net_high_probability(net).to_bits()
            );
        }
    }

    #[test]
    fn wide_observation_is_bit_identical_to_64_lane() {
        // 300 patterns: less than one full 256-lane block, more than four
        // 64-lane chunks' worth of boundary cases at W = 4, plus a partial
        // final block at W = 8.
        let n = not_netlist();
        let t = n.topology().unwrap();
        let patterns: Vec<[Logic; 1]> = (0..300)
            .map(|i| {
                [match i % 5 {
                    0 => Logic::X,
                    1 | 2 => Logic::One,
                    _ => Logic::Zero,
                }]
            })
            .collect();

        let mut narrow = WorkloadStats::new(&n);
        narrow.observe_patterns(&n, &t, patterns.iter()).unwrap();

        let mut wide4 = WorkloadStats::new(&n);
        wide4
            .observe_patterns_wide::<4, _, _>(&n, &t, patterns.iter())
            .unwrap();
        let mut wide8 = WorkloadStats::new(&n);
        wide8
            .observe_patterns_wide::<8, _, _>(&n, &t, patterns.iter())
            .unwrap();

        for wide in [&wide4, &wide8] {
            assert_eq!(wide.pattern_count(), narrow.pattern_count());
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                assert_eq!(
                    wide.net_high_probability(net).to_bits(),
                    narrow.net_high_probability(net).to_bits()
                );
            }
        }
    }

    #[test]
    fn merge_rejects_mismatched_netlists() {
        let n = not_netlist();
        let mut other = Netlist::new();
        other.add_input("a");
        let mut stats = WorkloadStats::new(&n);
        let foreign = WorkloadStats::new(&other);
        assert!(stats.merge(&foreign).is_err());
    }

    #[test]
    fn merge_reports_the_mismatched_dimension() {
        // Probabilities are per net, so the net count is the one dimension
        // a merge checks, and the error names it.
        let mut a = Netlist::new();
        let a0 = a.add_input("a0");
        let a1 = a.add_input("a1");
        a.add_gate(GateKind::And, &[a0, a1]).unwrap();

        let mut c = Netlist::new();
        c.add_input("c0");
        assert_ne!(a.net_count(), c.net_count());

        let mut stats = WorkloadStats::new(&a);
        let foreign_nets = WorkloadStats::new(&c);
        assert_eq!(
            stats.merge(&foreign_nets).unwrap_err(),
            NetlistError::WidthMismatch {
                expected: a.net_count(),
                got: c.net_count(),
            }
        );
    }

    #[test]
    fn unknown_values_count_half() {
        // A disabled tri-state's Z output accumulates weight 0.5.
        let mut n = Netlist::new();
        let d = n.add_input("d");
        let en = n.add_input("en");
        let g = n.add_gate(GateKind::Tbuf, &[d, en]).unwrap();
        n.mark_output(g, "g");
        let t = n.topology().unwrap();
        let mut stats = WorkloadStats::new(&n);
        stats
            .observe_patterns(&n, &t, [[Logic::One, Logic::Zero]])
            .unwrap();
        assert!((stats.net_high_probability(g) - 0.5).abs() < 1e-12);
    }
}
