//! Event-driven two-vector timing simulator.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use agemul_logic::{DelayModel, GateKind, Logic};

use crate::{GateId, NetId, Netlist, NetlistError, Topology};

/// Femtoseconds per nanosecond; event times are integer femtoseconds so the
/// priority queue ordering is exact and deterministic. Shared with
/// [`LevelSim`](crate::LevelSim), whose femtosecond-exactness contract
/// depends on both kernels quantizing time identically.
pub(crate) const FS_PER_NS: f64 = 1.0e6;

/// Per-gate-instance propagation delays, in integer femtoseconds.
///
/// A `DelayAssignment` is the bridge between the per-*kind* [`DelayModel`]
/// and the per-*instance* degradation factors produced by the aging engine:
/// `delay(gate) = model.delay_ns(kind(gate)) × factor(gate)`.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind};
/// use agemul_netlist::{DelayAssignment, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let y = n.add_gate(GateKind::Not, &[a])?;
/// n.mark_output(y, "y");
///
/// let fresh = DelayAssignment::uniform(&n, &DelayModel::nominal());
/// let aged = DelayAssignment::with_factors(&n, &DelayModel::nominal(), &[1.10])?;
/// assert!(aged.delay_ns(agemul_netlist::GateId::from_index(0))
///     > fresh.delay_ns(agemul_netlist::GateId::from_index(0)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DelayAssignment {
    per_gate_fs: Vec<u64>,
}

impl GateId {
    /// Builds a gate id from a dense index.
    ///
    /// Intended for gluing external per-gate tables (delay factors, stress
    /// probabilities) back onto a netlist; the id is only meaningful for the
    /// netlist whose gate count bounds it.
    #[inline]
    pub fn from_index(index: usize) -> GateId {
        GateId(index as u32)
    }
}

impl NetId {
    /// Builds a net id from a dense index (see [`GateId::from_index`]).
    #[inline]
    pub fn from_index(index: usize) -> NetId {
        NetId(index as u32)
    }
}

impl DelayAssignment {
    /// Every gate instance gets its kind's nominal delay from `model`.
    pub fn uniform(netlist: &Netlist, model: &DelayModel) -> Self {
        let per_gate_fs = netlist
            .gates()
            .iter()
            .map(|g| (model.delay_ns(g.kind()) * FS_PER_NS).round() as u64)
            .collect();
        DelayAssignment { per_gate_fs }
    }

    /// Per-instance delays: `model` delay of the gate's kind multiplied by
    /// `factors[gate.index()]` (the aging degradation, ≥ 1 in practice).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] if `factors.len()` differs
    /// from the gate count, and [`NetlistError::BadDelayFactor`] for the
    /// first factor that is not finite and positive, or whose scaled delay
    /// rounds to 0 fs or leaves too little timestamp headroom for a path
    /// through every gate (the timing kernels' delay contract).
    pub fn with_factors(
        netlist: &Netlist,
        model: &DelayModel,
        factors: &[f64],
    ) -> Result<Self, NetlistError> {
        if factors.len() != netlist.gate_count() {
            return Err(NetlistError::WidthMismatch {
                expected: netlist.gate_count(),
                got: factors.len(),
            });
        }
        // No path is deeper than the gate count, so this cap keeps every
        // path's delay sum inside the kernels' 62-bit timestamps.
        let max_fs = ((1u64 << 62) / (netlist.gate_count() as u64 + 1)) as f64;
        netlist
            .gates()
            .iter()
            .zip(factors)
            .enumerate()
            .map(|(i, (g, &f))| {
                let fs = (model.delay_ns(g.kind()) * f * FS_PER_NS).round();
                if f.is_finite() && f > 0.0 && fs >= 1.0 && fs < max_fs {
                    Ok(fs as u64)
                } else {
                    Err(NetlistError::BadDelayFactor {
                        gate: GateId::from_index(i),
                        factor: f.to_string(),
                    })
                }
            })
            .collect::<Result<_, _>>()
            .map(|per_gate_fs| DelayAssignment { per_gate_fs })
    }

    /// Multiplies one gate's delay by `factor` — a localized BTI hot spot
    /// for the fault campaigns, as opposed to the whole-netlist factors of
    /// [`with_factors`](Self::with_factors).
    ///
    /// # Panics
    ///
    /// Panics if `gate` is out of range or `factor` is not finite and
    /// positive.
    pub fn inflate(&mut self, gate: GateId, factor: f64) {
        assert!(
            factor.is_finite() && factor > 0.0,
            "delay factor must be finite and positive, got {factor}"
        );
        let fs = &mut self.per_gate_fs[gate.index()];
        *fs = (*fs as f64 * factor).round() as u64;
    }

    /// The delay of `gate` in femtoseconds.
    #[inline]
    pub fn delay_fs(&self, gate: GateId) -> u64 {
        self.per_gate_fs[gate.index()]
    }

    /// The delay of `gate` in nanoseconds.
    #[inline]
    pub fn delay_ns(&self, gate: GateId) -> f64 {
        self.per_gate_fs[gate.index()] as f64 / FS_PER_NS
    }

    /// A stable 64-bit fingerprint of the whole assignment (FNV-1a over the
    /// per-gate femtosecond delays).
    ///
    /// Two assignments with the same fingerprint produce — up to hash
    /// collision — identical timing for every workload, so the fingerprint
    /// serves as the *delay epoch* in memoization keys: aging steps,
    /// calibration rescales, and per-gate [`inflate`](Self::inflate)
    /// hot spots all change it, while replaying the same assignment reuses
    /// cached profiles (see `agemul::ProfileCache`).
    pub fn fingerprint(&self) -> u64 {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in (self.per_gate_fs.len() as u64).to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        for &d in &self.per_gate_fs {
            for b in d.to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
            }
        }
        h
    }

    /// Number of gates covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.per_gate_fs.len()
    }

    /// Whether the assignment covers zero gates.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.per_gate_fs.is_empty()
    }
}

/// The timing outcome of applying one input pattern on top of the previous
/// circuit state.
///
/// `delay_ns` is the *sensitized path delay* of the transition: the time of
/// the last primary-output change. Patterns that change no output have zero
/// delay — they are "free" under the variable-latency scheme.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PatternTiming {
    /// Time of the last primary-output value change, in nanoseconds.
    pub delay_ns: f64,
    /// Number of primary-output value changes.
    pub output_toggles: u64,
    /// Number of gate-output value changes (includes glitches).
    pub gate_toggles: u64,
    /// Total events processed (diagnostic; ≥ `gate_toggles`).
    pub events: u64,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    time_fs: u64,
    seq: u64,
    net: u32,
    value_tag: u8,
    /// Retraction generation: an event whose generation no longer matches
    /// its net's current generation was cancelled by a later evaluation
    /// (inertial-delay pulse filtering).
    generation: u32,
}

fn tag(v: Logic) -> u8 {
    match v {
        Logic::Zero => 0,
        Logic::One => 1,
        Logic::Z => 2,
        Logic::X => 3,
    }
}

fn untag(t: u8) -> Logic {
    match t {
        0 => Logic::Zero,
        1 => Logic::One,
        2 => Logic::Z,
        _ => Logic::X,
    }
}

/// Event-driven timing simulator with transport delays and tri-state hold.
///
/// `EventSim` models what the paper measures with Nanosim: apply an input
/// vector on top of the circuit's previous state and watch how long the
/// outputs keep moving. Two behaviours matter for the bypassing
/// multipliers:
///
/// * **Input-dependent delay** — only sensitized paths propagate events, so
///   a multiplicand full of zeros finishes much earlier than the critical
///   path, which is precisely the effect Figs. 5/6 of the paper plot.
/// * **Tri-state hold** — a disabled `TBUF` does not propagate input
///   transitions at all (its output *holds*). Skipped full adders therefore
///   neither burn switching power nor contribute timing events, matching
///   the low-power intent of the bypassing designs.
///
/// Cumulative per-gate toggle counters feed the dynamic power model; see
/// [`gate_toggle_counts`](EventSim::gate_toggle_counts).
///
/// # Example
///
/// See the crate-level docs for a full-adder timing walk-through.
#[derive(Debug)]
pub struct EventSim<'a> {
    netlist: &'a Netlist,
    topology: &'a Topology,
    delays: DelayAssignment,
    values: Vec<Logic>,
    /// Inertial-delay bookkeeping: at most one pending transition per net.
    pending: Vec<Option<(u64, Logic)>>,
    generation: Vec<u32>,
    queue: BinaryHeap<Reverse<Event>>,
    seq: u64,
    toggles_per_gate: Vec<u64>,
    scratch: Vec<Logic>,
    /// Delta-cycle dedup: gates already queued for the current timestamp.
    gate_mark: Vec<u64>,
    epoch: u64,
    affected: Vec<GateId>,
    /// Waveform tracing (None = off): accumulated events and the time base
    /// offset applied to the next step's events.
    trace: Option<TraceState>,
    /// Fault overlay (None = fault-free): every settled net value is passed
    /// through its scalar (lane-0) coercion.
    overlay: Option<crate::FaultOverlay>,
    /// Cooperative cancellation (None = never cancelled): polled every
    /// [`CANCEL_POLL_INTERVAL`] processed timestamps during a step.
    cancel: Option<crate::CancelToken>,
}

/// Timestamps processed between cancellation polls. Polling reads a clock
/// (`Instant::now`), so it is kept off the per-event fast path; at typical
/// event densities this bounds the overrun past a deadline to well under a
/// millisecond.
const CANCEL_POLL_INTERVAL: u32 = 512;

#[derive(Debug)]
struct TraceState {
    events: Vec<TraceEvent>,
    base_fs: u64,
    gap_fs: u64,
}

/// One recorded value change, for waveform export (see
/// [`crate::write_vcd`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Absolute trace time in femtoseconds (step times are concatenated,
    /// separated by the configured inter-pattern gap).
    pub time_fs: u64,
    /// The net that changed.
    pub net: NetId,
    /// Its new value.
    pub value: agemul_logic::Logic,
}

impl<'a> EventSim<'a> {
    /// Creates a simulator with the given per-instance delays.
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the netlist's gates.
    pub fn new(netlist: &'a Netlist, topology: &'a Topology, delays: DelayAssignment) -> Self {
        assert_eq!(
            delays.len(),
            netlist.gate_count(),
            "delay assignment covers {} gates, netlist has {}",
            delays.len(),
            netlist.gate_count()
        );
        let mut values = vec![Logic::X; netlist.net_count()];
        for (idx, info) in netlist.nets.iter().enumerate() {
            if let crate::netlist::Driver::Const(v) = info.driver {
                values[idx] = v;
            }
        }
        // Settle the all-unknown state with one functional sweep so that
        // nets fed only by constants (which never receive events) start at
        // their resolved values rather than sticking at X forever.
        let mut scratch_init = Vec::with_capacity(8);
        for gate in netlist.gates() {
            scratch_init.clear();
            scratch_init.extend(gate.inputs().iter().map(|i| values[i.index()]));
            values[gate.output().index()] = gate.kind().eval(&scratch_init);
        }
        EventSim {
            netlist,
            topology,
            delays,
            values,
            pending: vec![None; netlist.net_count()],
            generation: vec![0; netlist.net_count()],
            queue: BinaryHeap::new(),
            seq: 0,
            toggles_per_gate: vec![0; netlist.gate_count()],
            scratch: Vec::with_capacity(8),
            gate_mark: vec![0; netlist.gate_count()],
            epoch: 0,
            affected: Vec::new(),
            trace: None,
            overlay: None,
            cancel: None,
        }
    }

    /// Installs a [`CancelToken`](crate::CancelToken): subsequent
    /// [`step`](Self::step)/[`settle`](Self::settle) calls poll it
    /// periodically and abort with [`NetlistError::Cancelled`] once it
    /// fires. Pass `None` to detach. After a cancelled step the settled
    /// values are unspecified; [`settle`](Self::settle) (with a fresh or
    /// cleared token) before measuring again.
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        self.cancel = token;
    }

    /// Attaches a [`FaultOverlay`](crate::FaultOverlay): from now on every
    /// net value — constant, primary input, or gate output — is passed
    /// through the overlay's scalar (lane-0) coercion before it settles. A
    /// stuck net therefore never toggles (producing no downstream events),
    /// and a flipped net propagates its inverted level with the driver's
    /// normal delay.
    ///
    /// The simulator state is re-initialized as if freshly constructed;
    /// call [`settle`](Self::settle) before measuring transitions.
    pub fn set_fault_overlay(&mut self, overlay: crate::FaultOverlay) {
        self.overlay = Some(overlay);
        self.reinit_values();
    }

    /// Removes the fault overlay and re-initializes the simulator state.
    pub fn clear_fault_overlay(&mut self) {
        self.overlay = None;
        self.reinit_values();
    }

    /// Re-derives the initial settled values (constants + one functional
    /// sweep, both through the overlay's coercion if one is attached).
    fn reinit_values(&mut self) {
        self.values.fill(Logic::X);
        for (idx, info) in self.netlist.nets.iter().enumerate() {
            if let crate::netlist::Driver::Const(v) = info.driver {
                self.values[idx] = v;
            }
        }
        if let Some(o) = &self.overlay {
            for (idx, v) in self.values.iter_mut().enumerate() {
                *v = o.apply_scalar(idx, *v);
            }
        }
        let netlist = self.netlist;
        let mut scratch = std::mem::take(&mut self.scratch);
        for gate in netlist.gates() {
            scratch.clear();
            scratch.extend(gate.inputs().iter().map(|i| self.values[i.index()]));
            let out = gate.output().index();
            let v = gate.kind().eval(&scratch);
            self.values[out] = match &self.overlay {
                Some(o) => o.apply_scalar(out, v),
                None => v,
            };
        }
        self.scratch = scratch;
        self.pending.fill(None);
        self.queue.clear();
    }

    /// Applies the overlay's scalar coercion to a candidate value of `net`.
    #[inline]
    fn coerce(&self, net: NetId, v: Logic) -> Logic {
        match &self.overlay {
            Some(o) => o.apply_scalar(net.index(), v),
            None => v,
        }
    }

    /// Turns on waveform tracing: every applied value change is recorded
    /// with an absolute timestamp. Consecutive [`step`](Self::step)s are
    /// laid out back to back, separated by `inter_pattern_gap_fs` (use the
    /// clock period for realistic waveforms). Export with
    /// [`crate::write_vcd`].
    pub fn enable_tracing(&mut self, inter_pattern_gap_fs: u64) {
        self.trace = Some(TraceState {
            events: Vec::new(),
            base_fs: 0,
            gap_fs: inter_pattern_gap_fs,
        });
    }

    /// The recorded trace, empty unless tracing is enabled.
    pub fn trace(&self) -> &[TraceEvent] {
        self.trace.as_ref().map_or(&[], |t| t.events.as_slice())
    }

    /// Clears recorded trace events (tracing stays enabled).
    pub fn clear_trace(&mut self) {
        if let Some(t) = self.trace.as_mut() {
            t.events.clear();
        }
    }

    /// Applies `inputs` and runs to quiescence, discarding timing.
    ///
    /// Use this to establish the "previous vector" state before measuring a
    /// transition with [`step`](Self::step); it also clears the per-gate
    /// toggle counters so warm-up switching does not pollute power numbers.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count.
    pub fn settle(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step(inputs)?;
        self.reset_toggle_counts();
        Ok(())
    }

    /// Applies `inputs` on top of the current state, runs to quiescence, and
    /// reports the transition's timing.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count.
    pub fn step(&mut self, inputs: &[Logic]) -> Result<PatternTiming, NetlistError> {
        if inputs.len() != self.netlist.input_count() {
            return Err(NetlistError::WidthMismatch {
                expected: self.netlist.input_count(),
                got: inputs.len(),
            });
        }
        debug_assert!(self.queue.is_empty());

        let netlist = self.netlist;
        for (&net, &v) in netlist.inputs().iter().zip(inputs) {
            let v = self.coerce(net, v);
            self.schedule(0, net, v);
        }

        let mut timing = PatternTiming::default();
        let mut last_out_fs: u64 = 0;
        // `topology` is a shared reference field, so copying it out lets the
        // loop body coexist with `&mut self` calls.
        let topology = self.topology;

        // Delta-cycle processing: apply *all* value changes scheduled for a
        // timestamp before re-evaluating any fanout gate, so simultaneous
        // transitions (e.g. a tri-state's data and enable flipping on the
        // same input vector) are seen atomically.
        let mut poll_countdown = CANCEL_POLL_INTERVAL;
        while let Some(&Reverse(head)) = self.queue.peek() {
            if let Some(token) = &self.cancel {
                poll_countdown -= 1;
                if poll_countdown == 0 {
                    poll_countdown = CANCEL_POLL_INTERVAL;
                    if token.is_cancelled() {
                        // Leave the simulator structurally reusable (empty
                        // queue, no pending transitions); settled values are
                        // unspecified until the next `settle`.
                        self.queue.clear();
                        self.pending.fill(None);
                        return Err(NetlistError::Cancelled);
                    }
                }
            }
            let now_fs = head.time_fs;
            self.epoch += 1;
            self.affected.clear();
            while let Some(&Reverse(ev)) = self.queue.peek() {
                if ev.time_fs != now_fs {
                    break;
                }
                let Some(Reverse(ev)) = self.queue.pop() else {
                    break;
                };
                let net = NetId(ev.net);
                // Retracted by a later evaluation (inertial filtering).
                if ev.generation != self.generation[net.index()] {
                    continue;
                }
                self.pending[net.index()] = None;
                let value = untag(ev.value_tag);
                if self.values[net.index()] == value {
                    continue;
                }
                self.values[net.index()] = value;
                if let Some(t) = self.trace.as_mut() {
                    t.events.push(TraceEvent {
                        time_fs: t.base_fs + now_fs,
                        net,
                        value,
                    });
                }
                timing.events += 1;
                if let Some(g) = netlist.driver_gate(net) {
                    self.toggles_per_gate[g.index()] += 1;
                    timing.gate_toggles += 1;
                }
                if topology.is_output(net) {
                    timing.output_toggles += 1;
                    last_out_fs = last_out_fs.max(now_fs);
                }
                for &g in topology.fanout(net) {
                    if self.gate_mark[g.index()] != self.epoch {
                        self.gate_mark[g.index()] = self.epoch;
                        self.affected.push(g);
                    }
                }
            }
            let mut affected = std::mem::take(&mut self.affected);
            for &g in &affected {
                if let Some(new_out) = self.eval_gate(g) {
                    let out_net = netlist.gate(g).output();
                    let new_out = self.coerce(out_net, new_out);
                    let t = now_fs + self.delays.delay_fs(g);
                    self.schedule(t, out_net, new_out);
                }
            }
            affected.clear();
            self.affected = affected;
        }

        timing.delay_ns = last_out_fs as f64 / FS_PER_NS;
        if let Some(t) = self.trace.as_mut() {
            let span = t
                .events
                .last()
                .map(|e| e.time_fs.saturating_sub(t.base_fs))
                .unwrap_or(0);
            t.base_fs += span + t.gap_fs;
        }
        Ok(timing)
    }

    /// Evaluates gate `g` against current net values.
    ///
    /// Returns `None` when the gate is a tri-state buffer whose enable is
    /// low: the output *holds* its present value and no event is produced.
    fn eval_gate(&mut self, g: GateId) -> Option<Logic> {
        let gate = self.netlist.gate(g);
        if gate.kind() == GateKind::Tbuf {
            let enable = self.values[gate.inputs()[1].index()].read();
            return match enable.to_bool() {
                Some(true) => Some(self.values[gate.inputs()[0].index()].read()),
                Some(false) => None, // hold
                None => Some(Logic::X),
            };
        }
        self.scratch.clear();
        for &i in gate.inputs() {
            self.scratch.push(self.values[i.index()]);
        }
        Some(gate.kind().eval(&self.scratch))
    }

    /// Inertial-delay scheduling: each net has at most one pending
    /// transition. A fresh evaluation that disagrees with the pending one
    /// *retracts* it — input pulses shorter than the gate's propagation
    /// delay are filtered out, as in an analog (SPICE-level) gate — and a
    /// pulse that collapses back to the current value schedules nothing.
    fn schedule(&mut self, time_fs: u64, net: NetId, value: Logic) {
        let i = net.index();
        match self.pending[i] {
            Some((t, v)) => {
                if v == value {
                    // Same target, keep the earlier arrival.
                    if time_fs >= t {
                        return;
                    }
                    self.generation[i] = self.generation[i].wrapping_add(1);
                }
                // Different target: retract the pending transition.
                else {
                    self.generation[i] = self.generation[i].wrapping_add(1);
                    if value == self.values[i] {
                        // The pulse never develops at the output.
                        self.pending[i] = None;
                        return;
                    }
                }
            }
            None => {
                if value == self.values[i] {
                    return;
                }
            }
        }
        self.pending[i] = Some((time_fs, value));
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time_fs,
            seq: self.seq,
            net: net.0,
            value_tag: tag(value),
            generation: self.generation[i],
        }));
    }

    /// The current settled value of `net`.
    #[inline]
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Settled primary output values in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.netlist
            .outputs()
            .iter()
            .map(|&o| self.values[o.index()])
            .collect()
    }

    /// Cumulative output-toggle count per gate since the last reset,
    /// indexable by [`GateId::index`]. Glitches are included — this is
    /// genuine switching activity, the input to dynamic power.
    #[inline]
    pub fn gate_toggle_counts(&self) -> &[u64] {
        &self.toggles_per_gate
    }

    /// Clears the cumulative per-gate toggle counters.
    pub fn reset_toggle_counts(&mut self) {
        self.toggles_per_gate.iter_mut().for_each(|c| *c = 0);
    }
}

#[cfg(test)]
mod tests {
    use agemul_logic::DelayModel;

    use super::*;

    /// a ─NOT─ x ─NOT─ y   (chain of two inverters)
    fn inverter_chain() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[x]).unwrap();
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn chain_delay_is_sum_of_gate_delays() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let d = DelayAssignment::uniform(&n, &model);
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    #[test]
    fn unchanged_input_produces_no_events() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::One]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0);
        assert_eq!(timing.delay_ns, 0.0);
    }

    #[test]
    fn non_sensitized_path_is_fast() {
        // y = a AND b. With b=0, changes on a never reach the output.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let y = n.add_gate(GateKind::And, &[a, b]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One, Logic::Zero]).unwrap();
        assert_eq!(timing.output_toggles, 0);
        assert_eq!(timing.delay_ns, 0.0);
    }

    #[test]
    fn disabled_tbuf_blocks_propagation() {
        let mut n = Netlist::new();
        let dta = n.add_input("d");
        let en = n.add_input("en");
        let g = n.add_gate(GateKind::Tbuf, &[dta, en]).unwrap();
        n.mark_output(g, "g");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);

        // Enable, drive 0 through.
        sim.settle(&[Logic::Zero, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero);

        // Disable; flip data: output must hold, zero events downstream.
        let timing = sim.step(&[Logic::One, Logic::Zero]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero, "tri-state must hold");
        assert_eq!(timing.output_toggles, 0);

        // Re-enable: the held node updates to the new data.
        sim.step(&[Logic::One, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::One);
    }

    #[test]
    fn short_hazard_pulses_are_inertially_filtered() {
        // y = a XOR a' (via one inverter): a rising edge makes a static-1
        // hazard whose width (one inverter delay, 8 ps) is shorter than the
        // XOR's 24 ps propagation delay — an analog gate never develops the
        // pulse, and neither does the inertial simulator.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, inv]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        // Only the inverter toggles; the XOR output stays clean.
        assert_eq!(timing.output_toggles, 0, "{timing:?}");
        assert_eq!(timing.delay_ns, 0.0, "{timing:?}");
    }

    #[test]
    fn wide_hazard_pulses_propagate() {
        // Same hazard but through five inverters: the skew (40 ps) now
        // exceeds the XOR delay (24 ps), so the pulse is real and the
        // output glitches 1→0→1.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut x = a;
        for _ in 0..5 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        let y = n.add_gate(GateKind::Xor, &[a, x]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(timing.output_toggles, 2, "{timing:?}");
        assert!(timing.delay_ns > 0.0);
    }

    #[test]
    fn aged_factors_lengthen_delay() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let fresh = DelayAssignment::uniform(&n, &model);
        let aged = DelayAssignment::with_factors(&n, &model, &[1.2, 1.2]).unwrap();
        let mut s1 = EventSim::new(&n, &t, fresh);
        let mut s2 = EventSim::new(&n, &t, aged);
        s1.settle(&[Logic::Zero]).unwrap();
        s2.settle(&[Logic::Zero]).unwrap();
        let t1 = s1.step(&[Logic::One]).unwrap().delay_ns;
        let t2 = s2.step(&[Logic::One]).unwrap().delay_ns;
        assert!((t2 / t1 - 1.2).abs() < 1e-6, "{t1} vs {t2}");
    }

    #[test]
    fn factor_width_checked() {
        let n = inverter_chain();
        let err = DelayAssignment::with_factors(&n, &DelayModel::nominal(), &[1.0]).unwrap_err();
        assert!(matches!(err, NetlistError::WidthMismatch { .. }));
    }

    #[test]
    fn unusable_factors_are_typed_errors() {
        let n = inverter_chain();
        let model = DelayModel::nominal();
        for bad in [
            0.0,
            -1.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e-30,
            1e300,
        ] {
            let err = DelayAssignment::with_factors(&n, &model, &[1.0, bad]).unwrap_err();
            assert_eq!(
                err,
                NetlistError::BadDelayFactor {
                    gate: GateId::from_index(1),
                    factor: bad.to_string(),
                },
                "factor {bad}"
            );
        }
    }

    #[test]
    fn toggle_counters_accumulate_and_reset() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        sim.step(&[Logic::One]).unwrap();
        sim.step(&[Logic::Zero]).unwrap();
        assert_eq!(sim.gate_toggle_counts(), &[2, 2]);
        sim.reset_toggle_counts();
        assert_eq!(sim.gate_toggle_counts(), &[0, 0]);
    }

    #[test]
    fn inflate_lengthens_exactly_one_gate() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let mut d = DelayAssignment::uniform(&n, &model);
        let g0 = GateId::from_index(0);
        let g1 = GateId::from_index(1);
        let base = d.delay_ns(g0);
        d.inflate(g0, 2.5);
        assert!((d.delay_ns(g0) - 2.5 * base).abs() < 1e-9);
        assert!(
            (d.delay_ns(g1) - base).abs() < 1e-9,
            "other gates untouched"
        );

        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!((timing.delay_ns - 3.5 * base).abs() < 1e-9, "{timing:?}");
    }

    #[test]
    fn stuck_net_produces_no_events() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        let a = n.inputs()[0];
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::StuckAt0, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);

        // Input toggles are swallowed by the stuck net: zero events, zero
        // delay — the timing signature of a pinned node.
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0, "{timing:?}");
        assert_eq!(sim.value(y), Logic::Zero);

        // Clearing the overlay restores normal propagation.
        sim.clear_fault_overlay();
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!(timing.events > 0);
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn flip_overlay_inverts_with_normal_delay() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let model = DelayModel::nominal();
        let d = DelayAssignment::uniform(&n, &model);
        let mut sim = EventSim::new(&n, &t, d);
        let x = n.gates()[0].output(); // first inverter's output
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(x, FaultKind::Flip, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        // x flipped: NOT(0)=1 reads as 0, so y = NOT(0) = 1... inverted
        // chain output becomes the complement of the fault-free value.
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
    }

    #[test]
    fn cancelled_token_aborts_step_and_sim_recovers() {
        use crate::CancelToken;
        // A chain long enough to cross the poll interval (one timestamp per
        // inverter), so the pre-fired token is observed mid-step.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let mut x = a;
        for _ in 0..2_000 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        n.mark_output(x, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();

        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        let err = sim.step(&[Logic::One]).unwrap_err();
        assert_eq!(err, NetlistError::Cancelled);

        // Detaching the token and re-settling restores normal behaviour.
        sim.set_cancel_token(None);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!(timing.delay_ns > 0.0);
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    #[test]
    fn mux_bypass_is_faster_than_logic_path() {
        // out = MUX(sel; in0 = a, in1 = slow(a)) where slow = 4 inverters.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let sel = n.add_input("sel");
        let mut x = a;
        for _ in 0..4 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        let y = n.add_gate(GateKind::Mux2, &[a, x, sel]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());

        let mut sim = EventSim::new(&n, &t, d.clone());
        sim.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        let fast = sim.step(&[Logic::One, Logic::Zero]).unwrap().delay_ns;

        let mut sim = EventSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero, Logic::One]).unwrap();
        let slow = sim.step(&[Logic::One, Logic::One]).unwrap().delay_ns;
        assert!(fast < slow, "bypass {fast} vs logic {slow}");
    }
}
