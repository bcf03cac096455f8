//! Levelized timed simulation kernel.
//!
//! [`LevelSim`] computes the same femtosecond-exact two-vector timing as
//! [`EventSim`](crate::EventSim) without a priority queue: the netlist is
//! compiled once into a [`TimedPlan`](crate::plan::TimedPlan) (flat gate
//! arrays + per-gate integer-femtosecond delays + topological levels), and
//! each pattern is simulated as one ascending sweep over the levels that
//! actually contain *dirty* gates.
//!
//! # Why level order is exact
//!
//! In a combinational DAG every gate's output waveform for a step is a pure
//! function of its input nets' complete waveforms. Every gate driving one of
//! gate `g`'s inputs sits at a strictly lower level, so by the time the
//! sweep reaches `g` each input waveform is final and `g`'s output waveform
//! can be produced in one sequential merge that replays `EventSim`'s exact
//! rules:
//!
//! * **delta-cycle atomicity** — all input events at a timestamp are applied
//!   before the gate re-evaluates, and a pending output transition due at or
//!   before that timestamp commits first;
//! * **inertial filtering** — at most one pending output transition; a
//!   re-evaluation that disagrees retracts it, and a pulse that collapses
//!   back to the committed value schedules nothing;
//! * **tri-state hold** — a disabled `TBUF` evaluates to "no event", leaving
//!   both the committed value and any pending transition untouched;
//! * **fault coercion** — every candidate output value passes through the
//!   attached [`FaultOverlay`](crate::FaultOverlay)'s scalar coercion before
//!   scheduling, exactly where `EventSim` applies it.
//!
//! One `EventSim` behaviour is load-bearing for the proof: with strictly
//! positive gate delays every timestamp runs exactly one delta cycle
//! (commits at `t` only produce events later than `t`), so a net's step
//! waveform has strictly increasing times and the per-gate merge order is
//! well defined. [`LevelSim::new`] therefore rejects zero-delay assignments,
//! which the delay models never produce (`EventSim` tolerates them but the
//! two kernels could then disagree on glitch counts).
//!
//! # Incremental cone re-simulation
//!
//! Between consecutive patterns only the fan-out cones of *changed* input
//! bits are touched: changed inputs seed per-level dirty queues
//! (deduplicated by a 1-bit-per-gate touched set, cleared at the start of
//! every step), gates outside every cone are never visited, and their
//! nets keep their settled values. On bypass multipliers, where a typical
//! workload pattern flips a fraction of the operand bits, this skips most
//! of the array per pattern — the second lever (besides removing heap
//! pops) behind the profiling speedup.
//!
//! Waveforms live in one flat arena reset per step; per-net epoch stamps
//! make "no events this step" a constant-time check instead of a clear.

use agemul_logic::{GateKind, Logic};

use crate::event_sim::FS_PER_NS;
use crate::plan::TimedPlan;
use crate::{DelayAssignment, NetId, Netlist, NetlistError, PatternTiming, Topology};

/// Levelized timing simulator: femtosecond-identical to
/// [`EventSim`](crate::EventSim), built for profiling throughput.
///
/// The public surface mirrors `EventSim` (`settle` / `step` /
/// [`PatternTiming`] / toggle counters / fault overlays) so the profiling
/// call sites can switch kernels without changing semantics; waveform
/// tracing stays `EventSim`-only. See the module docs for the exactness
/// argument.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind, Logic};
/// use agemul_netlist::{DelayAssignment, EventSim, LevelSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let x = n.add_gate(GateKind::Not, &[a])?;
/// let y = n.add_gate(GateKind::Not, &[x])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
/// let delays = DelayAssignment::uniform(&n, &DelayModel::nominal());
///
/// let mut level = LevelSim::new(&n, &topo, delays.clone());
/// let mut event = EventSim::new(&n, &topo, delays);
/// level.settle(&[Logic::Zero])?;
/// event.settle(&[Logic::Zero])?;
/// assert_eq!(level.step(&[Logic::One])?, event.step(&[Logic::One])?);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct LevelSim<'a> {
    netlist: &'a Netlist,
    topology: &'a Topology,
    plan: TimedPlan,
    /// Settled value of every net (previous-vector state between steps).
    values: Vec<Logic>,
    /// The re-initialized settled state (constants + one functional sweep,
    /// through the overlay if attached), captured by [`reinit_values`]
    /// (Self::reinit_values). [`retime`](Self::retime) restores it with one
    /// memcpy instead of re-running the functional sweep, so a retimed
    /// kernel starts from byte-for-byte the state a freshly constructed
    /// one would — including tri-state hold history, which makes settled
    /// values history-dependent wherever a disabled `TBUF` sits.
    init_values: Vec<Logic>,
    /// Flat per-step waveform storage: `arena[m.start..][..m.len]` for net
    /// `n`'s [`WaveMeta`] `m`, valid iff `m.epoch == epoch`. Each event is
    /// packed as `time_fs << 2 | logic` ([`pack`]/[`unpack`]), halving the
    /// hot loop's memory traffic vs a `(u64, Logic)` pair.
    arena: Vec<u64>,
    /// Per-net arena bookkeeping, one 16-byte record per net so a waveform
    /// lookup touches a single cache line.
    waves: Vec<WaveMeta>,
    /// Nets that received events this step (commit list).
    dirty_nets: Vec<u32>,
    /// Gates queued this step, 1 bit per gate (bit `g % 64` of word
    /// `g / 64`): the dedup for `queues`, cleared at the start of every
    /// step.
    touched: Vec<u64>,
    /// Step counter validating `waves` entries.
    epoch: u64,
    /// Dirty gates per topological level, drained in ascending order.
    queues: Vec<Vec<u32>>,
    toggles_per_gate: Vec<u64>,
    /// Scratch taken out of `self` during a step (borrow split).
    out_scratch: Vec<u64>,
    overlay: Option<crate::FaultOverlay>,
    /// Per-kind truth tables over packed [`Logic`] discriminants (2 bits
    /// per input), tabulated once from [`GateKind::eval`] — the single
    /// source of combinational truth — so the merge loop evaluates a gate
    /// with one load instead of an arity fold.
    lut1: [[Logic; 4]; GateKind::ALL.len()],
    lut2: [[Logic; 16]; GateKind::ALL.len()],
    lut3: [[Logic; 64]; GateKind::ALL.len()],
    /// Cooperative cancellation (None = never cancelled): polled once per
    /// dirty level during a step.
    cancel: Option<crate::CancelToken>,
}

/// All four [`Logic`] levels, indexed by enum discriminant.
const LEVELS: [Logic; 4] = [Logic::Zero, Logic::One, Logic::Z, Logic::X];

/// Per-net waveform bookkeeping: net `n`'s committed events this step are
/// `arena[start..][..len]`, valid iff `epoch` matches the simulator's.
#[derive(Clone, Copy, Debug, Default)]
struct WaveMeta {
    epoch: u64,
    start: u32,
    len: u32,
}

/// Packs an event into one arena word: femtosecond time in the upper 62
/// bits, [`Logic`] discriminant in the lower 2.
#[inline(always)]
fn pack(t: u64, v: Logic) -> u64 {
    (t << 2) | v as u64
}

/// Inverse of [`pack`].
#[inline(always)]
fn unpack(e: u64) -> (u64, Logic) {
    (e >> 2, LEVELS[(e & 3) as usize])
}

/// Asserts the two delay invariants every `LevelSim` schedule must satisfy:
/// strictly positive per-gate delays (exactness; see the module docs) and
/// enough packed-timestamp headroom for the deepest path. Shared by
/// [`LevelSim::new`] and [`LevelSim::retime`] so a retimed kernel can never
/// hold delays a freshly built one would reject.
fn assert_delay_contract(max_level: u32, delays_fs: impl Iterator<Item = u64>) {
    let mut max_delay_fs = 0u64;
    for (g, fs) in delays_fs.enumerate() {
        assert!(
            fs > 0,
            "LevelSim requires strictly positive gate delays; gate {g} has 0 fs"
        );
        max_delay_fs = max_delay_fs.max(fs);
    }
    // Packed-event capacity: the latest possible event time in one step
    // is bounded by depth × max gate delay (every waveform time is some
    // path's delay sum). 62 bits of femtoseconds ≈ 77 simulated
    // minutes — unreachable for any physical delay model.
    assert!(
        (u64::from(max_level) + 1).saturating_mul(max_delay_fs) < (1 << 62),
        "gate delays too large for packed femtosecond timestamps"
    );
}

impl<'a> LevelSim<'a> {
    /// Compiles the netlist + `delays` into a levelized schedule and settles
    /// the initial (constants-only) state, like
    /// [`EventSim::new`](crate::EventSim::new).
    ///
    /// # Panics
    ///
    /// Panics if `delays` does not cover exactly the netlist's gates, or if
    /// any gate delay rounds to zero femtoseconds (the exactness contract
    /// needs strictly positive delays; see the module docs).
    pub fn new(netlist: &'a Netlist, topology: &'a Topology, delays: DelayAssignment) -> Self {
        let plan = TimedPlan::new(netlist, topology, &delays);
        assert_delay_contract(
            plan.max_level(),
            (0..plan.gate_count()).map(|g| plan.delay_fs(g)),
        );
        let queues = vec![Vec::new(); plan.max_level() as usize + 1];

        let mut lut1 = [[Logic::X; 4]; GateKind::ALL.len()];
        let mut lut2 = [[Logic::X; 16]; GateKind::ALL.len()];
        let mut lut3 = [[Logic::X; 64]; GateKind::ALL.len()];
        for (ki, kind) in GateKind::ALL.into_iter().enumerate() {
            if kind.accepts_arity(1) {
                for a in 0..4 {
                    lut1[ki][a] = kind.eval(&[LEVELS[a]]);
                }
            }
            if kind.accepts_arity(2) {
                for a in 0..4 {
                    for b in 0..4 {
                        lut2[ki][a << 2 | b] = kind.eval(&[LEVELS[a], LEVELS[b]]);
                    }
                }
            }
            if kind.accepts_arity(3) {
                for a in 0..4 {
                    for b in 0..4 {
                        for c in 0..4 {
                            lut3[ki][a << 4 | b << 2 | c] =
                                kind.eval(&[LEVELS[a], LEVELS[b], LEVELS[c]]);
                        }
                    }
                }
            }
        }

        let mut sim = LevelSim {
            netlist,
            topology,
            plan,
            values: vec![Logic::X; netlist.net_count()],
            init_values: Vec::new(),
            arena: Vec::new(),
            waves: vec![WaveMeta::default(); netlist.net_count()],
            dirty_nets: Vec::new(),
            touched: vec![0; netlist.gate_count().div_ceil(64)],
            epoch: 0,
            queues,
            toggles_per_gate: vec![0; netlist.gate_count()],
            out_scratch: Vec::new(),
            overlay: None,
            lut1,
            lut2,
            lut3,
            cancel: None,
        };
        sim.reinit_values();
        sim
    }

    /// Swaps in a new per-gate delay assignment **without rebuilding** the
    /// compiled schedule: the levelized gate arrays, CSR fanout, truth-table
    /// LUTs, waveform arena, and dirty-queue scratch are all
    /// topology-invariant and are reused as-is. Only the delay-dependent
    /// slice of the [`TimedPlan`](crate::plan::TimedPlan) is rewritten, in
    /// place, with zero allocation — this is what makes per-corner Monte
    /// Carlo profiling an order of magnitude cheaper than constructing a
    /// fresh kernel per corner.
    ///
    /// After the swap the kernel is in byte-for-byte the state a freshly
    /// constructed `LevelSim::new(netlist, topology, delays)` (plus the
    /// same overlay, if one is attached) would be in: the settled values
    /// are restored from the cached re-initialization snapshot with one
    /// memcpy — tri-state holds make settled values history-dependent, so
    /// carrying the previous corner's state over would not be equivalent —
    /// and the cumulative toggle counters are cleared. A retimed kernel
    /// settled on the same vector as a fresh kernel therefore produces
    /// femtosecond-identical [`step`](Self::step) results (property-pinned
    /// in the `retime_equiv` suite). Any attached
    /// [`FaultOverlay`](crate::FaultOverlay) and cancel token survive.
    ///
    /// # Panics
    ///
    /// Panics under exactly [`new`](Self::new)'s delay contract: `delays`
    /// must cover the netlist's gates, every delay must be strictly
    /// positive, and the packed-timestamp capacity bound must hold. The
    /// checks run *before* the swap, so a rejected assignment leaves the
    /// kernel's previous delays intact.
    pub fn retime(&mut self, delays: &DelayAssignment) {
        assert_eq!(
            delays.len(),
            self.netlist.gate_count(),
            "delay assignment covers {} gates, netlist has {}",
            delays.len(),
            self.netlist.gate_count()
        );
        assert_delay_contract(
            self.plan.max_level(),
            (0..delays.len()).map(|g| delays.delay_fs(crate::GateId::from_index(g))),
        );
        self.plan.set_delays(delays);
        self.reset();
    }

    /// Restores the kernel to its post-construction state under the
    /// *current* delays: settled values come back from the cached
    /// re-initialization snapshot with one memcpy, cumulative toggle
    /// counters clear, and stale waveforms are invalidated. Tri-state
    /// holds make settled values history-dependent, so this is the only
    /// way to make a reused kernel behave exactly like a fresh one — it is
    /// the state-restore half of [`retime`](Self::retime), exposed for
    /// callers that replay workloads without changing delays. Any attached
    /// [`FaultOverlay`](crate::FaultOverlay) and cancel token survive.
    pub fn reset(&mut self) {
        self.values.copy_from_slice(&self.init_values);
        self.toggles_per_gate.iter_mut().for_each(|c| *c = 0);
        // Stale waveforms must not leak into the next step's merges.
        self.epoch += 1;
    }

    /// Installs a [`CancelToken`](crate::CancelToken): subsequent
    /// [`step`](Self::step)/[`settle`](Self::settle) calls poll it once per
    /// dirty level and abort with [`NetlistError::Cancelled`] once it fires.
    /// Pass `None` to detach. After a cancelled step the settled values are
    /// unspecified; [`settle`](Self::settle) before measuring again.
    pub fn set_cancel_token(&mut self, token: Option<crate::CancelToken>) {
        self.cancel = token;
    }

    /// Attaches a [`FaultOverlay`](crate::FaultOverlay); every net value is
    /// passed through its scalar (lane-0) coercion from now on, exactly as
    /// in [`EventSim::set_fault_overlay`](crate::EventSim::set_fault_overlay).
    /// The simulator state is re-initialized; call [`settle`](Self::settle)
    /// before measuring transitions.
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
    /// sweep, both through the overlay's coercion if one is attached) —
    /// byte-for-byte the `EventSim` re-initialization.
    fn reinit_values(&mut self) {
        self.values.fill(Logic::X);
        for (idx, info) in self.netlist.nets.iter().enumerate() {
            if let Some(crate::netlist::Driver::Const(v)) = info.driver {
                self.values[idx] = v;
            }
        }
        if let Some(o) = &self.overlay {
            for (idx, v) in self.values.iter_mut().enumerate() {
                *v = o.apply_scalar(idx, *v);
            }
        }
        let netlist = self.netlist;
        let mut scratch = Vec::with_capacity(self.plan.max_arity());
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
        self.init_values.clear();
        self.init_values.extend_from_slice(&self.values);
    }

    /// Applies the overlay's scalar coercion to a candidate value of `net`.
    #[inline]
    fn coerce(&self, net: usize, v: Logic) -> Logic {
        match &self.overlay {
            Some(o) => o.apply_scalar(net, v),
            None => v,
        }
    }

    /// Applies `inputs` and runs to quiescence, discarding timing and
    /// clearing the per-gate toggle counters (the "previous vector" setup).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count.
    pub fn settle(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step(inputs)?;
        self.reset_toggle_counts();
        Ok(())
    }

    /// Applies `inputs` on top of the current state and reports the
    /// transition's timing, bit-identical to
    /// [`EventSim::step`](crate::EventSim::step).
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
        self.epoch += 1;
        self.arena.clear();
        self.dirty_nets.clear();
        // The touched set is per step: drop the bits the previous step,
        // cancelled or not, left behind.
        self.touched.fill(0);

        let mut timing = PatternTiming::default();
        let mut last_out_fs: u64 = 0;

        // Seed: changed inputs become single-event waveforms at t = 0 and
        // mark their fanout cones dirty. Unchanged inputs touch nothing —
        // this is where incremental re-simulation starts.
        for (&net, &v) in self.netlist.inputs().iter().zip(inputs) {
            let idx = net.index();
            let v = self.coerce(idx, v);
            if v == self.values[idx] {
                continue;
            }
            self.waves[idx] = WaveMeta {
                epoch: self.epoch,
                start: self.arena.len() as u32,
                len: 1,
            };
            self.arena.push(pack(0, v));
            self.dirty_nets.push(idx as u32);
            timing.events += 1;
            if self.topology.is_output(net) {
                timing.output_toggles += 1;
            }
            self.mark_fanout(idx);
        }

        let mut out_buf = std::mem::take(&mut self.out_scratch);

        for lvl in 1..=self.plan.max_level() as usize {
            let mut queue = std::mem::take(&mut self.queues[lvl]);
            if queue.is_empty() {
                self.queues[lvl] = queue;
                continue;
            }

            if let Some(token) = &self.cancel {
                if token.is_cancelled() {
                    // Leave the simulator structurally reusable: drop all
                    // dirty queues and scratch. Settled values are
                    // unspecified until the next `settle`.
                    queue.clear();
                    self.queues[lvl] = queue;
                    for q in &mut self.queues {
                        q.clear();
                    }
                    self.out_scratch = out_buf;
                    return Err(NetlistError::Cancelled);
                }
            }

            // Gates on one level never feed each other, so a level's dirty
            // set can be computed in any order (or in parallel chunks) and
            // applied serially in queue order.
            #[cfg(feature = "parallel")]
            let computed_parallel = {
                const PAR_MIN_GATES: usize = 128;
                if queue.len() >= PAR_MIN_GATES && agemul_par::thread_count(queue.len()) > 1 {
                    let this: &LevelSim<'a> = self;
                    let waves: Vec<Vec<u64>> = agemul_par::par_map(&queue, |&g| {
                        let mut out = Vec::new();
                        this.compute_wave(g as usize, &mut out);
                        out
                    });
                    for (&g, wave) in queue.iter().zip(&waves) {
                        if !wave.is_empty() {
                            self.apply_wave(g as usize, wave, &mut timing, &mut last_out_fs);
                        }
                    }
                    true
                } else {
                    false
                }
            };
            #[cfg(not(feature = "parallel"))]
            let computed_parallel = false;

            if !computed_parallel {
                for &g in &queue {
                    out_buf.clear();
                    self.compute_wave(g as usize, &mut out_buf);
                    if !out_buf.is_empty() {
                        self.apply_wave(g as usize, &out_buf, &mut timing, &mut last_out_fs);
                    }
                }
            }

            queue.clear();
            self.queues[lvl] = queue;
        }

        self.out_scratch = out_buf;

        // Commit: a dirty net's settled value is its last transition.
        // Deferred to the end so `compute_wave` reads previous-vector values.
        for i in 0..self.dirty_nets.len() {
            let n = self.dirty_nets[i] as usize;
            let m = self.waves[n];
            let end = (m.start + m.len) as usize;
            self.values[n] = unpack(self.arena[end - 1]).1;
        }

        timing.delay_ns = last_out_fs as f64 / FS_PER_NS;
        Ok(timing)
    }

    /// Net `n`'s committed transitions this step (empty if untouched),
    /// as packed events.
    #[inline]
    fn wave_of(&self, n: usize) -> &[u64] {
        let m = self.waves[n];
        if m.epoch == self.epoch {
            let start = m.start as usize;
            &self.arena[start..start + m.len as usize]
        } else {
            &[]
        }
    }

    /// Merges gate `g`'s input waveforms into its output waveform (pushed to
    /// `out`), replaying `EventSim`'s commit/evaluate/schedule rules — see
    /// the module docs. Pure read of `self`, so a level's dirty gates can
    /// run concurrently.
    ///
    /// Dispatches on arity so the hot 1–3-input shapes run with fixed-size
    /// cursor/value state in registers and hoisted waveform slices (the
    /// interior of the profiling hot loop); wider gates take the
    /// heap-backed generic path.
    fn compute_wave(&self, g: usize, out: &mut Vec<u64>) {
        match self.plan.inputs_of(g).len() {
            1 => self.merge_wave::<1>(g, out),
            2 => self.merge_wave::<2>(g, out),
            3 => self.merge_wave::<3>(g, out),
            4 => self.merge_wave::<4>(g, out),
            _ => self.merge_wave_dyn(g, out),
        }
    }

    /// The arity-`K` merge. `K` must equal gate `g`'s input count.
    fn merge_wave<const K: usize>(&self, g: usize, out: &mut Vec<u64>) {
        let inputs = self.plan.inputs_of(g);
        debug_assert_eq!(inputs.len(), K);
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let kind = self.plan.kind(g);

        let empty: &[u64] = &[];
        let mut waves = [empty; K];
        let mut cur = [Logic::X; K];
        let mut cursors = [0usize; K];
        // `next[i]` caches the packed head event of wave `i` (`u64::MAX`
        // when exhausted), so each loop iteration reads registers instead
        // of re-probing the slices. Packed events order by time when
        // compared whole (time is in the upper bits).
        let mut next = [u64::MAX; K];
        for i in 0..K {
            let n = inputs[i] as usize;
            waves[i] = self.wave_of(n);
            cur[i] = self.values[n];
            next[i] = waves[i].first().copied().unwrap_or(u64::MAX);
        }
        let mut committed = self.values[out_net];
        // The pending output transition, packed like an arena event;
        // `u64::MAX` means none (its time field exceeds any real timestamp,
        // so the due-commit comparison needs no separate branch).
        let mut pending: u64 = u64::MAX;
        let ki = kind as usize;
        let is_tbuf = kind == GateKind::Tbuf;
        let overlay = self.overlay.as_ref();

        loop {
            // Next input-event timestamp across all cursors.
            let mut m = u64::MAX;
            for &e in &next {
                m = m.min(e);
            }
            if m == u64::MAX {
                break;
            }
            let t_now = m >> 2;
            // Delta-cycle order at `t_now`: the pending output transition
            // commits first if due, then all input events at `t_now` apply,
            // then the gate evaluates once.
            if pending >> 2 <= t_now {
                out.push(pending);
                committed = LEVELS[(pending & 3) as usize];
                pending = u64::MAX;
            }
            for i in 0..K {
                while next[i] >> 2 == t_now {
                    cur[i] = LEVELS[(next[i] & 3) as usize];
                    cursors[i] += 1;
                    next[i] = waves[i].get(cursors[i]).copied().unwrap_or(u64::MAX);
                }
            }
            let candidate = if is_tbuf {
                match cur[K - 1].read().to_bool() {
                    Some(true) => Some(cur[0].read()),
                    Some(false) => None, // hold: committed and pending survive
                    None => Some(Logic::X),
                }
            } else {
                let mut idx = 0usize;
                for &c in &cur {
                    idx = (idx << 2) | c as usize;
                }
                Some(match K {
                    1 => self.lut1[ki][idx],
                    2 => self.lut2[ki][idx],
                    3 => self.lut3[ki][idx],
                    _ => kind.eval(&cur),
                })
            };
            let Some(v) = candidate else { continue };
            let v = match overlay {
                Some(o) => o.apply_scalar(out_net, v),
                None => v,
            };
            // EventSim::schedule, minus the queue: at most one pending
            // transition, same-value keeps the earlier arrival, a
            // disagreement retracts, a collapse back to `committed` cancels.
            let cand = pack(t_now + delay, v);
            if pending != u64::MAX {
                if pending & 3 == cand & 3 {
                    // Same value: packed compare is a time compare here.
                    pending = pending.min(cand);
                } else if v == committed {
                    pending = u64::MAX;
                } else {
                    pending = cand;
                }
            } else if v != committed {
                pending = cand;
            }
        }
        // Inputs exhausted: a surviving pending transition commits when the
        // event queue would have drained to it.
        if pending != u64::MAX {
            out.push(pending);
        }
    }

    /// The rare wide-gate merge (arity > 4): identical rules, heap-backed
    /// per-call state.
    fn merge_wave_dyn(&self, g: usize, out: &mut Vec<u64>) {
        let inputs = self.plan.inputs_of(g);
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let kind = self.plan.kind(g);

        let waves: Vec<&[u64]> = inputs.iter().map(|&n| self.wave_of(n as usize)).collect();
        let mut cur: Vec<Logic> = inputs.iter().map(|&n| self.values[n as usize]).collect();
        let mut cursors = vec![0usize; inputs.len()];
        let mut committed = self.values[out_net];
        let mut pending: Option<(u64, Logic)> = None;

        loop {
            let mut t_now = u64::MAX;
            for (w, &c) in waves.iter().zip(&cursors) {
                if let Some(&e) = w.get(c) {
                    t_now = t_now.min(e >> 2);
                }
            }
            if t_now == u64::MAX {
                break;
            }
            if let Some((pt, pv)) = pending {
                if pt <= t_now {
                    out.push(pack(pt, pv));
                    committed = pv;
                    pending = None;
                }
            }
            for i in 0..waves.len() {
                while let Some(&e) = waves[i].get(cursors[i]) {
                    if e >> 2 != t_now {
                        break;
                    }
                    cur[i] = LEVELS[(e & 3) as usize];
                    cursors[i] += 1;
                }
            }
            // Tbuf is always arity 2, so no tri-state case here.
            let v = self.coerce(out_net, kind.eval(&cur));
            let t = t_now + delay;
            match pending {
                Some((pt, pv)) => {
                    if pv == v {
                        if t < pt {
                            pending = Some((t, v));
                        }
                    } else if v == committed {
                        pending = None;
                    } else {
                        pending = Some((t, v));
                    }
                }
                None => {
                    if v != committed {
                        pending = Some((t, v));
                    }
                }
            }
        }
        if let Some((pt, pv)) = pending {
            out.push(pack(pt, pv));
        }
    }

    /// Publishes gate `g`'s output waveform: arena bookkeeping, toggle and
    /// event counters, output-delay tracking, and fanout dirtying.
    fn apply_wave(
        &mut self,
        g: usize,
        events: &[u64],
        timing: &mut PatternTiming,
        last_out_fs: &mut u64,
    ) {
        debug_assert!(!events.is_empty());
        let out_net = self.plan.output(g);
        self.waves[out_net] = WaveMeta {
            epoch: self.epoch,
            start: self.arena.len() as u32,
            len: events.len() as u32,
        };
        self.arena.extend_from_slice(events);
        self.dirty_nets.push(out_net as u32);

        let n = events.len() as u64;
        self.toggles_per_gate[g] += n;
        timing.gate_toggles += n;
        timing.events += n;
        if self.topology.is_output(NetId::from_index(out_net)) {
            timing.output_toggles += n;
            *last_out_fs = (*last_out_fs).max(events[events.len() - 1] >> 2);
        }
        self.mark_fanout(out_net);
    }

    /// Marks `net`'s fanout gates dirty (once per step, via the touched
    /// bitset).
    fn mark_fanout(&mut self, net: usize) {
        for &g in self.plan.fanout_of(net) {
            let gi = g as usize;
            let (word, bit) = (gi / 64, 1u64 << (gi % 64));
            if self.touched[word] & bit == 0 {
                self.touched[word] |= bit;
                let lvl = self.plan.level_of(gi) as usize;
                self.queues[lvl].push(g);
            }
        }
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
    /// indexable by [`GateId::index`](crate::GateId::index); glitches
    /// included, same as
    /// [`EventSim::gate_toggle_counts`](crate::EventSim::gate_toggle_counts).
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
    use crate::{EventSim, GateId};

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
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    #[test]
    fn unchanged_input_touches_nothing() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::One]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0);
        assert_eq!(timing.delay_ns, 0.0);
    }

    #[test]
    fn short_hazard_pulses_are_inertially_filtered() {
        // Same circuit as the EventSim test: a 1-inverter skew (8 ps) into
        // an XOR (24 ps) never develops the pulse.
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let inv = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Xor, &[a, inv]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(timing.output_toggles, 0, "{timing:?}");
        assert_eq!(timing.delay_ns, 0.0, "{timing:?}");
    }

    #[test]
    fn wide_hazard_pulses_propagate() {
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
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        assert_eq!(timing.output_toggles, 2, "{timing:?}");
        assert!(timing.delay_ns > 0.0);
    }

    #[test]
    fn disabled_tbuf_holds_through_pending() {
        let mut n = Netlist::new();
        let dta = n.add_input("d");
        let en = n.add_input("en");
        let g = n.add_gate(GateKind::Tbuf, &[dta, en]).unwrap();
        n.mark_output(g, "g");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);

        sim.settle(&[Logic::Zero, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero);
        let timing = sim.step(&[Logic::One, Logic::Zero]).unwrap();
        assert_eq!(sim.value(g), Logic::Zero, "tri-state must hold");
        assert_eq!(timing.output_toggles, 0);
        sim.step(&[Logic::One, Logic::One]).unwrap();
        assert_eq!(sim.value(g), Logic::One);
    }

    #[test]
    fn stuck_net_produces_no_events() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        let a = n.inputs()[0];
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::StuckAt0, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(timing.events, 0, "{timing:?}");
        assert_eq!(sim.value(y), Logic::Zero);

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
        let mut sim = LevelSim::new(&n, &t, d);
        let x = n.gates()[0].output();
        let y = n.outputs()[0];

        let mut o = FaultOverlay::new(&n);
        o.add(x, FaultKind::Flip, 1).unwrap();
        sim.set_fault_overlay(o);
        sim.settle(&[Logic::Zero]).unwrap();
        assert_eq!(sim.value(y), Logic::One);
        let timing = sim.step(&[Logic::One]).unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        let expect = 2.0 * model.delay_ns(GateKind::Not);
        assert!((timing.delay_ns - expect).abs() < 1e-9, "{timing:?}");
    }

    #[test]
    fn toggle_counters_match_event_sim() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut level = LevelSim::new(&n, &t, d.clone());
        let mut event = EventSim::new(&n, &t, d);
        for sim_step in [
            &[Logic::Zero][..],
            &[Logic::One][..],
            &[Logic::Zero][..],
            &[Logic::One][..],
        ] {
            let tl = level.step(sim_step).unwrap();
            let te = event.step(sim_step).unwrap();
            assert_eq!(tl, te);
        }
        assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
        level.reset_toggle_counts();
        assert_eq!(level.gate_toggle_counts(), &[0, 0]);
    }

    #[test]
    fn inflated_gate_matches_event_sim() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let mut d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        d.inflate(GateId::from_index(0), 2.5);
        let mut level = LevelSim::new(&n, &t, d.clone());
        let mut event = EventSim::new(&n, &t, d);
        level.settle(&[Logic::Zero]).unwrap();
        event.settle(&[Logic::Zero]).unwrap();
        let tl = level.step(&[Logic::One]).unwrap();
        let te = event.step(&[Logic::One]).unwrap();
        assert_eq!(tl, te);
    }

    #[test]
    fn cancelled_token_aborts_step_and_sim_recovers() {
        use crate::CancelToken;
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::Zero]).unwrap();

        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        let err = sim.step(&[Logic::One]).unwrap_err();
        assert_eq!(err, NetlistError::Cancelled);

        sim.set_cancel_token(None);
        sim.settle(&[Logic::Zero]).unwrap();
        let timing = sim.step(&[Logic::One]).unwrap();
        assert!(timing.delay_ns > 0.0);
        assert_eq!(sim.value(n.outputs()[0]), Logic::One);
    }

    /// Two independent inverters, `a → x` (gate 0) and `b → y` (gate 1).
    fn twin_inverters() -> Netlist {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let x = n.add_gate(GateKind::Not, &[a]).unwrap();
        let y = n.add_gate(GateKind::Not, &[b]).unwrap();
        n.mark_output(x, "x");
        n.mark_output(y, "y");
        n
    }

    #[test]
    fn cancelled_step_leaves_no_stale_touched_bits() {
        use crate::CancelToken;
        let n = twin_inverters();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d.clone());
        sim.settle(&[Logic::Zero, Logic::Zero]).unwrap();

        // The seed marks gate 0 before the first level polls the token.
        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        let err = sim.step(&[Logic::One, Logic::Zero]).unwrap_err();
        assert_eq!(err, NetlistError::Cancelled);

        // A cancelled step commits nothing, so input `a` is still 0: the
        // next step toggles only `b` and must behave exactly like a fresh
        // kernel stepped from (0,0) to (0,1).
        sim.set_cancel_token(None);
        let timing = sim.step(&[Logic::Zero, Logic::One]).unwrap();
        let mut fresh = LevelSim::new(&n, &t, d);
        fresh.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        assert_eq!(timing, fresh.step(&[Logic::Zero, Logic::One]).unwrap());
        assert_eq!(sim.output_values(), fresh.output_values());
    }

    #[test]
    fn retime_matches_fresh_kernel() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut inflated = nominal.clone();
        inflated.inflate(GateId::from_index(0), 3.0);
        inflated.inflate(GateId::from_index(1), 1.5);

        // One kernel retimed across assignments vs a fresh kernel per
        // assignment: identical timings both directions (nominal →
        // inflated → nominal).
        let mut retimed = LevelSim::new(&n, &t, nominal.clone());
        for delays in [&inflated, &nominal, &inflated] {
            retimed.retime(delays);
            retimed.settle(&[Logic::Zero]).unwrap();
            let tr = retimed.step(&[Logic::One]).unwrap();

            let mut fresh = LevelSim::new(&n, &t, (*delays).clone());
            fresh.settle(&[Logic::Zero]).unwrap();
            let tf = fresh.step(&[Logic::One]).unwrap();
            assert_eq!(tr, tf);
            assert_eq!(retimed.value(n.outputs()[0]), fresh.value(n.outputs()[0]));
        }
    }

    #[test]
    fn retime_preserves_fault_overlay() {
        use crate::{FaultKind, FaultOverlay};
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let nominal = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut slow = nominal.clone();
        slow.inflate(GateId::from_index(1), 2.0);

        let mut o = FaultOverlay::new(&n);
        o.add(n.gates()[0].output(), FaultKind::Flip, 1).unwrap();

        let mut retimed = LevelSim::new(&n, &t, nominal);
        retimed.set_fault_overlay(o.clone());
        retimed.retime(&slow);
        retimed.settle(&[Logic::Zero]).unwrap();
        let tr = retimed.step(&[Logic::One]).unwrap();

        let mut fresh = LevelSim::new(&n, &t, slow);
        fresh.set_fault_overlay(o);
        fresh.settle(&[Logic::Zero]).unwrap();
        let tf = fresh.step(&[Logic::One]).unwrap();
        assert_eq!(tr, tf);
        assert_eq!(retimed.value(n.outputs()[0]), fresh.value(n.outputs()[0]));
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn retime_rejects_zero_delay() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let good = DelayAssignment::uniform(&n, &DelayModel::nominal());
        // `with_factors` refuses a factor that rounds a delay to 0 fs, so
        // the zero is made by shrinking one gate in place.
        let mut bad = good.clone();
        bad.inflate(GateId::from_index(0), 1e-12);
        let mut sim = LevelSim::new(&n, &t, good);
        sim.retime(&bad);
    }

    #[test]
    #[should_panic(expected = "covers")]
    fn retime_rejects_wrong_gate_count() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let mut other = Netlist::new();
        let a = other.add_input("a");
        let x = other.add_gate(GateKind::Not, &[a]).unwrap();
        other.mark_output(x, "y");
        let foreign = DelayAssignment::uniform(&other, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, DelayAssignment::uniform(&n, &DelayModel::nominal()));
        sim.retime(&foreign);
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_delay_rejected() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        // A sub-femtosecond gate delay rounds to 0 fs.
        let mut d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        d.inflate(GateId::from_index(0), 1e-12);
        LevelSim::new(&n, &t, d);
    }
}
