//! Levelized timed simulation kernel.
//!
//! [`LevelSim`] computes the same femtosecond-exact two-vector timing as
//! [`EventSim`](crate::EventSim) without a priority queue: the netlist is
//! compiled once into a [`TimedPlan`](crate::plan::TimedPlan) (flat gate
//! arrays + per-gate integer-femtosecond delays), and each pattern is
//! simulated as one ascending sweep over the gates in builder order.
//!
//! # Why topological order is exact
//!
//! In a combinational DAG every gate's output waveform for a step is a pure
//! function of its input nets' complete waveforms. Builder order is
//! topological — [`Netlist::add_gate`] only accepts nets that already
//! exist — so by the time the sweep reaches gate `g` each input waveform is
//! final and `g`'s output waveform can be produced in one sequential merge
//! that replays `EventSim`'s exact rules:
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
//! # Dense sweep
//!
//! A step visits every gate; one with no switching input costs a load per
//! input and emits nothing. On the multipliers a uniform pattern switches
//! most of the array (a CB32 step reaches about 6.5k of its 10.1k gates,
//! and 61–77 % of the gates across designs), so tracking the switching
//! cone — per-level dirty queues, a touched bitset and a fanout walk per
//! switching net — cost more than the gates it skipped.
//!
//! Two shapes dominate the visited gates and get their own code: a gate of
//! arity ≤ 3 with exactly one switching input (about half) folds its quiet
//! inputs into a 4-entry level map, and returns at once when that map can
//! never schedule a transition; every other gate takes the general
//! multi-cursor merge.
//!
//! Waveforms live in one flat arena that each merge writes at its tail;
//! every waveform ends in a sentinel word and index 0 is the shared empty
//! waveform, so cursors need no length checks and quiet nets no clearing.

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
    /// Flat per-step waveform storage. Each event is packed as
    /// `time_fs << 2 | logic` ([`pack`]), halving the hot loop's memory
    /// traffic vs a `(u64, Logic)` pair, and every published waveform ends
    /// in an [`END`] sentinel, so a cursor reads `arena[pos]` until it hits
    /// `END` with no length bookkeeping. Index [`EMPTY`] holds the one
    /// sentinel every quiet net points at; a step truncates back to it.
    arena: Vec<u64>,
    /// Arena index of each net's first event this step ([`EMPTY`] for
    /// none). The sweep rewrites every input and gate-driven entry before
    /// any gate reads it; constant nets stay [`EMPTY`].
    waves: Vec<u32>,
    /// `(net, final level)` of every net that switched this step, applied
    /// to `values` once the sweep is done.
    commits: Vec<(u32, Logic)>,
    toggles_per_gate: Vec<u64>,
    overlay: Option<crate::FaultOverlay>,
    /// Per-kind truth tables over packed [`Logic`] discriminants (2 bits
    /// per input), tabulated once from [`GateKind::eval`] — the single
    /// source of combinational truth — so the merge loop evaluates a gate
    /// with one load instead of an arity fold.
    lut1: [[Logic; 4]; GateKind::ALL.len()],
    lut2: [[Logic; 16]; GateKind::ALL.len()],
    lut3: [[Logic; 64]; GateKind::ALL.len()],
    /// Cooperative cancellation (None = never cancelled): polled every
    /// [`CANCEL_STRIDE`] gates during a step.
    cancel: Option<crate::CancelToken>,
}

/// Gates swept between two polls of the cancel token.
const CANCEL_STRIDE: usize = 1024;

/// All four [`Logic`] levels, indexed by enum discriminant.
const LEVELS: [Logic; 4] = [Logic::Zero, Logic::One, Logic::Z, Logic::X];

/// Terminates every arena waveform. Its time field is above any real
/// timestamp (see [`assert_delay_contract`]), so a cursor parked on it
/// never matches the current delta cycle; it also marks "no pending
/// transition" in the merges.
const END: u64 = u64::MAX;

/// Arena index of the shared empty waveform (a lone [`END`]).
const EMPTY: u32 = 0;

/// Packs an event into one arena word: femtosecond time in the upper 62
/// bits, [`Logic`] discriminant in the lower 2.
#[inline(always)]
fn pack(t: u64, v: Logic) -> u64 {
    (t << 2) | v as u64
}

/// Output code of a disabled `TBUF` in a single-active merge map: no
/// event, the committed value and any pending transition survive.
const HOLD: u64 = 4;

/// `EventSim::schedule`, minus the queue: folds the candidate transition
/// to packed level `v` at time `t` into the gate's one `pending` slot
/// ([`END`] = none). A same-value candidate keeps the earlier arrival,
/// a disagreement retracts, and a collapse back to `committed` cancels.
#[inline(always)]
fn schedule(pending: &mut u64, committed: u64, t: u64, v: u64) {
    let cand = (t << 2) | v;
    if *pending != END {
        if *pending & 3 == v {
            // Same value: packed compare is a time compare here.
            *pending = (*pending).min(cand);
        } else if v == committed {
            *pending = END;
        } else {
            *pending = cand;
        }
    } else if v != committed {
        *pending = cand;
    }
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
            arena: vec![END],
            waves: vec![EMPTY; netlist.net_count()],
            commits: Vec::new(),
            toggles_per_gate: vec![0; netlist.gate_count()],
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
    /// compiled schedule: the flat gate arrays, truth-table LUTs and
    /// waveform arena are all topology-invariant and are reused as-is.
    /// Only the delay-dependent slice of the
    /// timed plan is rewritten, in place, with
    /// zero allocation — this is what makes per-corner Monte Carlo
    /// profiling an order of magnitude cheaper than constructing a fresh
    /// kernel per corner.
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
    /// re-initialization snapshot with one memcpy, and cumulative toggle
    /// counters clear. Tri-state holds make settled values
    /// history-dependent, so this is the only way to make a reused kernel
    /// behave exactly like a fresh one — it is
    /// the state-restore half of [`retime`](Self::retime), exposed for
    /// callers that replay workloads without changing delays. Any attached
    /// [`FaultOverlay`](crate::FaultOverlay) and cancel token survive.
    pub fn reset(&mut self) {
        self.values.copy_from_slice(&self.init_values);
        self.toggles_per_gate.iter_mut().for_each(|c| *c = 0);
    }

    /// Installs a [`CancelToken`](crate::CancelToken): subsequent
    /// [`step`](Self::step)/[`settle`](Self::settle) calls poll it before
    /// each stride of 1024 gates in the sweep, the first before gate 0,
    /// and abort with [`NetlistError::Cancelled`] once it fires. Pass
    /// `None` to detach. After a cancelled step the settled values are
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
        // Keep only the shared empty waveform.
        self.arena.truncate(1);
        self.commits.clear();

        let mut timing = PatternTiming::default();
        let mut last_out_fs: u64 = 0;

        // Seed: a changed input becomes a single-event waveform at t = 0,
        // an unchanged one points at the empty waveform.
        for (&net, &v) in self.netlist.inputs().iter().zip(inputs) {
            let idx = net.index();
            let v = self.coerce(idx, v);
            if v == self.values[idx] {
                self.waves[idx] = EMPTY;
                continue;
            }
            self.waves[idx] = self.arena.len() as u32;
            self.arena.extend([pack(0, v), END]);
            self.commits.push((idx as u32, v));
            timing.events += 1;
            if self.topology.is_output(net) {
                timing.output_toggles += 1;
            }
        }

        // One pass in builder order, which is topological: every gate's
        // input waveforms are final when it merges, and every net's
        // `waves` entry is rewritten before any gate reads it.
        let gate_count = self.plan.gate_count();
        for chunk in (0..gate_count).step_by(CANCEL_STRIDE) {
            if self
                .cancel
                .as_ref()
                .is_some_and(crate::CancelToken::is_cancelled)
            {
                return Err(NetlistError::Cancelled);
            }
            for g in chunk..gate_count.min(chunk + CANCEL_STRIDE) {
                let start = self.arena.len();
                match self.plan.inputs_of(g).len() {
                    1 => self.merge::<1>(g),
                    2 => self.merge::<2>(g),
                    3 => self.merge::<3>(g),
                    4 => self.merge::<4>(g),
                    _ => self.merge_dyn(g),
                }
                self.publish(g, start, &mut timing, &mut last_out_fs);
            }
        }

        // Commit: a net's settled value is its last transition. Deferred
        // to the end so every merge reads previous-vector values.
        for &(n, v) in &self.commits {
            self.values[n as usize] = v;
        }

        timing.delay_ns = last_out_fs as f64 / FS_PER_NS;
        Ok(timing)
    }

    /// Merges arity-`K` gate `g`'s input waveforms into its output
    /// waveform at the arena tail, replaying `EventSim`'s
    /// commit/evaluate/schedule rules (see the module docs). A gate with
    /// no switching input returns after `K` loads; one with a single
    /// switching input (`K` ≤ 3) takes [`merge_single`](Self::merge_single).
    fn merge<const K: usize>(&mut self, g: usize) {
        let inputs = self.plan.inputs_of(g);
        debug_assert_eq!(inputs.len(), K);
        // `pos[i]` is input `i`'s arena cursor; `next[i]` caches the packed
        // event under it (`END` once exhausted). Packed events order by
        // time when compared whole (time is in the upper bits).
        let mut pos = [0usize; K];
        let mut active = 0;
        let mut last_active = 0;
        for i in 0..K {
            pos[i] = self.waves[inputs[i] as usize] as usize;
            if pos[i] != EMPTY as usize {
                active += 1;
                last_active = i;
            }
        }
        if active == 0 {
            return;
        }
        let mut cur = [Logic::X; K];
        for i in 0..K {
            cur[i] = self.values[inputs[i] as usize];
        }
        if K <= 3 && active == 1 {
            return self.merge_single(g, cur, last_active, pos[last_active]);
        }
        let mut next = [END; K];
        for i in 0..K {
            next[i] = self.arena[pos[i]];
        }
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let kind = self.plan.kind(g);
        let mut committed = self.values[out_net] as u64;
        // The pending output transition, packed like an arena event; `END`
        // means none (its time field exceeds any real timestamp, so the
        // due-commit comparison needs no separate branch).
        let mut pending = END;

        loop {
            // Next input-event timestamp across all cursors.
            let mut m = END;
            for &e in &next {
                m = m.min(e);
            }
            if m == END {
                break;
            }
            let t_now = m >> 2;
            // Delta-cycle order at `t_now`: the pending output transition
            // commits first if due, then all input events at `t_now` apply,
            // then the gate evaluates once.
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = pending & 3;
                pending = END;
            }
            for i in 0..K {
                while next[i] >> 2 == t_now {
                    cur[i] = LEVELS[(next[i] & 3) as usize];
                    pos[i] += 1;
                    next[i] = self.arena[pos[i]];
                }
            }
            let Some(v) = self.eval(kind, &cur) else {
                continue;
            };
            let v = self.coerce(out_net, v);
            schedule(&mut pending, committed, t_now + delay, v as u64);
        }
        // Inputs exhausted: a surviving pending transition commits when the
        // event queue would have drained to it.
        if pending != END {
            self.arena.push(pending);
        }
    }

    /// Evaluates `kind` on `cur` through the truth-table LUTs; `None` is a
    /// disabled `TBUF` (hold: no event).
    #[inline(always)]
    fn eval<const K: usize>(&self, kind: GateKind, cur: &[Logic; K]) -> Option<Logic> {
        if kind == GateKind::Tbuf {
            return match cur[K - 1].read().to_bool() {
                Some(true) => Some(cur[0].read()),
                Some(false) => None,
                None => Some(Logic::X),
            };
        }
        let mut idx = 0usize;
        for &c in cur {
            idx = (idx << 2) | c as usize;
        }
        let ki = kind as usize;
        Some(match K {
            1 => self.lut1[ki][idx],
            2 => self.lut2[ki][idx],
            3 => self.lut3[ki][idx],
            _ => kind.eval(cur),
        })
    }

    /// The merge of an arity-`K` gate whose only switching input is
    /// `cur[active]`, read from arena position `pos`. The quiet inputs are
    /// folded into a 4-entry map from the active input's level to the
    /// coerced output level ([`HOLD`] for a disabled `TBUF`), so each event
    /// costs one lookup. When every entry is a hold or the committed value
    /// no transition can ever be scheduled, and the merge returns at once.
    fn merge_single<const K: usize>(
        &mut self,
        g: usize,
        mut cur: [Logic; K],
        active: usize,
        mut pos: usize,
    ) {
        let out_net = self.plan.output(g);
        let kind = self.plan.kind(g);
        let mut committed = self.values[out_net] as u64;
        let mut map = [HOLD; 4];
        let mut live = false;
        for (level, code) in LEVELS.into_iter().zip(&mut map) {
            cur[active] = level;
            if let Some(v) = self.eval(kind, &cur) {
                *code = self.coerce(out_net, v) as u64;
                live |= *code != committed;
            }
        }
        if !live {
            return;
        }
        let delay = self.plan.delay_fs(g);
        let mut pending = END;
        // One waveform has strictly increasing times: one event per delta
        // cycle.
        let mut e = self.arena[pos];
        while e != END {
            let t_now = e >> 2;
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = pending & 3;
                pending = END;
            }
            let code = map[(e & 3) as usize];
            if code != HOLD {
                schedule(&mut pending, committed, t_now + delay, code);
            }
            pos += 1;
            e = self.arena[pos];
        }
        if pending != END {
            self.arena.push(pending);
        }
    }

    /// The rare wide-gate merge (arity > 4): identical rules, heap-backed
    /// per-call state.
    fn merge_dyn(&mut self, g: usize) {
        let inputs = self.plan.inputs_of(g);
        let mut pos: Vec<usize> = inputs
            .iter()
            .map(|&n| self.waves[n as usize] as usize)
            .collect();
        if pos.iter().all(|&p| p == EMPTY as usize) {
            return;
        }
        let mut cur: Vec<Logic> = inputs.iter().map(|&n| self.values[n as usize]).collect();
        let out_net = self.plan.output(g);
        let delay = self.plan.delay_fs(g);
        let kind = self.plan.kind(g);
        let mut committed = self.values[out_net] as u64;
        let mut pending = END;

        loop {
            let m = pos.iter().map(|&p| self.arena[p]).min().unwrap_or(END);
            if m == END {
                break;
            }
            let t_now = m >> 2;
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = pending & 3;
                pending = END;
            }
            for (p, c) in pos.iter_mut().zip(&mut cur) {
                while self.arena[*p] >> 2 == t_now {
                    *c = LEVELS[(self.arena[*p] & 3) as usize];
                    *p += 1;
                }
            }
            // Tbuf is always arity 2, so no tri-state case here.
            let v = self.coerce(out_net, kind.eval(&cur));
            schedule(&mut pending, committed, t_now + delay, v as u64);
        }
        if pending != END {
            self.arena.push(pending);
        }
    }

    /// Publishes the events gate `g`'s merge left at `arena[start..]`:
    /// the closing sentinel, the net's `waves` entry, its commit, toggle
    /// and event counters, and output-delay tracking. A gate that emitted
    /// nothing gets the empty waveform.
    fn publish(
        &mut self,
        g: usize,
        start: usize,
        timing: &mut PatternTiming,
        last_out_fs: &mut u64,
    ) {
        let out_net = self.plan.output(g);
        let end = self.arena.len();
        if end == start {
            self.waves[out_net] = EMPTY;
            return;
        }
        let last = self.arena[end - 1];
        self.arena.push(END);
        self.waves[out_net] = start as u32;
        self.commits
            .push((out_net as u32, LEVELS[(last & 3) as usize]));

        let n = (end - start) as u64;
        self.toggles_per_gate[g] += n;
        timing.gate_toggles += n;
        timing.events += n;
        if self.topology.is_output(NetId::from_index(out_net)) {
            timing.output_toggles += n;
            *last_out_fs = (*last_out_fs).max(last >> 2);
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

        // The seed publishes input `a`'s waveform before the sweep polls
        // the token at gate 0, so the cancelled step leaves a stale
        // waveform entry behind.
        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        let err = sim.step(&[Logic::One, Logic::Zero]).unwrap_err();
        assert_eq!(err, NetlistError::Cancelled);

        // A cancelled step commits nothing, so input `a` is still 0: the
        // next step toggles only `b`, must not replay `a`'s stale waveform,
        // and must behave exactly like a fresh kernel stepped from (0,0)
        // to (0,1).
        sim.set_cancel_token(None);
        let timing = sim.step(&[Logic::Zero, Logic::One]).unwrap();
        let mut fresh = LevelSim::new(&n, &t, d);
        fresh.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        assert_eq!(timing, fresh.step(&[Logic::Zero, Logic::One]).unwrap());
        assert_eq!(sim.output_values(), fresh.output_values());
    }

    /// Steps a fresh `LevelSim` and `EventSim` through `vectors` in lock
    /// step: identical timing, every net value and the toggle counters.
    fn assert_matches_event_sim(n: &Netlist, vectors: &[[Logic; 3]]) {
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(n, &DelayModel::nominal());
        let mut level = LevelSim::new(n, &t, d.clone());
        let mut event = EventSim::new(n, &t, d);
        for v in vectors {
            assert_eq!(level.step(v).unwrap(), event.step(v).unwrap(), "{v:?}");
            for idx in 0..n.net_count() {
                let net = NetId::from_index(idx);
                assert_eq!(level.value(net), event.value(net), "net {idx} on {v:?}");
            }
            assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
        }
    }

    /// Inputs `a`, `b`, `c`, plus `pulse`: `a` XOR five inverters of `a`,
    /// whose step waveform is a two-event hazard pulse.
    fn with_pulse() -> (Netlist, [NetId; 4]) {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let c = n.add_input("c");
        let mut x = a;
        for _ in 0..5 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
        }
        let pulse = n.add_gate(GateKind::Xor, &[a, x]).unwrap();
        (n, [a, b, c, pulse])
    }

    #[test]
    fn single_active_tbuf_matches_event_sim_with_held_enable() {
        use Logic::{One, Zero, X};
        let (mut n, [a, _, en, pulse]) = with_pulse();
        let direct = n.add_gate(GateKind::Tbuf, &[a, en]).unwrap();
        let pulsed = n.add_gate(GateKind::Tbuf, &[pulse, en]).unwrap();
        n.mark_output(direct, "direct");
        n.mark_output(pulsed, "pulsed");
        // The first vector drives both outputs to a known 0 with the
        // enable on, so a held-off enable must hold that 0, not float.
        for held in [Zero, One, X] {
            assert_matches_event_sim(
                &n,
                &[
                    [Zero, Zero, One],
                    [Zero, Zero, held],
                    [One, Zero, held],
                    [Zero, Zero, held],
                    [One, Zero, held],
                    [One, Zero, held],
                ],
            );
        }
        // Enable as the only switching input, data held at each level.
        for held in [Zero, One, X] {
            assert_matches_event_sim(
                &n,
                &[
                    [held, Zero, Zero],
                    [held, Zero, One],
                    [held, Zero, X],
                    [held, Zero, Zero],
                ],
            );
        }
    }

    #[test]
    fn single_active_mux2_matches_event_sim_with_x_select() {
        use Logic::{One, Zero, X};
        let (mut n, [a, b, sel, pulse]) = with_pulse();
        let direct = n.add_gate(GateKind::Mux2, &[a, b, sel]).unwrap();
        let pulsed = n.add_gate(GateKind::Mux2, &[pulse, b, sel]).unwrap();
        n.mark_output(direct, "direct");
        n.mark_output(pulsed, "pulsed");
        assert_matches_event_sim(
            &n,
            &[
                [Zero, Zero, X],
                [One, Zero, X],
                [Zero, Zero, X],
                [Zero, One, X],
                [One, One, X],
                [Zero, One, X],
                [One, One, X],
            ],
        );
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
