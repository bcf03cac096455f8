//! Levelized timed simulation kernel.
//!
//! [`LevelSim`] computes the same femtosecond-exact two-vector timing as
//! [`EventSim`](crate::EventSim) without a priority queue: the netlist is
//! compiled once into a [`TimedPlan`](crate::plan::TimedPlan) (one
//! gate-major record per gate: kind, nets, integer-femtosecond delay,
//! primary-output flag), and each pattern is simulated as one ascending
//! sweep over the gates in builder order.
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
//! * **tri-state hold** — a disabled `TBUF` evaluates to "no event" (the
//!   [`HOLD`] output code), leaving both the committed value and any
//!   pending transition untouched;
//! * **fault coercion** — every candidate output value passes through the
//!   attached [`FaultOverlay`]'s scalar coercion before scheduling, exactly
//!   where `EventSim` applies it.
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
//! Every gate of arity ≤ 3 evaluates through [`CodeTables`]: a packed
//! input index (2 bits per input) selects a `u8` output code, and each
//! input event updates the index with one shift and mask. Two shapes
//! dominate the visited gates and get their own code: a gate with exactly
//! one switching input (about half) folds its quiet inputs into a 4-entry
//! code map (four table loads), and returns at once when that map can
//! never schedule a transition; every other gate takes the general
//! multi-cursor merge. Gates of arity ≥ 4, which no generated multiplier
//! has, take one heap-backed merge over [`GateKind::eval`].
//!
//! The sweep is monomorphized on whether a fault overlay is attached, so
//! the fault-free path never tests for one per event. A step on which no
//! input switches returns at once: every gate would be quiet.
//!
//! Waveforms live in one flat arena that each merge writes at its tail;
//! every waveform ends in a sentinel word and index 0 is the shared empty
//! waveform, so cursors need no length checks and quiet nets no clearing.
//!
//! # Lanes
//!
//! [`LaneSim`] steps up to [`LaneSim::LANES`] delay assignments of one
//! netlist in lockstep — a Monte Carlo corner's lifetime points, which
//! replay the same operands and differ only in delays. Each (net, lane)
//! keeps its own waveform cursor and settled value, stored lane-minor
//! (`net * L + lane`), and so do the per-gate delays. A gate's record, its
//! input decode and one all-lanes-quiet test are shared by every lane; each
//! lane then runs the one-lane merge unchanged. Settled values stay per
//! lane because they can differ: a disabled `TBUF` holds whatever its last
//! enabled transition left, and which transition was last depends on event
//! timing. `LevelSim` is the one-lane instance of the same kernel, so the
//! merge, publish and cancel logic exist once.
//!
//! `LevelSim` packs events into `u64` words (62 bits of femtoseconds).
//! Lanes pack them into `u32` words (30 bits, about 1.07 µs), halving the
//! arena, while `(depth + 1) × max gate delay < 2^30` holds for every
//! loaded lane, and switch to `u64` words for the whole set as soon as a
//! lane breaks it.

use std::ops::{Add, BitAnd, BitOr, Shl, Shr};
use std::sync::OnceLock;

use agemul_logic::{GateKind, Logic};

use crate::event_sim::FS_PER_NS;
use crate::netlist::Driver;
use crate::plan::{TimedGate, TimedPlan, WIDE};
use crate::{
    CancelToken, DelayAssignment, FaultOverlay, GateId, NetId, Netlist, NetlistError,
    PatternTiming, Topology,
};

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
    shared: Shared<'a>,
    /// The one-lane sweep state: settled values, arena, per-gate toggles.
    kernel: Kernel<1, u64>,
    /// Cooperative cancellation (None = never cancelled): polled every
    /// [`CANCEL_STRIDE`] gates during a step.
    cancel: Option<CancelToken>,
}

/// What every lane of a sweep reads and none writes: the netlist, the
/// compiled plan, the fault overlay, the code tables and the
/// re-initialized settled state. A [`LaneSim`] borrows its `LevelSim`'s.
#[derive(Debug)]
struct Shared<'a> {
    netlist: &'a Netlist,
    topology: &'a Topology,
    plan: TimedPlan,
    /// The re-initialized settled state (constants + one functional sweep,
    /// through the overlay if attached), captured by
    /// [`LevelSim::reinit_values`]. It is delay-independent:
    /// [`LevelSim::retime`] restores it with one memcpy instead of
    /// re-running the functional sweep, and every [`LaneSim`] lane starts
    /// from it, so each lane begins in byte-for-byte the state a freshly
    /// constructed kernel would — including tri-state hold history, which
    /// makes settled values history-dependent wherever a disabled `TBUF`
    /// sits.
    init_values: Vec<Logic>,
    overlay: Option<FaultOverlay>,
    /// The process-wide output-code tables ([`code_tables`]).
    codes: &'static CodeTables,
    /// The last gate reading each net (0 for none), which lane sweeps
    /// [`compact`](Kernel::compact) by; built the first time one does.
    /// It depends on the plan's nets only, so retiming and overlays keep
    /// it.
    last_reader: OnceLock<Vec<u32>>,
}

/// Gates swept between two polls of the cancel token.
const CANCEL_STRIDE: usize = 1024;

/// Arena words below which a lane sweep never compacts.
const COMPACT_MIN: usize = 1 << 14;

/// All four [`Logic`] levels, indexed by enum discriminant.
const LEVELS: [Logic; 4] = [Logic::Zero, Logic::One, Logic::Z, Logic::X];

/// Arena index of the shared empty waveform (a lone `END`).
const EMPTY: u32 = 0;

/// The most delay assignments one [`LaneSim`] steps.
const LANES: usize = 8;

/// An arena event word: femtosecond time in the upper bits, the [`Logic`]
/// discriminant in the lower 2. The all-ones word [`END`](Word::END)
/// terminates every arena waveform: its time field is above any real
/// timestamp (the kernels check the delays against
/// [`TIME_BITS`](Word::TIME_BITS)), so a cursor parked on it never matches
/// the current delta cycle, and it also marks "no pending transition" in
/// the merges.
trait Word:
    Copy
    + Ord
    + std::fmt::Debug
    + From<u8>
    + Add<Output = Self>
    + BitAnd<Output = Self>
    + BitOr<Output = Self>
    + Shl<u32, Output = Self>
    + Shr<u32, Output = Self>
{
    /// All ones.
    const END: Self;
    /// Femtosecond bits above the level.
    const TIME_BITS: u32;
    /// `fs` as a word; the caller has checked that it fits.
    fn from_fs(fs: u64) -> Self;
    /// The word widened to `u64`.
    fn to_u64(self) -> u64;
}

impl Word for u64 {
    const END: Self = u64::MAX;
    const TIME_BITS: u32 = 62;
    #[inline(always)]
    fn from_fs(fs: u64) -> Self {
        fs
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self
    }
}

impl Word for u32 {
    const END: Self = u32::MAX;
    const TIME_BITS: u32 = 30;
    #[inline(always)]
    fn from_fs(fs: u64) -> Self {
        fs as u32
    }
    #[inline(always)]
    fn to_u64(self) -> u64 {
        u64::from(self)
    }
}

/// Packs level `v` at femtosecond time `t` into one arena word.
#[inline(always)]
fn pack<W: Word>(t: W, v: Logic) -> W {
    (t << 2) | W::from(v as u8)
}

/// The [`Logic`] discriminant of event word `e`.
#[inline(always)]
fn level<W: Word>(e: W) -> usize {
    (e.to_u64() & 3) as usize
}

/// Output code of a disabled `TBUF`: no event, the committed value and any
/// pending transition survive. Every other code is a [`Logic`]
/// discriminant.
const HOLD: u8 = 4;

/// Output codes of every gate kind at arity 1, 2 and 3, tabulated once
/// from [`GateKind::eval`], the single source of combinational truth.
///
/// `[k - 1][kind as usize][idx]` is the code of an arity-`k` gate whose
/// packed input index `idx` holds input `i`'s [`Logic`] discriminant at
/// bits `2 * (k - 1 - i)`. A disabled `TBUF` (output `Z`) is [`HOLD`];
/// every other entry is the output level's discriminant. Each row has 64
/// entries whatever its arity, so a merge masks its index with `63`
/// instead of paying a bounds check per event; entries no input index
/// reaches, and rows of arities a kind rejects, read `X`.
type CodeTables = [[[u8; 64]; GateKind::ALL.len()]; 3];

/// The process-wide [`CodeTables`], built on first use.
fn code_tables() -> &'static CodeTables {
    static TABLES: OnceLock<CodeTables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = [[[Logic::X as u8; 64]; GateKind::ALL.len()]; 3];
        let mut levels = [Logic::X; 3];
        for (k, rows) in (1..=3).zip(&mut tables) {
            for (kind, row) in GateKind::ALL.into_iter().zip(rows) {
                if !kind.accepts_arity(k) {
                    continue;
                }
                for (idx, code) in row.iter_mut().enumerate().take(1 << (2 * k)) {
                    for (i, level) in levels[..k].iter_mut().enumerate() {
                        *level = LEVELS[(idx >> (2 * (k - 1 - i))) & 3];
                    }
                    *code = match kind.eval(&levels[..k]) {
                        Logic::Z => HOLD,
                        v => v as u8,
                    };
                }
            }
        }
        tables
    })
}

/// `EventSim::schedule`, minus the queue: folds the candidate transition
/// to level `v` at time `t` into the gate's one `pending` slot
/// ([`Word::END`] = none). A same-value candidate keeps the earlier
/// arrival, a disagreement retracts, and a collapse back to `committed`
/// cancels.
#[inline(always)]
fn schedule<W: Word>(pending: &mut W, committed: usize, t: W, v: usize) {
    let cand = (t << 2) | W::from(v as u8);
    if *pending != W::END {
        if level(*pending) == v {
            // Same value: packed compare is a time compare here.
            *pending = (*pending).min(cand);
        } else if v == committed {
            *pending = W::END;
        } else {
            *pending = cand;
        }
    } else if v != committed {
        *pending = cand;
    }
}

/// Whether a step of depth `max_level` under gate delays of at most
/// `max_delay_fs` keeps every event time inside `time_bits` bits: the
/// latest event of a step is bounded by depth × max gate delay (every
/// waveform time is some path's delay sum).
fn fits(max_level: u32, max_delay_fs: u64, time_bits: u32) -> bool {
    (u64::from(max_level) + 1).saturating_mul(max_delay_fs) < (1 << time_bits)
}

/// Asserts the two delay invariants every levelized schedule must satisfy,
/// and returns the largest gate delay: strictly positive per-gate delays
/// (exactness; see the module docs) and enough `u64`-word headroom for the
/// deepest path (62 bits of femtoseconds ≈ 77 simulated minutes —
/// unreachable for any physical delay model). Shared by [`LevelSim::new`],
/// [`LevelSim::retime`] and [`LaneSim::push_lane`], so no kernel can hold
/// delays a freshly built one would reject.
fn assert_delay_contract(max_level: u32, delays: &DelayAssignment) -> u64 {
    let mut max_delay_fs = 0u64;
    for g in 0..delays.len() {
        let fs = delays.delay_fs(GateId::from_index(g));
        assert!(
            fs > 0,
            "LevelSim requires strictly positive gate delays; gate {g} has 0 fs"
        );
        max_delay_fs = max_delay_fs.max(fs);
    }
    assert!(
        fits(max_level, max_delay_fs, u64::TIME_BITS),
        "gate delays too large for packed femtosecond timestamps"
    );
    max_delay_fs
}

/// Whether the installed cancel token, if any, has fired.
fn is_cancelled(cancel: Option<&CancelToken>) -> bool {
    cancel.is_some_and(CancelToken::is_cancelled)
}

/// Asserts that `delays` covers exactly `netlist`'s gates.
fn assert_covers(netlist: &Netlist, delays: &DelayAssignment) {
    assert_eq!(
        delays.len(),
        netlist.gate_count(),
        "delay assignment covers {} gates, netlist has {}",
        delays.len(),
        netlist.gate_count()
    );
}

impl Shared<'_> {
    /// Applies the overlay's scalar coercion to output code `code` (never
    /// [`HOLD`]) of `net`. `OVERLAY` is whether an overlay is attached; the
    /// fault-free sweep passes `false` and this folds to `code`.
    #[inline(always)]
    fn coerce<const OVERLAY: bool>(&self, net: u32, code: u8) -> u8 {
        match &self.overlay {
            Some(o) if OVERLAY => o.apply_scalar(net as usize, LEVELS[code as usize]) as u8,
            _ => code,
        }
    }

    /// The input nets of `gate`, wide or not.
    #[inline(always)]
    fn inputs<'g>(&'g self, gate: &'g TimedGate) -> &'g [u32] {
        if gate.arity == WIDE {
            self.plan.wide_inputs(gate)
        } else {
            &gate.inputs[..usize::from(gate.arity)]
        }
    }

    /// The last gate reading each net (0 for none), built on first use.
    fn last_reader(&self) -> &[u32] {
        self.last_reader.get_or_init(|| {
            let mut last = vec![0; self.netlist.net_count()];
            for (g, gate) in self.plan.gates().iter().enumerate() {
                for &net in self.inputs(gate) {
                    last[net as usize] = g as u32;
                }
            }
            last
        })
    }
}

/// The sweep state of `L` lanes of one plan on `W` event words: per-lane
/// settled values, waveform cursors and delays, and the arena every lane
/// writes. `LevelSim` is `Kernel<1, u64>`, [`LaneSim`] a
/// `Kernel<LANES, _>`.
#[derive(Debug)]
struct Kernel<const L: usize, W> {
    /// Settled value of each (net, lane) at `net * L + lane`
    /// (previous-vector state between steps).
    values: Vec<Logic>,
    /// This step's values: a copy of `values` that each published waveform
    /// overwrites with its final level, swapped in once the sweep is done.
    /// Every merge thus reads previous-vector values, and a cancelled step
    /// commits nothing.
    next: Vec<Logic>,
    /// Flat per-step waveform storage. Each event is packed as
    /// `time_fs << 2 | logic` ([`pack`]), and every published waveform ends
    /// in a [`Word::END`] sentinel, so a cursor reads `arena[pos]` until it
    /// hits `END` with no length bookkeeping. Index [`EMPTY`] holds the one
    /// sentinel every quiet net points at; a step truncates back to it.
    arena: Vec<W>,
    /// Arena index of each (net, lane)'s first event this step ([`EMPTY`]
    /// for none). A sweep rewrites every input and gate-driven entry of a
    /// stepped lane before any gate reads it; constant nets stay
    /// [`EMPTY`].
    waves: Vec<u32>,
    /// Delay of each (gate, lane) at `gate * L + lane`; empty for `L == 1`,
    /// which reads the plan's delay field instead.
    delays: Vec<W>,
    /// Cumulative output-toggle count per gate; only the one-lane instance
    /// keeps them (lanes total their toggles per step instead).
    toggles_per_gate: Vec<u64>,
    /// Lanes only: the nets whose waveforms this step's arena holds, in
    /// arena order (see [`compact`](Self::compact)).
    live: Vec<u32>,
}

impl<const L: usize, W: Word> Kernel<L, W> {
    fn new(shared: &Shared<'_>) -> Self {
        let net_count = shared.netlist.net_count();
        let gate_count = shared.netlist.gate_count();
        Kernel {
            values: vec![Logic::X; net_count * L],
            next: vec![Logic::X; net_count * L],
            arena: vec![W::END],
            waves: vec![EMPTY; net_count * L],
            delays: if L == 1 {
                Vec::new()
            } else {
                vec![W::from(1); gate_count * L]
            },
            toggles_per_gate: if L == 1 {
                vec![0; gate_count]
            } else {
                Vec::new()
            },
            live: Vec::new(),
        }
    }

    /// Index of (`net`, `lane`) in the lane-minor tables.
    #[inline(always)]
    fn slot(net: u32, lane: usize) -> usize {
        if L == 1 {
            net as usize
        } else {
            net as usize * L + lane
        }
    }

    /// Loads `delays` into `lane` and resets its settled values to `init`.
    fn load_lane(&mut self, lane: usize, delays: &DelayAssignment, init: &[Logic]) {
        for g in 0..delays.len() {
            self.delays[g * L + lane] = W::from_fs(delays.delay_fs(GateId::from_index(g)));
        }
        for (net, &v) in init.iter().enumerate() {
            self.values[net * L + lane] = v;
        }
    }

    /// Applies `inputs` to the first `lanes` lanes on top of their settled
    /// state and reports each lane's timing (entries past `lanes` stay
    /// default).
    fn step(
        &mut self,
        shared: &Shared<'_>,
        cancel: Option<&CancelToken>,
        lanes: usize,
        inputs: &[Logic],
    ) -> Result<[PatternTiming; L], NetlistError> {
        let lanes = if L == 1 { 1 } else { lanes };
        let netlist = shared.netlist;
        if inputs.len() != netlist.input_count() {
            return Err(NetlistError::WidthMismatch {
                expected: netlist.input_count(),
                got: inputs.len(),
            });
        }
        // Keep only the shared empty waveform.
        self.arena.truncate(1);
        self.live.clear();
        self.next.copy_from_slice(&self.values);

        let mut timing = [PatternTiming::default(); L];
        let mut switched = false;

        // Seed: a changed input becomes a single-event waveform at t = 0,
        // one arena copy shared by every lane it changed in; an unchanged
        // one points at the empty waveform.
        for (&net, &v) in netlist.inputs().iter().zip(inputs) {
            let idx = net.index();
            let v = match &shared.overlay {
                Some(o) => o.apply_scalar(idx, v),
                None => v,
            };
            let mut seed = EMPTY;
            for (lane, t) in timing.iter_mut().enumerate().take(lanes) {
                let slot = Self::slot(idx as u32, lane);
                if v == self.values[slot] {
                    self.waves[slot] = EMPTY;
                    continue;
                }
                if seed == EMPTY {
                    seed = self.arena.len() as u32;
                    self.arena.extend([pack(W::from(0), v), W::END]);
                    if L > 1 {
                        self.live.push(idx as u32);
                    }
                }
                self.waves[slot] = seed;
                self.next[slot] = v;
                switched = true;
                t.events += 1;
                if shared.topology.is_output(net) {
                    t.output_toggles += 1;
                }
            }
        }

        // No input switched: every gate would be quiet, and the next sweep
        // rewrites each gate's `waves` entry before reading it.
        if !switched {
            return if is_cancelled(cancel) {
                Err(NetlistError::Cancelled)
            } else {
                Ok([PatternTiming::default(); L])
            };
        }

        let last_out = if shared.overlay.is_some() {
            self.sweep::<true>(shared, cancel, lanes, &mut timing)?
        } else {
            self.sweep::<false>(shared, cancel, lanes, &mut timing)?
        };

        // Commit: a net's settled value is its last transition.
        std::mem::swap(&mut self.values, &mut self.next);

        for (t, last) in timing.iter_mut().zip(last_out).take(lanes) {
            t.delay_ns = last.to_u64() as f64 / FS_PER_NS;
        }
        Ok(timing)
    }

    /// One pass over the gates in builder order, which is topological:
    /// every gate's input waveforms are final when it merges, and every
    /// net's `waves` entry is rewritten before any gate reads it. A gate no
    /// lane's input switches for is skipped after one shared test;
    /// otherwise each lane merges and publishes in turn. The cancel token
    /// is polled before each stride of gates, and lanes
    /// [`compact`](Self::compact) the arena between gates once it outgrows
    /// its threshold. Returns each lane's time of the last primary-output
    /// event.
    fn sweep<const OVERLAY: bool>(
        &mut self,
        shared: &Shared<'_>,
        cancel: Option<&CancelToken>,
        lanes: usize,
        timing: &mut [PatternTiming; L],
    ) -> Result<[W; L], NetlistError> {
        let mut last_out = [W::from(0); L];
        let gates = shared.plan.gates();
        let mut compact_at = COMPACT_MIN;
        for (c, chunk) in gates.chunks(CANCEL_STRIDE).enumerate() {
            if is_cancelled(cancel) {
                return Err(NetlistError::Cancelled);
            }
            for (i, &gate) in chunk.iter().enumerate() {
                let g = c * CANCEL_STRIDE + i;
                if L > 1 && self.arena.len() >= compact_at {
                    self.compact(shared.last_reader(), g, lanes);
                    compact_at = COMPACT_MIN.max(2 * self.arena.len());
                }
                // The one-lane merge tests its own cursors.
                if L > 1 && self.quiet(shared, &gate) {
                    let out = gate.output as usize * L;
                    self.waves[out..out + L].fill(EMPTY);
                    continue;
                }
                let gate_start = self.arena.len();
                for lane in 0..lanes {
                    let start = self.arena.len();
                    let delay = if L == 1 {
                        W::from_fs(gate.delay_fs)
                    } else {
                        self.delays[g * L + lane]
                    };
                    match gate.arity {
                        1 => self.merge::<1, OVERLAY>(shared, &gate, lane, delay),
                        2 => self.merge::<2, OVERLAY>(shared, &gate, lane, delay),
                        3 => self.merge::<3, OVERLAY>(shared, &gate, lane, delay),
                        _ => self.merge_dyn::<OVERLAY>(shared, &gate, lane, delay),
                    }
                    self.publish(
                        g,
                        &gate,
                        lane,
                        start,
                        &mut timing[lane],
                        &mut last_out[lane],
                    );
                }
                if L > 1 && self.arena.len() > gate_start {
                    self.live.push(gate.output);
                }
            }
        }
        Ok(last_out)
    }

    /// Drops from the arena every waveform no gate from `next_gate` on
    /// reads (`last_reader` is [`Shared::last_reader`]), moving the rest
    /// down in order and repointing their `waves` entries. Lanes hold a
    /// waveform per (net, lane), eight times the one-lane arena, but a
    /// multiplier's nets are read close to where they are made: about a
    /// tenth of them are live at any gate. The sweep compacts once the
    /// arena reaches [`COMPACT_MIN`] words or twice its size after the
    /// last compaction, so the copying stays below the words appended, and
    /// the arena stays near that bound.
    fn compact(&mut self, last_reader: &[u32], next_gate: usize, lanes: usize) {
        let mut write = EMPTY as usize + 1;
        let mut kept = 0;
        for i in 0..self.live.len() {
            let net = self.live[i];
            if (last_reader[net as usize] as usize) < next_gate {
                continue;
            }
            // An input's lanes share one seed: move it once.
            let (mut moved_from, mut moved_to) = (EMPTY, EMPTY);
            for lane in 0..lanes {
                let slot = Self::slot(net, lane);
                let from = self.waves[slot];
                if from == EMPTY {
                    continue;
                }
                if from != moved_from {
                    // Live waveforms are visited in arena order, so the
                    // copy only ever moves words down.
                    let start = from as usize;
                    let mut end = start;
                    while self.arena[end] != W::END {
                        end += 1;
                    }
                    self.arena.copy_within(start..=end, write);
                    (moved_from, moved_to) = (from, write as u32);
                    write += end + 1 - start;
                }
                self.waves[slot] = moved_to;
            }
            self.live[kept] = net;
            kept += 1;
        }
        self.live.truncate(kept);
        self.arena.truncate(write);
    }

    /// Whether no lane of any input of `gate` switches this step.
    #[inline(always)]
    fn quiet(&self, shared: &Shared<'_>, gate: &TimedGate) -> bool {
        shared.inputs(gate).iter().all(|&net| {
            let at = net as usize * L;
            self.waves[at..at + L].iter().fold(EMPTY, |acc, &w| acc | w) == EMPTY
        })
    }

    /// Merges lane `lane` of arity-`K` (≤ 3) `gate`'s input waveforms into
    /// its output waveform at the arena tail, replaying `EventSim`'s
    /// commit/evaluate/schedule rules (see the module docs) under gate
    /// delay `delay`. A lane with no switching input returns after `K`
    /// loads; one with a single switching input takes
    /// [`merge_single`](Self::merge_single).
    fn merge<const K: usize, const OVERLAY: bool>(
        &mut self,
        shared: &Shared<'_>,
        gate: &TimedGate,
        lane: usize,
        delay: W,
    ) {
        // `pos[i]` is input `i`'s arena cursor; `next[i]` caches the packed
        // event under it (`END` once exhausted). Packed events order by
        // time when compared whole (time is in the upper bits).
        let mut pos = [0usize; K];
        let mut active = 0;
        let mut last_active = 0;
        for (i, (p, &net)) in pos.iter_mut().zip(&gate.inputs).enumerate() {
            *p = self.waves[Self::slot(net, lane)] as usize;
            if *p != EMPTY as usize {
                active += 1;
                last_active = i;
            }
        }
        if active == 0 {
            return;
        }
        // The code-table index: input `i`'s level at bits 2(K-1-i).
        let mut idx = 0usize;
        for &net in &gate.inputs[..K] {
            idx = (idx << 2) | self.values[Self::slot(net, lane)] as usize;
        }
        let row = &shared.codes[K - 1][gate.kind as usize];
        let mut committed = self.values[Self::slot(gate.output, lane)] as usize;
        if active == 1 {
            // Four table loads map the active input's level to the coerced
            // output code. When every code is a hold or the committed value
            // no transition can ever be scheduled.
            let shift = 2 * (K - 1 - last_active);
            let base = idx & !(3 << shift);
            let mut map = [HOLD; 4];
            let mut live = false;
            for (level, code) in map.iter_mut().enumerate() {
                let c = row[(base | level << shift) & 63];
                if c != HOLD {
                    *code = shared.coerce::<OVERLAY>(gate.output, c);
                    live |= usize::from(*code) != committed;
                }
            }
            if live {
                self.merge_single(&map, committed, delay, pos[last_active]);
            }
            return;
        }
        let mut next = [W::END; K];
        for i in 0..K {
            next[i] = self.arena[pos[i]];
        }
        // The pending output transition, packed like an arena event; `END`
        // means none (its time field exceeds any real timestamp, so the
        // due-commit comparison needs no separate branch).
        let mut pending = W::END;

        loop {
            // Next input-event timestamp across all cursors.
            let mut m = W::END;
            for &e in &next {
                m = m.min(e);
            }
            if m == W::END {
                break;
            }
            let t_now = m >> 2;
            // Delta-cycle order at `t_now`: the pending output transition
            // commits first if due, then all input events at `t_now` apply,
            // then the gate evaluates once.
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = level(pending);
                pending = W::END;
            }
            // A waveform has strictly increasing times, so each input has
            // at most one event per delta cycle.
            for i in 0..K {
                if next[i] >> 2 == t_now {
                    let shift = 2 * (K - 1 - i);
                    idx = (idx & !(3 << shift)) | level(next[i]) << shift;
                    pos[i] += 1;
                    next[i] = self.arena[pos[i]];
                }
            }
            let code = row[idx & 63];
            if code != HOLD {
                let v = shared.coerce::<OVERLAY>(gate.output, code);
                schedule(&mut pending, committed, t_now + delay, usize::from(v));
            }
        }
        // Inputs exhausted: a surviving pending transition commits when the
        // event queue would have drained to it.
        if pending != W::END {
            self.arena.push(pending);
        }
    }

    /// The merge of a gate whose only switching input's waveform starts at
    /// arena position `pos`: `map` holds the coerced output code for each
    /// level of that input ([`HOLD`] for a disabled `TBUF`), so each event
    /// costs one lookup.
    fn merge_single(&mut self, map: &[u8; 4], mut committed: usize, delay: W, mut pos: usize) {
        let mut pending = W::END;
        // One waveform has strictly increasing times: one event per delta
        // cycle.
        let mut e = self.arena[pos];
        while e != W::END {
            let t_now = e >> 2;
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = level(pending);
                pending = W::END;
            }
            let code = map[level(e)];
            if code != HOLD {
                schedule(&mut pending, committed, t_now + delay, usize::from(code));
            }
            pos += 1;
            e = self.arena[pos];
        }
        if pending != W::END {
            self.arena.push(pending);
        }
    }

    /// The merge of a gate of arity ≥ 4, which no generated multiplier
    /// has: identical rules, heap-backed per-call state, and
    /// [`GateKind::eval`] in place of the code tables.
    fn merge_dyn<const OVERLAY: bool>(
        &mut self,
        shared: &Shared<'_>,
        gate: &TimedGate,
        lane: usize,
        delay: W,
    ) {
        let inputs = shared.plan.wide_inputs(gate);
        let mut pos: Vec<usize> = inputs
            .iter()
            .map(|&n| self.waves[Self::slot(n, lane)] as usize)
            .collect();
        if pos.iter().all(|&p| p == EMPTY as usize) {
            return;
        }
        let mut cur: Vec<Logic> = inputs
            .iter()
            .map(|&n| self.values[Self::slot(n, lane)])
            .collect();
        let mut committed = self.values[Self::slot(gate.output, lane)] as usize;
        let mut pending = W::END;

        loop {
            let m = pos.iter().map(|&p| self.arena[p]).min().unwrap_or(W::END);
            if m == W::END {
                break;
            }
            let t_now = m >> 2;
            if pending >> 2 <= t_now {
                self.arena.push(pending);
                committed = level(pending);
                pending = W::END;
            }
            for (p, c) in pos.iter_mut().zip(&mut cur) {
                if self.arena[*p] >> 2 == t_now {
                    *c = LEVELS[level(self.arena[*p])];
                    *p += 1;
                }
            }
            // Only the variadic kinds reach arity 4, so no tri-state hold.
            let v = shared.coerce::<OVERLAY>(gate.output, gate.kind.eval(&cur) as u8);
            schedule(&mut pending, committed, t_now + delay, usize::from(v));
        }
        if pending != W::END {
            self.arena.push(pending);
        }
    }

    /// Publishes the events lane `lane` of gate `g`'s merge left at
    /// `arena[start..]`: the closing sentinel, the (net, lane)'s `waves`
    /// entry and next value, its toggle and event counters, and
    /// output-delay tracking. A lane that emitted nothing gets the empty
    /// waveform.
    #[inline(always)]
    fn publish(
        &mut self,
        g: usize,
        gate: &TimedGate,
        lane: usize,
        start: usize,
        timing: &mut PatternTiming,
        last_out: &mut W,
    ) {
        let slot = Self::slot(gate.output, lane);
        let end = self.arena.len();
        if end == start {
            self.waves[slot] = EMPTY;
            return;
        }
        let last = self.arena[end - 1];
        self.arena.push(W::END);
        self.waves[slot] = start as u32;
        self.next[slot] = LEVELS[level(last)];

        let n = (end - start) as u64;
        if L == 1 {
            self.toggles_per_gate[g] += n;
        }
        timing.gate_toggles += n;
        timing.events += n;
        if gate.is_output {
            timing.output_toggles += n;
            *last_out = (*last_out).max(last >> 2);
        }
    }
}

impl<const L: usize> Kernel<L, u32> {
    /// The same lanes on `u64` words: settled values and delays carry
    /// over, the per-step arena starts empty.
    fn widen(&self) -> Kernel<L, u64> {
        Kernel {
            values: self.values.clone(),
            next: self.next.clone(),
            arena: vec![u64::END],
            waves: vec![EMPTY; self.waves.len()],
            delays: self.delays.iter().map(|&d| u64::from(d)).collect(),
            toggles_per_gate: Vec::new(),
            live: Vec::new(),
        }
    }
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
        assert_delay_contract(plan.max_level(), &delays);

        let shared = Shared {
            netlist,
            topology,
            plan,
            init_values: Vec::new(),
            overlay: None,
            codes: code_tables(),
            last_reader: OnceLock::new(),
        };
        let mut sim = LevelSim {
            kernel: Kernel::new(&shared),
            shared,
            cancel: None,
        };
        sim.reinit_values();
        sim
    }

    /// Swaps in a new per-gate delay assignment **without rebuilding** the
    /// compiled schedule: the gate records and waveform arena are
    /// topology-invariant and are reused as-is. Only each record's delay
    /// field is rewritten, in place, with zero allocation — this is what
    /// makes profiling a single corner an order of magnitude cheaper than
    /// constructing a fresh kernel for it.
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
    /// [`FaultOverlay`] and cancel token survive.
    ///
    /// # Panics
    ///
    /// Panics under exactly [`new`](Self::new)'s delay contract: `delays`
    /// must cover the netlist's gates, every delay must be strictly
    /// positive, and the packed-timestamp capacity bound must hold. The
    /// checks run *before* the swap, so a rejected assignment leaves the
    /// kernel's previous delays intact.
    pub fn retime(&mut self, delays: &DelayAssignment) {
        assert_covers(self.shared.netlist, delays);
        assert_delay_contract(self.shared.plan.max_level(), delays);
        self.shared.plan.set_delays(delays);
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
    /// [`FaultOverlay`] and cancel token survive.
    pub fn reset(&mut self) {
        self.kernel.values.copy_from_slice(&self.shared.init_values);
        self.reset_toggle_counts();
    }

    /// Installs a [`CancelToken`]: subsequent
    /// [`step`](Self::step)/[`settle`](Self::settle) calls poll it before
    /// each stride of 1024 gates in the sweep, the first before gate 0
    /// (once, for a step on which no input switches), and abort with
    /// [`NetlistError::Cancelled`] once it fires. Pass `None` to detach.
    /// A cancelled step commits nothing: the settled values stay as the
    /// last completed step left them.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Attaches a [`FaultOverlay`]; every net value is passed through its
    /// scalar (lane-0) coercion from now on, exactly as in
    /// [`EventSim::set_fault_overlay`](crate::EventSim::set_fault_overlay).
    /// The simulator state is re-initialized; call [`settle`](Self::settle)
    /// before measuring transitions.
    pub fn set_fault_overlay(&mut self, overlay: FaultOverlay) {
        self.shared.overlay = Some(overlay);
        self.reinit_values();
    }

    /// Removes the fault overlay and re-initializes the simulator state.
    pub fn clear_fault_overlay(&mut self) {
        self.shared.overlay = None;
        self.reinit_values();
    }

    /// Re-derives the initial settled values (constants + one functional
    /// sweep, both through the overlay's coercion if one is attached) —
    /// byte-for-byte the `EventSim` re-initialization.
    fn reinit_values(&mut self) {
        let shared = &mut self.shared;
        let values = &mut self.kernel.values;
        values.fill(Logic::X);
        for (idx, info) in shared.netlist.nets.iter().enumerate() {
            if let Driver::Const(v) = info.driver {
                values[idx] = v;
            }
        }
        if let Some(o) = &shared.overlay {
            for (idx, v) in values.iter_mut().enumerate() {
                *v = o.apply_scalar(idx, *v);
            }
        }
        let mut scratch = Vec::new();
        for gate in shared.netlist.gates() {
            scratch.clear();
            scratch.extend(gate.inputs().iter().map(|i| values[i.index()]));
            let out = gate.output().index();
            let v = gate.kind().eval(&scratch);
            values[out] = match &shared.overlay {
                Some(o) => o.apply_scalar(out, v),
                None => v,
            };
        }
        shared.init_values.clear();
        shared.init_values.extend_from_slice(values);
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
        let [timing] = self
            .kernel
            .step(&self.shared, self.cancel.as_ref(), 1, inputs)?;
        Ok(timing)
    }

    /// The current settled value of `net`.
    #[inline]
    pub fn value(&self, net: NetId) -> Logic {
        self.kernel.values[net.index()]
    }

    /// Settled primary output values in declaration order.
    pub fn output_values(&self) -> Vec<Logic> {
        self.shared
            .netlist
            .outputs()
            .iter()
            .map(|&o| self.value(o))
            .collect()
    }

    /// Cumulative output-toggle count per gate since the last reset,
    /// indexable by [`GateId::index`]; glitches included, same as
    /// [`EventSim::gate_toggle_counts`](crate::EventSim::gate_toggle_counts).
    #[inline]
    pub fn gate_toggle_counts(&self) -> &[u64] {
        &self.kernel.toggles_per_gate
    }

    /// Clears the cumulative per-gate toggle counters.
    pub fn reset_toggle_counts(&mut self) {
        self.kernel.toggles_per_gate.fill(0);
    }
}

/// Up to [`LANES`](Self::LANES) delay assignments of one netlist stepped
/// in lockstep: each [`step`](Self::step) reports, lane for lane, exactly
/// the [`PatternTiming`] a [`LevelSim`] holding that lane's delays would
/// (pinned in the `level_equiv` suite).
///
/// A `LaneSim` borrows its `LevelSim`'s compiled plan, fault overlay and
/// re-initialized state; the `LevelSim`'s own delays, settled values and
/// cancel token play no part. Each [`push_lane`](Self::push_lane) adds one
/// delay assignment and starts that lane from the re-initialized state, so
/// the lanes of a fresh `LaneSim` begin where freshly built kernels would.
/// Lanes run on `u32` event words while every loaded delay keeps a step's
/// event times under 2^30 fs, and on `u64` words otherwise (see the module
/// docs); the results are the same either way. A sweep's shared work is
/// paid whether one lane or eight are loaded, so a single assignment is
/// cheaper on a [`LevelSim`] of its own.
///
/// # Example
///
/// ```
/// use agemul_logic::{DelayModel, GateKind, Logic};
/// use agemul_netlist::{DelayAssignment, LaneSim, LevelSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let x = n.add_gate(GateKind::Not, &[a])?;
/// let y = n.add_gate(GateKind::Not, &[x])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
/// let fresh = DelayAssignment::uniform(&n, &DelayModel::nominal());
/// let aged = DelayAssignment::with_factors(&n, &DelayModel::nominal(), &[1.2, 1.2])?;
///
/// let base = LevelSim::new(&n, &topo, fresh.clone());
/// let mut lanes = LaneSim::new(&base);
/// lanes.push_lane(&fresh);
/// lanes.push_lane(&aged);
/// lanes.settle(&[Logic::Zero])?;
/// let timings = lanes.step(&[Logic::One])?;
/// assert!(timings[1].delay_ns > timings[0].delay_ns);
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Debug)]
pub struct LaneSim<'s> {
    shared: &'s Shared<'s>,
    kernel: LaneKernel,
    /// Lanes loaded so far.
    lanes: usize,
    /// The largest gate delay over the loaded lanes.
    max_delay_fs: u64,
    /// The last step's timings, lane by lane.
    timings: [PatternTiming; LANES],
    /// Cumulative gate-output toggles per lane since the last settle.
    toggles: [u64; LANES],
    cancel: Option<CancelToken>,
}

/// The lane kernel on the narrowest event word that holds its delays.
#[derive(Debug)]
enum LaneKernel {
    Narrow(Kernel<LANES, u32>),
    Wide(Kernel<LANES, u64>),
}

impl<'s> LaneSim<'s> {
    /// The most lanes one `LaneSim` steps.
    pub const LANES: usize = LANES;

    /// A lane kernel over `base`'s netlist, plan and fault overlay, with
    /// no lanes loaded.
    pub fn new(base: &'s LevelSim<'s>) -> Self {
        LaneSim {
            shared: &base.shared,
            kernel: LaneKernel::Narrow(Kernel::new(&base.shared)),
            lanes: 0,
            max_delay_fs: 0,
            timings: [PatternTiming::default(); LANES],
            toggles: [0; LANES],
            cancel: None,
        }
    }

    /// Loads `delays` into the next lane, whose settled values start from
    /// the re-initialized state (constants and one functional sweep).
    ///
    /// # Panics
    ///
    /// Panics if [`LANES`](Self::LANES) lanes are loaded already, or under
    /// [`LevelSim::new`]'s delay contract: `delays` must cover the
    /// netlist's gates, every delay must be strictly positive, and the
    /// 62-bit timestamp bound must hold.
    pub fn push_lane(&mut self, delays: &DelayAssignment) {
        assert!(self.lanes < LANES, "a LaneSim steps at most {LANES} lanes");
        assert_covers(self.shared.netlist, delays);
        let max_level = self.shared.plan.max_level();
        let max = assert_delay_contract(max_level, delays);
        self.max_delay_fs = self.max_delay_fs.max(max);
        if let LaneKernel::Narrow(k) = &self.kernel {
            if !fits(max_level, self.max_delay_fs, u32::TIME_BITS) {
                self.kernel = LaneKernel::Wide(k.widen());
            }
        }
        let lane = self.lanes;
        let init = &self.shared.init_values;
        match &mut self.kernel {
            LaneKernel::Narrow(k) => k.load_lane(lane, delays, init),
            LaneKernel::Wide(k) => k.load_lane(lane, delays, init),
        }
        self.toggles[lane] = 0;
        self.lanes += 1;
    }

    /// The number of lanes loaded.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Installs a [`CancelToken`], polled as by
    /// [`LevelSim::set_cancel_token`]. Pass `None` to detach.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// Applies `inputs` to every lane and runs to quiescence, discarding
    /// timing and clearing the lanes' toggle totals.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count, or
    /// [`NetlistError::Cancelled`] once the cancel token fires.
    pub fn settle(&mut self, inputs: &[Logic]) -> Result<(), NetlistError> {
        self.step(inputs)?;
        self.toggles = [0; LANES];
        Ok(())
    }

    /// Applies `inputs` to every lane on top of its settled state and
    /// reports each lane's timing, in load order.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::WidthMismatch`] on a wrong input count, or
    /// [`NetlistError::Cancelled`] once the cancel token fires. A
    /// cancelled step commits nothing: every lane's settled values stay as
    /// the last completed step left them.
    pub fn step(&mut self, inputs: &[Logic]) -> Result<&[PatternTiming], NetlistError> {
        let cancel = self.cancel.as_ref();
        self.timings = match &mut self.kernel {
            LaneKernel::Narrow(k) => k.step(self.shared, cancel, self.lanes, inputs)?,
            LaneKernel::Wide(k) => k.step(self.shared, cancel, self.lanes, inputs)?,
        };
        let timings = &self.timings[..self.lanes];
        for (total, t) in self.toggles.iter_mut().zip(timings) {
            *total += t.gate_toggles;
        }
        Ok(timings)
    }

    /// The current settled value of `net` in lane `lane`.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not loaded.
    pub fn value(&self, lane: usize, net: NetId) -> Logic {
        assert!(lane < self.lanes, "lane {lane} of {} loaded", self.lanes);
        let slot = net.index() * LANES + lane;
        match &self.kernel {
            LaneKernel::Narrow(k) => k.values[slot],
            LaneKernel::Wide(k) => k.values[slot],
        }
    }

    /// Lane `lane`'s gate-output toggles (glitches included) since the
    /// last [`settle`](Self::settle): the sum of
    /// [`LevelSim::gate_toggle_counts`] a `LevelSim` holding that lane's
    /// delays would report.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not loaded.
    pub fn toggle_total(&self, lane: usize) -> u64 {
        self.toggles[..self.lanes][lane]
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

    #[test]
    fn code_tables_match_gate_eval() {
        let tables = code_tables();
        for (ki, kind) in GateKind::ALL.into_iter().enumerate() {
            for k in 1..=3usize {
                let row = &tables[k - 1][ki];
                for (idx, &code) in row.iter().enumerate() {
                    let reachable = kind.accepts_arity(k) && idx < 1 << (2 * k);
                    if !reachable {
                        assert_eq!(code, Logic::X as u8, "{kind} arity {k} pad {idx}");
                        continue;
                    }
                    let levels: Vec<Logic> = (0..k)
                        .map(|i| LEVELS[(idx >> (2 * (k - 1 - i))) & 3])
                        .collect();
                    let out = kind.eval(&levels);
                    let disabled_tbuf =
                        kind == GateKind::Tbuf && levels[1].read().to_bool() == Some(false);
                    if disabled_tbuf {
                        assert_eq!(code, HOLD, "{kind} {levels:?}");
                    } else {
                        assert_ne!(code, HOLD, "{kind} {levels:?}");
                        assert_eq!(code, out as u8, "{kind} {levels:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn zero_switch_step_is_quiet_and_matches_event_sim() {
        let (mut n, [a, b, c, pulse]) = with_pulse();
        let y = n.add_gate(GateKind::Mux2, &[pulse, b, c]).unwrap();
        n.mark_output(y, "y");
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut level = LevelSim::new(&n, &t, d.clone());
        let mut event = EventSim::new(&n, &t, d);
        let before = [Logic::Zero, Logic::One, Logic::X];
        let after = [Logic::One, Logic::One, Logic::Zero];
        level.settle(&before).unwrap();
        event.settle(&before).unwrap();
        assert_eq!(level.step(&after).unwrap(), event.step(&after).unwrap());

        level.settle(&after).unwrap();
        event.settle(&after).unwrap();
        let tl = level.step(&after).unwrap();
        assert_eq!(tl, PatternTiming::default());
        assert_eq!(tl, event.step(&after).unwrap());
        assert!(level.gate_toggle_counts().iter().all(|&c| c == 0));
        for net in [a, b, c, pulse, y] {
            assert_eq!(level.value(net), event.value(net));
        }
        // A switching step after the quiet ones still replays exactly.
        assert_eq!(level.step(&before).unwrap(), event.step(&before).unwrap());
        assert_eq!(level.step(&after).unwrap(), event.step(&after).unwrap());
        assert_eq!(level.gate_toggle_counts(), event.gate_toggle_counts());
    }

    #[test]
    fn cancelled_token_aborts_zero_switch_step() {
        use crate::CancelToken;
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let mut sim = LevelSim::new(&n, &t, d);
        sim.settle(&[Logic::One]).unwrap();

        let token = CancelToken::new();
        token.cancel();
        sim.set_cancel_token(Some(token));
        assert_eq!(sim.step(&[Logic::One]), Err(NetlistError::Cancelled));
        assert_eq!(sim.settle(&[Logic::One]), Err(NetlistError::Cancelled));
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

    #[test]
    fn cancelled_token_aborts_lane_step_and_lanes_recover() {
        use crate::CancelToken;
        let n = twin_inverters();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let base = LevelSim::new(&n, &t, d.clone());
        let mut lanes = LaneSim::new(&base);
        lanes.push_lane(&d);
        lanes.push_lane(&d);
        lanes.settle(&[Logic::Zero, Logic::Zero]).unwrap();

        let token = CancelToken::new();
        token.cancel();
        lanes.set_cancel_token(Some(token));
        // Both a switching step (polled in the sweep) and a quiet one.
        assert_eq!(
            lanes.step(&[Logic::One, Logic::Zero]),
            Err(NetlistError::Cancelled)
        );
        assert_eq!(
            lanes.step(&[Logic::Zero, Logic::Zero]),
            Err(NetlistError::Cancelled)
        );

        // A cancelled step commits nothing: the lanes still hold (0, 0).
        lanes.set_cancel_token(None);
        let timings = lanes.step(&[Logic::Zero, Logic::One]).unwrap().to_vec();
        let mut fresh = LevelSim::new(&n, &t, d);
        fresh.settle(&[Logic::Zero, Logic::Zero]).unwrap();
        let expect = fresh.step(&[Logic::Zero, Logic::One]).unwrap();
        assert_eq!(timings, [expect, expect]);
        for lane in 0..2 {
            assert_eq!(
                lanes.value(lane, n.outputs()[0]),
                fresh.value(n.outputs()[0])
            );
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 lanes")]
    fn ninth_lane_rejected() {
        let n = inverter_chain();
        let t = n.topology().unwrap();
        let d = DelayAssignment::uniform(&n, &DelayModel::nominal());
        let base = LevelSim::new(&n, &t, d.clone());
        let mut lanes = LaneSim::new(&base);
        for _ in 0..=LaneSim::LANES {
            lanes.push_lane(&d);
        }
    }

    /// A 5000-inverter chain switches every link on every step: far more
    /// waveform words than the lane arena keeps. An early link and input
    /// `b` stay live to the chain's end, so compaction moves live
    /// waveforms, a shared input seed among them. The arena stays under
    /// twice its threshold while every lane matches its own `LevelSim`.
    #[test]
    fn lane_arena_compacts_and_stays_exact() {
        let mut n = Netlist::new();
        let a = n.add_input("a");
        let b = n.add_input("b");
        let mut x = a;
        let mut early = a;
        for i in 0..5000 {
            x = n.add_gate(GateKind::Not, &[x]).unwrap();
            if i == 10 {
                early = x;
            }
        }
        let y = n.add_gate(GateKind::Xor, &[x, early]).unwrap();
        let x = n.add_gate(GateKind::And, &[y, b]).unwrap();
        n.mark_output(x, "x");
        let gates = n.gate_count();
        let t = n.topology().unwrap();
        let delays: Vec<DelayAssignment> = (0..LANES)
            .map(|lane| {
                let f = 1.0 + 0.05 * lane as f64;
                DelayAssignment::with_factors(&n, &DelayModel::nominal(), &vec![f; gates]).unwrap()
            })
            .collect();
        let base = LevelSim::new(&n, &t, delays[0].clone());
        let mut lanes = LaneSim::new(&base);
        for d in &delays {
            lanes.push_lane(d);
        }
        let mut singles: Vec<_> = delays
            .iter()
            .map(|d| LevelSim::new(&n, &t, d.clone()))
            .collect();
        let vectors = [
            [Logic::Zero, Logic::Zero],
            [Logic::One, Logic::Zero],
            [Logic::One, Logic::One],
            [Logic::Zero, Logic::Zero],
        ];
        let mut busiest = 0;
        for v in &vectors {
            let timings = lanes.step(v).unwrap().to_vec();
            let events: u64 = timings.iter().map(|t| t.events).sum();
            busiest = busiest.max(events);
            for (lane, single) in singles.iter_mut().enumerate() {
                assert_eq!(
                    timings[lane],
                    single.step(v).unwrap(),
                    "lane {lane} on {v:?}"
                );
                assert_eq!(lanes.value(lane, x), single.value(x));
            }
            let LaneKernel::Narrow(k) = &lanes.kernel else {
                panic!("nanosecond delays fit u32 words");
            };
            assert!(
                k.arena.len() < 2 * COMPACT_MIN,
                "{} words for {events} events",
                k.arena.len()
            );
        }
        // Without compaction the arena would have held every event.
        assert!(busiest > 2 * COMPACT_MIN as u64, "{busiest} events");
    }
}
