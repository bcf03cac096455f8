//! 64-lane bit-parallel (bit-sliced) logic words.
//!
//! A [`LogicWord`] holds one [`Logic`] value for each of 64 independent
//! *lanes*; lane `i` of every word in a simulation belongs to pattern `i`.
//! Gate evaluation then becomes a handful of word-wide bitwise operations
//! that process all 64 patterns at once — the classic bit-sliced simulation
//! trick, and the core of `agemul-netlist`'s `BatchSim`.
//!
//! # Encoding
//!
//! Three planes encode the four-valued [`Logic`] per lane:
//!
//! | `known` | `z` | `value` | lane level |
//! |---------|-----|---------|------------|
//! | 1       | –   | 0       | [`Logic::Zero`] |
//! | 1       | –   | 1       | [`Logic::One`]  |
//! | 0       | 1   | –       | [`Logic::Z`]    |
//! | 0       | 0   | –       | [`Logic::X`]    |
//!
//! Two invariants are maintained by every constructor and every gate
//! formula: `value ⊆ known` (unknown lanes carry a zero value bit) and
//! `z ∩ known = ∅`. They are what make the Kleene gate formulas below
//! single-pass: e.g. n-ary AND is `value = AND vᵢ`,
//! `known = (AND kᵢ) | (OR kᵢ&!vᵢ)` with no per-lane case analysis.
//!
//! The `z` plane exists only so a disabled [`GateKind::Tbuf`] can float its
//! output exactly as the scalar simulator does; gates *reading* a word
//! collapse `Z` to `X` first ([`LogicWord::read`]), mirroring
//! [`Logic::read`].

use crate::{GateKind, Logic};

/// 64 four-valued logic levels, one per lane, stored as three bit planes.
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic, LogicWord};
///
/// let a = LogicWord::from_lanes(&[Logic::One, Logic::Zero, Logic::X]);
/// let b = LogicWord::splat(Logic::One);
/// let out = GateKind::And.eval_wide(&[a, b]);
/// assert_eq!(out.get(0), Logic::One);  // 1 & 1
/// assert_eq!(out.get(1), Logic::Zero); // 0 & 1
/// assert_eq!(out.get(2), Logic::X);    // X & 1
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LogicWord {
    value: u64,
    known: u64,
    z: u64,
}

impl LogicWord {
    /// All 64 lanes at [`Logic::X`].
    pub const ALL_X: LogicWord = LogicWord {
        value: 0,
        known: 0,
        z: 0,
    };

    /// All 64 lanes at [`Logic::Zero`].
    pub const ALL_ZERO: LogicWord = LogicWord {
        value: 0,
        known: !0,
        z: 0,
    };

    /// All 64 lanes at [`Logic::One`].
    pub const ALL_ONE: LogicWord = LogicWord {
        value: !0,
        known: !0,
        z: 0,
    };

    /// Builds a word from raw planes, re-normalizing the invariants
    /// (`value ⊆ known`, `z ∩ known = ∅`).
    #[inline]
    pub fn from_planes(value: u64, known: u64, z: u64) -> LogicWord {
        LogicWord {
            value: value & known,
            known,
            z: z & !known,
        }
    }

    /// Builds a fully-known two-valued word from a plain bit vector.
    #[inline]
    pub fn from_bits(bits: u64) -> LogicWord {
        LogicWord {
            value: bits,
            known: !0,
            z: 0,
        }
    }

    /// The same level in every lane.
    #[inline]
    pub fn splat(level: Logic) -> LogicWord {
        match level {
            Logic::Zero => LogicWord::ALL_ZERO,
            Logic::One => LogicWord::ALL_ONE,
            Logic::X => LogicWord::ALL_X,
            Logic::Z => LogicWord {
                value: 0,
                known: 0,
                z: !0,
            },
        }
    }

    /// Packs up to 64 levels into consecutive lanes; lanes beyond
    /// `levels.len()` are [`Logic::X`].
    ///
    /// # Panics
    ///
    /// Panics if more than 64 levels are given.
    pub fn from_lanes(levels: &[Logic]) -> LogicWord {
        assert!(levels.len() <= 64, "a LogicWord has 64 lanes");
        let mut w = LogicWord::ALL_X;
        for (i, &v) in levels.iter().enumerate() {
            w.set(i, v);
        }
        w
    }

    /// The level in lane `lane` (0–63).
    #[inline]
    pub fn get(self, lane: usize) -> Logic {
        debug_assert!(lane < 64);
        let bit = 1u64 << lane;
        if self.known & bit != 0 {
            if self.value & bit != 0 {
                Logic::One
            } else {
                Logic::Zero
            }
        } else if self.z & bit != 0 {
            Logic::Z
        } else {
            Logic::X
        }
    }

    /// Sets lane `lane` (0–63) to `level`.
    #[inline]
    pub fn set(&mut self, lane: usize, level: Logic) {
        debug_assert!(lane < 64);
        let bit = 1u64 << lane;
        self.value &= !bit;
        self.known &= !bit;
        self.z &= !bit;
        match level {
            Logic::Zero => self.known |= bit,
            Logic::One => {
                self.known |= bit;
                self.value |= bit;
            }
            Logic::Z => self.z |= bit,
            Logic::X => {}
        }
    }

    /// The value plane: lanes that are known `One`.
    #[inline]
    pub fn ones(self) -> u64 {
        self.value
    }

    /// Lanes that are known `Zero`.
    #[inline]
    pub fn zeros(self) -> u64 {
        self.known & !self.value
    }

    /// The known plane: lanes holding a defined `0`/`1`.
    #[inline]
    pub fn known(self) -> u64 {
        self.known
    }

    /// Lanes that are not a defined value (`X` or `Z`).
    #[inline]
    pub fn unknown(self) -> u64 {
        !self.known
    }

    /// Lanes at high impedance.
    #[inline]
    pub fn z_lanes(self) -> u64 {
        self.z
    }

    /// Collapses `Z` lanes to `X`, mirroring [`Logic::read`] — the view a
    /// gate input has of this word.
    #[inline]
    pub fn read(self) -> LogicWord {
        LogicWord {
            value: self.value,
            known: self.known,
            z: 0,
        }
    }

    /// Forces every lane in `mask` to [`Logic::Zero`] — the word-level form
    /// of a stuck-at-0 fault. Lanes outside `mask` are untouched.
    #[inline]
    pub fn force_zero(self, mask: u64) -> LogicWord {
        LogicWord {
            value: self.value & !mask,
            known: self.known | mask,
            z: self.z & !mask,
        }
    }

    /// Forces every lane in `mask` to [`Logic::One`] — the word-level form
    /// of a stuck-at-1 fault. Lanes outside `mask` are untouched.
    #[inline]
    pub fn force_one(self, mask: u64) -> LogicWord {
        LogicWord {
            value: self.value | mask,
            known: self.known | mask,
            z: self.z & !mask,
        }
    }

    /// Inverts every *defined* lane in `mask` — the word-level form of a
    /// transient bit-flip. Undefined lanes in `mask` (`X` or `Z`) collapse
    /// to `X`: flipping an unknown yields an unknown, and a floating lane
    /// is read (Z → X) before the flip, mirroring [`Logic::read`]. Lanes
    /// outside `mask` are untouched.
    #[inline]
    pub fn flip(self, mask: u64) -> LogicWord {
        LogicWord {
            value: self.value ^ (mask & self.known),
            known: self.known,
            z: self.z & !mask,
        }
    }

    /// Sum of per-lane [`Logic::high_weight`] over the `lanes` lowest lanes
    /// (known `One` counts 1, undefined counts ½) — the batched form of
    /// signal-probability accumulation.
    #[inline]
    pub fn high_weight_sum(self, lanes: usize) -> f64 {
        let mask = lane_mask(lanes);
        let ones = (self.value & mask).count_ones() as f64;
        let unknown = (!self.known & mask).count_ones() as f64;
        // Exact: both terms are integers, the weights are 1 and 0.5.
        ones + 0.5 * unknown
    }

    /// Unpacks the `lanes` lowest lanes into `out[..lanes]`.
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than `lanes` or `lanes > 64`.
    pub fn write_lanes(self, lanes: usize, out: &mut [Logic]) {
        assert!(lanes <= 64, "a LogicWord has 64 lanes");
        for (lane, slot) in out[..lanes].iter_mut().enumerate() {
            *slot = self.get(lane);
        }
    }
}

impl Default for LogicWord {
    fn default() -> Self {
        LogicWord::ALL_X
    }
}

impl From<Logic> for LogicWord {
    fn from(level: Logic) -> Self {
        LogicWord::splat(level)
    }
}

/// Mask selecting the `lanes` lowest lanes (`lanes` ≤ 64).
#[inline]
pub fn lane_mask(lanes: usize) -> u64 {
    debug_assert!(lanes <= 64);
    if lanes >= 64 {
        !0
    } else {
        (1u64 << lanes) - 1
    }
}

impl GateKind {
    /// Evaluates the gate on four-valued lane words, lane-for-lane
    /// equivalent to [`GateKind::eval`]:
    /// `eval_wide(ws).get(i) == eval(&[ws[0].get(i), ...])` for every lane.
    ///
    /// The formulas are the word-level Kleene semantics with controlling
    /// values — e.g. an AND output is known wherever *all* inputs are known
    /// or *any* input is a known zero — and only a disabled
    /// [`GateKind::Tbuf`] ever produces a `Z` lane.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` is not a legal arity for the gate kind.
    // Inlined across the crate boundary into `BatchSim`'s sweep, its only
    // caller: as an out-of-line call the batch layer runs ~15 % slower.
    #[inline]
    pub fn eval_wide(self, inputs: &[LogicWord]) -> LogicWord {
        assert!(
            self.accepts_arity(inputs.len()),
            "gate {self} evaluated with illegal arity {}",
            inputs.len()
        );
        match self {
            GateKind::Buf => inputs[0].read(),
            GateKind::Not => {
                let a = inputs[0].read();
                LogicWord {
                    value: a.known & !a.value,
                    known: a.known,
                    z: 0,
                }
            }
            GateKind::And => wide_and(inputs),
            GateKind::Or => wide_or(inputs),
            GateKind::Nand => wide_not(wide_and(inputs)),
            GateKind::Nor => wide_not(wide_or(inputs)),
            GateKind::Xor => wide_xor(inputs),
            GateKind::Xnor => wide_not(wide_xor(inputs)),
            GateKind::Mux2 => {
                let (in0, in1, sel) = (inputs[0].read(), inputs[1].read(), inputs[2].read());
                // Lanes where both branches agree on a known value: the
                // output is defined there even under an unknown select.
                let agree = in0.known & in1.known & !(in0.value ^ in1.value);
                let picked_known = (sel.value & in1.known) | (!sel.value & in0.known);
                let picked_value = (sel.value & in1.value) | (!sel.value & in0.value);
                let known = (sel.known & picked_known) | (!sel.known & agree);
                let value = (sel.known & picked_value) | (!sel.known & agree & in0.value);
                LogicWord {
                    value: value & known,
                    known,
                    z: 0,
                }
            }
            GateKind::Tbuf => {
                let (data, en) = (inputs[0].read(), inputs[1].read());
                // Driving lanes: enable known-one. Floating (Z) lanes:
                // enable known-zero. Unknown-enable lanes: X.
                let driving = en.known & en.value;
                LogicWord {
                    value: driving & data.value,
                    known: driving & data.known,
                    z: en.known & !en.value,
                }
            }
        }
    }
}

#[inline]
fn wide_not(a: LogicWord) -> LogicWord {
    LogicWord {
        value: a.known & !a.value,
        known: a.known,
        z: 0,
    }
}

#[inline]
fn wide_and(inputs: &[LogicWord]) -> LogicWord {
    let mut value = !0u64;
    let mut all_known = !0u64;
    let mut any_zero = 0u64;
    for w in inputs {
        let r = w.read();
        value &= r.value;
        all_known &= r.known;
        any_zero |= r.known & !r.value;
    }
    let known = all_known | any_zero;
    LogicWord {
        value: value & known,
        known,
        z: 0,
    }
}

#[inline]
fn wide_or(inputs: &[LogicWord]) -> LogicWord {
    let mut value = 0u64;
    let mut all_known = !0u64;
    for w in inputs {
        let r = w.read();
        value |= r.value;
        all_known &= r.known;
    }
    // Known where every input is known, or where any known one dominates.
    let known = all_known | value;
    LogicWord {
        value: value & known,
        known,
        z: 0,
    }
}

#[inline]
fn wide_xor(inputs: &[LogicWord]) -> LogicWord {
    let mut value = 0u64;
    let mut all_known = !0u64;
    for w in inputs {
        let r = w.read();
        value ^= r.value;
        all_known &= r.known;
    }
    LogicWord {
        value: value & all_known,
        known: all_known,
        z: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_round_trip() {
        for level in Logic::ALL {
            let mut w = LogicWord::default();
            w.set(17, level);
            assert_eq!(w.get(17), level);
            assert_eq!(w.get(16), Logic::X);
            assert_eq!(LogicWord::splat(level).get(63), level);
        }
    }

    #[test]
    fn from_lanes_matches_set() {
        let levels = [Logic::One, Logic::Z, Logic::X, Logic::Zero, Logic::One];
        let w = LogicWord::from_lanes(&levels);
        for (i, &l) in levels.iter().enumerate() {
            assert_eq!(w.get(i), l);
        }
        assert_eq!(w.get(levels.len()), Logic::X);
    }

    #[test]
    fn invariants_hold_after_normalization() {
        let w = LogicWord::from_planes(0xFFFF, 0x00FF, 0xF0F0);
        assert_eq!(w.ones() & !w.known(), 0, "value must be within known");
        assert_eq!(w.z_lanes() & w.known(), 0, "z must be outside known");
    }

    /// Exhaustive lane-for-lane equivalence of `eval_wide` against the
    /// scalar `eval`, for every gate kind over all 4^arity input
    /// combinations (packed so that one word covers the whole cross
    /// product).
    #[test]
    fn eval_wide_matches_scalar_exhaustively() {
        for kind in GateKind::ALL {
            for arity in [
                kind.fixed_arity().unwrap_or(2),
                kind.fixed_arity().unwrap_or(3),
            ] {
                let combos = 4usize.pow(arity as u32);
                assert!(combos <= 64, "arity {arity} does not fit one word");
                // Lane c encodes combination c: input j takes level
                // (c / 4^j) % 4.
                let words: Vec<LogicWord> = (0..arity)
                    .map(|j| {
                        let levels: Vec<Logic> = (0..combos)
                            .map(|c| Logic::ALL[(c / 4usize.pow(j as u32)) % 4])
                            .collect();
                        LogicWord::from_lanes(&levels)
                    })
                    .collect();
                let wide = kind.eval_wide(&words);
                for c in 0..combos {
                    let scalar_inputs: Vec<Logic> = (0..arity).map(|j| words[j].get(c)).collect();
                    let expected = kind.eval(&scalar_inputs);
                    assert_eq!(
                        wide.get(c),
                        expected,
                        "{kind} lane {c} inputs {scalar_inputs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn high_weight_sum_matches_scalar_sum() {
        let levels = [
            Logic::One,
            Logic::Zero,
            Logic::X,
            Logic::Z,
            Logic::One,
            Logic::X,
        ];
        let w = LogicWord::from_lanes(&levels);
        let scalar: f64 = levels.iter().map(|l| l.high_weight()).sum();
        assert_eq!(w.high_weight_sum(levels.len()), scalar);
        // Lanes beyond the count must not contribute.
        assert_eq!(w.high_weight_sum(0), 0.0);
    }

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask(0), 0);
        assert_eq!(lane_mask(1), 1);
        assert_eq!(lane_mask(63), (1u64 << 63) - 1);
        assert_eq!(lane_mask(64), !0);
    }

    /// `force_zero`/`force_one`/`flip` agree lane-for-lane with the scalar
    /// coercion semantics and preserve the plane invariants.
    #[test]
    fn fault_coercions_match_scalar_semantics() {
        let levels = [Logic::Zero, Logic::One, Logic::X, Logic::Z];
        let w = LogicWord::from_lanes(&levels);
        // Mask covers lanes 0 and 2 (a defined and an undefined lane) plus
        // lane 3 (Z); lane 1 must be untouched by every coercion.
        let mask = 0b1101u64;

        let fz = w.force_zero(mask);
        assert_eq!(
            [fz.get(0), fz.get(1), fz.get(2), fz.get(3)],
            [Logic::Zero, Logic::One, Logic::Zero, Logic::Zero]
        );

        let fo = w.force_one(mask);
        assert_eq!(
            [fo.get(0), fo.get(1), fo.get(2), fo.get(3)],
            [Logic::One, Logic::One, Logic::One, Logic::One]
        );

        let fl = w.flip(mask);
        assert_eq!(
            [fl.get(0), fl.get(1), fl.get(2), fl.get(3)],
            [Logic::One, Logic::One, Logic::X, Logic::X]
        );

        for coerced in [fz, fo, fl] {
            assert_eq!(coerced.ones() & !coerced.known(), 0, "value ⊆ known");
            assert_eq!(coerced.z_lanes() & coerced.known(), 0, "z ∩ known = ∅");
        }
    }

    #[test]
    fn fault_coercions_with_empty_mask_are_identity() {
        let w = LogicWord::from_lanes(&[Logic::One, Logic::Z, Logic::X, Logic::Zero]);
        assert_eq!(w.force_zero(0), w);
        assert_eq!(w.force_one(0), w);
        assert_eq!(w.flip(0), w);
    }

    #[test]
    fn write_lanes_unpacks() {
        let w = LogicWord::from_lanes(&[Logic::Zero, Logic::One, Logic::Z]);
        let mut out = [Logic::X; 3];
        w.write_lanes(3, &mut out);
        assert_eq!(out, [Logic::Zero, Logic::One, Logic::Z]);
    }
}
