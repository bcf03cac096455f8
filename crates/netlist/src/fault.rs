//! Lane-masked fault-injection overlay for the simulators.
//!
//! A [`FaultOverlay`] is a sparse map from nets to per-lane coercion masks.
//! It is applied *after* a net's driver settles its value, coercing the
//! observed level without modifying the netlist itself: stuck-at faults pin
//! a net, flip faults invert it. Because the masks are per-lane, a single
//! [`BatchSim`](crate::BatchSim) sweep can carry up to 64 *different*
//! faulty variants of the circuit — lane `i` sees only the faults whose
//! mask includes bit `i`.
//!
//! The overlay deliberately lives outside the simulators' fault-free hot
//! paths: [`FuncSim::eval_with_overlay`](crate::FuncSim::eval_with_overlay)
//! and [`BatchSim::eval_batch_with_overlay`](crate::BatchSim::eval_batch_with_overlay)
//! are separate entry points, and [`EventSim`](crate::EventSim) only
//! consults an overlay when one has been attached.

use agemul_logic::{Logic, LogicWord};

use crate::{NetId, Netlist, NetlistError};

/// Sentinel in the dense per-net slot table: net carries no fault.
const SLOT_NONE: u32 = u32::MAX;

/// The net-level coercion a fault applies.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// The net reads as a constant `0` regardless of its driver.
    StuckAt0,
    /// The net reads as a constant `1` regardless of its driver.
    StuckAt1,
    /// Defined levels on the net are inverted (`X`/`Z` stay unknown) —
    /// the coercion behind transient single-cycle bit-flips.
    Flip,
}

/// Per-net lane masks, kept pairwise disjoint by [`FaultOverlay::add`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct LaneMasks {
    force0: u64,
    force1: u64,
    flip: u64,
}

/// A sparse set of lane-masked net faults.
///
/// # Example
///
/// ```
/// use agemul_logic::{GateKind, Logic};
/// use agemul_netlist::{FaultKind, FaultOverlay, FuncSim, Netlist};
///
/// let mut n = Netlist::new();
/// let a = n.add_input("a");
/// let b = n.add_input("b");
/// let y = n.add_gate(GateKind::And, &[a, b])?;
/// n.mark_output(y, "y");
/// let topo = n.topology()?;
///
/// let mut overlay = FaultOverlay::new(&n);
/// overlay.add(a, FaultKind::StuckAt0, 1)?; // lane 0 only
///
/// let mut sim = FuncSim::new(&n, &topo);
/// sim.eval_with_overlay(&[Logic::One, Logic::One], &overlay)?;
/// assert_eq!(sim.value(y), Logic::Zero); // a is stuck at 0
/// # Ok::<(), agemul_netlist::NetlistError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultOverlay {
    /// Dense per-net index into `masks`; `SLOT_NONE` means unfaulted.
    slot: Vec<u32>,
    masks: Vec<LaneMasks>,
    /// Faulted nets in first-touch order, for reporting.
    nets: Vec<NetId>,
}

impl FaultOverlay {
    /// Creates an empty overlay sized for `netlist`.
    pub fn new(netlist: &Netlist) -> Self {
        Self::with_net_count(netlist.net_count())
    }

    /// Creates an empty overlay for a netlist with `net_count` nets.
    pub fn with_net_count(net_count: usize) -> Self {
        FaultOverlay {
            slot: vec![SLOT_NONE; net_count],
            masks: Vec::new(),
            nets: Vec::new(),
        }
    }

    /// Adds a fault on `net` affecting the lanes in `lanes` (bit `i` set →
    /// lane `i` sees the fault). Scalar simulators observe lane 0.
    ///
    /// Later calls win on overlapping lanes, so the three coercion masks of
    /// a net stay pairwise disjoint and their application order is
    /// immaterial.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::UnknownNet`] if `net` is out of range for
    /// the netlist this overlay was sized for, or if the overlay already
    /// faults `u32::MAX` nets (its slot indices are 32-bit).
    pub fn add(&mut self, net: NetId, kind: FaultKind, lanes: u64) -> Result<(), NetlistError> {
        let idx = net.index();
        if idx >= self.slot.len() {
            return Err(NetlistError::UnknownNet { net });
        }
        let s = if self.slot[idx] == SLOT_NONE {
            let s = match u32::try_from(self.masks.len()) {
                Ok(s) if s != SLOT_NONE => s,
                _ => return Err(NetlistError::UnknownNet { net }),
            };
            self.slot[idx] = s;
            self.masks.push(LaneMasks::default());
            self.nets.push(net);
            s
        } else {
            self.slot[idx]
        };
        let m = &mut self.masks[s as usize];
        m.force0 &= !lanes;
        m.force1 &= !lanes;
        m.flip &= !lanes;
        match kind {
            FaultKind::StuckAt0 => m.force0 |= lanes,
            FaultKind::StuckAt1 => m.force1 |= lanes,
            FaultKind::Flip => m.flip |= lanes,
        }
        Ok(())
    }

    /// `true` if no fault has been added.
    pub fn is_empty(&self) -> bool {
        self.nets.is_empty()
    }

    /// The faulted nets, in first-touch order.
    pub fn faulted_nets(&self) -> &[NetId] {
        &self.nets
    }

    /// `true` if `net` carries at least one fault.
    #[inline]
    pub fn affects(&self, net: NetId) -> bool {
        self.slot.get(net.index()).is_some_and(|&s| s != SLOT_NONE)
    }

    /// Applies the net's coercions to a lane word. Identity for unfaulted
    /// nets and for lanes outside every mask.
    #[inline]
    pub fn apply_word(&self, net_index: usize, w: LogicWord) -> LogicWord {
        let s = self.slot[net_index];
        if s == SLOT_NONE {
            return w;
        }
        let m = self.masks[s as usize];
        w.flip(m.flip).force_one(m.force1).force_zero(m.force0)
    }

    /// Applies the net's lane-0 coercion to a scalar level — the view the
    /// scalar simulators ([`FuncSim`](crate::FuncSim),
    /// [`EventSim`](crate::EventSim)) have of the overlay.
    #[inline]
    pub fn apply_scalar(&self, net_index: usize, v: Logic) -> Logic {
        let s = self.slot[net_index];
        if s == SLOT_NONE {
            return v;
        }
        let m = self.masks[s as usize];
        if m.force0 & 1 != 0 {
            Logic::Zero
        } else if m.force1 & 1 != 0 {
            Logic::One
        } else if m.flip & 1 != 0 {
            match v.read() {
                Logic::Zero => Logic::One,
                Logic::One => Logic::Zero,
                other => other, // X stays X
            }
        } else {
            v
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Netlist {
        let mut n = Netlist::new();
        n.add_input("a");
        n.add_input("b");
        n
    }

    #[test]
    fn rejects_out_of_range_net() {
        let n = tiny();
        let mut o = FaultOverlay::new(&n);
        let bogus = NetId::from_index(99);
        assert_eq!(
            o.add(bogus, FaultKind::StuckAt0, !0).unwrap_err(),
            NetlistError::UnknownNet { net: bogus }
        );
    }

    #[test]
    fn empty_overlay_is_identity() {
        let n = tiny();
        let o = FaultOverlay::new(&n);
        assert!(o.is_empty());
        for level in Logic::ALL {
            assert_eq!(o.apply_scalar(0, level), level);
        }
        let w = LogicWord::from_bits(0xDEAD_BEEF);
        assert_eq!(o.apply_word(1, w), w);
    }

    #[test]
    fn later_adds_win_on_overlapping_lanes() {
        let n = tiny();
        let a = n.inputs()[0];
        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::StuckAt0, 0b11).unwrap();
        o.add(a, FaultKind::StuckAt1, 0b10).unwrap();
        let w = o.apply_word(a.index(), LogicWord::ALL_X);
        assert_eq!(w.get(0), Logic::Zero);
        assert_eq!(w.get(1), Logic::One);
        assert_eq!(w.get(2), Logic::X);
        assert_eq!(o.faulted_nets(), &[a]);
    }

    #[test]
    fn scalar_view_is_lane_zero() {
        let n = tiny();
        let a = n.inputs()[0];
        let b = n.inputs()[1];
        let mut o = FaultOverlay::new(&n);
        o.add(a, FaultKind::Flip, 0b01).unwrap();
        o.add(b, FaultKind::StuckAt1, 0b10).unwrap(); // lane 1 only
        assert_eq!(o.apply_scalar(a.index(), Logic::One), Logic::Zero);
        assert_eq!(o.apply_scalar(a.index(), Logic::Zero), Logic::One);
        assert_eq!(o.apply_scalar(a.index(), Logic::X), Logic::X);
        assert_eq!(o.apply_scalar(a.index(), Logic::Z), Logic::X);
        // b's fault is on lane 1: scalar view unaffected.
        assert_eq!(o.apply_scalar(b.index(), Logic::Zero), Logic::Zero);
        assert!(o.affects(b));
    }

    /// `apply_word` agrees with per-lane `apply_scalar` on lane 0 and with
    /// the scalar coercion semantics on every lane.
    #[test]
    fn word_and_scalar_views_agree() {
        let n = tiny();
        let a = n.inputs()[0];
        for kind in [FaultKind::StuckAt0, FaultKind::StuckAt1, FaultKind::Flip] {
            let mut o = FaultOverlay::new(&n);
            o.add(a, kind, 1).unwrap();
            for level in Logic::ALL {
                let w = o.apply_word(a.index(), LogicWord::splat(level));
                assert_eq!(
                    w.get(0),
                    o.apply_scalar(a.index(), level),
                    "{kind:?} on {level:?}"
                );
                // Lanes outside the mask are untouched (Z included).
                assert_eq!(w.get(1), level, "{kind:?} on {level:?}");
            }
        }
    }
}
