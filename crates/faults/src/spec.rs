//! Fault specifications and deterministic campaign sampling.

use agemul::MultiplierDesign;
use agemul_netlist::{GateId, NetId};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// One injectable fault.
///
/// The three families cover the gate-level taxonomy the campaign
/// classifies (see the crate docs): permanent logic faults, transient
/// single-operation upsets, and localized timing degradation.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FaultSpec {
    /// `net` reads as a constant `0` for the whole workload.
    StuckAt0 {
        /// The pinned net.
        net: NetId,
    },
    /// `net` reads as a constant `1` for the whole workload.
    StuckAt1 {
        /// The pinned net.
        net: NetId,
    },
    /// `net` is inverted for exactly one operation (0-based index into the
    /// workload) — a single-cycle soft error. An `op` beyond the workload
    /// never fires, which classifies as masked.
    Transient {
        /// The flipped net.
        net: NetId,
        /// 0-based operation index at which the flip is live.
        op: usize,
    },
    /// One gate's propagation delay is multiplied by `factor` — a
    /// localized BTI hot spot ([`DelayAssignment::inflate`]).
    ///
    /// [`DelayAssignment::inflate`]: agemul_netlist::DelayAssignment::inflate
    Delay {
        /// The slowed gate.
        gate: GateId,
        /// Multiplicative delay factor (finite, `> 0`).
        factor: f64,
    },
}

impl FaultSpec {
    /// `true` for the functionally evaluated families (stuck-at and
    /// transient); `false` for delay faults, which are timing-only.
    #[inline]
    pub fn is_logic(&self) -> bool {
        !matches!(self, FaultSpec::Delay { .. })
    }

    /// Compact display label used in reports and error messages, e.g.
    /// `sa0@n17`, `flip@n4#op120`, `slow@g33x1.60`.
    pub fn label(&self) -> String {
        match self {
            FaultSpec::StuckAt0 { net } => format!("sa0@n{}", net.index()),
            FaultSpec::StuckAt1 { net } => format!("sa1@n{}", net.index()),
            FaultSpec::Transient { net, op } => format!("flip@n{}#op{op}", net.index()),
            FaultSpec::Delay { gate, factor } => {
                format!("slow@g{}x{factor:.2}", gate.index())
            }
        }
    }

    /// Samples a deterministic campaign of `count` faults for `design`,
    /// cycling through the four families (stuck-at-0, stuck-at-1,
    /// transient, delay) so every family is represented.
    ///
    /// Nets, gates, transient operations (`0..ops`), and delay factors
    /// (1.10–2.09×) are drawn from a seeded [`StdRng`], so the same
    /// `(design, ops, count, seed)` always yields the same campaign — the
    /// property the committed repro tables rely on.
    pub fn sample(design: &MultiplierDesign, ops: usize, count: usize, seed: u64) -> Vec<Self> {
        let netlist = design.circuit().netlist();
        let nets = netlist.net_count();
        let gates = netlist.gate_count();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::with_capacity(count);
        for i in 0..count {
            let net = NetId::from_index(rng.gen::<u64>() as usize % nets.max(1));
            let gate = GateId::from_index(rng.gen::<u64>() as usize % gates.max(1));
            let op = rng.gen::<u64>() as usize % ops.max(1);
            let factor = 1.10 + (rng.gen::<u64>() % 100) as f64 / 100.0;
            faults.push(match i % 4 {
                0 => FaultSpec::StuckAt0 { net },
                1 => FaultSpec::StuckAt1 { net },
                2 => FaultSpec::Transient { net, op },
                _ => FaultSpec::Delay { gate, factor },
            });
        }
        faults
    }
}

#[cfg(test)]
mod tests {
    use agemul_circuits::MultiplierKind;

    use super::*;

    #[test]
    fn labels_are_compact_and_unique_per_site() {
        let a = FaultSpec::StuckAt0 {
            net: NetId::from_index(17),
        };
        let b = FaultSpec::StuckAt1 {
            net: NetId::from_index(17),
        };
        let c = FaultSpec::Transient {
            net: NetId::from_index(4),
            op: 120,
        };
        let d = FaultSpec::Delay {
            gate: GateId::from_index(33),
            factor: 1.6,
        };
        assert_eq!(a.label(), "sa0@n17");
        assert_eq!(b.label(), "sa1@n17");
        assert_eq!(c.label(), "flip@n4#op120");
        assert_eq!(d.label(), "slow@g33x1.60");
        assert!(a.is_logic() && b.is_logic() && c.is_logic());
        assert!(!d.is_logic());
    }

    #[test]
    fn sampling_is_deterministic_and_covers_all_families() {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 4).unwrap();
        let s1 = FaultSpec::sample(&design, 100, 16, 0xF00D);
        let s2 = FaultSpec::sample(&design, 100, 16, 0xF00D);
        assert_eq!(s1, s2);
        assert_eq!(s1.len(), 16);
        assert_eq!(s1.iter().filter(|f| !f.is_logic()).count(), 4);
        let other = FaultSpec::sample(&design, 100, 16, 0xBEEF);
        assert_ne!(s1, other);
        // Every sampled site is in range for the design.
        let nets = design.circuit().netlist().net_count();
        let gate_count = design.circuit().netlist().gate_count();
        for f in &s1 {
            match f {
                FaultSpec::StuckAt0 { net } | FaultSpec::StuckAt1 { net } => {
                    assert!(net.index() < nets)
                }
                FaultSpec::Transient { net, op } => {
                    assert!(net.index() < nets && *op < 100)
                }
                FaultSpec::Delay { gate, factor } => {
                    assert!(gate.index() < gate_count);
                    assert!((1.10..2.10).contains(factor));
                }
            }
        }
    }
}
