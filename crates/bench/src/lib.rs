//! Shared fixtures for the `agemul` Criterion benches.
//!
//! Each bench in `benches/` appends rows to the `BENCH_sim.json` ledger
//! (see `EXPERIMENTS.md`):
//!
//! * `batch_sim` — scalar vs 64-lane bit-parallel functional kernels
//!   (`signal_prob/*`, `verify/*`).
//! * `profile` — raw timing-kernel stepping, event-driven vs levelized
//!   (`level_sim/*`).
//! * `faults` — fault-campaign throughput: lane-masked logic-fault
//!   preparation, per-delay-fault profiling, and sweep-point replay
//!   (`faults/*`).
//! * `mc` — Monte Carlo corner switches: plan-reuse retiming vs
//!   from-scratch kernel construction (`mc/*`).
//! * `fleet` — fleet campaign throughput by node count and routing
//!   policy (`fleet/*`).
//!
//! The paper's design-choice ablations are `repro ablations`, whose CSVs
//! are digest-pinned in `results/quick.digests`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use agemul::{MultiplierDesign, PatternProfile, PatternSet};
use agemul_circuits::MultiplierKind;

/// A ready-to-replay 16×16 column-bypassing fixture shared by the benches.
pub struct Fixture {
    /// The design under test.
    pub design: MultiplierDesign,
    /// A profiled uniform workload.
    pub profile: PatternProfile,
    /// The workload itself.
    pub patterns: PatternSet,
}

impl Fixture {
    /// Builds the standard fixture: 16×16 CB, `count` uniform patterns.
    ///
    /// # Panics
    ///
    /// Panics if generation or profiling fails (benches treat that as a
    /// broken workspace).
    pub fn column_bypass_16(count: usize) -> Self {
        let design = MultiplierDesign::new(MultiplierKind::ColumnBypass, 16)
            .expect("16 is a supported width");
        let patterns = PatternSet::uniform(16, count, 0xBE7C);
        let profile = design
            .profile(patterns.pairs(), None)
            .expect("profiling a valid workload succeeds");
        Fixture {
            design,
            profile,
            patterns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_builds() {
        let f = Fixture::column_bypass_16(32);
        assert_eq!(f.profile.len(), 32);
        assert_eq!(f.patterns.len(), 32);
    }
}
