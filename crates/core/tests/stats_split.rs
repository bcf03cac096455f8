//! The two workload statistics and their producers.
//!
//! `workload_stats` is a functional sweep only; `switching_activity` is
//! the timed toggle count. These tests pin the activity to the
//! event-driven reference and the probabilities (plus the BTI factors
//! derived from them) to digests recorded when both statistics still came
//! from one call, so splitting them moved no number. The 32×32 lifetime
//! factors are pinned to digests recorded when every gate still called the
//! BTI model itself.

use agemul::{MultiplierDesign, PatternSet};
use agemul_aging::{aging_factors, BtiModel};
use agemul_circuits::MultiplierKind;
use agemul_logic::Technology;
use agemul_netlist::{EventSim, NetId};

/// FNV-1a over the little-endian bytes of a `u64` stream.
fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[test]
fn switching_activity_matches_event_sim_toggles() {
    for kind in [MultiplierKind::ColumnBypass, MultiplierKind::RowBypass] {
        let design = MultiplierDesign::new(kind, 8).unwrap();
        let workload = PatternSet::uniform(8, 300, 21);
        let activity = design.switching_activity(workload.pairs(), None).unwrap();

        let netlist = design.circuit().netlist();
        let delays = design.delay_assignment(None).unwrap();
        let mut sim = EventSim::new(netlist, design.topology(), delays);
        sim.settle(&design.circuit().encode_inputs(0, 0).unwrap())
            .unwrap();
        for &(a, b) in workload.pairs() {
            sim.step(&design.circuit().encode_inputs(a, b).unwrap())
                .unwrap();
        }

        assert_eq!(activity.pattern_count(), 300, "{kind:?}");
        let toggles = sim.gate_toggle_counts();
        assert_eq!(activity.total_toggles(), toggles.iter().sum::<u64>());
        for (g, &t) in toggles.iter().enumerate() {
            let gate = agemul_netlist::GateId::from_index(g);
            assert_eq!(
                activity.gate_activity(gate).to_bits(),
                (t as f64 / 300.0).to_bits(),
                "{kind:?} gate {g}"
            );
        }
    }
}

#[test]
fn probabilities_and_aging_factors_match_pinned_digests() {
    // (kind, digest of net probabilities, digest of 7-year BTI factors),
    // recorded before the split.
    let pinned = [
        (
            MultiplierKind::ColumnBypass,
            0x6adf_380c_f146_9dd3,
            0x7ffe_ccd7_5971_3903,
        ),
        (
            MultiplierKind::RowBypass,
            0x3bf9_9af0_bc1d_804f,
            0xac0a_90f0_de31_8a4e,
        ),
    ];
    let bti = BtiModel::calibrated(Technology::ptm_32nm_hk(), 1.13);
    for (kind, probabilities, factors) in pinned {
        let design = MultiplierDesign::new(kind, 16).unwrap();
        let workload = PatternSet::uniform(16, 1000, 7);
        let stats = design.workload_stats(workload.pairs()).unwrap();
        let netlist = design.circuit().netlist();
        let got_probabilities = fnv1a(
            (0..netlist.net_count())
                .map(|n| stats.net_high_probability(NetId::from_index(n)).to_bits()),
        );
        let got_factors = fnv1a(
            aging_factors(netlist, &stats, &bti, 7.0)
                .into_iter()
                .map(f64::to_bits),
        );
        assert_eq!(stats.pattern_count(), 1000);
        assert_eq!(got_probabilities, probabilities, "{kind:?} probabilities");
        assert_eq!(got_factors, factors, "{kind:?} factors");
    }
}

#[test]
fn aging_factors_over_the_lifetime_match_pinned_digests() {
    // (kind, digest of the reference model's factors for years 1..=7) at
    // the aging-sweep benchmark's shape: 32×32, 512 uniform pairs.
    // Recorded when every gate still called `BtiModel::delay_factor`
    // itself, so evaluating once per stress level moved no bit.
    let pinned = [
        (
            MultiplierKind::ColumnBypass,
            [
                0x9a03_a253_8b20_fe39,
                0xd945_dde8_0997_5490,
                0x5e65_eae1_c201_35ee,
                0x4ee1_b161_9bf9_6617,
                0x1e0f_5756_2275_4e49,
                0x630a_1c71_cee4_3faf,
                0x0cda_09ec_8c03_600d,
            ],
        ),
        (
            MultiplierKind::RowBypass,
            [
                0x9f23_420e_53ec_843f,
                0x8120_1408_5d53_c514,
                0x7629_91a7_e721_0385,
                0x9be9_f129_95a9_4871,
                0x40e5_3503_19cc_0453,
                0x30ba_fcc9_94a0_583c,
                0x8caa_6b0f_83dd_52ee,
            ],
        ),
    ];
    let bti = BtiModel::reference();
    for (kind, digests) in pinned {
        let design = MultiplierDesign::new(kind, 32).unwrap();
        let workload = PatternSet::uniform(32, 512, 7);
        let stats = design.workload_stats(workload.pairs()).unwrap();
        let netlist = design.circuit().netlist();
        let got: Vec<u64> = (1..=7)
            .map(|years| {
                fnv1a(
                    aging_factors(netlist, &stats, &bti, f64::from(years))
                        .into_iter()
                        .map(f64::to_bits),
                )
            })
            .collect();
        assert_eq!(got, digests, "{kind:?} factors, years 1..=7");
    }
}
