use agemul::{
    area_report, energy_report, Architecture, EnergyInputs, MultiplierDesign, PatternSet,
};
use agemul_circuits::MultiplierKind;
use agemul_power::PowerModel;

fn main() {
    let pm = PowerModel::ptm_32nm_hk();
    let pats = PatternSet::uniform(16, 800, 0x0A6E_0001);
    for kind in MultiplierKind::ALL {
        let d = MultiplierDesign::new(kind, 16).unwrap();
        let activity = d.switching_activity(pats.pairs(), None).unwrap();
        let profile = d.profile(pats.pairs(), None).unwrap();
        let area = area_report(&d, Architecture::FixedLatency, 7).unwrap();
        let e = energy_report(
            &d,
            EnergyInputs {
                power: &pm,
                activity: &activity,
                area: &area,
                avg_cycles_per_op: 1.0,
                avg_latency_ns: 1.5,
                delta_vth_v: 0.0,
            },
        );
        println!(
            "{:3}: toggles/op {:7.1} dyn {:8.1} seq {:6.1} leak {:6.1} fJ",
            kind.label(),
            profile.avg_gate_toggles(),
            e.dynamic_fj,
            e.sequential_fj,
            e.leakage_fj
        );
    }
}
