//! The netlist's flat tables (inline gate inputs, CSR fanout, the name
//! map) read back what the builder was given. Every simulator and the
//! conformance oracle share these tables, so they are checked here against
//! the builder calls and a brute-force scan instead.

use agemul_circuits::{MultiplierCircuit, MultiplierKind};
use agemul_logic::GateKind;
use agemul_netlist::{GateId, NetId, Netlist};

/// Six inputs, one gate of every arity 1–6 reading them in order, and a
/// wide gate reading two nets on two pins each.
fn wide_netlist() -> (Netlist, Vec<NetId>) {
    let mut n = Netlist::new();
    let ins: Vec<_> = (0..6).map(|i| n.add_input(format!("i{i}"))).collect();
    let mut last = n.add_gate(GateKind::Not, &ins[..1]).unwrap();
    for arity in 2..=6 {
        last = n.add_gate(GateKind::And, &ins[6 - arity..]).unwrap();
    }
    let y = n
        .add_gate(GateKind::Xor, &[last, last, ins[0], ins[0]])
        .unwrap();
    n.mark_output(y, "y");
    (n, ins)
}

#[test]
fn gate_inputs_read_back_for_every_arity() {
    let (n, ins) = wide_netlist();
    assert_eq!(n.gates()[0].inputs(), &ins[..1]);
    for arity in 2..=6 {
        assert_eq!(
            n.gates()[arity - 1].inputs(),
            &ins[6 - arity..],
            "arity {arity}"
        );
    }
}

#[test]
fn wide_gates_survive_clone() {
    let (n, _) = wide_netlist();
    let copy = n.clone();
    assert_eq!(copy.gates(), n.gates());
    assert_eq!(copy.gates()[5].inputs().len(), 6);
    assert_ne!(n.gates()[4], n.gates()[5]);
    assert_eq!(copy.net_name(copy.outputs()[0]), Some("y"));
}

#[test]
fn fanout_matches_a_scan_of_the_gates() {
    let kinds = [
        MultiplierKind::Array,
        MultiplierKind::ColumnBypass,
        MultiplierKind::RowBypass,
    ];
    let circuits = kinds.map(|kind| MultiplierCircuit::generate(kind, 8).unwrap());
    let netlists = circuits.iter().map(MultiplierCircuit::netlist);
    for n in netlists.chain([&wide_netlist().0]) {
        let topo = n.topology().unwrap();
        for net in (0..n.net_count()).map(NetId::from_index) {
            let scan: Vec<_> = (0..n.gate_count())
                .map(GateId::from_index)
                .flat_map(|g| {
                    n.gate(g)
                        .inputs()
                        .iter()
                        .filter(|&&i| i == net)
                        .map(move |_| g)
                })
                .collect();
            assert_eq!(topo.fanout(net), scan, "net {net}");
        }
    }
}

#[test]
fn output_on_an_input_keeps_the_input_name() {
    let mut n = Netlist::new();
    let a = n.add_input("a");
    n.mark_output(a, "a_out");
    assert_eq!(n.net_name(a), Some("a"));
    assert_eq!(n.outputs(), &[a]);
}

#[test]
fn constants_keep_their_names() {
    let mut n = Netlist::new();
    let zero = n.const_zero();
    let one = n.const_one();
    n.mark_output(one, "tied_high");
    assert_eq!(n.net_name(zero), Some("const0"));
    assert_eq!(n.net_name(one), Some("const1"));
}
