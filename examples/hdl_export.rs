//! Export a generated multiplier to structural Verilog and dump a VCD
//! waveform of a few operations — the bridge out of the Rust substrate
//! into standard HDL tooling.
//!
//! ```sh
//! cargo run --release --example hdl_export
//! ```

use std::fs;

use agemul_netlist::{write_vcd, write_verilog, NetlistReport};
use agemul_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let m = MultiplierCircuit::generate(MultiplierKind::ColumnBypass, 8)?;
    let topo = m.netlist().topology()?;

    // Structural summary.
    println!("{}", NetlistReport::new(m.netlist(), &topo));

    // 1. Verilog: feed the exact gate network we simulate into an HDL
    //    simulator or synthesis flow for independent cross-checking.
    let mut verilog = Vec::new();
    write_verilog(m.netlist(), "cb_mult_8x8", &mut verilog)?;
    let verilog_path = std::env::temp_dir().join("cb_mult_8x8.v");
    fs::write(&verilog_path, &verilog)?;
    println!(
        "wrote {} ({} lines of structural Verilog)",
        verilog_path.display(),
        verilog.iter().filter(|&&b| b == b'\n').count()
    );

    // 2. VCD: trace a few multiplications through the event-driven timing
    //    simulator and dump a waveform viewable in GTKWave & friends.
    let delays = DelayAssignment::uniform(m.netlist(), calibrated_delay_model()?);
    let mut sim = EventSim::new(m.netlist(), &topo, delays);
    sim.enable_tracing(2_000_000); // 2 ns between operations
    sim.settle(&m.encode_inputs(0, 0)?)?;
    for (a, b) in [(15u64, 15u64), (255, 1), (0xAA, 0x55), (7, 200), (255, 255)] {
        let t = sim.step(&m.encode_inputs(a, b)?)?;
        println!("{a:3} × {b:3}: sensitized delay {:.3} ns", t.delay_ns);
    }
    let mut vcd = Vec::new();
    write_vcd(m.netlist(), sim.trace(), &mut vcd)?;
    let vcd_path = std::env::temp_dir().join("cb_mult_8x8.vcd");
    fs::write(&vcd_path, &vcd)?;
    println!(
        "wrote {} ({} value changes)",
        vcd_path.display(),
        sim.trace().len()
    );
    Ok(())
}
