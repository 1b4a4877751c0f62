//! Device/architecture co-design walkthrough (paper Sec. V-A): define a
//! custom cell — the back-gated FeFET — and quantify what its faster writes
//! and higher endurance buy at the application level.
//!
//! Run with: `cargo run -p nvmexplorer --release --example codesign_fefet`

use nvmexplorer_core::eval::evaluate;
use nvmx_celldb::custom::{back_gated_fefet, sram_16nm};
use nvmx_celldb::{tentpole, CellDefinition, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{Amps, Capacity, Meters, Seconds, Volts};
use nvmx_viz::AsciiTable;
use nvmx_workloads::TrafficPattern;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Any cell can be built from scratch with the builder — here is a
    // hypothetical "improved RRAM" with a faster, lower-current write.
    let improved_rram = CellDefinition::builder(TechnologyClass::Rram, "RRAM-codesign")
        .area_f2(18.0)
        .write_pulse(Seconds::from_nano(20.0))
        .write_voltage(Volts::new(1.8))
        .write_current(Amps::from_micro(40.0))
        .endurance(1.0e9)
        .build();

    // The paper's co-design cell: back-gated FeFET (10 ns writes, 1e12
    // endurance, slight read-energy/density cost).
    let cells = vec![
        sram_16nm(),
        tentpole::tentpole_cell(TechnologyClass::FeFet, CellFlavor::Optimistic).expect("FeFET"),
        back_gated_fefet(),
        improved_rram,
    ];

    // Write-heavy scratchpad traffic that standard FeFETs cannot serve.
    let traffic = TrafficPattern::new("write-heavy graph", 2.0e9, 300.0e6, 8);

    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "write latency".into(),
        "endurance".into(),
        "feasible".into(),
        "power".into(),
        "lifetime".into(),
    ]);
    for cell in &cells {
        let node = if cell.technology == TechnologyClass::Sram {
            cell.default_node
        } else {
            Meters::from_nano(22.0)
        };
        let config = ArrayConfig {
            capacity: Capacity::from_mebibytes(8),
            word_bits: 64,
            node,
            bits_per_cell: nvmx_units::BitsPerCell::Slc,
        };
        let array = characterize(cell, &config, OptimizationTarget::ReadEdp)?;
        let eval = evaluate(&array, &traffic);
        table.row(vec![
            cell.name.clone(),
            format!("{}", array.write_latency),
            format!("{:.0e}", cell.endurance_cycles),
            eval.is_feasible().to_string(),
            format!("{}", eval.total_power()),
            if eval.lifetime_years().is_finite() {
                format!("{:.1e} yr", eval.lifetime_years())
            } else {
                "unlimited".into()
            },
        ]);
    }
    println!("{table}");
    println!(
        "The back-gated FeFET keeps FeFET's density and idle power while fixing the \
         write path — the co-design feedback loop the paper advocates."
    );
    Ok(())
}
