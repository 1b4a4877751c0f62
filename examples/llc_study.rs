//! LLC walkthrough (paper Sec. IV-C): simulate SPEC-class benchmarks through
//! a real 16 MiB set-associative LLC, then evaluate every eNVM as a drop-in
//! replacement — including a write-buffer rescue for slow writers.
//!
//! Run with: `cargo run -p nvmexplorer --release --example llc_study`

use nvmexplorer_core::write_buffer::{evaluate_with_buffer, WriteBuffer};
use nvmx_celldb::tentpole;
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{Capacity, Meters};
use nvmx_viz::AsciiTable;
use nvmx_workloads::cache::spec2017_llc_traffic;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Run the SPEC-class suite through the cache simulator.
    let suite = spec2017_llc_traffic(150_000, 7);
    println!(
        "simulated {} benchmarks through a 16 MiB / 16-way LLC:",
        suite.len()
    );
    for bench in suite.iter().take(4) {
        println!(
            "  {:<16} miss rate {:.2}, {:.2} GB/s array reads, {:.2} GB/s array writes",
            bench.name,
            bench.miss_rate,
            bench.traffic.read_bytes_per_sec / 1.0e9,
            bench.traffic.write_bytes_per_sec / 1.0e9,
        );
    }
    println!("  ...\n");

    // 2. Pick the most write-intensive benchmark and sweep the write-buffer
    //    design space for each candidate eNVM.
    let worst = suite
        .iter()
        .max_by(|a, b| {
            a.traffic
                .write_bytes_per_sec
                .total_cmp(&b.traffic.write_bytes_per_sec)
        })
        .expect("suite nonempty");
    println!("write-heaviest benchmark: {}\n", worst.name);

    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "buffer".into(),
        "feasible".into(),
        "power".into(),
        "lifetime".into(),
    ]);
    for cell in tentpole::study_cells() {
        if !["STT-opt", "RRAM-opt", "FeFET-opt", "PCM-opt", "SRAM-16nm"]
            .contains(&cell.name.as_str())
        {
            continue;
        }
        let node = if cell.technology == nvmx_celldb::TechnologyClass::Sram {
            cell.default_node
        } else {
            Meters::from_nano(22.0)
        };
        let config = ArrayConfig {
            capacity: Capacity::from_mebibytes(16),
            word_bits: 512, // 64 B cache line
            node,
            bits_per_cell: nvmx_units::BitsPerCell::Slc,
        };
        let array = characterize(&cell, &config, OptimizationTarget::ReadEdp)?;
        for (label, buffer) in [("no buffer".to_owned(), WriteBuffer::NONE)]
            .into_iter()
            .chain(std::iter::once((
                "mask + coalesce 50%".to_owned(),
                WriteBuffer::new(1.0, 0.5),
            )))
        {
            let eval = evaluate_with_buffer(&array, &worst.traffic, buffer);
            table.row(vec![
                cell.name.clone(),
                label,
                eval.is_feasible().to_string(),
                format!("{}", eval.total_power()),
                if eval.lifetime_years().is_finite() {
                    format!("{:.1e} yr", eval.lifetime_years())
                } else {
                    "unlimited".into()
                },
            ]);
        }
    }
    println!("{table}");
    println!("A write buffer rescues slow writers and stretches endurance-limited lifetimes.");
    Ok(())
}
