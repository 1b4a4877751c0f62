//! DNN-accelerator walkthrough (paper Sec. IV-A): provision eNVM weight
//! buffers for ResNet26 at 60 FPS, check fault-rate accuracy gates, and
//! compare continuous power against intermittent energy per inference.
//!
//! Run with: `cargo run -p nvmexplorer --release --example dnn_accelerator`

use nvmexplorer_core::accuracy::accuracy_under_storage;
use nvmexplorer_core::eval::evaluate;
use nvmexplorer_core::intermittent::{daily_energy, IntermittentScenario};
use nvmx_celldb::tentpole;
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Capacity, Meters};
use nvmx_viz::AsciiTable;
use nvmx_workloads::dnn::{resnet26, DnnUseCase, StoragePolicy};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let use_case = DnnUseCase::single(resnet26(), StoragePolicy::WeightsOnly);
    println!(
        "{}: {:.2} MiB of weights, {:.1} MB read per inference",
        use_case.name,
        use_case.stored_weight_bytes() as f64 / 1024.0 / 1024.0,
        use_case.read_bytes_per_inference() / 1.0e6,
    );

    let traffic = use_case.continuous_traffic(60.0);
    println!(
        "continuous 60 FPS traffic: {:.2} GB/s reads\n",
        traffic.read_bytes_per_sec / 1.0e9
    );

    let scenario = IntermittentScenario {
        name: use_case.name.clone(),
        read_bytes_per_event: use_case.read_bytes_per_inference(),
        write_bytes_per_event: 0.0,
        weight_bytes: use_case.stored_weight_bytes(),
        access_bytes: 32,
    };

    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "60FPS power".into(),
        "feasible".into(),
        "SLC accuracy ok".into(),
        "energy/inf @1IPS".into(),
    ]);

    for cell in tentpole::study_cells() {
        let node = if cell.technology == nvmx_celldb::TechnologyClass::Sram {
            cell.default_node
        } else {
            Meters::from_nano(22.0)
        };
        let config = ArrayConfig {
            capacity: Capacity::from_mebibytes(2),
            word_bits: 256,
            node,
            bits_per_cell: BitsPerCell::Slc,
        };
        let array = characterize(&cell, &config, OptimizationTarget::ReadEdp)?;
        let eval = evaluate(&array, &traffic);
        let accuracy_ok = cell.technology == nvmx_celldb::TechnologyClass::Sram
            || accuracy_under_storage(&cell, BitsPerCell::Slc, 2).is_acceptable(0.05);
        let intermittent = daily_energy(&array, &scenario, 86_400.0);
        table.row(vec![
            cell.name.clone(),
            format!("{}", eval.total_power()),
            eval.is_feasible().to_string(),
            accuracy_ok.to_string(),
            format!("{}", intermittent.per_event()),
        ]);
    }
    println!("{table}");
    println!(
        "Note how the continuous-power winner and the intermittent-energy winner \
         differ — the paper's core cross-stack observation."
    );
    Ok(())
}
