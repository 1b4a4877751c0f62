//! Graph-analytics walkthrough (paper Sec. IV-B): run instrumented BFS and
//! PageRank over a synthetic social graph, convert access counts into
//! scratchpad traffic, and ask which eNVM can replace an 8 MB eDRAM
//! scratchpad.
//!
//! Run with: `cargo run -p nvmexplorer --release --example graph_analytics`

use nvmexplorer_core::eval::evaluate;
use nvmx_celldb::tentpole;
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{Capacity, Meters};
use nvmx_viz::AsciiTable;
use nvmx_workloads::graph::{accelerator_traffic, facebook_like};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Build the workload for real: a scale-free social graph and two
    //    instrumented kernels.
    let graph = facebook_like(42);
    println!(
        "{}: {} nodes, {} edges",
        graph.name,
        graph.num_nodes(),
        graph.num_edges()
    );

    let (visited, bfs_counter) = graph.bfs(0);
    println!(
        "BFS visited {visited} nodes: {} reads / {} writes",
        bfs_counter.reads, bfs_counter.writes
    );
    let (_ranks, pr_counter) = graph.pagerank(5);
    println!(
        "PageRank x5: {} reads / {} writes\n",
        pr_counter.reads, pr_counter.writes
    );

    // 2. Convert to scratchpad traffic at Graphicionado-class throughput.
    let traffic = accelerator_traffic(&graph, "BFS", bfs_counter, 2.0e8);
    println!(
        "{}: {:.2} GB/s reads, {:.0} MB/s writes\n",
        traffic.name,
        traffic.read_bytes_per_sec / 1.0e9,
        traffic.write_bytes_per_sec / 1.0e6
    );

    // 3. Which 8 MB eNVM arrays can serve it, and at what power/lifetime?
    let mut table = AsciiTable::new(vec![
        "cell".into(),
        "power".into(),
        "feasible".into(),
        "aggregate latency".into(),
        "lifetime".into(),
    ]);
    for cell in tentpole::study_cells() {
        let node = if cell.technology == nvmx_celldb::TechnologyClass::Sram {
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
        let array = characterize(&cell, &config, OptimizationTarget::ReadEdp)?;
        let eval = evaluate(&array, &traffic);
        table.row(vec![
            cell.name.clone(),
            format!("{}", eval.total_power()),
            eval.is_feasible().to_string(),
            format!("{}", eval.aggregate_latency),
            if eval.lifetime_years().is_finite() {
                format!("{:.1e} yr", eval.lifetime_years())
            } else {
                "unlimited".into()
            },
        ]);
    }
    println!("{table}");
    println!(
        "Slow writers (FeFET, pessimistic PCM) stumble on the scatter-stream write \
         traffic; RRAM's endurance caps its lifetime — the paper's Fig. 8 story."
    );
    Ok(())
}
