//! End-to-end integration: graph kernels → traffic → evaluation, checking
//! the paper's graph-study orderings survive the full pipeline.

use nvmexplorer_core::eval::evaluate;
use nvmx_celldb::{tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::{BitsPerCell, Capacity, Meters};
use nvmx_workloads::graph::{accelerator_traffic, facebook_like, wikipedia_like};

fn array_for(tech: TechnologyClass, flavor: CellFlavor) -> nvmx_nvsim::ArrayCharacterization {
    let cell = tentpole::tentpole_cell(tech, flavor).expect("surveyed");
    let config = ArrayConfig {
        capacity: Capacity::from_mebibytes(8),
        word_bits: 64,
        node: Meters::from_nano(22.0),
        bits_per_cell: BitsPerCell::Slc,
    };
    characterize(&cell, &config, OptimizationTarget::ReadEdp).expect("characterizes")
}

#[test]
fn bfs_traffic_is_read_dominated_and_in_paper_envelope() {
    let graph = facebook_like(3);
    let (_, counter) = graph.bfs(0);
    let traffic = accelerator_traffic(&graph, "BFS", counter, 2.0e8);
    assert!(traffic.read_fraction() > 0.6);
    assert!(
        (0.5e9..40.0e9).contains(&traffic.read_bytes_per_sec),
        "{}",
        traffic.read_bytes_per_sec
    );
}

#[test]
fn stt_outlives_rram_under_bfs_writes() {
    // Paper Fig. 8: STT superior lifetime, RRAM worst.
    let graph = facebook_like(3);
    let (_, counter) = graph.bfs(0);
    let traffic = accelerator_traffic(&graph, "BFS", counter, 2.0e8);
    let stt = evaluate(
        &array_for(TechnologyClass::Stt, CellFlavor::Optimistic),
        &traffic,
    );
    let rram = evaluate(
        &array_for(TechnologyClass::Rram, CellFlavor::Optimistic),
        &traffic,
    );
    assert!(stt.lifetime_years() > 100.0 * rram.lifetime_years());
}

#[test]
fn fefet_loses_feasibility_at_high_graph_write_rates() {
    // Paper: FeFET "unable to meet application latency expectations under
    // the higher range of traffic patterns".
    let fefet = array_for(TechnologyClass::FeFet, CellFlavor::Optimistic);
    let heavy = nvmx_workloads::TrafficPattern::new("heavy", 4.0e9, 400.0e6, 8);
    let light = nvmx_workloads::TrafficPattern::new("light", 0.5e9, 5.0e6, 8);
    assert!(!evaluate(&fefet, &heavy).is_feasible());
    assert!(evaluate(&fefet, &light).is_feasible());
}

#[test]
fn wikipedia_graph_is_bigger_and_generates_proportional_traffic() {
    let fb = facebook_like(3);
    let wiki = wikipedia_like(3);
    assert!(wiki.num_nodes() > 2 * fb.num_nodes());
    let (v_fb, c_fb) = fb.bfs(0);
    let (v_wiki, c_wiki) = wiki.bfs(0);
    assert!(
        v_fb > fb.num_nodes() / 2,
        "BFS reaches most of the social graph"
    );
    assert!(v_wiki > wiki.num_nodes() / 2);
    assert!(c_wiki.reads > c_fb.reads);
}

#[test]
fn kernels_are_deterministic_across_runs() {
    let a = facebook_like(9).bfs(0);
    let b = facebook_like(9).bfs(0);
    assert_eq!(a.0, b.0);
    assert_eq!(a.1, b.1);
}
