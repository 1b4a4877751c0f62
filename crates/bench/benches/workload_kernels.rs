//! Criterion bench: the workload substrates — graph generation and
//! kernels, the LLC simulator, DNN inference, and the fault study's
//! classifier training and trials (the pieces behind Figs. 6-9 and 13).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nvmexplorer_core::accuracy::{baseline_accuracy, fault_trial};
use nvmx_fault::FaultModel;
use nvmx_units::BitsPerCell;
use nvmx_workloads::cache::{
    run_profile, run_profile_checkpoints, spec2017_llc_traffic, spec2017_profiles, LlcConfig,
};
use nvmx_workloads::graph::{facebook_like, preferential_attachment, wikipedia_like};
use nvmx_workloads::nn::trained_classifier;

fn bench_graph_kernels(c: &mut Criterion) {
    let graph = preferential_attachment("bench", 20_000, 10, 1);
    let mut group = c.benchmark_group("graph");
    group.bench_function("bfs_20k_nodes", |b| {
        b.iter(|| graph.bfs(0));
    });
    group.bench_function("pagerank_x3", |b| {
        b.iter(|| graph.pagerank(3));
    });
    group.finish();
    // The paper suite's two social graphs (seed 7), each built and
    // searched once, as `nvmexplorer_core::traffic_memo::bfs_counts` does.
    let mut group = c.benchmark_group("graph_build");
    group.sample_size(20);
    group.bench_function("facebook", |b| b.iter(|| facebook_like(7).bfs(0)));
    group.bench_function("wikipedia", |b| b.iter(|| wikipedia_like(7).bfs(0)));
    group.finish();
}

fn bench_llc(c: &mut Criterion) {
    let profile = &spec2017_profiles()[0]; // mcf-class
    c.bench_function("llc_100k_lookups", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            run_profile(LlcConfig::default(), profile, 100_000, seed)
        });
    });
    // The whole 14-profile suite, as `spec_llc` traffic resolves it.
    c.bench_function("llc_suite_100k", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            spec2017_llc_traffic(100_000, seed)
        });
    });
    // The suite at Fig. 14's and Fig. 9's lengths in one pass per profile,
    // as the paper experiments share it.
    c.bench_function("llc_suite_checkpoints_250k_400k", |b| {
        let profiles = spec2017_profiles();
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            profiles
                .iter()
                .map(|p| {
                    run_profile_checkpoints(LlcConfig::default(), p, &[250_000, 400_000], seed)
                })
                .collect::<Vec<_>>()
        });
    });
}

fn bench_classifier_inference(c: &mut Criterion) {
    let (model, test) = trained_classifier(1);
    c.bench_function("quantized_mlp_accuracy_400", |b| {
        b.iter(|| model.accuracy(&test));
    });
}

/// The fault half of the paper suite, split: training the shared
/// classifier (once per process) and one trial on it at three flip
/// densities. Each trial's seed is fixed, so every sample flips the same
/// bits (0, 7 and 723 of the 150,016 stored).
fn bench_fault_trials(c: &mut Criterion) {
    c.bench_function("classifier_training", |b| {
        b.iter(|| trained_classifier(2022));
    });
    // Build the shared classifier outside the timed trials.
    let _ = baseline_accuracy();
    let mut group = c.benchmark_group("fault_trial");
    group.sample_size(200);
    for (label, ber, bits, seed) in [
        ("zero_flip", 1.0e-8, BitsPerCell::Slc, 0x5EED_0000),
        ("sparse", 1.0e-4, BitsPerCell::Slc, 0x5EED_0001),
        ("dense", 5.0e-3, BitsPerCell::Mlc2, 0x5EED_0002),
    ] {
        let model = FaultModel::from_ber(ber, bits);
        group.bench_with_input(BenchmarkId::from_parameter(label), &model, |b, model| {
            b.iter(|| fault_trial(model, seed));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_graph_kernels,
    bench_llc,
    bench_classifier_inference,
    bench_fault_trials
);
criterion_main!(benches);
