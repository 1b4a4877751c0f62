//! Criterion bench: the workload substrates — graph kernels, the LLC
//! simulator, and DNN inference (the pieces behind Figs. 6-9 and 13).

use criterion::{criterion_group, criterion_main, Criterion};
use nvmx_workloads::cache::{run_profile, spec2017_llc_traffic, spec2017_profiles, LlcConfig};
use nvmx_workloads::graph::preferential_attachment;
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
}

fn bench_classifier_inference(c: &mut Criterion) {
    let (model, test) = trained_classifier(1);
    c.bench_function("quantized_mlp_accuracy_400", |b| {
        b.iter(|| model.accuracy(&test));
    });
}

criterion_group!(
    benches,
    bench_graph_kernels,
    bench_llc,
    bench_classifier_inference
);
criterion_main!(benches);
