//! Criterion bench: array characterization throughput — one full
//! organization DSE per call (the inner loop of every study).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use nvmx_celldb::{custom, tentpole, CellFlavor, TechnologyClass};
use nvmx_nvsim::{characterize, ArrayConfig, OptimizationTarget};
use nvmx_units::Capacity;

fn bench_characterization(c: &mut Criterion) {
    let mut group = c.benchmark_group("characterize");
    for mib in [2u64, 16] {
        let config = ArrayConfig::new(Capacity::from_mebibytes(mib));
        let stt = tentpole::tentpole_cell(TechnologyClass::Stt, CellFlavor::Optimistic).unwrap();
        group.bench_with_input(BenchmarkId::new("stt_opt", mib), &config, |b, config| {
            b.iter(|| characterize(&stt, config, OptimizationTarget::ReadEdp).unwrap());
        });
        let sram = custom::sram_16nm();
        group.bench_with_input(BenchmarkId::new("sram", mib), &config, |b, config| {
            b.iter(|| characterize(&sram, config, OptimizationTarget::ReadEdp).unwrap());
        });
    }
    group.finish();
}

fn bench_tentpole_extraction(c: &mut Criterion) {
    c.bench_function("tentpoles_from_survey", |b| {
        b.iter(|| tentpole::tentpoles(nvmx_celldb::survey::database()));
    });
}

criterion_group!(benches, bench_characterization, bench_tentpole_extraction);
criterion_main!(benches);
