//! Criterion microbenchmarks of the simulator itself: per-access costs of
//! the three access classes, cache-model throughput, and wall-clock cost of
//! each algorithm kernel at small scale. These measure *host* wall time (how
//! fast the simulator simulates), complementing the simulated-cycle results
//! of the `all_tests` sweep.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ecl_core::suite::{run_algorithm, Algorithm, Variant};
use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};
use std::hint::black_box;

fn bench_access_modes(c: &mut Criterion) {
    let mut group = c.benchmark_group("access_modes");
    for mode in ["plain", "volatile", "atomic"] {
        group.bench_with_input(BenchmarkId::from_parameter(mode), &mode, |b, &mode| {
            b.iter(|| {
                let mut gpu = Gpu::new(GpuConfig::titan_v());
                let buf = gpu.alloc::<u32>(4096);
                gpu.launch(
                    LaunchConfig::for_items(4096),
                    ForEach::new("sweep", 4096, move |ctx, i| {
                        let p = buf.at(i as usize);
                        match mode {
                            "plain" => {
                                let v = ctx.load(p);
                                ctx.store(p, v + 1);
                            }
                            "volatile" => {
                                let v = ctx.load_volatile(p);
                                ctx.store_volatile(p, v + 1);
                            }
                            _ => {
                                let v = ctx.atomic_load(p);
                                ctx.atomic_store(p, v + 1);
                            }
                        }
                    }),
                );
                black_box(gpu.elapsed_cycles())
            });
        });
    }
    group.finish();
}

fn bench_byte_tricks(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig3_fig4_byte_access");
    group.bench_function("typecast_mask_read", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            let bytes = gpu.alloc::<u8>(4096);
            let sum = gpu.alloc::<u32>(1);
            gpu.launch(
                LaunchConfig::for_items(4096),
                ForEach::new("bytes", 4096, move |ctx, i| {
                    let v = ecl_core::primitives::atomic_read_byte(ctx, bytes.as_ptr(), i);
                    if v > 0 {
                        ctx.atomic_add_u32(sum.at(0), v as u32);
                    }
                }),
            );
            black_box(gpu.elapsed_cycles())
        });
    });
    group.finish();
}

fn bench_algorithms(c: &mut Criterion) {
    let graph = ecl_graph::gen::rmat(2048, 12288, 0.45, 0.22, 0.22, true, 1);
    let directed = ecl_graph::gen::toroid_hex(32, 32);
    let gpu = GpuConfig::rtx2070_super();
    let mut group = c.benchmark_group("algorithms_small");
    group.sample_size(10);
    for alg in [Algorithm::Cc, Algorithm::Gc, Algorithm::Mis, Algorithm::Mst] {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            group.bench_function(format!("{alg}/{variant}"), |b| {
                b.iter(|| black_box(run_algorithm(alg, variant, &graph, &gpu, 1).cycles));
            });
        }
    }
    for variant in [Variant::Baseline, Variant::RaceFree] {
        group.bench_function(format!("SCC/{variant}"), |b| {
            b.iter(|| black_box(run_algorithm(Algorithm::Scc, variant, &directed, &gpu, 1).cycles));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_access_modes,
    bench_byte_tricks,
    bench_algorithms
);
criterion_main!(benches);
