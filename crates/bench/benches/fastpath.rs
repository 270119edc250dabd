//! Criterion benchmarks of the hot/slow-path split: the same kernels run
//! through the monomorphized `NoHooks` fast path and through the fully
//! hooked interpreter (with and without the race checker armed), so the
//! per-access cost of the hook sites is directly visible. `perf_bench` is the
//! headline-number harness (Maccesses/sec, JSON output, CI regression
//! check); these benches are the fine-grained side-by-side.

use criterion::{criterion_group, criterion_main, Criterion};
use ecl_racecheck::RaceChecker;
use ecl_simt::{ForEach, FullHooks, Gpu, GpuConfig, LaunchConfig, NoHooks};
use std::hint::black_box;

const N: u32 = 1 << 14;

/// One streaming read-modify-write pass over `N` words; ~2 device accesses
/// per item. Returns elapsed simulated cycles so the work cannot be elided.
fn stream_pass_fast(gpu: &mut Gpu) -> u64 {
    let buf = gpu.alloc::<u32>(N as usize);
    gpu.launch_with::<NoHooks, _>(
        LaunchConfig::for_items(N),
        ForEach::with_hooks::<NoHooks>("stream", N, move |ctx, i| {
            let p = buf.at(i as usize);
            let v = ctx.load(p);
            ctx.store(p, v.wrapping_add(1));
        }),
    );
    gpu.elapsed_cycles()
}

fn stream_pass_hooked(gpu: &mut Gpu) -> u64 {
    let buf = gpu.alloc::<u32>(N as usize);
    gpu.launch_with::<FullHooks, _>(
        LaunchConfig::for_items(N),
        ForEach::with_hooks::<FullHooks>("stream", N, move |ctx, i| {
            let p = buf.at(i as usize);
            let v = ctx.load(p);
            ctx.store(p, v.wrapping_add(1));
        }),
    );
    gpu.elapsed_cycles()
}

fn bench_stream_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("fastpath_stream");
    group.sample_size(10);
    group.bench_function("nohooks", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            black_box(stream_pass_fast(&mut gpu))
        });
    });
    group.bench_function("fullhooks_unchecked", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            black_box(stream_pass_hooked(&mut gpu))
        });
    });
    group.bench_function("fullhooks_checked", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(GpuConfig::titan_v());
            gpu.observe(RaceChecker::precise());
            black_box(stream_pass_hooked(&mut gpu))
        });
    });
    group.finish();
}

/// The public `launch` entry point dispatches by `fast_path_eligible()`;
/// this measures what algorithm callers actually get by default.
fn bench_auto_dispatch(c: &mut Criterion) {
    let graph = ecl_graph::gen::rmat(2048, 12288, 0.45, 0.22, 0.22, true, 1);
    let cfg = GpuConfig::rtx2070_super();
    let mut group = c.benchmark_group("fastpath_cc_dispatch");
    group.sample_size(10);
    group.bench_function("auto_fast", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(cfg.clone());
            black_box(ecl_core::cc::run_on::<ecl_core::primitives::Atomic>(
                &mut gpu,
                &graph,
                ecl_simt::StoreVisibility::Immediate,
            ))
        });
    });
    group.bench_function("forced_hooked_by_checker", |b| {
        b.iter(|| {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.observe(RaceChecker::precise());
            black_box(ecl_core::cc::run_on::<ecl_core::primitives::Atomic>(
                &mut gpu,
                &graph,
                ecl_simt::StoreVisibility::Immediate,
            ))
        });
    });
    group.finish();
}

criterion_group!(benches, bench_stream_paths, bench_auto_dispatch);
criterion_main!(benches);
