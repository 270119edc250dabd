//! Component costs of the simulator, measured by the same public `ecl_simt`
//! calls `perf_probe` times: cache lookups, memory-system loads and stores,
//! per-item scheduler overhead and GPU set-up. Each cost is the median of
//! three timings.

use crate::stats::median;
use ecl_simt::mem::{Cache, MemSystem};
use ecl_simt::{AccessKind, AccessMode, ForEach, Gpu, GpuConfig, LaunchConfig, NoHooks};
use std::hint::black_box;
use std::time::Instant;

const ITERS: u64 = 2_000_000;
const REPS: usize = 3;

fn ns_per_op(mut f: impl FnMut(u64) -> u64) -> f64 {
    let times: Vec<f64> = (0..REPS)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for i in 0..ITERS {
                acc = acc.wrapping_add(f(i));
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / ITERS as f64
        })
        .collect();
    median(&times)
}

/// `(metric name, value, unit)` for every component cost.
pub fn component_costs() -> Vec<(&'static str, f64, &'static str)> {
    let cfg = GpuConfig::rtx2070_super();
    let mut c = Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes);
    let hit = ns_per_op(|i| c.access((i as u32) % 4096) as u64);
    let mut c = Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes);
    let miss = ns_per_op(|i| c.access((i as u32).wrapping_mul(2_654_435_761) & 0xff_ffff) as u64);
    let mut msys = MemSystem::new(&cfg);
    let load = ns_per_op(|i| {
        msys.access(0, (i as u32) % 4096, AccessMode::Plain, AccessKind::Load)
            .0 as u64
    });
    let store = ns_per_op(|i| {
        msys.access(0, (i as u32) % 4096, AccessMode::Plain, AccessKind::Store)
            .0 as u64
    });

    let items = 1u32 << 16;
    let setup_us = median(
        &(0..REPS)
            .map(|_| {
                let reps = 20u32;
                let start = Instant::now();
                for _ in 0..reps {
                    let mut gpu = Gpu::new(cfg.clone());
                    let data = gpu.alloc::<u32>(items as usize);
                    gpu.upload(&data, &vec![0u32; items as usize]);
                    black_box(&gpu);
                }
                start.elapsed().as_micros() as f64 / reps as f64
            })
            .collect::<Vec<_>>(),
    );
    let launches = 10u32;
    let empty_item = median(
        &(0..REPS)
            .map(|_| {
                let mut gpu = Gpu::new(cfg.clone());
                let start = Instant::now();
                for _ in 0..launches {
                    gpu.launch_with::<NoHooks, _>(
                        LaunchConfig::for_items(items),
                        ForEach::with_hooks::<NoHooks>("probe", items, |_, _| {}),
                    );
                }
                start.elapsed().as_nanos() as f64 / (items as u64 * launches as u64) as f64
            })
            .collect::<Vec<_>>(),
    );
    vec![
        ("simt.mem.cache_hit_ns", hit, "ns"),
        ("simt.mem.cache_miss_ns", miss, "ns"),
        ("simt.mem.msys_load_ns", load, "ns"),
        ("simt.mem.msys_store_ns", store, "ns"),
        ("simt.exec.empty_item_ns", empty_item, "ns"),
        ("simt.exec.gpu_setup_us", setup_us, "us"),
    ]
}
