//! Component-cost probe: times individual simulator pieces (cache lookup,
//! `MemSystem::access` load/store, raw arena access, per-item scheduler
//! overhead, one access of each kind on the fast path) in isolation. These
//! are the numbers behind PERF.md's attribution — e.g. the per-access floor
//! of the memory-hierarchy model — and the first thing to rerun when a
//! `perf_bench` regression needs to be localized. Wall-clock only; best run
//! on an otherwise idle machine.

use ecl_simt::mem::{Cache, MemSystem, Memory};
use ecl_simt::{
    AccessKind, AccessMode, ForEach, Gpu, GpuConfig, LaunchConfig, NoHooks, StoreVisibility,
};
use std::hint::black_box;
use std::time::Instant;

fn time(name: &str, iters: u64, mut f: impl FnMut(u64) -> u64) {
    let start = Instant::now();
    let mut acc = 0u64;
    for i in 0..iters {
        acc = acc.wrapping_add(f(i));
    }
    black_box(acc);
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<32} {ns:>8.2} ns/op");
}

/// What one item of the per-item probes does on the fast path.
#[derive(Clone, Copy)]
enum Item {
    Empty,
    Load,
    Mix,
    LoadVolatile,
    AtomicAdd,
    DeferredStore,
}

fn main() {
    let n: u64 = 20_000_000;
    let cfg = GpuConfig::rtx2070_super();

    let mut c = Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes);
    time("cache.access seq (hit)", n, |i| {
        c.access((i as u32) % 4096) as u64
    });
    let mut c2 = Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes);
    time("cache.access strided (miss)", n, |i| {
        c2.access(((i as u32).wrapping_mul(2654435761)) & 0xff_ffff) as u64
    });

    // Only these probes call `MemSystem::access`: a kernel's accesses go
    // through the per-SM port its context holds.
    let mut msys = MemSystem::new(&cfg);
    time("MemSystem::access plain load hot", n, |i| {
        msys.access(0, (i as u32) % 4096, AccessMode::Plain, AccessKind::Load)
            .0 as u64
    });
    time("MemSystem::access plain store", n, |i| {
        msys.access(0, (i as u32) % 4096, AccessMode::Plain, AccessKind::Store)
            .0 as u64
    });

    let mut mem = Memory::new();
    let buf = mem.alloc::<u32>(1 << 16);
    time("memory.read u32", n, |i| {
        let p = buf.at((i as usize) & 0xffff);
        mem.read(p) as u64
    });

    // modulo vs mask raw cost
    let sets = 768u64;
    time("u64 % 768", n, |i| {
        (i.wrapping_mul(0x9e3779b97f4a7c15)) % black_box(sets)
    });
    time("u64 & 1023", n, |i| {
        (i.wrapping_mul(0x9e3779b97f4a7c15)) & black_box(1023u64)
    });

    // Setup cost paid once per perf_bench rep: Gpu::new + alloc + upload.
    {
        let items = 1u32 << 16;
        let start = Instant::now();
        let reps = 200u32;
        for _ in 0..reps {
            let mut gpu = Gpu::new(cfg.clone());
            let data = gpu.alloc::<u32>(items as usize);
            gpu.upload(&data, &vec![0u32; items as usize]);
            black_box(&gpu);
        }
        let us = start.elapsed().as_micros() as f64 / reps as f64;
        println!("{:<32} {us:>8.2} us/rep", "gpu setup (new+alloc+upload)");
    }

    // Per-item cost on the fast path: the scheduler alone (empty), and one
    // or six accesses per item. The deferred store is buffered and drains
    // at the thread's next yield, every 8 items.
    let items = 1u32 << 16;
    let launches = 100u32;
    let probes = [
        ("empty", Item::Empty),
        ("1 load", Item::Load),
        ("6 access mix", Item::Mix),
        ("1 load_volatile", Item::LoadVolatile),
        ("1 atomic_add_u32", Item::AtomicAdd),
        ("1 deferred store", Item::DeferredStore),
    ];
    for (name, item) in probes {
        let visibility = match item {
            Item::DeferredStore => StoreVisibility::DeferUntilYield,
            _ => StoreVisibility::Immediate,
        };
        let mut gpu = Gpu::new(cfg.clone());
        let data = gpu.alloc::<u32>(items as usize);
        let start = Instant::now();
        for _ in 0..launches {
            gpu.launch_with::<NoHooks, _>(
                LaunchConfig::for_items(items).with_visibility(visibility),
                ForEach::with_hooks::<NoHooks>("probe", items, move |ctx, i| match item {
                    Item::Empty => {}
                    Item::Load => {
                        black_box(ctx.load(data.at(i as usize)));
                    }
                    Item::Mix => {
                        let mut acc = 0u32;
                        for k in 0..4 {
                            let mut j = i + k * 7;
                            if j >= items {
                                j -= items;
                            }
                            acc = acc.wrapping_add(ctx.load(data.at(j as usize)));
                        }
                        acc = acc.wrapping_add(ctx.load(data.at(i as usize)));
                        ctx.store(data.at(i as usize), acc);
                    }
                    Item::LoadVolatile => {
                        black_box(ctx.load_volatile(data.at(i as usize)));
                    }
                    Item::AtomicAdd => {
                        black_box(ctx.atomic_add_u32(data.at(i as usize), 1));
                    }
                    Item::DeferredStore => ctx.store(data.at(i as usize), i),
                }),
            );
        }
        let ns = start.elapsed().as_nanos() as f64 / (items as u64 * launches as u64) as f64;
        println!("{:<32} {ns:>8.2} ns/item", format!("foreach item ({name})"));
    }
}
