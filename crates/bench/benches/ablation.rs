//! Ablation studies (`cargo bench -p ecl-bench --bench ablation`) for the
//! design choices DESIGN.md calls out, numbered as the bench prints them:
//!
//! 1. **Memory order** — the paper (§II-A) warns that `libcu++` defaults
//!    (`seq_cst`) "can lead to poor performance": rerun race-free MIS with
//!    `seq_cst` device-scope atomics and compare with relaxed ones.
//! 2. **Compiler deferral** — how the baseline MIS's visibility delay
//!    (`DeferBounded { every, eighths }`) creates the race-free speedup.
//! 3. **Atomic RMW surcharge** — the hardware lever behind the Fig. 6
//!    newer-GPUs-lose-more trend.
//! 4. **MIS priority heuristic** — degree-inverse priorities buy larger
//!    sets than plain random ones (the ECL-MIS quality claim, §II-B-4).
//! 5. **ECL-GC shortcuts** — rounds/colors with and without the
//!    shortcutting optimizations (§II-B-3).

use ecl_core::mis;
use ecl_core::primitives::{AccessPolicy, Atomic, VolatileReadPlainWrite};
use ecl_core::suite::{run_algorithm, Algorithm, Variant};
use ecl_graph::inputs::GraphInput;
use ecl_simt::{Ctx, DevicePtr, GpuConfig, Hooks, MemOrder, Scope, StoreVisibility};

/// A race-free conversion that uses the expensive `libcu++` *defaults*
/// (`seq_cst`, device scope) instead of relaxed ordering — what a developer
/// gets without reading §II-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct SeqCstAtomic;

impl AccessPolicy for SeqCstAtomic {
    const NAME: &'static str = "seq_cst-atomic";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;

    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        ctx.atomic_load_explicit(p, MemOrder::SeqCst, Scope::Device)
    }
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        ctx.atomic_store_explicit(p, v, MemOrder::SeqCst, Scope::Device);
    }
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        ctx.atomic_load_explicit(p, MemOrder::SeqCst, Scope::Device)
    }
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        ctx.atomic_store_explicit(p, v, MemOrder::SeqCst, Scope::Device);
    }
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        ctx.atomic_rmw_explicit(p, MemOrder::SeqCst, Scope::Device, |old| old.max(v)) < v
    }
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        let words: DevicePtr<u32> = base.cast();
        let w = ctx.atomic_load_explicit(
            words.offset((i / 4) as usize),
            MemOrder::SeqCst,
            Scope::Device,
        );
        ((w >> ((i % 4) * 8)) & 0xff) as u8
    }
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        let words: DevicePtr<u32> = base.cast();
        let ptr = words.offset((i / 4) as usize);
        let shift = (i % 4) * 8;
        ctx.atomic_rmw_explicit(ptr, MemOrder::SeqCst, Scope::Device, |old| {
            (old & !(0xffu32 << shift)) | ((v as u32) << shift)
        });
    }
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.atomic_load_explicit(p.cast::<u32>(), MemOrder::SeqCst, Scope::Device)
    }
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.atomic_load_explicit(p.cast::<u32>().offset(1), MemOrder::SeqCst, Scope::Device)
    }
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, p.cast(), v)
    }
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, p.cast::<u32>().offset(1), v)
    }
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        ctx.atomic_store_explicit(p, 1, MemOrder::SeqCst, Scope::Device);
    }
}

fn main() {
    let gpu = GpuConfig::a100();
    let graph = GraphInput::by_name("rmat16.sym").unwrap().build(0.5, 1);

    println!("=== Ablation 1: memory-ordering cost (race-free MIS, A100-class) ===");
    let relaxed = mis::run::<Atomic>(&graph, &gpu, 1, StoreVisibility::Immediate);
    let seq_cst = mis::run::<SeqCstAtomic>(&graph, &gpu, 1, StoreVisibility::Immediate);
    assert!(mis::verify_mis(&graph, &relaxed.in_set));
    assert!(mis::verify_mis(&graph, &seq_cst.in_set));
    println!(
        "relaxed {:>10} cycles | seq_cst (libcu++ default) {:>10} cycles | default is {:.2}x slower",
        relaxed.cycles,
        seq_cst.cycles,
        seq_cst.cycles as f64 / relaxed.cycles as f64
    );

    println!("\n=== Ablation 2: compiler store deferral -> MIS race-free speedup ===");
    println!("{:>8} {:>8} {:>10}", "every", "eighths", "speedup");
    for (every, eighths) in [(1, 0), (2, 2), (2, 4), (2, 8), (4, 4), (4, 8)] {
        let base = mis::run::<VolatileReadPlainWrite>(
            &graph,
            &gpu,
            1,
            StoreVisibility::DeferBounded { every, eighths },
        );
        let free = mis::run::<Atomic>(&graph, &gpu, 1, StoreVisibility::Immediate);
        println!(
            "{every:>8} {eighths:>8} {:>10.3}",
            base.cycles as f64 / free.cycles as f64
        );
    }

    println!("\n=== Ablation 3: atomic RMW surcharge -> CC/SCC slowdown ===");
    let scc_graph = GraphInput::by_name("toroid-hex").unwrap().build(0.5, 1);
    println!("{:>8} {:>8} {:>8}", "extra", "CC", "SCC");
    for extra in [0u32, 8, 16, 32] {
        let mut custom = gpu.clone();
        custom.atomic_extra_cycles = extra;
        let cc = speedup(Algorithm::Cc, &graph, &custom);
        let scc = speedup(Algorithm::Scc, &scc_graph, &custom);
        println!("{extra:>8} {cc:>8.2} {scc:>8.2}");
    }

    println!("\n=== Ablation 4: MIS priority heuristic -> set size ===");
    let sizes = mis_priority_study(&graph);
    println!(
        "degree-inverse priorities: {} vertices | flat random: {} vertices | gain {:+.1}%",
        sizes.0,
        sizes.1,
        100.0 * (sizes.0 as f64 - sizes.1 as f64) / sizes.1 as f64
    );

    println!("\n=== Ablation 5: ECL-GC shortcuts -> rounds and colors ===");
    let with = ecl_core::gc::run::<Atomic, Atomic>(&graph, &gpu, 1, StoreVisibility::Immediate);
    let without = ecl_core::gc::run_without_shortcuts::<Atomic, Atomic>(
        &graph,
        &gpu,
        1,
        StoreVisibility::Immediate,
    );
    println!(
        "with shortcuts: {} rounds, {} colors, {} cycles | pure JP: {} rounds, {} colors, {} cycles",
        with.stats.num_launches() - 1,
        with.num_colors,
        with.cycles,
        without.stats.num_launches() - 1,
        without.num_colors,
        without.cycles,
    );
}

fn speedup(alg: Algorithm, graph: &ecl_graph::Csr, gpu: &GpuConfig) -> f64 {
    let base = run_algorithm(alg, Variant::Baseline, graph, gpu, 1);
    let free = run_algorithm(alg, Variant::RaceFree, graph, gpu, 1);
    assert!(base.valid && free.valid);
    base.cycles as f64 / free.cycles as f64
}

/// Compares the ECL-MIS degree-inverse priority against a flat random one
/// by running a serial greedy in both orders (isolates the heuristic from
/// the parallel machinery).
fn mis_priority_study(graph: &ecl_graph::Csr) -> (usize, usize) {
    let n = graph.num_vertices();
    let greedy = |key: &dyn Fn(u32) -> (u8, u32)| -> usize {
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| std::cmp::Reverse(key(v)));
        let mut state = vec![0u8; n]; // 0 undecided, 1 in, 2 out
        let mut count = 0;
        for &v in &order {
            if state[v as usize] == 0 {
                state[v as usize] = 1;
                count += 1;
                for &u in graph.neighbors(v as usize) {
                    if state[u as usize] == 0 {
                        state[u as usize] = 2;
                    }
                }
            }
        }
        count
    };
    let with_degree = greedy(&|v| (mis::priority(v, graph.degree(v as usize) as u32), v));
    let flat_random = greedy(&|v| {
        let mut h = v.wrapping_mul(0x9e37_79b9);
        h ^= h >> 16;
        ((h % 254) as u8 + 2, v)
    });
    (with_degree, flat_random)
}
