//! The fast/slow-path contract: the monomorphized `NoHooks` interpreter and
//! the fully-hooked interpreter must be **bit-identical** — same kernel
//! results, same cycle counts, same cache statistics — for every algorithm,
//! variant, and GPU preset.
//!
//! This is the test that makes the hot/slow-path split safe to maintain:
//! the fast path elides the sink/fault/sanitizer hook sites entirely
//! (they are compiled out via the `Hooks` const generic), and an access
//! sink only observes, so a hooked run with a sink armed must behave
//! exactly like an unhooked run. Any divergence — a skipped drain, a cache touch in
//! one path only, a counter updated differently — fails here on the exact
//! launch where the two paths split.

use ecl_core::primitives::{Atomic, Plain, Volatile, VolatileReadPlainWrite};
use ecl_core::suite::with_suite_weights;
use ecl_core::{apsp, cc, gc, mis, mst, scc};
use ecl_graph::gen::rmat;
use ecl_graph::Csr;
use ecl_simt::mem::Memory;
use ecl_simt::{AccessEvent, AccessSink, Gpu, GpuConfig, StoreVisibility};

/// Counts the accesses it observes.
struct Counter(u64);

impl AccessSink for Counter {
    fn launch(&mut self, _id: u32, _kernel: &str) {}

    fn access(&mut self, _event: &AccessEvent, _memory: &Memory) {
        self.0 += 1;
    }
}

/// FNV-1a over raw little-endian bytes: a bit-exact digest of kernel output.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn fnv32(words: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(words.len() * 4);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    fnv(&bytes)
}

fn fnvb(flags: &[bool]) -> u64 {
    let bytes: Vec<u8> = flags.iter().map(|&b| b as u8).collect();
    fnv(&bytes)
}

/// Runs one algorithm × variant on a caller-provided GPU with the canonical
/// policy/visibility mapping (spelled out here rather than taken from
/// `ecl_core::suite`, because the digest covers the raw solution vectors);
/// returns a bit-exact digest of the kernel result.
fn run_combo(gpu: &mut Gpu, algorithm: &str, race_free: bool, graph: &Csr) -> u64 {
    let deferred = StoreVisibility::DeferUntilYield;
    let immediate = StoreVisibility::Immediate;
    match (algorithm, race_free) {
        ("apsp", _) => fnv32(&apsp::run_on(gpu, graph).dist),
        ("cc", false) => fnv32(&cc::run_on::<Plain>(gpu, graph, deferred).labels),
        ("cc", true) => fnv32(&cc::run_on::<Atomic>(gpu, graph, immediate).labels),
        ("gc", false) => fnv32(&gc::run_on::<Volatile, Plain>(gpu, graph, deferred).colors),
        ("gc", true) => fnv32(&gc::run_on::<Atomic, Atomic>(gpu, graph, immediate).colors),
        ("mis", false) => fnvb(
            &mis::run_on::<VolatileReadPlainWrite>(
                gpu,
                graph,
                StoreVisibility::DeferBounded {
                    every: 2,
                    eighths: 4,
                },
            )
            .in_set,
        ),
        ("mis", true) => fnvb(&mis::run_on::<Atomic>(gpu, graph, immediate).in_set),
        ("mst", false) => fnvb(&mst::run_on::<Volatile>(gpu, graph, immediate).in_mst),
        ("mst", true) => fnvb(&mst::run_on::<Atomic>(gpu, graph, immediate).in_mst),
        ("scc", false) => fnv32(&scc::run_on::<Plain>(gpu, graph, deferred).scc_ids),
        ("scc", true) => fnv32(&scc::run_on::<Atomic>(gpu, graph, immediate).scc_ids),
        _ => unreachable!("unknown combo {algorithm}/{race_free}"),
    }
}

/// Runs the combo twice — once with no hook (eligible for, and dispatched
/// to, the `NoHooks` fast path) and once with a sink armed (forced onto the
/// fully-hooked path) — and asserts bitwise equality of results, elapsed
/// cycles, and every launch's `KernelStats` (cache hits/misses, DRAM
/// transactions, access counters, steps).
fn assert_paths_identical(algorithm: &str, race_free: bool, cfg: &GpuConfig, graph: &Csr) {
    let label = format!(
        "{algorithm}/{} on {}",
        if race_free { "racefree" } else { "baseline" },
        cfg.name
    );

    let mut fast = Gpu::new(cfg.clone());
    fast.set_seed(0x5eed);
    assert!(
        fast.fast_path_eligible(),
        "{label}: fresh GPU must be fast-path eligible"
    );
    let fast_digest = run_combo(&mut fast, algorithm, race_free, graph);

    let mut hooked = Gpu::new(cfg.clone());
    hooked.set_seed(0x5eed);
    hooked.observe(Counter(0));
    assert!(
        !hooked.fast_path_eligible(),
        "{label}: a GPU with a sink armed must take the hooked path"
    );
    let hooked_digest = run_combo(&mut hooked, algorithm, race_free, graph);
    assert!(
        hooked.sink::<Counter>().expect("sink armed").0 > 0,
        "{label}: the hooked run must actually have observed accesses"
    );

    assert_eq!(
        fast_digest, hooked_digest,
        "{label}: kernel results differ between fast and hooked paths"
    );
    assert_eq!(
        fast.elapsed_cycles(),
        hooked.elapsed_cycles(),
        "{label}: cycle counts differ between fast and hooked paths"
    );
    assert_eq!(
        fast.run_stats().launches.len(),
        hooked.run_stats().launches.len(),
        "{label}: launch counts differ"
    );
    for (i, (f, h)) in fast
        .run_stats()
        .launches
        .iter()
        .zip(hooked.run_stats().launches.iter())
        .enumerate()
    {
        assert_eq!(
            f, h,
            "{label}: launch #{i} ('{}') stats differ between paths",
            f.name
        );
    }
}

/// The unweighted test graph: a small scale-free (R-MAT) graph with enough
/// contention to exercise the racy hot paths on every preset.
fn unit_graph(symmetric: bool) -> Csr {
    rmat(256, 1024, 0.57, 0.19, 0.19, symmetric, 0x7a57)
}

fn weighted_graph() -> Csr {
    with_suite_weights(unit_graph(true))
}

fn presets() -> Vec<GpuConfig> {
    GpuConfig::paper_gpus()
}

#[test]
fn cc_paths_identical_on_all_presets() {
    let g = unit_graph(true);
    for cfg in presets() {
        assert_paths_identical("cc", false, &cfg, &g);
        assert_paths_identical("cc", true, &cfg, &g);
    }
}

#[test]
fn gc_paths_identical_on_all_presets() {
    let g = unit_graph(true);
    for cfg in presets() {
        assert_paths_identical("gc", false, &cfg, &g);
        assert_paths_identical("gc", true, &cfg, &g);
    }
}

#[test]
fn mis_paths_identical_on_all_presets() {
    let g = unit_graph(true);
    for cfg in presets() {
        assert_paths_identical("mis", false, &cfg, &g);
        assert_paths_identical("mis", true, &cfg, &g);
    }
}

#[test]
fn mst_paths_identical_on_all_presets() {
    let g = weighted_graph();
    for cfg in presets() {
        assert_paths_identical("mst", false, &cfg, &g);
        assert_paths_identical("mst", true, &cfg, &g);
    }
}

#[test]
fn scc_paths_identical_on_all_presets() {
    let g = unit_graph(false);
    for cfg in presets() {
        assert_paths_identical("scc", false, &cfg, &g);
        assert_paths_identical("scc", true, &cfg, &g);
    }
}

#[test]
fn apsp_paths_identical_on_all_presets() {
    // APSP is O(n^3); a smaller weighted graph keeps 4 presets x 2 variants
    // fast. Both variants run the same (race-free) blocked Floyd-Warshall.
    let g = rmat(96, 384, 0.57, 0.19, 0.19, true, 0x7a57).with_random_weights(100, 0xec1);
    for cfg in presets() {
        assert_paths_identical("apsp", false, &cfg, &g);
        assert_paths_identical("apsp", true, &cfg, &g);
    }
}
