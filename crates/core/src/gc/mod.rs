//! ECL-GC: graph coloring via Jones-Plassmann with the largest-degree-first
//! heuristic and the two ECL-GC shortcut optimizations (paper §II-B-3).
//!
//! Shared state: each vertex's chosen color and its current *minimum
//! possible color* (`minposs`). A vertex may color itself early — before
//! all higher-priority neighbors are colored — when every such neighbor's
//! `minposs` already excludes the candidate color (shortcut 1); publishing
//! `minposs` each round is shortcut 2's bookkeeping that increases
//! parallelism.
//!
//! The baseline accesses both shared arrays with `volatile` loads/stores;
//! the race-free version uses relaxed atomics. Because `volatile` already
//! bypasses the L1 on GPUs, the conversion costs little — the paper's
//! geomean speedups stay within 0.96–1.00.

mod kernels;
pub mod native;
mod verify;

pub use verify::verify_coloring;

use crate::common::{DeviceGraph, Digest, SimOptions};
use crate::primitives::AccessPolicy;
use crate::suite::Flavor;
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr, StoreVisibility};

/// Sentinel for "not yet colored".
pub const NO_COLOR: u32 = u32::MAX;

/// Outcome of a GC run.
#[derive(Debug, Clone)]
pub struct GcResult {
    /// Color per vertex.
    pub colors: Vec<u32>,
    /// Number of distinct colors used.
    pub num_colors: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Digest: hashes validity only (the shortcuts make the exact coloring
    /// timing-dependent, as in the real ECL-GC).
    pub digest: u64,
}

/// Runs ECL-GC with the given access policies on a fresh simulated GPU:
/// `P` covers the polled color array, `Q` the shortcut `minposs` array (the
/// baseline uses `volatile` colors but plain shortcut state; the race-free
/// conversion makes both atomic).
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run<P: AccessPolicy, Q: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> GcResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on::<P, Q>(&mut gpu, g, visibility)
}

/// Runs the ECL-GC kernels on a caller-provided GPU (e.g. with simulator
/// options, a race checker, or the contract sanitizer).
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run_on<P: AccessPolicy, Q: AccessPolicy>(
    gpu: &mut Gpu,
    g: &Csr,
    visibility: StoreVisibility,
) -> GcResult {
    color::<P, Q>(gpu, g, visibility, true)
}

/// Runs pure Jones-Plassmann largest-degree-first coloring *without* the
/// two ECL-GC shortcuts — the ablation baseline isolating what shortcutting
/// buys. A vertex only colors once every higher-priority neighbor has.
///
/// Unlike the shortcut version, pure JP is deterministic: the coloring is
/// the sequential greedy in priority order regardless of timing.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run_without_shortcuts<P: AccessPolicy, Q: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> GcResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    color::<P, Q>(&mut gpu, g, visibility, false)
}

/// Uploads `g`, colors it with or without the ECL-GC shortcuts, and reads
/// the coloring back.
fn color<P: AccessPolicy, Q: AccessPolicy>(
    gpu: &mut Gpu,
    g: &Csr,
    visibility: StoreVisibility,
    shortcuts: bool,
) -> GcResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let dg = DeviceGraph::upload(gpu, g);
    let colors_buf = kernels::run_on_with::<P, Q>(gpu, &dg, visibility, shortcuts);
    let colors = gpu.download(&colors_buf);
    let mut distinct = colors.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let valid = verify_coloring(g, &colors);
    let mut digest = Digest::new();
    digest.push(valid as u64);
    GcResult {
        num_colors: distinct.len(),
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        digest: digest.finish(),
        colors,
    }
}

/// Access-level IR of the ECL-GC kernels under flavor `F`'s policy pair.
/// Both the `color` and `minposs` traffic are policy-mediated
/// (`F::GcColor` and `F::GcMinposs`), so every non-RMW op is repairable.
pub fn ir<F: Flavor>() -> Vec<KernelIr> {
    use crate::contracts::*;
    use ecl_simt::BenignClass::{MonotonicUpdate, RePropagatedLostUpdate};
    vec![
        KernelIr::new("gc_init")
            .op(word_write::<F::GcColor>("color", own4()))
            .op(word_write::<F::GcMinposs>("minposs", own4())),
        // `gc_round` is chunked, so the own-vertex writes are first-touch
        // owned rather than grid-stride owned.
        KernelIr::new("gc_round")
            .ops(csr_loads(&["row_offsets", "col_indices"]))
            .op(word_read::<F::GcColor>("color", Arbitrary).benign(RePropagatedLostUpdate))
            .op(word_write::<F::GcColor>("color", claim4()).benign(RePropagatedLostUpdate))
            .op(word_read::<F::GcMinposs>("minposs", Arbitrary).benign(MonotonicUpdate))
            .op(word_write::<F::GcMinposs>("minposs", claim4()).benign(MonotonicUpdate))
            .op(atomic_rmw("remaining")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{Atomic, Plain, Volatile};
    use ecl_graph::gen;

    fn check_graph(g: &Csr) {
        let cfg = GpuConfig::test_tiny();
        let base = run::<Volatile, Plain>(g, &cfg, 1, StoreVisibility::DeferUntilYield);
        let free = run::<Atomic, Atomic>(g, &cfg, 1, StoreVisibility::Immediate);
        assert!(
            verify_coloring(g, &base.colors),
            "baseline coloring invalid"
        );
        assert!(
            verify_coloring(g, &free.colors),
            "race-free coloring invalid"
        );
        // Both must be proper colorings; the exact colors may differ (the
        // shortcuts make coloring order timing-dependent), but quality
        // should be in the same ballpark.
        assert!(free.num_colors <= 2 * base.num_colors + 2);
        assert!(base.num_colors <= 2 * free.num_colors + 2);
    }

    #[test]
    fn colors_rmat() {
        check_graph(&gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 3));
    }

    #[test]
    fn colors_torus_with_few_colors() {
        let g = gen::grid2d_torus(16, 16);
        let r = run::<Atomic, Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert!(verify_coloring(&g, &r.colors));
        // A 4-regular toroidal grid colors with very few colors.
        assert!(r.num_colors <= 5, "used {} colors", r.num_colors);
    }

    #[test]
    fn colors_clique_exactly() {
        // A k-clique needs exactly k colors; greedy JP achieves it.
        let mut b = ecl_graph::CsrBuilder::new(6).symmetric(true);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                b.add_edge(i, j);
            }
        }
        let g = b.build();
        let r = run::<Volatile, Plain>(
            &g,
            &GpuConfig::test_tiny(),
            1,
            StoreVisibility::DeferUntilYield,
        );
        assert!(verify_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 6);
    }

    #[test]
    fn colors_prefattach() {
        check_graph(&gen::pref_attach(400, 4, 0.05, 2));
    }

    #[test]
    fn edgeless_graph_uses_one_color() {
        let g = ecl_graph::CsrBuilder::new(8).build();
        let r = run::<Atomic, Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert_eq!(r.num_colors, 1);
    }

    #[test]
    fn no_shortcut_variant_is_pure_jp() {
        // Pure JP is deterministic and valid; the shortcuts must not use
        // more colors than it by more than a whisker (ECL-GC: "as few or
        // fewer colors").
        let g = gen::rmat(384, 1536, 0.5, 0.2, 0.2, true, 9);
        let cfg = GpuConfig::test_tiny();
        let plain_jp =
            run_without_shortcuts::<Atomic, Atomic>(&g, &cfg, 1, StoreVisibility::Immediate);
        let plain_jp2 =
            run_without_shortcuts::<Atomic, Atomic>(&g, &cfg, 55, StoreVisibility::Immediate);
        assert!(verify_coloring(&g, &plain_jp.colors));
        // Determinism across seeds (the shortcut version does not have this).
        assert_eq!(plain_jp.colors, plain_jp2.colors);
        let shortcut = run::<Atomic, Atomic>(&g, &cfg, 1, StoreVisibility::Immediate);
        assert!(shortcut.num_colors <= plain_jp.num_colors + 2);
    }

    #[test]
    fn shortcuts_reduce_coloring_rounds() {
        // The whole point of the ECL-GC shortcuts: more parallelism, fewer
        // rounds. Compare kernel-launch counts on a priority-chain-rich graph.
        let g = gen::pref_attach(600, 5, 0.05, 4);
        let cfg = GpuConfig::test_tiny();
        let with = run::<Atomic, Atomic>(&g, &cfg, 1, StoreVisibility::Immediate);
        let without =
            run_without_shortcuts::<Atomic, Atomic>(&g, &cfg, 1, StoreVisibility::Immediate);
        assert!(
            with.stats.num_launches() <= without.stats.num_launches(),
            "shortcuts should never need more rounds ({} vs {})",
            with.stats.num_launches(),
            without.stats.num_launches()
        );
    }
}
