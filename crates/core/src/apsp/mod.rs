//! ECL-APSP: all-pairs shortest paths via the blocked Floyd-Warshall
//! algorithm (paper §II-B-1).
//!
//! The adjacency matrix is divided into tiles processed in the classic
//! three-phase schedule (diagonal tile, its row/column, everything else),
//! with each tile staged through per-block shared memory and block-wide
//! barriers between dependency steps.
//!
//! APSP is the suite's one *regular* code: every matrix element is touched
//! by exactly one thread per phase, so the baseline has **no data races**
//! (paper §IV-A) and the paper does not measure a race-free conversion for
//! it. We implement and verify it for completeness, and the race detector
//! confirms it is race-free as published.

mod kernels;
pub mod native;
mod verify;

pub use verify::{reference_apsp, verify_apsp};

use crate::common::{Digest, SimOptions};
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr};

/// "No path" distance. Small enough that `INF + weight` cannot overflow.
pub const INF: u32 = 0x3f3f_3f3f;

/// Tile side length. The paper uses 64×64 tiles on real GPUs, as does the
/// native port; the simulator uses 16×16 so a tile's threads (256) exactly
/// fill one block.
pub const TILE: usize = 16;

/// Outcome of an APSP run.
#[derive(Debug, Clone)]
pub struct ApspResult {
    /// Row-major distance matrix (`n * n`), `INF` for unreachable pairs.
    pub dist: Vec<u32>,
    /// Number of vertices.
    pub n: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Digest of the full distance matrix.
    pub digest: u64,
}

/// Runs blocked Floyd-Warshall on a weighted graph.
///
/// # Panics
///
/// Panics if the graph has no vertices, carries no weights, or has more
/// than 2048 vertices (the dense O(n²) matrix is meant for the small inputs
/// the quickstart and tests use).
pub fn run(g: &Csr, cfg: &GpuConfig, seed: u64) -> ApspResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on(&mut gpu, g)
}

/// Runs the blocked Floyd-Warshall kernels on a caller-provided GPU (e.g.
/// with simulator options, a race checker, or the contract sanitizer).
///
/// # Panics
///
/// As [`run`].
pub fn run_on(gpu: &mut Gpu, g: &Csr) -> ApspResult {
    assert!(g.num_vertices() > 0, "empty graph");
    assert!(
        g.num_vertices() <= 2048,
        "APSP is dense: {} vertices would need a {}-entry matrix",
        g.num_vertices(),
        g.num_vertices() * g.num_vertices()
    );
    let weights = g.weights().expect("APSP needs edge weights");
    let n = g.num_vertices();
    let padded = n.div_ceil(TILE).max(1) * TILE;

    // Host-side initial matrix: 0 on the diagonal, w on edges, INF elsewhere.
    let mut init = vec![INF; padded * padded];
    for v in 0..n {
        init[v * padded + v] = 0;
    }
    for (e, (u, v)) in g.edges().enumerate() {
        let slot = &mut init[u as usize * padded + v as usize];
        *slot = (*slot).min(weights[e]);
    }

    let dist = gpu.alloc_named::<u32>(padded * padded, "dist");
    gpu.upload(&dist, &init);
    kernels::run_on(gpu, dist, padded);
    let full = gpu.download(&dist);

    // Strip the padding.
    let mut out = vec![INF; n * n];
    for i in 0..n {
        out[i * n..(i + 1) * n].copy_from_slice(&full[i * padded..i * padded + n]);
    }
    let mut digest = Digest::new();
    for &d in &out {
        digest.push(d as u64);
    }
    ApspResult {
        n,
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        digest: digest.finish(),
        dist: out,
    }
}

/// Access-level IR of the blocked Floyd-Warshall kernels. APSP has no
/// variants and no policy-mediated sites — every op is fixed plain, which
/// is exactly why the repair pass finds nothing to rewrite. The published
/// code is race-free (paper §IV-A), and the IR expresses why: every matrix
/// element and staged tile slot has a single owning thread, barrier epochs
/// order staging against relaxation, and the pivot-line reads are declared
/// disjoint from the owned-element writes (the `if new < cur` guard keeps a
/// tile's pivot row and column unwritten during the step that reads them).
pub fn ir() -> Vec<KernelIr> {
    use crate::contracts::*;

    // Epoch 0: staging stores before the first block barrier. Epoch 1: the
    // relaxation steps after it.
    let stage_store = || {
        AccessOp::store("shared", OpWidth::B4, AccessMode::Plain, claim4())
            .shared()
            .region("elem")
            .phase(0)
            .fixed()
    };
    let elem_load = || {
        AccessOp::load("shared", OpWidth::B4, AccessMode::Plain, claim4())
            .shared()
            .region("elem")
            .phase(1)
            .fixed()
    };
    let pivot_load = || {
        AccessOp::load("shared", OpWidth::B4, AccessMode::Plain, Arbitrary)
            .shared()
            .region("pivot-line")
            .phase(1)
            .fixed()
    };
    let elem_store = || {
        AccessOp::store("shared", OpWidth::B4, AccessMode::Plain, claim4())
            .shared()
            .region("elem")
            .phase(1)
            .fixed()
    };
    let own_tile_load = || {
        AccessOp::load("dist", OpWidth::B4, AccessMode::Plain, claim4())
            .region("own-tile")
            .fixed()
    };
    let own_tile_store = || {
        AccessOp::store("dist", OpWidth::B4, AccessMode::Plain, claim4())
            .region("own-tile")
            .fixed()
    };
    let pivot_tile_load = |tag: &'static str| {
        AccessOp::load("dist", OpWidth::B4, AccessMode::Plain, Arbitrary)
            .region(tag)
            .fixed()
    };

    vec![
        KernelIr::new("apsp_phase1")
            .op(own_tile_load())
            .op(own_tile_store())
            .op(stage_store())
            .op(elem_load())
            .op(pivot_load())
            .op(elem_store()),
        // Phase 2 additionally stages and reads the finished diagonal tile,
        // which it never writes.
        KernelIr::new("apsp_phase2")
            .op(own_tile_load())
            .op(pivot_tile_load("pivot-diag"))
            .op(own_tile_store())
            .op(stage_store())
            .op(elem_load())
            .op(pivot_load())
            .op(elem_store()),
        // Phase 3 stages the pivot row/column tiles (read-shared across
        // blocks, never written here) and updates only its own tile.
        KernelIr::new("apsp_phase3")
            .op(pivot_tile_load("pivot-cross"))
            .op(own_tile_load())
            .op(own_tile_store())
            .op(stage_store())
            .op(pivot_load()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::gen;

    #[test]
    fn matches_dijkstra_on_torus() {
        let g = gen::grid2d_torus(6, 6).with_random_weights(9, 3);
        let r = run(&g, &GpuConfig::test_tiny(), 1);
        assert!(verify_apsp(&g, &r.dist));
    }

    #[test]
    fn matches_dijkstra_on_rmat() {
        let g = gen::rmat(48, 200, 0.57, 0.19, 0.19, true, 8).with_random_weights(50, 2);
        let r = run(&g, &GpuConfig::test_tiny(), 1);
        assert!(verify_apsp(&g, &r.dist));
    }

    #[test]
    fn disconnected_pairs_stay_inf() {
        let mut b = ecl_graph::CsrBuilder::new(4).symmetric(true);
        b.add_edge(0, 1).add_edge(2, 3);
        let g = b.build().with_random_weights(5, 1);
        let r = run(&g, &GpuConfig::test_tiny(), 1);
        assert_eq!(r.dist[2], INF); // dist(0, 2)
        assert_ne!(r.dist[1], INF); // dist(0, 1)
        assert!(verify_apsp(&g, &r.dist));
    }

    #[test]
    fn multi_tile_matrix() {
        // n = 40 forces a 48x48 padded matrix: 3x3 tiles, all three phases.
        let g = gen::random_uniform(40, 160, true, 5).with_random_weights(20, 4);
        let r = run(&g, &GpuConfig::test_tiny(), 1);
        assert!(verify_apsp(&g, &r.dist));
    }

    #[test]
    fn seeds_do_not_change_distances() {
        let g = gen::grid2d_torus(5, 5).with_random_weights(7, 6);
        let a = run(&g, &GpuConfig::test_tiny(), 1);
        let b = run(&g, &GpuConfig::test_tiny(), 123);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn apsp_is_race_free_as_published() {
        // Paper §IV-A: the baseline APSP has no data races. Prove it with
        // the race detector on a multi-tile instance.
        let g = gen::grid2d_torus(6, 6).with_random_weights(9, 3);
        let mut gpu = ecl_simt::Gpu::new(GpuConfig::test_tiny());
        gpu.observe(ecl_racecheck::RaceChecker::precise());
        run_on(&mut gpu, &g);
        assert!(ecl_racecheck::check_races(&gpu).is_empty());
    }
}
