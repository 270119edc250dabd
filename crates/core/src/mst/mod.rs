//! ECL-MST: minimum spanning tree/forest via a data-driven, edge-based
//! Borůvka algorithm with implicit path compression in the union-find
//! (paper §II-B-5).
//!
//! Shared state: the union-find parent array (traversed exactly like
//! ECL-CC's, with racy plain reads and shortening writes in the baseline)
//! and a per-component *best edge* array holding `(weight, edge)` packed in
//! a `long long`, updated with `atomicMin` in both variants but *read* with
//! `volatile` 64-bit loads in the baseline — the access the paper converts.
//!
//! Weights are packed above the edge index, so every key is unique and the
//! MST is deterministic across variants and interleavings.

mod kernels;
pub mod native;
mod verify;

pub use verify::{reference_mst_weight, verify_mst};

use crate::common::{DeviceGraph, Digest, SimOptions};
use crate::primitives::AccessPolicy;
use crate::suite::Flavor;
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr, StoreVisibility};

/// Outcome of an MST run.
#[derive(Debug, Clone)]
pub struct MstResult {
    /// `true` for edge indices chosen into the MST (canonical `u < v` halves).
    pub in_mst: Vec<bool>,
    /// Total weight of the chosen edges.
    pub total_weight: u64,
    /// Number of chosen edges.
    pub num_edges: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Digest over (weight, edge count) — identical across variants because
    /// unique keys make the MST unique.
    pub digest: u64,
}

/// Runs ECL-MST with the given access policy on a fresh simulated GPU.
///
/// # Panics
///
/// Panics if the graph has no vertices or carries no edge weights.
pub fn run<P: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> MstResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on::<P>(&mut gpu, g, visibility)
}

/// Runs the ECL-MST kernels on a caller-provided GPU (e.g. with simulator
/// options, a race checker, or the contract sanitizer).
///
/// # Panics
///
/// Panics if the graph has no vertices or carries no edge weights.
pub fn run_on<P: AccessPolicy>(gpu: &mut Gpu, g: &Csr, visibility: StoreVisibility) -> MstResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let weights = g
        .weights()
        .expect("MST needs edge weights: call Csr::with_random_weights first");
    let dg = DeviceGraph::upload(gpu, g);
    let flags = kernels::run_on::<P>(gpu, &dg, g, visibility);
    let mut host_flags: Vec<u8> = gpu.download(&flags);
    host_flags.truncate(g.num_edges());
    let mut total_weight = 0u64;
    let mut num_edges = 0usize;
    let in_mst: Vec<bool> = host_flags.iter().map(|&f| f != 0).collect();
    for (e, &inside) in in_mst.iter().enumerate() {
        if inside {
            total_weight += weights[e] as u64;
            num_edges += 1;
        }
    }
    let mut digest = Digest::new();
    digest.push(total_weight);
    digest.push(num_edges as u64);
    MstResult {
        total_weight,
        num_edges,
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        digest: digest.finish(),
        in_mst,
    }
}

/// Access-level IR of the ECL-MST kernels under flavor `F`'s policy. The
/// `parent` chasing, the 64-bit `best` reads, the `in_mst` byte flags, and
/// the `changed` flag are policy-mediated; the launch-ordered init stores,
/// the owned `best` reset, and the `atomicMin` bid are hard-coded. The
/// best-edge bidding is `atomicMin` in both variants, as in ECL-MST — the
/// baseline races are in the `parent`/`best` reads around it.
pub fn ir<F: Flavor>() -> Vec<KernelIr> {
    use crate::contracts::*;
    vec![
        // Init stores through plain accesses in both variants (no other
        // thread can observe them before the launch boundary).
        KernelIr::new("mst_init")
            .op(AccessOp::store("parent", OpWidth::B4, AccessMode::Plain, own4()).fixed())
            .op(AccessOp::store("best", OpWidth::B8, AccessMode::Plain, own8()).fixed()),
        KernelIr::new("mst_find_min")
            .ops(csr_loads(&["edge_src", "col_indices", "weights"]))
            .ops(union_find_rep::<F::Mst>("parent"))
            .op(atomic_rmw("best")),
        // `mst_connect` reads and resets its own component's best slot,
        // merges via `atomicCAS`, and flags edges/progress.
        KernelIr::new("mst_connect")
            .ops(csr_loads(&["edge_src", "col_indices"]))
            .op(word64_read::<F::Mst>("best", claim8()))
            .op(AccessOp::store("best", OpWidth::B8, AccessMode::Plain, claim8()).fixed())
            .ops(union_find_hook::<F::Mst>("parent"))
            .op(byte_write::<F::Mst>("in_mst", claim1()))
            .op(flag_raise::<F::Mst>("changed")),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{Atomic, Volatile};
    use ecl_graph::gen;

    fn check_graph(g: &Csr) {
        let cfg = GpuConfig::test_tiny();
        let base = run::<Volatile>(g, &cfg, 1, StoreVisibility::Immediate);
        let free = run::<Atomic>(g, &cfg, 1, StoreVisibility::Immediate);
        assert!(verify_mst(g, &base.in_mst), "baseline MST invalid");
        assert!(verify_mst(g, &free.in_mst), "race-free MST invalid");
        assert_eq!(base.digest, free.digest);
        let reference = reference_mst_weight(g);
        assert_eq!(base.total_weight, reference, "baseline weight wrong");
        assert_eq!(free.total_weight, reference, "race-free weight wrong");
    }

    #[test]
    fn mst_of_rmat() {
        check_graph(&gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, 5).with_random_weights(1000, 7));
    }

    #[test]
    fn mst_of_torus() {
        check_graph(&gen::grid2d_torus(12, 12).with_random_weights(100, 3));
    }

    #[test]
    fn mst_of_disconnected_graph_is_a_forest() {
        let mut b = ecl_graph::CsrBuilder::new(6).symmetric(true);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .add_edge(4, 5);
        let g = b.build().with_random_weights(10, 1);
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        // 6 vertices, 2 components -> 4 forest edges.
        assert_eq!(r.num_edges, 4);
        assert!(verify_mst(&g, &r.in_mst));
    }

    #[test]
    fn seeds_do_not_change_the_tree() {
        let g = gen::random_uniform(200, 800, true, 2).with_random_weights(500, 9);
        let a = run::<Volatile>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        let b = run::<Volatile>(&g, &GpuConfig::test_tiny(), 42, StoreVisibility::Immediate);
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    #[should_panic(expected = "needs edge weights")]
    fn unweighted_graph_rejected() {
        let g = gen::grid2d_torus(4, 4);
        let _ = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
    }
}
