//! ECL-CC: connected components via label propagation over a lock-free,
//! asynchronous union-find with intermediate pointer jumping (paper §II-B-2).
//!
//! The baseline's races: the `representative()` loop reads and shortens
//! parent links with plain accesses (the paper's §VI-A profiling hot spot);
//! the race-free version performs the same traversal through relaxed
//! atomics, which bypass the L1 and cause the large slowdowns of Tables
//! IV–VII.

mod kernels;
pub mod native;
mod verify;

pub use verify::{reference_components, verify_components};

use crate::common::{partition_summary, DeviceGraph, SimOptions};
use crate::primitives::AccessPolicy;
use crate::suite::Flavor;
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr, StoreVisibility};

/// Outcome of a CC run.
#[derive(Debug, Clone)]
pub struct CcResult {
    /// Final component label per vertex.
    pub labels: Vec<u32>,
    /// Number of connected components.
    pub num_components: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Canonical partition digest (identical across variants).
    pub digest: u64,
}

/// Runs ECL-CC with the given access policy on a fresh simulated GPU.
///
/// `visibility` is the compiler model for plain stores: the racy baseline is
/// run with [`StoreVisibility::DeferUntilYield`], the race-free version with
/// [`StoreVisibility::Immediate`] (its shared accesses are atomic anyway).
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run<P: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> CcResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on::<P>(&mut gpu, g, visibility)
}

/// Runs the ECL-CC kernels on a caller-provided GPU — use this instead of
/// [`run`] when you need device-level control such as simulator options,
/// a race checker, or the contract sanitizer.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run_on<P: AccessPolicy>(gpu: &mut Gpu, g: &Csr, visibility: StoreVisibility) -> CcResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let dg = DeviceGraph::upload(gpu, g);
    let labels = kernels::run_on::<P>(gpu, &dg, visibility);
    let host_labels = gpu.download(&labels);
    let (digest, num_components) = partition_summary(&host_labels);
    CcResult {
        digest,
        num_components,
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        labels: host_labels,
    }
}

/// Access-level IR of the ECL-CC kernels under flavor `F`'s policy. The
/// `label` union-find traffic is policy-mediated (repairable); the CSR
/// loads, the ticketed `heavy` slot stores, and the hook CAS are hard-coded
/// in the kernel bodies.
pub fn ir<F: Flavor>() -> Vec<KernelIr> {
    use crate::contracts::*;
    let csr = || csr_loads(&["row_offsets", "col_indices"]);
    vec![
        KernelIr::new("cc_init")
            .ops(csr())
            .op(word_write::<F::Cc>("label", own4())),
        KernelIr::new("cc_compute_light")
            .ops(csr())
            .ops(union_find_hook::<F::Cc>("label"))
            .op(atomic_rmw("heavy_count"))
            // Each heavy vertex goes to a freshly-ticketed slot.
            .op(AccessOp::store("heavy", OpWidth::B4, AccessMode::Plain, claim4()).fixed()),
        KernelIr::new("cc_compute_heavy")
            .ops(csr())
            .ops(csr_loads(&["heavy", "heavy_offsets"]))
            .ops(union_find_hook::<F::Cc>("label")),
        KernelIr::new("cc_flatten")
            .ops(union_find_rep::<F::Cc>("label"))
            .op(word_write::<F::Cc>("label", own4())),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{Atomic, Plain};
    use ecl_graph::gen;

    fn check_graph(g: &Csr) {
        let cfg = GpuConfig::test_tiny();
        let base = run::<Plain>(g, &cfg, 1, StoreVisibility::DeferUntilYield);
        let free = run::<Atomic>(g, &cfg, 1, StoreVisibility::Immediate);
        assert!(
            verify_components(g, &base.labels),
            "baseline labels invalid"
        );
        assert!(
            verify_components(g, &free.labels),
            "race-free labels invalid"
        );
        assert_eq!(base.digest, free.digest, "variants disagree");
        let reference = reference_components(g);
        assert_eq!(base.num_components, reference, "wrong component count");
    }

    #[test]
    fn torus_is_one_component() {
        let g = gen::grid2d_torus(8, 8);
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 3, StoreVisibility::Immediate);
        assert_eq!(r.num_components, 1);
        assert!(verify_components(&g, &r.labels));
    }

    #[test]
    fn variants_agree_on_rmat() {
        check_graph(&gen::rmat(512, 1024, 0.57, 0.19, 0.19, true, 2));
    }

    #[test]
    fn variants_agree_on_road() {
        check_graph(&gen::road_network(400, 0.05, 3));
    }

    #[test]
    fn isolated_vertices_are_singletons() {
        // A graph with only two connected vertices out of 10.
        let mut b = ecl_graph::CsrBuilder::new(10).symmetric(true);
        b.add_edge(3, 7);
        let g = b.build();
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert_eq!(r.num_components, 9);
        assert_eq!(r.labels[3], r.labels[7]);
    }

    #[test]
    fn seeds_do_not_change_the_partition() {
        let g = gen::pref_attach(300, 3, 0.0, 5);
        let a = run::<Plain>(
            &g,
            &GpuConfig::test_tiny(),
            1,
            StoreVisibility::DeferUntilYield,
        );
        let b = run::<Plain>(
            &g,
            &GpuConfig::test_tiny(),
            99,
            StoreVisibility::DeferUntilYield,
        );
        assert_eq!(a.digest, b.digest);
    }
}
