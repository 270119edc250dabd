//! ECL-SCC: strongly connected components via edge-centric max-ID
//! propagation (paper §II-B-6).
//!
//! Every vertex simultaneously acts as a pivot: each vertex tracks the
//! maximum ID on its incoming paths and on its outgoing paths, stored as an
//! `int2` pair packed in a `long long`. When the two maxima agree, the
//! vertex belongs to the SCC pivoted by that ID. Settled vertices drop out
//! and the remainder iterates. Monotonicity of the max propagation is what
//! makes the baseline's lost updates "benign" (they are re-propagated).
//!
//! Each propagation round rescans every edge, and the host relaunches the
//! round until the global "repeat" flag stays clear. This full-scan engine
//! is the only one: it carries the `repeat` flag whose `bool` → `int`
//! conversion the paper describes (§IV-C), and its SCC geomean speedups sit
//! closer to the paper's than those of a data-driven worklist engine that
//! revisits only changed vertices (EXPERIMENTS.md, "SCC propagation
//! engine").
//!
//! Baseline races: plain reads/writes of the pair halves and of the global
//! "repeat" boolean. The race-free version uses the paper's Fig. 5 helpers
//! (atomic operations on each `int` half) and converts the flag to an `int`.

mod kernels;
pub mod native;
mod verify;

pub use verify::{reference_sccs, verify_sccs};

use crate::common::{partition_summary, DeviceGraph, SimOptions};
use crate::primitives::AccessPolicy;
use crate::suite::Flavor;
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr, StoreVisibility};

/// Outcome of an SCC run.
#[derive(Debug, Clone)]
pub struct SccResult {
    /// SCC pivot id per vertex (vertices sharing a value share an SCC).
    pub scc_ids: Vec<u32>,
    /// Number of strongly connected components.
    pub num_sccs: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Canonical partition digest (identical across variants).
    pub digest: u64,
}

/// Runs ECL-SCC with the given access policy on a fresh simulated GPU.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run<P: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> SccResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on::<P>(&mut gpu, g, visibility)
}

/// Runs the ECL-SCC kernels on a caller-provided GPU (e.g. with simulator
/// options, a race checker, or the contract sanitizer).
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run_on<P: AccessPolicy>(gpu: &mut Gpu, g: &Csr, visibility: StoreVisibility) -> SccResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let dg = DeviceGraph::upload(gpu, g);
    let ids = kernels::run_on::<P>(gpu, &dg, g, visibility);
    let scc_ids = gpu.download(&ids);
    let (digest, num_sccs) = partition_summary(&scc_ids);
    SccResult {
        digest,
        num_sccs,
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        scc_ids,
    }
}

/// Access-level IR of the ECL-SCC kernels under flavor `F`'s policy. The
/// packed-pair `max_id_pair` traffic and the `repeat_flag` raise are
/// policy-mediated; the owned `scc_id` bookkeeping and the settle counter
/// are hard-coded.
pub fn ir<F: Flavor>() -> Vec<KernelIr> {
    use crate::contracts::*;
    use ecl_simt::BenignClass::MonotonicUpdate;
    vec![
        KernelIr::new("scc_init")
            .op(AccessOp::load("scc_id", OpWidth::B4, AccessMode::Plain, own4()).fixed())
            .op(AccessOp::store("max_id_pair", OpWidth::B8, AccessMode::Plain, own8()).fixed()),
        // The pair halves: arbitrary-index reads plus the monotone max
        // updates (racy load+store in the baseline, atomicMax race-free).
        KernelIr::new("scc_propagate")
            .ops(csr_loads(&["edge_src", "col_indices"]))
            .op(AccessOp::load("scc_id", OpWidth::B4, AccessMode::Plain, Arbitrary).fixed())
            .op(pair_read::<F::Scc>("max_id_pair", Arbitrary).benign(MonotonicUpdate))
            .op(pair_max::<F::Scc>("max_id_pair"))
            .op(flag_raise::<F::Scc>("repeat_flag")),
        KernelIr::new("scc_settle")
            .op(AccessOp::load("scc_id", OpWidth::B4, AccessMode::Plain, own4()).fixed())
            .op(AccessOp::store("scc_id", OpWidth::B4, AccessMode::Plain, own4()).fixed())
            .op(pair_read::<F::Scc>("max_id_pair", own8()))
            .op(atomic_rmw("settled_count")),
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
        assert!(verify_sccs(g, &base.scc_ids), "baseline SCCs invalid");
        assert!(verify_sccs(g, &free.scc_ids), "race-free SCCs invalid");
        assert_eq!(base.digest, free.digest, "variants disagree");
        assert_eq!(base.num_sccs, reference_sccs(g).1);
    }

    #[test]
    fn single_cycle_is_one_scc() {
        let g = gen::star_polygon(64, 7);
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert_eq!(r.num_sccs, 1);
        assert!(verify_sccs(&g, &r.scc_ids));
    }

    #[test]
    fn dag_has_singleton_sccs() {
        // A directed path: every vertex its own SCC.
        let mut b = ecl_graph::CsrBuilder::new(8);
        for v in 0..7u32 {
            b.add_edge(v, v + 1);
        }
        let g = b.build();
        let r = run::<Plain>(
            &g,
            &GpuConfig::test_tiny(),
            1,
            StoreVisibility::DeferUntilYield,
        );
        assert_eq!(r.num_sccs, 8);
        assert!(verify_sccs(&g, &r.scc_ids));
    }

    #[test]
    fn variants_agree_on_directed_prefattach() {
        check_graph(&gen::pref_attach_directed(300, 4, 0.05, 3));
    }

    #[test]
    fn variants_agree_on_mesh() {
        check_graph(&gen::toroid_hex(12, 12));
    }

    #[test]
    fn variants_agree_on_two_cycles_and_bridge() {
        // Two 4-cycles joined by one directed bridge: 2 SCCs.
        let mut b = ecl_graph::CsrBuilder::new(8);
        for v in 0..4u32 {
            b.add_edge(v, (v + 1) % 4);
            b.add_edge(4 + v, 4 + (v + 1) % 4);
        }
        b.add_edge(0, 4);
        let g = b.build();
        check_graph(&g);
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert_eq!(r.num_sccs, 2);
    }

    #[test]
    fn seeds_do_not_change_the_partition() {
        let g = gen::klein_bottle(12, 12, 4);
        let a = run::<Plain>(
            &g,
            &GpuConfig::test_tiny(),
            1,
            StoreVisibility::DeferUntilYield,
        );
        let b = run::<Plain>(
            &g,
            &GpuConfig::test_tiny(),
            50,
            StoreVisibility::DeferUntilYield,
        );
        assert_eq!(a.digest, b.digest);
    }
}
