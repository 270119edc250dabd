//! ECL-MIS: maximal independent set via an asynchronous, priority-ordered
//! variant of Luby's algorithm (paper §II-B-4).
//!
//! Each vertex's status and priority share a single byte (`0` = OUT, `1` =
//! IN, `2..=255` = still-undecided priority). Priorities are partially
//! random and inversely proportional to degree, which makes the found sets
//! large. Threads repeatedly poll their vertices' neighbors and decide a
//! vertex once every higher-priority neighbor has been decided.
//!
//! This is the code the paper found to get *faster* when made race-free: the
//! baseline's plain byte accesses let the compiler defer status writes, so
//! other threads keep polling stale bytes for extra rounds, while the
//! race-free version's atomic accesses (via the Fig. 3/4 typecast-and-mask
//! helpers) publish decisions immediately.

mod kernels;
pub mod native;
mod verify;

pub use verify::verify_mis;

use crate::common::{DeviceGraph, Digest, SimOptions};
use crate::primitives::AccessPolicy;
use crate::suite::Flavor;
use ecl_graph::Csr;
use ecl_simt::{Gpu, GpuConfig, KernelIr, StoreVisibility};

/// Status byte value for vertices excluded from the set.
pub const OUT: u8 = 0;
/// Status byte value for vertices in the set.
pub const IN: u8 = 1;

/// Outcome of an MIS run.
#[derive(Debug, Clone)]
pub struct MisResult {
    /// `true` for vertices in the independent set.
    pub in_set: Vec<bool>,
    /// Number of vertices in the set.
    pub set_size: usize,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Per-launch profile.
    pub stats: ecl_simt::metrics::RunStats,
    /// Digest of the set (deterministic: the priority order fixes the MIS).
    pub digest: u64,
}

/// Runs ECL-MIS with the given access policy on a fresh simulated GPU.
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run<P: AccessPolicy>(
    g: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    visibility: StoreVisibility,
) -> MisResult {
    let mut gpu = SimOptions::default().make_gpu(cfg, seed);
    run_on::<P>(&mut gpu, g, visibility)
}

/// Runs the ECL-MIS kernels on a caller-provided GPU (e.g. with simulator
/// options, a race checker, or the contract sanitizer).
///
/// # Panics
///
/// Panics if the graph has no vertices.
pub fn run_on<P: AccessPolicy>(gpu: &mut Gpu, g: &Csr, visibility: StoreVisibility) -> MisResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let dg = DeviceGraph::upload(gpu, g);
    let statuses = kernels::run_on::<P>(gpu, &dg, visibility);
    let mut host: Vec<u8> = gpu.download(&statuses);
    host.truncate(g.num_vertices());
    let in_set: Vec<bool> = host.iter().map(|&s| s == IN).collect();
    let mut digest = Digest::new();
    let mut set_size = 0;
    for (v, &inside) in in_set.iter().enumerate() {
        if inside {
            digest.push(v as u64);
            set_size += 1;
        }
    }
    MisResult {
        set_size,
        cycles: gpu.elapsed_cycles(),
        stats: gpu.run_stats().clone(),
        digest: digest.finish(),
        in_set,
    }
}

/// Access-level IR of the ECL-MIS kernels under flavor `F`'s policy. All
/// `node_stat` traffic is byte-wide and policy-mediated: the atomic mode
/// lowers through the paper's Fig. 3–4 typecast-and-mask transform
/// (word-wide atomic load; `atomicAnd`/CAS-loop store).
pub fn ir<F: Flavor>() -> Vec<KernelIr> {
    use crate::contracts::*;
    use ecl_simt::BenignClass::{IdempotentWrite, RePropagatedLostUpdate};
    vec![
        KernelIr::new("mis_init")
            .ops(csr_loads(&["row_offsets"]))
            .op(byte_write::<F::Mis>("node_stat", own1())),
        KernelIr::new("mis_compute")
            .ops(csr_loads(&["row_offsets", "col_indices"]))
            .op(byte_read::<F::Mis>("node_stat", Arbitrary).benign(RePropagatedLostUpdate))
            .op(byte_write::<F::Mis>("node_stat", Arbitrary).benign(IdempotentWrite)),
    ]
}

/// The ECL-MIS priority of a vertex: partially random, inversely
/// proportional to degree, always in `2..=255` so it can share the status
/// byte with the OUT/IN markers.
pub fn priority(v: u32, degree: u32) -> u8 {
    // Degree term: low-degree vertices get high base priority (bigger sets).
    let base = 192 / (2 + degree.min(250));
    // Hash jitter breaks ties between equal-degree vertices.
    let mut h = v.wrapping_mul(0x9e37_79b9);
    h ^= h >> 16;
    h = h.wrapping_mul(0x85eb_ca6b);
    h ^= h >> 13;
    let jitter = h % 60;
    (2 + base + jitter).min(255) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::primitives::{Atomic, VolatileReadPlainWrite};
    use ecl_graph::gen;

    fn check_graph(g: &Csr) {
        let cfg = GpuConfig::test_tiny();
        let base = run::<VolatileReadPlainWrite>(g, &cfg, 1, StoreVisibility::DeferUntilYield);
        let free = run::<Atomic>(g, &cfg, 1, StoreVisibility::Immediate);
        assert!(verify_mis(g, &base.in_set), "baseline MIS invalid");
        assert!(verify_mis(g, &free.in_set), "race-free MIS invalid");
        // The priority order fixes a unique MIS: both variants and all
        // interleavings must find it.
        assert_eq!(base.digest, free.digest);
        assert_eq!(base.set_size, free.set_size);
    }

    #[test]
    fn variants_agree_on_rmat() {
        check_graph(&gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 4));
    }

    #[test]
    fn variants_agree_on_torus() {
        check_graph(&gen::grid2d_torus(16, 16));
    }

    #[test]
    fn variants_agree_on_prefattach() {
        check_graph(&gen::pref_attach(400, 4, 0.1, 9));
    }

    #[test]
    fn edgeless_graph_selects_everything() {
        let g = ecl_graph::CsrBuilder::new(10).build();
        let r = run::<Atomic>(&g, &GpuConfig::test_tiny(), 1, StoreVisibility::Immediate);
        assert_eq!(r.set_size, 10);
    }

    #[test]
    fn seeds_do_not_change_the_set() {
        let g = gen::random_uniform(300, 900, true, 6);
        let a = run::<VolatileReadPlainWrite>(
            &g,
            &GpuConfig::test_tiny(),
            1,
            StoreVisibility::DeferUntilYield,
        );
        let b = run::<VolatileReadPlainWrite>(
            &g,
            &GpuConfig::test_tiny(),
            77,
            StoreVisibility::DeferUntilYield,
        );
        assert_eq!(a.digest, b.digest);
    }

    #[test]
    fn priorities_fit_the_status_byte() {
        for v in 0..1000u32 {
            for d in [0u32, 1, 5, 100, 100_000] {
                let p = priority(v, d);
                assert!(p >= 2, "priority {p} collides with OUT/IN markers");
            }
        }
    }

    #[test]
    fn low_degree_gets_higher_base_priority() {
        let avg_low: f64 = (0..500).map(|v| priority(v, 2) as f64).sum::<f64>() / 500.0;
        let avg_high: f64 = (0..500).map(|v| priority(v, 200) as f64).sum::<f64>() / 500.0;
        assert!(avg_low > avg_high + 10.0);
    }
}
