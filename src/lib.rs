//! # ECL-Suite-RS
//!
//! A Rust reproduction of *“Performance Impact of Removing Data Races from
//! GPU Graph Analytics Programs”* (Liu, VanAusdal, Burtscher — IISWC 2024).
//!
//! The original study runs six high-performance CUDA graph-analytics codes in
//! two flavors — the published *baseline* containing "benign" data races, and
//! a converted *race-free* version using relaxed atomic accesses — and
//! compares their runtimes on four generations of NVIDIA GPUs.
//!
//! Real GPUs are replaced here by [`ecl_simt`], a deterministic software SIMT
//! simulator that models the architectural mechanisms responsible for the
//! paper's findings: per-SM L1 caches, a shared L2, the different service
//! points of plain / `volatile` / atomic accesses, compiler register caching,
//! and delayed store visibility. Everything else is implemented faithfully:
//! the six algorithms ([`ecl_core`]), the input graph families
//! ([`ecl_graph`]), a dynamic data-race detector ([`ecl_racecheck`]), and the
//! full experiment harness ([`ecl_bench`]).
//!
//! ## Quickstart
//!
//! ```
//! use ecl_suite::prelude::*;
//!
//! // Build a small RMAT graph and run both CC variants on a simulated A100.
//! let graph = GraphInput::by_name("rmat16.sym").unwrap().build(1.0, 42);
//! let gpu = GpuConfig::a100();
//! let base = run_algorithm(Algorithm::Cc, Variant::Baseline, &graph, &gpu, 1);
//! let free = run_algorithm(Algorithm::Cc, Variant::RaceFree, &graph, &gpu, 1);
//! assert_eq!(base.solution_digest, free.solution_digest);
//! // On an Ampere-class device the race-free version is slower (speedup < 1).
//! let speedup = base.cycles as f64 / free.cycles as f64;
//! assert!(speedup > 0.0);
//! ```
//!
//! See `examples/` for runnable scenarios and `EXPERIMENTS.md` for the
//! paper-table reproduction results.

pub use ecl_bench as bench;
pub use ecl_core as core;
pub use ecl_graph as graph;
pub use ecl_racecheck as racecheck;
pub use ecl_simt as simt;

/// Commonly used items, re-exported for examples and downstream users.
pub mod prelude {
    pub use ecl_core::suite::{run_algorithm, Algorithm, RunResult, Variant};
    pub use ecl_graph::inputs::GraphInput;
    pub use ecl_graph::Csr;
    pub use ecl_racecheck::{check_races, RaceChecker, RaceReport};
    pub use ecl_simt::GpuConfig;
}
