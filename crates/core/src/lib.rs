//! The ECL-Suite graph analytics codes on the `ecl-simt` simulator.
//!
//! This crate is the reproduction of the paper's primary contribution: six
//! high-performance GPU graph analytics codes, each available in its
//! published **baseline** form (containing "benign" data races) and in the
//! converted **race-free** form (all shared-data accesses through relaxed
//! atomics, with the typecast-and-mask tricks of the paper's Figs. 3–5 for
//! types CUDA atomics do not support).
//!
//! The conversion is expressed once, as the [`primitives::AccessPolicy`]
//! trait: every kernel is generic over how it touches *shared mutable* data,
//! and a policy names only the modes its reads and writes take.
//! Instantiating a kernel with [`primitives::Plain`],
//! [`primitives::Volatile`], [`primitives::VolatileReadPlainWrite`] or
//! [`primitives::Atomic`] yields the baseline or race-free executable —
//! exactly how the authors produced their race-free codes by swapping access
//! macros. [`suite::Flavor`] names, once, which policy each variant
//! instantiates per algorithm, and each module's `ir` describes the same
//! accesses as data, from which [`contracts`] lowers the access contracts.
//!
//! | Algorithm | Module | Baseline access | Notes |
//! |---|---|---|---|
//! | All-pairs shortest paths | [`apsp`] | — | regular; no races (paper §IV-A) |
//! | Connected components | [`cc`] | plain | racy pointer jumping |
//! | Graph coloring | [`gc`] | volatile colors, plain `minposs` | Jones-Plassmann + shortcuts |
//! | Maximal independent set | [`mis`] | volatile reads, plain writes | status+priority packed in a byte |
//! | Minimum spanning tree | [`mst`] | volatile | 64-bit packed best-edge array |
//! | Strongly connected comp. | [`scc`] | plain | `int2` pairs + global flag |
//!
//! # Example
//!
//! ```
//! use ecl_core::suite::{run_algorithm, Algorithm, Variant};
//! use ecl_simt::GpuConfig;
//!
//! let g = ecl_graph::gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 7);
//! let base = run_algorithm(Algorithm::Mis, Variant::Baseline, &g, &GpuConfig::titan_v(), 1);
//! let free = run_algorithm(Algorithm::Mis, Variant::RaceFree, &g, &GpuConfig::titan_v(), 1);
//! assert!(base.valid && free.valid);
//! // The MIS fixed point is unique: both variants find the same set.
//! assert_eq!(base.solution_digest, free.solution_digest);
//! ```

pub use common::SimOptions;

pub mod apsp;
pub mod cc;
pub mod common;
pub mod contracts;
pub mod gc;
pub mod mis;
pub mod mst;
pub mod primitives;
pub mod scc;
pub mod suite;
