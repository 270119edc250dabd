//! Static analysis of the suite's kernel access contracts, and the
//! differential harness that keeps the static story honest against the
//! dynamic race detector.
//!
//! Every kernel in `ecl-core` declares a [`ecl_simt::KernelContract`]: the
//! complete per-buffer footprint of its threads (access mode × kind × index
//! discipline × barrier phase). This crate consumes those declarations three
//! ways:
//!
//! - [`check`] is the **static checker**: it pairs the entries of each
//!   contract and either proves the kernel free of cross-thread races
//!   (atomic-atomic, owner-disjoint, barrier-ordered, or declared-disjoint
//!   regions) or classifies each remaining statically-possible conflict into
//!   the paper's benign-race taxonomy (§IV-B). A conflict with no benign
//!   class is a checker failure.
//! - [`differential`] is the **dynamic/static differential harness**: it
//!   runs each algorithm variant on small inputs under the online race
//!   detector (`ecl-racecheck`) and demands that the statically-predicted
//!   conflict set and the dynamically-witnessed race set coincide, kernel by
//!   kernel and buffer by buffer. A predicted-but-never-witnessed conflict
//!   means the contract over-approximates; a witnessed-but-unpredicted race
//!   means it lies.
//! - [`sanitize`] arms the in-simulator contract **sanitizer**
//!   ([`ecl_simt::Gpu::install_contracts`]) during full runs, so any access
//!   outside a declared footprint fails the launch with a typed
//!   [`ecl_simt::SimError::ContractViolation`].
//! - [`repair`] is the **automated race repair pass**: it synthesizes a
//!   race-free variant from detector output by rewriting every flagged
//!   access op in the baseline kernel IR ([`ecl_simt::KernelIr`]) to a
//!   relaxed atomic, re-lowers updated contracts and an execution mode
//!   table, and verifies the result with all three oracles (static proof,
//!   dynamic racecheck, differential fixpoint match vs the hand-written
//!   race-free variant) while measuring the perf delta.
//!
//! The `analyze_tool` and `repair_tool` binaries in `ecl-bench` drive these
//! and render the Table-II-style race census and the repair report.

pub mod check;
pub mod differential;
pub mod repair;
pub mod sanitize;

pub use check::{
    check_algorithm, check_contracts, check_suite, format_census, suite_passes, CheckReport,
    Conflict,
};
pub use differential::{
    default_inputs, diff_algorithm, diff_suite, launched_kernels_match_contracts, DiffOutcome,
    Mismatch,
};
pub use repair::{
    synthesize, verify as verify_repair, InputComparison, RepairError, RepairVerification,
    RepairedVariant, Rewrite,
};
pub use sanitize::sanitize_run;
