//! Dynamic data-race detection for `ecl-simt` runs.
//!
//! The paper identifies the races in the baseline ECL codes with a
//! combination of NVIDIA Compute Sanitizer, iGuard, and manual inspection
//! (§IV). This crate plays the same role for the simulator: a
//! [`RaceChecker`] armed on a [`ecl_simt::Gpu`] checks each device memory
//! access as the kernel runs and reports every pair of conflicting
//! accesses.
//!
//! Two accesses *conflict* when they touch overlapping bytes, come from
//! different threads, at least one writes, and they are not both atomic.
//! Two conflicting accesses *race* when nothing orders them:
//!
//! - accesses in different kernel launches are ordered (the implicit barrier
//!   between launches);
//! - accesses in the same block separated by a `__syncthreads` barrier phase
//!   are ordered;
//! - everything else concurrent within one launch races.
//!
//! [`DetectorMode`] reproduces the blind spots of the real tools the paper
//! discusses: Compute Sanitizer's racecheck only examines shared memory, and
//! iGuard misses the implicit inter-launch barrier (false positives). Its
//! happens-before mode also honours release→acquire atomics, as
//! ThreadSanitizer does. One checker runs any set of modes over one run.
//!
//! # Example
//!
//! ```
//! use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};
//! use ecl_racecheck::{check_races, RaceChecker};
//!
//! let mut gpu = Gpu::new(GpuConfig::test_tiny());
//! gpu.observe(RaceChecker::precise());
//! let shared = gpu.alloc::<u32>(1);
//! gpu.launch(
//!     LaunchConfig::for_items(64),
//!     ForEach::new("racy-increment", 64, move |ctx, _| {
//!         let v = ctx.load(shared.at(0));      // plain read
//!         ctx.store(shared.at(0), v + 1);      // plain write: races!
//!     }),
//! );
//! let report = check_races(&gpu);
//! assert!(!report.is_empty());
//! ```

mod checker;
mod profile;
mod report;
mod shadow;

pub use checker::{
    check_races, check_races_bounded, check_races_with_mode, BoundedDetection, BoundedFinding,
    ConflictPair, DetectorMode, RaceChecker,
};
pub use profile::{access_profile, format_profile, AccessProfiler, AllocationProfile};
pub use report::{format_summary, RaceClass, RaceReport, RaceSite};
