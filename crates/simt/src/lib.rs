//! A deterministic software SIMT simulator — the GPU substrate for the
//! ECL-Suite reproduction.
//!
//! Real CUDA-capable GPUs are replaced by a single-threaded, seeded model of
//! the architectural mechanisms the paper's results hinge on:
//!
//! - **Memory hierarchy** ([`mem`]): per-SM L1 caches and a shared L2 with
//!   configurable geometry and per-level throughput costs.
//! - **Access classes** ([`access`]): *plain* accesses are served by L1 and
//!   may have their stores deferred by the compiler model; *volatile*
//!   accesses bypass L1 (as CUDA's `ld.global.cg` does) and are immediately
//!   visible; *atomic* accesses are performed at the L2 coherence point with
//!   an extra read-modify-write cost.
//! - **Compiler model** ([`exec::StoreVisibility`]): baseline codes with
//!   plain stores can have those stores coalesced and deferred (kept in
//!   registers), delaying when other threads observe them — the mechanism
//!   the paper credits for both the "benign" races and the MIS speedup.
//! - **Execution** ([`exec`]): kernels run as cooperatively-scheduled thread
//!   coroutines grouped into warps, blocks, and SMs, with block-level
//!   barriers and seeded interleaving.
//! - **Word tearing** ([`mem`]): plain 64-bit accesses split into two
//!   32-bit halves on devices without native 64-bit accesses, making the
//!   paper's Fig. 1 chimera values reproducible.
//! - **Fault injection & recovery** ([`fault`], [`error`]): a seeded
//!   [`FaultPlan`] can flip bits on loads, perturb the compiler model's
//!   store drains, and jitter the scheduler; launch failures (watchdog
//!   timeout, out-of-bounds access, livelock, barrier divergence, fault
//!   budget) surface as typed [`SimError`]s through [`Gpu::try_launch`] or
//!   [`catch_sim`].
//!
//! # Example
//!
//! ```
//! use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};
//!
//! let mut gpu = Gpu::new(GpuConfig::a100());
//! let buf = gpu.alloc::<u32>(1024);
//! gpu.launch(
//!     LaunchConfig::for_items(1024),
//!     ForEach::new("fill", 1024, move |ctx, i| {
//!         ctx.store(buf.at(i as usize), i * 2);
//!     }),
//! );
//! let host = gpu.download(&buf);
//! assert_eq!(host[10], 20);
//! assert!(gpu.elapsed_cycles() > 0);
//! ```

pub mod access;
pub mod config;
pub mod contract;
pub mod error;
pub mod exec;
pub mod fault;
pub mod host;
pub mod ir;
pub mod mem;
pub mod metrics;
pub mod sink;

pub use access::{AccessKind, AccessMode, MemOrder, Scope};
pub use config::GpuConfig;
pub use contract::{BenignClass, FootprintEntry, IndexDiscipline, KernelContract, SHARED_BUFFER};
pub use error::{catch_any, catch_sim, ContractViolationDetail, SimError};
pub use exec::{
    Ctx, ForEach, FullHooks, Hooks, Kernel, LaunchConfig, NoHooks, Step, StoreVisibility,
    ThreadInfo,
};
pub use fault::{FaultPlan, FaultReport};
pub use host::Gpu;
pub use ir::{lower_all, AccessOp, KernelIr, ModePair, ModeTable, OpKind, OpWidth};
pub use mem::{DeviceBuffer, DevicePtr, DeviceValue, MemLevel};
pub use metrics::KernelStats;
pub use sink::{AccessEvent, AccessSink, Space};
