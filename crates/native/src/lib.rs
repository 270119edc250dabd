//! Native multithreaded backend infrastructure: the shared-memory building
//! blocks the six graph codes run on when dispatched to real host threads
//! instead of the SIMT simulator.
//!
//! The simulator reproduces the paper's *measurements* (cycles, cache
//! behaviour, race witnesses); this crate exists to test the paper's
//! *claims* against actual hardware memory orderings. The same
//! baseline-vs-race-free split is kept:
//!
//! - [`Baseline`] performs the racy plain accesses of the published CUDA
//!   codes as genuinely racy host accesses — raw volatile loads/stores
//!   through [`std::sync::atomic`] cells' `as_ptr`, which the Rust memory
//!   model calls a data race (ThreadSanitizer agrees). Volatile pins each
//!   access to a single machine instruction, mirroring what the GPU
//!   baselines get from hardware: no tearing on word-sized accesses, but no
//!   ordering and no visibility guarantees either.
//! - [`RaceFree`] maps every shared access to a real atomic with an
//!   explicit [`std::sync::atomic::Ordering`] derived from the kernel's
//!   access contract (see DESIGN.md §13 for the mapping table).
//!
//! Read-modify-writes (`atomicCAS`, `atomicMin`, ticket counters) stay
//! atomic in *both* variants, exactly as in the published baselines — the
//! races the paper studies are in the plain loads and stores around them.
//!
//! The other pieces:
//!
//! - [`mem`]: shared atomic arrays ([`WordArr`]/[`LongArr`]/[`ByteArr`])
//!   standing in for device buffers.
//! - [`frontier`]: a per-round array of item slots with an append cursor,
//!   the native analogue of the device worklists the round-driven codes
//!   (CC/GC/MIS/MST/SCC) use.
//! - [`pool`]: scoped-thread SPMD teams with barriers, thread-count
//!   resolution (`ECL_THREADS`), and schedule perturbation helpers; and the
//!   deterministic job pool (worker count `ECL_JOBS`) that the sweeps and
//!   repair verification run independent jobs on.

pub mod frontier;
pub mod mem;
pub mod policy;
pub mod pool;

pub use frontier::Frontier;
pub use mem::{ByteArr, LongArr, WordArr};
pub use policy::{Baseline, NativePolicy, RaceFree};
pub use pool::{block_of, run_team, thread_count, TeamCtx, Tickets};
