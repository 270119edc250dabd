//! Access sinks: observers that see every device memory access as the
//! kernel runs.
//!
//! A sink armed on a [`crate::Gpu`] with [`crate::Gpu::observe`] is told
//! when each launch begins and then receives each of its accesses, in
//! execution order, together with enough ordering information (launch id,
//! block, barrier phase) for `ecl-racecheck` to decide which pairs of
//! accesses are concurrent. Nothing is stored on the sink's behalf, so a
//! run of any length can be observed.

use crate::access::{AccessKind, AccessMode, MemOrder, Scope as ThreadScope};
use crate::mem::Memory;
use std::any::Any;

/// Which address space an access touched.
///
/// Global memory is shared by the whole grid; shared memory is private to a
/// block (and is the only space the Compute-Sanitizer-like detector mode
/// checks — see `ecl-racecheck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Space {
    /// Device-global memory.
    Global,
    /// Per-block shared memory (addresses are block-local offsets).
    Shared,
}

/// One device memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Global vs per-block shared memory.
    pub space: Space,
    /// Kernel launch this access belongs to (kernel boundaries synchronize).
    pub launch: u32,
    /// Global thread id of the accessor.
    pub thread: u32,
    /// Block the thread belongs to.
    pub block: u32,
    /// Barrier phase within the block (incremented at each `__syncthreads`).
    pub phase: u32,
    /// Byte address of the access.
    pub addr: u32,
    /// Width in bytes (1, 4, or 8).
    pub width: u32,
    /// Plain / volatile / atomic.
    pub mode: AccessMode,
    /// Load / store / read-modify-write.
    pub kind: AccessKind,
    /// Thread scope of an atomic access (`Device` for everything else).
    pub scope: ThreadScope,
    /// Memory ordering of an atomic access (`Relaxed` for everything else).
    /// Only acquire/release/seq_cst atomics establish happens-before edges
    /// for the vector-clock detector.
    pub order: MemOrder,
}

/// An observer of every device memory access of the launches that follow
/// its arming with [`crate::Gpu::observe`].
///
/// An armed sink sends every launch down the hooked interpreter path
/// ([`crate::FullHooks`]); it observes and never changes what the kernel
/// computes or how many cycles it takes.
pub trait AccessSink: Any + Send {
    /// Launch `id` of kernel `kernel` begins; the accesses that follow
    /// belong to it.
    fn launch(&mut self, id: u32, kernel: &str);

    /// One access of the current launch. `memory` resolves its address to
    /// an allocation; kernels cannot allocate and nothing is freed, so
    /// resolving it on arrival is exact.
    fn access(&mut self, event: &AccessEvent, memory: &Memory);
}
