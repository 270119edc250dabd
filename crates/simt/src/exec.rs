//! Kernel execution: cooperatively-scheduled thread coroutines on SMs.
//!
//! Device threads are written as *coroutines*: a [`Kernel`] holds the shared
//! code and buffers, each thread gets a plain-data state, and
//! [`Kernel::step`] advances one thread by a bounded amount of work. A step
//! may end with [`Step::Yield`] (more work to do, or spinning on another
//! thread's store — the scheduler will resume it later), [`Step::Barrier`]
//! (block-wide `__syncthreads`), or [`Step::Done`].
//!
//! The scheduler interleaves all resident threads round-robin with seeded
//! jitter, which is what makes data races and visibility delays actually
//! manifest, instead of being theoretical.

use crate::access::{AccessKind, AccessMode, MemOrder, Scope};
use crate::config::GpuConfig;
use crate::contract::SanitizerState;
use crate::error::{self, SimError};
use crate::fault::FaultState;
use crate::ir::{ModePair, ModeTable};
use crate::mem::{DevicePtr, DeviceValue, MemLevel, MemPort, MemSystem, Memory};
use crate::metrics::KernelStats;
use crate::sink::{AccessEvent, AccessSink, Space};

/// Result of one coroutine step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// The thread has more work (or is polling); resume it later.
    Yield,
    /// The thread reached a block-wide barrier (`__syncthreads()`).
    Barrier,
    /// The thread finished.
    Done,
}

/// When the compiler model makes a thread's *plain* stores visible to the
/// rest of the device (paper §II-A, §VI-A).
///
/// `volatile` and atomic stores are always immediate; this knob only models
/// what an optimizing compiler may do to ordinary stores — keep them in
/// registers and write them back late, possibly coalescing several stores to
/// the same location into one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreVisibility {
    /// Every plain store drains to memory at once (an unoptimized build).
    Immediate,
    /// Plain stores drain when the thread yields the scheduler (roughly: at
    /// the next loop back-edge the compiler cannot see through).
    DeferUntilYield,
    /// A deterministic fraction of plain stores (`eighths / 8`, selected by
    /// address hash) drains only at every `every`-th yield: the compiler
    /// keeps *some* values in registers across iterations of the polling
    /// loop ("the compiler may 'optimize' some of these accesses", §VI-A),
    /// so other threads observe those updates several scheduler rounds late.
    /// Bounded staleness — this can never livelock.
    DeferBounded {
        /// Drain the deferred stores at every `every`-th yield.
        every: u32,
        /// How many of every 8 store addresses are deferred (0..=8).
        eighths: u8,
    },
    /// Plain stores stay in "registers" until the thread finishes or the
    /// buffer overflows — the most aggressive deferral.
    DeferUntilDone,
}

/// Identity of a thread, passed to [`Kernel::init`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadInfo {
    /// Global thread id in `0..num_threads`.
    pub global_id: u32,
    /// Total threads in the launch.
    pub num_threads: u32,
    /// Block index.
    pub block: u32,
    /// Thread index within the block.
    pub thread_in_block: u32,
}

/// Compile-time selector for the interpreter's hot/slow path split.
///
/// The simulator's per-access observation hooks — access sinks, fault
/// injection, contract sanitizing — are checks on every single memory
/// access when compiled in. [`Hooks`] lifts that decision to a type
/// parameter monomorphized once per launch: [`NoHooks`] compiles the hook code out of
/// the access path entirely (the *fast path*), [`FullHooks`] keeps it (the
/// *slow path*, and the default everywhere for backward compatibility).
///
/// The two paths are bit-identical in results, cycle counts, and cache
/// stats whenever no hook is armed — hooks only ever observe (sinks),
/// enforce (sanitizer), or are absent (faults) — which is pinned by the
/// `fastpath_equivalence` differential test across every algorithm×variant
/// combination. [`crate::Gpu::fast_path_eligible`] reports whether a launch
/// may take the fast path.
pub trait Hooks: Copy + Default + 'static {
    /// Whether per-access hook code is compiled into the interpreter loop.
    const HOOKED: bool;
}

/// The fully-hooked interpreter path: access sinks, fault injection, and the
/// contract sanitizer are honored. This is the default [`Kernel`]
/// instantiation, so existing `impl Kernel for T` and [`crate::Gpu::launch`]
/// users get it implicitly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FullHooks;

/// The monomorphized fast path: all per-access hook code compiles away.
/// Only valid when no hook is armed (enforced by
/// [`crate::Gpu::try_launch_with`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoHooks;

impl Hooks for FullHooks {
    const HOOKED: bool = true;
}

impl Hooks for NoHooks {
    const HOOKED: bool = false;
}

/// A device kernel: shared code + per-thread plain-data state.
///
/// The `H` parameter selects the interpreter path the kernel's steps run
/// on; it defaults to [`FullHooks`] so ordinary `impl Kernel for T` keeps
/// meaning what it always did. Kernels that want to run on the fast path
/// implement `Kernel<H>` generically (closure-based [`ForEach`] kernels get
/// this from a blanket impl).
pub trait Kernel<H: Hooks = FullHooks> {
    /// Per-thread coroutine state.
    type State;

    /// Kernel name, for stats and race reports.
    fn name(&self) -> &str;

    /// Creates the initial state for one thread.
    fn init(&self, info: ThreadInfo) -> Self::State;

    /// Advances one thread by a bounded amount of work.
    fn step(&self, state: &mut Self::State, ctx: &mut Ctx<'_, H>) -> Step;
}

/// Launch geometry and compiler model for one kernel launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchConfig {
    /// Number of thread blocks.
    pub grid_blocks: u32,
    /// Threads per block.
    pub block_threads: u32,
    /// Plain-store visibility (the compiler model).
    pub store_visibility: StoreVisibility,
    /// Bytes of per-block shared memory.
    pub shared_bytes: u32,
    /// When `true`, the launch geometry is used exactly (needed by kernels
    /// that map blocks to data tiles); otherwise the grid is clamped to the
    /// device's resident-thread capacity and kernels are expected to be
    /// grid-stride.
    pub exact_geometry: bool,
}

impl LaunchConfig {
    /// A grid-stride launch sized for `items` work items: 256-thread blocks,
    /// at most 128 of them, clamped to device capacity at launch time.
    pub fn for_items(items: u32) -> Self {
        let blocks = items.div_ceil(256).clamp(1, 128);
        LaunchConfig {
            grid_blocks: blocks,
            block_threads: 256,
            store_visibility: StoreVisibility::Immediate,
            shared_bytes: 0,
            exact_geometry: false,
        }
    }

    /// Sets the plain-store visibility model.
    pub fn with_visibility(mut self, v: StoreVisibility) -> Self {
        self.store_visibility = v;
        self
    }

    /// Sets the per-block shared memory size.
    pub fn with_shared_bytes(mut self, bytes: u32) -> Self {
        self.shared_bytes = bytes;
        self
    }

    /// Requests the exact grid geometry (no capacity clamping; overflow is a
    /// launch failure, as on real hardware with cooperative launches).
    pub fn exact(mut self) -> Self {
        self.exact_geometry = true;
        self
    }
}

/// A ready-made [`Kernel`] that applies a closure to every item of a range
/// with a grid-stride loop — the shape of most ECL kernels that do not spin.
///
/// The closure runs to completion per item; the thread yields to the
/// scheduler every [`ForEach::with_chunk`] items (default 8) so other
/// threads interleave.
pub struct ForEach<F> {
    name: String,
    items: u32,
    chunk: u32,
    f: F,
}

impl<F: Fn(&mut Ctx<'_>, u32)> ForEach<F> {
    /// Creates a kernel that calls `f(ctx, i)` for every `i in 0..items`.
    ///
    /// The closure is bound to the default fully-hooked context, which is
    /// what closure parameter inference needs at the construction site. Code
    /// generic over the interpreter path uses [`ForEach::with_hooks`]
    /// instead.
    pub fn new(name: &str, items: u32, f: F) -> Self {
        ForEach {
            name: name.to_string(),
            items,
            chunk: 8,
            f,
        }
    }
}

impl<F> ForEach<F> {
    /// Creates a kernel like [`ForEach::new`], but with the closure bound to
    /// an explicit interpreter path `H` — `ForEach::with_hooks::<H>(...)`
    /// inside a function generic over `H: Hooks` is how the algorithm crates
    /// build kernels that monomorphize onto the fast path.
    pub fn with_hooks<H: Hooks>(name: &str, items: u32, f: F) -> Self
    where
        F: Fn(&mut Ctx<'_, H>, u32),
    {
        ForEach {
            name: name.to_string(),
            items,
            chunk: 8,
            f,
        }
    }

    /// Sets how many items a thread processes between yields (default 8).
    ///
    /// # Panics
    ///
    /// Panics if `chunk` is zero.
    pub fn with_chunk(mut self, chunk: u32) -> Self {
        assert!(chunk > 0, "chunk must be positive");
        self.chunk = chunk;
        self
    }
}

impl<H: Hooks, F: Fn(&mut Ctx<'_, H>, u32)> Kernel<H> for ForEach<F> {
    type State = u32;

    fn name(&self) -> &str {
        &self.name
    }

    fn init(&self, info: ThreadInfo) -> u32 {
        info.global_id
    }

    fn step(&self, next: &mut u32, ctx: &mut Ctx<'_, H>) -> Step {
        let stride = ctx.num_threads();
        let mut processed = 0;
        while *next < self.items {
            (self.f)(ctx, *next);
            *next += stride;
            processed += 1;
            if processed >= self.chunk {
                return if *next < self.items {
                    Step::Yield
                } else {
                    Step::Done
                };
            }
        }
        Step::Done
    }
}

/// One deferred plain store held in a thread's "registers".
#[derive(Debug, Clone, Copy)]
struct StoreEntry {
    addr: u32,
    width: u32,
    bits: u64,
}

/// Fixed-capacity per-thread store buffer (the compiler's register file for
/// deferred stores). Overflow drains the oldest entry, like register
/// pressure forcing a writeback.
#[derive(Debug, Clone)]
struct StoreBuf {
    entries: Vec<StoreEntry>,
}

/// GPU register files are large (up to 255 registers per thread), so the
/// compiler can keep a fair number of deferred stores live at once.
const STORE_BUF_CAP: usize = 32;

impl StoreBuf {
    fn new() -> Self {
        StoreBuf {
            entries: Vec::new(),
        }
    }

    #[inline]
    fn overlaps(&self, addr: u32, width: u32) -> bool {
        self.entries
            .iter()
            .any(|e| e.addr < addr + width && addr < e.addr + e.width)
    }

    #[inline]
    fn exact(&self, addr: u32, width: u32) -> Option<u64> {
        self.entries
            .iter()
            .find(|e| e.addr == addr && e.width == width)
            .map(|e| e.bits)
    }
}

/// Everything a device thread can do during a step: memory accesses,
/// arithmetic accounting, and identity queries.
///
/// `H` selects the interpreter path (see [`Hooks`]); the default keeps
/// existing `Ctx<'_>` mentions meaning the fully-hooked context.
///
/// Cycle and access counters are accumulated *by value* in the context and
/// flushed to the per-SM / per-launch totals once per block iteration by
/// the scheduler (batched accounting): the access path touches hot locals
/// instead of bouncing through `&mut` indirections on every access. The
/// context itself is likewise built once per block iteration, not per
/// thread step: per-thread state (`thread`, `sbuf_idx`) is patched in
/// place, which keeps the construction, and the SM's memory port with it,
/// off the hot loop.
///
/// The access methods are inlined into the kernel's loop whole, down to the
/// L1's most-recently-used compare. What runs only under a rare condition
/// is a call: store-buffer work once the buffer holds entries, a 64-bit
/// access split on hardware without native 64-bit accesses, the
/// out-of-bounds raise, and the hooked path's observation.
pub struct Ctx<'a, H: Hooks = FullHooks> {
    pub(crate) mem: &'a mut Memory,
    /// The memory system as the block's SM sees it.
    port: MemPort<'a>,
    sinks: &'a mut [Box<dyn AccessSink>],
    fault: Option<&'a mut FaultState>,
    sanitizer: Option<&'a mut SanitizerState>,
    kernel: &'a str,
    /// The installed mode table resolved for this kernel, one entry per
    /// allocation (see [`ModeTable::resolve`]); empty without a table.
    modes: &'a [Option<ModePair>],
    /// All threads' store buffers; the running thread's is `sbufs[sbuf_idx]`.
    sbufs: &'a mut [StoreBuf],
    sbuf_idx: usize,
    shared: &'a mut [u8],
    /// Cycles charged during the current step (flushed to the SM's total).
    cycles: u64,
    /// Access counters for the current step (flushed to the launch totals).
    counters: LaunchCounters,
    launch: u32,
    block: u32,
    phase: u32,
    thread: u32,
    num_threads: u32,
    thread_in_block: u32,
    visibility: StoreVisibility,
    native_64bit: bool,
    alu_cycles: u32,
    _hooks: std::marker::PhantomData<H>,
}

#[derive(Debug, Default, Clone, Copy)]
struct LaunchCounters {
    plain: u64,
    volatile_: u64,
    atomic: u64,
    coalesced: u64,
    steps: u64,
}

impl LaunchCounters {
    #[inline]
    fn merge(&mut self, delta: &LaunchCounters) {
        self.plain += delta.plain;
        self.volatile_ += delta.volatile_;
        self.atomic += delta.atomic;
        self.coalesced += delta.coalesced;
        self.steps += delta.steps;
    }
}

impl<'a, H: Hooks> Ctx<'a, H> {
    /// The thread's global id.
    #[inline]
    pub fn global_id(&self) -> u32 {
        self.thread
    }

    /// Total threads in this launch.
    #[inline]
    pub fn num_threads(&self) -> u32 {
        self.num_threads
    }

    /// This thread's block index.
    #[inline]
    pub fn block(&self) -> u32 {
        self.block
    }

    /// This thread's index within its block.
    #[inline]
    pub fn thread_in_block(&self) -> u32 {
        self.thread_in_block
    }

    /// Charges `units` of arithmetic work.
    #[inline]
    pub fn compute(&mut self, units: u32) {
        self.cycles += (units * self.alu_cycles) as u64;
    }

    /// The name of the kernel this thread is executing.
    #[inline]
    pub fn kernel_name(&self) -> &str {
        self.kernel
    }

    /// IR-driven mode dispatch: resolves `addr` to its named allocation and
    /// returns the access modes the installed [`ModeTable`] prescribes for
    /// this kernel and that buffer. `None` when no table is installed, the
    /// address has no named allocation, or the table has no entry for the
    /// group. The table was resolved for this kernel once at launch, so this
    /// is two indexed loads. Host-side bookkeeping only — charges no
    /// simulated cycles.
    #[inline]
    pub fn dispatch_modes(&self, addr: u32) -> Option<ModePair> {
        let (index, _) = self.mem.find_allocation(addr)?;
        self.modes.get(index).copied().flatten()
    }

    /// `__threadfence()`: makes this thread's prior writes visible
    /// device-wide. Drains the compiler model's deferred stores and charges
    /// an L2 round trip. (A fence does NOT make racy code race-free — it
    /// only orders this thread's own accesses.)
    pub fn threadfence(&mut self) {
        self.drain_all();
        self.cycles += self.port.l2_cycles as u64;
    }

    #[inline(always)]
    fn record(&mut self, space: Space, addr: u32, width: u32, mode: AccessMode, kind: AccessKind) {
        // `NoHooks` compiles the observation out entirely.
        if H::HOOKED {
            self.record_scoped(
                space,
                addr,
                width,
                mode,
                kind,
                Scope::Device,
                MemOrder::Relaxed,
            );
        }
    }

    /// The hooked path's per-access observation: the sanitizer check and
    /// the sinks. Callers run it only when `H::HOOKED`; it is kept out of
    /// line so that the access it observes stays compact in the kernel
    /// loop.
    #[allow(clippy::too_many_arguments)]
    #[inline(never)]
    fn record_scoped(
        &mut self,
        space: Space,
        addr: u32,
        width: u32,
        mode: AccessMode,
        kind: AccessKind,
        scope: Scope,
        order: MemOrder,
    ) {
        if self.sanitizer.is_some() {
            self.sanitize(space, addr, mode, kind);
        }
        if !self.sinks.is_empty() {
            let event = AccessEvent {
                space,
                launch: self.launch,
                thread: self.thread,
                block: self.block,
                phase: self.phase,
                addr,
                width,
                mode,
                kind,
                scope,
                order,
            };
            for sink in self.sinks.iter_mut() {
                sink.access(&event, self.mem);
            }
        }
    }

    /// Validates one access against the armed contract sanitizer; raises a
    /// typed [`SimError::ContractViolation`] on the first out-of-contract
    /// access. Runs on every access (unlike a sink, which is opt-in and
    /// orthogonal): the check is the enforcement, not an observation.
    fn sanitize(&mut self, space: Space, addr: u32, mode: AccessMode, kind: AccessKind) {
        let (kernel, thread, num_threads, block) =
            (self.kernel, self.thread, self.num_threads, self.block);
        if let Some(s) = self.sanitizer.as_deref_mut() {
            if let Err(e) = s.check(
                kernel,
                space,
                addr,
                mode,
                kind,
                thread,
                num_threads,
                block,
                self.mem,
            ) {
                error::raise(e);
            }
        }
    }

    /// Drains store-buffer entries overlapping `[addr, addr+width)`. The
    /// emptiness check is all an access pays while nothing is buffered.
    #[inline(always)]
    fn drain_overlapping(&mut self, addr: u32, width: u32) {
        if self.has_buffered_stores() {
            self.commit_overlapping(addr, width);
        }
    }

    /// The loop behind [`Ctx::drain_overlapping`]'s emptiness check.
    #[inline(never)]
    fn commit_overlapping(&mut self, addr: u32, width: u32) {
        let mut i = 0;
        while i < self.sbufs[self.sbuf_idx].entries.len() {
            let e = self.sbufs[self.sbuf_idx].entries[i];
            if e.addr < addr + width && addr < e.addr + e.width {
                self.sbufs[self.sbuf_idx].entries.remove(i);
                self.commit_store(e);
            } else {
                i += 1;
            }
        }
    }

    /// Writes one deferred store to the arena, charging its cost.
    fn commit_store(&mut self, e: StoreEntry) {
        let (cost, _) = self
            .port
            .access(e.addr, AccessMode::Plain, AccessKind::Store);
        self.cycles += cost as u64;
        self.mem.write_bits(e.addr, e.width, e.bits);
    }

    /// Drains the entire store buffer (yield/done/barrier, per policy).
    fn drain_all(&mut self) {
        while let Some(e) = self.sbufs[self.sbuf_idx].entries.first().copied() {
            self.sbufs[self.sbuf_idx].entries.remove(0);
            self.commit_store(e);
        }
    }

    /// Raises a typed [`SimError::OutOfBounds`] when `[addr, addr+width)`
    /// leaves the allocated arena. Device pointers obtained through
    /// `DeviceBuffer::at` are host-checked already; this catches raw address
    /// arithmetic inside kernels.
    #[inline(always)]
    fn check_oob(&self, addr: u32, width: u32, kind: AccessKind) {
        if addr as u64 + width as u64 > self.mem.footprint() as u64 {
            self.out_of_bounds(addr, kind);
        }
    }

    /// The raise behind [`Ctx::check_oob`], kept off the access path.
    #[cold]
    #[inline(never)]
    fn out_of_bounds(&self, addr: u32, kind: AccessKind) -> ! {
        error::raise(SimError::OutOfBounds {
            kernel: self.kernel.to_string(),
            addr,
            access: kind,
        })
    }

    /// Applies the armed fault plan (if any) to a load served at `level`.
    #[inline(always)]
    fn maybe_flip(&mut self, bits: u64, width: u32, level: MemLevel) -> u64 {
        if !H::HOOKED {
            return bits;
        }
        match self.fault.as_deref_mut() {
            Some(f) => f.maybe_flip_bits(bits, width, level),
            None => bits,
        }
    }

    /// Executes one yield-point drain decision, letting the fault plan drop
    /// a scheduled drain or force an early one.
    fn yield_drain(&mut self, scheduled: bool) {
        let drain = if H::HOOKED {
            match self.fault.as_deref_mut() {
                Some(f) => f.perturb_flush(scheduled),
                None => scheduled,
            }
        } else {
            scheduled
        };
        if drain {
            self.drain_all();
        }
    }

    /// True when the compiler model is currently holding deferred stores.
    #[inline(always)]
    fn has_buffered_stores(&self) -> bool {
        !self.sbufs[self.sbuf_idx].entries.is_empty()
    }

    // ---------------------------------------------------------------- plain

    /// A plain (ordinary) load: L1-served, racy when shared.
    #[inline(always)]
    pub fn load<T: DeviceValue>(&mut self, ptr: DevicePtr<T>) -> T {
        if T::WIDTH == 8 && !self.native_64bit {
            // Two 32-bit halves on non-64-bit hardware (word tearing).
            return T::from_bits(self.load_split(ptr.addr(), AccessMode::Plain));
        }
        self.counters.plain += 1;
        self.check_oob(ptr.addr(), T::WIDTH, AccessKind::Load);
        self.record(
            Space::Global,
            ptr.addr(),
            T::WIDTH,
            AccessMode::Plain,
            AccessKind::Load,
        );
        // One emptiness check covers both store-buffer scans: empty is the
        // overwhelmingly common case (Immediate visibility never buffers).
        if self.has_buffered_stores() {
            if let Some(bits) = self.forward_or_drain(ptr.addr(), T::WIDTH) {
                return T::from_bits(bits);
            }
        }
        let (cost, level) = self
            .port
            .access(ptr.addr(), AccessMode::Plain, AccessKind::Load);
        self.cycles += cost as u64;
        let bits = self.mem.read(ptr).to_bits();
        T::from_bits(self.maybe_flip(bits, T::WIDTH, level))
    }

    /// A plain store: may be deferred by the compiler model.
    #[inline(always)]
    pub fn store<T: DeviceValue>(&mut self, ptr: DevicePtr<T>, value: T) {
        if T::WIDTH == 8 && !self.native_64bit {
            self.store_split(ptr.addr(), value.to_bits(), AccessMode::Plain);
            return;
        }
        self.counters.plain += 1;
        self.check_oob(ptr.addr(), T::WIDTH, AccessKind::Store);
        self.record(
            Space::Global,
            ptr.addr(),
            T::WIDTH,
            AccessMode::Plain,
            AccessKind::Store,
        );
        match self.visibility {
            StoreVisibility::Immediate => {
                let (cost, _) = self
                    .port
                    .access(ptr.addr(), AccessMode::Plain, AccessKind::Store);
                self.cycles += cost as u64;
                self.mem.write(ptr, value);
            }
            StoreVisibility::DeferUntilYield | StoreVisibility::DeferUntilDone => {
                self.buffer_store(StoreEntry {
                    addr: ptr.addr(),
                    width: T::WIDTH,
                    bits: value.to_bits(),
                });
            }
            StoreVisibility::DeferBounded { eighths, .. } => {
                if deferred_address(ptr.addr(), eighths) {
                    self.buffer_store(StoreEntry {
                        addr: ptr.addr(),
                        width: T::WIDTH,
                        bits: value.to_bits(),
                    });
                } else {
                    let (cost, _) =
                        self.port
                            .access(ptr.addr(), AccessMode::Plain, AccessKind::Store);
                    self.cycles += cost as u64;
                    self.mem.write(ptr, value);
                }
            }
        }
    }

    /// Store-to-load forwarding for a plain load while the store buffer
    /// holds entries: the value of an exact entry, or `None` after draining
    /// any entry the load overlaps.
    #[inline(never)]
    fn forward_or_drain(&mut self, addr: u32, width: u32) -> Option<u64> {
        if let Some(bits) = self.sbufs[self.sbuf_idx].exact(addr, width) {
            // Free: served from "registers".
            self.cycles += self.alu_cycles as u64;
            return Some(bits);
        }
        if self.sbufs[self.sbuf_idx].overlaps(addr, width) {
            self.commit_overlapping(addr, width);
        }
        None
    }

    /// Holds a deferred plain store in the running thread's buffer.
    #[inline(never)]
    fn buffer_store(&mut self, e: StoreEntry) {
        if let Some(existing) = self.sbufs[self.sbuf_idx]
            .entries
            .iter_mut()
            .find(|x| x.addr == e.addr && x.width == e.width)
        {
            // The compiler coalesces repeated stores to one location.
            existing.bits = e.bits;
            self.counters.coalesced += 1;
            self.cycles += self.alu_cycles as u64;
            return;
        }
        if self.sbufs[self.sbuf_idx].overlaps(e.addr, e.width) {
            self.drain_overlapping(e.addr, e.width);
        }
        if self.sbufs[self.sbuf_idx].entries.len() >= STORE_BUF_CAP {
            let oldest = self.sbufs[self.sbuf_idx].entries.remove(0);
            self.commit_store(oldest);
        }
        self.sbufs[self.sbuf_idx].entries.push(e);
        self.cycles += self.alu_cycles as u64;
    }

    /// A 64-bit plain or volatile load as two 32-bit halves, on hardware
    /// without native 64-bit accesses.
    #[cold]
    #[inline(never)]
    fn load_split(&mut self, addr: u32, mode: AccessMode) -> u64 {
        let lo = self.load_word(addr, mode) as u64;
        let hi = self.load_word(addr + 4, mode) as u64;
        lo | (hi << 32)
    }

    /// A 64-bit plain or volatile store as two 32-bit stores, on hardware
    /// without native 64-bit accesses. The first commits at once. A plain
    /// second half follows the compiler model's drain schedule, so between
    /// the two, other threads observe a torn value (paper Fig. 1); volatile
    /// does not prevent tearing either (paper §II-A).
    #[cold]
    #[inline(never)]
    fn store_split(&mut self, addr: u32, bits: u64, mode: AccessMode) {
        self.store_word_immediate(addr, bits as u32, mode);
        if mode == AccessMode::Plain {
            self.store_word(addr + 4, (bits >> 32) as u32);
        } else {
            self.store_word_immediate(addr + 4, (bits >> 32) as u32, mode);
        }
    }

    /// 32-bit half access used by split 64-bit plain/volatile operations.
    fn load_word(&mut self, addr: u32, mode: AccessMode) -> u32 {
        self.check_oob(addr, 4, AccessKind::Load);
        match mode {
            AccessMode::Plain => {
                self.counters.plain += 1;
                self.record(Space::Global, addr, 4, mode, AccessKind::Load);
                if let Some(bits) = self.sbufs[self.sbuf_idx].exact(addr, 4) {
                    self.cycles += self.alu_cycles as u64;
                    return bits as u32;
                }
                self.drain_overlapping(addr, 4);
                let (cost, level) = self.port.access(addr, mode, AccessKind::Load);
                self.cycles += cost as u64;
                let bits = self.mem.read_bits(addr, 4);
                self.maybe_flip(bits, 4, level) as u32
            }
            _ => {
                self.counters.volatile_ += 1;
                self.record(Space::Global, addr, 4, mode, AccessKind::Load);
                self.drain_overlapping(addr, 4);
                let (cost, level) = self.port.access(addr, mode, AccessKind::Load);
                self.cycles += cost as u64;
                let bits = self.mem.read_bits(addr, 4);
                self.maybe_flip(bits, 4, level) as u32
            }
        }
    }

    /// A 32-bit store that commits to the arena at once regardless of the
    /// compiler model (used for the first half of split 64-bit stores).
    fn store_word_immediate(&mut self, addr: u32, value: u32, mode: AccessMode) {
        self.check_oob(addr, 4, AccessKind::Store);
        match mode {
            AccessMode::Plain => self.counters.plain += 1,
            _ => self.counters.volatile_ += 1,
        }
        self.record(Space::Global, addr, 4, mode, AccessKind::Store);
        self.drain_overlapping(addr, 4);
        let (cost, _) = self.port.access(addr, mode, AccessKind::Store);
        self.cycles += cost as u64;
        self.mem.write_bits(addr, 4, value as u64);
    }

    /// A plain 32-bit store that follows the compiler model (the second
    /// half of a split 64-bit plain store).
    fn store_word(&mut self, addr: u32, value: u32) {
        self.check_oob(addr, 4, AccessKind::Store);
        self.counters.plain += 1;
        self.record(Space::Global, addr, 4, AccessMode::Plain, AccessKind::Store);
        let buffered = match self.visibility {
            StoreVisibility::Immediate => false,
            StoreVisibility::DeferBounded { eighths, .. } => deferred_address(addr, eighths),
            _ => true,
        };
        if buffered {
            self.buffer_store(StoreEntry {
                addr,
                width: 4,
                bits: value as u64,
            });
        } else {
            let (cost, _) = self.port.access(addr, AccessMode::Plain, AccessKind::Store);
            self.cycles += cost as u64;
            self.mem.write_bits(addr, 4, value as u64);
        }
    }

    // ------------------------------------------------------------- volatile

    /// A `volatile` load: bypasses L1, always reads memory, still racy.
    #[inline(always)]
    pub fn load_volatile<T: DeviceValue>(&mut self, ptr: DevicePtr<T>) -> T {
        if T::WIDTH == 8 && !self.native_64bit {
            // volatile does NOT prevent word tearing (paper §II-A).
            return T::from_bits(self.load_split(ptr.addr(), AccessMode::Volatile));
        }
        self.counters.volatile_ += 1;
        self.check_oob(ptr.addr(), T::WIDTH, AccessKind::Load);
        self.record(
            Space::Global,
            ptr.addr(),
            T::WIDTH,
            AccessMode::Volatile,
            AccessKind::Load,
        );
        self.drain_overlapping(ptr.addr(), T::WIDTH);
        let (cost, level) = self
            .port
            .access(ptr.addr(), AccessMode::Volatile, AccessKind::Load);
        self.cycles += cost as u64;
        let bits = self.mem.read(ptr).to_bits();
        T::from_bits(self.maybe_flip(bits, T::WIDTH, level))
    }

    /// A `volatile` store: immediately visible, still racy.
    #[inline(always)]
    pub fn store_volatile<T: DeviceValue>(&mut self, ptr: DevicePtr<T>, value: T) {
        if T::WIDTH == 8 && !self.native_64bit {
            self.store_split(ptr.addr(), value.to_bits(), AccessMode::Volatile);
            return;
        }
        self.counters.volatile_ += 1;
        self.check_oob(ptr.addr(), T::WIDTH, AccessKind::Store);
        self.record(
            Space::Global,
            ptr.addr(),
            T::WIDTH,
            AccessMode::Volatile,
            AccessKind::Store,
        );
        self.drain_overlapping(ptr.addr(), T::WIDTH);
        let (cost, _) = self
            .port
            .access(ptr.addr(), AccessMode::Volatile, AccessKind::Store);
        self.cycles += cost as u64;
        self.mem.write(ptr, value);
    }

    // --------------------------------------------------------------- atomic

    #[inline(always)]
    fn atomic_pre(&mut self, addr: u32, width: u32, kind: AccessKind) {
        self.atomic_pre_explicit(addr, width, kind, MemOrder::Relaxed, Scope::Device);
    }

    #[inline(always)]
    fn atomic_pre_explicit(
        &mut self,
        addr: u32,
        width: u32,
        kind: AccessKind,
        order: MemOrder,
        scope: Scope,
    ) {
        self.counters.atomic += 1;
        // Atomics read and write through the (ECC-protected) coherence
        // point, so the fault model never flips them — only bounds-checks.
        self.check_oob(addr, width, kind);
        if H::HOOKED {
            self.record_scoped(
                Space::Global,
                addr,
                width,
                AccessMode::Atomic,
                kind,
                scope,
                order,
            );
        }
        self.drain_overlapping(addr, width);
        let base = match scope {
            // Block scope: coherent within one SM, serviced by its L1.
            Scope::Block => {
                let extra = if kind == AccessKind::Rmw {
                    self.port.atomic_extra
                } else {
                    0
                };
                (self.port.l1_cycles + extra) as u64
            }
            // Device scope: the L2 coherence point (the converted ECL codes).
            Scope::Device => {
                let (cost, _) = self.port.access(addr, AccessMode::Atomic, kind);
                cost as u64
            }
            // System scope: L2 plus the system-coherence round trip.
            Scope::System => {
                let (cost, _) = self.port.access(addr, AccessMode::Atomic, kind);
                (cost + 2 * self.port.l2_cycles) as u64
            }
        };
        // Ordering fences: each fence costs an L2 round trip.
        let fences = (order.fence_count() * self.port.l2_cycles) as u64;
        self.cycles += base + fences;
    }

    /// A relaxed atomic load (`cuda::atomic<T>::load(memory_order_relaxed)`,
    /// the paper's Fig. 2 `atomicRead`). Never tears, even for 64-bit values.
    #[inline(always)]
    pub fn atomic_load<T: DeviceValue>(&mut self, ptr: DevicePtr<T>) -> T {
        self.atomic_pre(ptr.addr(), T::WIDTH, AccessKind::Load);
        self.mem.read(ptr)
    }

    /// A relaxed atomic store (the paper's Fig. 2 `atomicWrite`).
    #[inline(always)]
    pub fn atomic_store<T: DeviceValue>(&mut self, ptr: DevicePtr<T>, value: T) {
        self.atomic_pre(ptr.addr(), T::WIDTH, AccessKind::Store);
        self.mem.write(ptr, value);
    }

    /// Generic relaxed atomic read-modify-write; returns the old value.
    #[inline(always)]
    pub fn atomic_rmw<T: DeviceValue>(&mut self, ptr: DevicePtr<T>, f: impl FnOnce(T) -> T) -> T {
        self.atomic_pre(ptr.addr(), T::WIDTH, AccessKind::Rmw);
        let old = self.mem.read(ptr);
        self.mem.write(ptr, f(old));
        old
    }

    /// An atomic load with an explicit memory order and thread scope, like
    /// `cuda::atomic_ref<T, Scope>::load(order)`. The converted ECL codes
    /// use `(MemOrder::Relaxed, Scope::Device)`, which [`Ctx::atomic_load`]
    /// defaults to; stronger orders pay fence costs and `Scope::System`
    /// pays the system-coherence round trip (paper §II-A: "the defaults can
    /// lead to poor performance").
    #[inline(always)]
    pub fn atomic_load_explicit<T: DeviceValue>(
        &mut self,
        ptr: DevicePtr<T>,
        order: MemOrder,
        scope: Scope,
    ) -> T {
        self.atomic_pre_explicit(ptr.addr(), T::WIDTH, AccessKind::Load, order, scope);
        self.mem.read(ptr)
    }

    /// An atomic store with an explicit memory order and thread scope.
    #[inline(always)]
    pub fn atomic_store_explicit<T: DeviceValue>(
        &mut self,
        ptr: DevicePtr<T>,
        value: T,
        order: MemOrder,
        scope: Scope,
    ) {
        self.atomic_pre_explicit(ptr.addr(), T::WIDTH, AccessKind::Store, order, scope);
        self.mem.write(ptr, value);
    }

    /// An atomic read-modify-write with an explicit memory order and thread
    /// scope; returns the old value.
    #[inline(always)]
    pub fn atomic_rmw_explicit<T: DeviceValue>(
        &mut self,
        ptr: DevicePtr<T>,
        order: MemOrder,
        scope: Scope,
        f: impl FnOnce(T) -> T,
    ) -> T {
        self.atomic_pre_explicit(ptr.addr(), T::WIDTH, AccessKind::Rmw, order, scope);
        let old = self.mem.read(ptr);
        self.mem.write(ptr, f(old));
        old
    }

    /// `atomicAdd` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_add_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |old| old.wrapping_add(v))
    }

    /// `atomicMin` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_min_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |old| old.min(v))
    }

    /// `atomicMax` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_max_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |old| old.max(v))
    }

    /// `atomicMin` on a `u64` (`unsigned long long`); returns the old value.
    #[inline(always)]
    pub fn atomic_min_u64(&mut self, ptr: DevicePtr<u64>, v: u64) -> u64 {
        self.atomic_rmw(ptr, |old| old.min(v))
    }

    /// `atomicAdd` on a `u64`; returns the old value.
    #[inline(always)]
    pub fn atomic_add_u64(&mut self, ptr: DevicePtr<u64>, v: u64) -> u64 {
        self.atomic_rmw(ptr, |old| old.wrapping_add(v))
    }

    /// `atomicAnd` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_and_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |old| old & v)
    }

    /// `atomicOr` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_or_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |old| old | v)
    }

    /// `atomicCAS` on a `u32`; returns the old value (compare with `expected`
    /// to learn whether the swap happened).
    #[inline(always)]
    pub fn atomic_cas_u32(&mut self, ptr: DevicePtr<u32>, expected: u32, desired: u32) -> u32 {
        self.atomic_rmw(ptr, |old| if old == expected { desired } else { old })
    }

    /// `atomicCAS` on a `u64`; returns the old value.
    #[inline(always)]
    pub fn atomic_cas_u64(&mut self, ptr: DevicePtr<u64>, expected: u64, desired: u64) -> u64 {
        self.atomic_rmw(ptr, |old| if old == expected { desired } else { old })
    }

    /// `atomicExch` on a `u32`; returns the old value.
    #[inline(always)]
    pub fn atomic_exch_u32(&mut self, ptr: DevicePtr<u32>, v: u32) -> u32 {
        self.atomic_rmw(ptr, |_| v)
    }

    // --------------------------------------------------------------- shared

    /// Reads a value from per-block shared memory at a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if the access is outside the launch's `shared_bytes`.
    #[inline]
    pub fn shared_read<T: DeviceValue>(&mut self, offset: u32) -> T {
        self.record(
            Space::Shared,
            offset,
            T::WIDTH,
            AccessMode::Plain,
            AccessKind::Load,
        );
        self.cycles += self.port.l1_cycles as u64;
        T::read_from(self.shared, offset)
    }

    /// Writes a value to per-block shared memory at a byte offset.
    ///
    /// # Panics
    ///
    /// Panics if the access is outside the launch's `shared_bytes`.
    #[inline]
    pub fn shared_write<T: DeviceValue>(&mut self, offset: u32, value: T) {
        self.record(
            Space::Shared,
            offset,
            T::WIDTH,
            AccessMode::Plain,
            AccessKind::Store,
        );
        self.cycles += self.port.l1_cycles as u64;
        value.write_to(self.shared, offset);
    }
}

/// Thread scheduling status.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ThreadStatus {
    Active,
    AtBarrier,
    Done,
}

/// The per-launch scheduler state whose type does not depend on the
/// kernel. A [`crate::Gpu`] owns one and every launch resets it to the
/// launch's geometry, so a launch allocates only where it outgrows the
/// launches before it.
#[derive(Default)]
pub(crate) struct LaunchBuffers {
    statuses: Vec<ThreadStatus>,
    yields: Vec<u32>,
    /// One per thread of the largest launch so far; every one is empty
    /// between launches and keeps its capacity.
    sbufs: Vec<StoreBuf>,
    phases: Vec<u32>,
    sm_cycles: Vec<u64>,
    /// Per-block Active / AtBarrier counts (see `run_wave`).
    active_cnt: Vec<u32>,
    barrier_cnt: Vec<u32>,
    /// The current wave's blocks in scheduling order.
    block_order: Vec<u32>,
    /// `grid_blocks` shared-memory windows of `shared_bytes` each.
    shared: Vec<u8>,
    /// Set while a launch runs. Still set at the next launch when the last
    /// one failed, whose threads may have died holding deferred stores.
    in_flight: bool,
}

impl LaunchBuffers {
    /// Sizes and zeroes every buffer for a launch; the store buffers of a
    /// failed launch are emptied so none of its stores reach this one.
    fn reset(&mut self, num_threads: usize, grid_blocks: usize, shared_bytes: usize, sms: usize) {
        if std::mem::replace(&mut self.in_flight, true) {
            for sbuf in &mut self.sbufs {
                sbuf.entries.clear();
            }
        }
        if self.sbufs.len() < num_threads {
            self.sbufs.resize_with(num_threads, StoreBuf::new);
        }
        refill(&mut self.statuses, num_threads, ThreadStatus::Active);
        refill(&mut self.yields, num_threads, 0);
        refill(&mut self.phases, grid_blocks, 0);
        refill(&mut self.sm_cycles, sms, 0);
        refill(&mut self.active_cnt, grid_blocks, 0);
        refill(&mut self.barrier_cnt, grid_blocks, 0);
        refill(&mut self.shared, grid_blocks * shared_bytes, 0);
    }
}

fn refill<T: Copy>(v: &mut Vec<T>, len: usize, value: T) {
    v.clear();
    v.resize(len, value);
}

/// Runs one kernel to completion; returns its stats, or a typed error when
/// the watchdog fires, the fault budget runs out, the scheduler livelocks,
/// or a block diverges at a barrier.
///
/// This is crate-internal: user code launches kernels through
/// [`crate::Gpu::launch`] / [`crate::Gpu::try_launch`].
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_kernel<H: Hooks, K: Kernel<H>>(
    cfg: &GpuConfig,
    mem: &mut Memory,
    msys: &mut MemSystem,
    bufs: &mut LaunchBuffers,
    sinks: &mut [Box<dyn AccessSink>],
    launch_id: u32,
    seed: u64,
    watchdog: Option<u64>,
    deadline: Option<std::time::Instant>,
    mut fault: Option<&mut FaultState>,
    mut sanitizer: Option<&mut SanitizerState>,
    mode_table: Option<&ModeTable>,
    launch: LaunchConfig,
    kernel: &K,
) -> Result<KernelStats, SimError> {
    let (grid_blocks, block_threads) = effective_geometry(cfg, &launch);
    let num_threads = grid_blocks * block_threads;

    for sink in sinks.iter_mut() {
        sink.launch(launch_id, kernel.name());
    }
    if let Some(s) = sanitizer.as_deref_mut() {
        s.begin_launch(kernel.name(), mem);
    }
    // Allocations and the installed table cannot change while the launch
    // runs, so resolving the table per allocation here is exact.
    let modes = mode_table.map_or_else(Vec::new, |t| t.resolve(kernel.name(), mem));

    // Per-thread coroutine states; everything else lives in `bufs`.
    let mut states: Vec<K::State> = (0..num_threads)
        .map(|tid| {
            kernel.init(ThreadInfo {
                global_id: tid,
                num_threads,
                block: tid / block_threads,
                thread_in_block: tid % block_threads,
            })
        })
        .collect();
    bufs.reset(
        num_threads as usize,
        grid_blocks as usize,
        launch.shared_bytes as usize,
        cfg.num_sms as usize,
    );
    let mut counters = LaunchCounters::default();

    msys.reset_stats();

    // More blocks than the device can host run in waves, as on real
    // hardware where excess blocks queue until SMs free up. Grid-stride
    // kernels (non-exact geometry) are clamped to one wave above, so
    // cross-block polling can never deadlock on an unscheduled block.
    let wave_blocks = (cfg.max_resident_threads() / block_threads).max(1);
    let mut wave_start = 0u32;
    while wave_start < grid_blocks {
        let wave_end = (wave_start + wave_blocks).min(grid_blocks);
        bufs.block_order.clear();
        bufs.block_order.extend(wave_start..wave_end);
        shuffle(
            &mut bufs.block_order,
            seed ^ ((launch_id as u64) << 32) ^ wave_start as u64,
        );
        run_wave(
            cfg,
            kernel,
            block_threads,
            seed,
            launch_id,
            num_threads,
            mem,
            msys,
            sinks,
            &modes,
            &mut states,
            bufs,
            &mut counters,
            launch,
            watchdog,
            deadline,
            &mut fault,
            &mut sanitizer,
        )?;
        wave_start = wave_end;
    }
    // Every thread finished, and finishing drains its store buffer.
    bufs.in_flight = false;

    let busiest = bufs.sm_cycles.iter().copied().max().unwrap_or(0);
    Ok(KernelStats {
        name: kernel.name().to_string(),
        cycles: busiest + cfg.launch_overhead_cycles,
        l1: msys.l1_stats(),
        l2: msys.l2_stats(),
        dram_accesses: msys.dram_accesses(),
        plain_accesses: counters.plain,
        volatile_accesses: counters.volatile_,
        atomic_accesses: counters.atomic,
        coalesced_stores: counters.coalesced,
        steps: counters.steps,
        threads: num_threads as u64,
    })
}

/// Runs one resident wave of blocks, `bufs.block_order`, to completion.
#[allow(clippy::too_many_arguments)]
fn run_wave<H: Hooks, K: Kernel<H>>(
    cfg: &GpuConfig,
    kernel: &K,
    block_threads: u32,
    seed: u64,
    launch_id: u32,
    num_threads: u32,
    mem: &mut Memory,
    msys: &mut MemSystem,
    sinks: &mut [Box<dyn AccessSink>],
    modes: &[Option<ModePair>],
    states: &mut [K::State],
    bufs: &mut LaunchBuffers,
    counters: &mut LaunchCounters,
    launch: LaunchConfig,
    watchdog: Option<u64>,
    deadline: Option<std::time::Instant>,
    fault: &mut Option<&mut FaultState>,
    sanitizer: &mut Option<&mut SanitizerState>,
) -> Result<(), SimError> {
    let LaunchBuffers {
        statuses,
        yields,
        sbufs,
        phases,
        sm_cycles,
        active_cnt,
        barrier_cnt,
        block_order,
        shared,
        ..
    } = bufs;
    let shared_bytes = launch.shared_bytes as usize;
    let wave_len = block_order.len();
    // Per-block Active / AtBarrier counts, maintained incrementally so the
    // scheduler can skip fully-finished blocks and release barriers in O(1)
    // instead of rescanning every thread's status each round. Indexed by
    // global block id; only this wave's entries are used, and each block
    // belongs to one wave, so the launch's zeroing suffices. Pure
    // bookkeeping: the order and identity of executed steps is exactly as
    // before (the skipped iterations were no-ops).
    for &b in block_order.iter() {
        let first = b * block_threads;
        for t in first..first + block_threads {
            match statuses[t as usize] {
                ThreadStatus::Active => active_cnt[b as usize] += 1,
                ThreadStatus::AtBarrier => barrier_cnt[b as usize] += 1,
                ThreadStatus::Done => {}
            }
        }
    }
    let mut alive: u32 = block_order.iter().map(|&b| active_cnt[b as usize]).sum();
    let mut round = 0u64;
    const MAX_ROUNDS: u64 = 4_000_000;
    while alive > 0 {
        round += 1;
        if round > MAX_ROUNDS {
            return Err(SimError::Livelock {
                kernel: kernel.name().to_string(),
                rounds: MAX_ROUNDS,
            });
        }
        // Rotate the starting block each round so interleaving varies with
        // the seed but stays cheap to compute. An armed fault plan may add
        // jitter on top, widening the interleavings one run explores.
        let mut rot = ((round.wrapping_mul(0x9e3779b97f4a7c15) ^ seed) % wave_len as u64) as usize;
        if let Some(f) = fault.as_deref_mut() {
            rot = (rot + f.sched_jitter(wave_len as u64) as usize) % wave_len;
        }
        for bi in 0..wave_len {
            let block = block_order[(bi + rot) % wave_len];
            let b = block as usize;
            if active_cnt[b] == 0 && barrier_cnt[b] == 0 {
                // Every thread in the block is Done; nothing to step and no
                // barrier to release.
                continue;
            }
            let sm = (block % cfg.num_sms) as usize;
            let first = block * block_threads;
            if active_cnt[b] > 0 {
                // The context is built once per block iteration; only the
                // per-thread fields are patched inside the loop. All threads
                // of a block run on the same SM, so they share one memory
                // port, and cycles and counters can be flushed once after
                // the loop with an identical sum.
                let mut ctx = Ctx {
                    mem: &mut *mem,
                    port: msys.port(sm),
                    sinks: &mut *sinks,
                    fault: fault.as_deref_mut(),
                    sanitizer: sanitizer.as_deref_mut(),
                    kernel: kernel.name(),
                    modes,
                    sbufs: &mut *sbufs,
                    sbuf_idx: 0,
                    shared: &mut shared[b * shared_bytes..(b + 1) * shared_bytes],
                    cycles: 0,
                    counters: LaunchCounters::default(),
                    launch: launch_id,
                    block,
                    phase: phases[b],
                    thread: 0,
                    num_threads,
                    thread_in_block: 0,
                    visibility: launch.store_visibility,
                    native_64bit: cfg.native_64bit,
                    alu_cycles: cfg.alu_cycles,
                    _hooks: std::marker::PhantomData,
                };
                for t in first..first + block_threads {
                    if statuses[t as usize] != ThreadStatus::Active {
                        continue;
                    }
                    ctx.counters.steps += 1;
                    ctx.thread = t;
                    ctx.thread_in_block = t - first;
                    ctx.sbuf_idx = t as usize;
                    let step = kernel.step(&mut states[t as usize], &mut ctx);
                    match step {
                        Step::Yield => {
                            let scheduled = match launch.store_visibility {
                                StoreVisibility::DeferUntilYield => true,
                                StoreVisibility::DeferBounded { every, .. } => {
                                    yields[t as usize] += 1;
                                    yields[t as usize].is_multiple_of(every.max(1))
                                }
                                _ => false,
                            };
                            // Fault plans only perturb drains that could matter:
                            // a scheduled one, or an early one with stores held.
                            if scheduled || ctx.has_buffered_stores() {
                                ctx.yield_drain(scheduled);
                            }
                        }
                        Step::Barrier => {
                            // __syncthreads makes prior writes visible block-wide
                            // (and, in our flat arena, device-wide).
                            ctx.drain_all();
                            statuses[t as usize] = ThreadStatus::AtBarrier;
                            active_cnt[b] -= 1;
                            barrier_cnt[b] += 1;
                        }
                        Step::Done => {
                            ctx.drain_all();
                            statuses[t as usize] = ThreadStatus::Done;
                            active_cnt[b] -= 1;
                            alive -= 1;
                        }
                    }
                }
                // Batched accounting: one flush per block iteration instead
                // of one indirect add per access.
                sm_cycles[sm] += ctx.cycles;
                counters.merge(&ctx.counters);
            }
            // Barrier release: when no thread in the block is Active, all
            // waiting threads resume in the next phase.
            if active_cnt[b] > 0 || barrier_cnt[b] == 0 {
                continue;
            }
            // CUDA requires all-or-none barrier participation: a thread
            // exiting while its siblings wait at a barrier is undefined
            // behavior on real hardware, so we fail loudly.
            if barrier_cnt[b] < block_threads {
                return Err(SimError::BarrierDivergence {
                    kernel: kernel.name().to_string(),
                    block,
                });
            }
            for t in first..first + block_threads {
                if statuses[t as usize] == ThreadStatus::AtBarrier {
                    statuses[t as usize] = ThreadStatus::Active;
                }
            }
            active_cnt[b] = barrier_cnt[b];
            barrier_cnt[b] = 0;
            phases[b] += 1;
        }
        // The watchdog and the fault budget are checked once per scheduler
        // round — the granularity at which the simulator can interrupt a
        // launch, like a driver-level timeout on real hardware.
        if let Some(budget) = watchdog {
            let busiest = sm_cycles.iter().copied().max().unwrap_or(0);
            if busiest > budget {
                return Err(SimError::WatchdogTimeout {
                    kernel: kernel.name().to_string(),
                    budget_cycles: budget,
                    elapsed_cycles: busiest,
                });
            }
        }
        if let Some(f) = fault.as_deref() {
            if f.budget_exhausted() {
                return Err(SimError::FaultBudgetExhausted {
                    kernel: kernel.name().to_string(),
                    budget: f.budget(),
                });
            }
        }
        // The wall-clock deadline is real time, not simulated time, so it
        // can only influence the error path: runs that finish in time are
        // bit-identical whether or not a deadline is armed. A round covers
        // hundreds of thread steps, so one `Instant::now` here is noise —
        // and only paid when a deadline is actually armed.
        if let Some(d) = deadline {
            if alive > 0 && std::time::Instant::now() >= d {
                return Err(SimError::DeadlineExceeded {
                    kernel: kernel.name().to_string(),
                });
            }
        }
    }
    Ok(())
}

fn effective_geometry(cfg: &GpuConfig, launch: &LaunchConfig) -> (u32, u32) {
    assert!(launch.grid_blocks >= 1 && launch.block_threads >= 1);
    let capacity = cfg.max_resident_threads();
    if launch.exact_geometry {
        // Exact grids may exceed residency; excess blocks run in waves.
        return (launch.grid_blocks, launch.block_threads);
    }
    let max_blocks = (capacity / launch.block_threads).max(1);
    (launch.grid_blocks.min(max_blocks), launch.block_threads)
}

/// Deterministically selects whether a store address belongs to the
/// compiler-deferred fraction (`eighths / 8` of all addresses).
#[inline]
fn deferred_address(addr: u32, eighths: u8) -> bool {
    let mut h = addr.wrapping_mul(0x9e37_79b9);
    h ^= h >> 15;
    (h & 7) < eighths as u32
}

/// Fisher–Yates with a SplitMix64 stream (no external RNG needed here).
fn shuffle(values: &mut [u32], mut seed: u64) {
    let mut next = || {
        seed = seed.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = seed;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    };
    for i in (1..values.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        values.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::host::Gpu;

    #[test]
    fn for_each_covers_all_items() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(5000);
        gpu.launch(
            LaunchConfig::for_items(5000),
            ForEach::new("mark", 5000, move |ctx, i| {
                ctx.store(buf.at(i as usize), i + 1);
            }),
        );
        let host = gpu.download(&buf);
        for (i, &v) in host.iter().enumerate() {
            assert_eq!(v, i as u32 + 1);
        }
    }

    #[test]
    fn launch_config_for_items_clamps() {
        let lc = LaunchConfig::for_items(10);
        assert_eq!(lc.grid_blocks, 1);
        let lc = LaunchConfig::for_items(1_000_000);
        assert_eq!(lc.grid_blocks, 128);
    }

    #[test]
    fn geometry_clamped_to_capacity() {
        let cfg = GpuConfig::test_tiny(); // 4 SMs * 256 threads = 1024
        let launch = LaunchConfig::for_items(1_000_000);
        let (blocks, threads) = effective_geometry(&cfg, &launch);
        assert!(blocks * threads <= cfg.max_resident_threads());
    }

    #[test]
    fn exact_geometry_overflow_runs_in_waves() {
        // 64 blocks x 256 threads on a 1024-thread device: 16 waves.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(64 * 256);
        struct BlockWriter {
            buf: crate::mem::DeviceBuffer<u32>,
        }
        impl Kernel for BlockWriter {
            type State = ();
            fn name(&self) -> &str {
                "waves"
            }
            fn init(&self, _: ThreadInfo) {}
            fn step(&self, _: &mut (), ctx: &mut Ctx<'_>) -> Step {
                let i = ctx.global_id() as usize;
                ctx.store(self.buf.at(i), ctx.block() + 1);
                Step::Done
            }
        }
        gpu.launch(
            LaunchConfig {
                grid_blocks: 64,
                block_threads: 256,
                store_visibility: StoreVisibility::Immediate,
                shared_bytes: 0,
                exact_geometry: true,
            },
            BlockWriter { buf },
        );
        let host = gpu.download(&buf);
        for b in 0..64u32 {
            assert_eq!(host[(b * 256) as usize], b + 1);
        }
    }

    #[test]
    fn atomic_add_counts_every_thread() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let counter = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(1000),
            ForEach::new("count", 1000, move |ctx, _| {
                ctx.atomic_add_u32(counter.at(0), 1);
            }),
        );
        assert_eq!(gpu.download(&counter)[0], 1000);
    }

    #[test]
    fn deferred_stores_drain_by_done() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(100);
        gpu.launch(
            LaunchConfig::for_items(100).with_visibility(StoreVisibility::DeferUntilDone),
            ForEach::new("defer", 100, move |ctx, i| {
                ctx.store(buf.at(i as usize), 7);
            }),
        );
        assert!(gpu.download(&buf).iter().all(|&v| v == 7));
    }

    #[test]
    fn coalesced_stores_counted() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 1,
                store_visibility: StoreVisibility::DeferUntilDone,
                shared_bytes: 0,
                exact_geometry: true,
            },
            ForEach::new("overwrite", 16, move |ctx, _| {
                ctx.store(buf.at(0), 1);
            })
            .with_chunk(16),
        );
        let stats = gpu.last_stats().unwrap();
        assert_eq!(stats.coalesced_stores, 15);
        assert_eq!(gpu.download(&buf)[0], 1);
    }

    #[test]
    fn store_to_load_forwarding_sees_own_writes() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(2);
        gpu.launch(
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 1,
                store_visibility: StoreVisibility::DeferUntilDone,
                shared_bytes: 0,
                exact_geometry: true,
            },
            ForEach::new("fwd", 1, move |ctx, _| {
                ctx.store(buf.at(0), 41);
                let v = ctx.load(buf.at(0));
                ctx.store(buf.at(1), v + 1);
            }),
        );
        assert_eq!(gpu.download(&buf), vec![41, 42]);
    }

    #[test]
    fn memory_order_and_scope_costs() {
        use crate::access::{MemOrder, Scope};
        let cost_of = |order: MemOrder, scope: Scope| {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let buf = gpu.alloc::<u32>(64);
            gpu.launch(
                LaunchConfig {
                    grid_blocks: 1,
                    block_threads: 1,
                    store_visibility: StoreVisibility::Immediate,
                    shared_bytes: 0,
                    exact_geometry: true,
                },
                ForEach::new("x", 64, move |ctx, i| {
                    let _ = ctx.atomic_load_explicit(buf.at(i as usize), order, scope);
                })
                .with_chunk(64),
            );
            gpu.elapsed_cycles()
        };
        let relaxed = cost_of(MemOrder::Relaxed, Scope::Device);
        let seq_cst = cost_of(MemOrder::SeqCst, Scope::Device);
        let block = cost_of(MemOrder::Relaxed, Scope::Block);
        let system = cost_of(MemOrder::Relaxed, Scope::System);
        // The paper's §II-A guidance: relaxed is the cheapest order, the
        // seq_cst default is slower; block scope beats device beats system.
        assert!(seq_cst > relaxed, "seq_cst {seq_cst} vs relaxed {relaxed}");
        assert!(block < relaxed, "block {block} vs device {relaxed}");
        assert!(system > relaxed, "system {system} vs device {relaxed}");
    }

    #[test]
    fn explicit_atomics_are_functional() {
        use crate::access::{MemOrder, Scope};
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u64>(1);
        gpu.launch(
            LaunchConfig::for_items(100),
            ForEach::new("inc", 100, move |ctx, _| {
                ctx.atomic_rmw_explicit(buf.at(0), MemOrder::SeqCst, Scope::System, |v| v + 2);
            }),
        );
        assert_eq!(gpu.download(&buf)[0], 200);
        gpu.launch(
            LaunchConfig::for_items(1),
            ForEach::new("set", 1, move |ctx, _| {
                ctx.atomic_store_explicit(buf.at(0), 7u64, MemOrder::Release, Scope::Device);
            }),
        );
        assert_eq!(gpu.download(&buf)[0], 7);
    }

    #[test]
    fn barrier_orders_block_phases() {
        // Producer/consumer across a barrier within one block.
        struct BarrierKernel {
            buf: crate::mem::DeviceBuffer<u32>,
            out: crate::mem::DeviceBuffer<u32>,
        }
        impl Kernel for BarrierKernel {
            type State = (u32, u8);
            fn name(&self) -> &str {
                "barrier"
            }
            fn init(&self, info: ThreadInfo) -> Self::State {
                (info.thread_in_block, 0)
            }
            fn step(&self, state: &mut Self::State, ctx: &mut Ctx<'_>) -> Step {
                let (tid, stage) = *state;
                if stage == 0 {
                    ctx.store(self.buf.at(tid as usize), tid + 100);
                    state.1 = 1;
                    Step::Barrier
                } else {
                    // Read a sibling's value; the barrier guarantees it.
                    let peer = (tid + 1) % 32;
                    let v = ctx.load(self.buf.at(peer as usize));
                    ctx.store(self.out.at(tid as usize), v);
                    Step::Done
                }
            }
        }
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(32);
        let out = gpu.alloc::<u32>(32);
        gpu.launch(
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 32,
                store_visibility: StoreVisibility::DeferUntilDone,
                shared_bytes: 0,
                exact_geometry: true,
            },
            BarrierKernel { buf, out },
        );
        let host = gpu.download(&out);
        for t in 0..32u32 {
            assert_eq!(host[t as usize], (t + 1) % 32 + 100);
        }
    }

    #[test]
    fn shared_memory_is_per_block() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let out = gpu.alloc::<u32>(4);
        struct SharedKernel {
            out: crate::mem::DeviceBuffer<u32>,
        }
        impl Kernel for SharedKernel {
            type State = u8;
            fn name(&self) -> &str {
                "shared"
            }
            fn init(&self, _: ThreadInfo) -> u8 {
                0
            }
            fn step(&self, stage: &mut u8, ctx: &mut Ctx<'_>) -> Step {
                if *stage == 0 {
                    // Each block writes its own id into shared offset 0.
                    ctx.shared_write::<u32>(0, ctx.block() + 10);
                    *stage = 1;
                    Step::Barrier
                } else {
                    let v: u32 = ctx.shared_read(0);
                    let b = ctx.block();
                    ctx.store(self.out.at(b as usize), v);
                    Step::Done
                }
            }
        }
        gpu.launch(
            LaunchConfig {
                grid_blocks: 4,
                block_threads: 1,
                store_visibility: StoreVisibility::Immediate,
                shared_bytes: 64,
                exact_geometry: true,
            },
            SharedKernel { out },
        );
        assert_eq!(gpu.download(&out), vec![10, 11, 12, 13]);
    }

    #[test]
    fn word_tearing_on_32bit_hardware() {
        // Paper Fig. 1: T1 stores 0 over -1 with a plain 64-bit access on a
        // device without native 64-bit stores; T2 observes a chimera.
        let mut cfg = GpuConfig::test_tiny();
        cfg.native_64bit = false;
        let mut gpu = Gpu::new(cfg);
        let val = gpu.alloc::<u64>(1);
        let seen = gpu.alloc::<u64>(4);
        gpu.upload(&val, &[u64::MAX]);

        struct Fig1 {
            val: crate::mem::DeviceBuffer<u64>,
            seen: crate::mem::DeviceBuffer<u64>,
        }
        impl Kernel for Fig1 {
            type State = (u32, u8);
            fn name(&self) -> &str {
                "fig1"
            }
            fn init(&self, info: ThreadInfo) -> Self::State {
                (info.global_id, 0)
            }
            fn step(&self, state: &mut Self::State, ctx: &mut Ctx<'_>) -> Step {
                let (tid, stage) = *state;
                match (tid, stage) {
                    (0, 0) => {
                        // T1: plain 64-bit store; the low half commits now,
                        // the high half drains when the thread finishes.
                        ctx.store(self.val.at(0), 0u64);
                        state.1 = 1;
                        Step::Yield
                    }
                    (0, _) => Step::Done,
                    (t, _) => {
                        // T2-style readers sample while T1's second machine
                        // store is still in flight.
                        let v = ctx.load(self.val.at(0));
                        ctx.store_volatile(self.seen.at(t as usize), v);
                        Step::Done
                    }
                }
            }
        }
        gpu.launch(
            LaunchConfig {
                grid_blocks: 1,
                block_threads: 4,
                store_visibility: StoreVisibility::DeferUntilDone,
                shared_bytes: 0,
                exact_geometry: true,
            },
            Fig1 { val, seen },
        );
        let seen = gpu.download(&seen);
        // At least one reader saw a value that is neither -1 nor 0: a
        // chimera with half old and half new bits.
        let chimera = seen[1..].iter().any(|&v| v != u64::MAX && v != 0);
        assert!(chimera, "expected a torn value, saw {seen:x?}");
        assert_eq!(gpu.download(&val)[0], 0, "final value must settle to 0");
    }
}
