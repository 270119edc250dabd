//! The race-free access layer — the paper's Figs. 2–5 — and the
//! [`AccessPolicy`] abstraction that swaps it in and out of the kernels.
//!
//! The paper converts each baseline code by replacing every load/store of
//! shared mutable data with `atomicRead`/`atomicWrite` (relaxed `libcu++`
//! atomics, Fig. 2), working around CUDA's missing sub-word atomics with
//! typecasting and masking for `char` data (Figs. 3–4) and with half-word
//! helpers for `int2` pairs stored in a `long long` (Fig. 5). This module
//! expresses that conversion as a trait with three implementations:
//!
//! - [`Plain`] — ordinary accesses, as in the baseline CC/MIS/SCC codes;
//! - [`Volatile`] — `volatile` accesses, as in the baseline GC/MST codes;
//! - [`Atomic`] — the race-free conversion.

use ecl_simt::{Ctx, DevicePtr, Hooks};

/// How a kernel accesses *shared mutable* data.
///
/// Kernels in this crate are generic over an `AccessPolicy`; read-only data
/// (the CSR structure) is always read with plain loads, exactly as in the
/// paper's conversions, which only touch shared mutable arrays.
///
/// # Example
///
/// The same kernel body becomes the racy baseline or the race-free
/// conversion by swapping the policy:
///
/// ```
/// use ecl_core::primitives::{AccessPolicy, Atomic, Plain};
/// use ecl_simt::{Ctx, DeviceBuffer, ForEach, Gpu, GpuConfig, LaunchConfig};
///
/// fn bump<P: AccessPolicy>(gpu: &mut Gpu, data: DeviceBuffer<u32>) {
///     gpu.launch(
///         LaunchConfig::for_items(64),
///         ForEach::new("bump", 64, move |ctx, i| {
///             let v = P::read_u32(ctx, data.at(i as usize));
///             P::write_u32(ctx, data.at(i as usize), v + 1);
///         }),
///     );
/// }
///
/// let mut gpu = Gpu::new(GpuConfig::test_tiny());
/// let data = gpu.alloc::<u32>(64);
/// bump::<Plain>(&mut gpu, data);   // the published baseline
/// bump::<Atomic>(&mut gpu, data);  // the race-free conversion
/// assert_eq!(gpu.download(&data)[5], 2);
/// ```
pub trait AccessPolicy: Copy + Default + Send + Sync + 'static {
    /// Human-readable policy name ("plain", "volatile", "atomic").
    const NAME: &'static str;
    /// The [`ecl_simt::AccessMode`] this policy's reads issue — what the
    /// IR op builders in [`crate::contracts`] declare for its reads.
    const READ_MODE: ecl_simt::AccessMode;
    /// The [`ecl_simt::AccessMode`] this policy's writes issue.
    const WRITE_MODE: ecl_simt::AccessMode;

    /// Reads a shared `u32`.
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32;
    /// Writes a shared `u32`.
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32);
    /// Reads a shared `u64`.
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64;
    /// Writes a shared `u64`.
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64);

    /// Monotonic max-update of a shared `u32`: the baseline codes read, test,
    /// and write back non-atomically (losing updates is "benign" because the
    /// value is re-propagated); the race-free code uses `atomicMax`.
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool;

    /// Reads element `i` of a shared byte array (MIS statuses).
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8;
    /// Writes element `i` of a shared byte array.
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8);

    /// Reads the first `u32` of a pair packed in a `u64` (SCC's `int2`).
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32;
    /// Reads the second `u32` of a packed pair.
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32;
    /// Monotonic max-update of the first half of a packed pair.
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool;
    /// Monotonic max-update of the second half of a packed pair.
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool;

    /// Raises a shared flag to 1 (SCC's "repeat" boolean).
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>);
}

/// Pointer to half of a packed pair, as in the paper's Fig. 5.
#[inline]
fn half_ptr(p: DevicePtr<u64>, second: bool) -> DevicePtr<u32> {
    let base: DevicePtr<u32> = p.cast();
    if second {
        base.offset(1)
    } else {
        base
    }
}

/// Ordinary (plain) accesses: the baseline CC, MIS, and SCC codes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plain;

impl AccessPolicy for Plain {
    const NAME: &'static str = "plain";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Plain;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Plain;

    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        ctx.load(p)
    }
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        ctx.store(p, v);
    }
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        ctx.load(p)
    }
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        ctx.store(p, v);
    }
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        // Racy read-test-write: concurrent larger writes can be lost; the
        // algorithms re-propagate, so this is the paper's "benign" race.
        if ctx.load(p) < v {
            ctx.store(p, v);
            true
        } else {
            false
        }
    }
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        ctx.load(base.offset(i as usize))
    }
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        ctx.store(base.offset(i as usize), v);
    }
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.load(half_ptr(p, false))
    }
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.load(half_ptr(p, true))
    }
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, half_ptr(p, false), v)
    }
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, half_ptr(p, true), v)
    }
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        ctx.store(p, 1);
    }
}

/// `volatile` accesses: the baseline GC and MST codes. Immediately visible
/// and never optimized away, but still data races per the CUDA memory model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Volatile;

impl AccessPolicy for Volatile {
    const NAME: &'static str = "volatile";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Volatile;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Volatile;

    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        ctx.load_volatile(p)
    }
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        ctx.store_volatile(p, v);
    }
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        ctx.load_volatile(p)
    }
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        ctx.store_volatile(p, v);
    }
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        if ctx.load_volatile(p) < v {
            ctx.store_volatile(p, v);
            true
        } else {
            false
        }
    }
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        ctx.load_volatile(base.offset(i as usize))
    }
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        ctx.store_volatile(base.offset(i as usize), v);
    }
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.load_volatile(half_ptr(p, false))
    }
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.load_volatile(half_ptr(p, true))
    }
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, half_ptr(p, false), v)
    }
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, half_ptr(p, true), v)
    }
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        ctx.store_volatile(p, 1);
    }
}

/// The baseline ECL-MIS access mix: `volatile` *reads* of the shared status
/// array (the polling loops must see other threads' updates eventually), but
/// plain *writes* — which the compiler is free to keep in registers and
/// write back late. This split is exactly the behavior the paper blames for
/// the baseline MIS's extra polling rounds ("the compiler may 'optimize'
/// some of these accesses, thus delaying when updates become visible to
/// other threads", §VI-A).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolatileReadPlainWrite;

impl AccessPolicy for VolatileReadPlainWrite {
    const NAME: &'static str = "volatile-read/plain-write";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Volatile;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Plain;

    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        Volatile::read_u32(ctx, p)
    }
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        Plain::write_u32(ctx, p, v);
    }
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        Volatile::read_u64(ctx, p)
    }
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        Plain::write_u64(ctx, p, v);
    }
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        if Volatile::read_u32(ctx, p) < v {
            Plain::write_u32(ctx, p, v);
            true
        } else {
            false
        }
    }
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        Volatile::read_byte(ctx, base, i)
    }
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        Plain::write_byte(ctx, base, i, v);
    }
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        Volatile::read_pair_first(ctx, p)
    }
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        Volatile::read_pair_second(ctx, p)
    }
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, p.cast(), v)
    }
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        Self::max_u32(ctx, p.cast::<u32>().offset(1), v)
    }
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        Plain::raise_flag(ctx, p);
    }
}

/// The race-free conversion: every access is a relaxed atomic (Fig. 2), with
/// typecast-and-mask for bytes (Figs. 3–4) and half-word helpers for packed
/// pairs (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Atomic;

impl AccessPolicy for Atomic {
    const NAME: &'static str = "atomic";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;

    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        ctx.atomic_load(p)
    }
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        ctx.atomic_store(p, v);
    }
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        ctx.atomic_load(p)
    }
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        ctx.atomic_store(p, v);
    }
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        ctx.atomic_max_u32(p, v) < v
    }
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        atomic_read_byte(ctx, base, i)
    }
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        atomic_write_byte(ctx, base, i, v);
    }
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        // Fig. 5 `readFirst`: reinterpret the long long as two ints.
        ctx.atomic_load(half_ptr(p, false))
    }
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        ctx.atomic_load(half_ptr(p, true))
    }
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        ctx.atomic_max_u32(half_ptr(p, false), v) < v
    }
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        ctx.atomic_max_u32(half_ptr(p, true), v) < v
    }
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        ctx.atomic_store(p, 1);
    }
}

/// IR-driven access dispatch: each policy-mediated access looks up its
/// [`ecl_simt::AccessMode`] in the [`ecl_simt::ModeTable`] installed on the
/// device ([`ecl_simt::Gpu::install_mode_table`]), keyed by the running
/// kernel and the accessed buffer. This is how a *synthesized* kernel IR —
/// e.g. the output of the `ecl-analyze` repair pass — executes on the
/// existing closure backend without any new kernel code: the closures stay
/// fixed, the table tells every site which of the three concrete policies'
/// behavior to exhibit.
///
/// A policy-mediated access with no table entry is a bug — the installed IR
/// does not describe the kernel actually running — and panics with the
/// kernel/buffer pair rather than silently guessing a mode.
///
/// Race-freedom is a property of the *installed table*, not of this
/// policy; the repair pipeline's oracles (static check, dynamic racecheck,
/// differential fixpoint) are what certify a given table.
/// `READ_MODE`/`WRITE_MODE` are likewise not meaningful here (contracts for
/// IR-driven runs are lowered from the repaired IR itself, never built from
/// these constants); they are pinned to `Atomic` arbitrarily.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IrDriven;

impl IrDriven {
    #[inline]
    fn modes<H: Hooks>(ctx: &Ctx<'_, H>, addr: u32) -> ecl_simt::ModePair {
        ctx.dispatch_modes(addr).unwrap_or_else(|| {
            panic!(
                "ir-driven access in kernel '{}' at {addr:#x} has no mode-table entry: \
                 the installed IR is out of sync with the kernel body",
                ctx.kernel_name()
            )
        })
    }
}

impl AccessPolicy for IrDriven {
    const NAME: &'static str = "ir-driven";
    const READ_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;
    const WRITE_MODE: ecl_simt::AccessMode = ecl_simt::AccessMode::Atomic;

    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        match Self::modes(ctx, p.addr()).read {
            ecl_simt::AccessMode::Plain => Plain::read_u32(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::read_u32(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::read_u32(ctx, p),
        }
    }
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        match Self::modes(ctx, p.addr()).write {
            ecl_simt::AccessMode::Plain => Plain::write_u32(ctx, p, v),
            ecl_simt::AccessMode::Volatile => Volatile::write_u32(ctx, p, v),
            ecl_simt::AccessMode::Atomic => Atomic::write_u32(ctx, p, v),
        }
    }
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        match Self::modes(ctx, p.addr()).read {
            ecl_simt::AccessMode::Plain => Plain::read_u64(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::read_u64(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::read_u64(ctx, p),
        }
    }
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        match Self::modes(ctx, p.addr()).write {
            ecl_simt::AccessMode::Plain => Plain::write_u64(ctx, p, v),
            ecl_simt::AccessMode::Volatile => Volatile::write_u64(ctx, p, v),
            ecl_simt::AccessMode::Atomic => Atomic::write_u64(ctx, p, v),
        }
    }
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        let modes = Self::modes(ctx, p.addr());
        if modes.write == ecl_simt::AccessMode::Atomic {
            // The repaired form: one atomicMax, as in the paper's conversion.
            return Atomic::max_u32(ctx, p, v);
        }
        // The racy baseline form: mode-dispatched load, test, store.
        let cur = match modes.read {
            ecl_simt::AccessMode::Plain => Plain::read_u32(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::read_u32(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::read_u32(ctx, p),
        };
        if cur < v {
            Self::write_u32(ctx, p, v);
            true
        } else {
            false
        }
    }
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        match Self::modes(ctx, base.offset(i as usize).addr()).read {
            ecl_simt::AccessMode::Plain => Plain::read_byte(ctx, base, i),
            ecl_simt::AccessMode::Volatile => Volatile::read_byte(ctx, base, i),
            // Fig. 3b typecast-and-mask on the containing word.
            ecl_simt::AccessMode::Atomic => Atomic::read_byte(ctx, base, i),
        }
    }
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        match Self::modes(ctx, base.offset(i as usize).addr()).write {
            ecl_simt::AccessMode::Plain => Plain::write_byte(ctx, base, i, v),
            ecl_simt::AccessMode::Volatile => Volatile::write_byte(ctx, base, i, v),
            // Fig. 4b: atomicAnd for zero, CAS loop otherwise.
            ecl_simt::AccessMode::Atomic => Atomic::write_byte(ctx, base, i, v),
        }
    }
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        match Self::modes(ctx, p.addr()).read {
            ecl_simt::AccessMode::Plain => Plain::read_pair_first(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::read_pair_first(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::read_pair_first(ctx, p),
        }
    }
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        match Self::modes(ctx, p.addr()).read {
            ecl_simt::AccessMode::Plain => Plain::read_pair_second(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::read_pair_second(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::read_pair_second(ctx, p),
        }
    }
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        if Self::modes(ctx, p.addr()).write == ecl_simt::AccessMode::Atomic {
            Atomic::max_pair_first(ctx, p, v)
        } else {
            Self::max_u32(ctx, half_ptr(p, false), v)
        }
    }
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        if Self::modes(ctx, p.addr()).write == ecl_simt::AccessMode::Atomic {
            Atomic::max_pair_second(ctx, p, v)
        } else {
            Self::max_u32(ctx, half_ptr(p, true), v)
        }
    }
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        match Self::modes(ctx, p.addr()).write {
            ecl_simt::AccessMode::Plain => Plain::raise_flag(ctx, p),
            ecl_simt::AccessMode::Volatile => Volatile::raise_flag(ctx, p),
            ecl_simt::AccessMode::Atomic => Atomic::raise_flag(ctx, p),
        }
    }
}

/// Atomically reads byte `i` of a byte array by loading the containing `int`
/// and shifting/masking — the paper's Fig. 3b.
///
/// # Panics
///
/// Panics (in the simulator's bounds checks) if the array base is not
/// 4-byte aligned; device allocations always are.
#[inline]
pub fn atomic_read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
    let words: DevicePtr<u32> = base.cast();
    let word = ctx.atomic_load(words.offset((i / 4) as usize));
    ((word >> ((i % 4) * 8)) & 0xff) as u8
}

/// Atomically writes byte `i` of a byte array.
///
/// Writing zero uses a single `atomicAnd` with a mask, as in the paper's
/// Fig. 4b; other values use an atomic compare-and-swap loop on the
/// containing `int` (CUDA has no byte-wide atomics).
#[inline]
pub fn atomic_write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
    let words: DevicePtr<u32> = base.cast();
    let word_ptr = words.offset((i / 4) as usize);
    let shift = (i % 4) * 8;
    if v == 0 {
        // Fig. 4b: zero the byte with one atomic AND.
        ctx.atomic_and_u32(word_ptr, !(0xffu32 << shift));
        return;
    }
    loop {
        let old = ctx.atomic_load(word_ptr);
        let new = (old & !(0xffu32 << shift)) | ((v as u32) << shift);
        if ctx.atomic_cas_u32(word_ptr, old, new) == old {
            return;
        }
    }
}

/// The paper's Fig. 2 `atomicRead`: a relaxed atomic load.
#[inline]
pub fn atomic_read<H: Hooks, T: ecl_simt::DeviceValue>(ctx: &mut Ctx<'_, H>, p: DevicePtr<T>) -> T {
    ctx.atomic_load(p)
}

/// The paper's Fig. 2 `atomicWrite`: a relaxed atomic store.
#[inline]
pub fn atomic_write<H: Hooks, T: ecl_simt::DeviceValue>(
    ctx: &mut Ctx<'_, H>,
    p: DevicePtr<T>,
    v: T,
) {
    ctx.atomic_store(p, v);
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};

    fn one_thread_kernel(gpu: &mut Gpu, f: impl Fn(&mut Ctx<'_>, u32) + 'static) {
        gpu.launch(LaunchConfig::for_items(1), ForEach::new("test", 1, f));
    }

    #[test]
    fn byte_view_reads_correct_lane() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let bytes = gpu.alloc::<u8>(8);
        gpu.upload(&bytes, &[0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]);
        let out = gpu.alloc::<u8>(8);
        one_thread_kernel(&mut gpu, move |ctx, _| {
            for i in 0..8 {
                let v = atomic_read_byte(ctx, bytes.as_ptr(), i);
                ctx.store(out.at(i as usize), v);
            }
        });
        assert_eq!(
            gpu.download(&out),
            vec![0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88]
        );
    }

    #[test]
    fn byte_write_zero_uses_mask_and_preserves_siblings() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let bytes = gpu.alloc::<u8>(4);
        gpu.upload(&bytes, &[0xaa, 0xbb, 0xcc, 0xdd]);
        one_thread_kernel(&mut gpu, move |ctx, _| {
            atomic_write_byte(ctx, bytes.as_ptr(), 2, 0x00);
        });
        assert_eq!(gpu.download(&bytes), vec![0xaa, 0xbb, 0x00, 0xdd]);
    }

    #[test]
    fn byte_write_nonzero_cas_loop() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let bytes = gpu.alloc::<u8>(4);
        one_thread_kernel(&mut gpu, move |ctx, _| {
            atomic_write_byte(ctx, bytes.as_ptr(), 1, 0x5a);
            atomic_write_byte(ctx, bytes.as_ptr(), 3, 0x7f);
        });
        assert_eq!(gpu.download(&bytes), vec![0, 0x5a, 0, 0x7f]);
    }

    #[test]
    fn pair_halves_are_independent() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let pairs = gpu.alloc::<u64>(2);
        let out = gpu.alloc::<u32>(2);
        one_thread_kernel(&mut gpu, move |ctx, _| {
            let p = pairs.at(1);
            Atomic::max_pair_first(ctx, p, 41);
            Atomic::max_pair_second(ctx, p, 99);
            let first = Atomic::read_pair_first(ctx, p);
            ctx.store(out.at(0), first);
            let second = Atomic::read_pair_second(ctx, p);
            ctx.store(out.at(1), second);
        });
        assert_eq!(gpu.download(&out), vec![41, 99]);
        assert_eq!(gpu.download(&pairs)[1], (99u64 << 32) | 41);
    }

    #[test]
    fn policies_agree_functionally() {
        // All three policies must produce identical values on a single
        // thread; they differ only in cost and visibility.
        fn run<P: AccessPolicy>() -> Vec<u32> {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let data = gpu.alloc::<u32>(4);
            one_thread_kernel(&mut gpu, move |ctx, _| {
                P::write_u32(ctx, data.at(0), 5);
                P::max_u32(ctx, data.at(0), 9);
                P::max_u32(ctx, data.at(0), 3);
                let v = P::read_u32(ctx, data.at(0));
                P::write_u32(ctx, data.at(1), v + 1);
            });
            gpu.download(&data)
        }
        let plain = run::<Plain>();
        let volat = run::<Volatile>();
        let atomic = run::<Atomic>();
        let mixed = run::<VolatileReadPlainWrite>();
        assert_eq!(plain, vec![9, 10, 0, 0]);
        assert_eq!(plain, volat);
        assert_eq!(plain, atomic);
        assert_eq!(plain, mixed);
    }

    #[test]
    fn byte_policies_agree_functionally() {
        fn run<P: AccessPolicy>() -> Vec<u8> {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let bytes = gpu.alloc::<u8>(8);
            one_thread_kernel(&mut gpu, move |ctx, _| {
                for i in 0..8 {
                    P::write_byte(ctx, bytes.as_ptr(), i, (i as u8) * 3);
                }
                let v = P::read_byte(ctx, bytes.as_ptr(), 5);
                P::write_byte(ctx, bytes.as_ptr(), 0, v);
                P::write_byte(ctx, bytes.as_ptr(), 7, 0);
            });
            gpu.download(&bytes)
        }
        let expected = vec![15u8, 3, 6, 9, 12, 15, 18, 0];
        assert_eq!(run::<Plain>(), expected);
        assert_eq!(run::<Volatile>(), expected);
        assert_eq!(run::<Atomic>(), expected);
        assert_eq!(run::<VolatileReadPlainWrite>(), expected);
    }

    #[test]
    fn pair_policies_agree_functionally() {
        fn run<P: AccessPolicy>() -> (u32, u32) {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            let pairs = gpu.alloc::<u64>(1);
            let out = gpu.alloc::<u32>(2);
            one_thread_kernel(&mut gpu, move |ctx, _| {
                P::max_pair_first(ctx, pairs.at(0), 31);
                P::max_pair_first(ctx, pairs.at(0), 11); // no effect
                P::max_pair_second(ctx, pairs.at(0), 77);
                let first = P::read_pair_first(ctx, pairs.at(0));
                ctx.store(out.at(0), first);
                let second = P::read_pair_second(ctx, pairs.at(0));
                ctx.store(out.at(1), second);
            });
            let host = gpu.download(&out);
            (host[0], host[1])
        }
        assert_eq!(run::<Plain>(), (31, 77));
        assert_eq!(run::<Volatile>(), (31, 77));
        assert_eq!(run::<Atomic>(), (31, 77));
        assert_eq!(run::<VolatileReadPlainWrite>(), (31, 77));
    }

    #[test]
    fn max_u32_reports_improvement() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let data = gpu.alloc::<u32>(1);
        let out = gpu.alloc::<u32>(2);
        one_thread_kernel(&mut gpu, move |ctx, _| {
            let first = Atomic::max_u32(ctx, data.at(0), 7);
            let second = Atomic::max_u32(ctx, data.at(0), 7);
            ctx.store(out.at(0), first as u32);
            ctx.store(out.at(1), second as u32);
        });
        assert_eq!(gpu.download(&out), vec![1, 0]);
    }

    #[test]
    fn atomic_policy_is_marked_race_free() {
        assert_eq!(Atomic::READ_MODE, ecl_simt::AccessMode::Atomic);
        assert_eq!(Atomic::WRITE_MODE, ecl_simt::AccessMode::Atomic);
        assert_eq!(Plain::NAME, "plain");
    }
}
