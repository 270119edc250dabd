//! The race-free access layer — the paper's Figs. 2–5 — and the
//! [`AccessPolicy`] abstraction that swaps it in and out of the kernels.
//!
//! The paper converts each baseline code by replacing every load/store of
//! shared mutable data with `atomicRead`/`atomicWrite` (relaxed `libcu++`
//! atomics, Fig. 2), working around CUDA's missing sub-word atomics with
//! typecasting and masking for `char` data (Figs. 3–4) and with half-word
//! helpers for `int2` pairs stored in a `long long` (Fig. 5). This module
//! writes that conversion once, in the access methods of [`AccessPolicy`];
//! a policy only names the [`ModePair`] its accesses take. [`Plain`],
//! [`Volatile`] and [`VolatileReadPlainWrite`] are the baselines' modes,
//! [`Atomic`] is the race-free conversion, and [`IrDriven`] reads the modes
//! of each access from an installed [`ecl_simt::ModeTable`].

use ecl_simt::{AccessMode, Ctx, DevicePtr, DeviceValue, Hooks, ModePair};

/// How a kernel accesses *shared mutable* data.
///
/// Kernels in this crate are generic over an `AccessPolicy`; read-only data
/// (the CSR structure) is always read with plain loads, exactly as in the
/// paper's conversions, which only touch shared mutable arrays.
///
/// Every access method is written once over [`AccessPolicy::modes`]. A
/// static policy's modes are compile-time constants, so each kernel still
/// compiles to exactly its flavor's accesses.
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
    const READ_MODE: AccessMode;
    /// The [`ecl_simt::AccessMode`] this policy's writes issue.
    const WRITE_MODE: AccessMode;

    /// The modes of a policy-mediated access to `addr`: `READ_MODE` and
    /// `WRITE_MODE` unless the policy looks them up per access.
    #[inline]
    fn modes<H: Hooks>(_ctx: &Ctx<'_, H>, _addr: u32) -> ModePair {
        ModePair {
            read: Self::READ_MODE,
            write: Self::WRITE_MODE,
        }
    }

    /// Reads a shared `u32`.
    #[inline]
    fn read_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) -> u32 {
        load_as(ctx, p, Self::modes(ctx, p.addr()).read)
    }
    /// Writes a shared `u32`.
    #[inline]
    fn write_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) {
        store_as(ctx, p, v, Self::modes(ctx, p.addr()).write);
    }
    /// Reads a shared `u64`.
    #[inline]
    fn read_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u64 {
        load_as(ctx, p, Self::modes(ctx, p.addr()).read)
    }
    /// Writes a shared `u64`.
    #[inline]
    fn write_u64<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u64) {
        store_as(ctx, p, v, Self::modes(ctx, p.addr()).write);
    }

    /// Monotonic max-update of a shared `u32`: the baseline codes read, test,
    /// and write back non-atomically (losing updates is "benign" because the
    /// value is re-propagated); the race-free code uses `atomicMax`.
    #[inline]
    fn max_u32<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32) -> bool {
        max_as(ctx, p, v, Self::modes(ctx, p.addr()))
    }

    /// Reads element `i` of a shared byte array (MIS statuses); an atomic
    /// read loads the containing word (Fig. 3b, [`atomic_read_byte`]).
    #[inline]
    fn read_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32) -> u8 {
        let p = base.offset(i as usize);
        match Self::modes(ctx, p.addr()).read {
            AccessMode::Atomic => atomic_read_byte(ctx, base, i),
            mode => load_as(ctx, p, mode),
        }
    }
    /// Writes element `i` of a shared byte array; an atomic write updates
    /// the containing word (Fig. 4b, [`atomic_write_byte`]).
    #[inline]
    fn write_byte<H: Hooks>(ctx: &mut Ctx<'_, H>, base: DevicePtr<u8>, i: u32, v: u8) {
        let p = base.offset(i as usize);
        match Self::modes(ctx, p.addr()).write {
            AccessMode::Atomic => atomic_write_byte(ctx, base, i, v),
            mode => store_as(ctx, p, v, mode),
        }
    }

    /// Reads the first `u32` of a pair packed in a `u64` (SCC's `int2`).
    #[inline]
    fn read_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        load_as(ctx, half_ptr(p, false), Self::modes(ctx, p.addr()).read)
    }
    /// Reads the second `u32` of a packed pair.
    #[inline]
    fn read_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>) -> u32 {
        load_as(ctx, half_ptr(p, true), Self::modes(ctx, p.addr()).read)
    }
    /// Monotonic max-update of the first half of a packed pair.
    #[inline]
    fn max_pair_first<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        max_as(ctx, half_ptr(p, false), v, Self::modes(ctx, p.addr()))
    }
    /// Monotonic max-update of the second half of a packed pair.
    #[inline]
    fn max_pair_second<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u64>, v: u32) -> bool {
        max_as(ctx, half_ptr(p, true), v, Self::modes(ctx, p.addr()))
    }

    /// Raises a shared flag to 1 (SCC's "repeat" boolean).
    #[inline]
    fn raise_flag<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>) {
        store_as(ctx, p, 1, Self::modes(ctx, p.addr()).write);
    }
}

/// A plain, `volatile` or relaxed-atomic load (Fig. 2 `atomicRead`), as
/// `mode` says.
#[inline(always)]
fn load_as<H: Hooks, T: DeviceValue>(ctx: &mut Ctx<'_, H>, p: DevicePtr<T>, mode: AccessMode) -> T {
    match mode {
        AccessMode::Plain => ctx.load(p),
        AccessMode::Volatile => ctx.load_volatile(p),
        AccessMode::Atomic => ctx.atomic_load(p),
    }
}

/// A plain, `volatile` or relaxed-atomic store (Fig. 2 `atomicWrite`), as
/// `mode` says.
#[inline(always)]
fn store_as<H: Hooks, T: DeviceValue>(
    ctx: &mut Ctx<'_, H>,
    p: DevicePtr<T>,
    v: T,
    mode: AccessMode,
) {
    match mode {
        AccessMode::Plain => ctx.store(p, v),
        AccessMode::Volatile => ctx.store_volatile(p, v),
        AccessMode::Atomic => ctx.atomic_store(p, v),
    }
}

/// Monotonic max-update under `modes`: one `atomicMax` when the write side
/// is atomic, or else the baselines' racy read-test-write, whose lost
/// updates the algorithms re-propagate (the paper's "benign" race).
#[inline(always)]
fn max_as<H: Hooks>(ctx: &mut Ctx<'_, H>, p: DevicePtr<u32>, v: u32, modes: ModePair) -> bool {
    if modes.write == AccessMode::Atomic {
        return ctx.atomic_max_u32(p, v) < v;
    }
    if load_as(ctx, p, modes.read) < v {
        store_as(ctx, p, v, modes.write);
        true
    } else {
        false
    }
}

/// Pointer to half of a packed pair, as in the paper's Fig. 5.
#[inline]
fn half_ptr(p: DevicePtr<u64>, second: bool) -> DevicePtr<u32> {
    p.cast::<u32>().offset(second as usize)
}

/// Ordinary (plain) accesses: the baseline CC and SCC codes and GC's
/// `minposs`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Plain;

impl AccessPolicy for Plain {
    const NAME: &'static str = "plain";
    const READ_MODE: AccessMode = AccessMode::Plain;
    const WRITE_MODE: AccessMode = AccessMode::Plain;
}

/// `volatile` accesses: the baseline MST code and GC's colors. Immediately
/// visible and never optimized away, but still data races per the CUDA
/// memory model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Volatile;

impl AccessPolicy for Volatile {
    const NAME: &'static str = "volatile";
    const READ_MODE: AccessMode = AccessMode::Volatile;
    const WRITE_MODE: AccessMode = AccessMode::Volatile;
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
    const READ_MODE: AccessMode = AccessMode::Volatile;
    const WRITE_MODE: AccessMode = AccessMode::Plain;
}

/// The race-free conversion: every access is a relaxed atomic (Fig. 2), with
/// typecast-and-mask for bytes (Figs. 3–4) and half-word helpers for packed
/// pairs (Fig. 5).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Atomic;

impl AccessPolicy for Atomic {
    const NAME: &'static str = "atomic";
    const READ_MODE: AccessMode = AccessMode::Atomic;
    const WRITE_MODE: AccessMode = AccessMode::Atomic;
}

/// IR-driven access dispatch: each policy-mediated access looks up its
/// [`ecl_simt::AccessMode`] in the [`ecl_simt::ModeTable`] installed on the
/// device ([`ecl_simt::Gpu::install_mode_table`]), keyed by the running
/// kernel and the accessed buffer. This is how a *synthesized* kernel IR —
/// e.g. the output of the `ecl-analyze` repair pass — executes on the
/// existing closure backend without any new kernel code: the closures stay
/// fixed, and the table gives every site the modes that the access methods
/// of [`AccessPolicy`] then issue.
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

impl AccessPolicy for IrDriven {
    const NAME: &'static str = "ir-driven";
    const READ_MODE: AccessMode = AccessMode::Atomic;
    const WRITE_MODE: AccessMode = AccessMode::Atomic;

    #[inline]
    fn modes<H: Hooks>(ctx: &Ctx<'_, H>, addr: u32) -> ModePair {
        ctx.dispatch_modes(addr).unwrap_or_else(|| {
            panic!(
                "ir-driven access in kernel '{}' at {addr:#x} has no mode-table entry: \
                 the installed IR is out of sync with the kernel body",
                ctx.kernel_name()
            )
        })
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

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::{
        AccessOp, ForEach, Gpu, GpuConfig, IndexDiscipline, KernelIr, LaunchConfig, ModeTable,
        OpWidth,
    };

    fn one_thread_kernel(gpu: &mut Gpu, f: impl Fn(&mut Ctx<'_>, u32) + 'static) {
        gpu.launch(LaunchConfig::for_items(1), ForEach::new("test", 1, f));
    }

    /// Runs `hand` (a test body instantiated with `P`) on one device and
    /// `ir` (the same body instantiated with `IrDriven`) on another whose
    /// one-kernel mode table gives each of `buffers` `P`'s modes. Asserts
    /// that the two runs agree in values and in every launch's stats, and
    /// returns the values.
    fn agree_under_ir_driven<P: AccessPolicy, T: PartialEq + std::fmt::Debug>(
        buffers: &[&'static str],
        hand: fn(&mut Gpu) -> T,
        ir: fn(&mut Gpu) -> T,
    ) -> T {
        let mut kernel = KernelIr::new("test");
        for &buffer in buffers {
            let any = IndexDiscipline::Arbitrary;
            kernel = kernel
                .op(AccessOp::load(buffer, OpWidth::B4, P::READ_MODE, any))
                .op(AccessOp::store(buffer, OpWidth::B4, P::WRITE_MODE, any));
        }
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let want = hand(&mut gpu);
        let mut table_gpu = Gpu::new(GpuConfig::test_tiny());
        table_gpu.install_mode_table(ModeTable::from_ir(&[kernel]));
        let got = ir(&mut table_gpu);
        assert_eq!(got, want, "IrDriven under {}'s modes: values", P::NAME);
        assert_eq!(
            table_gpu.run_stats().launches,
            gpu.run_stats().launches,
            "IrDriven under {}'s modes: launch stats",
            P::NAME
        );
        want
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
        // Every policy must produce identical values on a single thread;
        // they differ only in cost and visibility. IrDriven under a
        // policy's modes must match that policy in cost as well.
        fn run<P: AccessPolicy>(gpu: &mut Gpu) -> Vec<u32> {
            let data = gpu.alloc_named::<u32>(4, "data");
            one_thread_kernel(gpu, move |ctx, _| {
                P::write_u32(ctx, data.at(0), 5);
                P::max_u32(ctx, data.at(0), 9);
                P::max_u32(ctx, data.at(0), 3);
                let v = P::read_u32(ctx, data.at(0));
                P::write_u32(ctx, data.at(1), v + 1);
            });
            gpu.download(&data)
        }
        fn check<P: AccessPolicy>() -> Vec<u32> {
            agree_under_ir_driven::<P, _>(&["data"], run::<P>, run::<IrDriven>)
        }
        let plain = check::<Plain>();
        let volat = check::<Volatile>();
        let atomic = check::<Atomic>();
        let mixed = check::<VolatileReadPlainWrite>();
        assert_eq!(plain, vec![9, 10, 0, 0]);
        assert_eq!(plain, volat);
        assert_eq!(plain, atomic);
        assert_eq!(plain, mixed);
    }

    #[test]
    fn byte_policies_agree_functionally() {
        fn run<P: AccessPolicy>(gpu: &mut Gpu) -> Vec<u8> {
            let bytes = gpu.alloc_named::<u8>(8, "bytes");
            one_thread_kernel(gpu, move |ctx, _| {
                for i in 0..8 {
                    P::write_byte(ctx, bytes.as_ptr(), i, (i as u8) * 3);
                }
                let v = P::read_byte(ctx, bytes.as_ptr(), 5);
                P::write_byte(ctx, bytes.as_ptr(), 0, v);
                P::write_byte(ctx, bytes.as_ptr(), 7, 0);
            });
            gpu.download(&bytes)
        }
        fn check<P: AccessPolicy>() -> Vec<u8> {
            agree_under_ir_driven::<P, _>(&["bytes"], run::<P>, run::<IrDriven>)
        }
        let expected = vec![15u8, 3, 6, 9, 12, 15, 18, 0];
        assert_eq!(check::<Plain>(), expected);
        assert_eq!(check::<Volatile>(), expected);
        assert_eq!(check::<Atomic>(), expected);
        assert_eq!(check::<VolatileReadPlainWrite>(), expected);
    }

    #[test]
    fn pair_policies_agree_functionally() {
        fn run<P: AccessPolicy>(gpu: &mut Gpu) -> (u32, u32) {
            let pairs = gpu.alloc_named::<u64>(1, "pairs");
            let out = gpu.alloc::<u32>(2);
            one_thread_kernel(gpu, move |ctx, _| {
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
        fn check<P: AccessPolicy>() -> (u32, u32) {
            agree_under_ir_driven::<P, _>(&["pairs"], run::<P>, run::<IrDriven>)
        }
        assert_eq!(check::<Plain>(), (31, 77));
        assert_eq!(check::<Volatile>(), (31, 77));
        assert_eq!(check::<Atomic>(), (31, 77));
        assert_eq!(check::<VolatileReadPlainWrite>(), (31, 77));
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
