//! A vector-clock happens-before detector (FastTrack-style).
//!
//! The epoch detector in [`crate::detect`] treats every pair of same-launch
//! accesses from different blocks as concurrent. That is exact for the ECL
//! codes, whose atomics are all *relaxed* — relaxed atomics are coherent but
//! establish no ordering. Codes that synchronize with **release/acquire**
//! atomics, however, do order their surrounding plain accesses, and only a
//! happens-before analysis can tell such flag-protected accesses apart from
//! true races.
//!
//! This detector tracks a sparse vector clock per thread, joins clocks
//! across release-write → acquire-read edges on each atomic location, and
//! reports a conflict only when neither access happens-before the other.
//! It is the simulator's analogue of ThreadSanitizer, complementing the
//! Compute-Sanitizer-style epoch detector.

use crate::detect::Findings;
use crate::report::{RaceReport, RaceSite};
use crate::shadow::{Record, Shadow};
use ecl_simt::{AccessKind, AccessMode, Gpu, MemOrder};
use std::collections::HashMap;

/// A sparse vector clock: thread id → last-known epoch of that thread.
#[derive(Debug, Clone, Default)]
struct VectorClock(HashMap<u32, u64>);

impl VectorClock {
    #[inline]
    fn get(&self, thread: u32) -> u64 {
        self.0.get(&thread).copied().unwrap_or(0)
    }

    fn join(&mut self, other: &VectorClock) {
        for (&t, &c) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            if *e < c {
                *e = c;
            }
        }
    }

    fn set(&mut self, thread: u32, clock: u64) {
        self.0.insert(thread, clock);
    }
}

/// One remembered access for conflict checking.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HbRec {
    thread: u32,
    clock: u64,
    launch: u32,
    block: u32,
    phase: u32,
    mode: AccessMode,
    kind: AccessKind,
}

impl Record for HbRec {
    fn writes(&self) -> bool {
        self.kind.writes()
    }
}

impl HbRec {
    fn site(&self) -> RaceSite {
        RaceSite {
            thread: self.thread,
            mode: self.mode,
            kind: self.kind,
        }
    }
}

/// Runs happens-before race detection over the GPU's recorded trace.
///
/// Because the simulator is serial, the trace is a linearization of the
/// execution, and happens-before is computed along it: inter-launch
/// barriers, same-block barrier phases, and release→acquire atomic chains
/// all order accesses; everything else conflicts as usual.
///
/// # Panics
///
/// Panics if tracing was not enabled on the GPU.
pub fn check_races_hb(gpu: &Gpu) -> Vec<RaceReport> {
    let trace = gpu
        .trace()
        .expect("race checking needs a trace: call Gpu::enable_tracing() before launching");

    let mut thread_clock: HashMap<u32, u64> = HashMap::new();
    let mut thread_vc: HashMap<u32, VectorClock> = HashMap::new();
    // Per-atomic-location release clock (word granularity: sync variables
    // are accessed with consistent widths).
    let mut release_vc: HashMap<u32, VectorClock> = HashMap::new();
    // Per-byte access history, per launch (inter-launch is always ordered,
    // so locations reset across launches).
    let mut shadow = Shadow::new(gpu.memory().footprint());
    let mut findings = Findings::new(gpu.memory(), 1);
    let mut launch = None;
    let mut kernel = "";

    for e in trace.events() {
        if launch != Some(e.launch) {
            launch = Some(e.launch);
            kernel = trace.kernel_name(e.launch).unwrap_or("<unknown>");
            shadow.reset();
        }
        let clock = {
            let c = thread_clock.entry(e.thread).or_insert(0);
            *c += 1;
            *c
        };

        // Acquire side: an acquiring atomic read joins the location's
        // release clock into this thread's clock.
        if e.mode == AccessMode::Atomic
            && e.kind.reads()
            && matches!(
                e.order,
                MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
            )
        {
            if let Some(rel) = release_vc.get(&e.addr) {
                thread_vc.entry(e.thread).or_default().join(rel);
            }
        }

        // Conflict check against remembered accesses.
        let vc = thread_vc.entry(e.thread).or_default();
        let rec = HbRec {
            thread: e.thread,
            clock,
            launch: e.launch,
            block: e.block,
            phase: e.phase,
            mode: e.mode,
            kind: e.kind,
        };
        shadow.access(
            e,
            rec,
            |prev| conflicts_hb(prev, e, vc),
            |byte, prev| findings.add(kernel, e.space, byte, prev.site(), rec.site()),
        );

        // Release side: a releasing atomic write publishes this thread's
        // history (its VC plus its own epoch) on the location.
        if e.mode == AccessMode::Atomic
            && e.kind.writes()
            && matches!(
                e.order,
                MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
            )
        {
            let mut published = thread_vc.entry(e.thread).or_default().clone();
            published.set(e.thread, clock);
            release_vc.entry(e.addr).or_default().join(&published);
        }
    }

    findings
        .into_sorted()
        .into_iter()
        .map(|f| f.report)
        .collect()
}

/// `prev` and the current event conflict and are not happens-before ordered.
fn conflicts_hb(prev: &HbRec, e: &ecl_simt::AccessEvent, current_vc: &VectorClock) -> bool {
    if prev.thread == e.thread {
        return false;
    }
    if !(prev.kind.writes() || e.kind.writes()) {
        return false;
    }
    if prev.mode == AccessMode::Atomic && e.mode == AccessMode::Atomic {
        return false;
    }
    debug_assert_eq!(prev.launch, e.launch, "locations are per-launch");
    // Barrier ordering within a block.
    if prev.block == e.block && prev.phase != e.phase {
        return false;
    }
    // Release/acquire ordering: prev happens-before e iff e's thread has
    // observed prev's epoch; otherwise the pair is concurrent.
    current_vc.get(prev.thread) < prev.clock
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check_races;
    use ecl_simt::{
        Ctx, DeviceBuffer, ForEach, GpuConfig, Kernel, LaunchConfig, Scope, Step, StoreVisibility,
        ThreadInfo,
    };

    /// Producer writes data plainly, then release-stores a flag; consumer
    /// acquire-polls the flag, then reads the data plainly. Properly
    /// synchronized — but only the HB detector can tell.
    struct FlagSync {
        data: DeviceBuffer<u32>,
        flag: DeviceBuffer<u32>,
        order: MemOrder,
    }

    impl Kernel for FlagSync {
        type State = u32;

        fn name(&self) -> &str {
            "flag_sync"
        }

        fn init(&self, info: ThreadInfo) -> u32 {
            info.global_id
        }

        fn step(&self, tid: &mut u32, ctx: &mut Ctx<'_>) -> Step {
            if *tid == 0 {
                ctx.store(self.data.at(0), 42);
                let store_order = match self.order {
                    MemOrder::Relaxed => MemOrder::Relaxed,
                    _ => MemOrder::Release,
                };
                ctx.atomic_store_explicit(self.flag.at(0), 1u32, store_order, Scope::Device);
                Step::Done
            } else {
                let load_order = match self.order {
                    MemOrder::Relaxed => MemOrder::Relaxed,
                    _ => MemOrder::Acquire,
                };
                if ctx.atomic_load_explicit(self.flag.at(0), load_order, Scope::Device) == 0 {
                    return Step::Yield; // keep polling
                }
                let v = ctx.load(self.data.at(0));
                assert_eq!(v, 42);
                Step::Done
            }
        }
    }

    fn run_flag_sync(order: MemOrder) -> Gpu {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let data = gpu.alloc::<u32>(1);
        let flag = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig {
                grid_blocks: 2,
                block_threads: 1,
                store_visibility: StoreVisibility::Immediate,
                shared_bytes: 0,
                exact_geometry: true,
            },
            FlagSync { data, flag, order },
        );
        gpu
    }

    #[test]
    fn release_acquire_protects_plain_data() {
        let gpu = run_flag_sync(MemOrder::Release);
        // The epoch detector cannot see the synchronization: false positive.
        assert!(!check_races(&gpu).is_empty(), "epoch detector over-reports");
        // The HB detector sees the release→acquire edge: clean.
        let hb = check_races_hb(&gpu);
        assert!(
            hb.is_empty(),
            "HB detector must accept flag-protected data: {hb:?}"
        );
    }

    #[test]
    fn relaxed_flag_does_not_synchronize() {
        // With relaxed ordering on the flag, the plain data accesses remain
        // a race under BOTH detectors — the CUDA-memory-model point that
        // relaxed atomics are coherent but do not order anything.
        let gpu = run_flag_sync(MemOrder::Relaxed);
        assert!(!check_races(&gpu).is_empty());
        assert!(!check_races_hb(&gpu).is_empty());
    }

    #[test]
    fn plain_race_detected_same_as_epoch_detector() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(32),
            ForEach::new("racy", 32, move |ctx, _| {
                let v = ctx.load(cell.at(0));
                ctx.store(cell.at(0), v + 1);
            }),
        );
        assert!(!check_races_hb(&gpu).is_empty());
    }

    #[test]
    fn launch_boundary_still_orders() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(64);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("w", 64, move |ctx, i| ctx.store(cell.at(i as usize), i)),
        );
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("r", 64, move |ctx, i| {
                let _ = ctx.load(cell.at(((i + 1) % 64) as usize));
            }),
        );
        assert!(check_races_hb(&gpu).is_empty());
    }

    #[test]
    fn all_atomic_accesses_never_race() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("atomics", 64, move |ctx, _| {
                ctx.atomic_add_u32(cell.at(0), 1);
            }),
        );
        assert!(check_races_hb(&gpu).is_empty());
    }
}
