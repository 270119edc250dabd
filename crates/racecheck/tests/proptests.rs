//! Property-based tests for the race checker: soundness invariants that
//! must hold for arbitrary generated device programs, and equality with
//! naive per-byte reference detectors on mixed-width, multi-launch
//! programs.

use ecl_racecheck::{
    check_races, check_races_bounded, check_races_with_mode, ConflictPair, DetectorMode,
    RaceChecker, RaceReport,
};
use ecl_simt::mem::Memory;
use ecl_simt::{
    AccessEvent, AccessSink, Ctx, DevicePtr, DeviceValue, ForEach, Gpu, GpuConfig, Kernel,
    LaunchConfig, MemOrder, Scope, Step, StoreVisibility, ThreadInfo,
};
use proptest::prelude::*;

/// Records every access and the kernel name of every launch, for the
/// reference detectors to replay.
#[derive(Default)]
struct Recorder {
    names: Vec<String>,
    events: Vec<AccessEvent>,
}

impl Recorder {
    fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    fn kernel_name(&self, launch: u32) -> Option<&str> {
        self.names.get(launch as usize).map(String::as_str)
    }
}

impl AccessSink for Recorder {
    fn launch(&mut self, id: u32, kernel: &str) {
        assert_eq!(id as usize, self.names.len());
        self.names.push(kernel.to_string());
    }

    fn access(&mut self, event: &AccessEvent, _memory: &Memory) {
        self.events.push(*event);
    }
}

fn hb_races(gpu: &Gpu) -> Vec<RaceReport> {
    check_races_with_mode(gpu, DetectorMode::HappensBefore)
}

/// One synthetic access in a generated program.
#[derive(Debug, Clone, Copy)]
struct Op {
    slot: u8,
    write: bool,
    atomic: bool,
}

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0u8..16, any::<bool>(), any::<bool>()).prop_map(|(slot, write, atomic)| Op {
            slot,
            write,
            atomic,
        }),
        1..24,
    )
}

/// Runs a grid of threads that all execute the same op list over a shared
/// 16-word buffer.
fn run_program(ops: Vec<Op>, threads: u32, seed: u64) -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.set_seed(seed);
    gpu.observe(RaceChecker::new(&DetectorMode::ALL, 1));
    let buf = gpu.alloc::<u32>(16);
    gpu.launch(
        LaunchConfig::for_items(threads).with_visibility(StoreVisibility::DeferUntilYield),
        ForEach::new("generated", threads, move |ctx, tid| {
            for op in &ops {
                let p = buf.at(op.slot as usize);
                match (op.write, op.atomic) {
                    (false, false) => {
                        let _ = ctx.load(p);
                    }
                    (false, true) => {
                        let _ = ctx.atomic_load(p);
                    }
                    (true, false) => ctx.store(p, tid),
                    (true, true) => ctx.atomic_store(p, tid),
                }
            }
        }),
    );
    gpu
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// All-atomic programs never race, under any detector.
    #[test]
    fn all_atomic_programs_are_clean(mut program in ops(), seed in any::<u64>()) {
        for op in &mut program {
            op.atomic = true;
        }
        let gpu = run_program(program, 16, seed);
        prop_assert!(check_races(&gpu).is_empty());
        prop_assert!(hb_races(&gpu).is_empty());
    }

    /// Read-only programs never race, even with plain loads.
    #[test]
    fn read_only_programs_are_clean(mut program in ops(), seed in any::<u64>()) {
        for op in &mut program {
            op.write = false;
        }
        let gpu = run_program(program, 16, seed);
        prop_assert!(check_races(&gpu).is_empty());
        prop_assert!(hb_races(&gpu).is_empty());
    }

    /// A program with any non-atomic write to a slot that another thread
    /// also touches must race (all threads run the same op list).
    #[test]
    fn shared_plain_writes_always_race(program in ops(), seed in any::<u64>()) {
        let has_plain_write = program.iter().any(|op| op.write && !op.atomic);
        let gpu = run_program(program.clone(), 16, seed);
        let reports = check_races(&gpu);
        if has_plain_write {
            prop_assert!(
                !reports.is_empty(),
                "plain write shared by 16 threads must race: {program:?}"
            );
        }
        // The HB detector must agree: no release/acquire edges exist here
        // (all atomics are relaxed).
        prop_assert_eq!(reports.is_empty(), hb_races(&gpu).is_empty());
    }

    /// Detection is deterministic in the run: same program + seed gives
    /// the same findings; and single-threaded programs never race.
    #[test]
    fn detection_is_stable_and_single_thread_is_clean(program in ops(), seed in any::<u64>()) {
        let a = check_races(&run_program(program.clone(), 16, seed)).len();
        let b = check_races(&run_program(program.clone(), 16, seed)).len();
        prop_assert_eq!(a, b);
        let solo = run_program(program, 1, seed);
        prop_assert!(check_races(&solo).is_empty());
    }

    /// The Compute-Sanitizer-like mode never reports more than Precise for
    /// these (global-memory-only) programs — its blind spot only removes
    /// findings.
    #[test]
    fn shared_only_mode_is_a_subset(program in ops(), seed in any::<u64>()) {
        let gpu = run_program(program, 8, seed);
        let precise = check_races(&gpu).len();
        let shared_only = check_races_with_mode(&gpu, DetectorMode::SharedOnly).len();
        prop_assert!(shared_only <= precise);
        prop_assert_eq!(shared_only, 0);
    }
}

/// The detectors as plain per-byte loops: one `HashMap` entry of up to 64
/// records per (space, byte, block, launch), scanned in insertion order.
/// The shadow-memory engine must reproduce their findings exactly.
mod reference {
    use super::Recorder;
    use ecl_racecheck::{ConflictPair, DetectorMode, RaceClass, RaceReport, RaceSite};
    use ecl_simt::{AccessEvent, AccessKind, AccessMode, Gpu, MemOrder, Scope, Space};
    use std::collections::HashMap;

    fn recorded(gpu: &Gpu) -> &Recorder {
        gpu.sink::<Recorder>().expect("recorded")
    }

    const RECS_PER_BYTE: usize = 64;

    /// A finding with its retained pairs and dropped count.
    pub type Finding = (RaceReport, Vec<ConflictPair>, u64);

    type LocKey = (Space, u32, u32, u32);

    #[derive(Clone, Copy, PartialEq)]
    struct Rec {
        launch: u32,
        thread: u32,
        block: u32,
        phase: u32,
        mode: AccessMode,
        kind: AccessKind,
        scope: Scope,
        /// Per-thread event count (happens-before only).
        clock: u64,
    }

    impl Rec {
        fn new(e: &AccessEvent, clock: u64) -> Rec {
            Rec {
                launch: e.launch,
                thread: e.thread,
                block: e.block,
                phase: e.phase,
                mode: e.mode,
                kind: e.kind,
                scope: e.scope,
                clock,
            }
        }

        fn site(&self) -> RaceSite {
            RaceSite {
                thread: self.thread,
                mode: self.mode,
                kind: self.kind,
            }
        }
    }

    #[derive(Default)]
    struct Findings(HashMap<(String, Space, u32, RaceClass), Finding>);

    impl Findings {
        fn add(&mut self, gpu: &Gpu, e: &AccessEvent, byte: u32, prev: &Rec, max_pairs: usize) {
            let cur = Rec::new(e, 0);
            let class = RaceReport::classify((prev.mode, prev.kind), (cur.mode, cur.kind));
            let kernel = recorded(gpu)
                .kernel_name(e.launch)
                .unwrap_or("<unknown>")
                .to_string();
            let (allocation, allocation_name) = match e.space {
                Space::Global => (
                    gpu.memory()
                        .allocation_of(byte)
                        .map(|(base, _)| base)
                        .unwrap_or(byte),
                    gpu.memory().allocation_name(byte).map(str::to_string),
                ),
                Space::Shared => (byte, None),
            };
            let pair = ConflictPair {
                addr: byte,
                first: prev.site(),
                second: cur.site(),
            };
            self.0
                .entry((kernel.clone(), e.space, allocation, class))
                .and_modify(|(report, pairs, dropped)| {
                    report.occurrences += 1;
                    if pairs.contains(&pair) {
                        // Already retained: nothing new to keep or drop.
                    } else if pairs.len() < max_pairs {
                        pairs.push(pair.clone());
                    } else {
                        *dropped += 1;
                    }
                })
                .or_insert_with(|| {
                    let report = RaceReport {
                        kernel,
                        space: e.space,
                        allocation,
                        allocation_name,
                        example_addr: byte,
                        class,
                        first: pair.first,
                        second: pair.second,
                        occurrences: 1,
                    };
                    (report, vec![pair], 0)
                });
        }

        fn sorted(self) -> Vec<Finding> {
            let mut out: Vec<Finding> = self.0.into_values().collect();
            out.sort_by(|(a, ..), (b, ..)| {
                (&a.kernel, a.allocation, a.example_addr, a.space, a.class).cmp(&(
                    &b.kernel,
                    b.allocation,
                    b.example_addr,
                    b.space,
                    b.class,
                ))
            });
            out
        }
    }

    /// The epoch modes of the checker.
    pub fn epoch(gpu: &Gpu, mode: DetectorMode, max_pairs: usize) -> Vec<Finding> {
        let conflicts = |a: &Rec, b: &Rec| {
            if a.thread == b.thread || !(a.kind.writes() || b.kind.writes()) {
                return false;
            }
            if a.mode == AccessMode::Atomic && b.mode == AccessMode::Atomic {
                let block_scoped = a.scope == Scope::Block || b.scope == Scope::Block;
                if !(block_scoped && a.block != b.block) {
                    return false;
                }
            }
            a.launch != b.launch || a.block != b.block || a.phase == b.phase
        };
        let mut locations: HashMap<LocKey, Vec<Rec>> = HashMap::new();
        let mut findings = Findings::default();
        for e in recorded(gpu).events() {
            if mode == DetectorMode::SharedOnly && e.space == Space::Global {
                continue;
            }
            let launch_key = match mode {
                DetectorMode::NoLaunchBarrier => 0,
                _ => e.launch,
            };
            let block_key = if e.space == Space::Shared { e.block } else { 0 };
            let rec = Rec::new(e, 0);
            for byte in e.addr..e.addr + e.width {
                let recs = locations
                    .entry((e.space, byte, block_key, launch_key))
                    .or_default();
                if let Some(prev) = recs.iter().find(|prev| conflicts(prev, &rec)) {
                    findings.add(gpu, e, byte, prev, max_pairs.max(1));
                }
                if recs.len() < RECS_PER_BYTE && !recs.contains(&rec) {
                    recs.push(rec);
                }
            }
        }
        findings.sorted()
    }

    /// The happens-before mode of the checker.
    pub fn hb(gpu: &Gpu) -> Vec<RaceReport> {
        type Clock = HashMap<u32, u64>;
        fn join(into: &mut Clock, from: &Clock) {
            for (&t, &c) in from {
                let e = into.entry(t).or_insert(0);
                *e = (*e).max(c);
            }
        }
        let mut thread_clock: HashMap<u32, u64> = HashMap::new();
        let mut thread_vc: HashMap<u32, Clock> = HashMap::new();
        let mut release_vc: HashMap<u32, Clock> = HashMap::new();
        let mut locations: HashMap<LocKey, Vec<Rec>> = HashMap::new();
        let mut findings = Findings::default();
        for e in recorded(gpu).events() {
            let clock = {
                let c = thread_clock.entry(e.thread).or_insert(0);
                *c += 1;
                *c
            };
            let acquires = matches!(
                e.order,
                MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
            );
            if e.mode == AccessMode::Atomic && e.kind.reads() && acquires {
                if let Some(rel) = release_vc.get(&e.addr).cloned() {
                    join(thread_vc.entry(e.thread).or_default(), &rel);
                }
            }
            let vc = thread_vc.entry(e.thread).or_default().clone();
            let conflicts = |prev: &Rec| {
                prev.thread != e.thread
                    && (prev.kind.writes() || e.kind.writes())
                    && !(prev.mode == AccessMode::Atomic && e.mode == AccessMode::Atomic)
                    && !(prev.block == e.block && prev.phase != e.phase)
                    && vc.get(&prev.thread).copied().unwrap_or(0) < prev.clock
            };
            let block_key = if e.space == Space::Shared { e.block } else { 0 };
            for byte in e.addr..e.addr + e.width {
                let recs = locations
                    .entry((e.space, byte, block_key, e.launch))
                    .or_default();
                if let Some(prev) = recs.iter().find(|prev| conflicts(prev)) {
                    findings.add(gpu, e, byte, prev, 1);
                }
                if recs.len() < RECS_PER_BYTE {
                    recs.push(Rec::new(e, clock));
                }
            }
            let releases = matches!(
                e.order,
                MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
            );
            if e.mode == AccessMode::Atomic && e.kind.writes() && releases {
                let mut published = thread_vc.entry(e.thread).or_default().clone();
                published.insert(e.thread, clock);
                join(release_vc.entry(e.addr).or_default(), &published);
            }
        }
        findings.sorted().into_iter().map(|(r, ..)| r).collect()
    }
}

/// How a generated access reaches memory.
#[derive(Debug, Clone, Copy)]
enum Flavor {
    Plain,
    Volatile,
    /// A relaxed atomic at device scope.
    Atomic,
    /// A relaxed atomic at block scope: it races with other blocks.
    BlockAtomic,
    /// A release store, acquire load, or acq-rel read-modify-write.
    SyncAtomic,
    Shared,
    /// `__syncthreads()`: ends the block's barrier phase.
    Barrier,
}

/// One step of a generated kernel, run by every thread.
#[derive(Debug, Clone, Copy)]
struct GenOp {
    /// Element width in bytes: 1, 4 or 8.
    width: u32,
    /// Element slot in the 32-byte region.
    slot: u32,
    /// Each thread shifts the slot by its id (else all threads share it).
    strided: bool,
    /// Extra byte offset that makes a 4-byte access unaligned (0 = aligned).
    misalign: u32,
    /// 0 = load, 1 = store, 2 = read-modify-write.
    kind: u8,
    flavor: Flavor,
}

impl GenOp {
    /// Byte offset of the access in the region.
    fn offset(&self, tid: u32) -> u32 {
        let stride = if self.strided { tid } else { 0 };
        (self.slot + stride) % (32 / self.width) * self.width + self.misalign
    }
}

fn gen_op() -> impl Strategy<Value = GenOp> {
    (0u8..3, 0u32..32, any::<bool>(), 0u32..8, 0u8..3, 0u8..8).prop_map(
        |(width, slot, strided, misalign, kind, flavor)| {
            let width = [1, 4, 8][width as usize];
            GenOp {
                width,
                slot,
                strided,
                // A quarter of 4-byte accesses straddle two words.
                misalign: if width == 4 && misalign < 2 {
                    1 + slot % 3
                } else {
                    0
                },
                kind,
                flavor: match flavor {
                    0 => Flavor::Plain,
                    1 => Flavor::Volatile,
                    2 => Flavor::Atomic,
                    3 => Flavor::BlockAtomic,
                    4 => Flavor::SyncAtomic,
                    5 | 6 => Flavor::Shared,
                    _ => Flavor::Barrier,
                },
            }
        },
    )
}

/// One generated kernel launch.
#[derive(Debug, Clone)]
struct GenLaunch {
    /// Launches share two kernel names, so findings of different launches
    /// can fold into one report.
    name: &'static str,
    blocks: u32,
    threads: u32,
    visibility: StoreVisibility,
    ops: Vec<GenOp>,
}

fn programs() -> impl Strategy<Value = Vec<GenLaunch>> {
    prop::collection::vec(
        (
            any::<bool>(),
            1u32..4,
            1u32..40,
            any::<bool>(),
            prop::collection::vec(gen_op(), 1..14),
        )
            .prop_map(|(name, blocks, threads, defer, ops)| GenLaunch {
                name: if name { "gen_a" } else { "gen_b" },
                blocks,
                threads,
                visibility: if defer {
                    StoreVisibility::DeferUntilYield
                } else {
                    StoreVisibility::Immediate
                },
                ops,
            }),
        2..4,
    )
}

struct Generated {
    name: &'static str,
    region: DevicePtr<u8>,
    ops: Vec<GenOp>,
}

fn access<T: DeviceValue>(ctx: &mut Ctx<'_>, region: DevicePtr<u8>, tid: u32, op: &GenOp) {
    let offset = op.offset(tid);
    let p: DevicePtr<T> = region.offset(offset as usize).cast();
    let v = T::from_bits(tid as u64);
    let (order, scope) = match op.flavor {
        Flavor::BlockAtomic => (MemOrder::Relaxed, Scope::Block),
        Flavor::SyncAtomic => (
            [MemOrder::Acquire, MemOrder::Release, MemOrder::AcqRel][op.kind as usize],
            Scope::Device,
        ),
        _ => (MemOrder::Relaxed, Scope::Device),
    };
    match (op.flavor, op.kind) {
        (Flavor::Plain, 0) => drop(ctx.load(p)),
        (Flavor::Plain, 1) => ctx.store(p, v),
        (Flavor::Plain, _) => {
            let old = ctx.load(p);
            ctx.store(p, old);
        }
        (Flavor::Volatile, 0) => drop(ctx.load_volatile(p)),
        (Flavor::Volatile, 1) => ctx.store_volatile(p, v),
        (Flavor::Volatile, _) => {
            let old = ctx.load_volatile(p);
            ctx.store_volatile(p, old);
        }
        (Flavor::Shared, 0) => drop(ctx.shared_read::<T>(offset)),
        (Flavor::Shared, 1) => ctx.shared_write(offset, v),
        (Flavor::Shared, _) => {
            let old: T = ctx.shared_read(offset);
            ctx.shared_write(offset, old);
        }
        (_, 0) => drop(ctx.atomic_load_explicit(p, order, scope)),
        (_, 1) => ctx.atomic_store_explicit(p, v, order, scope),
        (_, _) => drop(ctx.atomic_rmw_explicit(p, order, scope, |old| old)),
    }
}

impl Kernel for Generated {
    /// (global thread id, next op).
    type State = (u32, usize);

    fn name(&self) -> &str {
        self.name
    }

    fn init(&self, info: ThreadInfo) -> (u32, usize) {
        (info.global_id, 0)
    }

    fn step(&self, state: &mut (u32, usize), ctx: &mut Ctx<'_>) -> Step {
        let Some(op) = self.ops.get(state.1) else {
            return Step::Done;
        };
        state.1 += 1;
        match op.width {
            _ if matches!(op.flavor, Flavor::Barrier) => return Step::Barrier,
            1 => access::<u8>(ctx, self.region, state.0, op),
            4 => access::<u32>(ctx, self.region, state.0, op),
            _ => access::<u64>(ctx, self.region, state.0, op),
        }
        Step::Yield
    }
}

/// Runs the launches over one named 30-byte buffer, recording every access
/// and checking it in every mode at pair cap `max_pairs`. The buffer's last
/// word reaches into the allocation's padding, so word-wide accesses there
/// touch bytes that belong to no allocation.
fn run_launches(launches: &[GenLaunch], seed: u64, max_pairs: usize) -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.set_seed(seed);
    gpu.observe(Recorder::default());
    gpu.observe(RaceChecker::new(&DetectorMode::ALL, max_pairs));
    let _before = gpu.alloc::<u32>(4);
    let region = gpu.alloc_named::<u8>(30, "region");
    for l in launches {
        gpu.launch(
            LaunchConfig {
                grid_blocks: l.blocks,
                block_threads: l.threads,
                store_visibility: l.visibility,
                shared_bytes: 40,
                exact_geometry: true,
            },
            Generated {
                name: l.name,
                region: region.as_ptr(),
                ops: l.ops.clone(),
            },
        );
    }
    gpu
}

type Finding = (RaceReport, Vec<ConflictPair>, u64);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every mode of the checker equals the per-byte reference, in total
    /// order, and the epoch modes at pair caps 1 and 3.
    #[test]
    fn detectors_match_the_per_byte_reference(launches in programs(), seed in any::<u64>()) {
        for cap in [1, 3] {
            let gpu = run_launches(&launches, seed, cap);
            for mode in [
                DetectorMode::Precise,
                DetectorMode::SharedOnly,
                DetectorMode::NoLaunchBarrier,
            ] {
                let got: Vec<Finding> = check_races_bounded(&gpu, mode)
                    .findings
                    .into_iter()
                    .map(|f| (f.report, f.pairs, f.dropped))
                    .collect();
                prop_assert_eq!(got, reference::epoch(&gpu, mode, cap), "{:?} cap {}", mode, cap);
            }
            prop_assert_eq!(hb_races(&gpu), reference::hb(&gpu));
        }
    }
}
