//! The race checker: an [`AccessSink`] that checks each access as the
//! kernel runs, in every detector mode it is armed with.
//!
//! Each mode keeps its own shadow memory and findings over the one stream
//! of accesses. The mode alone decides four things:
//!
//! - whether a launch boundary orders everything before it, so the state of
//!   a finished launch is forgotten at the next [`AccessSink::launch`];
//! - whether global memory is checked;
//! - whether release→acquire atomics order the accesses around them. The
//!   happens-before mode keeps a sparse vector clock per thread and a
//!   release clock per atomic word (FastTrack-style); both carry across
//!   launches;
//! - whether two atomics can conflict. The epoch modes keep the scope rule:
//!   block-scoped atomics from different blocks race. The happens-before
//!   mode treats every atomic pair as synchronized, whatever its scope.

use crate::report::{RaceClass, RaceReport, RaceSite};
use crate::shadow::{Record, Shadow};
use ecl_simt::mem::Memory;
use ecl_simt::{AccessEvent, AccessKind, AccessMode, AccessSink, Gpu, MemOrder, Scope, Space};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Which tool a detector mode imitates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DetectorMode {
    /// Full-precision detection: global and shared memory, aware of the
    /// implicit barrier between kernel launches and of block barriers.
    Precise,
    /// Compute-Sanitizer-like: only *shared-memory* races are examined
    /// (the paper notes "Compute Sanitizer does not check for races in
    /// global memory"), so the ECL codes' global-array races go unreported.
    SharedOnly,
    /// iGuard-like: ignores the implicit barrier between kernel launches
    /// (the paper: "iGuard seems to ignore the implicit barrier between
    /// kernel launches, causing false positive reports").
    NoLaunchBarrier,
    /// ThreadSanitizer-like: release→acquire atomics order the plain
    /// accesses around them, so flag-protected data does not race. The ECL
    /// codes' atomics are all relaxed, so there it agrees with `Precise`.
    HappensBefore,
}

impl DetectorMode {
    /// Every mode, in the order the tools list them.
    pub const ALL: [DetectorMode; 4] = [
        DetectorMode::Precise,
        DetectorMode::SharedOnly,
        DetectorMode::NoLaunchBarrier,
        DetectorMode::HappensBefore,
    ];

    fn resets_per_launch(self) -> bool {
        self != DetectorMode::NoLaunchBarrier
    }

    fn checks_global(self) -> bool {
        self != DetectorMode::SharedOnly
    }

    /// Whether release→acquire atomics order accesses; the same mode also
    /// treats every pair of atomics as synchronized, whatever its scope.
    fn orders_by_release_acquire(self) -> bool {
        self == DetectorMode::HappensBefore
    }
}

/// One remembered access to a byte location. The epoch modes remember
/// these; they carry no clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Rec {
    launch: u32,
    thread: u32,
    block: u32,
    phase: u32,
    mode: AccessMode,
    kind: AccessKind,
    scope: Scope,
}

impl Record for Rec {
    fn writes(&self) -> bool {
        self.kind.writes()
    }
}

impl Rec {
    fn new(e: &AccessEvent) -> Rec {
        Rec {
            launch: e.launch,
            thread: e.thread,
            block: e.block,
            phase: e.phase,
            mode: e.mode,
            kind: e.kind,
            scope: e.scope,
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

/// What the happens-before mode remembers: the access and its thread's
/// epoch at it. The epoch rises with every event of the thread, so no two
/// of these are equal and `remember` never drops one as a duplicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ClockedRec {
    rec: Rec,
    clock: u64,
}

impl Record for ClockedRec {
    fn writes(&self) -> bool {
        self.rec.writes()
    }
}

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
}

/// The happens-before mode's clocks.
#[derive(Debug, Default)]
struct Clocks {
    /// Thread → its events so far.
    events: HashMap<u32, u64>,
    /// Thread → the epochs of other threads it has acquired.
    threads: HashMap<u32, VectorClock>,
    /// Atomic word → the join of the histories released on it.
    released: HashMap<u32, VectorClock>,
}

impl Clocks {
    /// Counts `e` as its thread's next event, returning that epoch; an
    /// acquiring atomic read first joins its word's release clock into the
    /// thread's clock.
    fn acquire(&mut self, e: &AccessEvent) -> u64 {
        let clock = self.events.entry(e.thread).or_insert(0);
        *clock += 1;
        if e.mode == AccessMode::Atomic
            && e.kind.reads()
            && matches!(
                e.order,
                MemOrder::Acquire | MemOrder::AcqRel | MemOrder::SeqCst
            )
        {
            if let Some(released) = self.released.get(&e.addr) {
                self.threads.entry(e.thread).or_default().join(released);
            }
        }
        *clock
    }

    /// A releasing atomic write publishes its thread's history (its clock
    /// plus its own epoch `clock`) on its word.
    fn release(&mut self, e: &AccessEvent, clock: u64) {
        if e.mode == AccessMode::Atomic
            && e.kind.writes()
            && matches!(
                e.order,
                MemOrder::Release | MemOrder::AcqRel | MemOrder::SeqCst
            )
        {
            let mut published = self.threads.entry(e.thread).or_default().clone();
            published.0.insert(e.thread, clock);
            self.released.entry(e.addr).or_default().join(&published);
        }
    }
}

/// `prev` and `cur` conflict, and neither a launch boundary nor a block
/// barrier orders them: the epoch modes' rule.
fn conflicts(prev: &Rec, cur: &Rec) -> bool {
    if prev.thread == cur.thread || !(prev.kind.writes() || cur.kind.writes()) {
        return false;
    }
    if prev.mode == AccessMode::Atomic && cur.mode == AccessMode::Atomic {
        // Two atomics only synchronize when their scopes cover each other:
        // block-scoped atomics from *different* blocks still race (the
        // paper's §II-A scope discussion).
        let block_scoped = prev.scope == Scope::Block || cur.scope == Scope::Block;
        if !(block_scoped && prev.block != cur.block) {
            return false;
        }
    }
    if prev.launch != cur.launch {
        // Only reachable in NoLaunchBarrier mode (the other modes forget
        // every finished launch); the inter-launch barrier is deliberately
        // ignored there.
        return true;
    }
    // Same launch: different blocks never synchronize; same block is ordered
    // only across barrier phases.
    prev.block != cur.block || prev.phase == cur.phase
}

/// One retained conflicting access pair (bounded mode keeps up to a caller
/// cap of these per finding instead of a single example).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConflictPair {
    /// The byte address the two accesses collided on.
    pub addr: u32,
    /// One side of the pair.
    pub first: RaceSite,
    /// The other side.
    pub second: RaceSite,
}

/// One deduplicated finding with its retained pair evidence.
#[derive(Debug, Clone)]
pub struct BoundedFinding {
    /// The deduplicated report (identical at any pair cap).
    pub report: RaceReport,
    /// Up to the checker's pair cap of distinct conflicting pairs, in
    /// discovery order.
    pub pairs: Vec<ConflictPair>,
    /// Conflicting pairs observed beyond the cap and not retained. Non-zero
    /// means `pairs` is a prefix, not the full evidence set.
    pub dropped: u64,
}

impl BoundedFinding {
    /// `true` when the pair cap cut evidence off.
    pub fn truncated(&self) -> bool {
        self.dropped > 0
    }
}

/// Result of [`check_races_bounded`]: deduplicated findings with per-buffer
/// pair evidence retained up to a fixed cap — detection whose memory use is
/// `O(findings × max_pairs)` regardless of how racy the run is.
#[derive(Debug, Clone, Default)]
pub struct BoundedDetection {
    /// All findings, sorted like [`check_races`]'s output.
    pub findings: Vec<BoundedFinding>,
}

impl BoundedDetection {
    /// The findings whose evidence was cut off by the cap — the typed
    /// truncation marker tools export.
    pub fn truncated(&self) -> Vec<&BoundedFinding> {
        self.findings.iter().filter(|f| f.truncated()).collect()
    }

    /// The plain reports, for callers that do not need pair evidence.
    pub fn reports(&self) -> Vec<RaceReport> {
        self.findings.iter().map(|f| f.report.clone()).collect()
    }
}

/// Deduplicated findings, keyed by (kernel, space, allocation, class),
/// each retaining up to `max_pairs` distinct conflicting pairs.
#[derive(Debug)]
struct Findings {
    max_pairs: usize,
    /// Keyed by the kernel's index in the checker's name table.
    by_key: HashMap<(usize, Space, u32, RaceClass), BoundedFinding>,
}

impl Findings {
    /// Folds one conflicting pair on `byte` into its finding: `first` is
    /// the remembered access, `second` the new one.
    #[allow(clippy::too_many_arguments)]
    fn add(
        &mut self,
        memory: &Memory,
        kernel: usize,
        kernel_name: &str,
        space: Space,
        byte: u32,
        first: RaceSite,
        second: RaceSite,
    ) {
        let class = RaceReport::classify((first.mode, first.kind), (second.mode, second.kind));
        // Resolved per byte: a word-wide access can reach past the end of
        // its allocation into padding that belongs to none.
        let allocation = match space {
            Space::Global => memory.allocation_of(byte).map_or(byte, |(base, _)| base),
            Space::Shared => byte,
        };
        let pair = ConflictPair {
            addr: byte,
            first,
            second,
        };
        match self.by_key.entry((kernel, space, allocation, class)) {
            Entry::Occupied(entry) => {
                let f = entry.into_mut();
                f.report.occurrences += 1;
                if f.pairs.contains(&pair) {
                    // Already retained: nothing new to keep or drop.
                } else if f.pairs.len() < self.max_pairs {
                    f.pairs.push(pair);
                } else {
                    f.dropped += 1;
                }
            }
            Entry::Vacant(entry) => {
                let allocation_name = match space {
                    Space::Global => memory.allocation_name(byte).map(str::to_string),
                    Space::Shared => None,
                };
                entry.insert(BoundedFinding {
                    report: RaceReport {
                        kernel: kernel_name.to_string(),
                        space,
                        allocation,
                        allocation_name,
                        example_addr: byte,
                        class,
                        first,
                        second,
                        occurrences: 1,
                    },
                    pairs: vec![pair],
                    dropped: 0,
                });
            }
        }
    }

    /// The findings by kernel, allocation and example address, then space
    /// and class. The last two make the order total, since (kernel, space,
    /// allocation, class) identifies a finding.
    fn sorted(&self) -> Vec<BoundedFinding> {
        let mut findings: Vec<BoundedFinding> = self.by_key.values().cloned().collect();
        let key = |r: &RaceReport| (r.allocation, r.example_addr, r.space, r.class);
        findings.sort_by(|a, b| {
            let (a, b) = (&a.report, &b.report);
            a.kernel.cmp(&b.kernel).then_with(|| key(a).cmp(&key(b)))
        });
        findings
    }
}

/// One mode's shadow memory, with the clocks of the happens-before mode.
#[derive(Debug)]
enum State {
    Epoch(Shadow<Rec>),
    HappensBefore(Shadow<ClockedRec>, Clocks),
}

/// One mode's state over the run.
#[derive(Debug)]
struct Detector {
    mode: DetectorMode,
    state: State,
    findings: Findings,
}

impl Detector {
    fn reset(&mut self) {
        match &mut self.state {
            State::Epoch(shadow) => shadow.reset(),
            State::HappensBefore(shadow, _) => shadow.reset(),
        }
    }

    fn check(&mut self, e: &AccessEvent, memory: &Memory, kernel: usize, kernel_name: &str) {
        if e.space == Space::Global && !self.mode.checks_global() {
            return;
        }
        let rec = Rec::new(e);
        let findings = &mut self.findings;
        let mut report = |byte, prev: &Rec| {
            findings.add(
                memory,
                kernel,
                kernel_name,
                e.space,
                byte,
                prev.site(),
                rec.site(),
            )
        };
        match &mut self.state {
            State::Epoch(shadow) => {
                shadow.access(e, rec, |prev| conflicts(prev, &rec), &mut report)
            }
            State::HappensBefore(shadow, clocks) => {
                let clock = clocks.acquire(e);
                let acquired = clocks.threads.entry(e.thread).or_default();
                let atomic = |r: &Rec| r.mode == AccessMode::Atomic;
                // Two atomics never conflict here, whatever their scope,
                // and `prev` happens before `rec` iff `rec`'s thread has
                // acquired `prev`'s epoch.
                shadow.access(
                    e,
                    ClockedRec { rec, clock },
                    |prev| {
                        !(atomic(&prev.rec) && atomic(&rec))
                            && conflicts(&prev.rec, &rec)
                            && acquired.get(prev.rec.thread) < prev.clock
                    },
                    |byte, prev| report(byte, &prev.rec),
                );
                clocks.release(e, clock);
            }
        }
    }
}

/// The race checker. Arm it on a [`Gpu`] with [`Gpu::observe`] before
/// launching; [`check_races`], [`check_races_with_mode`] and
/// [`check_races_bounded`] read its findings.
///
/// # Example
///
/// ```
/// use ecl_racecheck::{check_races_with_mode, DetectorMode, RaceChecker};
/// use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::test_tiny());
/// gpu.observe(RaceChecker::new(&DetectorMode::ALL, 1));
/// let cell = gpu.alloc::<u32>(1);
/// gpu.launch(
///     LaunchConfig::for_items(8),
///     ForEach::new("racy", 8, move |ctx, i| ctx.store(cell.at(0), i)),
/// );
/// assert!(!check_races_with_mode(&gpu, DetectorMode::Precise).is_empty());
/// assert!(check_races_with_mode(&gpu, DetectorMode::SharedOnly).is_empty());
/// ```
#[derive(Debug)]
pub struct RaceChecker {
    detectors: Vec<Detector>,
    /// Kernel names in first-launch order; `kernel` indexes the current
    /// launch's.
    kernels: Vec<String>,
    kernel: usize,
    /// Accesses observed in global and in shared memory.
    observed: [u64; 2],
}

impl RaceChecker {
    /// A checker running each of `modes` over the run, keeping up to
    /// `max_pairs` distinct conflicting pairs per finding as evidence. A
    /// `max_pairs` of 0 is treated as 1 (a finding with no example pair is
    /// useless).
    pub fn new(modes: &[DetectorMode], max_pairs: usize) -> Self {
        let mut detectors: Vec<Detector> = Vec::new();
        for &mode in modes {
            if detectors.iter().all(|d| d.mode != mode) {
                let state = if mode.orders_by_release_acquire() {
                    State::HappensBefore(Shadow::new(), Clocks::default())
                } else {
                    State::Epoch(Shadow::new())
                };
                detectors.push(Detector {
                    mode,
                    state,
                    findings: Findings {
                        max_pairs: max_pairs.max(1),
                        by_key: HashMap::new(),
                    },
                });
            }
        }
        RaceChecker {
            detectors,
            kernels: Vec::new(),
            kernel: 0,
            observed: [0; 2],
        }
    }

    /// The checker [`check_races`] reads: [`DetectorMode::Precise`], one
    /// example pair per finding.
    pub fn precise() -> Self {
        RaceChecker::new(&[DetectorMode::Precise], 1)
    }

    /// How many accesses to `space` the checker has observed.
    pub fn observed(&self, space: Space) -> u64 {
        self.observed[space as usize]
    }

    fn detector(&self, mode: DetectorMode) -> &Detector {
        self.detectors
            .iter()
            .find(|d| d.mode == mode)
            .unwrap_or_else(|| panic!("the armed race checker does not run {mode:?}"))
    }
}

impl AccessSink for RaceChecker {
    fn launch(&mut self, _id: u32, kernel: &str) {
        self.kernel = match self.kernels.iter().position(|k| k == kernel) {
            Some(i) => i,
            None => {
                self.kernels.push(kernel.to_string());
                self.kernels.len() - 1
            }
        };
        for d in &mut self.detectors {
            if d.mode.resets_per_launch() {
                d.reset();
            }
        }
    }

    fn access(&mut self, e: &AccessEvent, memory: &Memory) {
        self.observed[e.space as usize] += 1;
        let name = &self.kernels[self.kernel];
        for d in &mut self.detectors {
            d.check(e, memory, self.kernel, name);
        }
    }
}

/// The race checker armed on `gpu`.
///
/// # Panics
///
/// Panics if no [`RaceChecker`] was armed before the kernels ran.
fn armed(gpu: &Gpu) -> &RaceChecker {
    gpu.sink::<RaceChecker>().expect(
        "race checking needs an armed checker: call gpu.observe(RaceChecker::new(..)) \
         before launching",
    )
}

/// The [`DetectorMode::Precise`] findings of the checker armed on `gpu`.
///
/// # Panics
///
/// Panics if no [`RaceChecker`] running `Precise` was armed on the GPU
/// before the kernels ran (arm [`RaceChecker::precise`]).
pub fn check_races(gpu: &Gpu) -> Vec<RaceReport> {
    check_races_with_mode(gpu, DetectorMode::Precise)
}

/// The findings of `mode`. See [`check_races`].
///
/// # Panics
///
/// Panics if no [`RaceChecker`] running `mode` was armed on the GPU.
pub fn check_races_with_mode(gpu: &Gpu, mode: DetectorMode) -> Vec<RaceReport> {
    check_races_bounded(gpu, mode).reports()
}

/// The findings of `mode` with the pair evidence the checker kept: up to
/// the pair cap it was armed with per finding, and a typed per-finding
/// `dropped` count once the cap cuts off.
///
/// # Panics
///
/// Panics if no [`RaceChecker`] running `mode` was armed on the GPU.
pub fn check_races_bounded(gpu: &Gpu, mode: DetectorMode) -> BoundedDetection {
    BoundedDetection {
        findings: armed(gpu).detector(mode).findings.sorted(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::{
        Ctx, DeviceBuffer, ForEach, GpuConfig, Kernel, LaunchConfig, Step, StoreVisibility,
        ThreadInfo,
    };

    /// A GPU with a checker running every mode armed.
    fn armed_gpu(max_pairs: usize) -> Gpu {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.observe(RaceChecker::new(&DetectorMode::ALL, max_pairs));
        gpu
    }

    fn racy_gpu(max_pairs: usize) -> Gpu {
        let mut gpu = armed_gpu(max_pairs);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(32),
            ForEach::new("racy", 32, move |ctx, _| {
                let v = ctx.load(cell.at(0));
                ctx.store(cell.at(0), v + 1);
            }),
        );
        gpu
    }

    /// `blocks` blocks of `threads` threads each.
    fn grid(blocks: u32, threads: u32) -> LaunchConfig {
        LaunchConfig {
            grid_blocks: blocks,
            block_threads: threads,
            store_visibility: StoreVisibility::Immediate,
            shared_bytes: 0,
            exact_geometry: true,
        }
    }

    #[test]
    fn detects_plain_race() {
        let gpu = racy_gpu(1);
        let reports = check_races(&gpu);
        assert!(reports.iter().any(|r| r.kernel == "racy"));
        assert!(!check_races_with_mode(&gpu, DetectorMode::HappensBefore).is_empty());
    }

    #[test]
    fn counts_every_observed_access() {
        let gpu = racy_gpu(1);
        let checker = gpu.sink::<RaceChecker>().unwrap();
        assert_eq!(checker.observed(Space::Global), 64);
        assert_eq!(checker.observed(Space::Shared), 0);
    }

    #[test]
    fn atomic_version_is_clean() {
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("clean", 64, move |ctx, _| {
                ctx.atomic_add_u32(cell.at(0), 1);
            }),
        );
        for mode in DetectorMode::ALL {
            assert!(check_races_with_mode(&gpu, mode).is_empty(), "{mode:?}");
        }
    }

    #[test]
    fn volatile_is_still_a_race() {
        // The paper's central point: volatile does not make code race-free.
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(32),
            ForEach::new("volatile-racy", 32, move |ctx, i| {
                if i % 2 == 0 {
                    ctx.store_volatile(cell.at(0), i);
                } else {
                    let _ = ctx.load_volatile(cell.at(0));
                }
            }),
        );
        assert!(!check_races(&gpu).is_empty());
    }

    #[test]
    fn mixed_atomic_nonatomic_is_a_race() {
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(32),
            ForEach::new("mixed", 32, move |ctx, i| {
                if i % 2 == 0 {
                    ctx.atomic_add_u32(cell.at(0), 1);
                } else {
                    let _ = ctx.load(cell.at(0));
                }
            }),
        );
        let reports = check_races(&gpu);
        assert!(reports.iter().any(|r| r.class == RaceClass::MixedAtomic));
    }

    #[test]
    fn disjoint_bytes_do_not_conflict() {
        // Two threads writing different chars inside the same word: no race.
        let mut gpu = armed_gpu(1);
        let bytes = gpu.alloc::<u8>(64);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("disjoint", 64, move |ctx, i| {
                ctx.store(bytes.at(i as usize), i as u8);
            }),
        );
        assert!(check_races(&gpu).is_empty());
    }

    #[test]
    fn sub_word_overlap_is_detected() {
        // A full-word store vs a one-byte store into the middle of the same
        // word: the accesses have different widths and different base
        // addresses, but overlap on exactly one byte — which is where the
        // checker's per-byte location model must catch them.
        let mut gpu = armed_gpu(1);
        let words = gpu.alloc::<u32>(2);
        gpu.launch(
            LaunchConfig::for_items(2),
            ForEach::new("subword", 2, move |ctx, i| {
                if i == 0 {
                    ctx.store(words.at(0), 0xdead_beef);
                } else {
                    ctx.store(words.at(0).cast::<u8>().offset(2), 7u8);
                }
            }),
        );
        let reports = check_races(&gpu);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].class, RaceClass::WriteWrite);
    }

    #[test]
    fn atomic_word_vs_plain_byte_in_same_word_is_mixed() {
        // An atomic CAS covers all four bytes of its word: a *plain* byte
        // store inside that word races with it even though their base
        // addresses differ.
        let mut gpu = armed_gpu(1);
        let word = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(2),
            ForEach::new("cas_vs_byte", 2, move |ctx, i| {
                if i == 0 {
                    ctx.atomic_cas_u32(word.at(0), 0, 1);
                } else {
                    ctx.store(word.at(0).cast::<u8>().offset(1), 3u8);
                }
            }),
        );
        let reports = check_races(&gpu);
        assert_eq!(reports.len(), 1, "{reports:?}");
        assert_eq!(reports[0].class, RaceClass::MixedAtomic);
    }

    #[test]
    fn shared_only_mode_catches_shared_but_misses_global() {
        // One kernel races in BOTH spaces; the Compute-Sanitizer-style mode
        // reports the shared-memory race and is blind to the global one.
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(8).with_shared_bytes(4),
            ForEach::new("both_spaces", 8, move |ctx, i| {
                ctx.shared_write::<u32>(0, i);
                ctx.store(cell.at(0), i);
            }),
        );
        let precise = check_races(&gpu);
        assert!(precise.iter().any(|r| r.space == Space::Shared));
        assert!(precise.iter().any(|r| r.space == Space::Global));
        let shared_only = check_races_with_mode(&gpu, DetectorMode::SharedOnly);
        assert!(!shared_only.is_empty(), "the shared race must be reported");
        assert!(
            shared_only.iter().all(|r| r.space == Space::Shared),
            "SharedOnly must not report global findings: {shared_only:?}"
        );
        let checker = gpu.sink::<RaceChecker>().unwrap();
        assert_eq!(checker.observed(Space::Shared), 8);
        assert_eq!(checker.observed(Space::Global), 8);
    }

    #[test]
    fn launch_boundary_orders_accesses() {
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(64);
        // Writer kernel then reader kernel: ordered by the implicit barrier.
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("writer", 64, move |ctx, i| {
                ctx.store(cell.at(i as usize), i)
            }),
        );
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("reader", 64, move |ctx, i| {
                // Read a different element than this thread wrote.
                let _ = ctx.load(cell.at(((i + 1) % 64) as usize));
            }),
        );
        assert!(check_races(&gpu).is_empty());
        assert!(check_races_with_mode(&gpu, DetectorMode::HappensBefore).is_empty());
        // iGuard-mode ignores the launch barrier and reports false positives.
        let fp = check_races_with_mode(&gpu, DetectorMode::NoLaunchBarrier);
        assert!(!fp.is_empty());
    }

    #[test]
    fn shared_only_mode_misses_global_races() {
        // Compute-Sanitizer-mode sees nothing: the race is in global memory.
        let gpu = racy_gpu(1);
        assert!(check_races_with_mode(&gpu, DetectorMode::SharedOnly).is_empty());
        assert!(!check_races(&gpu).is_empty());
    }

    /// 4 blocks of 8 threads, all hammering one counter with atomics of
    /// `scope`.
    fn scoped_counter(scope: Scope) -> Gpu {
        let mut gpu = armed_gpu(1);
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            grid(4, 8),
            ForEach::new("scoped", 32, move |ctx, _| {
                ctx.atomic_rmw_explicit(cell.at(0), MemOrder::Relaxed, scope, |v| v + 1);
            }),
        );
        gpu
    }

    #[test]
    fn block_scoped_atomics_race_across_blocks() {
        // Atomic within a block, racy across blocks.
        let gpu = scoped_counter(Scope::Block);
        let reports = check_races(&gpu);
        assert!(
            !reports.is_empty(),
            "block-scoped atomics from different blocks must race"
        );
        // Both sides are atomic: the finding is a scope failure, not a
        // mixed atomic/non-atomic race.
        assert!(
            reports.iter().all(|r| r.class == RaceClass::ScopedAtomic),
            "cross-block block-scoped atomic pairs must classify as \
             scoped-atomic: {reports:?}"
        );
        // The happens-before mode treats every atomic pair as synchronized.
        assert!(check_races_with_mode(&gpu, DetectorMode::HappensBefore).is_empty());
    }

    #[test]
    fn device_scoped_atomics_do_not_race_across_blocks() {
        assert!(check_races(&scoped_counter(Scope::Device)).is_empty());
    }

    #[test]
    fn occurrences_are_aggregated() {
        let reports = check_races(&racy_gpu(1));
        // 32 threads all colliding on one counter fold into few reports.
        assert!(reports.len() <= 2);
        assert!(reports.iter().map(|r| r.occurrences).sum::<u64>() > 1);
    }

    #[test]
    #[should_panic(expected = "armed checker")]
    fn unarmed_gpu_panics() {
        let gpu = Gpu::new(GpuConfig::test_tiny());
        let _ = check_races(&gpu);
    }

    #[test]
    #[should_panic(expected = "does not run SharedOnly")]
    fn reading_a_mode_the_checker_does_not_run_panics() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.observe(RaceChecker::precise());
        let _ = check_races_with_mode(&gpu, DetectorMode::SharedOnly);
    }

    #[test]
    fn bounded_mode_caps_pairs_and_counts_dropped() {
        // 32 threads hammering one counter produce far more than 2 distinct
        // conflicting pairs per finding: the cap must cut off with a
        // truncation marker, while occurrences still count everything.
        let bounded = check_races_bounded(&racy_gpu(2), DetectorMode::Precise);
        assert!(!bounded.findings.is_empty());
        for f in &bounded.findings {
            assert!(f.pairs.len() <= 2);
            assert!(!f.pairs.is_empty());
        }
        let truncated = bounded.truncated();
        assert!(
            !truncated.is_empty(),
            "a 32-thread pileup must exceed a 2-pair cap"
        );
        for f in &truncated {
            assert!(f.dropped > 0);
            assert!(
                f.report.occurrences > f.pairs.len() as u64,
                "occurrences must keep counting past the cap"
            );
        }
    }

    #[test]
    fn bounded_mode_reports_match_unbounded_detection() {
        // The cap bounds retained *evidence*, never the finding set: the
        // deduplicated reports are identical at any cap.
        let unbounded = check_races(&racy_gpu(1));
        let bounded = check_races_bounded(&racy_gpu(3), DetectorMode::Precise);
        assert_eq!(bounded.reports(), unbounded);
    }

    #[test]
    fn bounded_mode_with_ample_cap_truncates_nothing() {
        let bounded = check_races_bounded(&racy_gpu(1_000_000), DetectorMode::Precise);
        assert!(bounded.truncated().is_empty());
        for f in &bounded.findings {
            assert_eq!(f.dropped, 0);
        }
    }

    /// Producer writes data plainly, then stores a flag; consumer polls the
    /// flag, then reads the data plainly. With release/acquire ordering on
    /// the flag this is properly synchronized — but only the happens-before
    /// mode can tell.
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
        let mut gpu = armed_gpu(1);
        let data = gpu.alloc::<u32>(1);
        let flag = gpu.alloc::<u32>(1);
        gpu.launch(grid(2, 1), FlagSync { data, flag, order });
        gpu
    }

    #[test]
    fn release_acquire_protects_plain_data() {
        let gpu = run_flag_sync(MemOrder::Release);
        // The epoch modes cannot see the synchronization: false positive.
        assert!(!check_races(&gpu).is_empty(), "epoch mode over-reports");
        // The happens-before mode sees the release→acquire edge: clean.
        let hb = check_races_with_mode(&gpu, DetectorMode::HappensBefore);
        assert!(hb.is_empty(), "HB must accept flag-protected data: {hb:?}");
    }

    #[test]
    fn relaxed_flag_does_not_synchronize() {
        // With relaxed ordering on the flag, the plain data accesses remain
        // a race in every mode that checks global memory — the
        // CUDA-memory-model point that relaxed atomics are coherent but do
        // not order anything.
        let gpu = run_flag_sync(MemOrder::Relaxed);
        assert!(!check_races(&gpu).is_empty());
        assert!(!check_races_with_mode(&gpu, DetectorMode::HappensBefore).is_empty());
    }
}
