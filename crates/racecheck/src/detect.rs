//! The detection engine.

use crate::report::{RaceClass, RaceReport, RaceSite};
use crate::shadow::{Record, Shadow};
use ecl_simt::mem::Memory;
use ecl_simt::{AccessKind, AccessMode, Gpu, Scope, Space};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Which tool the detector imitates.
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
}

/// One remembered access to a byte location.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct AccessRec {
    launch: u32,
    thread: u32,
    block: u32,
    phase: u32,
    mode: AccessMode,
    kind: AccessKind,
    scope: Scope,
}

impl Record for AccessRec {
    fn writes(&self) -> bool {
        self.kind.writes()
    }
}

impl AccessRec {
    fn site(&self) -> RaceSite {
        RaceSite {
            thread: self.thread,
            mode: self.mode,
            kind: self.kind,
        }
    }
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
    /// The deduplicated report (identical to unbounded detection's).
    pub report: RaceReport,
    /// Up to `max_pairs` distinct conflicting pairs, in discovery order.
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
/// `O(findings × max_pairs)` regardless of how racy the trace is.
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

/// Runs [`DetectorMode::Precise`] detection over the GPU's recorded trace.
///
/// # Panics
///
/// Panics if tracing was not enabled on the GPU before the kernels ran
/// (call [`Gpu::enable_tracing`] first).
pub fn check_races(gpu: &Gpu) -> Vec<RaceReport> {
    check_races_with_mode(gpu, DetectorMode::Precise)
}

/// Runs race detection in the given mode. See [`check_races`].
///
/// # Panics
///
/// Panics if tracing was not enabled on the GPU.
pub fn check_races_with_mode(gpu: &Gpu, mode: DetectorMode) -> Vec<RaceReport> {
    detect(gpu, mode, 1)
        .findings
        .into_iter()
        .map(|f| f.report)
        .collect()
}

/// Bounded-memory detection: like [`check_races_with_mode`] but retaining up
/// to `max_pairs` distinct conflicting pairs per finding as evidence, with a
/// typed per-finding `dropped` count once the cap cuts off. `max_pairs` of 0
/// is treated as 1 (a finding with no example pair is useless).
///
/// # Panics
///
/// Panics if tracing was not enabled on the GPU.
pub fn check_races_bounded(gpu: &Gpu, mode: DetectorMode, max_pairs: usize) -> BoundedDetection {
    detect(gpu, mode, max_pairs.max(1))
}

fn detect(gpu: &Gpu, mode: DetectorMode, max_pairs: usize) -> BoundedDetection {
    let trace = gpu
        .trace()
        .expect("race checking needs a trace: call Gpu::enable_tracing() before launching");

    // Locations are per launch, except that the launch-blind mode merges
    // every launch into one epoch: exactly iGuard's false-positive
    // behavior. Launch ids only grow along the trace, so state of a
    // finished launch is never read again and can be forgotten.
    let reset_per_launch = mode != DetectorMode::NoLaunchBarrier;
    let mut shadow = Shadow::new(gpu.memory().footprint());
    let mut findings = Findings::new(gpu.memory(), max_pairs);
    let mut launch = None;
    let mut kernel = "";
    for e in trace.events() {
        if mode == DetectorMode::SharedOnly && e.space == Space::Global {
            continue;
        }
        if launch != Some(e.launch) {
            launch = Some(e.launch);
            kernel = trace.kernel_name(e.launch).unwrap_or("<unknown>");
            if reset_per_launch {
                shadow.reset();
            }
        }
        let rec = AccessRec {
            launch: e.launch,
            thread: e.thread,
            block: e.block,
            phase: e.phase,
            mode: e.mode,
            kind: e.kind,
            scope: e.scope,
        };
        shadow.access(
            e,
            rec,
            |prev| conflicts(prev, &rec),
            |byte, prev| findings.add(kernel, e.space, byte, prev.site(), rec.site()),
        );
    }
    BoundedDetection {
        findings: findings.into_sorted(),
    }
}

/// Deduplicated findings, keyed by (kernel, space, allocation, class),
/// each retaining up to `max_pairs` distinct conflicting pairs.
pub(crate) struct Findings<'a> {
    memory: &'a Memory,
    max_pairs: usize,
    by_key: HashMap<(&'a str, Space, u32, RaceClass), BoundedFinding>,
}

impl<'a> Findings<'a> {
    pub(crate) fn new(memory: &'a Memory, max_pairs: usize) -> Self {
        Findings {
            memory,
            max_pairs,
            by_key: HashMap::new(),
        }
    }

    /// Folds one conflicting pair on `byte` into its finding: `first` is
    /// the remembered access, `second` the new one.
    pub(crate) fn add(
        &mut self,
        kernel: &'a str,
        space: Space,
        byte: u32,
        first: RaceSite,
        second: RaceSite,
    ) {
        let class = RaceReport::classify((first.mode, first.kind), (second.mode, second.kind));
        // Resolved per byte: a word-wide access can reach past the end of
        // its allocation into padding that belongs to none.
        let allocation = match space {
            Space::Global => self
                .memory
                .allocation_of(byte)
                .map_or(byte, |(base, _)| base),
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
                    Space::Global => self.memory.allocation_name(byte).map(str::to_string),
                    Space::Shared => None,
                };
                entry.insert(BoundedFinding {
                    report: RaceReport {
                        kernel: kernel.to_string(),
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
    pub(crate) fn into_sorted(self) -> Vec<BoundedFinding> {
        let mut findings: Vec<BoundedFinding> = self.by_key.into_values().collect();
        findings.sort_by_cached_key(|f| {
            let r = &f.report;
            (
                r.kernel.clone(),
                r.allocation,
                r.example_addr,
                r.space,
                r.class,
            )
        });
        findings
    }
}

/// Two accesses to the same byte conflict and are unordered.
fn conflicts(a: &AccessRec, b: &AccessRec) -> bool {
    if a.thread == b.thread {
        return false;
    }
    if !(a.kind.writes() || b.kind.writes()) {
        return false;
    }
    if a.mode == AccessMode::Atomic && b.mode == AccessMode::Atomic {
        // Two atomics only synchronize when their scopes cover each other:
        // block-scoped atomics from *different* blocks still race (the
        // paper's §II-A scope discussion).
        let block_scoped = a.scope == Scope::Block || b.scope == Scope::Block;
        if !(block_scoped && a.block != b.block) {
            return false;
        }
    }
    if a.launch != b.launch {
        // Only reachable in NoLaunchBarrier mode (keys separate launches
        // otherwise); the inter-launch barrier is deliberately ignored there.
        return true;
    }
    // Same launch: different blocks never synchronize; same block is ordered
    // only across barrier phases.
    a.block != b.block || a.phase == b.phase
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::{ForEach, GpuConfig, LaunchConfig};

    fn racy_gpu() -> Gpu {
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
        gpu
    }

    #[test]
    fn detects_plain_race() {
        let reports = check_races(&racy_gpu());
        assert!(!reports.is_empty());
        assert!(reports.iter().any(|r| r.kernel == "racy"));
    }

    #[test]
    fn atomic_version_is_clean() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            LaunchConfig::for_items(32),
            ForEach::new("clean", 32, move |ctx, _| {
                ctx.atomic_add_u32(cell.at(0), 1);
            }),
        );
        assert!(check_races(&gpu).is_empty());
    }

    #[test]
    fn volatile_is_still_a_race() {
        // The paper's central point: volatile does not make code race-free.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        let reports = check_races(&gpu);
        assert!(!reports.is_empty());
    }

    #[test]
    fn mixed_atomic_nonatomic_is_a_race() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        // detector's per-byte location model must catch them.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
    }

    #[test]
    fn launch_boundary_orders_accesses() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
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
        // iGuard-mode ignores the launch barrier and reports false positives.
        let fp = check_races_with_mode(&gpu, DetectorMode::NoLaunchBarrier);
        assert!(!fp.is_empty());
    }

    #[test]
    fn shared_only_mode_misses_global_races() {
        // Compute-Sanitizer-mode sees nothing: the race is in global memory.
        let gpu = racy_gpu();
        assert!(check_races_with_mode(&gpu, DetectorMode::SharedOnly).is_empty());
        assert!(!check_races(&gpu).is_empty());
    }

    #[test]
    fn block_scoped_atomics_race_across_blocks() {
        use ecl_simt::{MemOrder, Scope as ThreadScope, StoreVisibility};
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(1);
        // 4 blocks of 8 threads, all hammering one counter with
        // *block-scoped* atomics: atomic within a block, racy across blocks.
        gpu.launch(
            ecl_simt::LaunchConfig {
                grid_blocks: 4,
                block_threads: 8,
                store_visibility: StoreVisibility::Immediate,
                shared_bytes: 0,
                exact_geometry: true,
            },
            ecl_simt::ForEach::new("blockscope", 32, move |ctx, _| {
                ctx.atomic_rmw_explicit(cell.at(0), MemOrder::Relaxed, ThreadScope::Block, |v| {
                    v + 1
                });
            }),
        );
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
    }

    #[test]
    fn device_scoped_atomics_do_not_race_across_blocks() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing();
        let cell = gpu.alloc::<u32>(1);
        gpu.launch(
            ecl_simt::LaunchConfig {
                grid_blocks: 4,
                block_threads: 8,
                store_visibility: ecl_simt::StoreVisibility::Immediate,
                shared_bytes: 0,
                exact_geometry: true,
            },
            ecl_simt::ForEach::new("devscope", 32, move |ctx, _| {
                ctx.atomic_add_u32(cell.at(0), 1);
            }),
        );
        assert!(check_races(&gpu).is_empty());
    }

    #[test]
    fn occurrences_are_aggregated() {
        let reports = check_races(&racy_gpu());
        // 32 threads all colliding on one counter fold into few reports.
        assert!(reports.len() <= 2);
        assert!(reports.iter().map(|r| r.occurrences).sum::<u64>() > 1);
    }

    #[test]
    #[should_panic(expected = "enable_tracing")]
    fn untraced_gpu_panics() {
        let gpu = Gpu::new(GpuConfig::test_tiny());
        let _ = check_races(&gpu);
    }

    #[test]
    fn bounded_mode_caps_pairs_and_counts_dropped() {
        // 32 threads hammering one counter produce far more than 2 distinct
        // conflicting pairs per finding: the cap must cut off with a
        // truncation marker, while occurrences still count everything.
        let gpu = racy_gpu();
        let bounded = check_races_bounded(&gpu, DetectorMode::Precise, 2);
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
        // deduplicated reports are identical to unbounded detection's.
        let gpu = racy_gpu();
        let unbounded = check_races(&gpu);
        let bounded = check_races_bounded(&gpu, DetectorMode::Precise, 3);
        assert_eq!(bounded.reports(), unbounded);
    }

    #[test]
    fn bounded_mode_with_ample_cap_truncates_nothing() {
        let gpu = racy_gpu();
        let bounded = check_races_bounded(&gpu, DetectorMode::Precise, 1_000_000);
        assert!(bounded.truncated().is_empty());
        for f in &bounded.findings {
            assert_eq!(f.dropped, 0);
        }
    }
}
