//! A set-associative cache model with LRU replacement.
//!
//! Caches in this simulator are *timing-only*: they never hold data, they
//! only decide which level of the hierarchy serves an access. Functional
//! values always come from the arena (plus the compiler-model store buffers),
//! which keeps timing and semantics cleanly separated.
//!
//! The lookup path is the hottest code in the whole simulator (every plain
//! load pays one to three cache lookups), so two representation choices are
//! made for speed — both provably invisible in hits, misses, evictions, and
//! stats (see `mtf_matches_stamp_lru` and `set_index_matches_modulo` below):
//!
//! - **Set indexing without division.** Power-of-two set counts use a mask;
//!   the paper GPUs' 768-set L1s (96 KiB / 4 ways / 32 B) use a Lemire-style
//!   fixed-point multiply that computes `line % num_sets` exactly for all
//!   32-bit line numbers. A hardware `div` costs more than the rest of the
//!   lookup combined.
//! - **Stamp-free LRU.** Instead of a global clock plus per-line stamps, the
//!   ways of each set are kept ordered most-recently-used first and rotated
//!   on touch (move-to-front). Recency *order* is all LRU ever consults, so
//!   dropping the stamps changes no replacement decision.

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses served by this cache.
    pub hits: u64,
    /// Accesses that had to go to the next level.
    pub misses: u64,
}

impl CacheStats {
    /// Hit rate in `0.0..=1.0`; zero when the cache was never accessed.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, LRU, timing-only cache.
#[derive(Debug, Clone)]
pub struct Cache {
    /// `tags[set * ways + way]`, most-recently-used way first within each
    /// set; `u32::MAX` marks an empty way. A line number is `addr >>
    /// line_shift` with lines of at least 2 bytes, so it stays below 2^31
    /// and no real line collides with the sentinel. Sets past the end have
    /// never been accessed and are empty: the storage grows on first use of
    /// a set instead of filling every set up front, so a device costs
    /// memory in proportion to the addresses its runs touch.
    tags: Vec<u32>,
    num_sets: u32,
    ways: u32,
    line_shift: u32,
    /// `num_sets - 1` when the set count is a power of two.
    set_mask: u64,
    /// `ceil(2^64 / num_sets)` for the fixed-point modulo; `0` selects the
    /// mask path instead.
    fastmod_m: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache of `size_kib` KiB with `ways`-way associativity and
    /// `line_bytes`-byte lines.
    ///
    /// The geometry must describe the configured capacity *exactly*: the
    /// cache holds `size_kib * 1024 / line_bytes` lines, which must be a
    /// positive multiple of `ways`. Anything else used to be silently
    /// repaired (`num_sets.max(1)` could double a 1-set cache's capacity,
    /// and `lines / ways` truncation could shrink it), which made the
    /// modeled hit rates lie about the configured hardware.
    ///
    /// # Panics
    ///
    /// Panics if `line_bytes` is not a power of two or is under 2 bytes
    /// (a 1-byte line's number could equal the empty-way sentinel), the
    /// cache is smaller than one line, `ways` exceeds the line count, or
    /// the line count is not a multiple of `ways`.
    pub fn new(size_kib: u32, ways: u32, line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(line_bytes >= 2, "line size must be at least 2 bytes");
        assert!(ways >= 1, "need at least one way");
        let lines = size_kib * 1024 / line_bytes;
        assert!(
            lines >= 1,
            "cache geometry: {size_kib} KiB cannot hold even one {line_bytes}-byte line"
        );
        assert!(
            ways <= lines,
            "cache geometry: {ways}-way associativity needs at least {ways} lines, \
             but {size_kib} KiB of {line_bytes}-byte lines holds only {lines}"
        );
        assert!(
            lines.is_multiple_of(ways),
            "cache geometry: {lines} lines ({size_kib} KiB / {line_bytes} B) do not \
             divide evenly into {ways} ways"
        );
        let num_sets = lines / ways;
        let (set_mask, fastmod_m) = if num_sets.is_power_of_two() {
            ((num_sets - 1) as u64, 0)
        } else {
            // ceil(2^64 / num_sets): exact `line % num_sets` for any 32-bit
            // line via one wrapping multiply and one widening multiply.
            (0, u64::MAX / num_sets as u64 + 1)
        };
        Cache {
            tags: Vec::new(),
            num_sets,
            ways,
            line_shift: line_bytes.trailing_zeros(),
            set_mask,
            fastmod_m,
            stats: CacheStats::default(),
        }
    }

    /// `line % num_sets` without a hardware divide. Exact for all line
    /// numbers below 2^32 (addresses are `u32`, so always).
    #[inline(always)]
    fn set_index(&self, line: u64) -> usize {
        if self.fastmod_m == 0 {
            (line & self.set_mask) as usize
        } else {
            let frac = self.fastmod_m.wrapping_mul(line);
            ((frac as u128 * self.num_sets as u128) >> 64) as usize
        }
    }

    /// Looks up the line containing `addr`, allocating it on a miss.
    /// Returns `true` on a hit.
    #[inline]
    pub fn access(&mut self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        let ways = self.ways as usize;
        let base = self.set_index(line as u64) * ways;
        if self.tags.len() < base + ways {
            self.grow(base + ways);
        }
        let set = &mut self.tags[base..base + ways];
        // MRU way first: sequential re-references resolve on one compare.
        if set[0] == line {
            self.stats.hits += 1;
            return true;
        }
        for i in 1..ways {
            if set[i] == line {
                set.copy_within(0..i, 1);
                set[0] = line;
                self.stats.hits += 1;
                return true;
            }
        }
        // Miss: the last way is the LRU line (or an empty slot while the
        // set is still filling — empties sink to the back under rotation,
        // so free ways are always consumed before a real line is evicted).
        set.copy_within(0..ways - 1, 1);
        set[0] = line;
        self.stats.misses += 1;
        false
    }

    /// Extends the tag storage with empty sets up to `len` slots: at least
    /// doubling, so growth costs amortized O(1) per slot, and never past
    /// the configured capacity.
    #[cold]
    fn grow(&mut self, len: usize) {
        let full = (self.num_sets * self.ways) as usize;
        let len = len.max(2 * self.tags.len()).min(full);
        self.tags.reserve_exact(len - self.tags.len());
        self.tags.resize(len, u32::MAX);
    }

    /// Checks for the line without allocating or counting (probe).
    pub fn probe(&self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        let base = self.set_index(line as u64) * self.ways as usize;
        self.tags
            .get(base..base + self.ways as usize)
            .is_some_and(|set| set.contains(&line))
    }

    /// Refreshes the recency of the line containing `addr` if (and only if)
    /// it is resident; never allocates and never counts toward hit/miss
    /// stats. Returns `true` when the line was present.
    ///
    /// This is the write-through no-allocate store path's half of LRU: a
    /// store to a cached line keeps the line hot without fetching anything.
    #[inline]
    pub fn touch(&mut self, addr: u32) -> bool {
        let line = addr >> self.line_shift;
        let ways = self.ways as usize;
        let base = self.set_index(line as u64) * ways;
        let Some(set) = self.tags.get_mut(base..base + ways) else {
            return false;
        };
        if set[0] == line {
            return true;
        }
        for i in 1..ways {
            if set[i] == line {
                set.copy_within(0..i, 1);
                set[0] = line;
                return true;
            }
        }
        false
    }

    /// Total number of lines the cache can hold (`sets × ways`), exactly
    /// the configured `size_kib * 1024 / line_bytes`.
    pub fn num_lines(&self) -> u32 {
        self.num_sets * self.ways
    }

    /// Current hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repeated_access_hits() {
        let mut c = Cache::new(2, 2, 32);
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(31)); // same 32-byte line
        assert!(!c.access(32)); // next line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_oldest() {
        // 2 KiB, 2-way, 32 B lines -> 32 sets. Three lines mapping to set 0:
        // line numbers 0, 32, 64 -> addrs 0, 32*32, 64*32.
        let mut c = Cache::new(2, 2, 32);
        assert!(!c.access(0));
        assert!(!c.access(32 * 32));
        assert!(c.access(0)); // refresh line 0
        assert!(!c.access(64 * 32)); // evicts line 32 (LRU)
        assert!(c.access(0));
        assert!(!c.access(32 * 32)); // was evicted
    }

    #[test]
    fn probe_does_not_allocate() {
        let mut c = Cache::new(2, 2, 32);
        assert!(!c.probe(0));
        assert!(!c.access(0));
        assert!(c.probe(0));
        assert_eq!(c.stats().hits + c.stats().misses, 1);
    }

    #[test]
    fn touch_refreshes_recency_without_allocating_or_counting() {
        let mut c = Cache::new(2, 2, 32);
        // Touching an absent line is a no-op: no allocation, no stats.
        assert!(!c.touch(0));
        assert!(!c.access(0)); // still a miss
        assert!(!c.access(32 * 32)); // set 0 now holds lines {0, 32}, 32 MRU
        assert!(c.touch(0)); // refresh line 0 without counting
        assert!(!c.access(64 * 32)); // evicts line 32, the true LRU
        assert!(c.access(0)); // line 0 survived thanks to the touch
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 3);
    }

    #[test]
    fn capacity_matches_configured_size_exactly() {
        // Regression: `num_sets.max(1) * ways` used to inflate capacity when
        // `ways` exceeded the line count (1 KiB / 128 B = 8 lines but 16
        // slots for a 16-way request), and truncation shrank it when
        // `lines % ways != 0`. Valid geometries must come out exact.
        assert_eq!(Cache::new(1, 8, 128).num_lines(), 8);
        assert_eq!(Cache::new(2, 2, 32).num_lines(), 64);
        assert_eq!(Cache::new(96, 4, 32).num_lines(), 3072); // the paper GPUs' L1
    }

    #[test]
    #[should_panic(expected = "needs at least 16 lines")]
    fn overwide_associativity_rejected_not_inflated() {
        // 1 KiB of 128 B lines holds 8 lines; a 16-way config used to get
        // 16 slots (double the configured size) silently.
        let _ = Cache::new(1, 16, 128);
    }

    #[test]
    #[should_panic(expected = "do not divide evenly")]
    fn non_dividing_ways_rejected_not_truncated() {
        // 8 lines into 3 ways used to truncate to 2 sets * 3 ways = 6 lines.
        let _ = Cache::new(1, 3, 128);
    }

    #[test]
    #[should_panic(expected = "cannot hold even one")]
    fn sub_line_cache_rejected() {
        let _ = Cache::new(0, 1, 128);
    }

    #[test]
    #[should_panic(expected = "at least 2 bytes")]
    fn one_byte_lines_rejected() {
        // Line 2^32 - 1 of 1-byte lines would equal the empty-way sentinel.
        let _ = Cache::new(1, 1, 1);
    }

    #[test]
    fn paper_gpu_geometries_are_valid() {
        // Every preset GPU's L1/L2 must construct under the strict checks.
        for cfg in crate::GpuConfig::paper_gpus() {
            let l1 = Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes);
            let l2 = Cache::new(cfg.l2_kib, cfg.l2_ways, cfg.line_bytes);
            assert_eq!(l1.num_lines(), cfg.l1_kib * 1024 / cfg.line_bytes);
            assert_eq!(l2.num_lines(), cfg.l2_kib * 1024 / cfg.line_bytes);
        }
    }

    #[test]
    fn set_index_matches_modulo() {
        // The divisionless set index must equal `line % num_sets` exactly,
        // for both the mask path (power-of-two sets: test_tiny's 32, mask
        // 31) and the fixed-point path (the paper L1's 768 sets).
        for (kib, ways, line_bytes) in [(2u32, 2u32, 32u32), (96, 4, 32), (6, 3, 32), (1, 1, 32)] {
            let c = Cache::new(kib, ways, line_bytes);
            assert_eq!(c.num_sets, kib * 1024 / line_bytes / ways);
            for seed in 0u64..50_000 {
                // Cover small lines, large lines, and the full u32 range.
                let line = seed
                    .wrapping_mul(0x9e3779b97f4a7c15)
                    .rotate_left((seed % 64) as u32)
                    & 0xffff_ffff;
                assert_eq!(
                    c.set_index(line),
                    (line % c.num_sets as u64) as usize,
                    "line {line} sets {}",
                    c.num_sets
                );
            }
            // Boundary values.
            for line in [0u64, 1, u32::MAX as u64 - 1, u32::MAX as u64] {
                assert_eq!(c.set_index(line), (line % c.num_sets as u64) as usize);
            }
        }
    }

    #[test]
    fn mtf_matches_stamp_lru() {
        // Differential check of the move-to-front representation against a
        // straightforward stamp-based LRU reference, over a random-ish
        // access stream on three geometries: 6 KiB, 3-way, 32 B (64 sets,
        // the mask path); the paper L1 (96 KiB, 4-way: 768 sets, the
        // fixed-point path); and 48 KiB, 16-way (96 sets), the L2s' way
        // count, where one set's tags take 64 bytes.
        struct RefLru {
            tags: Vec<u64>,
            stamps: Vec<u64>,
            sets: u64,
            ways: usize,
            clock: u64,
            hits: u64,
            misses: u64,
        }
        impl RefLru {
            fn access(&mut self, addr: u32) -> bool {
                let line = (addr as u64) >> 5;
                let base = (line % self.sets) as usize * self.ways;
                self.clock += 1;
                let mut victim = base;
                let mut victim_stamp = u64::MAX;
                for s in base..base + self.ways {
                    if self.tags[s] == line {
                        self.stamps[s] = self.clock;
                        self.hits += 1;
                        return true;
                    }
                    if self.stamps[s] < victim_stamp {
                        victim_stamp = self.stamps[s];
                        victim = s;
                    }
                }
                self.tags[victim] = line;
                self.stamps[victim] = self.clock;
                self.misses += 1;
                false
            }
        }
        for (kib, ways, sets) in [(6u32, 3u32, 64u64), (96, 4, 768), (48, 16, 96)] {
            let mut c = Cache::new(kib, ways, 32);
            let lines = c.num_lines() as usize;
            assert_eq!(lines as u64, sets * ways as u64);
            let mut r = RefLru {
                tags: vec![u64::MAX; lines],
                stamps: vec![0; lines],
                sets,
                ways: ways as usize,
                clock: 0,
                hits: 0,
                misses: 0,
            };
            let mut x = 0x5eedu64;
            for i in 0..200_000u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                // Mix tight reuse with far strides so hits and evictions both occur.
                let addr = if i % 3 == 0 {
                    (x >> 40) as u32 & 0xfff
                } else {
                    (x >> 33) as u32
                };
                assert_eq!(
                    c.access(addr),
                    r.access(addr),
                    "{kib} KiB {ways}-way: access #{i} addr {addr}"
                );
            }
            assert_eq!(c.stats().hits, r.hits);
            assert_eq!(c.stats().misses, r.misses);
            assert!(r.hits > 0 && r.misses > 0);
            // More misses than lines: the stream evicted, not just filled.
            assert!(
                r.misses > lines as u64,
                "{kib} KiB {ways}-way never evicted"
            );
        }
    }

    #[test]
    fn tag_storage_grows_with_the_sets_touched() {
        // The 4090 preset's L2: 72 MiB, 16 ways, 32 B lines.
        let (kib, ways, line_bytes) = (73_728, 16, 32);
        let mut c = Cache::new(kib, ways, line_bytes);
        assert_eq!(c.tags.capacity(), 0);
        assert!(!c.probe(0) && !c.touch(0));
        assert_eq!(c.tags.capacity(), 0);
        let set = 1_000usize;
        assert!(!c.access(set as u32 * line_bytes));
        assert!(c.tags.capacity() <= (set + 1) * ways as usize);
        assert!(c.probe(set as u32 * line_bytes));
        // The last set still fits exactly in the configured capacity.
        let last = c.num_sets - 1;
        assert!(!c.access(last * line_bytes));
        assert_eq!(c.tags.len(), c.num_lines() as usize);
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = Cache::new(2, 2, 32);
        c.access(0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }
}
