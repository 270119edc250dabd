//! The memory system: per-SM L1 caches over a shared L2, with the
//! mode-dependent routing that creates the paper's performance effects.

use super::cache::{Cache, CacheStats};
use crate::access::{AccessKind, AccessMode};
use crate::config::GpuConfig;

/// Which level of the hierarchy served an access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemLevel {
    /// Served by the issuing SM's L1.
    L1,
    /// Served by the shared L2.
    L2,
    /// Served by DRAM.
    Dram,
}

/// The timing side of the memory hierarchy.
///
/// Routing rules (paper §II/§VI):
///
/// - **Plain** accesses look up L1, then L2, then DRAM. Plain stores are
///   write-through no-allocate (GPU L1s are not write-back coherent).
/// - **Volatile** accesses bypass L1 entirely (`ld.global.cg` semantics) and
///   are served by L2/DRAM.
/// - **Atomic** accesses execute at the L2 coherence point and pay an extra
///   read-modify-write charge on top of the L2/DRAM service cost.
#[derive(Debug)]
pub struct MemSystem {
    l1: Vec<Cache>,
    l2: Cache,
    l1_cycles: u32,
    l2_cycles: u32,
    dram_cycles: u32,
    atomic_extra: u32,
    dram_accesses: u64,
}

impl MemSystem {
    /// Builds the hierarchy for a GPU configuration.
    pub fn new(cfg: &GpuConfig) -> Self {
        MemSystem {
            l1: (0..cfg.num_sms)
                .map(|_| Cache::new(cfg.l1_kib, cfg.l1_ways, cfg.line_bytes))
                .collect(),
            l2: Cache::new(cfg.l2_kib, cfg.l2_ways, cfg.line_bytes),
            l1_cycles: cfg.l1_cycles,
            l2_cycles: cfg.l2_cycles,
            dram_cycles: cfg.dram_cycles,
            atomic_extra: cfg.atomic_extra_cycles,
            dram_accesses: 0,
        }
    }

    /// One SM's view of the hierarchy: its L1, the shared L2, the DRAM
    /// counter and the latencies, borrowed once so that a run of accesses
    /// from one SM indexes its L1 once instead of once per access.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range for the configured SM count.
    #[inline]
    pub(crate) fn port(&mut self, sm: usize) -> MemPort<'_> {
        MemPort {
            l1: &mut self.l1[sm],
            l2: &mut self.l2,
            dram_accesses: &mut self.dram_accesses,
            l1_cycles: self.l1_cycles,
            l2_cycles: self.l2_cycles,
            dram_cycles: self.dram_cycles,
            atomic_extra: self.atomic_extra,
        }
    }

    /// Performs the timing side of one access issued on `sm`; returns the
    /// cycle cost and the level that served it.
    ///
    /// # Panics
    ///
    /// Panics if `sm` is out of range for the configured SM count.
    #[inline]
    pub fn access(
        &mut self,
        sm: usize,
        addr: u32,
        mode: AccessMode,
        kind: AccessKind,
    ) -> (u32, MemLevel) {
        self.port(sm).access(addr, mode, kind)
    }

    /// Aggregate L1 statistics across all SMs.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1
            .iter()
            .fold(CacheStats::default(), |acc, c| CacheStats {
                hits: acc.hits + c.stats().hits,
                misses: acc.misses + c.stats().misses,
            })
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Number of DRAM transactions.
    pub fn dram_accesses(&self) -> u64 {
        self.dram_accesses
    }

    /// Resets all counters (cache contents persist across kernels, like on
    /// real hardware).
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        self.l2.reset_stats();
        self.dram_accesses = 0;
    }
}

/// The memory system as one SM sees it (see [`MemSystem::port`]). It holds
/// the one copy of the routing rules. The executor reads the L1, L2 and
/// atomic latencies from it to charge shared-memory, fence and block-scope
/// costs.
pub(crate) struct MemPort<'a> {
    l1: &'a mut Cache,
    l2: &'a mut Cache,
    dram_accesses: &'a mut u64,
    pub(crate) l1_cycles: u32,
    pub(crate) l2_cycles: u32,
    dram_cycles: u32,
    pub(crate) atomic_extra: u32,
}

impl MemPort<'_> {
    /// Performs the timing side of one access; returns the cycle cost and
    /// the level that served it. The routing rules are [`MemSystem`]'s.
    #[inline(always)]
    pub(crate) fn access(
        &mut self,
        addr: u32,
        mode: AccessMode,
        kind: AccessKind,
    ) -> (u32, MemLevel) {
        match mode {
            AccessMode::Plain => match kind {
                AccessKind::Load => {
                    if self.l1.access(addr) {
                        (self.l1_cycles, MemLevel::L1)
                    } else if self.l2.access(addr) {
                        (self.l1_cycles + self.l2_cycles, MemLevel::L2)
                    } else {
                        *self.dram_accesses += 1;
                        (
                            self.l1_cycles + self.l2_cycles + self.dram_cycles,
                            MemLevel::Dram,
                        )
                    }
                }
                // Write-through no-allocate: stores cost an L2 transaction;
                // the L1 line is refreshed only if already present. `touch`
                // updates the line's recency without allocating or counting
                // (a `probe` here used to discard the result, so stored-to
                // lines aged out as if never used — see the
                // `store_refreshes_resident_line` test).
                AccessKind::Store | AccessKind::Rmw => {
                    self.l1.touch(addr);
                    if self.l2.access(addr) {
                        (self.l2_cycles, MemLevel::L2)
                    } else {
                        *self.dram_accesses += 1;
                        (self.l2_cycles + self.dram_cycles, MemLevel::Dram)
                    }
                }
            },
            AccessMode::Volatile => {
                if self.l2.access(addr) {
                    (self.l2_cycles, MemLevel::L2)
                } else {
                    *self.dram_accesses += 1;
                    (self.l2_cycles + self.dram_cycles, MemLevel::Dram)
                }
            }
            AccessMode::Atomic => {
                // Relaxed atomic loads/stores cost what volatile accesses
                // cost (both are plain L2 transactions); only read-modify-
                // write operations pay the serialization surcharge.
                let extra = if kind == AccessKind::Rmw {
                    self.atomic_extra
                } else {
                    0
                };
                if self.l2.access(addr) {
                    (self.l2_cycles + extra, MemLevel::L2)
                } else {
                    *self.dram_accesses += 1;
                    (self.l2_cycles + self.dram_cycles + extra, MemLevel::Dram)
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys() -> MemSystem {
        MemSystem::new(&GpuConfig::test_tiny())
    }

    #[test]
    fn plain_load_warms_l1() {
        let mut m = sys();
        let (c1, l1) = m.access(0, 64, AccessMode::Plain, AccessKind::Load);
        assert_eq!(l1, MemLevel::Dram);
        let (c2, l2) = m.access(0, 64, AccessMode::Plain, AccessKind::Load);
        assert_eq!(l2, MemLevel::L1);
        assert!(c2 < c1);
    }

    #[test]
    fn volatile_bypasses_l1() {
        let mut m = sys();
        // Warm everything.
        m.access(0, 64, AccessMode::Plain, AccessKind::Load);
        let (_, level) = m.access(0, 64, AccessMode::Volatile, AccessKind::Load);
        assert_eq!(level, MemLevel::L2);
    }

    #[test]
    fn atomic_rmw_is_costlier_than_volatile() {
        let mut m = sys();
        m.access(0, 64, AccessMode::Plain, AccessKind::Load); // warm L2
        let (cv, _) = m.access(0, 64, AccessMode::Volatile, AccessKind::Load);
        let (ca, _) = m.access(0, 64, AccessMode::Atomic, AccessKind::Rmw);
        assert!(ca > cv);
        // ...but atomic loads cost the same as volatile loads: both are
        // plain L2 transactions without the RMW serialization surcharge.
        let (cl, _) = m.access(0, 64, AccessMode::Atomic, AccessKind::Load);
        assert_eq!(cl, cv);
    }

    #[test]
    fn l1s_are_private_per_sm() {
        let mut m = sys();
        m.access(0, 64, AccessMode::Plain, AccessKind::Load);
        let (_, level) = m.access(1, 64, AccessMode::Plain, AccessKind::Load);
        // SM 1's L1 is cold; the access is served by the shared L2.
        assert_eq!(level, MemLevel::L2);
    }

    #[test]
    fn store_refreshes_resident_line() {
        // test_tiny's L1 is 2 KiB, 2-way, 32 B lines -> 32 sets; lines 0,
        // 32, and 64 (addrs 0, 1024, 2048) all map to set 0.
        let mut m = sys();
        m.access(0, 0, AccessMode::Plain, AccessKind::Load); // line 0 resident
        m.access(0, 1024, AccessMode::Plain, AccessKind::Load); // line 32 MRU
                                                                // A store to line 0 must refresh its recency (write-through
                                                                // no-allocate keeps the line hot)...
        m.access(0, 0, AccessMode::Plain, AccessKind::Store);
        // ...so a conflicting fill evicts line 32, not the stored-to line.
        m.access(0, 2048, AccessMode::Plain, AccessKind::Load);
        let (_, level) = m.access(0, 0, AccessMode::Plain, AccessKind::Load);
        assert_eq!(level, MemLevel::L1, "stored-to line must survive eviction");
        let (_, level) = m.access(0, 1024, AccessMode::Plain, AccessKind::Load);
        assert_ne!(level, MemLevel::L1, "the un-refreshed line is the victim");
    }

    #[test]
    fn store_does_not_allocate_in_l1() {
        let mut m = sys();
        m.access(0, 64, AccessMode::Plain, AccessKind::Store);
        // The line was never loaded, so the store must not have allocated.
        let (_, level) = m.access(0, 64, AccessMode::Plain, AccessKind::Load);
        assert_ne!(level, MemLevel::L1);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut m = sys();
        m.access(0, 0, AccessMode::Plain, AccessKind::Load);
        m.access(0, 0, AccessMode::Plain, AccessKind::Load);
        assert_eq!(m.l1_stats().hits, 1);
        assert_eq!(m.dram_accesses(), 1);
        m.reset_stats();
        assert_eq!(m.l1_stats().hits + m.l1_stats().misses, 0);
        // Contents persist: the next access still hits L1.
        let (_, level) = m.access(0, 0, AccessMode::Plain, AccessKind::Load);
        assert_eq!(level, MemLevel::L1);
    }
}
