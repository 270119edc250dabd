//! Classification of memory accesses.

/// How an access is performed, determining both its cost and its visibility.
///
/// This mirrors the three ways the studied CUDA codes touch shared data
/// (paper §II/§IV):
///
/// - `Plain` — an ordinary load/store. Served by the per-SM L1; stores may be
///   deferred/coalesced by the compiler model. Racy when shared.
/// - `Volatile` — a `volatile`-qualified access. Compiles to an actual memory
///   instruction that bypasses the non-coherent L1 (like `ld.global.cg`);
///   immediately visible, but still a data race per the CUDA memory model.
/// - `Atomic` — a relaxed atomic access from `libcu++` (`cuda::atomic`).
///   Performed at the L2 coherence point with an extra RMW charge; race-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessMode {
    /// Ordinary load/store (register-cacheable, deferrable).
    Plain,
    /// `volatile` access: uncached in L1, immediate, still racy.
    Volatile,
    /// Relaxed atomic access: coherent and race-free.
    Atomic,
}

impl AccessMode {
    /// `true` for accesses that participate in data races (everything except
    /// atomics — the CUDA memory model makes `volatile` accesses racy too).
    pub fn is_racy(self) -> bool {
        !matches!(self, AccessMode::Atomic)
    }
}

/// `libcu++` memory-ordering constraints (paper §II-A).
///
/// The order restricts how surrounding accesses may be reordered around an
/// atomic operation. *Relaxed* is the weakest (and what all the converted
/// ECL codes use — "the weakest version that is sufficient for correctness
/// should be used to maximize performance"); *SeqCst* is the strongest and
/// is `libcu++`'s **default**, which the paper warns "can lead to poor
/// performance".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MemOrder {
    /// No ordering constraints: the atomic is just a coherent access.
    #[default]
    Relaxed,
    /// Later accesses may not move before this load.
    Acquire,
    /// Earlier accesses may not move after this store.
    Release,
    /// Acquire + release (RMW operations).
    AcqRel,
    /// Total order over all such operations — the expensive default.
    SeqCst,
}

impl MemOrder {
    /// How many memory-fence charges this ordering implies in the cost
    /// model (0 for relaxed, 1 for acquire/release, 2 for acq_rel/seq_cst).
    pub fn fence_count(self) -> u32 {
        match self {
            MemOrder::Relaxed => 0,
            MemOrder::Acquire | MemOrder::Release => 1,
            MemOrder::AcqRel | MemOrder::SeqCst => 2,
        }
    }
}

/// `libcu++` thread scopes (paper §II-A).
///
/// The scope determines which threads an atomic operation must be coherent
/// with, and therefore where the hardware can service it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Scope {
    /// `cuda::thread_scope_block`: only threads of the same block — the
    /// operation can be serviced in the SM's own L1/shared-memory fabric.
    Block,
    /// `cuda::thread_scope_device`: all threads on the GPU — serviced at
    /// the L2 coherence point. The scope all converted ECL codes use.
    #[default]
    Device,
    /// `cuda::thread_scope_system`: host threads and other devices too —
    /// requires system-level coherence and is the most expensive.
    System,
}

/// The direction/shape of an access, used by access sinks and the race checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A read.
    Load,
    /// A write.
    Store,
    /// An atomic read-modify-write (counts as both).
    Rmw,
}

impl AccessKind {
    /// `true` if the access writes memory.
    pub fn writes(self) -> bool {
        matches!(self, AccessKind::Store | AccessKind::Rmw)
    }

    /// `true` if the access reads memory.
    pub fn reads(self) -> bool {
        matches!(self, AccessKind::Load | AccessKind::Rmw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn racyness_matches_cuda_memory_model() {
        assert!(AccessMode::Plain.is_racy());
        assert!(AccessMode::Volatile.is_racy());
        assert!(!AccessMode::Atomic.is_racy());
    }

    #[test]
    fn rmw_reads_and_writes() {
        assert!(AccessKind::Rmw.reads() && AccessKind::Rmw.writes());
        assert!(AccessKind::Load.reads() && !AccessKind::Load.writes());
        assert!(!AccessKind::Store.reads() && AccessKind::Store.writes());
    }
}
