//! Access-event tracing for dynamic race detection.
//!
//! When tracing is enabled on a [`crate::Gpu`], every device memory access
//! is appended to the trace together with enough ordering information
//! (launch id, block, barrier phase) for `ecl-racecheck` to decide which
//! pairs of accesses are concurrent.

use crate::access::{AccessKind, AccessMode, MemOrder, Scope as ThreadScope};

/// Which address space an access touched.
///
/// Global memory is shared by the whole grid; shared memory is private to a
/// block (and is the only space the Compute-Sanitizer-like detector mode
/// checks — see `ecl-racecheck`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Space {
    /// Device-global memory.
    Global,
    /// Per-block shared memory (addresses are block-local offsets).
    Shared,
}

/// One recorded device memory access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessEvent {
    /// Global vs per-block shared memory.
    pub space: Space,
    /// Kernel launch this access belongs to (kernel boundaries synchronize).
    pub launch: u32,
    /// Global thread id of the accessor.
    pub thread: u32,
    /// Block the thread belongs to.
    pub block: u32,
    /// Barrier phase within the block (incremented at each `__syncthreads`).
    pub phase: u32,
    /// Byte address of the access.
    pub addr: u32,
    /// Width in bytes (1, 4, or 8).
    pub width: u32,
    /// Plain / volatile / atomic.
    pub mode: AccessMode,
    /// Load / store / read-modify-write.
    pub kind: AccessKind,
    /// Thread scope of an atomic access (`Device` for everything else).
    pub scope: ThreadScope,
    /// Memory ordering of an atomic access (`Relaxed` for everything else).
    /// Only acquire/release/seq_cst atomics establish happens-before edges
    /// for the vector-clock detector.
    pub order: MemOrder,
}

/// Default event cap: ~256 MiB of events, far above anything the race
/// detector can usefully analyze, but low enough that a tracing run over an
/// unexpectedly large workload degrades to a truncated trace instead of
/// taking the process down with it.
pub const DEFAULT_EVENT_CAP: usize = 8 * 1024 * 1024;

/// A bounded list of [`AccessEvent`]s plus per-launch kernel names.
///
/// Kernel names are stored deduplicated: a sweep that launches the same
/// kernel hundreds of times (e.g. `scc_propagate` rounds) stores the name
/// string once and one index per launch, not one `String` per launch.
///
/// The event list is capped (configurable via [`Trace::with_event_cap`]).
/// Once the cap is hit further events are counted, not stored, and
/// [`Trace::truncated`] reports how many were dropped — a typed marker the
/// race detector can surface instead of silently analyzing a partial trace.
#[derive(Debug)]
pub struct Trace {
    events: Vec<AccessEvent>,
    /// Unique kernel names, in first-launch order.
    names: Vec<String>,
    /// Per-launch index into `names`.
    launch_names: Vec<u32>,
    /// Maximum number of stored events (`usize::MAX` = unbounded).
    cap: usize,
    /// Events dropped after the cap was reached.
    dropped: u64,
}

impl Default for Trace {
    fn default() -> Self {
        Trace::new()
    }
}

impl Trace {
    /// Creates an empty trace with the default event cap
    /// ([`DEFAULT_EVENT_CAP`]).
    pub fn new() -> Self {
        Trace::with_event_cap(Some(DEFAULT_EVENT_CAP))
    }

    /// Creates an empty trace holding at most `cap` events (`None` =
    /// unbounded, the pre-cap behavior: the trace grows with every access
    /// until allocation fails).
    pub fn with_event_cap(cap: Option<usize>) -> Self {
        Trace {
            events: Vec::new(),
            names: Vec::new(),
            launch_names: Vec::new(),
            cap: cap.unwrap_or(usize::MAX),
            dropped: 0,
        }
    }

    /// Appends one event; once the cap is reached, counts it as dropped
    /// instead.
    #[inline]
    pub fn record(&mut self, event: AccessEvent) {
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(event);
    }

    /// Registers the name of launch `id`; called once per kernel launch.
    /// Repeated names share one stored string.
    pub fn name_launch(&mut self, id: u32, name: &str) {
        debug_assert_eq!(id as usize, self.launch_names.len());
        let idx = match self.names.iter().position(|n| n == name) {
            Some(i) => i as u32,
            None => {
                self.names.push(name.to_string());
                (self.names.len() - 1) as u32
            }
        };
        self.launch_names.push(idx);
    }

    /// All recorded events, in execution order.
    pub fn events(&self) -> &[AccessEvent] {
        &self.events
    }

    /// The kernel name for a launch id, if known.
    pub fn kernel_name(&self, launch: u32) -> Option<&str> {
        self.launch_names
            .get(launch as usize)
            .map(|&i| self.names[i as usize].as_str())
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of events dropped after the cap was reached, if any. A
    /// `Some(_)` trace is incomplete: race reports derived from it can have
    /// false negatives (the dropped tail is unanalyzed), never false
    /// positives.
    pub fn truncated(&self) -> Option<u64> {
        (self.dropped > 0).then_some(self.dropped)
    }

    /// Drops all recorded events and names; the cap is kept.
    pub fn clear(&mut self) {
        self.events.clear();
        self.names.clear();
        self.launch_names.clear();
        self.dropped = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(addr: u32) -> AccessEvent {
        AccessEvent {
            space: Space::Global,
            launch: 0,
            thread: 3,
            block: 0,
            phase: 0,
            addr,
            width: 4,
            mode: AccessMode::Plain,
            kind: AccessKind::Store,
            scope: ThreadScope::Device,
            order: MemOrder::Relaxed,
        }
    }

    #[test]
    fn record_and_lookup() {
        let mut t = Trace::new();
        t.name_launch(0, "init");
        t.record(ev(128));
        assert_eq!(t.len(), 1);
        assert_eq!(t.kernel_name(0), Some("init"));
        assert_eq!(t.kernel_name(1), None);
        assert_eq!(t.truncated(), None);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    fn repeated_kernel_names_are_stored_once() {
        let mut t = Trace::new();
        for id in 0..100 {
            t.name_launch(id, if id % 2 == 0 { "propagate" } else { "settle" });
        }
        assert_eq!(t.names.len(), 2, "only unique names stored");
        assert_eq!(t.launch_names.len(), 100);
        assert_eq!(t.kernel_name(0), Some("propagate"));
        assert_eq!(t.kernel_name(97), Some("settle"));
        assert_eq!(t.kernel_name(98), Some("propagate"));
    }

    #[test]
    fn event_cap_degrades_to_truncation_marker() {
        let mut t = Trace::with_event_cap(Some(4));
        for i in 0..7 {
            t.record(ev(i * 4));
        }
        assert_eq!(t.len(), 4, "stores stop at the cap");
        assert_eq!(t.truncated(), Some(3), "dropped tail is counted");
        // The stored prefix is the *earliest* events, in order.
        assert_eq!(t.events()[3].addr, 12);
        t.clear();
        assert_eq!(t.truncated(), None);
        t.record(ev(0));
        assert_eq!(t.len(), 1, "cap persists across clear");
    }

    #[test]
    fn unbounded_trace_never_truncates() {
        let mut t = Trace::with_event_cap(None);
        for i in 0..10 {
            t.record(ev(i));
        }
        assert_eq!(t.len(), 10);
        assert_eq!(t.truncated(), None);
    }
}
