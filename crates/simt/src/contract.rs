//! Kernel access contracts and the dynamic contract sanitizer.
//!
//! A [`KernelContract`] declares, per named device buffer, the complete
//! footprint a kernel is allowed to touch: which [`AccessMode`] with which
//! [`AccessKind`], under which *index discipline* (does each thread stay on
//! its own elements, or can it reach any element?), in which barrier phase,
//! and — for conflicts the paper calls "benign" — which [`BenignClass`] the
//! race falls into.
//!
//! Contracts serve two masters:
//!
//! - The **static checker** (`ecl-analyze`) pairs the entries of each kernel
//!   and proves cross-thread race-freedom (atomic-atomic, owner-disjoint,
//!   barrier-ordered, or declared-disjoint regions) or classifies the
//!   remaining conflicts into the paper's benign taxonomy.
//! - The **sanitizer** (this module): [`crate::Gpu::install_contracts`] arms
//!   dynamic enforcement, validating every device access of every launch
//!   against the declared footprint and raising a typed
//!   [`SimError::ContractViolation`] on the first access outside it. This is
//!   what keeps contracts honest instead of aspirational: a kernel whose
//!   code drifts from its declaration fails its launch.
//!
//! Ownership disciplines are checked exactly: [`IndexDiscipline::OwnedByGlobalId`]
//! is the grid-stride invariant (`element % num_threads == global_id`);
//! [`IndexDiscipline::OwnedRange`] is first-touch ownership — the first
//! thread to touch an element under an owned entry owns it for the rest of
//! the launch, so any dynamically-disjoint per-thread partition (ticket
//! slots, tile elements) passes and any overlap is a violation.

use std::collections::HashMap;

use crate::access::{AccessKind, AccessMode};
use crate::error::SimError;
use crate::mem::Memory;
use crate::sink::Space;

/// The buffer name contracts use for per-block shared memory (shared
/// accesses carry byte offsets, not arena addresses, so there is no named
/// allocation to resolve).
pub const SHARED_BUFFER: &str = "shared";

/// How a kernel's threads index into one buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexDiscipline {
    /// Grid-stride ownership: thread `t` only touches elements `i` with
    /// `i % num_threads == t` (the `ForEach` distribution). Statically,
    /// two such entries are disjoint across threads; dynamically the
    /// modular invariant is checked per access.
    OwnedByGlobalId {
        /// Bytes per element (the divisor that turns a byte offset into an
        /// element index).
        elem_bytes: u32,
    },
    /// Per-thread disjoint element sets determined at run time (reserved
    /// ticket slots, block-tile elements). Statically as good as
    /// [`IndexDiscipline::OwnedByGlobalId`]; dynamically enforced by
    /// first-touch ownership within a launch.
    OwnedRange {
        /// Bytes per element.
        elem_bytes: u32,
    },
    /// Any thread may touch any element — the discipline under which
    /// cross-thread conflicts are actually possible.
    Arbitrary,
}

impl IndexDiscipline {
    /// True for either owned discipline (cross-thread disjoint by
    /// construction).
    pub fn is_owned(&self) -> bool {
        !matches!(self, IndexDiscipline::Arbitrary)
    }
}

/// The paper's taxonomy of benign races (§IV-B): why a statically-possible
/// conflict cannot corrupt the final answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BenignClass {
    /// A lost or stale update is re-propagated by a later iteration of the
    /// enclosing fixed-point loop (union-find path shortening, color
    /// re-checks): the value converges regardless of which write wins.
    RePropagatedLostUpdate,
    /// All racing writes store the same value (a raised flag, an `OUT`
    /// status), so any interleaving leaves the same state.
    IdempotentWrite,
    /// The racing update is monotonic (max/min toward a fixed point); a
    /// stale read can only delay convergence, never reverse it.
    MonotonicUpdate,
}

impl std::fmt::Display for BenignClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenignClass::RePropagatedLostUpdate => write!(f, "re-propagated lost update"),
            BenignClass::IdempotentWrite => write!(f, "idempotent write"),
            BenignClass::MonotonicUpdate => write!(f, "monotonic update"),
        }
    }
}

/// One row of a kernel's declared footprint: a (buffer, mode, kind) shape
/// plus its index discipline and optional static annotations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintEntry {
    /// Name of the allocation ([`crate::Gpu::alloc_named`]) or
    /// [`SHARED_BUFFER`].
    pub buffer: &'static str,
    /// Address space of the access.
    pub space: Space,
    /// Access mode (plain / volatile / atomic).
    pub mode: AccessMode,
    /// Load, store, or read-modify-write.
    pub kind: AccessKind,
    /// Which elements each thread may touch.
    pub discipline: IndexDiscipline,
    /// Declared-disjoint region tag: entries of the *same* kernel and buffer
    /// with *different* region tags assert their element sets never overlap
    /// (e.g. APSP's pivot-row reads vs. owned-tile writes). The static
    /// checker trusts the declaration; the differential harness discharges
    /// it dynamically.
    pub region: Option<&'static str>,
    /// Barrier-phase tag for shared-memory entries: entries with different
    /// tags are separated by a block barrier, so they are ordered, not racy.
    pub phase: Option<u8>,
    /// For entries that participate in baseline races: the benign class the
    /// static checker assigns to conflicts involving this entry.
    pub benign: Option<BenignClass>,
}

impl FootprintEntry {
    /// A global-memory footprint entry.
    pub fn global(
        buffer: &'static str,
        mode: AccessMode,
        kind: AccessKind,
        discipline: IndexDiscipline,
    ) -> Self {
        FootprintEntry {
            buffer,
            space: Space::Global,
            mode,
            kind,
            discipline,
            region: None,
            phase: None,
            benign: None,
        }
    }

    /// A per-block shared-memory footprint entry.
    pub fn shared(mode: AccessMode, kind: AccessKind, discipline: IndexDiscipline) -> Self {
        FootprintEntry {
            buffer: SHARED_BUFFER,
            space: Space::Shared,
            mode,
            kind,
            discipline,
            region: None,
            phase: None,
            benign: None,
        }
    }

    /// Tags the entry with a declared-disjoint region.
    pub fn region(mut self, tag: &'static str) -> Self {
        self.region = Some(tag);
        self
    }

    /// Tags the entry with a barrier-phase number (shared memory).
    pub fn phase(mut self, phase: u8) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Assigns the benign class for conflicts involving this entry.
    pub fn benign(mut self, class: BenignClass) -> Self {
        self.benign = Some(class);
        self
    }

    /// One-line human description, used in violation messages and reports.
    pub fn describe(&self) -> String {
        let disc = match self.discipline {
            IndexDiscipline::OwnedByGlobalId { elem_bytes } => {
                format!("owned-by-global-id/{elem_bytes}B")
            }
            IndexDiscipline::OwnedRange { elem_bytes } => format!("owned-range/{elem_bytes}B"),
            IndexDiscipline::Arbitrary => "arbitrary".to_string(),
        };
        format!("{:?} {:?} {} [{disc}]", self.mode, self.kind, self.buffer)
    }
}

/// The declared access footprint of one kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelContract {
    /// Kernel name, as reported by [`crate::Kernel::name`].
    pub kernel: String,
    /// The complete set of allowed access shapes.
    pub entries: Vec<FootprintEntry>,
}

impl KernelContract {
    /// An empty contract for `kernel`.
    pub fn new(kernel: &str) -> Self {
        KernelContract {
            kernel: kernel.to_string(),
            entries: Vec::new(),
        }
    }

    /// Adds an entry (builder style). Duplicate shapes are kept once.
    pub fn entry(mut self, e: FootprintEntry) -> Self {
        if !self.entries.contains(&e) {
            self.entries.push(e);
        }
        self
    }

    /// Adds many entries (builder style).
    pub fn entries(mut self, es: impl IntoIterator<Item = FootprintEntry>) -> Self {
        for e in es {
            if !self.entries.contains(&e) {
                self.entries.push(e);
            }
        }
        self
    }
}

/// Ownership key for first-touch `OwnedRange` tracking: the allocation (or
/// shared window per block) plus the element index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OwnerKey {
    space: Space,
    /// Allocation base address (global) or block index (shared).
    base: u32,
    elem: u32,
}

/// The armed sanitizer: installed contracts plus per-launch state.
#[derive(Debug, Clone)]
pub(crate) struct SanitizerState {
    set: HashMap<String, KernelContract>,
    /// The launching kernel's entries, grouped by buffer; `None` when the
    /// kernel has no contract.
    launch: Option<LaunchFootprint>,
    owners: HashMap<OwnerKey, u32>,
}

/// One kernel's contract entries grouped by the buffer they name, resolved
/// at launch. Allocations and contracts cannot change while a launch runs,
/// so an access only ever scans the group of the buffer it lands in.
#[derive(Debug, Clone)]
struct LaunchFootprint {
    /// Entries naming each allocation, indexed like
    /// [`Memory::find_allocation`]; empty for unnamed allocations.
    by_allocation: Vec<Vec<FootprintEntry>>,
    /// Entries naming [`SHARED_BUFFER`].
    shared: Vec<FootprintEntry>,
}

impl SanitizerState {
    pub(crate) fn new(contracts: impl IntoIterator<Item = KernelContract>) -> Self {
        SanitizerState {
            set: contracts
                .into_iter()
                .map(|c| (c.kernel.clone(), c))
                .collect(),
            launch: None,
            owners: HashMap::new(),
        }
    }

    /// Resets per-launch state (first-touch ownership is scoped to one
    /// launch: launch boundaries order all accesses) and groups `kernel`'s
    /// contract entries by the buffers of `mem`.
    pub(crate) fn begin_launch(&mut self, kernel: &str, mem: &Memory) {
        self.owners.clear();
        self.launch = self.set.get(kernel).map(|contract| {
            let naming = |buffer: &str| -> Vec<FootprintEntry> {
                contract
                    .entries
                    .iter()
                    .filter(|e| e.buffer == buffer)
                    .cloned()
                    .collect()
            };
            LaunchFootprint {
                by_allocation: mem
                    .allocation_names()
                    .map(|name| name.map(naming).unwrap_or_default())
                    .collect(),
                shared: naming(SHARED_BUFFER),
            }
        });
    }

    /// Validates one dynamic access against the kernel's declared footprint.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check(
        &mut self,
        kernel: &str,
        space: Space,
        addr: u32,
        mode: AccessMode,
        kind: AccessKind,
        thread: u32,
        num_threads: u32,
        block: u32,
        mem: &Memory,
    ) -> Result<(), SimError> {
        let SanitizerState { launch, owners, .. } = self;
        let violation =
            |buffer: &str, offset: Option<u32>, declared: String| SimError::ContractViolation {
                kernel: kernel.to_string(),
                detail: Box::new(crate::error::ContractViolationDetail {
                    kernel: kernel.to_string(),
                    thread,
                    addr,
                    buffer: buffer.to_string(),
                    space,
                    mode,
                    kind,
                    offset,
                    declared,
                }),
            };
        let Some(footprint) = launch else {
            return Err(violation(
                "?",
                None,
                "no contract declared for this kernel".into(),
            ));
        };
        // Resolve the access to a named buffer, its entries, and an
        // ownership base.
        let (buffer, group, base, owner_base) = match space {
            Space::Shared => (SHARED_BUFFER, &footprint.shared, 0u32, block),
            Space::Global => {
                let Some((index, alloc)) = mem.find_allocation(addr) else {
                    return Err(violation(
                        "?",
                        None,
                        "address outside any allocation".into(),
                    ));
                };
                let Some(name) = alloc.name.as_deref() else {
                    return Err(violation(
                        "<unnamed>",
                        Some(addr - alloc.base),
                        "allocation has no name; contracts require named buffers".into(),
                    ));
                };
                // The name borrows from `mem`, which outlives this call.
                (
                    name,
                    &footprint.by_allocation[index],
                    alloc.base,
                    alloc.base,
                )
            }
        };
        let candidates = group
            .iter()
            .filter(|e| e.space == space && e.mode == mode && e.kind == kind);
        if candidates.clone().next().is_none() {
            let declared: Vec<String> = group.iter().map(FootprintEntry::describe).collect();
            let declared = if declared.is_empty() {
                format!("buffer '{buffer}' is not in the kernel's footprint")
            } else {
                declared.join(", ")
            };
            return Err(violation(buffer, Some(addr - base), declared));
        }
        // Stateless disciplines first; first-touch claims happen only when
        // nothing else admits the access.
        for e in candidates.clone() {
            match e.discipline {
                IndexDiscipline::Arbitrary => return Ok(()),
                IndexDiscipline::OwnedByGlobalId { elem_bytes } => {
                    let elem = (addr - base) / elem_bytes.max(1);
                    if elem % num_threads.max(1) == thread {
                        return Ok(());
                    }
                }
                IndexDiscipline::OwnedRange { .. } => {}
            }
        }
        for e in candidates.clone() {
            if let IndexDiscipline::OwnedRange { elem_bytes } = e.discipline {
                let elem = (addr - base) / elem_bytes.max(1);
                let key = OwnerKey {
                    space,
                    base: owner_base,
                    elem,
                };
                let owner = *owners.entry(key).or_insert(thread);
                if owner == thread {
                    return Ok(());
                }
            }
        }
        let declared = candidates
            .map(|e| e.describe())
            .collect::<Vec<_>>()
            .join(", ");
        Err(violation(
            buffer,
            Some(addr - base),
            format!("{declared}; element not owned by thread {thread}"),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::{AccessKind, AccessMode};
    use crate::config::GpuConfig;
    use crate::exec::{ForEach, LaunchConfig};
    use crate::host::Gpu;

    fn owned_store_contract(name: &str) -> KernelContract {
        KernelContract::new(name).entry(FootprintEntry::global(
            "data",
            AccessMode::Plain,
            AccessKind::Store,
            IndexDiscipline::OwnedByGlobalId { elem_bytes: 4 },
        ))
    }

    #[test]
    fn in_contract_launch_passes() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc_named::<u32>(512, "data");
        gpu.install_contracts([owned_store_contract("fill")]);
        gpu.launch(
            LaunchConfig::for_items(512),
            ForEach::new("fill", 512, move |ctx, i| {
                ctx.store(buf.at(i as usize), i);
            }),
        );
        assert_eq!(gpu.download(&buf)[17], 17);
    }

    #[test]
    fn out_of_contract_access_is_a_typed_violation() {
        // The contract says "each thread writes only its own elements"; the
        // kernel deliberately writes a neighbor's slot.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc_named::<u32>(512, "data");
        gpu.install_contracts([owned_store_contract("rogue")]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(512),
                ForEach::new("rogue", 512, move |ctx, i| {
                    let neighbor = (i as usize + 1) % 512;
                    ctx.store(buf.at(neighbor), i);
                }),
            )
            .unwrap_err();
        match err {
            SimError::ContractViolation { kernel, detail } => {
                assert_eq!(kernel, "rogue");
                assert_eq!(detail.buffer, "data");
            }
            other => panic!("expected ContractViolation, got {other:?}"),
        }
    }

    #[test]
    fn undeclared_mode_is_a_violation() {
        // Contract admits plain stores only; a volatile store must fail.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc_named::<u32>(64, "data");
        gpu.install_contracts([owned_store_contract("vol")]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(64),
                ForEach::new("vol", 64, move |ctx, i| {
                    ctx.store_volatile(buf.at(i as usize), i);
                }),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ContractViolation { .. }));
        assert!(err.to_string().contains("contract violation"));
    }

    #[test]
    fn unnamed_allocation_is_a_violation() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(64);
        gpu.install_contracts([owned_store_contract("anon")]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(64),
                ForEach::new("anon", 64, move |ctx, i| {
                    ctx.store(buf.at(i as usize), i);
                }),
            )
            .unwrap_err();
        assert!(err.to_string().contains("no name"));
    }

    #[test]
    fn padding_access_is_outside_any_allocation() {
        // The word after the last element lies in the allocation's padding:
        // inside the arena, but in no allocation.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc_named::<u32>(4, "data");
        gpu.install_contracts([owned_store_contract("pad")]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(1),
                ForEach::new("pad", 1, move |ctx, _| {
                    ctx.store(buf.as_ptr().offset(4), 1);
                }),
            )
            .unwrap_err();
        match err {
            SimError::ContractViolation { detail, .. } => {
                assert_eq!(detail.buffer, "?");
                assert_eq!(detail.offset, None);
                assert_eq!(detail.declared, "address outside any allocation");
            }
            other => panic!("expected ContractViolation, got {other:?}"),
        }
    }

    #[test]
    fn missing_contract_is_a_violation() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc_named::<u32>(64, "data");
        gpu.install_contracts([owned_store_contract("declared")]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(64),
                ForEach::new("undeclared", 64, move |ctx, i| {
                    ctx.store(buf.at(i as usize), i);
                }),
            )
            .unwrap_err();
        assert!(err.to_string().contains("no contract"));
    }

    #[test]
    fn owned_range_first_touch_allows_disjoint_claims() {
        // Each thread claims a slot from an atomic ticket counter — disjoint
        // at run time even though the slot is data-dependent.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let slots = gpu.alloc_named::<u32>(256, "slots");
        let ticket = gpu.alloc_named::<u32>(1, "ticket");
        let contract = KernelContract::new("claim")
            .entry(FootprintEntry::global(
                "ticket",
                AccessMode::Atomic,
                AccessKind::Rmw,
                IndexDiscipline::Arbitrary,
            ))
            .entry(FootprintEntry::global(
                "slots",
                AccessMode::Plain,
                AccessKind::Store,
                IndexDiscipline::OwnedRange { elem_bytes: 4 },
            ));
        gpu.install_contracts([contract]);
        gpu.launch(
            LaunchConfig::for_items(256),
            ForEach::new("claim", 256, move |ctx, i| {
                let slot = ctx.atomic_add_u32(ticket.at(0), 1);
                ctx.store(slots.at(slot as usize), i);
            }),
        );
        assert_eq!(gpu.download(&ticket)[0], 256);
    }

    #[test]
    fn owned_range_overlap_is_a_violation() {
        // Every thread writes slot 0: the second thread to touch it loses.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let slots = gpu.alloc_named::<u32>(4, "slots");
        let contract = KernelContract::new("clash").entry(FootprintEntry::global(
            "slots",
            AccessMode::Plain,
            AccessKind::Store,
            IndexDiscipline::OwnedRange { elem_bytes: 4 },
        ));
        gpu.install_contracts([contract]);
        let err = gpu
            .try_launch(
                LaunchConfig::for_items(64),
                ForEach::new("clash", 64, move |ctx, _| {
                    ctx.store(slots.at(0), 1);
                }),
            )
            .unwrap_err();
        assert!(matches!(err, SimError::ContractViolation { .. }));
    }

    #[test]
    fn clearing_contracts_disarms_the_sanitizer() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(64);
        gpu.install_contracts([owned_store_contract("free")]);
        gpu.clear_contracts();
        // Unnamed buffer + no contract: would violate if still armed.
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("free", 64, move |ctx, i| {
                ctx.store(buf.at(i as usize), i);
            }),
        );
        assert_eq!(gpu.download(&buf)[5], 5);
    }
}
