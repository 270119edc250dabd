//! Access-level kernel IR: each kernel's per-thread body as a typed op list.
//!
//! The suite's kernels are closures — fast to interpret, opaque to tooling.
//! This module adds the transformable representation ROADMAP item 1 asks
//! for: a [`KernelIr`] lists every *shape* of shared-memory access the
//! kernel body issues ([`AccessOp`]: load/store/monotonic-update/flag/RMW
//! with address space, width, access mode, index discipline, and the
//! region/phase markers the static checker consumes). The closure path stays
//! the execution backend; the IR is the single source of truth that
//!
//! - **lowers** to the kernel's [`KernelContract`] ([`KernelIr::lower`]),
//!   the suite's only source of contracts (a committed rendering of every
//!   lowered entry, plus the census, sanitizer, and differential tests, pin
//!   the result), and
//! - **drives execution** of synthesized variants: a [`ModeTable`] derived
//!   from a (possibly repaired) IR tells the `IrDriven` access policy in
//!   `ecl-core` which [`AccessMode`] each policy-mediated site must use,
//!   so a repaired IR runs without writing new kernel code.
//!
//! The repair pass in `ecl-analyze` rewrites flagged [`AccessOp`]s from
//! plain/volatile to relaxed atomics (the paper's §III recipe, including the
//! typecast-and-mask byte transform and the packed-pair half updates) and
//! re-lowers, giving a machine-checkable path from detector output to a
//! verified race-free variant.

use std::collections::HashMap;

use crate::access::{AccessKind, AccessMode};
use crate::contract::{BenignClass, FootprintEntry, IndexDiscipline, KernelContract};
use crate::mem::Memory;
use crate::sink::Space;

/// What a kernel does to a buffer at one access site.
///
/// `Update` and `Flag` are *composite* shapes: they name the paper's
/// monotonic max-update and idempotent flag-raise idioms, whose lowering
/// (and repair) differs from a bare load or store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// A read of the value.
    Load,
    /// A write of a computed value.
    Store,
    /// A monotonic max-update: racy load + conditional store in the
    /// baselines, one `atomicMax` when the mode is atomic.
    Update,
    /// Raising a flag to the constant 1 — idempotent under any interleaving.
    Flag,
    /// An intrinsically atomic read-modify-write (tickets, CAS hooks,
    /// counters): atomic in every variant, never a repair target.
    Rmw,
}

/// Access width at the site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpWidth {
    /// A byte element of a `u8` array (MIS statuses, MST edge flags).
    /// Atomic-mode byte accesses use the paper's Fig. 3–4 typecast-and-mask
    /// transform on the containing word.
    B1,
    /// A `u32` word.
    B4,
    /// A `u64` double word.
    B8,
    /// One `u32` half of a pair packed in a `u64` (SCC's `int2`, Fig. 5).
    Pair,
}

impl OpWidth {
    /// Bytes per element of the underlying array.
    pub fn elem_bytes(self) -> u32 {
        match self {
            OpWidth::B1 => 1,
            OpWidth::B4 => 4,
            OpWidth::B8 | OpWidth::Pair => 8,
        }
    }
}

/// One access site of a kernel body: the complete static description the
/// checker, the sanitizer, and the repair pass need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessOp {
    /// Named allocation ([`crate::Gpu::alloc_named`]) or
    /// [`crate::contract::SHARED_BUFFER`].
    pub buffer: &'static str,
    /// Address space.
    pub space: Space,
    /// What the site does.
    pub kind: OpKind,
    /// Element width.
    pub width: OpWidth,
    /// The access mode the site issues (for `Rmw` always atomic).
    pub mode: AccessMode,
    /// Which elements each thread may touch.
    pub discipline: IndexDiscipline,
    /// Declared-disjoint region tag (see [`FootprintEntry::region`]).
    pub region: Option<&'static str>,
    /// Barrier-phase tag for shared-memory sites.
    pub phase: Option<u8>,
    /// Benign class for baseline conflicts involving this site.
    pub benign: Option<BenignClass>,
    /// `true` when the site is issued through the `AccessPolicy` layer and
    /// the repair pass may rewrite its mode. `false` for sites the kernel
    /// body hard-codes (CSR structure loads, launch-ordered init stores,
    /// ticketed worklist slots) — rewriting those would require new kernel
    /// code, and the detector never flags them.
    pub repairable: bool,
}

impl AccessOp {
    fn new(
        buffer: &'static str,
        kind: OpKind,
        width: OpWidth,
        mode: AccessMode,
        discipline: IndexDiscipline,
    ) -> Self {
        AccessOp {
            buffer,
            space: Space::Global,
            kind,
            width,
            mode,
            discipline,
            region: None,
            phase: None,
            benign: None,
            repairable: !matches!(kind, OpKind::Rmw),
        }
    }

    /// A global-memory load site.
    pub fn load(
        buffer: &'static str,
        width: OpWidth,
        mode: AccessMode,
        discipline: IndexDiscipline,
    ) -> Self {
        AccessOp::new(buffer, OpKind::Load, width, mode, discipline)
    }

    /// A global-memory store site.
    pub fn store(
        buffer: &'static str,
        width: OpWidth,
        mode: AccessMode,
        discipline: IndexDiscipline,
    ) -> Self {
        AccessOp::new(buffer, OpKind::Store, width, mode, discipline)
    }

    /// A monotonic max-update site. The baselines read, test, and write
    /// non-atomically over arbitrary indices; the atomic mode is one RMW.
    pub fn update(buffer: &'static str, width: OpWidth, mode: AccessMode) -> Self {
        AccessOp::new(
            buffer,
            OpKind::Update,
            width,
            mode,
            IndexDiscipline::Arbitrary,
        )
    }

    /// A flag-raise site (store of the constant 1, idempotent).
    pub fn flag(buffer: &'static str, mode: AccessMode) -> Self {
        AccessOp::new(
            buffer,
            OpKind::Flag,
            OpWidth::B4,
            mode,
            IndexDiscipline::Arbitrary,
        )
        .benign(BenignClass::IdempotentWrite)
    }

    /// An intrinsically atomic read-modify-write site (never repairable).
    pub fn rmw(buffer: &'static str) -> Self {
        AccessOp::new(
            buffer,
            OpKind::Rmw,
            OpWidth::B4,
            AccessMode::Atomic,
            IndexDiscipline::Arbitrary,
        )
    }

    /// Moves the site to per-block shared memory.
    pub fn shared(mut self) -> Self {
        self.space = Space::Shared;
        self.buffer = crate::contract::SHARED_BUFFER;
        self
    }

    /// Tags the site with a declared-disjoint region.
    pub fn region(mut self, tag: &'static str) -> Self {
        self.region = Some(tag);
        self
    }

    /// Tags the site with a barrier-phase number.
    pub fn phase(mut self, phase: u8) -> Self {
        self.phase = Some(phase);
        self
    }

    /// Assigns the benign class for baseline conflicts at this site.
    pub fn benign(mut self, class: BenignClass) -> Self {
        self.benign = Some(class);
        self
    }

    /// Marks the site as hard-coded in the kernel body (not policy-mediated,
    /// not a repair target).
    pub fn fixed(mut self) -> Self {
        self.repairable = false;
        self
    }

    /// Rewrites the site's mode to relaxed atomic — the repair pass's one
    /// transform. Returns `true` if the mode changed.
    ///
    /// # Panics
    ///
    /// Panics if the site is not repairable; callers must filter on
    /// [`AccessOp::repairable`] first.
    pub fn make_atomic(&mut self) -> bool {
        assert!(self.repairable, "cannot repair a fixed access site");
        if self.mode == AccessMode::Atomic {
            return false;
        }
        self.mode = AccessMode::Atomic;
        true
    }

    /// True when the atomic form of this site needs the typecast-and-mask
    /// (sub-word) or pair-half transform rather than a same-width atomic.
    pub fn needs_mask_transform(&self) -> bool {
        matches!(self.width, OpWidth::B1 | OpWidth::Pair)
    }

    fn entry(
        &self,
        mode: AccessMode,
        kind: AccessKind,
        discipline: IndexDiscipline,
    ) -> FootprintEntry {
        let mut e = match self.space {
            Space::Global => FootprintEntry::global(self.buffer, mode, kind, discipline),
            Space::Shared => FootprintEntry::shared(mode, kind, discipline),
        };
        if let Some(tag) = self.region {
            e = e.region(tag);
        }
        if let Some(p) = self.phase {
            e = e.phase(p);
        }
        e
    }

    fn entry_benign(
        &self,
        mode: AccessMode,
        kind: AccessKind,
        discipline: IndexDiscipline,
    ) -> FootprintEntry {
        let e = self.entry(mode, kind, discipline);
        match self.benign {
            Some(class) => e.benign(class),
            None => e,
        }
    }

    /// Lowers the op to the footprint entries the closure backend actually
    /// issues for it — the shapes the hand-written contract builders
    /// declared before the IR existed. Composite ops expand:
    ///
    /// - atomic byte loads read the containing word (Fig. 3b), so the entry
    ///   widens to an arbitrary-index word load;
    /// - atomic byte stores are an `atomicAnd` or a load+CAS loop on the
    ///   containing word (Fig. 4b): an atomic load plus an atomic RMW;
    /// - atomic updates become an atomic load + `atomicMax` pair, while
    ///   non-atomic updates are the racy load + conditional store (both
    ///   halves benign-tagged);
    /// - flags lower to their store.
    pub fn lower(&self) -> Vec<FootprintEntry> {
        use AccessKind::{Load, Rmw, Store};
        let atomic = self.mode == AccessMode::Atomic;
        match self.kind {
            OpKind::Load => {
                if self.width == OpWidth::B1 && atomic {
                    // The word load spans four threads' bytes: any owned
                    // discipline on the byte array dissolves to Arbitrary.
                    vec![self.entry_benign(AccessMode::Atomic, Load, IndexDiscipline::Arbitrary)]
                } else {
                    vec![self.entry_benign(self.mode, Load, self.discipline)]
                }
            }
            OpKind::Store => {
                if self.width == OpWidth::B1 && atomic {
                    vec![
                        self.entry_benign(AccessMode::Atomic, Load, IndexDiscipline::Arbitrary),
                        self.entry_benign(AccessMode::Atomic, Rmw, IndexDiscipline::Arbitrary),
                    ]
                } else {
                    vec![self.entry_benign(self.mode, Store, self.discipline)]
                }
            }
            OpKind::Update => {
                if atomic {
                    // One atomicMax per update; the load entry admits the
                    // read half of read-then-max idioms. The race is gone,
                    // so no benign tag survives the conversion.
                    vec![
                        self.entry(AccessMode::Atomic, Load, IndexDiscipline::Arbitrary),
                        self.entry(AccessMode::Atomic, Rmw, IndexDiscipline::Arbitrary),
                    ]
                } else {
                    vec![
                        self.entry_benign(self.mode, Load, IndexDiscipline::Arbitrary),
                        self.entry_benign(self.mode, Store, IndexDiscipline::Arbitrary),
                    ]
                }
            }
            OpKind::Flag => vec![self.entry_benign(self.mode, Store, IndexDiscipline::Arbitrary)],
            OpKind::Rmw => {
                vec![self.entry_benign(AccessMode::Atomic, Rmw, IndexDiscipline::Arbitrary)]
            }
        }
    }
}

/// The access-level IR of one kernel: its name plus every access site of
/// its per-thread body, in program order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelIr {
    /// Kernel name, as reported by [`crate::Kernel::name`].
    pub kernel: &'static str,
    /// The body's access sites in program order.
    pub ops: Vec<AccessOp>,
}

impl KernelIr {
    /// An empty IR for `kernel`.
    pub fn new(kernel: &'static str) -> Self {
        KernelIr {
            kernel,
            ops: Vec::new(),
        }
    }

    /// Appends an op (builder style).
    pub fn op(mut self, op: AccessOp) -> Self {
        self.ops.push(op);
        self
    }

    /// Appends many ops (builder style).
    pub fn ops(mut self, ops: impl IntoIterator<Item = AccessOp>) -> Self {
        self.ops.extend(ops);
        self
    }

    /// Lowers the IR to the kernel's declared contract. Duplicate lowered
    /// shapes collapse to the first occurrence, exactly as the hand-written
    /// `KernelContract` builders behaved.
    pub fn lower(&self) -> KernelContract {
        KernelContract::new(self.kernel).entries(self.ops.iter().flat_map(AccessOp::lower))
    }

    /// The ops the repair pass may rewrite.
    pub fn repairable_ops(&self) -> impl Iterator<Item = &AccessOp> {
        self.ops.iter().filter(|o| o.repairable)
    }
}

/// Lowers a whole pipeline of kernel IRs to contracts.
pub fn lower_all(irs: &[KernelIr]) -> Vec<KernelContract> {
    irs.iter().map(KernelIr::lower).collect()
}

/// The access modes one `(kernel, buffer)` group's policy-mediated sites
/// use: reads and writes may differ (the baseline MIS reads `volatile` but
/// writes plain — the split the paper blames for its slowdown).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModePair {
    /// Mode for loads (and the read half of updates).
    pub read: AccessMode,
    /// Mode for stores, flag raises, and the write half of updates.
    pub write: AccessMode,
}

/// Per-`(kernel, buffer)` access-mode dispatch table, derived from a kernel
/// IR and installed on a device ([`crate::Gpu::install_mode_table`]) to
/// execute that IR through the `IrDriven` access policy: every
/// policy-mediated access looks up the mode the IR prescribes for its
/// kernel and buffer. Missing entries are a *bug in the IR* (a
/// policy-mediated site the IR does not describe), so lookups are expected
/// to be total; `IrDriven` panics loudly on a miss rather than guessing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ModeTable {
    entries: HashMap<(String, String), ModePair>,
}

impl ModeTable {
    /// An empty table (every policy-mediated access panics — only usable
    /// for kernels with no policy-mediated sites, like APSP).
    pub fn new() -> Self {
        ModeTable::default()
    }

    /// Derives the dispatch table from an IR pipeline: one [`ModePair`] per
    /// `(kernel, buffer)` with at least one repairable op.
    ///
    /// # Panics
    ///
    /// Panics if two repairable ops of the same kernel and buffer disagree
    /// on the mode for the same side (the repair pass flips whole groups, so
    /// a disagreement means a malformed IR).
    pub fn from_ir(irs: &[KernelIr]) -> Self {
        // Collect each side separately so a read-only group still gets a
        // coherent write mode (and vice versa) without false conflicts.
        let mut sides: HashMap<(String, String), (Option<AccessMode>, Option<AccessMode>)> =
            HashMap::new();
        for ir in irs {
            for op in ir.repairable_ops() {
                let (read, write) = match op.kind {
                    OpKind::Load => (Some(op.mode), None),
                    OpKind::Store | OpKind::Flag => (None, Some(op.mode)),
                    OpKind::Update => (Some(op.mode), Some(op.mode)),
                    OpKind::Rmw => unreachable!("rmw ops are never repairable"),
                };
                let slot = sides
                    .entry((ir.kernel.to_string(), op.buffer.to_string()))
                    .or_default();
                slot.0 = reconcile(slot.0, read, ir.kernel, op.buffer, "read");
                slot.1 = reconcile(slot.1, write, ir.kernel, op.buffer, "write");
            }
        }
        let entries = sides
            .into_iter()
            .map(|(key, (read, write))| {
                let pair = ModePair {
                    read: read.or(write).unwrap(),
                    write: write.or(read).unwrap(),
                };
                (key, pair)
            })
            .collect();
        ModeTable { entries }
    }

    /// Looks up the modes for one `(kernel, buffer)` group.
    pub fn get(&self, kernel: &str, buffer: &str) -> Option<ModePair> {
        self.entries
            .get(&(kernel.to_string(), buffer.to_string()))
            .copied()
    }

    /// The entries for `kernel`, one per allocation of `mem` and indexed
    /// like [`Memory::find_allocation`]: what a launch of `kernel` looks
    /// up instead of the table.
    pub(crate) fn resolve(&self, kernel: &str, mem: &Memory) -> Vec<Option<ModePair>> {
        mem.allocation_names()
            .map(|name| self.get(kernel, name?))
            .collect()
    }

    /// Number of `(kernel, buffer)` groups in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no group is mapped.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The groups in deterministic (sorted) order, for reports.
    pub fn groups(&self) -> Vec<(String, String, ModePair)> {
        let mut v: Vec<_> = self
            .entries
            .iter()
            .map(|((k, b), m)| (k.clone(), b.clone(), *m))
            .collect();
        v.sort_by(|a, b| (&a.0, &a.1).cmp(&(&b.0, &b.1)));
        v
    }
}

fn reconcile(
    old: Option<AccessMode>,
    new: Option<AccessMode>,
    kernel: &str,
    buffer: &str,
    side: &str,
) -> Option<AccessMode> {
    match (old, new) {
        (Some(a), Some(b)) => {
            assert!(
                a == b,
                "mode table conflict: {kernel}/{buffer} {side}s both {a:?} and {b:?}"
            );
            Some(a)
        }
        (a, b) => a.or(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessKind;

    #[test]
    fn plain_word_ops_lower_to_single_entries() {
        let own4 = IndexDiscipline::OwnedByGlobalId { elem_bytes: 4 };
        let op = AccessOp::store("label", OpWidth::B4, AccessMode::Plain, own4);
        let lowered = op.lower();
        assert_eq!(lowered.len(), 1);
        assert_eq!(lowered[0].mode, AccessMode::Plain);
        assert_eq!(lowered[0].kind, AccessKind::Store);
        assert_eq!(lowered[0].discipline, own4);
    }

    #[test]
    fn atomic_byte_store_lowers_to_word_load_plus_rmw() {
        let own1 = IndexDiscipline::OwnedByGlobalId { elem_bytes: 1 };
        let op = AccessOp::store("stat", OpWidth::B1, AccessMode::Atomic, own1);
        let lowered = op.lower();
        assert_eq!(lowered.len(), 2);
        assert_eq!(lowered[0].kind, AccessKind::Load);
        assert_eq!(lowered[1].kind, AccessKind::Rmw);
        // The containing word spans other threads' bytes.
        assert!(lowered
            .iter()
            .all(|e| e.discipline == IndexDiscipline::Arbitrary));
        assert!(lowered.iter().all(|e| e.mode == AccessMode::Atomic));
    }

    #[test]
    fn update_drops_benign_tag_when_atomic() {
        let racy = AccessOp::update("pair", OpWidth::Pair, AccessMode::Plain)
            .benign(BenignClass::MonotonicUpdate);
        let racy_entries = racy.lower();
        assert!(racy_entries.iter().all(|e| e.benign.is_some()));
        let mut fixed = racy.clone();
        assert!(fixed.make_atomic());
        let fixed_entries = fixed.lower();
        assert_eq!(fixed_entries.len(), 2);
        assert!(fixed_entries.iter().all(|e| e.benign.is_none()));
        assert_eq!(fixed_entries[1].kind, AccessKind::Rmw);
    }

    #[test]
    fn rmw_ops_are_not_repairable() {
        assert!(!AccessOp::rmw("count").repairable);
        assert!(
            AccessOp::load(
                "x",
                OpWidth::B4,
                AccessMode::Plain,
                IndexDiscipline::Arbitrary
            )
            .repairable
        );
    }

    #[test]
    fn lowering_dedups_like_the_contract_builders() {
        let arb = IndexDiscipline::Arbitrary;
        let ir = KernelIr::new("k")
            .op(AccessOp::load("a", OpWidth::B4, AccessMode::Plain, arb))
            .op(AccessOp::load("a", OpWidth::B4, AccessMode::Plain, arb));
        assert_eq!(ir.lower().entries.len(), 1);
    }

    #[test]
    fn mode_table_splits_read_and_write_sides() {
        let arb = IndexDiscipline::Arbitrary;
        let ir = KernelIr::new("poll")
            .op(AccessOp::load(
                "stat",
                OpWidth::B1,
                AccessMode::Volatile,
                arb,
            ))
            .op(AccessOp::store("stat", OpWidth::B1, AccessMode::Plain, arb));
        let table = ModeTable::from_ir(&[ir]);
        let pair = table.get("poll", "stat").unwrap();
        assert_eq!(pair.read, AccessMode::Volatile);
        assert_eq!(pair.write, AccessMode::Plain);
        assert!(table.get("poll", "other").is_none());
    }

    #[test]
    #[should_panic(expected = "mode table conflict")]
    fn mode_table_rejects_incoherent_sides() {
        let arb = IndexDiscipline::Arbitrary;
        let ir = KernelIr::new("k")
            .op(AccessOp::store("b", OpWidth::B4, AccessMode::Plain, arb))
            .op(AccessOp::store("b", OpWidth::B4, AccessMode::Atomic, arb));
        ModeTable::from_ir(&[ir]);
    }

    #[test]
    fn fixed_ops_stay_out_of_the_mode_table() {
        let own4 = IndexDiscipline::OwnedByGlobalId { elem_bytes: 4 };
        let ir = KernelIr::new("init").op(AccessOp::store(
            "scc_id",
            OpWidth::B4,
            AccessMode::Plain,
            own4,
        )
        .fixed());
        assert!(ModeTable::from_ir(&[ir]).is_empty());
    }
}
