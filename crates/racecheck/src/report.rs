//! Race reports: deduplicated descriptions of detected conflicts.

use ecl_simt::{AccessKind, AccessMode, Space};
use std::fmt;

/// One side of a racing access pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RaceSite {
    /// Global thread id.
    pub thread: u32,
    /// Access mode (plain / volatile — atomics never appear on both sides).
    pub mode: AccessMode,
    /// Load / store / RMW.
    pub kind: AccessKind,
}

/// The flavor of a detected race.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RaceClass {
    /// Two non-atomic writes.
    WriteWrite,
    /// A non-atomic read concurrent with a write.
    ReadWrite,
    /// An atomic access concurrent with a non-atomic access to the same
    /// location — still a race per the CUDA memory model.
    MixedAtomic,
    /// Two atomic accesses whose scopes do not cover each other —
    /// block-scoped atomics issued from *different* blocks. Atomics only
    /// synchronize when each access's scope includes the other thread, so
    /// such a pair races exactly like plain accesses despite both sides
    /// being atomic (CUDA memory model §scopes; the paper's §II-A).
    ScopedAtomic,
}

/// A deduplicated data-race finding.
///
/// Reports are keyed by (kernel, allocation, race class, access modes):
/// millions of dynamic conflicts on the same array in the same kernel
/// collapse into one finding, the way Compute Sanitizer groups reports by
/// source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RaceReport {
    /// Kernel (launch) name where the race occurred.
    pub kernel: String,
    /// Address space of the racing location.
    pub space: Space,
    /// Base address of the allocation containing the racing address (the
    /// raw address for shared memory).
    pub allocation: u32,
    /// The allocation's name, when the code named it via `Gpu::alloc_named`.
    pub allocation_name: Option<String>,
    /// One racing byte address within the allocation (first seen).
    pub example_addr: u32,
    /// Classification.
    pub class: RaceClass,
    /// The two access descriptions (first seen pair).
    pub first: RaceSite,
    /// Second access of the example pair.
    pub second: RaceSite,
    /// How many dynamic conflicting pairs were folded into this report.
    pub occurrences: u64,
}

impl fmt::Display for RaceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let target = match &self.allocation_name {
            Some(name) => format!("array '{name}'"),
            None => format!("allocation {:#x}", self.allocation),
        };
        write!(
            f,
            "{:?} race in kernel '{}' on {:?} {} (addr {:#x}): \
             thread {} {:?} {:?} vs thread {} {:?} {:?} ({} occurrence(s))",
            self.class,
            self.kernel,
            self.space,
            target,
            self.example_addr,
            self.first.thread,
            self.first.mode,
            self.first.kind,
            self.second.thread,
            self.second.mode,
            self.second.kind,
            self.occurrences
        )
    }
}

impl RaceReport {
    /// Classifies a conflicting pair. Callers only pass pairs a detector has
    /// already found to conflict, so a both-atomic pair here means the
    /// atomics' scopes failed to cover each other (the detectors filter out
    /// properly-scoped atomic pairs before classification): that is
    /// [`RaceClass::ScopedAtomic`], not a mixed race — neither side is
    /// non-atomic.
    pub fn classify(a: (AccessMode, AccessKind), b: (AccessMode, AccessKind)) -> RaceClass {
        let a_atomic = a.0 == AccessMode::Atomic;
        let b_atomic = b.0 == AccessMode::Atomic;
        if a_atomic && b_atomic {
            RaceClass::ScopedAtomic
        } else if a_atomic || b_atomic {
            RaceClass::MixedAtomic
        } else if a.1.writes() && b.1.writes() {
            RaceClass::WriteWrite
        } else {
            RaceClass::ReadWrite
        }
    }
}

/// Formats a batch of reports as a human-readable summary: totals per
/// kernel and per race class, then the individual findings — the layout a
/// Compute-Sanitizer user expects.
pub fn format_summary(reports: &[RaceReport]) -> String {
    if reports.is_empty() {
        return "no data races detected\n".to_string();
    }
    let mut by_kernel: std::collections::BTreeMap<&str, (usize, u64)> =
        std::collections::BTreeMap::new();
    let mut by_class: std::collections::BTreeMap<&'static str, usize> =
        std::collections::BTreeMap::new();
    for r in reports {
        let e = by_kernel.entry(r.kernel.as_str()).or_insert((0, 0));
        e.0 += 1;
        e.1 += r.occurrences;
        let class = match r.class {
            RaceClass::WriteWrite => "write-write",
            RaceClass::ReadWrite => "read-write",
            RaceClass::MixedAtomic => "mixed-atomic",
            RaceClass::ScopedAtomic => "scoped-atomic",
        };
        *by_class.entry(class).or_insert(0) += 1;
    }
    let total_occurrences: u64 = reports.iter().map(|r| r.occurrences).sum();
    let mut out = format!(
        "{} data race finding(s), {} dynamic occurrence(s)\n\nper kernel:\n",
        reports.len(),
        total_occurrences
    );
    for (kernel, (findings, occurrences)) in by_kernel {
        out.push_str(&format!(
            "  {kernel:<24} {findings} finding(s), {occurrences} occurrence(s)\n"
        ));
    }
    out.push_str("\nper class:\n");
    for (class, count) in by_class {
        out.push_str(&format!("  {class:<24} {count}\n"));
    }
    out.push_str("\nfindings:\n");
    for r in reports {
        out.push_str(&format!("  {r}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        use AccessKind::*;
        use AccessMode::*;
        assert_eq!(
            RaceReport::classify((Plain, Store), (Plain, Store)),
            RaceClass::WriteWrite
        );
        assert_eq!(
            RaceReport::classify((Plain, Load), (Volatile, Store)),
            RaceClass::ReadWrite
        );
        assert_eq!(
            RaceReport::classify((Atomic, Rmw), (Plain, Load)),
            RaceClass::MixedAtomic
        );
        // A conflicting atomic-atomic pair can only mean a scope failure —
        // not "mixed", since neither side is non-atomic.
        assert_eq!(
            RaceReport::classify((Atomic, Rmw), (Atomic, Rmw)),
            RaceClass::ScopedAtomic
        );
    }

    /// Pins the full (mode, kind) × (mode, kind) classification matrix so a
    /// future edit to `classify` cannot silently relabel a class: both
    /// atomic → scoped-atomic, exactly one atomic → mixed-atomic, otherwise
    /// write-write iff both sides write, else read-write. Also pins symmetry.
    #[test]
    fn classification_matrix_is_pinned() {
        use AccessKind::*;
        use AccessMode::*;
        let modes = [Plain, Volatile, Atomic];
        let kinds = [Load, Store, Rmw];
        for &am in &modes {
            for &ak in &kinds {
                for &bm in &modes {
                    for &bk in &kinds {
                        let a = (am, ak);
                        let b = (bm, bk);
                        let expected = match (am == Atomic, bm == Atomic) {
                            (true, true) => RaceClass::ScopedAtomic,
                            (true, false) | (false, true) => RaceClass::MixedAtomic,
                            (false, false) => {
                                if ak.writes() && bk.writes() {
                                    RaceClass::WriteWrite
                                } else {
                                    RaceClass::ReadWrite
                                }
                            }
                        };
                        assert_eq!(
                            RaceReport::classify(a, b),
                            expected,
                            "classify({a:?}, {b:?})"
                        );
                        assert_eq!(
                            RaceReport::classify(a, b),
                            RaceReport::classify(b, a),
                            "classify must be symmetric for ({a:?}, {b:?})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn summary_names_scoped_atomic() {
        let site = RaceSite {
            thread: 0,
            mode: AccessMode::Atomic,
            kind: AccessKind::Rmw,
        };
        let reports = vec![RaceReport {
            kernel: "k".into(),
            space: Space::Global,
            allocation: 0,
            allocation_name: None,
            example_addr: 0,
            class: RaceClass::ScopedAtomic,
            first: site,
            second: site,
            occurrences: 1,
        }];
        assert!(format_summary(&reports).contains("scoped-atomic"));
    }

    #[test]
    fn summary_counts_and_groups() {
        let site = RaceSite {
            thread: 1,
            mode: AccessMode::Plain,
            kind: AccessKind::Load,
        };
        let reports = vec![
            RaceReport {
                kernel: "k1".into(),
                space: Space::Global,
                allocation: 0,
                allocation_name: None,
                example_addr: 0,
                class: RaceClass::ReadWrite,
                first: site,
                second: site,
                occurrences: 10,
            },
            RaceReport {
                kernel: "k1".into(),
                space: Space::Global,
                allocation: 64,
                allocation_name: None,
                example_addr: 64,
                class: RaceClass::WriteWrite,
                first: site,
                second: site,
                occurrences: 5,
            },
        ];
        let s = format_summary(&reports);
        assert!(s.contains("2 data race finding(s), 15 dynamic occurrence(s)"));
        assert!(s.contains("k1"));
        assert!(s.contains("read-write"));
        assert!(s.contains("write-write"));
        assert_eq!(format_summary(&[]), "no data races detected\n");
    }

    #[test]
    fn display_is_informative() {
        let r = RaceReport {
            kernel: "cc_compute".into(),
            space: Space::Global,
            allocation: 0x100,
            allocation_name: Some("label".into()),
            example_addr: 0x104,
            class: RaceClass::ReadWrite,
            first: RaceSite {
                thread: 1,
                mode: AccessMode::Plain,
                kind: AccessKind::Load,
            },
            second: RaceSite {
                thread: 2,
                mode: AccessMode::Plain,
                kind: AccessKind::Store,
            },
            occurrences: 42,
        };
        let s = r.to_string();
        assert!(s.contains("cc_compute"));
        assert!(s.contains("42"));
    }
}
