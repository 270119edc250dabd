//! Typed simulator errors and the panic-boundary plumbing that carries them
//! out of deeply nested kernel code.
//!
//! The simulator's execution core reports launch failures two ways:
//!
//! 1. **Control-flow errors** (watchdog, livelock, barrier divergence, fault
//!    budget) are detected by the scheduler loop and returned as
//!    `Result::Err` directly — no panic involved.
//! 2. **Data-path errors** (an out-of-bounds device access) are detected in
//!    the middle of a `Ctx` memory operation, far below any `Result` return
//!    path, and would otherwise abort the process. The executor stashes the
//!    typed error in a thread-local and unwinds; [`catch_sim`] (and
//!    [`crate::Gpu::try_launch`], which uses it) catches the unwind and
//!    converts it back into a typed `Err`.
//!
//! Panics that are *not* simulator errors (a kernel's own `assert!`, index
//! bugs in host code) pass through [`catch_sim`] untouched via
//! `resume_unwind`, so `#[should_panic]` tests and real bugs keep their
//! original messages.

use crate::access::AccessKind;
use std::cell::{Cell, RefCell};
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;

/// A launch-level simulator failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The launch exceeded its per-launch cycle budget (hung or runaway
    /// kernel). See [`crate::Gpu::set_watchdog`].
    WatchdogTimeout {
        /// Kernel name.
        kernel: String,
        /// The configured budget, in cycles.
        budget_cycles: u64,
        /// Cycles the busiest SM had accumulated when the watchdog fired.
        elapsed_cycles: u64,
    },
    /// A device thread accessed memory outside the allocated arena (or its
    /// block's shared-memory window).
    OutOfBounds {
        /// Kernel name.
        kernel: String,
        /// The faulting byte address.
        addr: u32,
        /// What the access was doing (load / store / rmw).
        access: AccessKind,
    },
    /// The fault-injection plan hit its configured maximum number of
    /// injected faults (see [`crate::fault::FaultPlan::with_max_faults`]).
    FaultBudgetExhausted {
        /// Kernel name.
        kernel: String,
        /// The configured budget.
        budget: u64,
    },
    /// The scheduler ran an implausible number of rounds without any thread
    /// finishing: some thread is spinning on a value no other thread will
    /// ever write.
    Livelock {
        /// Kernel name.
        kernel: String,
        /// Rounds executed before giving up.
        rounds: u64,
    },
    /// A thread exited while its block siblings waited at a barrier —
    /// undefined behavior on real hardware.
    BarrierDivergence {
        /// Kernel name.
        kernel: String,
        /// The diverging block.
        block: u32,
    },
    /// The host-side wall-clock deadline expired while the launch was still
    /// running (see [`crate::Gpu::set_deadline`]). Unlike the cycle-budget
    /// watchdog this is a *real-time* bound: isolated sweep workers arm it
    /// from their cell budget so a runaway launch dies as a typed error
    /// before the parent has to SIGKILL the whole process.
    DeadlineExceeded {
        /// Kernel name.
        kernel: String,
    },
    /// A device access fell outside the kernel's declared access contract
    /// while the sanitizer was armed (see [`crate::Gpu::install_contracts`]).
    ContractViolation {
        /// Kernel name.
        kernel: String,
        /// The where/what of the violation, boxed so the happy-path
        /// `Result` size stays small (the detail carries three strings).
        detail: Box<ContractViolationDetail>,
    },
}

/// The payload of a [`SimError::ContractViolation`]: everything needed to
/// act on a sanitizer failure without a debugger — which kernel, which
/// buffer, and the offending access as typed fields (space, mode, kind,
/// element offset) rather than a pre-baked string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ContractViolationDetail {
    /// Kernel the violating access occurred in.
    pub kernel: String,
    /// The faulting thread's global id.
    pub thread: u32,
    /// The faulting byte address (a byte offset for shared memory).
    pub addr: u32,
    /// Name of the buffer touched (or `?` when unresolvable).
    pub buffer: String,
    /// Address space of the access.
    pub space: crate::sink::Space,
    /// Access mode the faulting operation issued.
    pub mode: crate::access::AccessMode,
    /// What the faulting operation did (load/store/RMW).
    pub kind: AccessKind,
    /// Byte offset of the access within the buffer, when the address
    /// resolved to a named allocation (`None` for stray addresses).
    pub offset: Option<u32>,
    /// The declared footprint the access was checked against.
    pub declared: String,
}

impl std::fmt::Display for ContractViolationDetail {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "kernel '{}': {:?} {:?} on {:?} '{}' at {:#x}",
            self.kernel, self.mode, self.kind, self.space, self.buffer, self.addr
        )?;
        if let Some(off) = self.offset {
            write!(f, " (byte offset {off})")?;
        }
        write!(
            f,
            " by thread {}, but the declared footprint is: {}",
            self.thread, self.declared
        )
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::WatchdogTimeout {
                kernel,
                budget_cycles,
                elapsed_cycles,
            } => write!(
                f,
                "kernel '{kernel}' exceeded its watchdog budget of {budget_cycles} cycles \
                 ({elapsed_cycles} elapsed): killed"
            ),
            SimError::OutOfBounds {
                kernel,
                addr,
                access,
            } => write!(
                f,
                "kernel '{kernel}': out-of-bounds {access:?} at device address {addr:#x}"
            ),
            SimError::FaultBudgetExhausted { kernel, budget } => write!(
                f,
                "kernel '{kernel}': fault budget exhausted ({budget} injected faults)"
            ),
            SimError::Livelock { kernel, rounds } => write!(
                f,
                "kernel '{kernel}' exceeded {rounds} scheduler rounds: livelocked \
                 (a thread is spinning on a value no other thread will write)"
            ),
            SimError::BarrierDivergence { kernel, block } => write!(
                f,
                "kernel '{kernel}': block {block} reached a barrier while sibling threads \
                 already exited (barrier divergence, undefined behavior on a GPU)"
            ),
            SimError::DeadlineExceeded { kernel } => write!(
                f,
                "kernel '{kernel}': host wall-clock deadline expired mid-launch: killed"
            ),
            SimError::ContractViolation { detail, .. } => {
                write!(f, "access contract violation: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

thread_local! {
    /// The typed error carried across a panic unwind, if any.
    static STASHED: RefCell<Option<SimError>> = const { RefCell::new(None) };
    /// Nesting depth of active [`catch_sim`] regions on this thread; the
    /// panic hook stays quiet for simulator-error panics inside a region.
    static CATCH_DEPTH: Cell<u32> = const { Cell::new(0) };
    /// Nesting depth of active [`catch_any`] regions, where ALL panic
    /// printing is suppressed (crashes are expected data there).
    static SUPPRESS_ALL: Cell<u32> = const { Cell::new(0) };
}

static HOOK: Once = Once::new();

/// Installs (once, process-wide) a panic hook that suppresses the default
/// "thread panicked" report for panics that carry a stashed [`SimError`] and
/// will be caught by an enclosing [`catch_sim`]. All other panics print as
/// usual.
fn install_hook() {
    HOOK.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            let quiet = SUPPRESS_ALL.with(|d| d.get()) > 0
                || (CATCH_DEPTH.with(|d| d.get()) > 0 && STASHED.with(|s| s.borrow().is_some()));
            if !quiet {
                previous(info);
            }
        }));
    });
}

/// Stashes a typed error for the enclosing [`catch_sim`] region (if any) to
/// pick up after an unwind. Used by [`crate::Gpu::launch`] so the typed
/// error survives its panic, and by [`raise`].
pub(crate) fn stash(e: SimError) {
    STASHED.with(|s| *s.borrow_mut() = Some(e));
}

fn take_stashed() -> Option<SimError> {
    STASHED.with(|s| s.borrow_mut().take())
}

/// Raises a typed simulator error from deep inside kernel execution by
/// stashing it and unwinding. Must only be called under a [`catch_sim`]
/// region (all kernel code runs under [`crate::Gpu::try_launch`], which
/// provides one).
pub(crate) fn raise(e: SimError) -> ! {
    stash(e.clone());
    // The payload also carries the message so a `raise` that somehow escapes
    // every catch region still identifies itself.
    panic::panic_any(e.to_string());
}

/// Runs `f`, converting a simulator-error unwind back into `Err(SimError)`.
///
/// Panics that do not carry a [`SimError`] (ordinary bugs, kernel asserts)
/// are propagated unchanged with `resume_unwind`. Nested regions are fine:
/// the innermost catch wins.
///
/// This is what lets a suite runner execute a whole algorithm — dozens of
/// internal `Gpu::launch` calls it does not control — and still observe a
/// watchdog timeout or out-of-bounds fault as a typed error:
///
/// ```
/// use ecl_simt::{catch_sim, ForEach, Gpu, GpuConfig, LaunchConfig, SimError};
///
/// let mut gpu = Gpu::new(GpuConfig::test_tiny());
/// gpu.set_watchdog(Some(1));
/// let buf = gpu.alloc::<u32>(64);
/// let outcome = catch_sim(|| {
///     gpu.launch(
///         LaunchConfig::for_items(64),
///         ForEach::new("w", 64, move |ctx, i| ctx.store(buf.at(i as usize), i)),
///     );
/// });
/// assert!(matches!(outcome, Err(SimError::WatchdogTimeout { .. })));
/// ```
pub fn catch_sim<T>(f: impl FnOnce() -> T) -> Result<T, SimError> {
    install_hook();
    let _ = take_stashed();
    CATCH_DEPTH.with(|d| d.set(d.get() + 1));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    CATCH_DEPTH.with(|d| d.set(d.get() - 1));
    match outcome {
        Ok(v) => Ok(v),
        Err(payload) => match take_stashed() {
            Some(e) => Err(e),
            None => panic::resume_unwind(payload),
        },
    }
}

/// Runs `f`, converting *any* panic — a typed [`SimError`] or an ordinary
/// one — into an error message. Unlike [`catch_sim`], nothing propagates and
/// nothing is printed: inside the region, crashes are expected data, not
/// bugs. This is the contract a resilient suite runner needs — a fault plan
/// can corrupt an index before it is used in host code, and that crash must
/// become a retriable outcome rather than a process abort.
pub fn catch_any<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_hook();
    let _ = take_stashed();
    SUPPRESS_ALL.with(|d| d.set(d.get() + 1));
    let outcome = panic::catch_unwind(AssertUnwindSafe(f));
    SUPPRESS_ALL.with(|d| d.set(d.get() - 1));
    match outcome {
        Ok(v) => Ok(v),
        Err(payload) => Err(match take_stashed() {
            Some(e) => e.to_string(),
            None => payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "panicked with a non-string payload".to_string()),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_texts_are_stable() {
        // Existing #[should_panic(expected = "livelocked")] tests key on
        // these substrings; keep them stable.
        let e = SimError::Livelock {
            kernel: "spin".into(),
            rounds: 4_000_000,
        };
        assert!(e.to_string().contains("livelocked"));
        let e = SimError::BarrierDivergence {
            kernel: "b".into(),
            block: 3,
        };
        assert!(e.to_string().contains("barrier divergence"));
        let e = SimError::WatchdogTimeout {
            kernel: "w".into(),
            budget_cycles: 10,
            elapsed_cycles: 11,
        };
        assert!(e.to_string().contains("watchdog"));
        let e = SimError::DeadlineExceeded { kernel: "d".into() };
        assert!(e.to_string().contains("deadline"));
        let e = SimError::ContractViolation {
            kernel: "c".into(),
            detail: Box::new(ContractViolationDetail {
                kernel: "c".into(),
                thread: 3,
                addr: 0x100,
                buffer: "label".into(),
                space: crate::sink::Space::Global,
                mode: crate::access::AccessMode::Volatile,
                kind: AccessKind::Store,
                offset: Some(256),
                declared: "Plain Store label [arbitrary]".into(),
            }),
        };
        let text = e.to_string();
        assert!(text.contains("contract violation"));
        // The payload's own Display carries the actionable fields: kernel,
        // buffer, and the offending access (space, mode, kind, offset).
        for needle in [
            "kernel 'c'",
            "'label'",
            "Global",
            "Volatile",
            "Store",
            "byte offset 256",
            "thread 3",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in: {text}");
        }
    }

    #[test]
    fn catch_sim_returns_value() {
        assert_eq!(catch_sim(|| 41 + 1), Ok(42));
    }

    #[test]
    fn catch_sim_catches_raised_errors() {
        let r: Result<(), _> = catch_sim(|| {
            raise(SimError::OutOfBounds {
                kernel: "k".into(),
                addr: 0xdead,
                access: AccessKind::Load,
            })
        });
        assert_eq!(
            r,
            Err(SimError::OutOfBounds {
                kernel: "k".into(),
                addr: 0xdead,
                access: AccessKind::Load,
            })
        );
    }

    #[test]
    fn catch_sim_passes_other_panics_through() {
        let caught = std::panic::catch_unwind(|| {
            let _: Result<(), _> = catch_sim(|| panic!("ordinary bug"));
        });
        let payload = caught.unwrap_err();
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "ordinary bug");
    }

    #[test]
    fn catch_any_reports_both_kinds() {
        let sim: Result<(), _> = catch_any(|| {
            raise(SimError::WatchdogTimeout {
                kernel: "w".into(),
                budget_cycles: 5,
                elapsed_cycles: 9,
            })
        });
        assert!(sim.unwrap_err().contains("watchdog"));
        let host: Result<(), _> = catch_any(|| panic!("index 9 out of range"));
        assert_eq!(host.unwrap_err(), "index 9 out of range");
        assert_eq!(catch_any(|| 7), Ok(7));
    }

    #[test]
    fn nested_catch_innermost_wins() {
        let outer: Result<Result<(), SimError>, SimError> = catch_sim(|| {
            catch_sim(|| {
                raise(SimError::Livelock {
                    kernel: "n".into(),
                    rounds: 1,
                })
            })
        });
        assert!(matches!(outer, Ok(Err(SimError::Livelock { .. }))));
    }
}
