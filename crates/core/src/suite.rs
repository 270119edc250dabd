//! Unified entry point: run any of the six codes in either variant and get
//! a verified, profiled result — plus a resilient runner that retries runs
//! whose results were corrupted (or whose launches were killed) by injected
//! faults.

use crate::common::SimOptions;
use crate::primitives::{AccessPolicy, Atomic, IrDriven, Plain, Volatile, VolatileReadPlainWrite};
use crate::{apsp, cc, gc, mis, mst, scc};
use ecl_graph::Csr;
use ecl_native::{Baseline as NativeBaseline, NativePolicy, RaceFree as NativeRaceFree};
use ecl_simt::{catch_sim, Gpu, GpuConfig, SimError, StoreVisibility};
use std::borrow::Cow;
use std::fmt;

/// The six studied graph analytics codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// All-pairs shortest paths (regular; race-free as published).
    Apsp,
    /// Connected components.
    Cc,
    /// Graph coloring.
    Gc,
    /// Maximal independent set.
    Mis,
    /// Minimum spanning tree.
    Mst,
    /// Strongly connected components.
    Scc,
}

impl Algorithm {
    /// All six codes, in the paper's table order.
    pub const ALL: [Algorithm; 6] = [
        Algorithm::Apsp,
        Algorithm::Cc,
        Algorithm::Gc,
        Algorithm::Mis,
        Algorithm::Mst,
        Algorithm::Scc,
    ];

    /// The four undirected-input algorithms of Tables IV–VII, in order.
    pub const UNDIRECTED: [Algorithm; 4] =
        [Algorithm::Cc, Algorithm::Gc, Algorithm::Mis, Algorithm::Mst];

    /// Short lowercase name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Apsp => "APSP",
            Algorithm::Cc => "CC",
            Algorithm::Gc => "GC",
            Algorithm::Mis => "MIS",
            Algorithm::Mst => "MST",
            Algorithm::Scc => "SCC",
        }
    }

    /// `true` if the algorithm consumes directed graphs (only SCC).
    pub fn directed(self) -> bool {
        matches!(self, Algorithm::Scc)
    }

    /// `true` if the algorithm needs edge weights.
    pub fn weighted(self) -> bool {
        matches!(self, Algorithm::Apsp | Algorithm::Mst)
    }

    /// Parses a table-style name (`"CC"`, `"mis"`, …), case-insensitively —
    /// the inverse of [`Algorithm::name`], used by journal records, repro
    /// bundles, and worker-cell CLI keys.
    pub fn parse(name: &str) -> Option<Algorithm> {
        Algorithm::ALL
            .into_iter()
            .find(|a| a.name().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for Algorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Which flavor of the code to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Variant {
    /// The published code, containing "benign" data races (except APSP).
    Baseline,
    /// The converted code: all shared accesses through relaxed atomics.
    RaceFree,
}

impl fmt::Display for Variant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Variant::Baseline => "baseline",
            Variant::RaceFree => "race-free",
        })
    }
}

/// Verified, profiled outcome of one algorithm run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Which code ran.
    pub algorithm: Algorithm,
    /// Which flavor ran.
    pub variant: Variant,
    /// Total simulated cycles (the paper's runtime metric).
    pub cycles: u64,
    /// Whether the solution passed its serial-reference validation.
    pub valid: bool,
    /// Digest of the deterministic part of the solution.
    pub solution_digest: u64,
    /// Quality metric (MIS size, color count, MST weight, component counts,
    /// or the sum of finite distances for APSP).
    pub quality: f64,
    /// Per-launch profile (cache hit rates, access mixes, launch counts).
    pub stats: ecl_simt::metrics::RunStats,
}

/// The canonical mapping from one flavor of the suite to what its kernels
/// are instantiated with: an access policy per policy-mediated array (GC
/// has two) and the compiler model for plain stores. This is the one place
/// the (algorithm, variant) → (policy, visibility) mapping is written; the
/// sweep, the race-detection tools, the repair pass, and the contracts
/// ([`crate::contracts::ir_for_algorithm`]) all take it from here.
///
/// The policies stay type parameters, so every kernel is monomorphized for
/// exactly the accesses its flavor issues.
pub trait Flavor {
    /// ECL-CC's `label` union-find traffic.
    type Cc: AccessPolicy;
    /// ECL-GC's polled `color` array.
    type GcColor: AccessPolicy;
    /// ECL-GC's shortcut bookkeeping (`minposs`).
    type GcMinposs: AccessPolicy;
    /// ECL-MIS's packed status/priority bytes.
    type Mis: AccessPolicy;
    /// ECL-MST's `parent` chasing, `best` reads, and edge/progress flags.
    type Mst: AccessPolicy;
    /// ECL-SCC's packed max-id pairs and repeat flag.
    type Scc: AccessPolicy;

    /// The compiler model for `algorithm`'s plain stores. Converted codes
    /// publish every store immediately.
    fn visibility(_algorithm: Algorithm) -> StoreVisibility {
        StoreVisibility::Immediate
    }
}

/// The published codes, with their benign races ([`Variant::Baseline`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct BaselineFlavor;

impl Flavor for BaselineFlavor {
    type Cc = Plain;
    type GcColor = Volatile;
    type GcMinposs = Plain;
    type Mis = VolatileReadPlainWrite;
    type Mst = Volatile;
    type Scc = Plain;

    /// The racy plain-access baselines are built with an optimizing
    /// compiler that defers plain stores; MIS's status publication is
    /// delayed over a bounded number of rounds (the paper's compiler-delayed
    /// publication — MIS changed the most under conversion). MST's shared
    /// accesses are volatile, whose stores are uncacheable anyway.
    fn visibility(algorithm: Algorithm) -> StoreVisibility {
        match algorithm {
            Algorithm::Cc | Algorithm::Gc | Algorithm::Scc => StoreVisibility::DeferUntilYield,
            Algorithm::Mis => StoreVisibility::DeferBounded {
                every: 2,
                eighths: 4,
            },
            Algorithm::Apsp | Algorithm::Mst => StoreVisibility::Immediate,
        }
    }
}

/// The hand-converted codes: every shared access through relaxed atomics
/// ([`Variant::RaceFree`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct RaceFreeFlavor;

impl Flavor for RaceFreeFlavor {
    type Cc = Atomic;
    type GcColor = Atomic;
    type GcMinposs = Atomic;
    type Mis = Atomic;
    type Mst = Atomic;
    type Scc = Atomic;
}

/// A synthesized variant: every policy-mediated access resolves its mode
/// from the [`ecl_simt::ModeTable`] installed on the device (the
/// [`IrDriven`] policy). Its stores are immediate, like the converted
/// codes': an access-by-access repaired kernel is compiled like the
/// hand-converted one.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesizedFlavor;

impl Flavor for SynthesizedFlavor {
    type Cc = IrDriven;
    type GcColor = IrDriven;
    type GcMinposs = IrDriven;
    type Mis = IrDriven;
    type Mst = IrDriven;
    type Scc = IrDriven;
}

/// `graph` with the edge weights the suite synthesizes for weighted
/// algorithms on unweighted inputs: `1..=1000`, seed `0xec1`. Simulator,
/// native, and analysis runs of a catalog graph all use these, so they
/// solve the identical weighted instance.
pub fn with_suite_weights(graph: Csr) -> Csr {
    graph.with_random_weights(1_000, 0xec1)
}

/// `graph`, with [`with_suite_weights`] applied when `algorithm` needs
/// weights and the graph carries none.
fn weighted(algorithm: Algorithm, graph: &Csr) -> Cow<'_, Csr> {
    if algorithm.weighted() && graph.weights().is_none() {
        Cow::Owned(with_suite_weights(graph.clone()))
    } else {
        Cow::Borrowed(graph)
    }
}

/// The full result of one run of any of the six codes, before
/// verification.
#[derive(Debug, Clone)]
pub enum Solution {
    /// All-pairs shortest paths.
    Apsp(apsp::ApspResult),
    /// Connected components.
    Cc(cc::CcResult),
    /// Graph coloring.
    Gc(gc::GcResult),
    /// Maximal independent set.
    Mis(mis::MisResult),
    /// Minimum spanning tree.
    Mst(mst::MstResult),
    /// Strongly connected components.
    Scc(scc::SccResult),
}

impl Solution {
    /// Checks the solution against its serial reference on `graph` — the
    /// weighted graph the run solved — and summarizes it as a
    /// [`RunResult`] of `variant`.
    pub fn verify(self, variant: Variant, graph: &Csr) -> RunResult {
        let (valid, quality) = match &self {
            Solution::Apsp(r) => {
                let finite = r.dist.iter().filter(|&&d| d != apsp::INF);
                (
                    apsp::verify_apsp(graph, &r.dist),
                    finite.map(|&d| d as f64).sum(),
                )
            }
            Solution::Cc(r) => (
                cc::verify_components(graph, &r.labels),
                r.num_components as f64,
            ),
            Solution::Gc(r) => (gc::verify_coloring(graph, &r.colors), r.num_colors as f64),
            Solution::Mis(r) => (mis::verify_mis(graph, &r.in_set), r.set_size as f64),
            Solution::Mst(r) => (mst::verify_mst(graph, &r.in_mst), r.total_weight as f64),
            Solution::Scc(r) => (scc::verify_sccs(graph, &r.scc_ids), r.num_sccs as f64),
        };
        let (algorithm, cycles, solution_digest, stats) = match self {
            Solution::Apsp(r) => (Algorithm::Apsp, r.cycles, r.digest, r.stats),
            Solution::Cc(r) => (Algorithm::Cc, r.cycles, r.digest, r.stats),
            Solution::Gc(r) => (Algorithm::Gc, r.cycles, r.digest, r.stats),
            Solution::Mis(r) => (Algorithm::Mis, r.cycles, r.digest, r.stats),
            Solution::Mst(r) => (Algorithm::Mst, r.cycles, r.digest, r.stats),
            Solution::Scc(r) => (Algorithm::Scc, r.cycles, r.digest, r.stats),
        };
        RunResult {
            algorithm,
            variant,
            cycles,
            valid,
            solution_digest,
            quality,
            stats,
        }
    }
}

/// Runs `algorithm` in flavor `F` on a caller-provided GPU — configured,
/// seeded, and optionally race-checked, sanitized, or carrying a mode table —
/// and returns its unverified solution. This is the one dispatch from an
/// algorithm to its kernels. Missing edge weights are synthesized
/// ([`with_suite_weights`]).
///
/// # Panics
///
/// Panics on empty graphs, or for APSP on graphs with more than 2048
/// vertices (dense matrix).
pub fn run_on<F: Flavor>(gpu: &mut Gpu, algorithm: Algorithm, graph: &Csr) -> Solution {
    let graph = &*weighted(algorithm, graph);
    let visibility = F::visibility(algorithm);
    match algorithm {
        Algorithm::Apsp => Solution::Apsp(apsp::run_on(gpu, graph)),
        Algorithm::Cc => Solution::Cc(cc::run_on::<F::Cc>(gpu, graph, visibility)),
        Algorithm::Gc => Solution::Gc(gc::run_on::<F::GcColor, F::GcMinposs>(
            gpu, graph, visibility,
        )),
        Algorithm::Mis => Solution::Mis(mis::run_on::<F::Mis>(gpu, graph, visibility)),
        Algorithm::Mst => Solution::Mst(mst::run_on::<F::Mst>(gpu, graph, visibility)),
        Algorithm::Scc => Solution::Scc(scc::run_on::<F::Scc>(gpu, graph, visibility)),
    }
}

/// [`run_on`] for the flavor of `variant`.
pub fn run_variant_on(
    gpu: &mut Gpu,
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
) -> Solution {
    match variant {
        Variant::Baseline => run_on::<BaselineFlavor>(gpu, algorithm, graph),
        Variant::RaceFree => run_on::<RaceFreeFlavor>(gpu, algorithm, graph),
    }
}

/// Runs `algorithm`/`variant` on `graph` with the given GPU model and
/// scheduler seed, verifying the solution against a serial reference.
///
/// Missing edge weights are synthesized deterministically for the weighted
/// algorithms, so any catalog graph can be passed directly.
///
/// # Panics
///
/// Panics on empty graphs, or for APSP on graphs with more than 2048
/// vertices (dense matrix).
pub fn run_algorithm(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    seed: u64,
) -> RunResult {
    run_algorithm_checked(algorithm, variant, graph, cfg, seed, &SimOptions::default())
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_algorithm`] with simulator options (watchdog budget, fault
/// injection), catching launch failures as typed errors instead of
/// panicking. An `Ok` result may still be invalid (`valid == false`) when an
/// injected fault silently corrupted the solution — that is the SDC case
/// [`run_resilient`] retries on.
pub fn run_algorithm_checked(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    opts: &SimOptions,
) -> Result<RunResult, SimError> {
    let graph = &*weighted(algorithm, graph);
    // The device lives only inside the closure: it is freed before the
    // serial-reference verification allocates.
    let solution =
        catch_sim(|| run_variant_on(&mut opts.make_gpu(cfg, seed), algorithm, variant, graph))?;
    Ok(solution.verify(variant, graph))
}

/// Runs a *synthesized* variant of `algorithm` ([`SynthesizedFlavor`]):
/// the kernels execute under the [`IrDriven`] policy, which resolves every
/// policy-mediated access's mode from `table` — typically
/// [`ecl_simt::ModeTable::from_ir`] over the repaired IR the `ecl-analyze`
/// repair pass produced.
///
/// The returned [`RunResult`] is tagged [`Variant::RaceFree`]: a verified
/// synthesized variant *is* a race-free flavor of the code, just machine-
/// derived rather than hand-written, and downstream consumers (verification,
/// digests, perf tables) treat it as such.
///
/// APSP has no policy-mediated sites (both variants are the same code), so
/// its synthesized run is the ordinary run; the installed table is never
/// consulted.
pub fn run_synthesized(
    algorithm: Algorithm,
    table: &ecl_simt::ModeTable,
    graph: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    opts: &SimOptions,
) -> Result<RunResult, SimError> {
    let graph = &*weighted(algorithm, graph);
    let opts = SimOptions {
        mode_table: Some(table.clone()),
        ..opts.clone()
    };
    let solution =
        catch_sim(|| run_on::<SynthesizedFlavor>(&mut opts.make_gpu(cfg, seed), algorithm, graph))?;
    Ok(solution.verify(Variant::RaceFree, graph))
}

/// Runs `algorithm`/`variant` directly on `threads` host threads via the
/// `ecl-native` access policies — the same codes, real `std::sync::atomic`
/// concurrency instead of the simulator. `seed` perturbs the schedule
/// (partition rotation), never the result; `cycles` in the returned
/// [`RunResult`] holds the thread team's wall-clock nanoseconds and `stats`
/// is empty (there is no simulated memory hierarchy to profile).
///
/// Missing edge weights are synthesized with the same parameters as
/// [`run_algorithm`], so native and simulator runs of a catalog graph solve
/// the identical weighted instance.
///
/// # Panics
///
/// Panics on empty graphs, for APSP on graphs with more than 2048 vertices,
/// or for MST on graphs with 2^26 or more edges (packed-key overflow).
pub fn run_native(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    threads: usize,
    seed: u64,
) -> RunResult {
    let graph = &*weighted(algorithm, graph);
    let solution = match variant {
        Variant::Baseline => run_native_policy::<NativeBaseline>(algorithm, graph, threads, seed),
        Variant::RaceFree => run_native_policy::<NativeRaceFree>(algorithm, graph, threads, seed),
    };
    solution.verify(variant, graph)
}

fn run_native_policy<P: NativePolicy>(
    algorithm: Algorithm,
    graph: &Csr,
    threads: usize,
    seed: u64,
) -> Solution {
    match algorithm {
        // No races to remove: both variants run the same code (§IV-A).
        Algorithm::Apsp => Solution::Apsp(apsp::native::run::<P>(graph, threads, seed)),
        Algorithm::Cc => Solution::Cc(cc::native::run::<P>(graph, threads, seed)),
        Algorithm::Gc => Solution::Gc(gc::native::run::<P>(graph, threads, seed)),
        Algorithm::Mis => Solution::Mis(mis::native::run::<P>(graph, threads, seed)),
        Algorithm::Mst => Solution::Mst(mst::native::run::<P>(graph, threads, seed)),
        Algorithm::Scc => Solution::Scc(scc::native::run::<P>(graph, threads, seed)),
    }
}

/// Where a suite run executes: the cycle-accounting GPU simulator or real
/// host threads. Both backends run the same published codes in the same two
/// variants and report through the same [`RunResult`]; everything downstream
/// (verification, digests, sweep plumbing) is backend-agnostic.
pub trait Backend {
    /// Short name for logs and JSON (`"sim"`, `"native"`).
    fn name(&self) -> &'static str;

    /// Runs one algorithm/variant cell on this backend.
    fn run(
        &self,
        algorithm: Algorithm,
        variant: Variant,
        graph: &Csr,
        cfg: &GpuConfig,
        seed: u64,
        opts: &SimOptions,
    ) -> Result<RunResult, SimError>;
}

/// The default backend: the `ecl-simt` GPU simulator.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimulatorBackend;

impl Backend for SimulatorBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn run(
        &self,
        algorithm: Algorithm,
        variant: Variant,
        graph: &Csr,
        cfg: &GpuConfig,
        seed: u64,
        opts: &SimOptions,
    ) -> Result<RunResult, SimError> {
        run_algorithm_checked(algorithm, variant, graph, cfg, seed, opts)
    }
}

/// The host-thread backend (`--backend native`). The GPU config and sim
/// options are ignored — there is no simulated machine; `threads == None`
/// defers to `ECL_THREADS` or the machine's parallelism
/// (see [`ecl_native::thread_count`]).
#[derive(Debug, Clone, Copy, Default)]
pub struct NativeBackend {
    /// Explicit thread count, or `None` for the environment default.
    pub threads: Option<usize>,
}

impl NativeBackend {
    /// A native backend with an explicit thread count (`None` = default).
    pub fn new(threads: Option<usize>) -> Self {
        NativeBackend { threads }
    }
}

impl Backend for NativeBackend {
    fn name(&self) -> &'static str {
        "native"
    }

    fn run(
        &self,
        algorithm: Algorithm,
        variant: Variant,
        graph: &Csr,
        _cfg: &GpuConfig,
        seed: u64,
        _opts: &SimOptions,
    ) -> Result<RunResult, SimError> {
        Ok(run_native(
            algorithm,
            variant,
            graph,
            ecl_native::thread_count(self.threads),
            seed,
        ))
    }
}

/// Why one sweep cell (a single `run_algorithm`-shaped run) produced no
/// usable measurement. Unlike a panic, a `RunError` lets a multi-hour sweep
/// record the failure and keep going.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The launch died with a typed simulator error (watchdog, OOB, fault
    /// budget, livelock, barrier divergence).
    Sim(SimError),
    /// The run completed but its solution failed the serial-reference
    /// verification (silent data corruption or a genuine algorithm bug).
    Invalid {
        /// Which code produced the bad solution.
        algorithm: Algorithm,
        /// Which flavor of it.
        variant: Variant,
    },
    /// Host-side code around the launch panicked (e.g. an index computed
    /// from corrupted device data); the message is the panic payload.
    Panicked(String),
    /// A typed failure reported by an isolated worker subprocess, carried as
    /// its rendered message. Displays verbatim, so a sweep run with cell
    /// isolation serializes the same failure text as an in-process run.
    Remote(String),
    /// An isolated worker subprocess died without reporting a result: it
    /// panicked/aborted, was killed by a signal, or overran its wall-clock
    /// deadline. This failure class has no in-process analogue — without
    /// isolation it would have taken the whole sweep down.
    Worker {
        /// The process exit code, if it exited normally.
        exit: Option<i32>,
        /// The signal that killed it, if any (Unix only).
        signal: Option<i32>,
        /// Whether the parent killed it for exceeding the cell deadline.
        timed_out: bool,
        /// The tail of the worker's captured stderr (panic messages live
        /// here).
        stderr_tail: String,
    },
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Sim(e) => write!(f, "{e}"),
            RunError::Invalid { algorithm, variant } => {
                write!(f, "{algorithm} {variant} solution failed verification")
            }
            RunError::Panicked(msg) => write!(f, "host panic: {msg}"),
            RunError::Remote(msg) => f.write_str(msg),
            RunError::Worker {
                exit,
                signal,
                timed_out,
                stderr_tail,
            } => {
                write!(f, "worker process died")?;
                if *timed_out {
                    write!(f, " (cell deadline exceeded, killed)")?;
                }
                if let Some(code) = exit {
                    write!(f, " (exit {code})")?;
                }
                if let Some(sig) = signal {
                    write!(f, " (signal {sig})")?;
                }
                if !stderr_tail.is_empty() {
                    write!(f, ": {}", stderr_tail.trim_end())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Strict single-cell runner for sweeps: like [`run_algorithm_checked`] but
/// *never* panics and *never* returns an unverified result — launch
/// failures, verification failures, and host panics all arrive as typed
/// [`RunError`]s a sweep can record while it continues with the next cell.
pub fn run_cell(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    seed: u64,
    opts: &SimOptions,
) -> Result<RunResult, RunError> {
    let result =
        ecl_simt::catch_any(|| run_algorithm_checked(algorithm, variant, graph, cfg, seed, opts))
            .map_err(RunError::Panicked)??;
    if !result.valid {
        return Err(RunError::Invalid { algorithm, variant });
    }
    Ok(result)
}

/// Bounded-retry policy for [`run_resilient`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (must be at least 1).
    pub max_attempts: u32,
    /// Added to the scheduler seed on each retry so a rerun explores a
    /// different interleaving (and, under fault injection, keeps the fault
    /// stream aligned with the new schedule deterministically).
    pub seed_stride: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            seed_stride: 1,
        }
    }
}

/// What one attempt inside [`run_resilient`] did.
#[derive(Debug, Clone, PartialEq)]
pub enum Attempt {
    /// Ran to completion and passed verification.
    Valid,
    /// Ran to completion but failed verification: a silent data corruption
    /// the verifier caught.
    Sdc,
    /// The launch (or the host code around it) died — watchdog timeout,
    /// out-of-bounds access, fault budget, livelock, or an ordinary panic
    /// triggered by corrupted data.
    Crashed(String),
}

/// Final outcome of a [`run_resilient`] call.
#[derive(Debug, Clone)]
pub enum RunOutcome {
    /// First attempt was valid.
    Ok(RunResult),
    /// One or more attempts were discarded before a valid run; `attempts`
    /// counts every attempt made, including the successful one.
    Recovered {
        /// Total attempts made.
        attempts: u32,
        /// The valid result.
        result: RunResult,
    },
    /// Every attempt crashed or produced a corrupt solution.
    Failed {
        /// Attempts made (`policy.max_attempts`).
        attempts: u32,
        /// What the last attempt did.
        reason: String,
    },
}

impl RunOutcome {
    /// The valid result, if any attempt produced one.
    pub fn result(&self) -> Option<&RunResult> {
        match self {
            RunOutcome::Ok(r) | RunOutcome::Recovered { result: r, .. } => Some(r),
            RunOutcome::Failed { .. } => None,
        }
    }
}

/// Runs `algorithm`/`variant` under a retry policy, treating each attempt's
/// verification failure (SDC) or crash as recoverable: the run is retried
/// with a fresh scheduler seed, up to `policy.max_attempts` attempts.
///
/// Never panics, whatever the fault plan in `opts` does to the run — kernel
/// launch failures arrive as typed [`SimError`]s and host-side panics on
/// corrupted data are contained by [`ecl_simt::catch_any`].
pub fn run_resilient(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    base_seed: u64,
    opts: &SimOptions,
    policy: &RetryPolicy,
) -> RunOutcome {
    run_resilient_observed(
        algorithm,
        variant,
        graph,
        cfg,
        base_seed,
        opts,
        policy,
        |_, _| {},
    )
}

/// [`run_resilient`] with a per-attempt observer (attempt index, what it
/// did) — the hook the fault-study harness uses to count SDCs and crashes
/// without changing the recovery semantics.
#[allow(clippy::too_many_arguments)]
pub fn run_resilient_observed(
    algorithm: Algorithm,
    variant: Variant,
    graph: &Csr,
    cfg: &GpuConfig,
    base_seed: u64,
    opts: &SimOptions,
    policy: &RetryPolicy,
    mut observe: impl FnMut(u32, &Attempt),
) -> RunOutcome {
    let max_attempts = policy.max_attempts.max(1);
    let mut last = String::new();
    for attempt in 0..max_attempts {
        let seed = base_seed.wrapping_add(attempt as u64 * policy.seed_stride);
        let outcome = ecl_simt::catch_any(|| {
            run_algorithm_checked(algorithm, variant, graph, cfg, seed, opts)
        });
        let what = match outcome {
            Ok(Ok(result)) if result.valid => {
                observe(attempt, &Attempt::Valid);
                return if attempt == 0 {
                    RunOutcome::Ok(result)
                } else {
                    RunOutcome::Recovered {
                        attempts: attempt + 1,
                        result,
                    }
                };
            }
            Ok(Ok(_)) => Attempt::Sdc,
            Ok(Err(e)) => Attempt::Crashed(e.to_string()),
            Err(msg) => Attempt::Crashed(msg),
        };
        last = match &what {
            Attempt::Sdc => "solution failed verification (silent data corruption)".to_string(),
            Attempt::Crashed(msg) => msg.clone(),
            Attempt::Valid => unreachable!(),
        };
        observe(attempt, &what);
    }
    RunOutcome::Failed {
        attempts: max_attempts,
        reason: last,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::gen;

    #[test]
    fn all_undirected_algorithms_run_and_verify() {
        let g = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, 6);
        let cfg = GpuConfig::test_tiny();
        for alg in Algorithm::UNDIRECTED {
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let r = run_algorithm(alg, variant, &g, &cfg, 1);
                assert!(r.valid, "{alg} {variant} failed validation");
                assert!(r.cycles > 0);
            }
        }
    }

    #[test]
    fn scc_runs_on_directed_graph() {
        let g = gen::star_polygon(128, 5);
        let cfg = GpuConfig::test_tiny();
        let b = run_algorithm(Algorithm::Scc, Variant::Baseline, &g, &cfg, 1);
        let f = run_algorithm(Algorithm::Scc, Variant::RaceFree, &g, &cfg, 1);
        assert!(b.valid && f.valid);
        assert_eq!(b.solution_digest, f.solution_digest);
    }

    #[test]
    fn apsp_both_variants_identical() {
        let g = gen::grid2d_torus(4, 4);
        let cfg = GpuConfig::test_tiny();
        let b = run_algorithm(Algorithm::Apsp, Variant::Baseline, &g, &cfg, 1);
        let f = run_algorithm(Algorithm::Apsp, Variant::RaceFree, &g, &cfg, 1);
        assert!(b.valid && f.valid);
        assert_eq!(b.solution_digest, f.solution_digest);
        assert_eq!(b.cycles, f.cycles, "APSP has no conversion: same code");
    }

    #[test]
    fn weights_are_synthesized_when_missing() {
        let g = gen::grid2d_torus(6, 6); // unweighted
        let r = run_algorithm(
            Algorithm::Mst,
            Variant::RaceFree,
            &g,
            &GpuConfig::test_tiny(),
            1,
        );
        assert!(r.valid);
        assert!(r.quality > 0.0);
    }

    #[test]
    fn resilient_runner_is_a_plain_run_without_faults() {
        let g = gen::grid2d_torus(8, 8);
        let outcome = run_resilient(
            Algorithm::Cc,
            Variant::RaceFree,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &SimOptions::default(),
            &RetryPolicy::default(),
        );
        assert!(matches!(outcome, RunOutcome::Ok(_)));
        assert!(outcome.result().unwrap().valid);
    }

    #[test]
    fn resilient_runner_survives_a_hostile_fault_plan() {
        // A fault rate this high corrupts essentially every load; whatever
        // each attempt does (SDC, crash on a corrupted index, watchdog), the
        // runner must return a RunOutcome rather than panic.
        let g = gen::grid2d_torus(6, 6);
        let opts = SimOptions {
            watchdog: Some(2_000_000),
            fault: Some(ecl_simt::FaultPlan::new(7).with_bitflips(0.05, ecl_simt::MemLevel::Dram)),
            deadline: None,
            mode_table: None,
        };
        let mut attempts = Vec::new();
        let outcome = run_resilient_observed(
            Algorithm::Cc,
            Variant::Baseline,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &opts,
            &RetryPolicy {
                max_attempts: 2,
                seed_stride: 1,
            },
            |i, what| attempts.push((i, what.clone())),
        );
        match outcome {
            RunOutcome::Ok(_) => assert!(attempts.is_empty() || attempts.len() == 1),
            RunOutcome::Recovered { attempts: n, .. } => assert!(n >= 2),
            RunOutcome::Failed {
                attempts: n,
                reason,
            } => {
                assert_eq!(n, 2);
                assert!(!reason.is_empty());
            }
        }
    }

    #[test]
    fn watchdog_failure_is_reported_not_panicked() {
        // A 1-cycle budget kills the very first launch on every attempt.
        let g = gen::grid2d_torus(6, 6);
        let opts = SimOptions {
            watchdog: Some(1),
            fault: None,
            deadline: None,
            mode_table: None,
        };
        let outcome = run_resilient(
            Algorithm::Mis,
            Variant::RaceFree,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &opts,
            &RetryPolicy::default(),
        );
        match outcome {
            RunOutcome::Failed { attempts, reason } => {
                assert_eq!(attempts, 3);
                assert!(reason.contains("watchdog"), "got: {reason}");
            }
            other => panic!("expected Failed, got {other:?}"),
        }
    }

    #[test]
    fn checked_runner_returns_typed_watchdog_error() {
        let g = gen::grid2d_torus(6, 6);
        let opts = SimOptions {
            watchdog: Some(1),
            fault: None,
            deadline: None,
            mode_table: None,
        };
        let r = run_algorithm_checked(
            Algorithm::Gc,
            Variant::RaceFree,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &opts,
        );
        assert!(matches!(r, Err(SimError::WatchdogTimeout { .. })));
    }

    #[test]
    fn run_cell_ok_on_clean_run() {
        let g = gen::grid2d_torus(8, 8);
        let r = run_cell(
            Algorithm::Cc,
            Variant::RaceFree,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &SimOptions::default(),
        );
        assert!(r.is_ok());
        assert!(r.unwrap().valid);
    }

    #[test]
    fn run_cell_turns_watchdog_into_typed_error() {
        let g = gen::grid2d_torus(6, 6);
        let opts = SimOptions {
            watchdog: Some(1),
            fault: None,
            deadline: None,
            mode_table: None,
        };
        let r = run_cell(
            Algorithm::Gc,
            Variant::Baseline,
            &g,
            &GpuConfig::test_tiny(),
            1,
            &opts,
        );
        match r {
            Err(RunError::Sim(SimError::WatchdogTimeout { .. })) => {}
            other => panic!("expected watchdog RunError, got {other:?}"),
        }
    }

    #[test]
    fn run_results_and_errors_are_send() {
        // The parallel sweep pool moves these across threads; see also the
        // simt-level audit in `crates/simt/tests/send_audit.rs`.
        fn assert_send<T: Send>() {}
        assert_send::<RunResult>();
        assert_send::<RunError>();
        assert_send::<RunOutcome>();
        assert_send::<Attempt>();
    }

    #[test]
    fn retries_observe_iid_fault_streams() {
        // The doc on `SimOptions::make_gpu` promises that the run seed is
        // mixed into the fault-plan seed, so a retry (same plan, bumped
        // scheduler seed) sees a fresh, independent fault schedule rather
        // than a replay of the one that just corrupted it. Pin exactly that:
        // distinct run seeds must arm distinct effective plan seeds, and
        // never the raw plan seed itself.
        let opts = SimOptions {
            watchdog: None,
            fault: Some(
                ecl_simt::FaultPlan::new(0xFA17).with_bitflips(0.01, ecl_simt::MemLevel::Dram),
            ),
            deadline: None,
            mode_table: None,
        };
        let cfg = GpuConfig::test_tiny();
        let armed = |run_seed: u64| {
            opts.make_gpu(&cfg, run_seed)
                .fault_plan()
                .expect("plan armed")
                .seed
        };
        let raw = opts.fault.as_ref().unwrap().seed;
        let mut seen = std::collections::HashSet::new();
        // Run seed 0 is the XOR identity; sweeps never pass it (scheduler
        // seeds are themselves stream-mixed), so assert over 1..=8.
        for run_seed in 1..=8 {
            let s = armed(run_seed);
            assert_ne!(s, raw, "run seed {run_seed} armed the raw plan seed");
            assert!(seen.insert(s), "run seeds collide on plan seed {s:#x}");
        }
        // Deterministic for a fixed (plan seed, run seed) pair.
        assert_eq!(armed(3), armed(3));
    }

    #[test]
    fn recovered_outcome_reports_attempt_count() {
        // Hunt a small space of base seeds for a configuration where the
        // first attempt fails and a retry succeeds — the simulator is
        // deterministic, so once found the recovery replays forever. Then
        // assert `RunOutcome::Recovered` counts every attempt the observer
        // saw, including the successful one.
        let g = gen::rmat(128, 512, 0.57, 0.19, 0.19, true, 2);
        let cfg = GpuConfig::test_tiny();
        let policy = RetryPolicy {
            max_attempts: 4,
            seed_stride: 1,
        };
        let mut recovered_somewhere = false;
        for base_seed in 0..24u64 {
            let opts = SimOptions {
                watchdog: Some(20_000_000),
                fault: Some(
                    ecl_simt::FaultPlan::new(base_seed)
                        .with_bitflips(0.002, ecl_simt::MemLevel::L2),
                ),
                deadline: None,
                mode_table: None,
            };
            let mut observed = Vec::new();
            let outcome = run_resilient_observed(
                Algorithm::Mis,
                Variant::Baseline,
                &g,
                &cfg,
                base_seed,
                &opts,
                &policy,
                |i, what| observed.push((i, what.clone())),
            );
            match outcome {
                RunOutcome::Ok(_) => {
                    assert_eq!(observed.len(), 1);
                    assert!(matches!(observed[0], (0, Attempt::Valid)));
                }
                RunOutcome::Recovered { attempts, .. } => {
                    recovered_somewhere = true;
                    assert!(attempts >= 2, "Recovered implies a discarded attempt");
                    assert_eq!(
                        attempts as usize,
                        observed.len(),
                        "attempt count must include every attempt made"
                    );
                    assert!(matches!(observed.last(), Some((_, Attempt::Valid))));
                    assert!(observed[..observed.len() - 1]
                        .iter()
                        .all(|(_, what)| !matches!(what, Attempt::Valid)));
                }
                RunOutcome::Failed { attempts, .. } => {
                    assert_eq!(attempts, policy.max_attempts);
                    assert_eq!(observed.len(), policy.max_attempts as usize);
                }
            }
        }
        assert!(
            recovered_somewhere,
            "no base seed in the hunt space recovered; the fault rate no longer \
             exercises the retry path — tune the rate or the seed range"
        );
    }

    #[test]
    fn native_backend_matches_simulator_digests() {
        let g = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, 6);
        let cfg = GpuConfig::test_tiny();
        let sim = SimulatorBackend;
        let native = NativeBackend::new(Some(4));
        let opts = SimOptions::default();
        for alg in Algorithm::UNDIRECTED {
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let s = sim.run(alg, variant, &g, &cfg, 1, &opts).unwrap();
                let n = native.run(alg, variant, &g, &cfg, 1, &opts).unwrap();
                assert!(n.valid, "{alg} {variant} native run invalid");
                assert_eq!(
                    s.solution_digest, n.solution_digest,
                    "{alg} {variant}: native and simulator fixpoints differ"
                );
            }
        }
    }

    #[test]
    fn native_backend_runs_directed_and_dense_codes() {
        let cfg = GpuConfig::test_tiny();
        let native = NativeBackend::new(Some(3));
        let opts = SimOptions::default();
        let sim = SimulatorBackend;

        let dg = gen::pref_attach_directed(200, 3, 0.05, 4);
        let s = sim
            .run(Algorithm::Scc, Variant::RaceFree, &dg, &cfg, 1, &opts)
            .unwrap();
        let n = native
            .run(Algorithm::Scc, Variant::RaceFree, &dg, &cfg, 1, &opts)
            .unwrap();
        assert!(n.valid);
        assert_eq!(s.solution_digest, n.solution_digest);

        let wg = gen::grid2d_torus(6, 6);
        let s = sim
            .run(Algorithm::Apsp, Variant::Baseline, &wg, &cfg, 1, &opts)
            .unwrap();
        let n = native
            .run(Algorithm::Apsp, Variant::Baseline, &wg, &cfg, 1, &opts)
            .unwrap();
        assert!(n.valid);
        assert_eq!(
            s.solution_digest, n.solution_digest,
            "weight synthesis must match across backends"
        );
    }

    #[test]
    fn algorithm_parse_is_the_inverse_of_name() {
        for alg in [
            Algorithm::Apsp,
            Algorithm::Cc,
            Algorithm::Gc,
            Algorithm::Mis,
            Algorithm::Mst,
            Algorithm::Scc,
        ] {
            assert_eq!(Algorithm::parse(alg.name()), Some(alg));
            assert_eq!(Algorithm::parse(&alg.name().to_lowercase()), Some(alg));
        }
        assert_eq!(Algorithm::parse("BFS"), None);
    }

    #[test]
    fn algorithm_metadata() {
        assert!(Algorithm::Scc.directed());
        assert!(!Algorithm::Cc.directed());
        assert!(Algorithm::Mst.weighted());
        assert!(!Algorithm::Mis.weighted());
        assert_eq!(Algorithm::Gc.to_string(), "GC");
        assert_eq!(Variant::RaceFree.to_string(), "race-free");
    }
}
