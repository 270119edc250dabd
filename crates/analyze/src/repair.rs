//! Automated race repair: detector output → synthesized race-free variant.
//!
//! The paper removes data races *by hand*: every flagged plain access is
//! rewritten to a relaxed atomic, bytes get the typecast-and-mask transform
//! (Figs. 3–4), packed pairs get per-half atomic updates (Fig. 5). This
//! module mechanizes that recipe over the access-level kernel IR
//! ([`ecl_simt::KernelIr`]):
//!
//! 1. **Flag** — union the static checker's baseline conflict sites
//!    ([`crate::check::check_algorithm`], *including* the benign-classified
//!    ones: the paper converts those too) with the dynamic detector's
//!    witnessed races on the differential harness's default inputs. Both
//!    sides report at (kernel, buffer) granularity.
//! 2. **Rewrite** — in the baseline IR, flip every *repairable* op of every
//!    flagged (kernel, buffer) group to [`ecl_simt::AccessMode::Atomic`]
//!    ([`ecl_simt::AccessOp::make_atomic`]). Ops the kernel body hard-codes
//!    ([`ecl_simt::AccessOp::fixed`]) are never flagged by construction — a
//!    flagged group with no repairable op means the detector found a race
//!    the IR cannot express a repair for, and is a hard error. Unflagged
//!    groups keep their baseline modes: the repair is *minimal*, which is
//!    what makes its performance profile differ measurably from the
//!    hand-converted variant's blanket conversion.
//! 3. **Re-lower** — [`ecl_simt::lower_all`] turns the repaired IR back into
//!    [`ecl_simt::KernelContract`]s (the updated contract the synthesized
//!    variant ships with), and [`ecl_simt::ModeTable::from_ir`] derives the
//!    access-mode table the `IrDriven` policy executes it with.
//!
//! [`verify`] then runs the three oracles every synthesized variant must
//! pass before it is trusted:
//!
//! - **static**: the pair analysis over the re-lowered contracts discharges
//!   every write-involving pair (same bar as the hand-written race-free
//!   variants). Sound by construction — flagged pairs became atomic-atomic
//!   (rule 1) and a mode flip can never *undischarge* a pair — but checked,
//!   not assumed.
//! - **dynamic**: race-checked executions under the mode table, with the
//!   re-lowered contracts armed as a sanitizer, report zero races across the
//!   same inputs and seeds that witness every baseline race.
//! - **differential**: the synthesized variant's solution digest matches the
//!   hand-written race-free variant's on every catalog input — the two
//!   race-free codes compute the same fixpoints.
//!
//! The catalog runs double as the perf measurement: the same executions
//! that compare digests also compare cycle counts, giving the
//! synthesized-vs-hand-written delta for free.

use crate::check::{check_algorithm, check_contracts, Conflict};
use crate::differential::default_inputs;
use ecl_core::contracts::ir_for_algorithm;
use ecl_core::suite::{
    run_algorithm_checked, run_on, run_synthesized, run_variant_on, Algorithm, SynthesizedFlavor,
    Variant,
};
use ecl_core::SimOptions;
use ecl_graph::inputs::{directed_catalog, undirected_catalog, GraphInput};
use ecl_graph::Csr;
use ecl_native::pool;
use ecl_racecheck::RaceChecker;
use ecl_simt::{
    catch_sim, lower_all, AccessMode, Gpu, GpuConfig, KernelContract, KernelIr, ModeTable, OpKind,
    OpWidth, SimError,
};
use std::collections::BTreeSet;

/// A (kernel, buffer) group the detectors flagged as racy.
pub type RacyGroup = (String, String);

/// Why synthesis could not produce a repaired variant.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RepairError {
    /// A flagged group has no policy-mediated op to rewrite: the race lives
    /// in an access the kernel body hard-codes, and repairing it would need
    /// new kernel code, not a mode flip.
    NoRepairableOp {
        /// Kernel the unfixable race is in.
        kernel: String,
        /// Buffer it is on.
        buffer: String,
    },
    /// A flagged kernel has no IR at all — the detector and the IR disagree
    /// about what kernels exist.
    UnknownKernel {
        /// The kernel the detector named.
        kernel: String,
    },
    /// A checked run the dynamic detector flags from failed (a watchdog
    /// timeout, an out-of-bounds access, ...), so its races cannot be
    /// collected.
    DetectionRunFailed {
        /// Index of the run's input in the inputs given to
        /// [`dynamic_race_groups`] ([`default_inputs`] for [`synthesize`]).
        input: usize,
        /// Scheduler seed of the failed run.
        seed: u64,
        /// Why the run failed.
        error: SimError,
    },
}

impl std::fmt::Display for RepairError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RepairError::NoRepairableOp { kernel, buffer } => write!(
                f,
                "no repairable access op in kernel '{kernel}' for flagged buffer '{buffer}'"
            ),
            RepairError::UnknownKernel { kernel } => {
                write!(f, "detector flagged unknown kernel '{kernel}'")
            }
            RepairError::DetectionRunFailed { input, seed, error } => write!(
                f,
                "detection run on diff-input-{input} seed {seed} failed: {error}"
            ),
        }
    }
}

/// One mode flip the repair pass applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rewrite {
    /// Kernel the rewritten op belongs to.
    pub kernel: String,
    /// Buffer the op accesses.
    pub buffer: &'static str,
    /// What the op does.
    pub kind: OpKind,
    /// Element width.
    pub width: OpWidth,
    /// The mode the baseline issued (always rewritten to `Atomic`).
    pub from: AccessMode,
    /// `true` when the atomic form needs the typecast-and-mask (sub-word)
    /// or pair-half transform rather than a same-width atomic — the paper's
    /// Figs. 3–5 cases.
    pub masked: bool,
}

impl std::fmt::Display for Rewrite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}: {:?} {:?} {:?} -> Atomic{}",
            self.kernel,
            self.buffer,
            self.kind,
            self.width,
            self.from,
            if self.masked { " (masked)" } else { "" }
        )
    }
}

/// A synthesized race-free variant: the repaired IR plus everything derived
/// from it.
#[derive(Debug, Clone)]
pub struct RepairedVariant {
    /// Which code was repaired.
    pub algorithm: Algorithm,
    /// Groups the static checker flagged on the baseline contracts.
    pub static_flagged: BTreeSet<RacyGroup>,
    /// Groups the dynamic detector witnessed on the baseline runs.
    pub dynamic_flagged: BTreeSet<RacyGroup>,
    /// The union actually repaired.
    pub flagged: BTreeSet<RacyGroup>,
    /// The repaired IR (baseline IR with flagged groups flipped to atomic).
    pub ir: Vec<KernelIr>,
    /// The updated contracts, re-lowered from the repaired IR.
    pub contracts: Vec<KernelContract>,
    /// The access-mode table the `IrDriven` policy executes the variant with.
    pub mode_table: ModeTable,
    /// Every mode flip applied, in IR order.
    pub rewrites: Vec<Rewrite>,
}

/// Scheduler seeds for the dynamic side of flagging and verification — a
/// couple of distinct interleavings is all the default inputs need to
/// witness every baseline race (the differential suite pins exactly this).
pub const DETECT_SEEDS: [u64; 2] = [1, 42];

/// Collects the dynamic detector's (kernel, buffer) race sites for one
/// algorithm × variant over the given inputs and seeds, resolving buffers
/// the same way the differential harness does.
///
/// # Errors
///
/// Returns [`RepairError::DetectionRunFailed`] for the first run that fails
/// to launch, naming its index in `inputs` and its seed.
pub fn dynamic_race_groups(
    algorithm: Algorithm,
    variant: Variant,
    inputs: &[Csr],
    cfg: &GpuConfig,
    seeds: &[u64],
) -> Result<BTreeSet<RacyGroup>, RepairError> {
    let mut out = BTreeSet::new();
    for (input, graph) in inputs.iter().enumerate() {
        for &seed in seeds {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.set_seed(seed);
            gpu.observe(RaceChecker::precise());
            catch_sim(|| drop(run_variant_on(&mut gpu, algorithm, variant, graph)))
                .map_err(|error| RepairError::DetectionRunFailed { input, seed, error })?;
            for report in ecl_racecheck::check_races(&gpu) {
                let buffer = match report.allocation_name {
                    Some(name) => name,
                    None => match report.space {
                        ecl_simt::Space::Shared => ecl_simt::SHARED_BUFFER.to_string(),
                        ecl_simt::Space::Global => format!("{:#x}", report.allocation),
                    },
                };
                out.insert((report.kernel, buffer));
            }
        }
    }
    Ok(out)
}

/// Synthesizes a race-free variant of `algorithm` from detector output:
/// flags racy (kernel, buffer) groups with both detectors on the baseline,
/// rewrites every repairable op in each group to a relaxed atomic, and
/// re-lowers contracts and the execution mode table from the repaired IR.
///
/// # Errors
///
/// Returns [`RepairError`] when a checked baseline run fails, or when a
/// flagged group names a kernel the IR does not know or contains no
/// repairable op.
pub fn synthesize(algorithm: Algorithm, cfg: &GpuConfig) -> Result<RepairedVariant, RepairError> {
    // Static side: every baseline conflict, benign or not — the paper's
    // conversion removes the benign races too.
    let static_flagged: BTreeSet<RacyGroup> = check_algorithm(algorithm, Variant::Baseline)
        .conflicts
        .into_iter()
        .map(|c| (c.kernel, c.buffer.to_string()))
        .collect();
    // Dynamic side: witnessed races on the differential harness's inputs.
    let dynamic_flagged = dynamic_race_groups(
        algorithm,
        Variant::Baseline,
        &default_inputs(algorithm),
        cfg,
        &DETECT_SEEDS,
    )?;
    let flagged: BTreeSet<RacyGroup> = static_flagged.union(&dynamic_flagged).cloned().collect();

    let mut ir = ir_for_algorithm(algorithm, Variant::Baseline);
    let mut rewrites = Vec::new();
    for (kernel, buffer) in &flagged {
        let Some(k) = ir.iter_mut().find(|k| k.kernel == kernel.as_str()) else {
            return Err(RepairError::UnknownKernel {
                kernel: kernel.clone(),
            });
        };
        let mut repaired_any = false;
        for op in k.ops.iter_mut() {
            if op.buffer != buffer.as_str() || !op.repairable {
                continue;
            }
            repaired_any = true;
            let from = op.mode;
            if op.make_atomic() {
                rewrites.push(Rewrite {
                    kernel: kernel.clone(),
                    buffer: op.buffer,
                    kind: op.kind,
                    width: op.width,
                    from,
                    masked: op.needs_mask_transform(),
                });
            }
        }
        if !repaired_any {
            return Err(RepairError::NoRepairableOp {
                kernel: kernel.clone(),
                buffer: buffer.clone(),
            });
        }
    }
    let contracts = lower_all(&ir);
    let mode_table = ModeTable::from_ir(&ir);
    Ok(RepairedVariant {
        algorithm,
        static_flagged,
        dynamic_flagged,
        flagged,
        ir,
        contracts,
        mode_table,
        rewrites,
    })
}

/// One catalog input's synthesized-vs-hand-written comparison: the
/// differential oracle (digests must match, both must verify) and the perf
/// measurement (cycle counts) in one run pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputComparison {
    /// Catalog input name (paper table name), or a differential-harness
    /// input index for APSP.
    pub input: String,
    /// Solution digest of the synthesized variant.
    pub synthesized_digest: u64,
    /// Solution digest of the hand-written race-free variant.
    pub hand_written_digest: u64,
    /// Whether both runs passed their serial-reference validation.
    pub both_valid: bool,
    /// Simulated cycles of the synthesized variant.
    pub synthesized_cycles: u64,
    /// Simulated cycles of the hand-written race-free variant.
    pub hand_written_cycles: u64,
}

impl InputComparison {
    /// The differential oracle for this input.
    pub fn matches(&self) -> bool {
        self.both_valid && self.synthesized_digest == self.hand_written_digest
    }

    /// Synthesized / hand-written cycle ratio (< 1 means the minimal repair
    /// is faster than the blanket conversion).
    pub fn ratio(&self) -> f64 {
        self.synthesized_cycles as f64 / self.hand_written_cycles.max(1) as f64
    }
}

/// The three-oracle verdict for one synthesized variant.
#[derive(Debug, Clone)]
pub struct RepairVerification {
    /// Which code was verified.
    pub algorithm: Algorithm,
    /// Conflicts the static checker still finds in the re-lowered contracts
    /// (must be empty).
    pub static_conflicts: Vec<Conflict>,
    /// Races the dynamic detector still witnesses under the mode table
    /// (must be empty).
    pub dynamic_races: BTreeSet<RacyGroup>,
    /// Launch failures during the dynamic runs (sanitizer violations,
    /// watchdog) — must be empty; recorded as display strings.
    pub run_failures: Vec<String>,
    /// Per-input digest/cycle comparisons vs the hand-written variant.
    pub comparisons: Vec<InputComparison>,
}

impl RepairVerification {
    /// Oracle 1: the pair analysis discharges everything.
    pub fn static_clean(&self) -> bool {
        self.static_conflicts.is_empty()
    }

    /// Oracle 2: no witnessed races, no failed runs.
    pub fn dynamic_clean(&self) -> bool {
        self.dynamic_races.is_empty() && self.run_failures.is_empty()
    }

    /// Oracle 3: every catalog input's fixpoint matches the hand-written
    /// race-free variant's.
    pub fn differential_match(&self) -> bool {
        !self.comparisons.is_empty() && self.comparisons.iter().all(InputComparison::matches)
    }

    /// All three oracles.
    pub fn passes(&self) -> bool {
        self.static_clean() && self.dynamic_clean() && self.differential_match()
    }

    /// Geometric mean of the per-input synthesized/hand-written cycle
    /// ratios — the headline perf delta of the minimal repair.
    pub fn geomean_ratio(&self) -> f64 {
        if self.comparisons.is_empty() {
            return f64::NAN;
        }
        let log_sum: f64 = self.comparisons.iter().map(|c| c.ratio().ln()).sum();
        (log_sum / self.comparisons.len() as f64).exp()
    }
}

/// The catalog inputs the differential oracle and perf measurement run on:
/// the paper-table catalog for the five catalog algorithms, the
/// differential harness's inputs for APSP (which the matrix never runs on
/// catalog graphs — its dense kernels cap at 2048 vertices).
pub fn oracle_inputs(algorithm: Algorithm, scale: f64, seed: u64) -> Vec<(String, Csr)> {
    (0..oracle_input_count(algorithm))
        .map(|i| oracle_input(algorithm, i, scale, seed))
        .collect()
}

/// The paper-table catalog [`oracle_inputs`] builds from; `None` for APSP.
fn oracle_catalog(algorithm: Algorithm) -> Option<&'static [GraphInput]> {
    match algorithm {
        Algorithm::Apsp => None,
        Algorithm::Scc => Some(directed_catalog()),
        _ => Some(undirected_catalog()),
    }
}

/// How many inputs [`oracle_inputs`] returns.
fn oracle_input_count(algorithm: Algorithm) -> usize {
    oracle_catalog(algorithm).map_or_else(|| default_inputs(algorithm).len(), <[_]>::len)
}

/// The `i`-th of [`oracle_inputs`], named and built alone.
fn oracle_input(algorithm: Algorithm, i: usize, scale: f64, seed: u64) -> (String, Csr) {
    match oracle_catalog(algorithm) {
        Some(catalog) => (catalog[i].name().to_string(), catalog[i].build(scale, seed)),
        None => (
            format!("diff-input-{i}"),
            default_inputs(algorithm).swap_remove(i),
        ),
    }
}

/// Runs the three oracles over a synthesized variant.
///
/// The dynamic oracle reuses the flagging inputs/seeds (the configurations
/// that witness every baseline race), with the re-lowered contracts armed as
/// a sanitizer: any access outside the repaired IR's declared footprint
/// fails the launch and surfaces in `run_failures`. The differential oracle
/// runs the full catalog at `scale`, comparing against
/// [`run_algorithm_checked`] with [`Variant::RaceFree`]: one job per input
/// on the job pool's [`pool::default_workers`] workers, with the
/// comparisons and failures reassembled in catalog order, so the verdict
/// does not depend on the worker count.
pub fn verify(
    repaired: &RepairedVariant,
    cfg: &GpuConfig,
    scale: f64,
    graph_seed: u64,
) -> RepairVerification {
    let algorithm = repaired.algorithm;

    // Oracle 1: static pair analysis over the re-lowered contracts.
    let static_conflicts = check_contracts(&repaired.contracts);

    // Oracle 2: race checker + contract sanitizer on checked runs under the
    // mode table. Serial: spreading these runs over the job pool is a
    // measured follow-up (DESIGN.md §14).
    let mut dynamic_races = BTreeSet::new();
    let mut run_failures = Vec::new();
    for (input, graph) in default_inputs(algorithm).iter().enumerate() {
        for &seed in &DETECT_SEEDS {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.set_seed(seed);
            gpu.observe(RaceChecker::precise());
            gpu.install_contracts(repaired.contracts.iter().cloned());
            gpu.install_mode_table(repaired.mode_table.clone());
            if let Err(e) =
                catch_sim(|| drop(run_on::<SynthesizedFlavor>(&mut gpu, algorithm, graph)))
            {
                run_failures.push(format!("diff-input-{input} seed {seed}: {e}"));
                continue;
            }
            for report in ecl_racecheck::check_races(&gpu) {
                let buffer = report
                    .allocation_name
                    .unwrap_or_else(|| format!("{:#x}", report.allocation));
                dynamic_races.insert((report.kernel, buffer));
            }
        }
    }

    // Oracle 3 + perf: catalog differential against the hand-written
    // race-free variant.
    let opts = SimOptions::default();
    let seed = DETECT_SEEDS[0];
    let outcomes = pool::run_indexed(
        pool::default_workers(),
        oracle_input_count(algorithm),
        |i| {
            let (name, graph) = oracle_input(algorithm, i, scale, graph_seed);
            let synth = run_synthesized(algorithm, &repaired.mode_table, &graph, cfg, seed, &opts);
            let hand =
                run_algorithm_checked(algorithm, Variant::RaceFree, &graph, cfg, seed, &opts);
            match (synth, hand) {
                (Ok(s), Ok(h)) => Ok(InputComparison {
                    input: name,
                    synthesized_digest: s.solution_digest,
                    hand_written_digest: h.solution_digest,
                    both_valid: s.valid && h.valid,
                    synthesized_cycles: s.cycles,
                    hand_written_cycles: h.cycles,
                }),
                (s, h) => Err([
                    s.err().map(|e| format!("{name} synthesized: {e}")),
                    h.err().map(|e| format!("{name} hand-written: {e}")),
                ]),
            }
        },
    );
    let mut comparisons = Vec::new();
    for outcome in outcomes {
        match outcome {
            Ok(c) => comparisons.push(c),
            Err(failures) => run_failures.extend(failures.into_iter().flatten()),
        }
    }

    RepairVerification {
        algorithm,
        static_conflicts,
        dynamic_races,
        run_failures,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> GpuConfig {
        GpuConfig::test_tiny()
    }

    #[test]
    fn synthesis_flags_the_census_groups_for_cc() {
        let r = synthesize(Algorithm::Cc, &cfg()).unwrap();
        // The union-find label races in all three compute kernels, nothing
        // else: the init kernel's owned stores stay plain.
        let kernels: BTreeSet<&str> = r.flagged.iter().map(|(k, _)| k.as_str()).collect();
        assert!(kernels.contains("cc_compute_light"));
        assert!(kernels.contains("cc_flatten"));
        assert!(!kernels.contains("cc_init"));
        assert!(r.flagged.iter().all(|(_, b)| b == "label"));
        assert!(!r.rewrites.is_empty());
        // The repair is minimal: the init store survives as a plain mode in
        // the table.
        let init = r.mode_table.get("cc_init", "label").unwrap();
        assert_eq!(init.write, AccessMode::Plain);
    }

    #[test]
    fn failed_runs_name_their_input() {
        let mut watchdog = cfg();
        watchdog.watchdog_cycles = Some(1);
        let err = synthesize(Algorithm::Cc, &watchdog).unwrap_err();
        assert!(
            matches!(
                err,
                RepairError::DetectionRunFailed {
                    input: 0,
                    seed: 1,
                    error: SimError::WatchdogTimeout { .. },
                }
            ),
            "{err:?}"
        );
        // Oracle 2's failures carry the input index, as oracle 3's carry
        // the catalog name.
        let r = synthesize(Algorithm::Cc, &cfg()).unwrap();
        let v = verify(&r, &watchdog, 0.03, 7);
        for input in 0..2 {
            for seed in DETECT_SEEDS {
                let prefix = format!("diff-input-{input} seed {seed}: ");
                assert!(
                    v.run_failures.iter().any(|f| f.starts_with(&prefix)),
                    "no failure starts with '{prefix}': {:#?}",
                    v.run_failures
                );
            }
        }
    }

    #[test]
    fn apsp_needs_no_repair() {
        let r = synthesize(Algorithm::Apsp, &cfg()).unwrap();
        assert!(r.flagged.is_empty());
        assert!(r.rewrites.is_empty());
        assert!(r.mode_table.is_empty());
    }

    #[test]
    fn byte_and_pair_rewrites_are_marked_masked() {
        let mis = synthesize(Algorithm::Mis, &cfg()).unwrap();
        assert!(
            mis.rewrites
                .iter()
                .any(|r| r.width == OpWidth::B1 && r.masked),
            "MIS repair should mask byte accesses: {:#?}",
            mis.rewrites
        );
        let scc = synthesize(Algorithm::Scc, &cfg()).unwrap();
        assert!(
            scc.rewrites
                .iter()
                .any(|r| r.width == OpWidth::Pair && r.masked),
            "SCC repair should mask pair accesses: {:#?}",
            scc.rewrites
        );
    }

    #[test]
    fn repaired_contracts_pass_the_static_checker() {
        for alg in Algorithm::ALL {
            let r = synthesize(alg, &cfg()).unwrap();
            let conflicts = check_contracts(&r.contracts);
            assert!(conflicts.is_empty(), "{alg}: {conflicts:#?}");
        }
    }

    #[test]
    fn mst_repair_verifies_end_to_end() {
        // One full three-oracle pass on the algorithm with the richest mix
        // of repairable shapes (64-bit reads, byte flags, union-find, flag
        // raise). The all-six sweep lives in the repair_tool/CI gate and the
        // root integration test.
        let r = synthesize(Algorithm::Mst, &cfg()).unwrap();
        let v = verify(&r, &cfg(), 0.05, 7);
        assert!(
            v.passes(),
            "static={:#?} dynamic={:#?} failures={:#?} comparisons={:#?}",
            v.static_conflicts,
            v.dynamic_races,
            v.run_failures,
            v.comparisons
        );
        assert!(v.geomean_ratio().is_finite());
    }
}
