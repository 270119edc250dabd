//! The dynamic/static differential harness.
//!
//! The static checker ([`crate::check`]) predicts, per kernel and buffer,
//! where cross-thread conflicts are possible. The dynamic detector
//! (`ecl-racecheck`) witnesses, per kernel and buffer, where they actually
//! happen on concrete runs of [`ecl_core::suite::run_variant_on`] — the
//! same (algorithm, variant) → policy/visibility mapping the sweep and
//! `racecheck_tool` use. On inputs small enough to explore, the two must
//! agree:
//!
//! - a **dynamically-witnessed race** on a (kernel, buffer) the checker
//!   proved safe means a contract *lies* (its disciplines or declared
//!   regions over-promise) — [`Mismatch::UnpredictedDynamicRace`];
//! - a **statically-predicted conflict** never witnessed on any input/seed
//!   means the contract *over-approximates* (or the inputs fail to exercise
//!   it) — [`Mismatch::UnwitnessedStaticConflict`].
//!
//! The harness compares at (kernel, buffer) granularity — the same key the
//! detector's deduplication uses — unioned over every input and scheduler
//! seed, so a conflict only needs one witnessing interleaving somewhere.

use crate::check::check_algorithm;
use ecl_core::contracts::for_algorithm;
use ecl_core::suite::{run_variant_on, Algorithm, Variant};
use ecl_graph::{gen, Csr, CsrBuilder};
use ecl_racecheck::RaceChecker;
use ecl_simt::{Gpu, GpuConfig};
use std::collections::BTreeSet;

/// One disagreement between the static and dynamic views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mismatch {
    /// The detector witnessed a race the checker did not predict.
    UnpredictedDynamicRace {
        /// Kernel the race occurred in.
        kernel: String,
        /// Buffer (allocation name, or `"shared"`).
        buffer: String,
    },
    /// The checker predicted a conflict no run witnessed.
    UnwitnessedStaticConflict {
        /// Kernel the contract belongs to.
        kernel: String,
        /// Buffer the conflict was predicted on.
        buffer: String,
    },
}

impl std::fmt::Display for Mismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Mismatch::UnpredictedDynamicRace { kernel, buffer } => write!(
                f,
                "dynamic race in '{kernel}' on '{buffer}' that the static checker did not predict"
            ),
            Mismatch::UnwitnessedStaticConflict { kernel, buffer } => write!(
                f,
                "static conflict in '{kernel}' on '{buffer}' never witnessed dynamically"
            ),
        }
    }
}

/// Outcome of differencing one algorithm × variant over a set of inputs.
#[derive(Debug, Clone)]
pub struct DiffOutcome {
    /// Which code was differenced.
    pub algorithm: Algorithm,
    /// Which flavor.
    pub variant: Variant,
    /// Statically-predicted conflict sites over every declared kernel.
    pub static_conflicts: BTreeSet<(String, String)>,
    /// Dynamically-witnessed race sites, unioned over inputs and seeds.
    pub dynamic_races: BTreeSet<(String, String)>,
    /// Kernels observed launching at least once.
    pub launched: BTreeSet<String>,
    /// The disagreements (empty = the views coincide).
    pub mismatches: Vec<Mismatch>,
}

/// A wheel-plus-chains graph built to witness every CC baseline race,
/// including the edge-parallel heavy kernel's. Three properties matter:
///
/// 1. the hub is the *highest*-numbered vertex, because the hooking kernels
///    only process edges toward smaller endpoints — a low-ID hub would make
///    the heavy kernel skip all of its edges;
/// 2. the rim decomposes into chains that only connect *through* the hub,
///    so the light pass cannot pre-merge them and the heavy pass performs
///    real unions (a single rim path would leave the heavy kernel nothing
///    but reads of an already-flat forest);
/// 3. the chains are strided (vertex `i` links to `i + STRIDE`), so the
///    heavy kernel's chunked threads — which own *consecutive* edge slots of
///    the sorted adjacency list — chase and path-shorten the same chains
///    concurrently instead of each privately owning one chain.
///
/// A tail path hanging off vertex 0 keeps representative chains long enough
/// for the flatten and find-min kernels to race on as well.
fn hub_and_chain(hub_degree: usize, tail: usize) -> Csr {
    const STRIDE: usize = 12;
    let n = 1 + hub_degree + tail;
    let hub = (n - 1) as u32;
    let mut b = CsrBuilder::new(n).symmetric(true);
    for i in 0..hub_degree {
        b.add_edge(hub, i as u32);
        if i + STRIDE < hub_degree {
            b.add_edge(i as u32, (i + STRIDE) as u32);
        }
    }
    for i in hub_degree..hub_degree + tail {
        let prev = if i == hub_degree { 0 } else { i - 1 };
        b.add_edge(prev as u32, i as u32);
    }
    b.build()
}

/// The canonical small inputs the differential harness runs per algorithm:
/// two graphs chosen so every baseline conflict has a witnessing
/// interleaving (a heavy hub for CC's heavy kernel, representative chains
/// for the union-find races, enough contention for the flag and
/// pair-max races).
pub fn default_inputs(algorithm: Algorithm) -> Vec<Csr> {
    if algorithm.directed() {
        vec![
            gen::star_polygon(96, 5),
            gen::rmat(128, 512, 0.5, 0.2, 0.2, false, 11),
        ]
    } else {
        vec![
            hub_and_chain(48, 40),
            gen::rmat(192, 768, 0.5, 0.2, 0.2, true, 11),
        ]
    }
}

/// Differences one algorithm × variant over the given inputs and scheduler
/// seeds. The dynamic side is the union of detector findings across every
/// (input, seed) run; the static side is the checker's whole conflict set,
/// so a declared kernel that never launches surfaces as unwitnessed.
pub fn diff_algorithm(
    algorithm: Algorithm,
    variant: Variant,
    inputs: &[Csr],
    cfg: &GpuConfig,
    seeds: &[u64],
) -> DiffOutcome {
    let mut dynamic_races = BTreeSet::new();
    let mut launched = BTreeSet::new();
    for graph in inputs {
        for &seed in seeds {
            let mut gpu = Gpu::new(cfg.clone());
            gpu.set_seed(seed);
            gpu.observe(RaceChecker::precise());
            run_variant_on(&mut gpu, algorithm, variant, graph);
            for launch in &gpu.run_stats().launches {
                launched.insert(launch.name.clone());
            }
            for report in ecl_racecheck::check_races(&gpu) {
                let buffer = match report.allocation_name {
                    Some(name) => name,
                    None => match report.space {
                        ecl_simt::Space::Shared => ecl_simt::SHARED_BUFFER.to_string(),
                        ecl_simt::Space::Global => format!("{:#x}", report.allocation),
                    },
                };
                dynamic_races.insert((report.kernel, buffer));
            }
        }
    }
    let static_conflicts: BTreeSet<(String, String)> = check_algorithm(algorithm, variant)
        .conflicts
        .into_iter()
        .map(|c| (c.kernel, c.buffer.to_string()))
        .collect();

    let mut mismatches = Vec::new();
    for (kernel, buffer) in dynamic_races.difference(&static_conflicts) {
        mismatches.push(Mismatch::UnpredictedDynamicRace {
            kernel: kernel.clone(),
            buffer: buffer.clone(),
        });
    }
    for (kernel, buffer) in static_conflicts.difference(&dynamic_races) {
        mismatches.push(Mismatch::UnwitnessedStaticConflict {
            kernel: kernel.clone(),
            buffer: buffer.clone(),
        });
    }
    DiffOutcome {
        algorithm,
        variant,
        static_conflicts,
        dynamic_races,
        launched,
        mismatches,
    }
}

/// Differences every algorithm × variant on its default inputs. All twelve
/// outcomes must have empty mismatch lists for the suite's static story to
/// be considered discharged.
pub fn diff_suite(cfg: &GpuConfig, seeds: &[u64]) -> Vec<DiffOutcome> {
    let mut out = Vec::new();
    for alg in Algorithm::ALL {
        let inputs = default_inputs(alg);
        for variant in [Variant::Baseline, Variant::RaceFree] {
            out.push(diff_algorithm(alg, variant, &inputs, cfg, seeds));
        }
    }
    out
}

/// The launched kernels are exactly the declared ones: every kernel with a
/// contract ran on the outcome's inputs, and nothing without a contract
/// launched (the sanitizer would otherwise fail the launch).
pub fn launched_kernels_match_contracts(outcome: &DiffOutcome) -> bool {
    let declared: BTreeSet<String> = for_algorithm(outcome.algorithm, outcome.variant)
        .into_iter()
        .map(|c| c.kernel)
        .collect();
    outcome.launched == declared
}
