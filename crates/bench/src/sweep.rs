//! The sweep specification, and the cell measurement every worker runs.
//!
//! [`SweepSpec`] is the one description of what a sweep measures. It comes
//! from the `all_tests` command line ([`SweepSpec::from_args`]), from a farm
//! job's JSON (`ecl_farm::api::parse_job`), or from a repro bundle's
//! `replay.args`. [`SweepSpec::worker_args`] renders it back into the flags a
//! per-cell worker parses, and [`measure_cell`] is what the worker then runs:
//! `all_tests --worker-cell`, `all_tests --replay` and `farm --worker-cell`
//! all measure a cell through it.

use crate::cli::Args;
use crate::export::{cell_json, failure_json, Json};
use crate::isolate::WorkerVerdict;
use crate::matrix::{graph_seed, set_cell_keys, set_plan, Experiment, Matrix};
use ecl_core::suite::{Algorithm, RetryPolicy};
use ecl_core::SimOptions;
use ecl_graph::inputs::GraphInput;
use ecl_graph::props::properties;
use ecl_simt::{GpuConfig, MemLevel};
use std::time::{Duration, Instant};

/// What one sweep measures: the knobs of the `all_tests` CLI.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSpec {
    /// Input scale multiplier.
    pub scale: f64,
    /// Runs per configuration, at least 1.
    pub runs: usize,
    /// Base experiment seed.
    pub seed: u64,
    /// GPUs to measure, resolved to catalog configurations.
    pub gpus: Vec<GpuConfig>,
    /// Cell sets to run, each `"undirected"` or `"directed"`.
    pub sets: Vec<String>,
    /// Attempts per measurement, at least 1.
    pub retries: u32,
    /// Per-launch watchdog budget in cycles.
    pub watchdog: Option<u64>,
    /// Fault injection: (bitflip rate, level, plan seed).
    pub fault: Option<(f64, MemLevel, u64)>,
    /// Wall-clock budget per isolated cell in seconds, at least 1; a worker
    /// that overruns it is killed.
    pub cell_timeout: u64,
}

impl Default for SweepSpec {
    /// The `all_tests` defaults: the paper's four GPUs, both sets, 3 runs.
    fn default() -> Self {
        SweepSpec {
            scale: 1.0,
            runs: 3,
            seed: 1,
            gpus: GpuConfig::paper_gpus(),
            sets: vec!["undirected".into(), "directed".into()],
            retries: 1,
            watchdog: None,
            fault: None,
            cell_timeout: 300,
        }
    }
}

impl SweepSpec {
    /// The value flags [`SweepSpec::from_args`] reads.
    pub const FLAGS: [&'static str; 11] = [
        "--scale",
        "--runs",
        "--seed",
        "--gpu",
        "--sets",
        "--retries",
        "--watchdog",
        "--fault-rate",
        "--fault-level",
        "--fault-seed",
        "--cell-timeout",
    ];

    /// Reads the spec from parsed command-line flags; an absent flag takes
    /// its default.
    ///
    /// # Errors
    ///
    /// A message naming the flag whose value cannot be honoured.
    pub fn from_args(args: &Args) -> Result<SweepSpec, String> {
        let d = SweepSpec::default();
        let gpus = match args.value("--gpu") {
            None => d.gpus,
            Some(name) => vec![GpuConfig::by_name(name)
                .ok_or_else(|| format!("--gpu: unknown GPU '{name}'; try --list-gpus"))?],
        };
        let sets = match args.value("--sets") {
            None | Some("both") => d.sets,
            Some(set) if set_plan(set).is_some() => vec![set.to_string()],
            Some(other) => {
                return Err(format!(
                    "--sets: unknown set '{other}' (want undirected, directed, or both)"
                ))
            }
        };
        let level = match args.value("--fault-level") {
            None => MemLevel::Dram,
            Some(name) => parse_level(name).ok_or_else(|| {
                format!("--fault-level: unknown level '{name}' (want dram, l2, or l1)")
            })?,
        };
        let rate: f64 = args.parsed("--fault-rate")?.unwrap_or(0.0);
        let fault_seed = args.parsed("--fault-seed")?.unwrap_or(42);
        Ok(SweepSpec {
            scale: args.parsed("--scale")?.unwrap_or(d.scale),
            runs: args.parsed("--runs")?.unwrap_or(d.runs).max(1),
            seed: args.parsed("--seed")?.unwrap_or(d.seed),
            gpus,
            sets,
            retries: args.parsed("--retries")?.unwrap_or(d.retries).max(1),
            watchdog: args.parsed("--watchdog")?,
            fault: (rate > 0.0).then_some((rate, level, fault_seed)),
            cell_timeout: args
                .parsed("--cell-timeout")?
                .unwrap_or(d.cell_timeout)
                .max(1),
        })
    }

    /// Parses a command line of spec flags and nothing else, such as a repro
    /// bundle's `replay.args`.
    ///
    /// # Errors
    ///
    /// A message naming the first argument that cannot be honoured.
    pub fn from_argv(argv: &[String]) -> Result<SweepSpec, String> {
        Self::from_args(&Args::parse(argv, &Self::FLAGS, &[])?)
    }

    /// The flags a per-cell worker needs to reproduce this spec. The GPUs
    /// and sets are left out: the worker's cell key carries its GPU and set.
    pub fn worker_args(&self) -> Vec<String> {
        let mut a: Vec<String> = vec![
            "--scale".into(),
            self.scale.to_string(),
            "--runs".into(),
            self.runs.to_string(),
            "--seed".into(),
            self.seed.to_string(),
            "--retries".into(),
            self.retries.to_string(),
            "--cell-timeout".into(),
            self.cell_timeout.to_string(),
        ];
        if let Some(w) = self.watchdog {
            a.extend(["--watchdog".into(), w.to_string()]);
        }
        if let Some((rate, level, seed)) = self.fault {
            a.extend([
                "--fault-rate".into(),
                rate.to_string(),
                "--fault-level".into(),
                level_name(level).into(),
                "--fault-seed".into(),
                seed.to_string(),
            ]);
        }
        a
    }

    /// The [`Matrix`] that sweeps this spec on `jobs` threads, its launches
    /// bounded by the host `deadline` when one is given.
    pub fn matrix(&self, jobs: usize, deadline: Option<Instant>) -> Matrix {
        Matrix::quick()
            .scale(self.scale)
            .runs(self.runs)
            .seed(self.seed)
            .gpus(self.gpus.clone())
            .jobs(jobs)
            .sim_options(SimOptions {
                watchdog: self.watchdog,
                fault: self.fault.map(|(rate, level, seed)| {
                    ecl_simt::FaultPlan::new(seed).with_bitflips(rate, level)
                }),
                deadline,
                mode_table: None,
            })
            .retry(RetryPolicy {
                max_attempts: self.retries.max(1),
                seed_stride: 1,
            })
    }

    /// The [`Experiment`] this spec describes, with `jobs` pinned to 1: a
    /// report assembled from journaled cells must not depend on how many
    /// workers happened to measure them.
    pub fn experiment(&self) -> Experiment {
        self.matrix(1, None).experiment().clone()
    }

    /// The journal identity of this spec (see
    /// [`crate::journal::identity_json`]).
    pub fn identity(&self) -> Json {
        let sets: Vec<&str> = self.sets.iter().map(String::as_str).collect();
        crate::journal::identity_json(&self.experiment(), &sets)
    }

    /// Every cell key of this sweep, all sets concatenated, each set in its
    /// canonical order.
    pub fn cell_keys(&self) -> Vec<String> {
        let e = self.experiment();
        self.sets
            .iter()
            .flat_map(|s| set_cell_keys(&e, s))
            .collect()
    }
}

/// The flag and JSON spelling of a fault level.
pub fn level_name(level: MemLevel) -> &'static str {
    match level {
        MemLevel::Dram => "dram",
        MemLevel::L2 => "l2",
        MemLevel::L1 => "l1",
    }
}

/// Inverse of [`level_name`].
pub fn parse_level(name: &str) -> Option<MemLevel> {
    match name {
        "dram" => Some(MemLevel::Dram),
        "l2" => Some(MemLevel::L2),
        "l1" => Some(MemLevel::L1),
        _ => None,
    }
}

/// Splits a cell key `<set>/<input>/<algorithm>/<gpu>` (see
/// [`crate::cell_key`]) and resolves its parts against the catalogs.
///
/// # Errors
///
/// A message naming the part of `key` that names nothing.
pub fn parse_cell_key(key: &str) -> Result<(&str, GraphInput, Algorithm, GpuConfig), String> {
    let parts: Vec<&str> = key.splitn(4, '/').collect();
    let [set, input, alg, gpu] = parts[..] else {
        return Err(format!(
            "malformed cell key '{key}' (want <set>/<input>/<algorithm>/<gpu>)"
        ));
    };
    if set_plan(set).is_none() {
        return Err(format!("unknown set '{set}' in cell key '{key}'"));
    }
    let input =
        GraphInput::by_name(input).ok_or_else(|| format!("unknown input '{input}' in '{key}'"))?;
    let algorithm =
        Algorithm::parse(alg).ok_or_else(|| format!("unknown algorithm '{alg}' in '{key}'"))?;
    let gpu = GpuConfig::by_name(gpu).ok_or_else(|| format!("unknown gpu '{gpu}' in '{key}'"))?;
    Ok((set, input, algorithm, gpu))
}

/// Measures the cell `key` of the sweep `spec` in this process: what every
/// per-cell worker runs. The simulator deadline is armed at 0.9x the cell
/// budget, so a runaway launch usually ends as a typed, journalable error
/// before the parent's kill.
///
/// # Errors
///
/// A key that names no cell (see [`parse_cell_key`]); nothing is built.
pub fn measure_cell(spec: &SweepSpec, key: &str) -> Result<WorkerVerdict, String> {
    let (_, input, algorithm, gpu) = parse_cell_key(key)?;
    let deadline = Instant::now() + Duration::from_secs_f64(spec.cell_timeout as f64 * 0.9);
    let matrix = spec.matrix(1, Some(deadline)).gpus(vec![gpu.clone()]);
    let graph = input.build(spec.scale, graph_seed(spec.seed));
    let props = properties(&graph);
    Ok(
        match matrix.try_measure(input.name(), algorithm, &graph, &gpu, props) {
            Ok(cell) => WorkerVerdict::Ok(cell_json(&cell)),
            Err(failure) => WorkerVerdict::Failed(failure_json(&failure)),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn absent_flags_take_the_defaults_and_counts_are_at_least_one() {
        assert_eq!(SweepSpec::from_argv(&[]), Ok(SweepSpec::default()));
        let spec = SweepSpec::from_argv(&argv(&[
            "--runs",
            "0",
            "--retries",
            "0",
            "--cell-timeout",
            "0",
        ]))
        .unwrap();
        assert_eq!((spec.runs, spec.retries, spec.cell_timeout), (1, 1, 1));
        let spec = SweepSpec::from_argv(&argv(&["--fault-rate", "0", "--fault-level", "l1"]));
        assert_eq!(spec.unwrap().fault, None, "rate 0 injects nothing");
    }

    #[test]
    fn cell_keys_parse_back_and_bad_keys_are_named() {
        let key = crate::cell_key("directed", "cage14", Algorithm::Scc, "TestTiny");
        let (set, input, algorithm, gpu) = parse_cell_key(&key).ok().unwrap();
        assert_eq!(
            (set, input.name(), algorithm, gpu.name),
            ("directed", "cage14", Algorithm::Scc, "TestTiny")
        );
        for (key, needle) in [
            ("directed/cage14/SCC", "malformed"),
            ("diagonal/cage14/SCC/TestTiny", "unknown set"),
            ("directed/nosuch/SCC/TestTiny", "unknown input"),
            ("directed/cage14/BFS/TestTiny", "unknown algorithm"),
            ("directed/cage14/SCC/NoSuch", "unknown gpu"),
        ] {
            let err = parse_cell_key(key).err().unwrap();
            assert!(err.contains(needle), "{key}: {err}");
        }
    }
}
