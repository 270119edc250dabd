//! The fleet worker: `farm --worker-cell <key>` measures one cell.
//!
//! The supervisor spawns one worker per cell through `ecl_bench::isolate`,
//! the executor `all_tests --isolate` uses, with the job's worker flags
//! ([`ecl_bench::SweepSpec::worker_args`]). The worker parses them strictly,
//! measures the cell with [`ecl_bench::measure_cell`], and prints its
//! `ecl-bench/WORKER_CELL/v1` document: the same bytes an `all_tests`
//! worker prints, so the farm's journals and reports are byte-compatible
//! with `all_tests` sweeps. A panic, abort, or OOM kill takes down only this
//! process; the supervisor sees the death, and the cell is retried or
//! quarantined.
//!
//! Before measuring, the worker applies the chaos hooks below, which the
//! farm's kill and quarantine tests arm through the environment.

use ecl_bench::cli::Args;
use ecl_bench::isolate::worker_doc;
use ecl_bench::{measure_cell, SweepSpec};
use std::time::Duration;

/// Chaos hook: `ECL_FARM_POISON=<substr>` makes every cell whose key
/// contains the substring abort the worker before measuring — a
/// deterministic poison cell for quarantine tests.
const POISON_ENV: &str = "ECL_FARM_POISON";
/// Chaos hook: `ECL_FARM_KILL=<substr>:<n>` SIGKILLs the worker the first
/// `n` times it is asked to run a matching cell. Attempts are counted with
/// marker files in `$ECL_FARM_KILL_DIR`, so the count survives respawns.
const KILL_ENV: &str = "ECL_FARM_KILL";
const KILL_DIR_ENV: &str = "ECL_FARM_KILL_DIR";
/// Chaos hook: `ECL_FARM_SLOW_MS=<n>` sleeps before each cell, widening
/// the window in which kill tests can land mid-sweep.
const SLOW_ENV: &str = "ECL_FARM_SLOW_MS";

fn apply_chaos_hooks(key: &str) {
    if let Ok(ms) = std::env::var(SLOW_ENV) {
        if let Ok(ms) = ms.parse::<u64>() {
            std::thread::sleep(Duration::from_millis(ms));
        }
    }
    if let Ok(needle) = std::env::var(POISON_ENV) {
        if !needle.is_empty() && key.contains(&needle) {
            eprintln!("{POISON_ENV}: injected abort for '{key}'");
            std::process::abort();
        }
    }
    if let (Ok(spec), Ok(dir)) = (std::env::var(KILL_ENV), std::env::var(KILL_DIR_ENV)) {
        if let Some((needle, times)) = spec.rsplit_once(':') {
            let times: u32 = times.parse().unwrap_or(0);
            if !needle.is_empty() && key.contains(needle) {
                for i in 0..times {
                    let marker = std::path::Path::new(&dir).join(format!("kill-{i}"));
                    // create_new is the atomic claim: exactly one incarnation
                    // consumes each marker even if respawns race.
                    if std::fs::OpenOptions::new()
                        .write(true)
                        .create_new(true)
                        .open(&marker)
                        .is_ok()
                    {
                        eprintln!("{KILL_ENV}: injected SIGKILL #{} for '{key}'", i + 1);
                        let _ = std::process::Command::new("sh")
                            .arg("-c")
                            .arg(format!("kill -9 {}", std::process::id()))
                            .status();
                        // Unreachable unless `sh` itself failed; fall through
                        // and run the cell rather than wedge.
                    }
                }
            }
        }
    }
}

/// Entry point of `farm --worker-cell <key>` with the job's worker flags:
/// measures that one cell and prints its `WORKER_CELL/v1` document.
///
/// # Errors
///
/// The one-line usage error for a command line the worker cannot honour;
/// nothing is measured then.
pub fn run_cell(argv: &[String]) -> Result<(), String> {
    let mut flags = SweepSpec::FLAGS.to_vec();
    flags.push("--worker-cell");
    let args = Args::parse(argv, &flags, &[])?;
    let spec = SweepSpec::from_args(&args)?;
    let key = args
        .value("--worker-cell")
        .ok_or("--worker-cell needs a value")?;
    apply_chaos_hooks(key);
    let verdict = measure_cell(&spec, key)?;
    println!("{}", worker_doc(&verdict).render_compact());
    Ok(())
}
