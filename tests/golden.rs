//! Behaviour pinned across commits, not only across worker counts and
//! resumes.
//!
//! - `output/GOLDEN_RESULTS.json` is the sweep report of
//!   `all_tests --scale 0.25 --runs 1 --jobs 2 --omit-timing`; rebuilding it
//!   through the same library calls must reproduce it byte for byte, so a
//!   commit that silently moves a simulated cycle count fails here.
//! - `output/GOLDEN_CONTRACTS.txt` renders every field of every entry of the
//!   access contracts of all six algorithms in both variants; the contracts
//!   the static checker and the sanitizer consume must match it line for
//!   line.
//!
//! A deliberate change regenerates the file (the fresh copy is written
//! under the test's target scratch directory) and says why in CHANGES.md.

use ecl_bench::{BenchReport, Matrix};
use ecl_core::contracts::for_algorithm;
use ecl_core::suite::{Algorithm, RetryPolicy, Variant};
use ecl_core::SimOptions;
use ecl_simt::GpuConfig;
use std::fmt::Write;
use std::path::Path;

/// Compares `fresh` with the committed `file`, reporting the first
/// differing line and where the fresh copy was written.
fn assert_matches_committed(file: &str, fresh: &str) {
    let committed_path = Path::new(env!("CARGO_MANIFEST_DIR")).join(file);
    let committed = std::fs::read_to_string(&committed_path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", committed_path.display()));
    if committed == fresh {
        return;
    }
    let name = Path::new(file).file_name().expect("file name");
    let fresh_path = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::write(&fresh_path, fresh).expect("write fresh copy");
    let first_diff = committed
        .lines()
        .zip(fresh.lines())
        .position(|(a, b)| a != b)
        .unwrap_or_else(|| committed.lines().count().min(fresh.lines().count()));
    panic!(
        "{file} differs from this build at line {} (committed {} bytes, fresh {} bytes); \
         fresh copy written to {}",
        first_diff + 1,
        committed.len(),
        fresh.len(),
        fresh_path.display()
    );
}

#[test]
fn golden_report_reproduces_byte_for_byte() {
    // Exactly what `all_tests --scale 0.25 --runs 1 --jobs 2 --omit-timing`
    // configures; the report records the worker count, so it is pinned too.
    let matrix = Matrix::quick()
        .scale(0.25)
        .runs(1)
        .seed(1)
        .gpus(GpuConfig::paper_gpus())
        .jobs(2)
        .sim_options(SimOptions::default())
        .retry(RetryPolicy {
            max_attempts: 1,
            seed_stride: 1,
        });
    let undirected = matrix.run_undirected();
    let directed = matrix.run_directed();
    let report = BenchReport {
        experiment: matrix.experiment(),
        undirected: &undirected,
        directed: &directed,
        timing: None,
    };
    assert_matches_committed("output/GOLDEN_RESULTS.json", &report.render());
}

#[test]
fn contracts_match_committed_rendering() {
    let mut text = String::new();
    for alg in Algorithm::ALL {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            writeln!(text, "# {alg} {variant}").unwrap();
            for contract in for_algorithm(alg, variant) {
                writeln!(text, "{}", contract.kernel).unwrap();
                for e in &contract.entries {
                    writeln!(
                        text,
                        "  {} {:?} {:?} {:?} {:?} region={:?} phase={:?} benign={:?}",
                        e.buffer,
                        e.space,
                        e.mode,
                        e.kind,
                        e.discipline,
                        e.region,
                        e.phase,
                        e.benign
                    )
                    .unwrap();
                }
            }
        }
    }
    assert_matches_committed("output/GOLDEN_CONTRACTS.txt", &text);
}
