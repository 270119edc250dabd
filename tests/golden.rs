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
//! - `output/GOLDEN_RACES.txt` renders every field of every finding of the
//!   race checker over the racy baselines' runs: the three epoch modes with
//!   their pair evidence, and the happens-before mode. A rewrite of the
//!   checker's engine must reproduce it line for line.
//! - `output/GOLDEN_GRAPHS.txt` pins every generated input byte for byte:
//!   the whole catalog at scales 0.25 and 1.0 and the R-MAT graphs of
//!   perfbench's `native-rmat` and of `native_bench --quick`. The ignored
//!   `large_graphs_match_committed_digests` pins the sizes tier-1 cannot
//!   afford in `output/GOLDEN_GRAPHS_LARGE.txt`; run it with
//!   `cargo test --release --test golden -- --ignored`.
//!
//! A deliberate change regenerates the file (the fresh copy is written
//! under the test's target scratch directory) and says why in CHANGES.md.

use ecl_analyze::default_inputs;
use ecl_bench::journal::fnv1a;
use ecl_bench::{graph_seed, BenchReport, Matrix};
use ecl_core::contracts::for_algorithm;
use ecl_core::suite::{run_variant_on, Algorithm, RetryPolicy, Variant};
use ecl_core::SimOptions;
use ecl_graph::gen::rmat;
use ecl_graph::inputs::{directed_catalog, undirected_catalog};
use ecl_graph::Csr;
use ecl_racecheck::{
    check_races_bounded, check_races_with_mode, BoundedFinding, DetectorMode, RaceChecker,
    RaceReport, RaceSite,
};
use ecl_simt::{Gpu, GpuConfig};
use std::fmt::Write;

mod common;
use common::assert_matches_committed;

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

fn render_site(s: &RaceSite) -> String {
    format!("t{} {:?} {:?}", s.thread, s.mode, s.kind)
}

fn render_report(text: &mut String, r: &RaceReport) {
    writeln!(
        text,
        "{} {:?} alloc={:#x} name={:?} addr={:#x} {:?} first=[{}] second=[{}] occurrences={}",
        r.kernel,
        r.space,
        r.allocation,
        r.allocation_name,
        r.example_addr,
        r.class,
        render_site(&r.first),
        render_site(&r.second),
        r.occurrences
    )
    .unwrap();
}

fn render_bounded(text: &mut String, findings: &[BoundedFinding]) {
    for f in findings {
        render_report(text, &f.report);
        for p in &f.pairs {
            writeln!(
                text,
                "  pair addr={:#x} [{}] [{}]",
                p.addr,
                render_site(&p.first),
                render_site(&p.second)
            )
            .unwrap();
        }
        writeln!(text, "  dropped={}", f.dropped).unwrap();
    }
}

const MAX_PAIRS: usize = 4;

/// A baseline run at scheduler seed 1 on the test-tiny GPU, checked in
/// `modes`.
fn checked_baseline(alg: Algorithm, graph: &Csr, modes: &[DetectorMode]) -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.set_seed(1);
    gpu.observe(RaceChecker::new(modes, MAX_PAIRS));
    run_variant_on(&mut gpu, alg, Variant::Baseline, graph);
    gpu
}

#[test]
fn race_findings_match_committed_rendering() {
    let modes = [
        DetectorMode::Precise,
        DetectorMode::SharedOnly,
        DetectorMode::NoLaunchBarrier,
    ];
    let mut text = String::new();
    for alg in Algorithm::ALL {
        if alg == Algorithm::Apsp {
            continue;
        }
        for (i, graph) in default_inputs(alg).iter().enumerate() {
            let gpu = checked_baseline(alg, graph, &DetectorMode::ALL);
            for mode in modes {
                writeln!(
                    text,
                    "# {alg} baseline input {i} {mode:?} max_pairs={MAX_PAIRS}"
                )
                .unwrap();
                render_bounded(&mut text, &check_races_bounded(&gpu, mode).findings);
            }
            writeln!(text, "# {alg} baseline input {i} happens-before").unwrap();
            for r in check_races_with_mode(&gpu, DetectorMode::HappensBefore) {
                render_report(&mut text, &r);
            }
        }
    }
    // APSP is race-free under a launch-aware detector, and the only code
    // that uses shared memory: the launch-blind mode exercises both spaces.
    let graph = ecl_graph::gen::rmat(32, 128, 0.5, 0.2, 0.2, true, 11);
    let mode = DetectorMode::NoLaunchBarrier;
    let gpu = checked_baseline(Algorithm::Apsp, &graph, &[mode]);
    writeln!(
        text,
        "# APSP baseline rmat32 {mode:?} max_pairs={MAX_PAIRS}"
    )
    .unwrap();
    render_bounded(&mut text, &check_races_bounded(&gpu, mode).findings);
    assert_matches_committed("output/GOLDEN_RACES.txt", &text);
}

const GRAPHS_HEADER: &str = "# graph scale n m fnv1a64(le32 row_offsets ++ col_indices)\n";
const RMAT_SKEW: (f64, f64, f64) = (0.57, 0.19, 0.19);

fn render_graph(text: &mut String, name: &str, scale: &str, g: &Csr) {
    let bytes: Vec<u8> = g
        .row_offsets()
        .iter()
        .chain(g.col_indices())
        .flat_map(|w| w.to_le_bytes())
        .collect();
    writeln!(
        text,
        "{name} {scale} {} {} {:016x}",
        g.num_vertices(),
        g.num_edges(),
        fnv1a(&bytes)
    )
    .unwrap();
}

/// Every catalog input at `scale`, built as the sweep builds it at seed 1.
fn render_catalog(text: &mut String, scale: f64) {
    for input in undirected_catalog().iter().chain(directed_catalog()) {
        let g = input.build(scale, graph_seed(1));
        render_graph(text, input.name(), &scale.to_string(), &g);
    }
}

#[test]
fn graphs_match_committed_digests() {
    let mut text = String::from(GRAPHS_HEADER);
    render_catalog(&mut text, 0.25);
    render_catalog(&mut text, 1.0);
    let (a, b, c) = RMAT_SKEW;
    // perfbench's native-rmat pair at seed 1, then `native_bench --quick`.
    let g = rmat(1 << 18, 1_000_000, a, b, c, true, graph_seed(1));
    render_graph(&mut text, "native-rmat", "-", &g);
    let g = rmat(1024, 8192, a, b, c, true, graph_seed(1));
    render_graph(&mut text, "native-rmat-apsp", "-", &g);
    let g = rmat(1 << 12, 16_384, a, b, c, true, 0x5eed);
    render_graph(&mut text, "native_bench-quick", "-", &g);
    assert_matches_committed("output/GOLDEN_GRAPHS.txt", &text);
}

#[test]
#[ignore = "builds a 14.7M-edge graph; run with --release"]
fn large_graphs_match_committed_digests() {
    let mut text = String::from(GRAPHS_HEADER);
    render_catalog(&mut text, 4.0);
    let (a, b, c) = RMAT_SKEW;
    // `native_bench`'s full-scale input.
    let g = rmat(1 << 21, 7_500_000, a, b, c, true, 0x5eed);
    render_graph(&mut text, "native_bench-full", "-", &g);
    assert_matches_committed("output/GOLDEN_GRAPHS_LARGE.txt", &text);
}
