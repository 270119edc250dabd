//! Finds the "benign" data races in a baseline ECL code with the dynamic
//! race detector, then shows the race-free conversion comes back clean —
//! including the blind spots of the real-world tools the paper used (§IV).
//!
//! ```text
//! cargo run --release --example race_detection
//! ```

use ecl_core::primitives::{Atomic, Plain};
use ecl_core::{cc, mis};
use ecl_racecheck::{check_races, check_races_with_mode, DetectorMode, RaceChecker};
use ecl_simt::{Gpu, GpuConfig, StoreVisibility};
use ecl_suite::prelude::*;

fn main() {
    let graph = GraphInput::by_name("internet")
        .expect("catalog entry")
        .build(0.25, 7);
    println!(
        "checking ECL-CC on 'internet-like' input ({} vertices, {} edges)\n",
        graph.num_vertices(),
        graph.num_edges()
    );

    // The checker is armed on the Gpu, so drive the kernels directly here.
    // One run feeds the precise mode and both tools' blind-spot modes.
    let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
    gpu.observe(RaceChecker::new(
        &[
            DetectorMode::Precise,
            DetectorMode::SharedOnly,
            DetectorMode::NoLaunchBarrier,
        ],
        1,
    ));
    let baseline_races = {
        let result = cc::run_on::<Plain>(&mut gpu, &graph, StoreVisibility::DeferUntilYield);
        assert!(cc::verify_components(&graph, &result.labels));
        check_races(&gpu)
    };
    println!(
        "baseline CC: {} distinct race report(s)",
        baseline_races.len()
    );
    for report in baseline_races.iter().take(5) {
        println!("  {report}");
    }
    assert!(
        !baseline_races.is_empty(),
        "the baseline must race (that is the paper's premise)"
    );

    // The Compute-Sanitizer-like mode checks only shared memory, so it sees
    // nothing — one of the tool limitations §IV describes.
    let sanitizer_view = check_races_with_mode(&gpu, DetectorMode::SharedOnly);
    println!(
        "\nCompute-Sanitizer-mode (shared memory only): {} report(s) — global races invisible",
        sanitizer_view.len()
    );

    // The iGuard-like mode ignores the implicit barrier between launches and
    // over-reports.
    let iguard_view = check_races_with_mode(&gpu, DetectorMode::NoLaunchBarrier);
    println!(
        "iGuard-mode (no launch barrier): {} report(s) — includes false positives",
        iguard_view.len()
    );

    // The race-free conversion is clean.
    let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
    gpu.observe(RaceChecker::precise());
    let result = cc::run_on::<Atomic>(&mut gpu, &graph, StoreVisibility::Immediate);
    assert!(cc::verify_components(&graph, &result.labels));
    let free_races = check_races(&gpu);
    println!("\nrace-free CC: {} race report(s)", free_races.len());
    assert!(free_races.is_empty(), "the conversion must be race-free");

    // Same story for MIS, whose baseline races on the packed status bytes.
    let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
    gpu.observe(RaceChecker::precise());
    mis::run_on::<ecl_core::primitives::VolatileReadPlainWrite>(
        &mut gpu,
        &graph,
        StoreVisibility::DeferBounded {
            every: 2,
            eighths: 4,
        },
    );
    let mis_races = check_races(&gpu);
    println!(
        "\nbaseline MIS: {} distinct race report(s)",
        mis_races.len()
    );
    assert!(!mis_races.is_empty());
    println!("\nall assertions passed: baselines race, conversions are clean.");
}
