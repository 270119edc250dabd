//! Smoke tests of the top-level `ecl_suite` public API surface.

use ecl_suite::prelude::*;

#[test]
fn prelude_covers_the_quickstart_flow() {
    let graph = GraphInput::by_name("rmat16.sym").unwrap().build(0.1, 1);
    let gpu = GpuConfig::rtx2070_super();
    let base = run_algorithm(Algorithm::Cc, Variant::Baseline, &graph, &gpu, 1);
    let free = run_algorithm(Algorithm::Cc, Variant::RaceFree, &graph, &gpu, 1);
    assert!(base.valid && free.valid);
    assert_eq!(base.solution_digest, free.solution_digest);
    assert!(base.cycles < free.cycles, "race-free CC must be slower");
}

#[test]
fn prelude_exposes_race_checking() {
    let mut gpu = ecl_suite::simt::Gpu::new(GpuConfig::test_tiny());
    gpu.observe(RaceChecker::precise());
    let cell = gpu.alloc::<u32>(1);
    gpu.launch(
        ecl_suite::simt::LaunchConfig::for_items(16),
        ecl_suite::simt::ForEach::new("racy", 16, move |ctx, _| {
            let v = ctx.load(cell.at(0));
            ctx.store(cell.at(0), v + 1);
        }),
    );
    let reports: Vec<RaceReport> = check_races(&gpu);
    assert!(!reports.is_empty());
}

#[test]
fn crate_reexports_resolve() {
    // Each sub-crate is reachable through the facade.
    let _ = ecl_suite::graph::gen::grid2d_torus(4, 4);
    let _ = ecl_suite::simt::GpuConfig::paper_gpus();
    let _ = ecl_suite::bench::Matrix::quick();
    assert_eq!(ecl_suite::core::suite::Algorithm::Mis.name(), "MIS");
}

#[test]
fn csr_reexport_builds() {
    let g: Csr = ecl_suite::graph::CsrBuilder::new(3).build();
    assert_eq!(g.num_vertices(), 3);
}
