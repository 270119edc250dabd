//! TSan-lane targets: one test per native policy, exercising every native
//! kernel on a small-but-contended graph with more threads than cores.
//!
//! Run normally these are ordinary correctness checks. Under the CI
//! ThreadSanitizer lane (`-Zsanitizer=thread`) the race-free test must come
//! back clean — its only shared accesses are real `std::sync::atomic`
//! operations — while the baseline test is *expected* to light up: its
//! volatile raw-pointer loads and stores are deliberate data races, the very
//! thing the paper's conversion removes. The lane logs baseline reports
//! without failing the build.

use ecl_core::suite::{run_native, Algorithm, Variant};
use ecl_graph::gen;

fn run_all(variant: Variant) {
    let g = gen::rmat(512, 2_048, 0.57, 0.19, 0.19, true, 7);
    for alg in Algorithm::UNDIRECTED {
        for (threads, seed) in [(4, 1), (8, 5)] {
            let r = run_native(alg, variant, &g, threads, seed);
            assert!(r.valid, "{alg} {variant} invalid");
        }
    }
    let r = run_native(Algorithm::Scc, variant, &g, 8, 3);
    assert!(r.valid, "SCC {variant} invalid");
    // 196 vertices: 4 tiles per side, so phases 2 and 3 read tiles that
    // other threads wrote in the phase before.
    let apsp = gen::grid2d_torus(14, 14).with_random_weights(20, 4);
    let r = run_native(Algorithm::Apsp, variant, &apsp, 4, 2);
    assert!(r.valid, "APSP {variant} invalid");
}

#[test]
fn race_free_native_kernels_are_tsan_clean() {
    run_all(Variant::RaceFree);
}

#[test]
fn baseline_native_kernels_race_under_tsan() {
    run_all(Variant::Baseline);
}
