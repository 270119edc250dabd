//! The paper's §IV claim, end to end: every baseline code except APSP
//! contains data races; every converted code is race-free. Verified with
//! the dynamic detector over full traces of real runs — plus the resilient
//! runner's guarantee that racy and converted codes alike survive fault
//! injection without panicking the harness.

use ecl_core::suite::{run_resilient, run_variant_on, Algorithm, RetryPolicy, RunOutcome, Variant};
use ecl_core::SimOptions;
use ecl_graph::Csr;
use ecl_racecheck::{check_races, check_races_hb};
use ecl_simt::{FaultPlan, Gpu, GpuConfig, MemLevel};

/// Runs `algorithm`/`variant` on a traced GPU through the suite's dispatch
/// (the canonical policy/visibility mapping) and returns the GPU.
fn traced(algorithm: Algorithm, variant: Variant, graph: &Csr) -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.enable_tracing();
    run_variant_on(&mut gpu, algorithm, variant, graph);
    gpu
}

fn assert_baseline_races_racefree_does_not(algorithm: Algorithm, graph: &Csr) {
    let base = traced(algorithm, Variant::Baseline, graph);
    assert!(
        !check_races(&base).is_empty(),
        "baseline {algorithm} must race"
    );
    let free = traced(algorithm, Variant::RaceFree, graph);
    assert!(
        check_races(&free).is_empty(),
        "race-free {algorithm} must be clean"
    );
}

fn undirected() -> Csr {
    ecl_graph::gen::rmat(192, 768, 0.5, 0.2, 0.2, true, 11)
}

fn directed() -> Csr {
    ecl_graph::gen::toroid_wedge(8, 8)
}

#[test]
fn baseline_cc_races_racefree_does_not() {
    assert_baseline_races_racefree_does_not(Algorithm::Cc, &undirected());
}

#[test]
fn baseline_mis_races_racefree_does_not() {
    assert_baseline_races_racefree_does_not(Algorithm::Mis, &undirected());
}

#[test]
fn baseline_gc_races_racefree_does_not() {
    assert_baseline_races_racefree_does_not(Algorithm::Gc, &undirected());
}

#[test]
fn baseline_mst_races_racefree_does_not() {
    let g = undirected().with_random_weights(100, 1);
    assert_baseline_races_racefree_does_not(Algorithm::Mst, &g);
}

#[test]
fn baseline_scc_races_racefree_does_not() {
    assert_baseline_races_racefree_does_not(Algorithm::Scc, &directed());
}

#[test]
fn epoch_and_happens_before_detectors_agree_on_ecl_codes() {
    // The ECL codes use only *relaxed* atomics, which establish no
    // happens-before edges — so the precise vector-clock detector finds
    // races exactly where the epoch detector does, on both variants.
    let g = undirected();
    let gpu = traced(Algorithm::Cc, Variant::Baseline, &g);
    assert_eq!(
        check_races(&gpu).is_empty(),
        check_races_hb(&gpu).is_empty()
    );
    assert!(!check_races_hb(&gpu).is_empty());

    let gpu = traced(Algorithm::Cc, Variant::RaceFree, &g);
    assert!(check_races_hb(&gpu).is_empty());

    let gpu = traced(Algorithm::Mis, Variant::RaceFree, &g);
    assert!(check_races_hb(&gpu).is_empty());
}

#[test]
fn resilient_runner_handles_both_variants_of_every_code() {
    // Without faults, every combination must succeed on the first attempt —
    // the resilient wrapper adds recovery, not noise.
    let und = undirected();
    let dir = directed();
    let cfg = GpuConfig::test_tiny();
    let clean = SimOptions::default();
    let policy = RetryPolicy::default();
    for alg in Algorithm::ALL {
        let g = if alg.directed() { &dir } else { &und };
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let outcome = run_resilient(alg, variant, g, &cfg, 1, &clean, &policy);
            assert!(
                matches!(outcome, RunOutcome::Ok(_)),
                "{alg} {variant} without faults: {outcome:?}"
            );
        }
    }
}

#[test]
fn resilient_runner_contains_aggressive_faults() {
    // With heavy bit-flipping, racy baseline codes may produce SDC, crash on
    // corrupted indices, or still succeed — but the harness itself must
    // never panic, and any returned result must have passed verification.
    let g = undirected();
    let opts = SimOptions {
        watchdog: Some(20_000_000),
        fault: Some(FaultPlan::new(0xbad).with_bitflips(0.001, MemLevel::L2)),
        deadline: None,
        mode_table: None,
    };
    let policy = RetryPolicy {
        max_attempts: 2,
        seed_stride: 1,
    };
    for alg in [Algorithm::Cc, Algorithm::Mis] {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let outcome =
                run_resilient(alg, variant, &g, &GpuConfig::test_tiny(), 3, &opts, &policy);
            if let Some(result) = outcome.result() {
                assert!(result.valid, "{alg} {variant} returned an invalid result");
            }
        }
    }
}
