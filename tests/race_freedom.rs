//! The paper's §IV claim, end to end: every baseline code except APSP
//! contains data races; every converted code is race-free. Verified with
//! the race checker over every access of real runs — plus the resilient
//! runner's guarantee that racy and converted codes alike survive fault
//! injection without panicking the harness.

use ecl_analyze::default_inputs;
use ecl_core::suite::{run_resilient, run_variant_on, Algorithm, RetryPolicy, RunOutcome, Variant};
use ecl_core::SimOptions;
use ecl_graph::Csr;
use ecl_racecheck::{check_races, check_races_with_mode, DetectorMode, RaceChecker, RaceReport};
use ecl_simt::{FaultPlan, Gpu, GpuConfig, KernelStats, MemLevel, Space};

/// Runs `algorithm`/`variant` through the suite's dispatch (the canonical
/// policy/visibility mapping) with the race checker armed in `modes`, and
/// returns the GPU.
fn checked(algorithm: Algorithm, variant: Variant, graph: &Csr, modes: &[DetectorMode]) -> Gpu {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.observe(RaceChecker::new(modes, 1));
    run_variant_on(&mut gpu, algorithm, variant, graph);
    gpu
}

fn assert_baseline_races_racefree_does_not(algorithm: Algorithm, graph: &Csr) {
    let base = checked(
        algorithm,
        Variant::Baseline,
        graph,
        &[DetectorMode::Precise],
    );
    assert!(
        !check_races(&base).is_empty(),
        "baseline {algorithm} must race"
    );
    let free = checked(
        algorithm,
        Variant::RaceFree,
        graph,
        &[DetectorMode::Precise],
    );
    assert!(
        check_races(&free).is_empty(),
        "race-free {algorithm} must be clean"
    );
}

fn hb_races(gpu: &Gpu) -> Vec<RaceReport> {
    check_races_with_mode(gpu, DetectorMode::HappensBefore)
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
    // happens-before edges — so the happens-before mode finds races
    // exactly where the epoch mode does, on both variants.
    let g = undirected();
    let both = [DetectorMode::Precise, DetectorMode::HappensBefore];
    let gpu = checked(Algorithm::Cc, Variant::Baseline, &g, &both);
    assert_eq!(check_races(&gpu).is_empty(), hb_races(&gpu).is_empty());
    assert!(!hb_races(&gpu).is_empty());

    let gpu = checked(Algorithm::Cc, Variant::RaceFree, &g, &both);
    assert!(hb_races(&gpu).is_empty());

    let gpu = checked(Algorithm::Mis, Variant::RaceFree, &g, &both);
    assert!(hb_races(&gpu).is_empty());
}

#[test]
fn the_checker_observes_every_access() {
    // Every global access the simulator counts reaches the checker, so no
    // verdict rests on part of a run. APSP is the code that uses shared
    // memory.
    let mut runs: Vec<(Algorithm, Csr)> = Vec::new();
    for alg in Algorithm::ALL {
        if alg != Algorithm::Apsp {
            runs.extend(default_inputs(alg).into_iter().map(|g| (alg, g)));
        }
    }
    let apsp = ecl_graph::gen::rmat(32, 128, 0.5, 0.2, 0.2, true, 11);
    runs.push((Algorithm::Apsp, apsp));
    for (alg, graph) in &runs {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            gpu.set_seed(1);
            gpu.observe(RaceChecker::precise());
            run_variant_on(&mut gpu, *alg, variant, graph);
            let counted: u64 = gpu
                .run_stats()
                .launches
                .iter()
                .map(KernelStats::total_accesses)
                .sum();
            let checker = gpu.sink::<RaceChecker>().expect("armed");
            assert_eq!(
                checker.observed(Space::Global),
                counted,
                "{alg} {variant}: global accesses observed vs counted"
            );
            if *alg == Algorithm::Apsp {
                assert!(
                    checker.observed(Space::Shared) > 0,
                    "{alg} {variant}: no shared access observed"
                );
            }
        }
    }
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
