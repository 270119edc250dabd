//! The repair pipeline, end to end: for every algorithm, the repair pass
//! synthesizes a race-free variant from detector output on the baseline,
//! and the synthesized variant passes all three oracles — static proof,
//! dynamic racecheck, and differential fixpoint match against the
//! hand-written race-free variant.
//!
//! The full-catalog differential/perf sweep lives in `repair_tool`, whose
//! `--json` document the CI `repair-gate` job gates on and uploads as
//! `REPAIR_RESULTS.json`; this test keeps the guarantee in `cargo test` at
//! a tier-1-friendly input scale.

use ecl_analyze::repair::{synthesize, verify};
use ecl_core::suite::Algorithm;
use ecl_simt::{AccessMode, GpuConfig};

#[test]
fn every_algorithm_synthesizes_a_verified_race_free_variant() {
    let cfg = GpuConfig::test_tiny();
    for alg in Algorithm::ALL {
        let repaired =
            synthesize(alg, &cfg).unwrap_or_else(|e| panic!("{alg}: synthesis failed: {e}"));
        // Every baseline except APSP has something to repair (§IV-A).
        assert_eq!(
            repaired.rewrites.is_empty(),
            alg == Algorithm::Apsp,
            "{alg}: unexpected rewrite set {:#?}",
            repaired.rewrites
        );
        let v = verify(&repaired, &cfg, 0.03, 7);
        assert!(
            v.static_clean(),
            "{alg}: static oracle dirty: {:#?}",
            v.static_conflicts
        );
        assert!(
            v.dynamic_clean(),
            "{alg}: dynamic oracle dirty: races={:#?} failures={:#?}",
            v.dynamic_races,
            v.run_failures
        );
        assert!(
            v.differential_match(),
            "{alg}: differential oracle mismatch: {:#?}",
            v.comparisons
        );
    }
}

#[test]
fn repair_is_minimal_not_blanket() {
    // The machine repair must not degenerate into the hand conversion:
    // sites the detectors never flagged keep their baseline modes.
    let cfg = GpuConfig::test_tiny();
    let cc = synthesize(Algorithm::Cc, &cfg).unwrap();
    assert_eq!(
        cc.mode_table.get("cc_init", "label").unwrap().write,
        AccessMode::Plain,
        "cc_init's owned label store was not flagged and must stay plain"
    );
    assert_eq!(
        cc.mode_table.get("cc_flatten", "label").unwrap().write,
        AccessMode::Atomic,
        "cc_flatten's label traffic was flagged and must be atomic"
    );
    let mst = synthesize(Algorithm::Mst, &cfg).unwrap();
    assert_eq!(
        mst.mode_table.get("mst_connect", "best").unwrap().read,
        AccessMode::Volatile,
        "mst_connect's owned 64-bit best read was not flagged and must stay volatile"
    );
}
