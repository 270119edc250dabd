//! Tier-1 closure of the static-analysis story: the static access-contract
//! checker, the dynamic race detector, and the in-simulator contract
//! sanitizer must tell one consistent story over every algorithm × variant.
//!
//! Three agreements are enforced on the canonical small inputs:
//!
//! 1. the **static checker** proves every race-free variant clean and
//!    classifies 100% of the baselines' conflicts as benign;
//! 2. the **differential harness** finds the statically-predicted conflict
//!    set and the dynamically-witnessed race set identical, kernel by kernel
//!    and buffer by buffer (no contract lies, no contract over-approximates),
//!    and the kernels that launch are exactly the kernels with contracts;
//! 3. the **sanitizer** completes full runs of every variant with contract
//!    enforcement armed — every dynamic access falls inside a declared
//!    footprint.
//!
//! The conflict sets, race sets and launched kernels of every outcome, and
//! the census, are pinned across commits in `output/GOLDEN_ANALYSIS.txt`.

use ecl_analyze::{
    check_suite, default_inputs, diff_suite, format_census, launched_kernels_match_contracts,
    sanitize_run, suite_passes,
};
use ecl_core::suite::{Algorithm, Variant};
use ecl_simt::GpuConfig;
use std::fmt::Write;

mod common;
use common::assert_part_matches_committed;

const GOLDEN_ANALYSIS: &str = "output/GOLDEN_ANALYSIS.txt";

#[test]
fn static_checker_passes_the_whole_suite() {
    let reports = check_suite();
    assert_eq!(reports.len(), 12, "six codes x two variants");
    assert!(suite_passes(&reports));
    for r in &reports {
        match r.variant {
            Variant::RaceFree => assert!(
                r.is_race_free(),
                "{} race-free must be proven clean: {:?}",
                r.algorithm,
                r.conflicts
            ),
            Variant::Baseline => assert!(
                r.fully_classified(),
                "{} baseline has unclassified conflicts: {:?}",
                r.algorithm,
                r.unclassified()
            ),
        }
    }
    let census = format!("## census\n{}", format_census(&reports));
    assert_part_matches_committed(GOLDEN_ANALYSIS, "## census", &census);
}

fn render_set<'a>(text: &mut String, label: &str, items: impl IntoIterator<Item = &'a String>) {
    write!(text, "{label}:").unwrap();
    for item in items {
        write!(text, " {item}").unwrap();
    }
    writeln!(text).unwrap();
}

#[test]
fn static_and_dynamic_race_views_coincide() {
    let cfg = GpuConfig::test_tiny();
    let outcomes = diff_suite(&cfg, &[1, 2]);
    assert_eq!(outcomes.len(), 12);
    let mut text = String::from("## differential\n");
    for o in &outcomes {
        writeln!(text, "# {} {}", o.algorithm, o.variant).unwrap();
        let pair = |(kernel, buffer): &(String, String)| format!("{kernel}/{buffer}");
        let statics: Vec<String> = o.static_conflicts.iter().map(pair).collect();
        let dynamics: Vec<String> = o.dynamic_races.iter().map(pair).collect();
        render_set(&mut text, "static_conflicts", &statics);
        render_set(&mut text, "dynamic_races", &dynamics);
        render_set(&mut text, "launched", &o.launched);
        assert!(
            o.mismatches.is_empty(),
            "{} {}: {}",
            o.algorithm,
            o.variant,
            o.mismatches
                .iter()
                .map(|m| m.to_string())
                .collect::<Vec<_>>()
                .join("; ")
        );
        assert!(
            launched_kernels_match_contracts(o),
            "{} {}: launched kernels {:?} differ from the declared contracts",
            o.algorithm,
            o.variant,
            o.launched
        );
        match o.variant {
            // Race-free variants witness nothing, matching the empty
            // prediction.
            Variant::RaceFree => assert!(
                o.dynamic_races.is_empty(),
                "{} race-free must run clean: {:?}",
                o.algorithm,
                o.dynamic_races
            ),
            // Every racy baseline actually exercises its races on the
            // canonical inputs (APSP is race-free by construction).
            Variant::Baseline if o.algorithm != Algorithm::Apsp => assert!(
                !o.dynamic_races.is_empty(),
                "{} baseline witnessed no races on the canonical inputs",
                o.algorithm
            ),
            Variant::Baseline => assert!(o.dynamic_races.is_empty()),
        }
    }
    assert_part_matches_committed(GOLDEN_ANALYSIS, "## differential", &text);
}

#[test]
fn sanitizer_armed_runs_complete_for_every_variant() {
    let cfg = GpuConfig::test_tiny();
    for alg in Algorithm::ALL {
        let graph = &default_inputs(alg)[0];
        for variant in [Variant::Baseline, Variant::RaceFree] {
            if let Err(e) = sanitize_run(alg, variant, graph, &cfg, 1) {
                panic!("{alg} {variant} violated its contracts: {e}");
            }
        }
    }
}
