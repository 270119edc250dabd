//! The repair pipeline, end to end: for every algorithm, the repair pass
//! synthesizes a race-free variant from detector output on the baseline,
//! and the synthesized variant passes all three oracles — static proof,
//! dynamic racecheck, and differential fixpoint match against the
//! hand-written race-free variant.
//!
//! The full-catalog differential/perf sweep lives in `repair_tool`, whose
//! `--json` document the CI `repair-gate` job gates on and uploads as
//! `REPAIR_RESULTS.json`; this test keeps the guarantee in `cargo test` at
//! a tier-1-friendly input scale. What synthesis and verification find is
//! pinned across commits in `output/GOLDEN_REPAIR.txt`.

use ecl_analyze::differential::default_inputs;
use ecl_analyze::repair::{
    oracle_inputs, synthesize, verify, InputComparison, RacyGroup, RepairVerification,
    RepairedVariant, DETECT_SEEDS,
};
use ecl_core::contracts::ir_for_algorithm;
use ecl_core::primitives::{AccessPolicy, IrDriven};
use ecl_core::suite::{run_algorithm_checked, run_synthesized, Algorithm, Variant};
use ecl_core::SimOptions;
use ecl_simt::{
    catch_any, AccessMode, AccessOp, DevicePtr, ForEach, Gpu, GpuConfig, IndexDiscipline, KernelIr,
    LaunchConfig, ModeTable, OpWidth,
};
use std::fmt::Write;

mod common;
use common::assert_matches_committed;

fn render_groups<'a>(
    text: &mut String,
    label: &str,
    groups: impl IntoIterator<Item = &'a RacyGroup>,
) {
    writeln!(text, "{label}").unwrap();
    for (kernel, buffer) in groups {
        writeln!(text, "  {kernel}/{buffer}").unwrap();
    }
}

/// Renders what synthesis and verification found for one algorithm.
fn render_repair(text: &mut String, repaired: &RepairedVariant, v: &RepairVerification) {
    writeln!(text, "# {}", repaired.algorithm).unwrap();
    render_groups(text, "static_flagged", &repaired.static_flagged);
    render_groups(text, "dynamic_flagged", &repaired.dynamic_flagged);
    render_groups(text, "flagged", &repaired.flagged);
    writeln!(text, "rewrites").unwrap();
    for r in &repaired.rewrites {
        writeln!(text, "  {r}").unwrap();
    }
    writeln!(text, "verify static_conflicts").unwrap();
    for c in &v.static_conflicts {
        writeln!(text, "  {c} pairs={}", c.pairs).unwrap();
    }
    render_groups(text, "verify dynamic_races", &v.dynamic_races);
    writeln!(text, "verify run_failures").unwrap();
    for f in &v.run_failures {
        writeln!(text, "  {f}").unwrap();
    }
    for c in &v.comparisons {
        writeln!(
            text,
            "comparison {} digests={:016x}/{:016x} cycles={}/{} both_valid={}",
            c.input,
            c.synthesized_digest,
            c.hand_written_digest,
            c.synthesized_cycles,
            c.hand_written_cycles,
            c.both_valid
        )
        .unwrap();
    }
}

#[test]
fn every_algorithm_synthesizes_a_verified_race_free_variant() {
    let cfg = GpuConfig::test_tiny();
    let mut text = String::new();
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
        render_repair(&mut text, &repaired, &v);
    }
    assert_matches_committed("output/GOLDEN_REPAIR.txt", &text);
}

#[test]
fn verify_matches_a_serial_recomputation() {
    // `verify` fans the differential oracle out on the job pool; its
    // comparisons and failures must be this serial loop's, in catalog order.
    let cfg = GpuConfig::test_tiny();
    let opts = SimOptions::default();
    let seed = DETECT_SEEDS[0];
    for alg in [Algorithm::Cc, Algorithm::Scc] {
        let repaired = synthesize(alg, &cfg).unwrap();
        let table = &repaired.mode_table;
        let mut comparisons = Vec::new();
        let mut run_failures = Vec::new();
        for (name, graph) in oracle_inputs(alg, 0.03, 7) {
            let synth = run_synthesized(alg, table, &graph, &cfg, seed, &opts);
            let hand = run_algorithm_checked(alg, Variant::RaceFree, &graph, &cfg, seed, &opts);
            match (synth, hand) {
                (Ok(s), Ok(h)) => comparisons.push(InputComparison {
                    input: name,
                    synthesized_digest: s.solution_digest,
                    hand_written_digest: h.solution_digest,
                    both_valid: s.valid && h.valid,
                    synthesized_cycles: s.cycles,
                    hand_written_cycles: h.cycles,
                }),
                (s, h) => {
                    if let Err(e) = s {
                        run_failures.push(format!("{name} synthesized: {e}"));
                    }
                    if let Err(e) = h {
                        run_failures.push(format!("{name} hand-written: {e}"));
                    }
                }
            }
        }
        let v = verify(&repaired, &cfg, 0.03, 7);
        assert_eq!(v.comparisons, comparisons, "{alg}: comparisons");
        assert_eq!(v.run_failures, run_failures, "{alg}: run failures");
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

/// Runs `algorithm` under `IrDriven` with the mode table of its `variant`
/// IR and asserts that the run equals the hand-written `variant` run: total
/// cycles, every launch's stats, and the solution digest.
fn assert_table_reproduces(algorithm: Algorithm, variant: Variant) {
    let table = ModeTable::from_ir(&ir_for_algorithm(algorithm, variant));
    let opts = SimOptions::default();
    for cfg in [GpuConfig::test_tiny(), GpuConfig::a100()] {
        for (i, graph) in default_inputs(algorithm).iter().enumerate() {
            let what = format!("{algorithm} {variant} input {i} on {}", cfg.name);
            let hand = run_algorithm_checked(algorithm, variant, graph, &cfg, 1, &opts)
                .unwrap_or_else(|e| panic!("{what}: hand-written run failed: {e}"));
            let table_run = run_synthesized(algorithm, &table, graph, &cfg, 1, &opts)
                .unwrap_or_else(|e| panic!("{what}: table run failed: {e}"));
            assert_eq!(table_run.cycles, hand.cycles, "{what}: total cycles");
            assert_eq!(
                table_run.stats.launches, hand.stats.launches,
                "{what}: per-launch stats"
            );
            assert_eq!(
                table_run.solution_digest, hand.solution_digest,
                "{what}: digest"
            );
        }
    }
}

#[test]
fn ir_driven_runs_reproduce_the_hand_written_policies() {
    // Every policy-mediated access takes its mode from the table, so a
    // buffer resolved to the wrong mode moves cycles or launch stats.
    for alg in Algorithm::ALL {
        assert_table_reproduces(alg, Variant::RaceFree);
    }
    // A synthesized run publishes plain stores immediately, and the table
    // carries no store visibility: only the MST and APSP baselines, whose
    // stores are immediate too, can be reproduced from their own IR.
    for alg in [Algorithm::Mst, Algorithm::Apsp] {
        assert_table_reproduces(alg, Variant::Baseline);
    }
}

#[test]
fn ir_driven_accesses_outside_the_table_panic_with_kernel_and_address() {
    let table = ModeTable::from_ir(&[KernelIr::new("probe").op(AccessOp::load(
        "data",
        OpWidth::B4,
        AccessMode::Atomic,
        IndexDiscipline::Arbitrary,
    ))]);
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let data = gpu.alloc_named::<u32>(4, "data");
    let unnamed = gpu.alloc::<u32>(4);
    let other = gpu.alloc_named::<u32>(4, "other");
    gpu.install_mode_table(table);
    let mut read = |p: DevicePtr<u32>| {
        catch_any(|| {
            gpu.launch(
                LaunchConfig::for_items(1),
                ForEach::new("probe", 1, move |ctx, _| {
                    IrDriven::read_u32(ctx, p);
                }),
            );
        })
    };
    read(data.at(3)).expect("the table has an entry for (probe, data)");
    for (case, p) in [
        ("padding after the last element", data.as_ptr().offset(4)),
        ("unnamed allocation", unnamed.at(0)),
        ("buffer without an entry", other.at(0)),
    ] {
        let err = read(p).expect_err(case);
        let expected = format!("kernel 'probe' at {:#x} has no mode-table entry", p.addr());
        assert!(err.contains(&expected), "{case}: {err}");
    }
}
