//! Automated race repair driver: synthesizes a race-free variant of each
//! baseline from detector output, verifies it with all three oracles, and
//! reports the perf delta against the hand-written race-free variant.
//!
//! ```text
//! cargo run --release -p ecl-bench --bin repair_tool -- \
//!     [--alg CC|GC|MIS|MST|SCC|APSP|all] [--scale F] [--gpu NAME] [--json]
//! ```
//!
//! Per algorithm: the repair pass in `ecl-analyze` flags racy
//! (kernel, buffer) groups with the static checker and the dynamic
//! detector, rewrites every flagged repairable access op in the baseline
//! kernel IR to a relaxed atomic, re-lowers contracts and the execution
//! mode table, and then must pass
//!
//! 1. the **static** oracle — the pair analysis discharges every
//!    write-involving pair of the re-lowered contracts;
//! 2. the **dynamic** oracle — race-checked runs under the mode table
//!    (with the re-lowered contracts armed as a sanitizer) witness zero
//!    races;
//! 3. the **differential** oracle — the synthesized variant's solution
//!    digest matches the hand-written race-free variant's on every catalog
//!    input.
//!
//! The catalog runs also measure the synthesized/hand-written cycle ratio:
//! the minimal machine repair leaves unflagged sites in their baseline
//! modes, so it is not the same code as the blanket hand conversion.
//!
//! `--json` emits a single document (schema `ecl-bench/REPAIR/v1`).
//! Exit codes: 0 = every variant synthesized and verified, 1 = a synthesis
//! or oracle failure, 2 = usage error (an unknown flag or stray word, a
//! flag without its value or given twice, a bad value).

use ecl_analyze::repair;
use ecl_bench::cli::{usage_exit, Args};
use ecl_bench::export::Json;
use ecl_core::suite::Algorithm;
use ecl_simt::GpuConfig;
use std::process::ExitCode;

fn comparison_json(c: &repair::InputComparison) -> Json {
    Json::obj(vec![
        ("input", Json::Str(c.input.clone())),
        ("digests_match", Json::Bool(c.matches())),
        (
            "synthesized_digest",
            Json::Str(format!("{:#018x}", c.synthesized_digest)),
        ),
        (
            "hand_written_digest",
            Json::Str(format!("{:#018x}", c.hand_written_digest)),
        ),
        ("both_valid", Json::Bool(c.both_valid)),
        ("synthesized_cycles", Json::Num(c.synthesized_cycles as f64)),
        (
            "hand_written_cycles",
            Json::Num(c.hand_written_cycles as f64),
        ),
        ("ratio", Json::Num(c.ratio())),
    ])
}

fn group_arr(groups: &std::collections::BTreeSet<(String, String)>) -> Json {
    Json::Arr(
        groups
            .iter()
            .map(|(k, b)| Json::Str(format!("{k}/{b}")))
            .collect(),
    )
}

/// Reports a usage error on one stderr line and exits 2.
fn usage_error(message: &str) -> ! {
    usage_exit("repair_tool", message)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&argv, &["--alg", "--scale", "--gpu"], &["--json"])
        .unwrap_or_else(|e| usage_error(&e));
    let algs: Vec<Algorithm> = match args.value("--alg").unwrap_or("all") {
        "all" => Algorithm::ALL.to_vec(),
        name => match Algorithm::parse(name) {
            Some(a) => vec![a],
            None => usage_error(&format!("unknown algorithm '{name}'")),
        },
    };
    let scale: f64 = args
        .parsed("--scale")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or(0.05);
    if !(scale > 0.0 && scale.is_finite()) {
        usage_error("--scale must be a positive finite number");
    }
    let cfg = match args.value("--gpu") {
        None => GpuConfig::test_tiny(),
        Some(name) => GpuConfig::by_name(name)
            .unwrap_or_else(|| usage_error(&format!("unknown GPU '{name}'"))),
    };
    let json_mode = args.has("--json");
    const GRAPH_SEED: u64 = 7;

    let mut failed = false;
    let mut results = Vec::new();
    for alg in algs {
        let repaired = match repair::synthesize(alg, &cfg) {
            Ok(r) => r,
            Err(e) => {
                failed = true;
                if !json_mode {
                    println!("{:<5} synthesis FAILED: {e}", alg.name());
                }
                results.push(Json::obj(vec![
                    ("algorithm", Json::Str(alg.name().into())),
                    ("synthesized", Json::Bool(false)),
                    ("error", Json::Str(e.to_string())),
                    ("pass", Json::Bool(false)),
                ]));
                continue;
            }
        };
        let v = repair::verify(&repaired, &cfg, scale, GRAPH_SEED);
        failed |= !v.passes();
        if !json_mode {
            println!(
                "{:<5} {:>2} group(s) flagged, {:>2} rewrite(s): static {}, dynamic {}, \
                 differential {} ({} inputs), synth/hand cycle ratio {:.4}",
                alg.name(),
                repaired.flagged.len(),
                repaired.rewrites.len(),
                if v.static_clean() { "clean" } else { "DIRTY" },
                if v.dynamic_clean() { "clean" } else { "DIRTY" },
                if v.differential_match() {
                    "match"
                } else {
                    "MISMATCH"
                },
                v.comparisons.len(),
                v.geomean_ratio(),
            );
            for r in &repaired.rewrites {
                println!("        rewrite {r}");
            }
            for c in &v.static_conflicts {
                println!("        static  {c}");
            }
            for (k, b) in &v.dynamic_races {
                println!("        dynamic race {k}/{b}");
            }
            for f in &v.run_failures {
                println!("        run failure {f}");
            }
        }
        results.push(Json::obj(vec![
            ("algorithm", Json::Str(alg.name().into())),
            ("synthesized", Json::Bool(true)),
            ("static_flagged", group_arr(&repaired.static_flagged)),
            ("dynamic_flagged", group_arr(&repaired.dynamic_flagged)),
            ("flagged", group_arr(&repaired.flagged)),
            (
                "rewrites",
                Json::Arr(
                    repaired
                        .rewrites
                        .iter()
                        .map(|r| {
                            Json::obj(vec![
                                ("kernel", Json::Str(r.kernel.clone())),
                                ("buffer", Json::Str(r.buffer.into())),
                                ("kind", Json::Str(format!("{:?}", r.kind))),
                                ("width", Json::Str(format!("{:?}", r.width))),
                                ("from_mode", Json::Str(format!("{:?}", r.from))),
                                ("to_mode", Json::Str("Atomic".into())),
                                ("masked", Json::Bool(r.masked)),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("static_clean", Json::Bool(v.static_clean())),
            ("dynamic_clean", Json::Bool(v.dynamic_clean())),
            ("differential_match", Json::Bool(v.differential_match())),
            (
                "comparisons",
                Json::Arr(v.comparisons.iter().map(comparison_json).collect()),
            ),
            ("geomean_cycle_ratio", Json::Num(v.geomean_ratio())),
            ("pass", Json::Bool(v.passes())),
        ]));
    }

    let doc = Json::obj(vec![
        ("schema", Json::Str("ecl-bench/REPAIR/v1".into())),
        ("gpu", Json::Str(cfg.name.to_string())),
        ("scale", Json::Num(scale)),
        ("results", Json::Arr(results)),
        ("pass", Json::Bool(!failed)),
    ]);
    if json_mode {
        println!("{}", doc.render());
    } else if failed {
        println!("\nrepair: FAILED");
    } else {
        println!("\nrepair: all synthesized variants verified");
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
