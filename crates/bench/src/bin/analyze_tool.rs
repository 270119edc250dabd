//! Static access-contract analyzer for the suite: proves the race-free
//! variants free of data races, classifies the baselines' statically-possible
//! conflicts into the paper's benign categories, and (optionally) closes the
//! loop against the dynamic detector and the in-simulator contract sanitizer.
//!
//! ```text
//! cargo run --release -p ecl-bench --bin analyze_tool -- \
//!     [--differential] [--sanitize] [--census-md] [--json] [--seeds N]
//! ```
//!
//! With no flags, runs the static checker over all six codes × both
//! variants and prints the verdicts plus the Table-II-style race census.
//! `--differential` additionally requires every statically-predicted
//! conflict to be dynamically witnessed (and vice versa) on the canonical
//! small inputs; `--sanitize` runs every variant end to end with contract
//! enforcement armed; `--census-md` prints only the markdown census (the
//! form EXPERIMENTS.md embeds); `--json` switches all output to a single
//! JSON document (schema `ecl-bench/ANALYZE/v1`).
//!
//! Exit codes: 0 = all checks passed, 1 = a check failed (unclassified
//! conflict, unproven race-free variant, differential mismatch, or contract
//! violation), 2 = usage error (an unknown flag or stray word, a flag
//! without its value or given twice, a bad value).

use ecl_analyze::{check_suite, format_census, suite_passes, CheckReport};
use ecl_bench::cli::{usage_exit, Args};
use ecl_bench::export::Json;
use ecl_core::suite::{Algorithm, Variant};
use ecl_racecheck::RaceClass;
use ecl_simt::GpuConfig;
use std::process::ExitCode;

fn class_name(c: RaceClass) -> &'static str {
    match c {
        RaceClass::WriteWrite => "write-write",
        RaceClass::ReadWrite => "read-write",
        RaceClass::MixedAtomic => "mixed-atomic",
        RaceClass::ScopedAtomic => "scoped-atomic",
    }
}

fn report_json(r: &CheckReport) -> Json {
    Json::obj(vec![
        ("algorithm", Json::Str(r.algorithm.name().into())),
        ("variant", Json::Str(r.variant.to_string())),
        (
            "kernels",
            Json::Arr(r.kernels.iter().map(|k| Json::Str(k.clone())).collect()),
        ),
        ("race_free", Json::Bool(r.is_race_free())),
        ("fully_classified", Json::Bool(r.fully_classified())),
        ("passes", Json::Bool(r.passes())),
        (
            "conflicts",
            Json::Arr(
                r.conflicts
                    .iter()
                    .map(|c| {
                        Json::obj(vec![
                            ("kernel", Json::Str(c.kernel.clone())),
                            ("buffer", Json::Str(c.buffer.into())),
                            ("space", Json::Str(format!("{:?}", c.space))),
                            ("class", Json::Str(class_name(c.class).into())),
                            (
                                "benign",
                                match c.benign {
                                    Some(b) => Json::Str(b.to_string()),
                                    None => Json::Null,
                                },
                            ),
                            ("pairs", Json::Num(c.pairs as f64)),
                            ("first", Json::Str(c.first.clone())),
                            ("second", Json::Str(c.second.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &["--seeds"],
        &["--differential", "--sanitize", "--census-md", "--json"],
    )
    .unwrap_or_else(|e| usage_exit("analyze_tool", &e));
    let num_seeds: u64 = match args.value("--seeds") {
        Some(s) => match s.parse() {
            Ok(n) if n > 0 => n,
            _ => usage_exit("analyze_tool", &format!("bad --seeds '{s}'")),
        },
        None => 2,
    };
    let json_mode = args.has("--json");
    let cfg = GpuConfig::test_tiny();

    // Static pass: always runs.
    let reports = check_suite();
    let static_ok = suite_passes(&reports);

    if args.has("--census-md") {
        print!("{}", format_census(&reports));
        return if static_ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }

    let mut failed = !static_ok;
    let mut top = vec![
        ("schema", Json::Str("ecl-bench/ANALYZE/v1".into())),
        ("static_pass", Json::Bool(static_ok)),
        (
            "reports",
            Json::Arr(reports.iter().map(report_json).collect()),
        ),
    ];

    if !json_mode {
        println!("static access-contract check (6 codes x 2 variants):\n");
        for r in &reports {
            let verdict = match (r.variant, r.passes()) {
                (Variant::RaceFree, true) => "proven race-free".to_string(),
                (Variant::Baseline, true) if r.conflicts.is_empty() => {
                    "proven race-free (no conversion needed)".to_string()
                }
                (Variant::Baseline, true) => format!(
                    "{} conflict site(s), all classified benign",
                    r.conflicts.len()
                ),
                (_, false) => format!(
                    "FAILED: {} unclassified conflict(s)",
                    r.unclassified().len().max(usize::from(!r.is_race_free()))
                ),
            };
            println!("  {:<5} {:<10} {verdict}", r.algorithm.name(), r.variant);
            if !r.passes() {
                for c in &r.conflicts {
                    println!("        {c}");
                }
            }
        }
        println!("\nrace census:\n\n{}", format_census(&reports));
    }

    if args.has("--differential") {
        let seeds: Vec<u64> = (1..=num_seeds).collect();
        let outcomes = ecl_analyze::diff_suite(&cfg, &seeds);
        let mut mismatch_count = 0usize;
        let mut diff_json = Vec::new();
        for o in &outcomes {
            mismatch_count += o.mismatches.len();
            diff_json.push(Json::obj(vec![
                ("algorithm", Json::Str(o.algorithm.name().into())),
                ("variant", Json::Str(o.variant.to_string())),
                (
                    "static_conflicts",
                    Json::Arr(
                        o.static_conflicts
                            .iter()
                            .map(|(k, b)| Json::Str(format!("{k}/{b}")))
                            .collect(),
                    ),
                ),
                (
                    "dynamic_races",
                    Json::Arr(
                        o.dynamic_races
                            .iter()
                            .map(|(k, b)| Json::Str(format!("{k}/{b}")))
                            .collect(),
                    ),
                ),
                (
                    "mismatches",
                    Json::Arr(
                        o.mismatches
                            .iter()
                            .map(|m| Json::Str(m.to_string()))
                            .collect(),
                    ),
                ),
            ]));
            if !json_mode {
                let status = if o.mismatches.is_empty() {
                    format!(
                        "ok ({} predicted = {} witnessed)",
                        o.static_conflicts.len(),
                        o.dynamic_races.len()
                    )
                } else {
                    format!("{} mismatch(es)", o.mismatches.len())
                };
                println!(
                    "differential {:<5} {:<10} {status}",
                    o.algorithm.name(),
                    o.variant
                );
                for m in &o.mismatches {
                    println!("    {m}");
                }
            }
        }
        top.push(("differential", Json::Arr(diff_json)));
        top.push(("differential_mismatches", Json::Num(mismatch_count as f64)));
        failed |= mismatch_count > 0;
    }

    if args.has("--sanitize") {
        let mut san_json = Vec::new();
        for alg in Algorithm::ALL {
            let graph = &ecl_analyze::default_inputs(alg)[0];
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let result = ecl_analyze::sanitize_run(alg, variant, graph, &cfg, 1);
                let error = result.as_ref().err().map(|e| e.to_string());
                if !json_mode {
                    println!(
                        "sanitize {:<5} {:<10} {}",
                        alg.name(),
                        variant,
                        match &error {
                            None => "ok (all accesses within contract)".to_string(),
                            Some(e) => format!("FAILED: {e}"),
                        }
                    );
                }
                san_json.push(Json::obj(vec![
                    ("algorithm", Json::Str(alg.name().into())),
                    ("variant", Json::Str(variant.to_string())),
                    ("ok", Json::Bool(error.is_none())),
                    (
                        "error",
                        match error {
                            Some(ref e) => Json::Str(e.clone()),
                            None => Json::Null,
                        },
                    ),
                ]));
                failed |= san_json
                    .last()
                    .and_then(|j| j.get("ok"))
                    .map(|v| *v == Json::Bool(false))
                    .unwrap_or(true);
            }
        }
        top.push(("sanitize", Json::Arr(san_json)));
    }

    top.push(("pass", Json::Bool(!failed)));
    if json_mode {
        println!("{}", Json::obj(top).render());
    } else if failed {
        println!("\nanalyze: FAILED");
    } else {
        println!("\nanalyze: all checks passed");
    }
    if failed {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
