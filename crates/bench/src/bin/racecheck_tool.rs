//! A Compute-Sanitizer-style command-line race checker for the suite: runs
//! one algorithm/variant/input combination with the race checker armed and
//! prints every detected data race.
//!
//! ```text
//! cargo run --release -p ecl-bench --bin racecheck_tool -- \
//!     --alg cc --variant baseline --input rmat16.sym [--scale 0.25] \
//!     [--mtx path/to/graph.mtx] \
//!     [--mode precise|shared-only|no-launch-barrier|happens-before] \
//!     [--max-pairs N] [--profile] [--json]
//! ```
//!
//! `--json` replaces the human-readable summary with one JSON document
//! (schema `ecl-bench/RACECHECK/v1`) carrying every deduplicated finding —
//! the machine-readable form CI jobs and the differential harness diff
//! against. Its `trace_len` counts every access the checker saw.
//!
//! `--max-pairs N` runs the checker in bounded-memory mode: at most N
//! distinct conflicting access pairs are retained as evidence per finding,
//! with the overflow counted rather than stored. Findings whose evidence was
//! cut off appear in a typed `truncated` list in the JSON output (and are
//! marked in the human summary), so a capped run is never mistaken for a
//! complete one. The finding set itself is identical to an unbounded run —
//! only the retained evidence is bounded.
//!
//! Exit codes (for CI gating): 0 = no races, 1 = races detected, 2 = a
//! usage or I/O error (unknown flag, algorithm, variant, input or mode, a
//! flag without its value or given twice, a bad value, an unreadable
//! `--mtx` file).

use ecl_bench::cli::{usage_exit, Args};
use ecl_bench::export::Json;
use ecl_core::suite::{run_variant_on, Algorithm, Variant};
use ecl_racecheck::{
    access_profile, check_races_bounded, check_races_with_mode, format_profile, format_summary,
    AccessProfiler, BoundedDetection, BoundedFinding, ConflictPair, DetectorMode, RaceChecker,
    RaceReport, RaceSite,
};
use ecl_simt::{Gpu, GpuConfig, Space};
use std::process::ExitCode;

fn site_json(s: &RaceSite) -> Json {
    Json::obj(vec![
        ("thread", Json::Num(s.thread as f64)),
        ("mode", Json::Str(format!("{:?}", s.mode))),
        ("kind", Json::Str(format!("{:?}", s.kind))),
    ])
}

fn pair_json(p: &ConflictPair) -> Json {
    Json::obj(vec![
        ("addr", Json::Num(p.addr as f64)),
        ("first", site_json(&p.first)),
        ("second", site_json(&p.second)),
    ])
}

fn truncated_json(f: &BoundedFinding) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(f.report.kernel.clone())),
        (
            "buffer",
            match &f.report.allocation_name {
                Some(n) => Json::Str(n.clone()),
                None => Json::Null,
            },
        ),
        ("allocation", Json::Num(f.report.allocation as f64)),
        ("class", Json::Str(format!("{:?}", f.report.class))),
        ("retained", Json::Num(f.pairs.len() as f64)),
        ("dropped", Json::Num(f.dropped as f64)),
    ])
}

fn report_json(r: &RaceReport) -> Json {
    Json::obj(vec![
        ("kernel", Json::Str(r.kernel.clone())),
        ("space", Json::Str(format!("{:?}", r.space))),
        ("allocation", Json::Num(r.allocation as f64)),
        (
            "allocation_name",
            match &r.allocation_name {
                Some(n) => Json::Str(n.clone()),
                None => Json::Null,
            },
        ),
        ("example_addr", Json::Num(r.example_addr as f64)),
        ("class", Json::Str(format!("{:?}", r.class))),
        ("first", site_json(&r.first)),
        ("second", site_json(&r.second)),
        ("occurrences", Json::Num(r.occurrences as f64)),
    ])
}

/// Reports a usage or I/O error on one stderr line and exits 2.
fn usage_error(message: &str) -> ! {
    usage_exit("racecheck_tool", message)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(
        &argv,
        &[
            "--alg",
            "--variant",
            "--input",
            "--scale",
            "--mtx",
            "--mode",
            "--max-pairs",
        ],
        &["--profile", "--json"],
    )
    .unwrap_or_else(|e| usage_error(&e));
    let alg = args.value("--alg").unwrap_or("cc").to_lowercase();
    let variant = args.value("--variant").unwrap_or("baseline").to_lowercase();
    let input_name = args.value("--input").unwrap_or("rmat16.sym");
    let scale: f64 = args
        .parsed("--scale")
        .unwrap_or_else(|e| usage_error(&e))
        .unwrap_or(0.25);
    let mode = args.value("--mode").unwrap_or("precise");
    let max_pairs = args.value("--max-pairs").map(|v| match v.parse::<usize>() {
        Ok(n) if n > 0 => n,
        _ => usage_error("--max-pairs needs a positive integer"),
    });
    let algorithm = match Algorithm::parse(&alg) {
        Some(a) if a != Algorithm::Apsp => a,
        _ => usage_error(&format!("unknown algorithm '{alg}' (cc|gc|mis|mst|scc)")),
    };
    let which = match variant.as_str() {
        "baseline" => Variant::Baseline,
        "race-free" | "racefree" => Variant::RaceFree,
        other => usage_error(&format!("unknown variant '{other}' (baseline|race-free)")),
    };
    let detector_mode = match mode {
        "precise" => DetectorMode::Precise,
        "shared-only" => DetectorMode::SharedOnly,
        "no-launch-barrier" => DetectorMode::NoLaunchBarrier,
        "happens-before" | "hb" => DetectorMode::HappensBefore,
        other => usage_error(&format!("unknown detector mode '{other}'")),
    };

    // Input: a real .mtx file when given, else a catalog stand-in.
    let (graph, input_label) = match args.value("--mtx") {
        None => {
            let input = ecl_graph::inputs::GraphInput::by_name(input_name).unwrap_or_else(|| {
                usage_error(&format!(
                    "unknown input '{input_name}' (see all_tests --list-inputs)"
                ))
            });
            match input.try_build(scale, 1) {
                Ok(g) => (g, format!("{input_name} (scale {scale})")),
                Err(e) => usage_error(&e.to_string()),
            }
        }
        Some(path) => match ecl_graph::mtx::load_mtx(path) {
            Ok(g) => (g, path.to_string()),
            Err(e) => usage_error(&e.to_string()),
        },
    };
    let profile = args.has("--profile");
    let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
    gpu.observe(RaceChecker::new(&[detector_mode], max_pairs.unwrap_or(1)));
    if profile {
        gpu.observe(AccessProfiler::default());
    }
    run_variant_on(&mut gpu, algorithm, which, &graph);

    let checker = gpu.sink::<RaceChecker>().expect("armed above");
    let trace_len = checker.observed(Space::Global) + checker.observed(Space::Shared);
    let (reports, bounded): (Vec<RaceReport>, Option<BoundedDetection>) = match max_pairs {
        Some(_) => {
            let detection = check_races_bounded(&gpu, detector_mode);
            (detection.reports(), Some(detection))
        }
        None => (check_races_with_mode(&gpu, detector_mode), None),
    };
    let exit = u8::from(!reports.is_empty());
    if args.has("--json") {
        // In bounded mode each report carries its retained pair evidence,
        // and findings whose evidence was cut off are listed under a typed
        // `truncated` marker so a capped run reads as capped.
        let report_docs: Vec<Json> = match &bounded {
            Some(detection) => detection
                .findings
                .iter()
                .map(|f| {
                    let Json::Obj(mut fields) = report_json(&f.report) else {
                        unreachable!("report_json always builds an object");
                    };
                    fields.push((
                        "pairs".into(),
                        Json::Arr(f.pairs.iter().map(pair_json).collect()),
                    ));
                    fields.push(("dropped_pairs".into(), Json::Num(f.dropped as f64)));
                    Json::Obj(fields)
                })
                .collect(),
            None => reports.iter().map(report_json).collect(),
        };
        let mut doc_fields = vec![
            ("schema", Json::Str("ecl-bench/RACECHECK/v1".into())),
            ("alg", Json::Str(alg.clone())),
            ("variant", Json::Str(variant.clone())),
            ("input", Json::Str(input_label.clone())),
            ("mode", Json::Str(mode.into())),
            ("trace_len", Json::Num(trace_len as f64)),
            ("findings", Json::Num(reports.len() as f64)),
            (
                "occurrences",
                Json::Num(reports.iter().map(|r| r.occurrences).sum::<u64>() as f64),
            ),
            ("reports", Json::Arr(report_docs)),
        ];
        if let Some(detection) = &bounded {
            doc_fields.push(("max_pairs", Json::Num(max_pairs.unwrap_or_default() as f64)));
            doc_fields.push((
                "truncated",
                Json::Arr(
                    detection
                        .truncated()
                        .iter()
                        .map(|f| truncated_json(f))
                        .collect(),
                ),
            ));
        }
        doc_fields.push(("pass", Json::Bool(exit == 0)));
        let doc = Json::obj(doc_fields);
        println!("{}", doc.render());
        return ExitCode::from(exit);
    }
    println!("{alg} {variant} on {input_label}: {trace_len} checked accesses\n");
    print!("{}", format_summary(&reports));
    if let Some(detection) = &bounded {
        let cut = detection.truncated();
        if cut.is_empty() {
            println!(
                "\nbounded mode (--max-pairs {}): no finding exceeded the cap",
                max_pairs.unwrap_or_default()
            );
        } else {
            println!(
                "\nbounded mode (--max-pairs {}): {} finding(s) truncated:",
                max_pairs.unwrap_or_default(),
                cut.len()
            );
            for f in cut {
                println!(
                    "  {} / {}: retained {} pair(s), dropped {}",
                    f.report.kernel,
                    f.report.allocation_name.as_deref().unwrap_or("<unnamed>"),
                    f.pairs.len(),
                    f.dropped
                );
            }
        }
    }
    if profile {
        // §VI-C: which shared arrays carry the traffic (and how racy it is).
        println!("\naccess profile:");
        print!("{}", format_profile(&access_profile(&gpu)));
    }
    ExitCode::from(exit)
}
