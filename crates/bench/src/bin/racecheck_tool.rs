//! A Compute-Sanitizer-style command-line race checker for the suite: runs
//! one algorithm/variant/input combination under tracing and prints every
//! detected data race.
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
//! against.
//!
//! `--max-pairs N` runs the detector in bounded-memory mode: at most N
//! distinct conflicting access pairs are retained as evidence per finding,
//! with the overflow counted rather than stored. Findings whose evidence was
//! cut off appear in a typed `truncated` list in the JSON output (and are
//! marked in the human summary), so a capped run is never mistaken for a
//! complete one. The finding set itself is identical to an unbounded run —
//! only the retained evidence is bounded.
//!
//! A trace that filled its event cap is analyzed as the prefix it holds.
//! The JSON output then carries `trace_dropped` (the number of events past
//! the cap) and the summary prints it; complete traces omit both.
//!
//! Exit codes (for CI gating): 0 = no races in a complete trace, 1 = races
//! detected (a truncated trace's prefix has no false positives), 2 = no
//! races in a truncated trace (`"pass": false`: the unanalyzed tail may
//! race), or a usage or I/O error (unknown algorithm/input/mode,
//! unreadable `--mtx` file).

use ecl_bench::export::Json;
use ecl_core::suite::{run_variant_on, Algorithm, Variant};
use ecl_racecheck::{
    access_profile, check_races_bounded, check_races_hb, check_races_with_mode, format_profile,
    format_summary, BoundedDetection, BoundedFinding, ConflictPair, DetectorMode, RaceReport,
    RaceSite,
};
use ecl_simt::{Gpu, GpuConfig};
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

/// The exit code for a run; only 0 passes. Races found in a truncated
/// trace are real, but a truncated trace without races proves nothing.
fn verdict(races: bool, trace_dropped: Option<u64>) -> u8 {
    match (races, trace_dropped) {
        (true, _) => 1,
        (false, Some(_)) => 2,
        (false, None) => 0,
    }
}

/// Prints a diagnostic to stderr and exits with the usage/I/O error code.
fn usage_error(message: String) -> ExitCode {
    eprintln!("racecheck_tool: {message}");
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str, default: &str| -> String {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
            .unwrap_or_else(|| default.to_string())
    };

    let alg = get("--alg", "cc").to_lowercase();
    let variant = get("--variant", "baseline").to_lowercase();
    let input_name = get("--input", "rmat16.sym");
    let scale: f64 = match get("--scale", "0.25").parse() {
        Ok(s) => s,
        Err(_) => return usage_error(format!("bad --scale '{}'", get("--scale", "0.25"))),
    };
    let mode = get("--mode", "precise");
    let mtx_path = get("--mtx", "");
    let max_pairs: Option<usize> = match args.iter().position(|a| a == "--max-pairs") {
        Some(i) => match args.get(i + 1).map(|s| s.parse::<usize>()) {
            Some(Ok(n)) if n > 0 => Some(n),
            _ => return usage_error("--max-pairs needs a positive integer".into()),
        },
        None => None,
    };

    // Input: a real .mtx file when given, else a catalog stand-in.
    let (graph, input_label) = if mtx_path.is_empty() {
        let input = match ecl_graph::inputs::GraphInput::by_name(&input_name) {
            Some(i) => i,
            None => {
                return usage_error(format!(
                    "unknown input '{input_name}' (see all_tests --list-inputs)"
                ))
            }
        };
        match input.try_build(scale, 1) {
            Ok(g) => (g, format!("{input_name} (scale {scale})")),
            Err(e) => return usage_error(e.to_string()),
        }
    } else {
        match ecl_graph::mtx::load_mtx(&mtx_path) {
            Ok(g) => (g, mtx_path.clone()),
            Err(e) => return usage_error(e.to_string()),
        }
    };
    let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
    gpu.enable_tracing();
    let algorithm = match Algorithm::parse(&alg) {
        Some(a) if a != Algorithm::Apsp => a,
        _ => return usage_error(format!("unknown algorithm '{alg}' (cc|gc|mis|mst|scc)")),
    };
    let which = if variant == "race-free" || variant == "racefree" {
        Variant::RaceFree
    } else {
        Variant::Baseline
    };
    run_variant_on(&mut gpu, algorithm, which, &graph);

    let trace_len = gpu.trace().map(|t| t.len()).unwrap_or(0);
    let trace_dropped = gpu.trace().and_then(|t| t.truncated());
    let detector_mode = match mode.as_str() {
        "precise" => Some(DetectorMode::Precise),
        "shared-only" => Some(DetectorMode::SharedOnly),
        "no-launch-barrier" => Some(DetectorMode::NoLaunchBarrier),
        "happens-before" | "hb" => None,
        other => return usage_error(format!("unknown detector mode '{other}'")),
    };
    let (reports, bounded): (Vec<RaceReport>, Option<BoundedDetection>) =
        match (detector_mode, max_pairs) {
            (Some(m), Some(cap)) => {
                let detection = check_races_bounded(&gpu, m, cap);
                (detection.reports(), Some(detection))
            }
            (Some(m), None) => (check_races_with_mode(&gpu, m), None),
            (None, Some(_)) => {
                return usage_error(
                    "--max-pairs requires a trace-replay mode (precise|shared-only|\
                     no-launch-barrier), not happens-before"
                        .into(),
                )
            }
            (None, None) => (check_races_hb(&gpu), None),
        };
    let exit = verdict(!reports.is_empty(), trace_dropped);
    if args.iter().any(|a| a == "--json") {
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
            ("mode", Json::Str(mode.clone())),
            ("trace_len", Json::Num(trace_len as f64)),
        ];
        if let Some(dropped) = trace_dropped {
            doc_fields.push(("trace_dropped", Json::Num(dropped as f64)));
        }
        doc_fields.extend([
            ("findings", Json::Num(reports.len() as f64)),
            (
                "occurrences",
                Json::Num(reports.iter().map(|r| r.occurrences).sum::<u64>() as f64),
            ),
            ("reports", Json::Arr(report_docs)),
        ]);
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
    println!("{alg} {variant} on {input_label}: {trace_len} traced accesses\n");
    if let Some(dropped) = trace_dropped {
        println!(
            "trace truncated: {dropped} access(es) past the event cap were not analyzed; \
             finding no race here does not pass\n"
        );
    }
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
    if args.iter().any(|a| a == "--profile") {
        // §VI-C: which shared arrays carry the traffic (and how racy it is).
        println!("\naccess profile:");
        print!("{}", format_profile(&access_profile(&gpu)));
    }
    ExitCode::from(exit)
}

#[cfg(test)]
mod tests {
    use super::verdict;
    use ecl_racecheck::check_races;
    use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};

    /// 64 threads, each writing its own element, optionally then reading
    /// element 0 (racing with thread 0's write).
    fn run(cap: Option<usize>, racy: bool) -> Gpu {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.enable_tracing_with_cap(cap);
        let cells = gpu.alloc::<u32>(64);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("own_cell", 64, move |ctx, i| {
                ctx.store(cells.at(i as usize), i);
                if racy {
                    let _ = ctx.load(cells.at(0));
                }
            }),
        );
        gpu
    }

    fn verdict_of(gpu: &Gpu) -> u8 {
        let trace = gpu.trace().expect("traced");
        verdict(!check_races(gpu).is_empty(), trace.truncated())
    }

    #[test]
    fn complete_race_free_trace_passes() {
        let gpu = run(None, false);
        assert_eq!(gpu.trace().unwrap().truncated(), None);
        assert_eq!(verdict_of(&gpu), 0);
    }

    #[test]
    fn truncated_race_free_trace_does_not_pass() {
        let gpu = run(Some(16), false);
        assert_eq!(gpu.trace().unwrap().truncated(), Some(48));
        assert_eq!(verdict_of(&gpu), 2);
    }

    #[test]
    fn races_in_a_truncated_trace_still_exit_one() {
        let gpu = run(Some(100), true);
        assert!(gpu.trace().unwrap().truncated().is_some());
        assert_eq!(verdict_of(&gpu), 1);
    }
}
