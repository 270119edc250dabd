//! The analogue of the paper artifact's `all_tests.sh`: runs every baseline
//! and race-free code on every appropriate input on all four GPUs, then
//! writes the speedup tables, CSVs, correlation table, and the Fig. 6 chart.
//!
//! ```text
//! cargo run --release -p ecl-bench --bin all_tests -- [options]
//!
//! --scale <f64>     input scale multiplier      (default 1.0)
//! --runs <n>        runs per configuration      (default 3; paper used 9)
//! --seed <n>        base experiment seed        (default 1)
//! --sets <which>    undirected|directed|both    (default both)
//! --gpu <name>      restrict to one GPU         (default: all four)
//! --jobs <n>        sweep worker threads        (default: $ECL_JOBS, else
//!                                                all cores; results are
//!                                                bit-identical at any count)
//! --retries <n>     attempts per measurement    (default 1 = no retries)
//! --watchdog <c>    per-launch watchdog budget in cycles
//! --fault-rate <p>  bitflip probability per eligible load (default: none)
//! --fault-level <l> dram | l2 | l1              (default dram)
//! --fault-seed <n>  fault-plan seed             (default 42)
//! --out <dir>       output directory            (default ./output)
//! --omit-timing     leave wall-clock metadata out of BENCH_RESULTS.json
//!                   (for byte-exact diffs between runs)
//! --list-gpus       print Table I and exit
//! --list-inputs     print Tables II and III and exit
//!
//! Crash safety:
//! --journal <path>  append each finished cell to a fsync'd JSONL journal
//! --resume <path>   skip cells already in <path>, verify the overlap by
//!                   digest, append the rest to the same journal
//! --isolate         run each cell in a worker subprocess: a panic, abort,
//!                   OOM kill, or hang in one cell becomes one typed
//!                   failure instead of taking the sweep down
//! --cell-timeout <s> wall-clock budget per isolated cell (default 300)
//! --replay <bundle> re-run exactly the failed cell a repro bundle under
//!                   output/repro/ describes, and exit
//! ```
//!
//! Besides the text tables and CSVs, writes `BENCH_RESULTS.json` — every
//! measured cell, every failed cell, and the per-(GPU, algorithm) summary
//! rows — plus one `output/repro/<cell>.json` bundle per failed cell with
//! the exact seeds and a one-command replay line. Exits 1 if any cell
//! failed, 2 on a resume-identity mismatch or on an argument it cannot
//! honour (an unknown flag, a missing or unparsable value: one line on
//! stderr, before anything runs), 130 on SIGINT (after flushing the
//! journal, so the sweep is resumable).

use ecl_bench::cli::{usage_exit, Args};
use ecl_bench::isolate::worker_doc;
use ecl_bench::repro::{write_bundle, Bundle};
use ecl_bench::{
    cell_key, format_fig6, format_table9, install_interrupt_handler, interrupted, measure_cell,
    pool, to_csv, BenchReport, CellFailure, IsolateSpec, Journal, JournalWriter, Json,
    MeasuredTable, SweepControl, SweepSpec, SweepTiming,
};
use ecl_graph::inputs::{directed_catalog, undirected_catalog};
use ecl_graph::props::properties;
use ecl_simt::GpuConfig;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The sweep's command line: the experiment, and how this process runs it.
#[derive(Debug, Clone)]
struct Config {
    spec: SweepSpec,
    jobs: usize,
    out_dir: PathBuf,
    omit_timing: bool,
    isolate: bool,
    journal: Option<PathBuf>,
    resume: Option<PathBuf>,
}

/// Value flags besides the experiment's ([`SweepSpec::FLAGS`]).
const VALUE_FLAGS: [&str; 6] = [
    "--jobs",
    "--out",
    "--journal",
    "--resume",
    "--worker-cell",
    "--replay",
];

/// Flags that stand alone.
const SWITCHES: [&str; 4] = ["--omit-timing", "--isolate", "--list-gpus", "--list-inputs"];

impl Config {
    fn from_args(args: &Args) -> Result<Config, String> {
        Ok(Config {
            spec: SweepSpec::from_args(args)?,
            jobs: args.parsed("--jobs")?.unwrap_or_else(pool::default_workers),
            out_dir: PathBuf::from(args.value("--out").unwrap_or("output")),
            omit_timing: args.has("--omit-timing"),
            isolate: args.has("--isolate"),
            journal: args.value("--journal").map(PathBuf::from),
            resume: args.value("--resume").map(PathBuf::from),
        })
    }
}

fn die(msg: &str) -> ! {
    usage_exit("all_tests", msg)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flags: Vec<&str> = SweepSpec::FLAGS
        .iter()
        .chain(&VALUE_FLAGS)
        .copied()
        .collect();
    let args = Args::parse(&argv, &flags, &SWITCHES).unwrap_or_else(|e| die(&e));
    if args.has("--list-gpus") {
        print_gpus();
        return;
    }
    if args.has("--list-inputs") {
        print_inputs();
        return;
    }
    if let Some(bundle) = args.value("--replay") {
        if argv.len() > 2 {
            die("--replay takes no other arguments: the bundle holds the experiment");
        }
        replay_main(Path::new(bundle));
        return;
    }
    let cfg = Config::from_args(&args).unwrap_or_else(|e| die(&e));
    if let Some(key) = args.value("--worker-cell") {
        worker_main(&cfg.spec, key);
        return;
    }
    sweep_main(&cfg);
}

/// Worker mode: measure exactly one cell and report on stdout. Exits 0
/// whether the cell measured or failed — the verdict travels in the JSON;
/// only a *dead* worker (abort, kill, timeout) exits otherwise.
fn worker_main(spec: &SweepSpec, key: &str) {
    // Test hook: a worker whose key matches $ECL_WORKER_PANIC dies before
    // the panic-containment of `run_cell` can see it — the process-level
    // failure mode the isolation layer exists to catch.
    if let Ok(needle) = std::env::var("ECL_WORKER_PANIC") {
        if !needle.is_empty() && key.contains(&needle) {
            panic!("ECL_WORKER_PANIC: injected worker death for '{key}'");
        }
    }
    let verdict = measure_cell(spec, key).unwrap_or_else(|e| die(&e));
    println!("{}", worker_doc(&verdict).render_compact());
}

/// Replay mode: re-run exactly the failed cell a repro bundle describes.
fn replay_main(bundle_path: &Path) {
    let text = std::fs::read_to_string(bundle_path).unwrap_or_else(|e| {
        die(&format!(
            "cannot read bundle {}: {e}",
            bundle_path.display()
        ))
    });
    let bundle = Json::parse(&text).unwrap_or_else(|e| {
        die(&format!(
            "bundle {} is not JSON: {e}",
            bundle_path.display()
        ))
    });
    if bundle.get("schema").and_then(Json::as_str) != Some(ecl_bench::repro::SCHEMA) {
        die(&format!(
            "{} is not a {} bundle",
            bundle_path.display(),
            ecl_bench::repro::SCHEMA
        ));
    }
    let key = bundle
        .get("key")
        .and_then(Json::as_str)
        .unwrap_or_else(|| die("bundle has no 'key'"));
    let args: Vec<String> = bundle
        .get("replay")
        .and_then(|r| r.get("args"))
        .and_then(Json::as_arr)
        .unwrap_or_else(|| die("bundle has no replay.args"))
        .iter()
        .filter_map(|a| a.as_str().map(str::to_string))
        .collect();
    let spec =
        SweepSpec::from_argv(&args).unwrap_or_else(|e| die(&format!("bundle replay.args: {e}")));
    eprintln!("replaying {key} with {}", args.join(" "));
    worker_main(&spec, key);
}

/// Writes one repro bundle per failed cell and returns the bundle paths.
/// Paths are collision-free: a cell failing again on a resumed or retried
/// run gets an `.attemptN` suffix instead of overwriting the first bundle.
///
/// A bundle that cannot be written (ENOSPC, EIO, …) is *skipped*, not
/// fatal: the measurement already completed and the typed failure is in the
/// report; the skip is warned about and recorded as a journal note so the
/// operator learns a bundle is missing and why.
fn write_repro_bundles(
    cfg: &Config,
    set: &str,
    failures: &[CellFailure],
    journal: Option<&JournalWriter>,
) -> Vec<PathBuf> {
    let dir = cfg.out_dir.join("repro");
    let mut paths = Vec::new();
    for f in failures {
        let key = cell_key(set, f.input, f.algorithm, f.gpu);
        let written = Bundle::for_cell(&cfg.spec, &key, f.error.to_string(), f.run)
            .and_then(|b| write_bundle(&dir, &b).map_err(|e| e.to_string()));
        match written {
            Ok(path) => paths.push(path),
            Err(e) => {
                eprintln!("warning: repro bundle skipped for '{key}': {e}");
                if let Some(w) = journal {
                    let _ = w.append_note(
                        &format!("repro bundle skipped for '{key}': {e}"),
                        w.cells_recorded(),
                    );
                }
            }
        }
    }
    paths
}

fn sweep_main(cfg: &Config) {
    install_interrupt_handler();
    let spec = &cfg.spec;
    let matrix = spec.matrix(cfg.jobs, None);
    let identity = spec.identity();

    // Checkpointing: a fresh journal, or append to the one being resumed.
    if cfg.journal.is_some() && cfg.resume.is_some() {
        die(
            "--journal and --resume are mutually exclusive (resume appends to the resumed journal)",
        );
    }
    let resumed: Option<Journal> = cfg.resume.as_deref().map(|path| {
        let j = Journal::load(path).unwrap_or_else(|e| die(&e.to_string()));
        if let Err(e) = j.check_identity(&identity) {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "resuming from {} ({} completed cell(s) on record)",
            path.display(),
            j.records.iter().filter(|r| r.ok).count()
        );
        j
    });
    let writer: Option<std::sync::Arc<JournalWriter>> = match (&cfg.journal, &cfg.resume) {
        (Some(path), None) => Some(JournalWriter::create(path, &identity).expect("create journal")),
        (None, Some(path)) => Some(JournalWriter::append_to(path).expect("open journal")),
        _ => None,
    }
    .map(std::sync::Arc::new);

    // A second Ctrl-C during the cooperative drain stops the wait on
    // in-flight cells: flush the journal note (finished cells are already
    // fsync'd line-by-line) and exit 130 immediately.
    let watcher_journal = writer.clone();
    ecl_bench::spawn_force_quit_watcher(move || {
        if let Some(w) = watcher_journal {
            let _ = w.append_note("force-quit", w.cells_recorded());
        }
    });

    let isolate_spec: Option<IsolateSpec> = cfg.isolate.then(|| IsolateSpec {
        exe: std::env::current_exe().expect("current_exe"),
        base_args: spec.worker_args(),
        timeout: Duration::from_secs(spec.cell_timeout),
        scratch: cfg.out_dir.join("tmp"),
    });

    let ctl = SweepControl {
        journal: writer.as_deref(),
        resume: resumed.as_ref(),
        isolate: isolate_spec.as_ref(),
        interrupt: Some(ecl_bench::interrupt::interrupt_flag()),
    };

    eprintln!(
        "running the matrix: scale {}, {} run(s) per config, {} GPU(s), {} worker(s){}{}…",
        spec.scale,
        spec.runs,
        spec.gpus.len(),
        cfg.jobs,
        if cfg.isolate { ", isolated cells" } else { "" },
        if writer.is_some() { ", journaled" } else { "" },
    );

    let run_one = |name: &str| -> (MeasuredTable, f64) {
        if !spec.sets.iter().any(|s| s == name) || interrupted() {
            return (MeasuredTable::default(), 0.0);
        }
        let t = Instant::now();
        let table = match name {
            "undirected" => matrix.run_undirected_with(&ctl),
            _ => matrix.run_directed_with(&ctl),
        };
        let secs = t.elapsed().as_secs_f64();
        eprintln!("{name} matrix done in {secs:.1}s");
        (table, secs)
    };
    let (undirected, undirected_seconds) = run_one("undirected");
    let (directed, directed_seconds) = run_one("directed");

    if interrupted() {
        let completed = undirected.cells.len() + directed.cells.len();
        if let Some(w) = &writer {
            let _ = w.append_note("interrupted", completed);
        }
        eprintln!("interrupted: {completed} cell(s) finished and journaled; resume with --resume");
        std::process::exit(130);
    }

    // Tables IV-VII (undirected) and VIII (directed), per GPU.
    for gpu in &spec.gpus {
        if !undirected.cells.is_empty() {
            println!("{}", undirected.table(gpu));
        }
        if !directed.cells.is_empty() {
            println!("{}", directed.table(gpu));
        }
    }
    let gpu_names: Vec<&str> = spec.gpus.iter().map(|g| g.name).collect();
    println!("{}", format_table9(&undirected, &directed, &gpu_names));
    println!();
    println!("{}", format_fig6(&undirected, &directed, &gpu_names));

    std::fs::create_dir_all(&cfg.out_dir).expect("create output dir");
    std::fs::write(
        cfg.out_dir.join("undirected_speedups.csv"),
        to_csv(&undirected),
    )
    .expect("write undirected csv");
    std::fs::write(cfg.out_dir.join("directed_speedups.csv"), to_csv(&directed))
        .expect("write directed csv");
    let mut fig = String::new();
    fig.push_str(&format_fig6(&undirected, &directed, &gpu_names));
    std::fs::write(cfg.out_dir.join("geometric_means.txt"), fig).expect("write fig6");

    let report = BenchReport {
        experiment: matrix.experiment(),
        undirected: &undirected,
        directed: &directed,
        timing: (!cfg.omit_timing).then_some(SweepTiming {
            undirected_seconds,
            directed_seconds,
        }),
    };
    std::fs::write(cfg.out_dir.join("BENCH_RESULTS.json"), report.render())
        .expect("write BENCH_RESULTS.json");
    eprintln!(
        "CSV, chart, and BENCH_RESULTS.json written to {}",
        cfg.out_dir.display()
    );

    let mut bundles =
        write_repro_bundles(cfg, "undirected", &undirected.failures, writer.as_deref());
    bundles.extend(write_repro_bundles(
        cfg,
        "directed",
        &directed.failures,
        writer.as_deref(),
    ));
    if let Some(e) = writer.as_deref().and_then(|w| w.degraded()) {
        eprintln!(
            "warning: the journal degraded to read-only during this sweep ({e}); \
             results above are complete but the journal cannot seed a --resume"
        );
    }

    let failed = undirected.failures.len() + directed.failures.len();
    if failed > 0 {
        eprintln!("\n{failed} cell(s) failed:");
        for f in undirected.failures.iter().chain(&directed.failures) {
            eprintln!("  {f}");
        }
        eprintln!("repro bundles (re-run one with --replay <bundle>):");
        for b in &bundles {
            eprintln!("  {}", b.display());
        }
        std::process::exit(1);
    }
}

fn print_gpus() {
    println!(
        "{:<12} {:<14} {:>6} {:>6} {:>8} {:>8}",
        "GPU", "Architecture", "SMs", "Cores", "L1 KiB", "L2 KiB"
    );
    for g in GpuConfig::paper_gpus() {
        println!(
            "{:<12} {:<14} {:>6} {:>6} {:>8} {:>8}",
            g.name,
            g.architecture,
            g.num_sms,
            g.num_sms * g.cores_per_sm,
            g.l1_kib,
            g.l2_kib
        );
    }
}

fn print_inputs() {
    for (title, catalog) in [
        (
            "Table II: undirected inputs (scaled stand-ins at --scale 1.0)",
            undirected_catalog(),
        ),
        ("Table III: directed inputs", directed_catalog()),
    ] {
        println!("{title}");
        println!(
            "{:<18} {:>10} {:>10} {:>8} {:>8}   paper: V/E",
            "Name", "Vertices", "Edges", "d-avg", "d-max"
        );
        for input in catalog {
            let g = input.build(1.0, 1);
            let p = properties(&g);
            let meta = input.paper_meta();
            println!(
                "{:<18} {:>10} {:>10} {:>8.1} {:>8}   {}/{}",
                input.name(),
                p.num_vertices,
                p.num_edges,
                p.avg_degree,
                p.max_degree,
                meta.vertices,
                meta.edges
            );
        }
        println!();
    }
}
