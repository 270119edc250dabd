//! The repository's benchmark: one workload per process, end-to-end host
//! times by default, per-layer numbers from a separate traced run.
//!
//! ```text
//! cargo run --offline --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep-undirected|sweep-directed|native-rmat|repair-racy> \
//!     [--seed 1] [--seconds 25] [--trace 0|1]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
//! Lines before it repeat every metric for a reader, with the host speed
//! the times were scaled by, `failed_frac`, the `sim_fingerprint` and, when
//! traced, the tail percentile. The exit code is 0
//! only when every run was correct; 2 means a usage error.

mod calib;
mod native;
mod probe;
mod repair;
mod stats;
mod sweep;
mod trace;
mod workload;

use calib::Calibrator;
use stats::{geomean, median, mix, tail};
use std::time::{Duration, Instant};
use trace::{At, SpanId, Tracer};
use workload::{Pass, Path, Setup, SimCounts, Workload, NATIVE_THREADS, SWEEP_JOBS};

use ecl_core::suite::{Algorithm, Variant};

const WORKLOADS: [&str; 4] = [
    "sweep-undirected",
    "sweep-directed",
    "native-rmat",
    "repair-racy",
];

/// Set-up repeats before the first pass and again after every pass, so that
/// its median covers the whole run rather than its first second. A slot
/// holds one repetition, and more while it has taken less than
/// `SETUP_SLOT_SECONDS`, up to `SETUP_SLOT_MAX_REPS`.
const SETUP_SLOT_SECONDS: f64 = 0.1;
const SETUP_SLOT_MAX_REPS: usize = 8;

/// Span names whose self time is reported, in nesting order.
const LAYERS: [&str; 13] = [
    "setup",
    "graph.build",
    "graph.props",
    "graph.weights",
    "pass",
    "pool",
    "cell",
    "core.run_cell",
    "native.run",
    "repair.run",
    "analyze.check",
    "repair.synthesize",
    "repair.verify",
];
const SETUP_LAYERS: [&str; 4] = ["setup", "graph.build", "graph.props", "graph.weights"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> [--seed N] [--seconds S] [--trace 0|1]",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().unwrap_or_else(|_| usage("bad --seed")),
            "--seconds" => {
                out.seconds = value.parse().unwrap_or_else(|_| usage("bad --seconds"));
                if !(out.seconds > 0.0 && out.seconds.is_finite()) {
                    usage("--seconds must be positive");
                }
            }
            "--trace" => {
                out.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag '{other}'")),
        }
    }
    if !WORKLOADS.contains(&out.workload.as_str()) {
        usage(&format!("unknown workload '{}'", out.workload));
    }
    out
}

/// Passes of one measured phase, with their run records, and the set-up
/// repetitions made between them (scaled host seconds, what each built).
///
/// Host times are scaled to the reference speed (see `calib`) and are
/// medians over passes. Passes run the same runs in the same order, so run
/// `i` of every pass is one run repeated.
struct Phase {
    passes: Vec<Pass>,
    setups: Vec<(f64, Setup)>,
}

impl Phase {
    /// Median scaled pass time.
    fn wall_s(&self) -> f64 {
        median(
            &self
                .passes
                .iter()
                .map(|p| p.wall_ns as f64 * 1e-9 * p.scale)
                .collect::<Vec<_>>(),
        )
    }

    fn setup_s(&self) -> Vec<f64> {
        self.setups.iter().map(|s| s.0).collect()
    }

    /// Median factor that scaled the passes: the host's speed relative to
    /// the reference.
    fn speed(&self) -> f64 {
        median(&self.passes.iter().map(|p| p.scale).collect::<Vec<_>>())
    }

    /// Each run of the first pass with its median scaled host time in ms.
    fn runs(&self) -> impl Iterator<Item = (&workload::Run, f64)> {
        self.passes[0].runs.iter().enumerate().map(|(i, r)| {
            let ms: Vec<f64> = self
                .passes
                .iter()
                .filter_map(|p| p.runs.get(i).map(|r| r.host_ns as f64 * 1e-6 * p.scale))
                .collect();
            (r, median(&ms))
        })
    }

    /// A layer total, averaged over passes.
    fn per_pass(&self, f: impl Fn(&Pass) -> f64) -> f64 {
        self.passes.iter().map(f).sum::<f64>() / self.passes.len() as f64
    }
}

/// Alternates set-up slots and passes until at least `seconds` have gone
/// (at least one pass), and ends with a set-up slot. Each slot and each
/// pass is a calibration window of its own.
fn measure(
    w: &mut dyn Workload,
    tr: &Tracer,
    cal: &Calibrator,
    seconds: f64,
    first_pass: u64,
) -> Phase {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut phase = Phase {
        passes: Vec::new(),
        setups: Vec::new(),
    };
    loop {
        let at = At {
            parent: SpanId::ROOT,
            pass: first_pass + phase.passes.len() as u64,
            run: 0,
        };
        let (slot, first) = (Instant::now(), phase.setups.len());
        cal.edge();
        for _ in 0..SETUP_SLOT_MAX_REPS {
            let t = Instant::now();
            let s = tr.span("setup", at, |id| w.setup(tr, at.under(id)));
            phase.setups.push((t.elapsed().as_secs_f64(), s));
            if slot.elapsed().as_secs_f64() >= SETUP_SLOT_SECONDS {
                break;
            }
        }
        cal.edge();
        let scale = cal.take_scale();
        for (secs, s) in &mut phase.setups[first..] {
            *secs *= scale;
            s.build_s *= scale;
            s.props_s *= scale;
            s.weights_s *= scale;
        }
        if !phase.passes.is_empty() && start.elapsed() >= budget {
            return phase;
        }
        cal.edge();
        let t = Instant::now();
        let mut pass = tr.span("pass", at, |id| w.pass(tr, at.under(id)));
        pass.wall_ns = t.elapsed().as_nanos() as u64;
        cal.edge();
        pass.scale = cal.take_scale();
        phase.passes.push(pass);
    }
}

/// Peak resident set of this process in MB, from `VmHWM`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn alg_key(a: Algorithm) -> String {
    a.name().to_lowercase()
}

fn variant_key(v: Variant) -> &'static str {
    match v {
        Variant::Baseline => "baseline",
        Variant::RaceFree => "racefree",
    }
}

/// The algorithms the sweeps run on the simulator: the five codes with
/// races, which are also the ones `repair-racy` repairs.
const SIM_ALGS: [Algorithm; 5] = [
    Algorithm::Cc,
    Algorithm::Gc,
    Algorithm::Mis,
    Algorithm::Mst,
    Algorithm::Scc,
];
const VARIANTS: [Variant; 2] = [Variant::Baseline, Variant::RaceFree];

type Metrics = Vec<(String, f64, &'static str)>;

fn end_to_end(a: &Phase) -> Metrics {
    let ms: Vec<f64> = a.runs().map(|(_, ms)| ms).collect();
    let by = |v: Variant| -> Vec<f64> {
        a.runs()
            .filter(|(r, _)| r.variant == v)
            .map(|(_, ms)| ms)
            .collect()
    };
    vec![
        ("wall_s".into(), a.wall_s(), "s"),
        ("setup_s".into(), median(&a.setup_s()), "s"),
        ("run_ms_p50".into(), median(&ms), "ms"),
        (
            "baseline_ms_geo".into(),
            geomean(&by(Variant::Baseline)),
            "ms",
        ),
        (
            "racefree_ms_geo".into(),
            geomean(&by(Variant::RaceFree)),
            "ms",
        ),
        ("peak_rss_mb".into(), peak_rss_mb(), "MB"),
    ]
}

/// Every per-layer metric. Layers a workload does not exercise read 0.
fn per_layer(a: &Phase, b: &Phase, tr: &Tracer) -> (Metrics, String) {
    let mut m: Metrics = Vec::new();
    let setups = &a.setups;
    let med = |f: fn(&Setup) -> f64| median(&setups.iter().map(|s| f(&s.1)).collect::<Vec<_>>());
    m.push(("graph.build_s".into(), med(|s| s.build_s), "s"));
    m.push(("graph.props_s".into(), med(|s| s.props_s), "s"));
    m.push(("graph.weights_s".into(), med(|s| s.weights_s), "s"));
    m.push(("graph.edges".into(), setups[0].1.edges as f64, "count"));

    // Pool and cells (sweeps), from the untraced phase.
    let cell_s: Vec<f64> = a
        .passes
        .iter()
        .flat_map(|p| p.cell_ns.iter().map(|&ns| ns as f64 * 1e-9 * p.scale))
        .collect();
    let busy = |p: &Pass| p.cell_ns.iter().sum::<u64>() as f64 * 1e-9 * p.scale;
    let capacity = |p: &Pass| SWEEP_JOBS as f64 * p.wall_ns as f64 * 1e-9 * p.scale;
    let swept = !cell_s.is_empty();
    m.push((
        "matrix.cells".into(),
        a.per_pass(|p| p.cell_ns.len() as f64),
        "count",
    ));
    m.push(("matrix.cell_s_p50".into(), median(&cell_s), "s"));
    m.push((
        "matrix.cell_s_max".into(),
        cell_s.iter().cloned().fold(0.0, f64::max),
        "s",
    ));
    m.push((
        "pool.busy_frac".into(),
        if swept {
            a.per_pass(|p| busy(p) / capacity(p))
        } else {
            0.0
        },
        "ratio",
    ));
    m.push((
        "pool.idle_s".into(),
        if swept {
            a.per_pass(|p| capacity(p) - busy(p))
        } else {
            0.0
        },
        "s",
    ));

    // The run-time tail: with 20 runs or fewer it is one run, the slowest,
    // so it is a layer figure here rather than a gated end-to-end metric.
    let ms: Vec<f64> = a.runs().map(|(_, ms)| ms).collect();
    let (tail_ms, pct) = tail(&ms);
    let note = format!("run_ms_tail is p{pct:.1} of {} runs", ms.len());
    m.push(("run_ms_tail".into(), tail_ms, "ms"));

    // Simulated runs per algorithm and variant: host time from the untraced
    // phase, exact counts from its first pass (every pass repeats them).
    let first = &a.passes[0];
    let sim_runs = |alg: Algorithm, v: Option<Variant>| {
        first
            .runs
            .iter()
            .filter(move |r| r.alg == alg && v.is_none_or(|v| r.variant == v))
            .filter_map(|r| r.sim)
    };
    let host_ms = |alg: Algorithm, v: Option<Variant>| {
        a.runs()
            .filter(|(r, _)| r.sim.is_some() && r.alg == alg && v.is_none_or(|v| r.variant == v))
            .map(|(_, ms)| ms)
            .sum::<f64>()
    };
    let sum = |it: &mut dyn Iterator<Item = SimCounts>| {
        let mut t = SimCounts::default();
        it.for_each(|c| t.add(&c));
        t
    };
    let rate = |h: u64, mi: u64| {
        if h + mi == 0 {
            0.0
        } else {
            h as f64 / (h + mi) as f64
        }
    };
    for alg in SIM_ALGS {
        for v in VARIANTS {
            let key = format!("core.{}.{}", alg_key(alg), variant_key(v));
            m.push((format!("{key}.host_ms"), host_ms(alg, Some(v)), "ms"));
            m.push((
                format!("{key}.runs"),
                sim_runs(alg, Some(v)).count() as f64,
                "count",
            ));
        }
    }
    for alg in SIM_ALGS {
        for v in VARIANTS {
            let t = sum(&mut sim_runs(alg, Some(v)));
            let key = format!("simt.{}.{}", alg_key(alg), variant_key(v));
            m.push((format!("{key}.accesses"), t.accesses as f64, "count"));
            m.push((
                format!("{key}.atomic_accesses"),
                t.atomic_accesses as f64,
                "count",
            ));
            m.push((format!("{key}.sim_cycles"), t.cycles as f64, "cycles"));
            m.push((
                format!("{key}.l1_hit_rate"),
                rate(t.l1_hits, t.l1_misses),
                "ratio",
            ));
        }
    }
    let all = sum(&mut first.runs.iter().filter_map(|r| r.sim));
    m.push(("simt.launches".into(), all.launches as f64, "count"));
    m.push(("simt.steps".into(), all.steps as f64, "count"));
    m.push((
        "simt.dram_accesses".into(),
        all.dram_accesses as f64,
        "count",
    ));
    m.push((
        "simt.l2_hit_rate".into(),
        rate(all.l2_hits, all.l2_misses),
        "ratio",
    ));
    m.push((
        "simt.coalesced_stores".into(),
        all.coalesced_stores as f64,
        "count",
    ));
    for alg in SIM_ALGS {
        let acc = sum(&mut sim_runs(alg, None)).accesses;
        let ns = host_ms(alg, None) * 1e6;
        m.push((
            format!("simt.{}.ns_per_access", alg_key(alg)),
            if acc == 0 { 0.0 } else { ns / acc as f64 },
            "ns",
        ));
    }
    m.push((
        "simt.maccesses_per_s".into(),
        all.accesses as f64 / a.wall_s() / 1e6,
        "Maccess/s",
    ));

    // Native runs: fastest host ms of each.
    for alg in Algorithm::ALL {
        for v in VARIANTS {
            let ms = a
                .runs()
                .find(|(r, _)| r.path == Path::Native && r.alg == alg && r.variant == v)
                .map_or(0.0, |(_, ms)| ms);
            m.push((
                format!("native.{}.{}.ms", alg_key(alg), variant_key(v)),
                ms,
                "ms",
            ));
        }
    }

    // Layer totals the repair workload measures itself: host seconds,
    // scaled like the pass, and counts.
    let layer = |k: &str| a.per_pass(|p| p.layers.get(k).copied().unwrap_or(0.0));
    let layer_s = |k: &str| a.per_pass(|p| p.layers.get(k).copied().unwrap_or(0.0) * p.scale);
    m.push(("analyze.check_s".into(), layer_s("analyze.check_s"), "s"));
    for alg in SIM_ALGS {
        for step in ["synthesize", "verify"] {
            let k = format!("repair.{}.{step}_s", alg_key(alg));
            let v = layer_s(&k);
            m.push((k, v, "s"));
        }
    }
    m.push((
        "repair.flagged_groups".into(),
        layer("repair.flagged_groups"),
        "count",
    ));
    m.push(("repair.rewrites".into(), layer("repair.rewrites"), "count"));

    for (name, v, unit) in probe::component_costs() {
        m.push((name.into(), v, unit));
    }

    // Self time per layer, per traced pass (per set-up repetition for the
    // set-up layers).
    let selfs = tr.self_seconds();
    for name in LAYERS {
        let per = if SETUP_LAYERS.contains(&name) {
            b.setups.len()
        } else {
            b.passes.len()
        };
        let v = selfs.get(name).copied().unwrap_or(0.0) / per as f64;
        m.push((format!("self.{name}_s"), v, "s"));
    }
    m.push(("host.speed".into(), a.speed(), "ratio"));
    m.push(("trace.overhead_s".into(), b.wall_s() - a.wall_s(), "s"));
    m.push(("trace.spans".into(), tr.len() as f64, "count"));
    (m, note)
}

/// Counts runs whose outputs differ from the first pass's, or that failed,
/// and set-ups that built other inputs than the first.
fn failures(phases: &[&Phase]) -> (usize, usize, Vec<String>) {
    let reference: Vec<u64> = phases[0].passes[0].runs.iter().map(|r| r.sig).collect();
    let inputs = phases[0].setups[0].1.sig;
    let (mut attempted, mut failed, mut why) = (0, 0, Vec::new());
    for phase in phases {
        for (si, s) in phase.setups.iter().enumerate() {
            attempted += 1;
            if s.1.sig != inputs {
                failed += 1;
                why.push(format!("set-up {si}: inputs differ from the first set-up"));
            }
        }
        for (pi, pass) in phase.passes.iter().enumerate() {
            for (i, r) in pass.runs.iter().enumerate() {
                attempted += 1;
                let msg = if let Some(e) = &r.error {
                    Some(e.clone())
                } else if reference.get(i) != Some(&r.sig) {
                    Some("outputs differ from the first pass".to_string())
                } else {
                    None
                };
                if let Some(msg) = msg {
                    failed += 1;
                    why.push(format!(
                        "pass {pi} run {i} ({} {}): {msg}",
                        r.alg, r.variant
                    ));
                }
            }
        }
    }
    (attempted, failed, why)
}

fn json_metrics(m: &Metrics) -> String {
    let body: Vec<String> = m
        .iter()
        // `+ 0.0` turns an empty sum's -0 into 0.
        // `+ 0.0` turns an empty sum's -0 into 0; JSON has no NaN.
        .map(|(k, v, u)| {
            let v = if v.is_finite() { v + 0.0 } else { 0.0 };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Puts every thread's allocations in glibc's main arena. Native teams are
/// fresh threads on every run, and each drew one of up to 16 per-thread
/// arenas, whose freed memory stays with it; `peak_rss_mb` of one seed then
/// ranged 64–92 MB from run to run. With one arena it repeats.
fn single_malloc_arena() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` only sets an allocator tunable, before any thread
    // is started.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

fn main() {
    single_malloc_arena();
    let args = parse_args();
    let mut w: Box<dyn Workload> = match args.workload.as_str() {
        "sweep-undirected" => Box::new(sweep::Sweep::new(false, args.seed)),
        "sweep-directed" => Box::new(sweep::Sweep::new(true, args.seed)),
        "native-rmat" => Box::new(native::Native::new(args.seed)),
        _ => Box::new(repair::Repair::new(args.seed)),
    };
    let tr = Tracer::new(args.trace);
    let off = Tracer::new(false);
    eprintln!(
        "perfbench: {} seed {} for {}s{} ({} sweep job(s), {} native threads, {} cores available)",
        args.workload,
        args.seed,
        args.seconds,
        if args.trace { ", traced" } else { "" },
        SWEEP_JOBS,
        NATIVE_THREADS,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );

    let cal = Calibrator::new();
    let a = measure(w.as_mut(), &off, &cal, args.seconds, 0);
    let b = args
        .trace
        .then(|| measure(w.as_mut(), &tr, &cal, args.seconds, a.passes.len() as u64));
    let mut phases = vec![&a];
    phases.extend(b.as_ref());
    let (attempted, failed, why) = failures(&phases);

    let fingerprint = a.passes[0]
        .runs
        .iter()
        .fold(a.setups[0].1.sig, |h, r| mix(h, r.sig));

    let (metrics, note) = match &b {
        None => (end_to_end(&a), String::new()),
        Some(b) => per_layer(&a, b, &tr),
    };
    let bad_value = metrics.iter().find(|(_, v, _)| !v.is_finite());
    let correct = failed == 0 && bad_value.is_none();

    println!("workload {} seed {}", args.workload, args.seed);
    for (k, v, u) in &metrics {
        println!("  {k:<34} {:>16.6} {u}", v + 0.0);
    }
    if !note.is_empty() {
        println!("  ({note})");
    }
    println!(
        "  (host speed {:.4} of the reference: host times are raw times scaled by it)",
        a.speed()
    );
    println!(
        "  failed_frac {} ({failed} failed of {attempted} attempted: {} pass(es), {} set-up(s))",
        failed as f64 / attempted as f64,
        phases.iter().map(|p| p.passes.len()).sum::<usize>(),
        phases.iter().map(|p| p.setups.len()).sum::<usize>(),
    );
    for line in why.iter().take(20) {
        println!("  FAILED {line}");
    }
    if let Some((k, v, _)) = bad_value {
        println!("  FAILED metric {k} is not finite ({v})");
    }
    println!("sim_fingerprint {:016x}", fingerprint);
    if args.trace {
        let dir = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
        let path = std::path::Path::new(&dir)
            .join("perfbench")
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        match tr.write_jsonl(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => println!("spans not written to {}: {e}", path.display()),
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(&metrics)
    );
    if !correct {
        std::process::exit(1);
    }
}
