//! What every workload provides to the measuring loop, and what it reports
//! back.

use crate::stats::mix;
use crate::trace::{At, SpanId, Tracer};
use ecl_core::suite::{Algorithm, RunResult, Variant};
use std::collections::BTreeMap;
use std::time::Instant;

/// Sweep jobs. One job runs the cells one after another in the calling
/// thread, so each cell is timed alone: with two jobs on a shared two-core
/// host, every cell also measured the cell running beside it.
pub const SWEEP_JOBS: usize = 1;
/// Native team size: two threads, so the racy and race-free variants
/// really contend on shared cells.
pub const NATIVE_THREADS: usize = 2;

/// Simulated counters of one run, summed over its kernel launches.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimCounts {
    pub accesses: u64,
    pub atomic_accesses: u64,
    pub cycles: u64,
    pub l1_hits: u64,
    pub l1_misses: u64,
    pub l2_hits: u64,
    pub l2_misses: u64,
    pub launches: u64,
    pub steps: u64,
    pub dram_accesses: u64,
    pub coalesced_stores: u64,
}

impl SimCounts {
    /// Sums the per-launch statistics of a simulated run.
    pub fn of(r: &RunResult) -> SimCounts {
        let mut c = SimCounts {
            cycles: r.cycles,
            ..SimCounts::default()
        };
        for l in &r.stats.launches {
            c.accesses += l.total_accesses();
            c.atomic_accesses += l.atomic_accesses;
            c.l1_hits += l.l1.hits;
            c.l1_misses += l.l1.misses;
            c.l2_hits += l.l2.hits;
            c.l2_misses += l.l2.misses;
            c.launches += 1;
            c.steps += l.steps;
            c.dram_accesses += l.dram_accesses;
            c.coalesced_stores += l.coalesced_stores;
        }
        c
    }

    /// Hash of every counter and the solution digest: two runs with equal
    /// signatures behaved identically on the simulated machine.
    pub fn sig(&self, digest: u64) -> u64 {
        [
            self.accesses,
            self.atomic_accesses,
            self.cycles,
            self.l1_hits,
            self.l1_misses,
            self.l2_hits,
            self.l2_misses,
            self.launches,
            self.steps,
            self.dram_accesses,
            self.coalesced_stores,
            digest,
        ]
        .into_iter()
        .fold(0, mix)
    }

    /// Adds another run's counters.
    pub fn add(&mut self, o: &SimCounts) {
        self.accesses += o.accesses;
        self.atomic_accesses += o.atomic_accesses;
        self.cycles += o.cycles;
        self.l1_hits += o.l1_hits;
        self.l1_misses += o.l1_misses;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
        self.launches += o.launches;
        self.steps += o.steps;
        self.dram_accesses += o.dram_accesses;
        self.coalesced_stores += o.coalesced_stores;
    }
}

/// Which program path a run exercised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Path {
    Sim,
    Native,
    Repair,
}

/// One run: one variant of one algorithm on one input on one GPU or thread
/// team (on `repair-racy`, one algorithm's baseline-side or race-free-side
/// repair step).
#[derive(Debug, Clone)]
pub struct Run {
    pub path: Path,
    pub alg: Algorithm,
    pub variant: Variant,
    /// Host time of the timed call(s).
    pub host_ns: u64,
    /// Why the run failed, if it did.
    pub error: Option<String>,
    /// Hash of the run's deterministic outputs; must repeat across passes.
    pub sig: u64,
    /// Simulated counters, for runs on the simulator.
    pub sim: Option<SimCounts>,
}

impl Run {
    /// A run whose outputs hash to `Ok(sig)`, or that failed with `Err(why)`.
    pub fn new(
        path: Path,
        alg: Algorithm,
        variant: Variant,
        host_ns: u64,
        outcome: Result<u64, String>,
    ) -> Run {
        let (sig, error) = match outcome {
            Ok(sig) => (sig, None),
            Err(why) => (crate::stats::mix_str(0, &why), Some(why)),
        };
        Run {
            path,
            alg,
            variant,
            host_ns,
            error,
            sig,
            sim: None,
        }
    }
}

/// One pass over every run of a workload.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall-clock host time of the whole pass.
    pub wall_ns: u64,
    /// Factor that scales the pass's host times to the reference speed.
    pub scale: f64,
    pub runs: Vec<Run>,
    /// Host time of each sweep cell: its two runs, one per variant, of one
    /// input on one GPU.
    pub cell_ns: Vec<u64>,
    /// Layer totals the workload measures itself (sub-call times, counts).
    pub layers: BTreeMap<String, f64>,
}

/// What one setup repetition built.
#[derive(Debug, Default, Clone, Copy)]
pub struct Setup {
    /// Hash of the inputs; must repeat across repetitions.
    pub sig: u64,
    pub build_s: f64,
    pub props_s: f64,
    pub weights_s: f64,
    /// Stored edges over every input built.
    pub edges: u64,
}

/// A named workload: inputs built from the seed, then repeated passes.
pub trait Workload {
    /// Builds the inputs anew, replacing any earlier ones.
    fn setup(&mut self, tr: &Tracer, at: At) -> Setup;
    /// Runs every run of the workload once; the caller times the pass.
    fn pass(&self, tr: &Tracer, at: At) -> Pass;
}

/// Runs `f` inside a span and returns its result with its host time in ns.
pub fn timed<T>(tr: &Tracer, name: &'static str, at: At, f: impl FnOnce(SpanId) -> T) -> (T, u64) {
    tr.span(name, at, |id| {
        let t = Instant::now();
        let out = f(id);
        (out, t.elapsed().as_nanos() as u64)
    })
}
