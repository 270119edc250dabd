//! `sweep-undirected` and `sweep-directed`: the cells of
//! `all_tests --scale 0.25 --runs 1 --sets <set>` on the simulator, run
//! through `ecl_bench::pool` as the sweep runs them, on one job.

use crate::stats::mix;
use crate::trace::{At, Tracer};
use crate::workload::{timed, Pass, Path, Run, Setup, SimCounts, Workload, SWEEP_JOBS};
use ecl_bench::{graph_seed, pool, sched_seed};
use ecl_core::suite::{run_cell, Algorithm, Variant};
use ecl_core::SimOptions;
use ecl_graph::inputs::{directed_catalog, undirected_catalog, GraphInput};
use ecl_graph::props::properties;
use ecl_graph::Csr;
use ecl_simt::GpuConfig;

/// The golden-report scale (ROADMAP item 1). A pass takes a few seconds, so
/// a run holds enough passes for best-of timing on a noisy host; at the
/// paper scale 1.0 one directed pass alone takes 8-20 s.
const SCALE: f64 = 0.25;

/// The weight parameters `run_algorithm_checked` synthesizes for weighted
/// algorithms; applying them up front yields bit-identical runs and moves
/// the cost into set-up.
pub const MAX_WEIGHT: u32 = 1_000;
pub const WEIGHT_SEED: u64 = 0xec1;

struct Input {
    graph: Csr,
    /// The weighted copy MST runs on (undirected set only).
    weighted: Option<Csr>,
}

pub struct Sweep {
    catalog: &'static [GraphInput],
    algorithms: &'static [Algorithm],
    gpus: Vec<GpuConfig>,
    seed: u64,
    inputs: Vec<Input>,
}

impl Sweep {
    /// One of the two cell sets of the paper sweep.
    pub fn new(directed: bool, seed: u64) -> Sweep {
        let (catalog, algorithms): (_, &'static [Algorithm]) = if directed {
            (directed_catalog(), &[Algorithm::Scc])
        } else {
            (undirected_catalog(), &Algorithm::UNDIRECTED)
        };
        Sweep {
            catalog,
            algorithms,
            gpus: GpuConfig::paper_gpus(),
            seed,
            inputs: Vec::new(),
        }
    }
}

/// Cheap input signature: sizes plus a strided sample of the edge arrays.
pub fn graph_sig(h: u64, g: &Csr) -> u64 {
    let mut h = mix(mix(h, g.num_vertices() as u64), g.num_edges() as u64);
    for &c in g.col_indices().iter().step_by(997) {
        h = mix(h, c as u64);
    }
    if let Some(w) = g.weights() {
        for &x in w.iter().step_by(997) {
            h = mix(h, x as u64);
        }
    }
    h
}

impl Workload for Sweep {
    fn setup(&mut self, tr: &Tracer, at: At) -> Setup {
        self.inputs.clear();
        let mut s = Setup::default();
        let weigh = self.algorithms.iter().any(|a| a.weighted());
        let gseed = graph_seed(self.seed);
        for input in self.catalog {
            let (graph, ns) = timed(tr, "graph.build", at, |_| input.build(SCALE, gseed));
            s.build_s += ns as f64 * 1e-9;
            let (p, ns) = timed(tr, "graph.props", at, |_| properties(&graph));
            s.props_s += ns as f64 * 1e-9;
            s.sig = mix(graph_sig(s.sig, &graph), p.max_degree as u64);
            s.edges += graph.num_edges() as u64;
            let weighted = weigh.then(|| {
                let (w, ns) = timed(tr, "graph.weights", at, |_| {
                    graph.clone().with_random_weights(MAX_WEIGHT, WEIGHT_SEED)
                });
                s.weights_s += ns as f64 * 1e-9;
                w
            });
            if let Some(w) = &weighted {
                s.sig = graph_sig(s.sig, w);
            }
            self.inputs.push(Input { graph, weighted });
        }
        s
    }

    fn pass(&self, tr: &Tracer, at: At) -> Pass {
        // Serial sweep order: input-major, then algorithm, then GPU.
        let mut cells = Vec::new();
        for input in &self.inputs {
            for &alg in self.algorithms {
                for gpu in &self.gpus {
                    cells.push((input, alg, gpu));
                }
            }
        }
        let seed = sched_seed(self.seed, 0);
        let opts = SimOptions::default();
        let results = tr.span("pool", at, |pool_span| {
            pool::run_indexed(SWEEP_JOBS, cells.len(), |i| {
                let (input, alg, gpu) = cells[i];
                let graph = match (&input.weighted, alg.weighted()) {
                    (Some(w), true) => w,
                    _ => &input.graph,
                };
                tr.span("cell", at.under(pool_span), |cell_span| {
                    [Variant::Baseline, Variant::RaceFree].map(|variant| {
                        let run_id = 2 * i as u64 + variant_index(variant) + 1;
                        let (r, ns) = timed(tr, "core.run_cell", at.run(cell_span, run_id), |_| {
                            run_cell(alg, variant, graph, gpu, seed, &opts)
                        });
                        let (sim, outcome) = match &r {
                            Ok(r) => {
                                let c = SimCounts::of(r);
                                (Some(c), Ok(c.sig(r.solution_digest)))
                            }
                            Err(e) => (None, Err(e.to_string())),
                        };
                        Run {
                            sim,
                            ..Run::new(Path::Sim, alg, variant, ns, outcome)
                        }
                    })
                })
            })
        });
        let mut pass = Pass::default();
        for runs in results {
            pass.cell_ns.push(runs.iter().map(|r| r.host_ns).sum());
            pass.runs.extend(runs);
        }
        pass
    }
}

pub fn variant_index(v: Variant) -> u64 {
    match v {
        Variant::Baseline => 0,
        Variant::RaceFree => 1,
    }
}
