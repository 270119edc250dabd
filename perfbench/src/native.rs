//! `native-rmat`: all six algorithms, both variants, on `NativeBackend`
//! with real host threads and real atomics — the simulator is bypassed.

use crate::stats::mix;
use crate::sweep::{graph_sig, variant_index, MAX_WEIGHT, WEIGHT_SEED};
use crate::trace::{At, Tracer};
use crate::workload::{timed, Pass, Path, Run, Setup, Workload, NATIVE_THREADS};
use ecl_bench::{graph_seed, sched_seed};
use ecl_core::suite::{Algorithm, Backend, NativeBackend, Variant};
use ecl_core::SimOptions;
use ecl_graph::gen::rmat;
use ecl_graph::props::properties;
use ecl_graph::Csr;
use ecl_simt::GpuConfig;

/// R-MAT input: 2^18 vertices and 1M requested edges (about 2M stored once
/// mirrored and deduplicated), with `native_bench`'s skew parameters. Sized
/// so that a pass takes a few seconds and a run holds several passes.
const N: usize = 1 << 18;
const M: usize = 1_000_000;
/// The dense APSP instance, at half the kernel's 2048-vertex cap.
const APSP_N: usize = 1024;
const APSP_M: usize = 8192;
const RMAT: (f64, f64, f64) = (0.57, 0.19, 0.19);

pub struct Native {
    seed: u64,
    /// (R-MAT graph, APSP graph), both weighted.
    graphs: Option<(Csr, Csr)>,
}

impl Native {
    pub fn new(seed: u64) -> Native {
        Native { seed, graphs: None }
    }
}

impl Workload for Native {
    fn setup(&mut self, tr: &Tracer, at: At) -> Setup {
        self.graphs = None;
        let gseed = graph_seed(self.seed);
        let (a, b, c) = RMAT;
        let mut s = Setup::default();
        let ((g, apsp), ns) = timed(tr, "graph.build", at, |_| {
            (
                rmat(N, M, a, b, c, true, gseed),
                rmat(APSP_N, APSP_M, a, b, c, true, gseed),
            )
        });
        s.build_s = ns as f64 * 1e-9;
        let ((p, q), ns) = timed(tr, "graph.props", at, |_| {
            (properties(&g), properties(&apsp))
        });
        s.props_s = ns as f64 * 1e-9;
        let ((g, apsp), ns) = timed(tr, "graph.weights", at, |_| {
            (
                g.with_random_weights(MAX_WEIGHT, WEIGHT_SEED),
                apsp.with_random_weights(MAX_WEIGHT, WEIGHT_SEED),
            )
        });
        s.weights_s = ns as f64 * 1e-9;
        s.edges = (g.num_edges() + apsp.num_edges()) as u64;
        s.sig = mix(
            mix(graph_sig(graph_sig(0, &g), &apsp), p.max_degree as u64),
            q.max_degree as u64,
        );
        self.graphs = Some((g, apsp));
        s
    }

    fn pass(&self, tr: &Tracer, at: At) -> Pass {
        let (g, apsp) = self.graphs.as_ref().expect("setup ran before the pass");
        let backend = NativeBackend::new(Some(NATIVE_THREADS));
        let cfg = GpuConfig::test_tiny();
        let opts = SimOptions::default();
        let seed = sched_seed(self.seed, 0);
        let mut pass = Pass::default();
        for (k, alg) in Algorithm::ALL.into_iter().enumerate() {
            let graph = if alg == Algorithm::Apsp { apsp } else { g };
            for variant in [Variant::Baseline, Variant::RaceFree] {
                let run_id = 2 * k as u64 + variant_index(variant) + 1;
                let (r, ns) = timed(tr, "native.run", at.run(at.parent, run_id), |_| {
                    ecl_simt::catch_any(|| backend.run(alg, variant, graph, &cfg, seed, &opts))
                });
                let outcome = match r {
                    // `cycles` is the kernel's wall time here, so only the
                    // fixpoint digest must repeat.
                    Ok(Ok(r)) if r.valid => Ok(mix(0, r.solution_digest)),
                    Ok(Ok(_)) => Err("invalid solution".into()),
                    Ok(Err(e)) => Err(e.to_string()),
                    Err(panic) => Err(panic),
                };
                pass.runs
                    .push(Run::new(Path::Native, alg, variant, ns, outcome));
            }
        }
        pass
    }
}
