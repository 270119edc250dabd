//! Small-scale checks that the simulator reproduces the *shape* of the
//! paper's results — who wins, roughly by how much, and the Fig. 6 trend.
//! The full-scale reproduction is the `all_tests` sweep; these are quick
//! smoke versions that run under `cargo test`.

use ecl_bench::{geomean, Matrix};
use ecl_core::suite::Algorithm;
use ecl_graph::inputs::GraphInput;
use ecl_graph::props::properties;
use ecl_simt::GpuConfig;

/// A handful of representative inputs at small scale.
fn measure_at(alg: Algorithm, gpu: &GpuConfig, inputs: &[&str], scale: f64) -> f64 {
    let matrix = Matrix::quick().runs(1);
    let mut speedups = Vec::new();
    for name in inputs {
        let input = GraphInput::by_name(name).expect("catalog entry");
        let g = input.build(scale, 1);
        let cell = matrix.measure(input.name(), alg, &g, gpu, properties(&g));
        speedups.push(cell.speedup);
    }
    geomean(&speedups)
}

fn measure(alg: Algorithm, gpu: &GpuConfig, inputs: &[&str]) -> f64 {
    measure_at(alg, gpu, inputs, 0.12)
}

const UNDIRECTED: [&str; 3] = ["rmat16.sym", "citationCiteseer", "2d-2e20.sym"];
const DIRECTED: [&str; 3] = ["toroid-hex", "web-Google", "star"];

#[test]
fn racefree_cc_is_substantially_slower() {
    for gpu in GpuConfig::paper_gpus() {
        let g = measure(Algorithm::Cc, &gpu, &UNDIRECTED);
        assert!(g < 0.95, "CC on {}: geomean {g:.2} not slower", gpu.name);
        assert!(
            g > 0.2,
            "CC on {}: geomean {g:.2} implausibly slow",
            gpu.name
        );
    }
}

#[test]
fn racefree_gc_is_near_parity() {
    for gpu in GpuConfig::paper_gpus() {
        let g = measure(Algorithm::Gc, &gpu, &UNDIRECTED);
        assert!(
            (0.90..=1.05).contains(&g),
            "GC on {}: geomean {g:.2}",
            gpu.name
        );
    }
}

#[test]
fn racefree_mst_is_slightly_slower() {
    for gpu in GpuConfig::paper_gpus() {
        let g = measure(Algorithm::Mst, &gpu, &UNDIRECTED);
        assert!(
            (0.85..=1.02).contains(&g),
            "MST on {}: geomean {g:.2}",
            gpu.name
        );
    }
}

#[test]
fn racefree_mis_is_faster() {
    // The headline finding: 5-11% geomean speedup on every GPU. The effect
    // comes from convergence rounds, so measure at a scale with enough of
    // them, on the inputs where the paper's own speedups are largest
    // (amazon0601 1.28-1.49, as-skitter 1.70-2.05).
    let inputs = ["amazon0601", "as-skitter", "rmat16.sym"];
    for gpu in GpuConfig::paper_gpus() {
        let g = measure_at(Algorithm::Mis, &gpu, &inputs, 0.3);
        assert!(
            g > 1.0,
            "MIS on {}: geomean {g:.2} should exceed 1",
            gpu.name
        );
        assert!(
            g < 1.6,
            "MIS on {}: geomean {g:.2} implausibly fast",
            gpu.name
        );
    }
}

#[test]
fn racefree_scc_is_slower() {
    for gpu in GpuConfig::paper_gpus() {
        let g = measure(Algorithm::Scc, &gpu, &DIRECTED);
        assert!(g < 1.0, "SCC on {}: geomean {g:.2} not slower", gpu.name);
    }
}

#[test]
fn fig6_trend_newer_gpus_lose_more() {
    // Paper §VI-C / Fig. 6: the slowdown grows on newer GPUs. The 2070
    // Super shows the least CC loss; the 4090 the most.
    let cc_2070 = measure(Algorithm::Cc, &GpuConfig::rtx2070_super(), &UNDIRECTED);
    let cc_titan = measure(Algorithm::Cc, &GpuConfig::titan_v(), &UNDIRECTED);
    let cc_4090 = measure(Algorithm::Cc, &GpuConfig::rtx4090(), &UNDIRECTED);
    assert!(
        cc_2070 > cc_titan && cc_titan > cc_4090,
        "CC trend violated: 2070 {cc_2070:.2}, TitanV {cc_titan:.2}, 4090 {cc_4090:.2}"
    );
    let scc_2070 = measure(Algorithm::Scc, &GpuConfig::rtx2070_super(), &DIRECTED);
    let scc_a100 = measure(Algorithm::Scc, &GpuConfig::a100(), &DIRECTED);
    assert!(
        scc_2070 > scc_a100,
        "SCC trend violated: 2070 {scc_2070:.2} vs A100 {scc_a100:.2}"
    );
}
