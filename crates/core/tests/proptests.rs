//! Property-based tests for the algorithm suite: on arbitrary random
//! graphs, both variants produce valid, reference-matching solutions, and
//! the deterministic invariants hold under arbitrary scheduler seeds.

use ecl_core::apsp::{self, INF};
use ecl_core::common::canonical_partition;
use ecl_core::primitives::Atomic;
use ecl_core::suite::{run_algorithm, Algorithm, Variant};
use ecl_core::{cc, gc, mis, mst, scc};
use ecl_graph::{Csr, CsrBuilder};
use ecl_simt::{GpuConfig, StoreVisibility};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Strategy: a random undirected graph with 4..80 vertices.
fn undirected_graphs() -> impl Strategy<Value = Csr> {
    (4u32..80).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..250).prop_map(move |edges| {
            let mut b = CsrBuilder::new(n as usize).symmetric(true);
            b.extend_edges(edges);
            b.build()
        })
    })
}

/// Strategy: a random directed graph with 4..60 vertices.
fn directed_graphs() -> impl Strategy<Value = Csr> {
    (4u32..60).prop_flat_map(|n| {
        prop::collection::vec((0..n, 0..n), 0..200).prop_map(move |edges| {
            let mut b = CsrBuilder::new(n as usize);
            b.extend_edges(edges);
            b.build()
        })
    })
}

/// Strategy: a random directed graph with 2..20 vertices, self-loops and
/// parallel edges kept, whose weights are drawn from `0..=k` for a random
/// `k` — zero weights included, all of them when `k` is 0.
fn zero_weight_digraphs() -> impl Strategy<Value = Csr> {
    (2u32..20, 0u32..5).prop_flat_map(|(n, k)| {
        prop::collection::vec((0..n, 0..n, 0..=k), 0..80).prop_map(move |mut edges| {
            edges.sort_unstable();
            let mut offsets = vec![0u32; n as usize + 1];
            for &(u, _, _) in &edges {
                offsets[u as usize + 1] += 1;
            }
            for v in 0..n as usize {
                offsets[v + 1] += offsets[v];
            }
            let cols = edges.iter().map(|&(_, v, _)| v).collect();
            let weights = edges.iter().map(|&(_, _, w)| w).collect();
            Csr::from_raw(offsets, cols, Some(weights)).unwrap()
        })
    })
}

/// Strategy: `n` labels below a random bound in `1..=2n`, so some
/// labelings fit `canonical_partition`'s dense table (every label at most
/// `n`) and the others take its map.
fn labelings() -> impl Strategy<Value = Vec<u32>> {
    (1u32..40).prop_flat_map(|n| {
        (1..=2 * n).prop_flat_map(move |bound| prop::collection::vec(0..bound, n as usize))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn apsp_certificate_accepts_exactly_the_reference(g in zero_weight_digraphs()) {
        let reference = apsp::reference_apsp(&g);
        prop_assert!(apsp::verify_apsp(&g, &reference));
        // Every single-entry change is rejected: ±1, finite -> INF,
        // INF -> finite, the diagonal included.
        for i in 0..reference.len() {
            let d = reference[i];
            let changes = if d == INF {
                [Some(INF + 1), Some(INF - 1), Some(0)]
            } else {
                [Some(d + 1), d.checked_sub(1), Some(INF)]
            };
            for x in changes.into_iter().flatten() {
                let mut wrong = reference.clone();
                wrong[i] = x;
                prop_assert!(!apsp::verify_apsp(&g, &wrong), "entry {i}: {d} -> {x} accepted");
            }
        }
    }

    #[test]
    fn canonical_partition_maps_labels_to_first_occurrences(labels in labelings()) {
        let mut first = BTreeMap::new();
        for (v, &l) in labels.iter().enumerate() {
            first.entry(l).or_insert(v as u32);
        }
        let naive: Vec<u32> = labels.iter().map(|l| first[l]).collect();
        prop_assert_eq!(canonical_partition(&labels), naive);
    }

    #[test]
    fn mst_check_accepts_a_run_and_rejects_a_dropped_tree_edge(
        g in undirected_graphs(),
        seed in any::<u64>(),
    ) {
        // Weights in 0..=3: dropping a zero-weight tree edge keeps the total,
        // so only the spanning count can reject it.
        let g = g.with_random_weights(4, seed);
        let weights = g.weights().unwrap().iter().map(|w| w - 1).collect();
        let g = Csr::from_raw(g.row_offsets().to_vec(), g.col_indices().to_vec(), Some(weights))
            .unwrap();
        let r = mst::run::<Atomic>(&g, &GpuConfig::test_tiny(), seed, StoreVisibility::Immediate);
        prop_assert!(mst::verify_mst(&g, &r.in_mst));
        for e in (0..g.num_edges()).filter(|&e| r.in_mst[e]) {
            let mut dropped = r.in_mst.clone();
            dropped[e] = false;
            prop_assert!(!mst::verify_mst(&g, &dropped), "tree edge {e} dropped but accepted");
        }
    }

    #[test]
    fn cc_matches_reference_on_arbitrary_graphs(g in undirected_graphs(), seed in any::<u64>()) {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let r = run_algorithm(Algorithm::Cc, variant, &g, &GpuConfig::test_tiny(), seed);
            prop_assert!(r.valid);
            prop_assert_eq!(r.quality as usize, cc::reference_components(&g));
        }
    }

    #[test]
    fn mis_is_always_valid_and_unique(g in undirected_graphs(), seed in any::<u64>()) {
        let b = run_algorithm(Algorithm::Mis, Variant::Baseline, &g, &GpuConfig::test_tiny(), seed);
        let f = run_algorithm(Algorithm::Mis, Variant::RaceFree, &g, &GpuConfig::test_tiny(), seed);
        prop_assert!(b.valid && f.valid);
        prop_assert_eq!(b.solution_digest, f.solution_digest);
    }

    #[test]
    fn gc_always_colors_properly(g in undirected_graphs(), seed in any::<u64>()) {
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let r = run_algorithm(Algorithm::Gc, variant, &g, &GpuConfig::test_tiny(), seed);
            prop_assert!(r.valid);
        }
    }

    #[test]
    fn mst_weight_matches_kruskal(g in undirected_graphs(), seed in any::<u64>()) {
        let g = g.with_random_weights(100, 5);
        let expected = mst::reference_mst_weight(&g);
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let r = run_algorithm(Algorithm::Mst, variant, &g, &GpuConfig::test_tiny(), seed);
            prop_assert!(r.valid);
            prop_assert_eq!(r.quality as u64, expected);
        }
    }

    #[test]
    fn scc_matches_tarjan(g in directed_graphs(), seed in any::<u64>()) {
        let (_, expected) = scc::reference_sccs(&g);
        for variant in [Variant::Baseline, Variant::RaceFree] {
            let r = run_algorithm(Algorithm::Scc, variant, &g, &GpuConfig::test_tiny(), seed);
            prop_assert!(r.valid);
            prop_assert_eq!(r.quality as usize, expected);
        }
    }

    #[test]
    fn verifiers_reject_corrupted_solutions(g in undirected_graphs()) {
        prop_assume!(g.num_edges() > 0);
        // A correct run, then flip one element of each solution kind.
        let labels = {
            let r = run_algorithm(Algorithm::Cc, Variant::RaceFree, &g, &GpuConfig::test_tiny(), 1);
            prop_assert!(r.valid);
            r
        };
        let _ = labels;
        // CC: merging everything into one label must be rejected unless the
        // graph is connected.
        let merged = vec![0u32; g.num_vertices()];
        if cc::reference_components(&g) > 1 {
            prop_assert!(!cc::verify_components(&g, &merged));
        }
        // MIS: the full vertex set is independent only in edgeless graphs.
        let all_in = vec![true; g.num_vertices()];
        prop_assert!(!mis::verify_mis(&g, &all_in));
        // GC: the all-zero coloring conflicts on any edge.
        let all_zero = vec![0u32; g.num_vertices()];
        prop_assert!(!gc::verify_coloring(&g, &all_zero));
    }
}
