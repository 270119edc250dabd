//! Property-based tests for the graph substrate.

use ecl_graph::{gen, io, props, Csr, CsrBuilder};
use proptest::prelude::*;

/// Strategy: an arbitrary edge list over up to `max_n` vertices.
fn edge_lists(max_n: u32) -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (2..max_n).prop_flat_map(|n| {
        let edges = prop::collection::vec((0..n, 0..n), 0..200);
        (Just(n), edges)
    })
}

/// Strategy: an edge list `CsrBuilder` must clean up. Endpoints run past
/// `n`; the pool `0..3` repeats pairs and makes self-loops, and once `n`
/// is in the thousands it gives hub rows hundreds of edges long. Half of
/// the lists are empty or one edge long.
fn hostile_edge_lists() -> impl Strategy<Value = (u32, Vec<(u32, u32)>)> {
    (
        prop_oneof![2u32..12, 1000u32..4000],
        prop_oneof![0usize..2, 0usize..4000],
    )
        .prop_flat_map(|(n, len)| {
            let v = || prop_oneof![0..n + 3, 0u32..3];
            (Just(n), prop::collection::vec((v(), v()), len))
        })
}

/// The sort-based build `CsrBuilder::build` replaced: stage the in-range,
/// non-loop edges (mirrored when `symmetric`), sort and dedup them all,
/// then count rows.
fn reference_build(n: u32, edges: &[(u32, u32)], symmetric: bool) -> Csr {
    let mut staged = Vec::new();
    for &(s, d) in edges {
        if s < n && d < n && s != d {
            staged.push((s, d));
            if symmetric {
                staged.push((d, s));
            }
        }
    }
    staged.sort_unstable();
    staged.dedup();
    let mut row_offsets = vec![0u32; n as usize + 1];
    for &(s, _) in &staged {
        row_offsets[s as usize + 1] += 1;
    }
    for i in 0..n as usize {
        row_offsets[i + 1] += row_offsets[i];
    }
    let col_indices = staged.iter().map(|&(_, d)| d).collect();
    Csr::from_raw(row_offsets, col_indices, None).unwrap()
}

proptest! {
    #[test]
    fn builder_matches_the_sort_based_reference(
        (n, edges) in hostile_edge_lists(),
        symmetric in any::<bool>(),
    ) {
        let mut b = CsrBuilder::new(n as usize).symmetric(symmetric);
        b.extend_edges(edges.iter().copied());
        prop_assert_eq!(b.build(), reference_build(n, &edges, symmetric));
    }

    #[test]
    fn builder_always_produces_valid_csr((n, edges) in edge_lists(64)) {
        let mut b = CsrBuilder::new(n as usize);
        b.extend_edges(edges);
        let g = b.build();
        // Re-validating through from_raw must succeed.
        let rebuilt = Csr::from_raw(
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            None,
        );
        prop_assert!(rebuilt.is_ok());
        // No self-loops, no duplicates within a row.
        for v in 0..g.num_vertices() {
            let nb = g.neighbors(v);
            prop_assert!(!nb.contains(&(v as u32)));
            let mut sorted = nb.to_vec();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), nb.len());
        }
    }

    #[test]
    fn symmetric_builder_is_symmetric((n, edges) in edge_lists(48)) {
        let mut b = CsrBuilder::new(n as usize).symmetric(true);
        b.extend_edges(edges);
        let g = b.build();
        prop_assert!(g.is_symmetric());
    }

    #[test]
    fn transpose_is_involutive((n, edges) in edge_lists(48)) {
        let mut b = CsrBuilder::new(n as usize);
        b.extend_edges(edges);
        let g = b.build();
        prop_assert_eq!(g.transpose().transpose(), g);
    }

    #[test]
    fn transpose_preserves_edge_count((n, edges) in edge_lists(48)) {
        let mut b = CsrBuilder::new(n as usize);
        b.extend_edges(edges);
        let g = b.build();
        prop_assert_eq!(g.transpose().num_edges(), g.num_edges());
    }

    #[test]
    fn io_roundtrip_arbitrary_graphs((n, edges) in edge_lists(48), weighted in any::<bool>()) {
        let mut b = CsrBuilder::new(n as usize).symmetric(true);
        b.extend_edges(edges);
        let mut g = b.build();
        if weighted {
            g = g.with_random_weights(1000, 7);
        }
        let mut buf = Vec::new();
        io::write_graph(&g, &mut buf).unwrap();
        let back = io::read_graph(&buf[..]).unwrap();
        prop_assert_eq!(g, back);
    }

    #[test]
    fn weights_are_symmetric_and_in_range(
        (n, edges) in edge_lists(48),
        max_w in 1u32..5000,
        seed in any::<u64>(),
    ) {
        let mut b = CsrBuilder::new(n as usize).symmetric(true);
        b.extend_edges(edges);
        let g = b.build().with_random_weights(max_w, seed);
        let w = g.weights().unwrap();
        for (e, (u, v)) in g.edges().enumerate() {
            prop_assert!((1..=max_w).contains(&w[e]));
            // Find the mirror edge's weight.
            let pos = g.neighbors(v as usize).iter().position(|&x| x == u).unwrap();
            let mirror = w[g.row_offsets()[v as usize] as usize + pos];
            prop_assert_eq!(w[e], mirror);
        }
    }

    #[test]
    fn properties_are_consistent((n, edges) in edge_lists(64)) {
        let mut b = CsrBuilder::new(n as usize);
        b.extend_edges(edges);
        let g = b.build();
        let p = props::properties(&g);
        prop_assert_eq!(p.num_vertices, g.num_vertices());
        prop_assert_eq!(p.num_edges, g.num_edges());
        prop_assert!(p.min_degree <= p.max_degree || p.num_vertices == 0);
        let hist = props::degree_histogram(&g);
        prop_assert_eq!(hist.iter().sum::<usize>(), p.num_vertices);
        prop_assert_eq!(
            hist.iter().enumerate().map(|(d, &c)| d * c).sum::<usize>(),
            p.num_edges
        );
    }

    #[test]
    fn generators_are_deterministic(seed in any::<u64>()) {
        let a = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, seed);
        let b = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, seed);
        prop_assert_eq!(a, b);
        let a = gen::pref_attach(128, 3, 0.1, seed);
        let b = gen::pref_attach(128, 3, 0.1, seed);
        prop_assert_eq!(a, b);
        let a = gen::road_network(128, 0.05, seed);
        let b = gen::road_network(128, 0.05, seed);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn star_polygon_degrees_exact(n in 8usize..200, step in 2usize..7) {
        prop_assume!(step < n);
        let g = gen::star_polygon(n, step);
        let p = props::properties(&g);
        prop_assert_eq!(p.max_degree, 2);
        prop_assert!(p.min_degree >= 1);
    }
}
