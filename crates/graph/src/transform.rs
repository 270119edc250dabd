//! Graph transformations: relabeling and subgraph extraction.
//!
//! The ECL graph preprocessing relabels vertices for memory locality before
//! writing its binary inputs; these utilities provide the same operations
//! for preparing external graphs for the suite.

use crate::{Csr, CsrBuilder};

/// Relabels the graph's vertices by a permutation: vertex `v` becomes
/// `perm[v]`. Weights follow their edges.
///
/// # Panics
///
/// Panics if `perm` is not a permutation of `0..num_vertices`.
pub fn relabel(g: &Csr, perm: &[u32]) -> Csr {
    let n = g.num_vertices();
    assert_eq!(perm.len(), n, "permutation length mismatch");
    let mut seen = vec![false; n];
    for &p in perm {
        assert!(
            (p as usize) < n && !seen[p as usize],
            "perm is not a permutation"
        );
        seen[p as usize] = true;
    }
    // The builder drops self-loops, so their weights are dropped here too.
    let mut edges: Vec<(u32, u32, Option<u32>)> = g
        .edges()
        .enumerate()
        .filter(|&(_, (u, v))| u != v)
        .map(|(e, (u, v))| {
            (
                perm[u as usize],
                perm[v as usize],
                g.weights().map(|w| w[e]),
            )
        })
        .collect();
    edges.sort_unstable();
    let mut b = CsrBuilder::new(n);
    for &(u, v, _) in &edges {
        b.add_edge(u, v);
    }
    let out = b.build();
    if g.weights().is_none() {
        return out;
    }
    // Builder dedups; align weights to the deduped edge order.
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    let weights: Vec<u32> = edges.iter().map(|&(_, _, w)| w.unwrap_or(1)).collect();
    Csr::from_raw(
        out.row_offsets().to_vec(),
        out.col_indices().to_vec(),
        Some(weights),
    )
    .expect("relabel produced valid arrays")
}

/// Returns a permutation placing vertices in decreasing-degree order —
/// hub-first relabeling, which improves locality for power-law graphs.
pub fn degree_order(g: &Csr) -> Vec<u32> {
    let mut order: Vec<u32> = (0..g.num_vertices() as u32).collect();
    order.sort_by_key(|&v| std::cmp::Reverse(g.degree(v as usize)));
    // order[i] = old vertex at new position i; invert to get perm[old] = new.
    let mut perm = vec![0u32; g.num_vertices()];
    for (new, &old) in order.iter().enumerate() {
        perm[old as usize] = new as u32;
    }
    perm
}

/// Extracts the subgraph induced by `keep` (a vertex subset), relabeling
/// the kept vertices densely in their original order. Weights follow.
pub fn induced_subgraph(g: &Csr, keep: &[bool]) -> Csr {
    assert_eq!(keep.len(), g.num_vertices(), "mask length mismatch");
    let mut new_id = vec![u32::MAX; g.num_vertices()];
    let mut n = 0u32;
    for (v, &k) in keep.iter().enumerate() {
        if k {
            new_id[v] = n;
            n += 1;
        }
    }
    let mut edges: Vec<(u32, u32, Option<u32>)> = Vec::new();
    for (e, (u, v)) in g.edges().enumerate() {
        if keep[u as usize] && keep[v as usize] && u != v {
            edges.push((
                new_id[u as usize],
                new_id[v as usize],
                g.weights().map(|w| w[e]),
            ));
        }
    }
    edges.sort_unstable();
    let mut b = CsrBuilder::new(n as usize);
    for &(u, v, _) in &edges {
        b.add_edge(u, v);
    }
    let out = b.build();
    if g.weights().is_none() {
        return out;
    }
    edges.dedup_by_key(|&mut (u, v, _)| (u, v));
    let weights: Vec<u32> = edges.iter().map(|&(_, _, w)| w.unwrap_or(1)).collect();
    Csr::from_raw(
        out.row_offsets().to_vec(),
        out.col_indices().to_vec(),
        Some(weights),
    )
    .expect("subgraph produced valid arrays")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::props::properties;

    #[test]
    fn relabel_preserves_structure() {
        let g = gen::rmat(128, 512, 0.5, 0.2, 0.2, true, 1).with_random_weights(50, 2);
        let perm = degree_order(&g);
        let r = relabel(&g, &perm);
        assert_eq!(r.num_vertices(), g.num_vertices());
        assert_eq!(r.num_edges(), g.num_edges());
        // Degree multiset is invariant.
        let mut d1: Vec<usize> = (0..g.num_vertices()).map(|v| g.degree(v)).collect();
        let mut d2: Vec<usize> = (0..r.num_vertices()).map(|v| r.degree(v)).collect();
        d1.sort_unstable();
        d2.sort_unstable();
        assert_eq!(d1, d2);
        // Total weight is invariant.
        let sum = |c: &crate::Csr| c.weights().unwrap().iter().map(|&w| w as u64).sum::<u64>();
        assert_eq!(sum(&g), sum(&r));
    }

    #[test]
    fn degree_order_puts_hubs_first() {
        let g = gen::pref_attach(200, 3, 0.3, 1);
        let perm = degree_order(&g);
        let r = relabel(&g, &perm);
        // New vertex 0 has the maximum degree.
        let p = properties(&r);
        assert_eq!(r.degree(0), p.max_degree);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn relabel_rejects_bad_permutation() {
        let g = gen::grid2d_torus(4, 4);
        let perm = vec![0u32; 16];
        let _ = relabel(&g, &perm);
    }

    #[test]
    fn induced_subgraph_keeps_internal_edges_only() {
        // Path 0-1-2-3; keep {0, 1, 3}: only the 0-1 edge survives.
        let mut b = CsrBuilder::new(4).symmetric(true);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 3);
        let g = b.build();
        let sub = induced_subgraph(&g, &[true, true, false, true]);
        assert_eq!(sub.num_vertices(), 3);
        assert_eq!(sub.num_edges(), 2); // 0-1 both directions
        assert_eq!(sub.neighbors(0), &[1]);
        assert_eq!(sub.neighbors(2), &[] as &[u32]);
    }

    /// Weighted, with a self-loop at vertex 0 that `Csr::from_raw` (and so
    /// `io::read_graph`) accepts but `CsrBuilder` drops.
    fn weighted_with_self_loop() -> Csr {
        Csr::from_raw(vec![0, 2, 3], vec![0, 1, 0], Some(vec![5, 7, 7])).unwrap()
    }

    #[test]
    fn relabel_drops_a_self_loop_with_its_weight() {
        let r = relabel(&weighted_with_self_loop(), &[1, 0]);
        assert_eq!(r.row_offsets(), &[0, 1, 2]);
        assert_eq!(r.col_indices(), &[1, 0]);
        assert_eq!(r.weights(), Some(&[7, 7][..]));
    }

    #[test]
    fn induced_subgraph_drops_a_self_loop_with_its_weight() {
        let sub = induced_subgraph(&weighted_with_self_loop(), &[true, true]);
        assert_eq!(sub.row_offsets(), &[0, 1, 2]);
        assert_eq!(sub.col_indices(), &[1, 0]);
        assert_eq!(sub.weights(), Some(&[7, 7][..]));
    }

    #[test]
    fn subgraph_of_everything_is_identity() {
        let g = gen::rmat(64, 256, 0.5, 0.2, 0.2, true, 2);
        let sub = induced_subgraph(&g, &vec![true; g.num_vertices()]);
        assert_eq!(g, sub);
    }
}
