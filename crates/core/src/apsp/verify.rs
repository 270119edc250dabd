//! Dijkstra reference and shortest-path-certificate validation for
//! all-pairs shortest paths.

use super::INF;
use ecl_graph::Csr;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Computes the full distance matrix with one Dijkstra per source — the
/// test oracle that [`verify_apsp`]'s certificate is checked against.
///
/// # Panics
///
/// Panics if the graph has no weights.
pub fn reference_apsp(g: &Csr) -> Vec<u32> {
    let weights = g.weights().expect("weighted graph required");
    let n = g.num_vertices();
    let mut dist = vec![INF; n * n];
    let mut heap: BinaryHeap<Reverse<(u32, u32)>> = BinaryHeap::new();
    for s in 0..n {
        let row = &mut dist[s * n..(s + 1) * n];
        row[s] = 0;
        heap.clear();
        heap.push(Reverse((0, s as u32)));
        while let Some(Reverse((d, v))) = heap.pop() {
            if d > row[v as usize] {
                continue;
            }
            let begin = g.row_offsets()[v as usize] as usize;
            let end = g.row_offsets()[v as usize + 1] as usize;
            for (e, &u) in g.col_indices()[begin..end].iter().enumerate() {
                let u = u as usize;
                let nd = d + weights[begin + e];
                if nd < row[u] {
                    row[u] = nd;
                    heap.push(Reverse((nd, u as u32)));
                }
            }
        }
    }
    dist
}

/// Checks that a distance matrix is exactly [`reference_apsp`]'s without
/// recomputing it: each row must certify itself as the shortest distances
/// from its source `s`, `INF`-capped. The certificate holds when
/// - `d[s] == 0` and no entry exceeds `INF`;
/// - a search from `s` over *tight* edges (`d[v] == d[u] + w`, `d[v] < INF`)
///   reaches exactly the finite entries, so each is a real path's length;
/// - every edge out of a reached vertex is feasible (`d[v] <= d[u] + w`), so
///   no path is shorter.
///
/// That is O(n·(n + m)) instead of n Dijkstras; DESIGN.md §5 explains why
/// it is exact. Returns `false` for an unweighted graph.
pub fn verify_apsp(g: &Csr, dist: &[u32]) -> bool {
    let n = g.num_vertices();
    let Some(weights) = g.weights() else {
        return false;
    };
    if dist.len() != n * n {
        return false;
    }
    let (offsets, cols) = (g.row_offsets(), g.col_indices());
    let mut reached = vec![false; n];
    let mut queue = Vec::with_capacity(n);
    for s in 0..n {
        let d = &dist[s * n..(s + 1) * n];
        if d[s] != 0 || d.iter().any(|&x| x > INF) {
            return false;
        }
        let finite = d.iter().filter(|&&x| x < INF).count();
        reached.fill(false);
        reached[s] = true;
        queue.push(s);
        let mut count = 1;
        while let Some(u) = queue.pop() {
            let edges = offsets[u] as usize..offsets[u + 1] as usize;
            for (&v, &w) in cols[edges.clone()].iter().zip(&weights[edges]) {
                let v = v as usize;
                let via = d[u] as u64 + w as u64;
                if d[v] as u64 > via {
                    return false;
                }
                if d[v] as u64 == via && d[v] < INF && !reached[v] {
                    reached[v] = true;
                    queue.push(v);
                    count += 1;
                }
            }
        }
        if count != finite {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::CsrBuilder;

    fn weighted_path() -> Csr {
        let mut b = CsrBuilder::new(3).symmetric(true);
        b.add_edge(0, 1).add_edge(1, 2);
        let g = b.build();
        Csr::from_raw(
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            Some(vec![4; g.num_edges()]),
        )
        .unwrap()
    }

    #[test]
    fn reference_on_path() {
        let d = reference_apsp(&weighted_path());
        assert_eq!(d[2], 8); // dist(0, 2)
        assert_eq!(d[2 * 3], 8); // dist(2, 0)
        assert_eq!(d[3 + 1], 0); // dist(1, 1)
    }

    #[test]
    fn verify_rejects_wrong_entry() {
        let g = weighted_path();
        let mut d = reference_apsp(&g);
        assert!(verify_apsp(&g, &d));
        d[2] = 7;
        assert!(!verify_apsp(&g, &d));
    }

    #[test]
    fn verify_rejects_wrong_size() {
        assert!(!verify_apsp(&weighted_path(), &[0, 1]));
    }

    /// Vertex 0 reaches nothing; 1 and 2 form a zero-weight 2-cycle. Each
    /// of 1 and 2 has a tight in-edge at any distance, so only the search
    /// from the source can tell that row 0 must leave them at `INF`.
    #[test]
    fn verify_rejects_unreachable_zero_cycle_at_finite_distance() {
        let g = Csr::from_raw(vec![0, 0, 1, 2], vec![2, 1], Some(vec![0, 0])).unwrap();
        let mut d = reference_apsp(&g);
        assert!(verify_apsp(&g, &d));
        d[1] = 5;
        d[2] = 5;
        assert!(!verify_apsp(&g, &d));
    }

    /// A path exactly `INF` long stays `INF` in the reference, so an edge of
    /// weight `INF` out of the source is feasible yet never tight.
    #[test]
    fn verify_accepts_edge_of_weight_inf() {
        let g = Csr::from_raw(vec![0, 1, 1], vec![1], Some(vec![INF])).unwrap();
        let d = reference_apsp(&g);
        assert_eq!(d, [0, INF, INF, 0]);
        assert!(verify_apsp(&g, &d));
    }

    #[test]
    fn verify_rejects_unweighted_graph() {
        let g = Csr::from_raw(vec![0, 1, 1], vec![1], None).unwrap();
        assert!(!verify_apsp(&g, &[0, 1, INF, 0]));
    }
}
