//! Serial Kruskal reference and validation for minimum spanning forests.

use ecl_graph::Csr;

/// Simple host-side disjoint-set union.
struct Dsu(Vec<u32>);

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu((0..n as u32).collect())
    }

    fn find(&mut self, v: u32) -> u32 {
        let mut root = v;
        while self.0[root as usize] != root {
            root = self.0[root as usize];
        }
        let mut cur = v;
        while cur != root {
            let next = self.0[cur as usize];
            self.0[cur as usize] = root;
            cur = next;
        }
        root
    }

    fn union(&mut self, a: u32, b: u32) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            false
        } else {
            self.0[ra.max(rb) as usize] = ra.min(rb);
            true
        }
    }
}

/// Computes the minimum spanning forest weight with serial Kruskal — the
/// ground truth for the GPU results.
///
/// # Panics
///
/// Panics if the graph has no weights.
pub fn reference_mst_weight(g: &Csr) -> u64 {
    kruskal(g, g.weights().expect("weighted graph required")).0
}

/// Serial Kruskal over each undirected edge's `u < v` half, taken in the
/// order of packed `(weight << 32) | half` keys, `half` counting the halves
/// in edge order: ties are broken by edge index, which matches the device
/// kernels' packed keys, though with unique keys the forest weight is
/// unique anyway. Returns the forest weight and the number of unions — `n`
/// minus the number of components on the symmetric graphs MST runs on.
fn kruskal(g: &Csr, weights: &[u32]) -> (u64, usize) {
    let mut halves = Vec::new();
    let mut keys = Vec::new();
    for (e, (u, v)) in g.edges().enumerate() {
        if u < v {
            keys.push(((weights[e] as u64) << 32) | halves.len() as u64);
            halves.push((u, v));
        }
    }
    keys.sort_unstable();
    let mut dsu = Dsu::new(g.num_vertices());
    let (mut total, mut unions) = (0, 0);
    for key in keys {
        let (u, v) = halves[key as u32 as usize];
        if dsu.union(u, v) {
            total += key >> 32;
            unions += 1;
        }
    }
    (total, unions)
}

/// Checks that the flagged edges form a spanning forest of minimum total
/// weight: acyclic, spanning every component, and weight-equal to Kruskal.
pub fn verify_mst(g: &Csr, in_mst: &[bool]) -> bool {
    if in_mst.len() != g.num_edges() {
        return false;
    }
    let weights = match g.weights() {
        Some(w) => w,
        None => return false,
    };
    let mut dsu = Dsu::new(g.num_vertices());
    let mut total = 0u64;
    let mut count = 0usize;
    for (e, (u, v)) in g.edges().enumerate() {
        if in_mst[e] {
            if !dsu.union(u, v) {
                return false; // cycle
            }
            total += weights[e] as u64;
            count += 1;
        }
    }
    // Spanning: an acyclic edge set connects exactly what the graph
    // connects iff it has as many edges as Kruskal made unions.
    (total, count) == kruskal(g, weights)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::CsrBuilder;

    /// 4-cycle with one heavy edge: MST is the three light edges.
    fn weighted_square() -> Csr {
        let mut b = CsrBuilder::new(4).symmetric(true);
        b.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(2, 3)
            .add_edge(3, 0);
        let g = b.build();
        // Deterministic custom weights: edge (3,0) is the heaviest.
        let weights: Vec<u32> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (u.min(v), u.max(v));
                match (a, b) {
                    (0, 1) => 1,
                    (1, 2) => 2,
                    (2, 3) => 3,
                    (0, 3) => 9,
                    _ => unreachable!(),
                }
            })
            .collect();
        ecl_graph::Csr::from_raw(
            g.row_offsets().to_vec(),
            g.col_indices().to_vec(),
            Some(weights),
        )
        .unwrap()
    }

    #[test]
    fn kruskal_reference() {
        assert_eq!(reference_mst_weight(&weighted_square()), 6);
    }

    #[test]
    fn verify_accepts_true_mst() {
        let g = weighted_square();
        let in_mst: Vec<bool> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (u.min(v), u.max(v));
                u < v && !(a == 0 && b == 3)
            })
            .collect();
        assert!(verify_mst(&g, &in_mst));
    }

    #[test]
    fn verify_rejects_cycle() {
        let g = weighted_square();
        let in_mst: Vec<bool> = g.edges().map(|(u, v)| u < v).collect(); // all 4 edges
        assert!(!verify_mst(&g, &in_mst));
    }

    #[test]
    fn verify_rejects_suboptimal_tree() {
        let g = weighted_square();
        // Spanning but includes the heavy (0,3) edge instead of (0,1).
        let in_mst: Vec<bool> = g
            .edges()
            .map(|(u, v)| {
                let (a, b) = (u.min(v), u.max(v));
                u < v && !(a == 0 && b == 1)
            })
            .collect();
        assert!(!verify_mst(&g, &in_mst));
    }

    #[test]
    fn verify_rejects_non_spanning() {
        let g = weighted_square();
        let in_mst = vec![false; g.num_edges()];
        assert!(!verify_mst(&g, &in_mst));
    }
}
