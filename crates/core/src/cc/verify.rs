//! Serial reference and validation for connected components.

use ecl_graph::Csr;

/// Computes the number of connected components with a serial BFS — the
/// ground truth the GPU labelings are checked against.
pub fn reference_components(g: &Csr) -> usize {
    let n = g.num_vertices();
    let mut seen = vec![false; n];
    let mut count = 0;
    let mut queue = Vec::new();
    for s in 0..n {
        if seen[s] {
            continue;
        }
        count += 1;
        seen[s] = true;
        queue.push(s);
        while let Some(v) = queue.pop() {
            for &u in g.neighbors(v) {
                if !seen[u as usize] {
                    seen[u as usize] = true;
                    queue.push(u as usize);
                }
            }
        }
    }
    count
}

/// Checks that a labeling is a correct connected-components answer:
/// endpoints of every edge share a label, and vertices in different BFS
/// components have different labels.
pub fn verify_components(g: &Csr, labels: &[u32]) -> bool {
    if labels.len() != g.num_vertices() {
        return false;
    }
    // Same component -> same label.
    for (v, u) in g.edges() {
        if labels[v as usize] != labels[u as usize] {
            return false;
        }
    }
    // Different components -> different labels: the number of label groups
    // must equal the true component count.
    crate::common::partition_summary(labels).1 == reference_components(g)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::CsrBuilder;

    fn two_triangles() -> Csr {
        let mut b = CsrBuilder::new(6).symmetric(true);
        b.add_edge(0, 1).add_edge(1, 2).add_edge(2, 0);
        b.add_edge(3, 4).add_edge(4, 5).add_edge(5, 3);
        b.build()
    }

    #[test]
    fn reference_counts_components() {
        assert_eq!(reference_components(&two_triangles()), 2);
    }

    #[test]
    fn verify_accepts_correct_labeling() {
        let g = two_triangles();
        assert!(verify_components(&g, &[0, 0, 0, 3, 3, 3]));
    }

    #[test]
    fn verify_rejects_split_component() {
        let g = two_triangles();
        assert!(!verify_components(&g, &[0, 0, 1, 3, 3, 3]));
    }

    #[test]
    fn verify_rejects_merged_components() {
        let g = two_triangles();
        assert!(!verify_components(&g, &[0, 0, 0, 0, 0, 0]));
    }

    #[test]
    fn verify_rejects_wrong_length() {
        assert!(!verify_components(&two_triangles(), &[0, 0, 0]));
    }
}
