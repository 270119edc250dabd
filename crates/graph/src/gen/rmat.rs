//! Recursive-matrix (RMAT/Kronecker) generators
//! (`rmat16.sym`, `rmat22.sym`, `kron_g500-logn21` families).

use crate::{Csr, CsrBuilder};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Generates an RMAT graph with `n` vertices (rounded up to a power of two
/// internally) and approximately `num_edges` edges before mirroring.
///
/// `a`, `b`, `c` are the standard RMAT quadrant probabilities (the fourth is
/// `1 - a - b - c`). Graph500/Kronecker graphs use `a = 0.57, b = c = 0.19`,
/// producing the heavy-tailed degree distributions of the paper's `rmat*` and
/// `kron_g500` inputs.
///
/// # Panics
///
/// Panics if `n < 2` or the probabilities are not a sub-distribution.
pub fn rmat(n: usize, num_edges: usize, a: f64, b: f64, c: f64, symmetric: bool, seed: u64) -> Csr {
    assert!(n >= 2, "need at least two vertices");
    assert!(
        a >= 0.0 && b >= 0.0 && c >= 0.0 && a + b + c <= 1.0 + 1e-12,
        "quadrant probabilities must form a sub-distribution"
    );
    let levels = usize::BITS - (n - 1).leading_zeros();
    // Summed left to right: reassociating could move a threshold by an ulp
    // and so change the graphs.
    let (ab, abc) = (a + b, a + b + c);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = CsrBuilder::new(n).symmetric(symmetric);
    let mut produced = 0usize;
    let mut attempts = 0usize;
    let max_attempts = num_edges * 4 + 64;
    while produced < num_edges && attempts < max_attempts {
        attempts += 1;
        let (mut x, mut y) = (0usize, 0usize);
        for _ in 0..levels {
            // Add per-level noise so the distribution is not exactly self-similar,
            // which is what reference RMAT implementations do.
            let (x_bit, y_bit) = quadrant(rng.random(), a, ab, abc);
            x = (x << 1) | x_bit;
            y = (y << 1) | y_bit;
        }
        if x < n && y < n && x != y {
            builder.add_edge(x as u32, y as u32);
            produced += 1;
        }
    }
    builder.build()
}

/// The quadrant one uniform draw `r` picks, as its `(x, y)` bits: `[0, a)`
/// is top-left, `[a, ab)` top-right, `[ab, abc)` bottom-left and the rest
/// bottom-right. The bits come from comparisons, not branches: the draw is
/// random, so no predictor learns a branch on it. Since `a <= ab <= abc`
/// holds in floating point for non-negative probabilities, this picks the
/// same quadrant as testing the thresholds in turn.
#[inline]
fn quadrant(r: f64, a: f64, ab: f64, abc: f64) -> (usize, usize) {
    let x_bit = r >= ab;
    let y_bit = ((r >= a) & (r < ab)) | (r >= abc);
    (usize::from(x_bit), usize::from(y_bit))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::props::properties;

    #[test]
    fn rmat_is_heavy_tailed() {
        let g = rmat(4096, 32768, 0.57, 0.19, 0.19, true, 5);
        let p = properties(&g);
        // Power-law-ish: the max degree dwarfs the average.
        assert!(p.max_degree as f64 > 10.0 * p.avg_degree);
        assert!(g.is_symmetric());
    }

    #[test]
    fn rmat_deterministic() {
        let a = rmat(1024, 4096, 0.57, 0.19, 0.19, true, 9);
        let b = rmat(1024, 4096, 0.57, 0.19, 0.19, true, 9);
        assert_eq!(a, b);
    }

    /// The branching quadrant draw `quadrant` replaced.
    fn if_chain(r: f64, a: f64, b: f64, c: f64) -> (usize, usize) {
        if r < a {
            (0, 0)
        } else if r < a + b {
            (0, 1)
        } else if r < a + b + c {
            (1, 0)
        } else {
            (1, 1)
        }
    }

    /// `rmat` as it drew quadrants through `if_chain`.
    fn rmat_if_chain(n: usize, num_edges: usize, (a, b, c): (f64, f64, f64), seed: u64) -> Csr {
        let levels = usize::BITS - (n - 1).leading_zeros();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = CsrBuilder::new(n);
        let (mut produced, mut attempts) = (0, 0);
        while produced < num_edges && attempts < num_edges * 4 + 64 {
            attempts += 1;
            let (mut x, mut y) = (0usize, 0usize);
            for _ in 0..levels {
                let (x_bit, y_bit) = if_chain(rng.random(), a, b, c);
                x = (x << 1) | x_bit;
                y = (y << 1) | y_bit;
            }
            if x < n && y < n && x != y {
                builder.add_edge(x as u32, y as u32);
                produced += 1;
            }
        }
        builder.build()
    }

    /// Graph500's skew, the catalog's, no top-right quadrant (b = 0), no
    /// bottom-left one (c = 0), no bottom-right one (a + b + c = 1), and the
    /// rounding slack the assert allows.
    const SKEWS: [(f64, f64, f64); 6] = [
        (0.57, 0.19, 0.19),
        (0.45, 0.22, 0.22),
        (0.6, 0.0, 0.2),
        (0.6, 0.2, 0.0),
        (0.5, 0.3, 0.2),
        (0.5, 0.25, 0.25 + 1e-12),
    ];

    #[test]
    fn branch_free_draw_builds_the_if_chain_graphs() {
        for skew in SKEWS {
            let (a, b, c) = skew;
            // Directed, so a swapped x and y bit would show.
            for n in [1024, 1000] {
                let g = rmat(n, 8 * n, a, b, c, false, 3);
                assert_eq!(g, rmat_if_chain(n, 8 * n, skew, 3), "{skew:?} n = {n}");
            }
        }
    }

    #[test]
    fn quadrant_matches_the_if_chain_at_every_threshold() {
        for (a, b, c) in SKEWS {
            let (ab, abc) = (a + b, a + b + c);
            for t in [0.0, a, ab, abc, 1.0] {
                for r in [t.next_down(), t, t.next_up()] {
                    assert_eq!(
                        quadrant(r, a, ab, abc),
                        if_chain(r, a, b, c),
                        "r = {r:e}, skew = {:?}",
                        (a, b, c)
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "sub-distribution")]
    fn rmat_rejects_bad_probabilities() {
        let _ = rmat(16, 16, 0.9, 0.9, 0.9, false, 0);
    }
}
