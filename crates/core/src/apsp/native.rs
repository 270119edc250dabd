//! ECL-APSP on host threads: the blocked Floyd-Warshall schedule of the
//! simulator kernels, on 64×64 tiles.
//!
//! For each tile step `k` the team runs three phases, each ended by a team
//! barrier: the owner of tile row `k` closes the diagonal tile `(k, k)`;
//! every thread relaxes its share of the pivot row tiles `(k, t)` and column
//! tiles `(t, k)` against it; every thread relaxes the remaining tiles of
//! its tile rows against their pivot column tile and the pivot row tiles.
//! Each thread stages tiles in three thread-local buffers (the shared-memory
//! analogue): it copies a tile in with the variant's loads, relaxes it with
//! branch-free `min` loops over contiguous rows, and copies it back with the
//! variant's stores. DESIGN.md §13 gives the ordering argument.
//!
//! APSP is the suite's one regular code — no tile is read in the phase
//! that writes it, so every cross-thread read targets data that is stable
//! for the whole phase. The same code therefore serves both "variants";
//! the baseline/race-free split only changes how the tiles are copied,
//! exactly as in the paper (§IV-A: the published APSP has no data races).

use crate::common::Digest;
use ecl_graph::Csr;
use ecl_native::{run_team, NativePolicy, WordArr};

use super::{ApspResult, INF};

/// Tile edge: the paper's 64×64 GPU tile. The simulator's [`super::TILE`]
/// is 16 so that a tile's threads fill one simulated block.
const TILE: usize = 64;

/// One row-major tile, staged in a thread-local buffer. Entries are `i32`:
/// every distance is at most `INF` < 2^30 and rows with `a[i][kk] >= INF`
/// are skipped, so `a[i][kk] + b[kk][j] < 2 * INF` fits, and the signed
/// `min` vectorizes in fewer instructions than the unsigned one on the
/// baseline x86-64 target (SSE2 has no unsigned 32-bit compare).
type Tile = [i32; TILE * TILE];

/// `INF` as a tile entry.
const INF_I32: i32 = INF as i32;

/// Runs native blocked Floyd-Warshall on `threads` host threads; `seed`
/// perturbs only the schedule.
///
/// # Panics
///
/// Panics if the graph has no vertices, carries no weights, or has more
/// than 2048 vertices (dense O(n²) matrix).
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> ApspResult {
    assert!(g.num_vertices() > 0, "empty graph");
    assert!(
        g.num_vertices() <= 2048,
        "APSP is dense: {} vertices would need a {}-entry matrix",
        g.num_vertices(),
        g.num_vertices() * g.num_vertices()
    );
    let weights = g.weights().expect("APSP needs edge weights");
    let n = g.num_vertices();

    // Initial matrix: 0 on the diagonal, min edge weight on edges, INF
    // elsewhere (duplicate edges keep the lightest parallel edge).
    let mut init = vec![INF; n * n];
    for v in 0..n {
        init[v * n + v] = 0;
    }
    for (e, (u, v)) in g.edges().enumerate() {
        let slot = &mut init[u as usize * n + v as usize];
        *slot = (*slot).min(weights[e]);
    }
    let dist = WordArr::from_fn(n * n, |i| init[i]);
    let tiles = n.div_ceil(TILE);

    let team = run_team(threads, seed, |ctx| {
        let rows = ctx.my_block(tiles);
        let mut a: Box<Tile> = Box::new([INF_I32; TILE * TILE]);
        let mut b: Box<Tile> = Box::new([INF_I32; TILE * TILE]);
        let mut c: Box<Tile> = Box::new([INF_I32; TILE * TILE]);
        for k in 0..tiles {
            // Phase 1: the owner of tile row `k` closes the diagonal tile.
            if rows.contains(&k) {
                load::<P>(&dist, n, (k, k), &mut c);
                relax(&mut c, None, None);
                store::<P>(&dist, n, (k, k), &c);
            }
            ctx.barrier();

            // Phase 2: the pivot row and column tiles of this thread's tile
            // rows, against the closed diagonal tile.
            load::<P>(&dist, n, (k, k), &mut a);
            for t in rows.clone().filter(|&t| t != k) {
                load::<P>(&dist, n, (k, t), &mut c);
                relax(&mut c, Some(&a), None);
                store::<P>(&dist, n, (k, t), &c);
                load::<P>(&dist, n, (t, k), &mut c);
                relax(&mut c, None, Some(&a));
                store::<P>(&dist, n, (t, k), &c);
            }
            ctx.barrier();

            // Phase 3: every other tile of this thread's tile rows, against
            // its pivot column tile and the pivot row tiles.
            for i in rows.clone().filter(|&i| i != k) {
                load::<P>(&dist, n, (i, k), &mut a);
                for j in (0..tiles).filter(|&j| j != k) {
                    load::<P>(&dist, n, (k, j), &mut b);
                    load::<P>(&dist, n, (i, j), &mut c);
                    relax(&mut c, Some(&a), Some(&b));
                    store::<P>(&dist, n, (i, j), &c);
                }
            }
            ctx.barrier();
        }
    });

    let out = dist.snapshot();
    let mut digest = Digest::new();
    for &d in &out {
        digest.push(d as u64);
    }
    ApspResult {
        n,
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        digest: digest.finish(),
        dist: out,
    }
}

/// Copies tile `(ti, tj)` of the `n×n` matrix into `tile`; entries past `n`
/// (the padding of the last tile row and column) read as `INF`.
fn load<P: NativePolicy>(dist: &WordArr, n: usize, (ti, tj): (usize, usize), tile: &mut Tile) {
    let (r0, c0) = (ti * TILE, tj * TILE);
    let cols = TILE.min(n - c0);
    for (r, row) in (r0..n).zip(tile.chunks_exact_mut(TILE)) {
        let start = r * n + c0;
        for (x, cell) in row.iter_mut().zip(dist.cells(start..start + cols)) {
            *x = P::load_u32(cell) as i32;
        }
        row[cols..].fill(INF_I32);
    }
    tile[TILE * TILE.min(n - r0)..].fill(INF_I32);
}

/// Writes the entries of `tile` that lie inside the `n×n` matrix back to
/// tile `(ti, tj)`.
fn store<P: NativePolicy>(dist: &WordArr, n: usize, (ti, tj): (usize, usize), tile: &Tile) {
    let (r0, c0) = (ti * TILE, tj * TILE);
    let cols = TILE.min(n - c0);
    for (r, row) in (r0..n).zip(tile.chunks_exact(TILE)) {
        let start = r * n + c0;
        for (&x, cell) in row.iter().zip(dist.cells(start..start + cols)) {
            P::store_u32(cell, x as u32);
        }
    }
}

/// Relaxes `c` through the tile's pivots in order,
/// `c[i][j] = min(c[i][j], a[i][kk] + b[kk][j])` for `kk` in `0..TILE`,
/// where a missing `a` or `b` is `c` itself (the diagonal tile and the
/// pivot row and column tiles).
fn relax(c: &mut Tile, a: Option<&Tile>, b: Option<&Tile>) {
    for kk in 0..TILE {
        // Row `kk` cannot change in step `kk`: its update adds the pivot's
        // own diagonal entry, 0 for a vertex and INF (skipped) for padding.
        let mut pivot = [0; TILE];
        pivot.copy_from_slice(&b.unwrap_or(c)[kk * TILE..][..TILE]);
        for i in 0..TILE {
            let aik = a.unwrap_or(c)[i * TILE + kk];
            if aik >= INF_I32 {
                continue;
            }
            for (x, &y) in c[i * TILE..][..TILE].iter_mut().zip(&pivot) {
                *x = (*x).min(aik + y);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apsp::{reference_apsp, verify_apsp};
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn matches_dijkstra_on_torus() {
        let g = gen::grid2d_torus(6, 6).with_random_weights(9, 3);
        let b = run::<Baseline>(&g, 4, 1);
        let f = run::<RaceFree>(&g, 4, 2);
        assert!(verify_apsp(&g, &b.dist));
        assert_eq!(b.digest, f.digest);
    }

    #[test]
    fn disconnected_pairs_stay_inf() {
        let mut bld = ecl_graph::CsrBuilder::new(4).symmetric(true);
        bld.add_edge(0, 1).add_edge(2, 3);
        let g = bld.build().with_random_weights(5, 1);
        let r = run::<RaceFree>(&g, 2, 0);
        assert_eq!(r.dist[2], INF);
        assert_ne!(r.dist[1], INF);
        assert!(verify_apsp(&g, &r.dist));
    }

    #[test]
    fn multi_tile_matrix_matches_dijkstra() {
        // 3 full tiles and a 5-wide partial one per side. Directed, so the
        // pivot row and column tiles differ; vertices 0..130 form one
        // strongly connected part, 130..197 a one-way path spanning the
        // last two tiles, so every pair across the two parts stays INF.
        let n = 3 * TILE + 5;
        let mut bld = ecl_graph::CsrBuilder::new(n);
        for v in 0..130u32 {
            bld.add_edge(v, (v + 1) % 130)
                .add_edge(v, (v * 7 + 3) % 130);
        }
        for v in 130..n as u32 - 1 {
            bld.add_edge(v, v + 1);
        }
        let g = bld.build().with_random_weights(20, 5);
        let want = reference_apsp(&g);
        assert_eq!(want[n - 1], INF);
        assert_ne!(want[129], INF);
        for threads in 1..=4 {
            for seed in [0, 7] {
                let b = run::<Baseline>(&g, threads, seed);
                let f = run::<RaceFree>(&g, threads, seed);
                assert!(b.dist == want, "baseline, {threads} threads, seed {seed}");
                assert!(f.dist == want, "race-free, {threads} threads, seed {seed}");
            }
        }
    }
}
