//! ECL-GC on host threads: Jones-Plassmann largest-degree-first with both
//! ECL-GC shortcuts, rounds driven over a double-buffered uncolored
//! frontier instead of host-relaunched full sweeps.
//!
//! The shortcuts make the exact coloring timing-dependent (as in real
//! ECL-GC), so the cross-backend digest hashes only validity; the
//! differential harness additionally checks color-count quality bounds.

use crate::common::Digest;
use ecl_graph::Csr;
use ecl_native::{run_team, Frontier, NativePolicy, WordArr};

use super::{verify_coloring, GcResult, NO_COLOR};

/// Priority order: largest degree first, vertex id breaking ties.
#[inline]
fn higher_priority(deg_u: u32, u: u32, deg_v: u32, v: u32) -> bool {
    (deg_u, u) > (deg_v, v)
}

/// One vertex's work in a coloring round: the host twin of the simulator's
/// `round_body`. Returns `true` once `v` is colored.
fn try_color<P: NativePolicy>(
    row: &[u32],
    col: &[u32],
    colors: &WordArr,
    minposs: &WordArr,
    v: u32,
) -> bool {
    let (begin, end) = (row[v as usize] as usize, row[v as usize + 1] as usize);
    let deg_v = (end - begin) as u32;

    // Candidate color: the smallest one no already-colored neighbor uses.
    let mut used: u128 = 0;
    let mut overflow = false;
    for &u in &col[begin..end] {
        let cu = P::load_u32(colors.at(u as usize));
        if cu != NO_COLOR {
            if cu < 128 {
                used |= 1u128 << cu;
            } else {
                overflow = true;
            }
        }
    }
    let mut candidate = (!used).trailing_zeros();
    if candidate == 128 || overflow {
        candidate = probe_candidate::<P>(col, colors, begin, end, candidate);
    }

    // Shortcut check: an uncolored higher-priority neighbor blocks only
    // while its published minposs does not already exceed the candidate
    // (minposs is monotone, so a stale read is a safe lower bound).
    let mut blocked = false;
    for &u in &col[begin..end] {
        let cu = P::load_u32(colors.at(u as usize));
        if cu != NO_COLOR {
            if cu == candidate {
                // A neighbor took our candidate after the mask was built:
                // the candidate is stale, recompute next round. Together
                // with the minposs bound this makes the round race-proof —
                // a neighbor about to take `candidate` still has
                // minposs <= candidate, so the uncolored branch blocks us.
                blocked = true;
                break;
            }
            continue;
        }
        let deg_u = row[u as usize + 1] - row[u as usize];
        if higher_priority(deg_u, u, deg_v, v) && P::load_u32(minposs.at(u as usize)) <= candidate {
            blocked = true;
            break;
        }
    }

    if blocked {
        P::store_u32(minposs.at(v as usize), candidate);
        false
    } else {
        P::publish_u32(colors.at(v as usize), candidate);
        true
    }
}

/// Fallback candidate search for >128-color neighborhoods (O(d²), rare).
fn probe_candidate<P: NativePolicy>(
    col: &[u32],
    colors: &WordArr,
    begin: usize,
    end: usize,
    start: u32,
) -> u32 {
    let mut candidate = start;
    'outer: loop {
        for &u in &col[begin..end] {
            if P::load_u32(colors.at(u as usize)) == candidate {
                candidate += 1;
                continue 'outer;
            }
        }
        return candidate;
    }
}

/// Runs native ECL-GC on `threads` host threads; `seed` perturbs only the
/// schedule.
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> GcResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let n = g.num_vertices();
    let row = g.row_offsets();
    let col = g.col_indices();

    let colors = WordArr::new(n, 0);
    let minposs = WordArr::new(n, 0);
    let a = Frontier::new(n);
    let b = Frontier::new(n);

    let team = run_team(threads, seed, |ctx| {
        {
            let mut out = a.pusher();
            for v in ctx.my_block(n) {
                P::store_u32(colors.at(v), NO_COLOR);
                P::store_u32(minposs.at(v), 0);
                out.push(v as u32);
            }
        }
        ctx.barrier();

        let (mut cur, mut next) = (&a, &b);
        loop {
            {
                let mut out = next.pusher();
                while let Some(chunk) = cur.grab() {
                    for v in chunk {
                        if P::load_u32(colors.at(v as usize)) == NO_COLOR
                            && !try_color::<P>(row, col, &colors, &minposs, v)
                        {
                            out.push(v);
                        }
                    }
                }
            }
            ctx.barrier();
            if next.is_empty() {
                break;
            }
            if ctx.tid == 0 {
                cur.clear();
            }
            std::mem::swap(&mut cur, &mut next);
            ctx.barrier();
        }
    });

    let host_colors = colors.snapshot();
    let mut distinct = host_colors.clone();
    distinct.sort_unstable();
    distinct.dedup();
    let valid = verify_coloring(g, &host_colors);
    let mut digest = Digest::new();
    digest.push(valid as u64);
    GcResult {
        num_colors: distinct.len(),
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        digest: digest.finish(),
        colors: host_colors,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn both_policies_color_properly() {
        let g = gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 3);
        let b = run::<Baseline>(&g, 4, 1);
        let f = run::<RaceFree>(&g, 4, 2);
        assert!(verify_coloring(&g, &b.colors));
        assert!(verify_coloring(&g, &f.colors));
        assert!(f.num_colors <= 2 * b.num_colors + 2);
        assert!(b.num_colors <= 2 * f.num_colors + 2);
    }

    #[test]
    fn clique_needs_exactly_k_colors() {
        let mut bld = ecl_graph::CsrBuilder::new(6).symmetric(true);
        for i in 0..6u32 {
            for j in (i + 1)..6 {
                bld.add_edge(i, j);
            }
        }
        let g = bld.build();
        let r = run::<RaceFree>(&g, 4, 0);
        assert!(verify_coloring(&g, &r.colors));
        assert_eq!(r.num_colors, 6);
    }
}
