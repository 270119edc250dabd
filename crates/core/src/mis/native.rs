//! ECL-MIS on host threads: the identical priority-ordered decision rule,
//! driven round-by-round over a double-buffered undecided frontier instead
//! of the persistent-thread polling kernel.
//!
//! The `(priority, id)` total order makes the found set unique (see the
//! module docs on [`super::priority`]), so any schedule — racy baseline or
//! race-free — converges to the same digest as the simulator.

use crate::common::Digest;
use ecl_graph::Csr;
use ecl_native::{run_team, ByteArr, Frontier, NativePolicy};

use super::{priority, MisResult, IN, OUT};

/// Tries to decide vertex `v` (current priority byte `sv`); the host-thread
/// twin of the simulator kernel's `try_decide`. Returns `true` once `v` is
/// decided.
fn try_decide<P: NativePolicy>(
    row: &[u32],
    col: &[u32],
    statuses: &ByteArr,
    v: u32,
    sv: u8,
) -> bool {
    let (begin, end) = (row[v as usize] as usize, row[v as usize + 1] as usize);
    let mut highest = true;
    for &u in &col[begin..end] {
        let su = P::load_u8(statuses.at(u as usize));
        if su == IN {
            P::publish_u8(statuses.at(v as usize), OUT);
            return true;
        }
        if su >= 2 && (su, u) > (sv, v) {
            highest = false;
        }
    }
    if !highest {
        return false;
    }
    P::publish_u8(statuses.at(v as usize), IN);
    for &u in &col[begin..end] {
        let su = P::load_u8(statuses.at(u as usize));
        if su >= 2 {
            P::publish_u8(statuses.at(u as usize), OUT);
        }
    }
    true
}

/// Runs native ECL-MIS on `threads` host threads; `seed` perturbs only the
/// schedule.
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> MisResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let n = g.num_vertices();
    let row = g.row_offsets();
    let col = g.col_indices();

    let statuses = ByteArr::new(n, 0);
    let a = Frontier::new(n);
    let b = Frontier::new(n);

    let team = run_team(threads, seed, |ctx| {
        // Init: every vertex gets its priority byte and enters round 0.
        {
            let mut out = a.pusher();
            for v in ctx.my_block(n) {
                let deg = row[v + 1] - row[v];
                P::store_u8(statuses.at(v), priority(v as u32, deg));
                out.push(v as u32);
            }
        }
        ctx.barrier();

        // Rounds: drain the current undecided list, push survivors to the
        // next one; stop when a round decides everything left.
        let (mut cur, mut next) = (&a, &b);
        loop {
            {
                let mut out = next.pusher();
                while let Some(chunk) = cur.grab() {
                    for v in chunk {
                        let sv = P::load_u8(statuses.at(v as usize));
                        if sv >= 2 && !try_decide::<P>(row, col, &statuses, v, sv) {
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

    let host = statuses.snapshot();
    let in_set: Vec<bool> = host.iter().map(|&s| s == IN).collect();
    let mut digest = Digest::new();
    let mut set_size = 0;
    for (v, &inside) in in_set.iter().enumerate() {
        if inside {
            digest.push(v as u64);
            set_size += 1;
        }
    }
    MisResult {
        set_size,
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        digest: digest.finish(),
        in_set,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mis::verify_mis;
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn both_policies_find_the_priority_mis() {
        let g = gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 4);
        let b = run::<Baseline>(&g, 4, 1);
        let f = run::<RaceFree>(&g, 4, 2);
        assert!(verify_mis(&g, &b.in_set));
        assert!(verify_mis(&g, &f.in_set));
        assert_eq!(b.digest, f.digest);
    }

    #[test]
    fn edgeless_graph_selects_everything() {
        let g = ecl_graph::CsrBuilder::new(10).build();
        let r = run::<RaceFree>(&g, 3, 0);
        assert_eq!(r.set_size, 10);
    }
}
