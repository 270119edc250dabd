//! ECL-MST on host threads: data-driven Borůvka where the still-active
//! cross-component edges live in a double-buffered frontier (instead of
//! re-scanning every edge each round) and the per-component connect step is
//! ticket-dispatched.
//!
//! Weights pack above the edge index, so every key is unique and the found
//! spanning forest — hence the `(weight, count)` digest — is identical to
//! the simulator's for every thread count and interleaving.

use crate::common::Digest;
use ecl_graph::Csr;
use ecl_native::{run_team, ByteArr, Frontier, LongArr, NativePolicy, Tickets, WordArr};

use super::MstResult;

/// Packs `(weight, edge)` into the `u64` key minimized per component.
#[inline]
fn pack(weight: u32, edge: u32) -> u64 {
    ((weight as u64) << 26) | edge as u64
}

/// Extracts the edge index from a packed key.
#[inline]
fn unpack_edge(key: u64) -> u32 {
    (key & ((1 << 26) - 1)) as u32
}

/// Follows parent links with intermediate pointer jumping (the same
/// traversal as the CC native kernel; links only decrease).
#[inline]
fn rep<P: NativePolicy>(parent: &WordArr, v: u32) -> u32 {
    let mut cur = P::load_u32(parent.at(v as usize));
    if cur == v {
        return v;
    }
    let mut prev = v;
    loop {
        let next = P::load_u32(parent.at(cur as usize));
        if next == cur {
            return cur;
        }
        P::store_u32(parent.at(prev as usize), next);
        prev = cur;
        cur = next;
    }
}

/// Runs native ECL-MST on `threads` host threads; `seed` perturbs only the
/// schedule.
///
/// # Panics
///
/// Panics if the graph has no vertices or carries no edge weights.
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> MstResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let weights = g
        .weights()
        .expect("MST needs edge weights: call Csr::with_random_weights first");
    let n = g.num_vertices();
    let m = g.num_edges();
    assert!(m < (1 << 26), "edge index overflows the packed key");
    let col = g.col_indices();
    let edge_src: Vec<u32> = g.edges().map(|(s, _)| s).collect();

    let parent = WordArr::from_fn(n, |v| v as u32);
    let best = LongArr::new(n, u64::MAX);
    let in_mst = ByteArr::new(m.max(1), 0);
    let changed = WordArr::new(1, 0);
    let connect = Tickets::new(n, 512);
    // Only each undirected edge's u < v half is ever active, so that count
    // bounds every round (sizing by `m` would double the buffers).
    let halves = (0..m).filter(|&e| edge_src[e] < col[e]).count();
    let a = Frontier::new(halves);
    let b = Frontier::new(halves);

    let team = run_team(threads, seed, |ctx| {
        // Seed the active-edge list with each undirected edge's u < v half.
        {
            let mut out = a.pusher();
            for e in ctx.my_block(m) {
                if edge_src[e] < col[e] {
                    out.push(e as u32);
                }
            }
        }
        ctx.barrier();

        let (mut cur, mut next) = (&a, &b);
        loop {
            // Part 1: every still-cross-component edge bids for both
            // endpoint components' best slots; settled edges drop out.
            {
                let mut out = next.pusher();
                while let Some(chunk) = cur.grab() {
                    for e in chunk {
                        let u = edge_src[e as usize];
                        let v = col[e as usize];
                        let ru = rep::<P>(&parent, u);
                        let rv = rep::<P>(&parent, v);
                        if ru == rv {
                            continue;
                        }
                        let key = pack(weights[e as usize], e);
                        P::fetch_min_u64(best.at(ru as usize), key);
                        P::fetch_min_u64(best.at(rv as usize), key);
                        out.push(e);
                    }
                }
            }
            ctx.barrier();

            // Part 2: each component adopts its best edge and merges.
            while let Some(range) = connect.grab() {
                for v in range {
                    let key = P::load_u64(best.at(v));
                    if key == u64::MAX {
                        continue;
                    }
                    P::store_u64(best.at(v), u64::MAX);
                    let e = unpack_edge(key);
                    let ea = edge_src[e as usize];
                    let eb = col[e as usize];
                    loop {
                        let ra = rep::<P>(&parent, ea);
                        let rb = rep::<P>(&parent, eb);
                        if ra == rb {
                            break;
                        }
                        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
                        if P::cas_u32(parent.at(hi as usize), hi, lo) == hi {
                            // This call performed the merge: the edge joins
                            // the forest exactly once, so no cycle can form.
                            P::publish_u8(in_mst.at(e as usize), 1);
                            P::raise_flag(changed.at(0));
                            break;
                        }
                    }
                }
            }
            ctx.barrier();

            let done = P::load_u32(changed.at(0)) == 0;
            // Everyone must read `changed` before thread 0 resets it, or the
            // team could split on the break decision and deadlock.
            ctx.barrier();
            if done {
                break;
            }
            if ctx.tid == 0 {
                P::store_u32(changed.at(0), 0);
                connect.reset();
                cur.clear();
            }
            std::mem::swap(&mut cur, &mut next);
            ctx.barrier();
        }
    });

    let host_flags = in_mst.snapshot();
    let in_mst_vec: Vec<bool> = host_flags[..m].iter().map(|&f| f != 0).collect();
    let mut total_weight = 0u64;
    let mut num_edges = 0usize;
    for (e, &inside) in in_mst_vec.iter().enumerate() {
        if inside {
            total_weight += weights[e] as u64;
            num_edges += 1;
        }
    }
    let mut digest = Digest::new();
    digest.push(total_weight);
    digest.push(num_edges as u64);
    MstResult {
        total_weight,
        num_edges,
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        digest: digest.finish(),
        in_mst: in_mst_vec,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mst::{reference_mst_weight, verify_mst};
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn both_policies_find_the_forest() {
        let g = gen::rmat(256, 1024, 0.57, 0.19, 0.19, true, 5).with_random_weights(1000, 7);
        let reference = reference_mst_weight(&g);
        let b = run::<Baseline>(&g, 4, 1);
        let f = run::<RaceFree>(&g, 4, 2);
        assert!(verify_mst(&g, &b.in_mst));
        assert!(verify_mst(&g, &f.in_mst));
        assert_eq!(b.total_weight, reference);
        assert_eq!(b.digest, f.digest);
    }

    #[test]
    fn disconnected_graph_yields_a_forest() {
        let mut bld = ecl_graph::CsrBuilder::new(6).symmetric(true);
        bld.add_edge(0, 1)
            .add_edge(1, 2)
            .add_edge(3, 4)
            .add_edge(4, 5);
        let g = bld.build().with_random_weights(10, 1);
        let r = run::<RaceFree>(&g, 3, 0);
        assert_eq!(r.num_edges, 4);
        assert!(verify_mst(&g, &r.in_mst));
    }
}
