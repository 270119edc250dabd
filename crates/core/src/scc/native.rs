//! ECL-SCC on host threads: the same max-ID propagation with the unsettled
//! vertices collected into a native frontier each outer round, so inner
//! propagation passes only touch live vertices.
//!
//! The SCC partition is a unique graph property, so the canonical partition
//! digest matches the simulator's for every thread count and interleaving.

use crate::common::partition_summary;
use ecl_graph::Csr;
use ecl_native::{run_team, Frontier, LongArr, NativePolicy, WordArr};

use super::SccResult;

/// Runs native ECL-SCC on `threads` host threads; `seed` perturbs only the
/// schedule.
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> SccResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let n = g.num_vertices();
    let row = g.row_offsets();
    let col = g.col_indices();

    // pairs[v]: (forward max-ID, backward max-ID) halves of a u64; IDs are
    // v+1 so 0 means "none". scc_ids[v]: 0 = unsettled, else pivot id + 1.
    let pairs = LongArr::new(n, 0);
    let scc_ids = WordArr::new(n, 0);
    let frontier = Frontier::new(n);
    let repeat = WordArr::new(1, 0);
    let settled_ctr = WordArr::new(1, 0);

    let team = run_team(threads, seed, |ctx| {
        let mut unsettled = n;
        while unsettled > 0 {
            if ctx.tid == 0 {
                frontier.clear();
                P::store_u32(settled_ctr.at(0), 0);
                P::store_u32(repeat.at(0), 0);
            }
            ctx.barrier();

            // Collect the unsettled vertices and re-seed their pairs; the
            // frontier is then read-only across all inner passes.
            {
                let mut out = frontier.pusher();
                for v in ctx.my_block(n) {
                    if P::load_u32(scc_ids.at(v)) == 0 {
                        let id = (v + 1) as u64;
                        P::store_u64(pairs.at(v), (id << 32) | id);
                        out.push(v as u32);
                    }
                }
            }
            ctx.barrier();
            let flen = frontier.len();

            // Propagate max IDs forward and backward to a fixed point. The
            // monotone max updates are exactly where the baseline races.
            loop {
                for i in ctx.my_block(flen) {
                    let u = frontier.get(i) as usize;
                    let (begin, end) = (row[u] as usize, row[u + 1] as usize);
                    for &v in &col[begin..end] {
                        if P::load_u32(scc_ids.at(v as usize)) != 0 {
                            continue;
                        }
                        // Forward: the max ID reaching u also reaches v.
                        let fw = P::read_pair_first(pairs.at(u));
                        if P::max_pair_first(pairs.at(v as usize), fw) {
                            P::raise_flag(repeat.at(0));
                        }
                        // Backward: whatever v reaches, u reaches too.
                        let bw = P::read_pair_second(pairs.at(v as usize));
                        if P::max_pair_second(pairs.at(u), bw) {
                            P::raise_flag(repeat.at(0));
                        }
                    }
                }
                ctx.barrier();
                let again = P::load_u32(repeat.at(0)) != 0;
                // Read-before-reset: the whole team must agree on `again`.
                ctx.barrier();
                if !again {
                    break;
                }
                if ctx.tid == 0 {
                    P::store_u32(repeat.at(0), 0);
                }
                ctx.barrier();
            }

            // Settle: agreeing forward/backward maxima fix the pivot.
            for i in ctx.my_block(flen) {
                let v = frontier.get(i) as usize;
                let fw = P::read_pair_first(pairs.at(v));
                let bw = P::read_pair_second(pairs.at(v));
                if fw == bw {
                    P::publish_u32(scc_ids.at(v), fw);
                    P::fetch_add_u32(settled_ctr.at(0), 1);
                }
            }
            ctx.barrier();
            let settled = P::load_u32(settled_ctr.at(0)) as usize;
            assert!(settled > 0, "SCC made no progress (algorithm bug)");
            unsettled -= settled;
            // Everyone has read the round's counters before they reset.
            ctx.barrier();
        }
    });

    let host_ids = scc_ids.snapshot();
    let (digest, num_sccs) = partition_summary(&host_ids);
    SccResult {
        digest,
        num_sccs,
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        scc_ids: host_ids,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scc::{reference_sccs, verify_sccs};
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn both_policies_find_the_partition() {
        let g = gen::pref_attach_directed(300, 4, 0.05, 3);
        let b = run::<Baseline>(&g, 4, 1);
        let f = run::<RaceFree>(&g, 4, 2);
        assert!(verify_sccs(&g, &b.scc_ids));
        assert!(verify_sccs(&g, &f.scc_ids));
        assert_eq!(b.digest, f.digest);
        assert_eq!(b.num_sccs, reference_sccs(&g).1);
    }

    #[test]
    fn dag_has_singleton_sccs() {
        let mut bld = ecl_graph::CsrBuilder::new(8);
        for v in 0..7u32 {
            bld.add_edge(v, v + 1);
        }
        let g = bld.build();
        let r = run::<RaceFree>(&g, 3, 0);
        assert_eq!(r.num_sccs, 8);
        assert!(verify_sccs(&g, &r.scc_ids));
    }
}
