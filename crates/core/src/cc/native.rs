//! ECL-CC on host threads: the same union-find pipeline (init shortcut,
//! degree-dispatched hooking, flatten) with the heavy vertices' edge chunks
//! load-balanced through a native frontier, as the device kernels do
//! through their ticketed worklist.
//!
//! The connected-components partition of a graph is unique, so the native
//! result's canonical partition digest ([`partition_summary`]) matches the
//! simulator's for any thread count and interleaving — that is what
//! `tests/native_differential.rs` pins.

use crate::common::partition_summary;
use ecl_graph::Csr;
use ecl_native::{run_team, Frontier, NativePolicy, Tickets, WordArr};

use super::CcResult;

/// Degree above which a vertex's edges go through the frontier in
/// edge-range chunks (mirrors the simulator kernels' `HEAVY_DEGREE`).
const HEAVY_DEGREE: u32 = 32;
/// Edges per heavy frontier item.
const HEAVY_CHUNK: u32 = 128;

/// Follows parent links to the representative with intermediate pointer
/// jumping — the §VI-A hot spot, on host memory.
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
        // Path shortening: racy plain write in the baseline, relaxed atomic
        // in the conversion (monotone toward smaller ids either way).
        P::store_u32(parent.at(prev as usize), next);
        prev = cur;
        cur = next;
    }
}

/// Hooks the larger representative under the smaller with a CAS, exactly
/// once per union. Returns `true` if this call merged two sets.
#[inline]
pub(crate) fn hook<P: NativePolicy>(parent: &WordArr, a: u32, b: u32) -> bool {
    let mut ra = rep::<P>(parent, a);
    let mut rb = rep::<P>(parent, b);
    loop {
        if ra == rb {
            return false;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        if P::cas_u32(parent.at(hi as usize), hi, lo) == hi {
            return true;
        }
        ra = rep::<P>(parent, hi);
        rb = rep::<P>(parent, lo);
    }
}

/// Runs native ECL-CC on `threads` host threads. `seed` only perturbs the
/// schedule (block rotation), never the result.
pub fn run<P: NativePolicy>(g: &Csr, threads: usize, seed: u64) -> CcResult {
    assert!(g.num_vertices() > 0, "empty graph");
    let n = g.num_vertices();
    let row = g.row_offsets();
    let col = g.col_indices();

    let labels = WordArr::new(n, 0);
    let heavy_chunks = row
        .windows(2)
        .map(|w| w[1] - w[0])
        .filter(|&deg| deg > HEAVY_DEGREE)
        .map(|deg| deg.div_ceil(HEAVY_CHUNK) as usize)
        .sum();
    let heavy = Frontier::new(heavy_chunks);
    let flatten = Tickets::new(n, 1024);

    let team = run_team(threads, seed, |ctx| {
        // Init: label[v] = first neighbor smaller than v, else v.
        for v in ctx.my_block(n) {
            let (begin, end) = (row[v] as usize, row[v + 1] as usize);
            let mut label = v as u32;
            for &u in &col[begin..end] {
                if u < v as u32 {
                    label = u;
                    break;
                }
            }
            P::store_u32(labels.at(v), label);
        }
        ctx.barrier();

        // Light vertices hook directly; heavy ones push the first edge of
        // each edge-range chunk for the edge-parallel drain below.
        {
            let mut out = heavy.pusher();
            for v in ctx.my_block(n) {
                let (begin, end) = (row[v], row[v + 1]);
                if end - begin > HEAVY_DEGREE {
                    for first in (begin..end).step_by(HEAVY_CHUNK as usize) {
                        out.push(first);
                    }
                    continue;
                }
                for &u in &col[begin as usize..end as usize] {
                    if u < v as u32 {
                        hook::<P>(&labels, v as u32, u);
                    }
                }
            }
        }
        ctx.barrier();

        // Edge-parallel heavy drain. An item's vertex is the last one whose
        // edges start at or before it: zero-degree vertices share their
        // successor's row offset, so "last" is what skips them.
        while let Some(chunk) = heavy.grab() {
            for first in chunk {
                let v = row.partition_point(|&r| r <= first) - 1;
                let end = (first + HEAVY_CHUNK).min(row[v + 1]);
                for &u in &col[first as usize..end as usize] {
                    if u < v as u32 {
                        hook::<P>(&labels, v as u32, u);
                    }
                }
            }
        }
        ctx.barrier();

        // Flatten: every vertex records its final representative.
        while let Some(range) = flatten.grab() {
            for v in range {
                let r = rep::<P>(&labels, v as u32);
                P::store_u32(labels.at(v), r);
            }
        }
    });

    let host_labels = labels.snapshot();
    let (digest, num_components) = partition_summary(&host_labels);
    CcResult {
        digest,
        num_components,
        cycles: team.as_nanos() as u64,
        stats: Default::default(),
        labels: host_labels,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cc::{reference_components, verify_components};
    use ecl_graph::gen;
    use ecl_native::{Baseline, RaceFree};

    #[test]
    fn both_policies_find_the_partition() {
        let g = gen::rmat(512, 2048, 0.57, 0.19, 0.19, true, 3);
        let reference = reference_components(&g);
        for threads in [1, 4] {
            let b = run::<Baseline>(&g, threads, 1);
            let f = run::<RaceFree>(&g, threads, 2);
            assert!(verify_components(&g, &b.labels));
            assert!(verify_components(&g, &f.labels));
            assert_eq!(b.num_components, reference);
            assert_eq!(b.digest, f.digest);
        }
    }

    /// A heavy vertex whose neighbors all sit below it, flanked by
    /// zero-degree vertices that share its row offset: only the heavy
    /// drain can join the neighbors, and only if it recovers the hub (not
    /// an isolated vertex) from each chunk's first edge.
    #[test]
    fn heavy_vertex_between_isolated_vertices() {
        let mut b = ecl_graph::CsrBuilder::new(400).symmetric(true);
        for u in 0..300 {
            b.add_edge(350, u);
        }
        let g = b.build();
        let reference = reference_components(&g);
        for threads in [1, 4] {
            for r in [
                run::<Baseline>(&g, threads, 3),
                run::<RaceFree>(&g, threads, 5),
            ] {
                assert_eq!(r.num_components, reference, "{threads} threads");
                assert!(verify_components(&g, &r.labels));
            }
        }
    }

    #[test]
    fn hub_graph_exercises_heavy_path() {
        let n = 5_000;
        let mut b = ecl_graph::CsrBuilder::new(n).symmetric(true);
        for v in 1..n as u32 {
            b.add_edge(0, v);
        }
        let g = b.build();
        let r = run::<RaceFree>(&g, 8, 0);
        assert_eq!(r.num_components, 1);
        assert!(verify_components(&g, &r.labels));
    }
}
