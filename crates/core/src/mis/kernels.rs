//! The ECL-MIS kernels: priority init and the asynchronous compute kernel.

use super::{priority, IN, OUT};
use crate::common::DeviceGraph;
use crate::primitives::AccessPolicy;
use ecl_simt::{
    Ctx, DeviceBuffer, ForEach, FullHooks, Gpu, Hooks, Kernel, LaunchConfig, NoHooks, Step,
    StoreVisibility, ThreadInfo,
};
use std::marker::PhantomData;

/// Launches init + compute; returns the device status array.
///
/// Dispatches to the monomorphized fast path when no hooks are armed.
pub(super) fn run_on<P: AccessPolicy>(
    gpu: &mut Gpu,
    dg: &DeviceGraph,
    visibility: StoreVisibility,
) -> DeviceBuffer<u8> {
    if gpu.fast_path_eligible() {
        run_on_hooks::<P, NoHooks>(gpu, dg, visibility)
    } else {
        run_on_hooks::<P, FullHooks>(gpu, dg, visibility)
    }
}

fn run_on_hooks<P: AccessPolicy, H: Hooks>(
    gpu: &mut Gpu,
    dg: &DeviceGraph,
    visibility: StoreVisibility,
) -> DeviceBuffer<u8> {
    let n = dg.n;
    // Pad to a multiple of 4 so the race-free variant's int-wide accesses
    // (Fig. 3) stay in bounds.
    let statuses = gpu.alloc_named::<u8>(((n as usize) + 3) & !3, "node_stat");
    let g = *dg;

    gpu.launch_with::<H, _>(
        LaunchConfig::for_items(n).with_visibility(visibility),
        ForEach::with_hooks::<H>("mis_init", n, move |ctx, v| {
            let begin = ctx.load(g.row_offsets.at(v as usize));
            let end = ctx.load(g.row_offsets.at(v as usize + 1));
            ctx.compute(4);
            P::write_byte(ctx, statuses.as_ptr(), v, priority(v, end - begin));
        }),
    );

    // ECL-MIS runs persistent threads: each owns a grid-stride slice of
    // vertices and keeps polling until all of them are decided. Sizing the
    // grid well below one-thread-per-vertex keeps threads alive across
    // rounds, which is where the compiler's deferred status writes delay
    // the baseline.
    let compute_launch = LaunchConfig {
        grid_blocks: n.div_ceil(256 * 4).clamp(1, 96),
        block_threads: 256,
        store_visibility: visibility,
        shared_bytes: 0,
        exact_geometry: false,
    };
    gpu.launch_with::<H, _>(
        compute_launch,
        MisComputeKernel::<P> {
            g,
            statuses,
            n,
            _policy: PhantomData,
        },
    );

    statuses
}

/// The asynchronous compute kernel: each thread owns a grid-stride slice of
/// vertices and keeps polling until every owned vertex is decided — the
/// paper's "threads repeatedly poll neighbors and eventually update a
/// vertex" structure.
struct MisComputeKernel<P> {
    g: DeviceGraph,
    statuses: DeviceBuffer<u8>,
    n: u32,
    _policy: PhantomData<P>,
}

impl<P: AccessPolicy, H: Hooks> Kernel<H> for MisComputeKernel<P> {
    /// The thread's starting vertex (its grid-stride identity).
    type State = u32;

    fn name(&self) -> &str {
        "mis_compute"
    }

    fn init(&self, info: ThreadInfo) -> u32 {
        info.global_id
    }

    fn step(&self, first: &mut u32, ctx: &mut Ctx<'_, H>) -> Step {
        let stride = ctx.num_threads();
        let mut undecided_left = false;
        let mut v = *first;
        while v < self.n {
            let s = P::read_byte(ctx, self.statuses.as_ptr(), v);
            if s >= 2 && !self.try_decide(ctx, v, s) {
                undecided_left = true;
            }
            v += stride;
        }
        if undecided_left {
            // Spin: poll again after the other threads have run.
            Step::Yield
        } else {
            Step::Done
        }
    }
}

impl<P: AccessPolicy> MisComputeKernel<P> {
    /// Tries to decide vertex `v` (current priority byte `sv`). Returns
    /// `true` if the vertex is now decided.
    fn try_decide<H: Hooks>(&self, ctx: &mut Ctx<'_, H>, v: u32, sv: u8) -> bool {
        let begin = ctx.load(self.g.row_offsets.at(v as usize));
        let end = ctx.load(self.g.row_offsets.at(v as usize + 1));
        let mut highest = true;
        for e in begin..end {
            let u = ctx.load(self.g.col_indices.at(e as usize));
            let su = P::read_byte(ctx, self.statuses.as_ptr(), u);
            if su == IN {
                // An IN neighbor excludes v immediately.
                P::write_byte(ctx, self.statuses.as_ptr(), v, OUT);
                return true;
            }
            if su >= 2 && (su, u) > (sv, v) {
                highest = false;
            }
        }
        if !highest {
            return false;
        }
        // v beats all undecided neighbors: it joins the set and excludes its
        // neighbors — the shared byte writes at the heart of the races.
        P::write_byte(ctx, self.statuses.as_ptr(), v, IN);
        for e in begin..end {
            let u = ctx.load(self.g.col_indices.at(e as usize));
            let su = P::read_byte(ctx, self.statuses.as_ptr(), u);
            if su >= 2 {
                P::write_byte(ctx, self.statuses.as_ptr(), u, OUT);
            }
        }
        true
    }
}
