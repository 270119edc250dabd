//! The ECL-GC kernels: init and the shortcut-enabled coloring rounds.

use super::NO_COLOR;
use crate::common::DeviceGraph;
use crate::primitives::AccessPolicy;
use ecl_simt::{
    Ctx, DeviceBuffer, ForEach, FullHooks, Gpu, Hooks, LaunchConfig, NoHooks, StoreVisibility,
};

/// Priority order: largest degree first, vertex id breaking ties.
#[inline]
fn higher_priority(deg_u: u32, u: u32, deg_v: u32, v: u32) -> bool {
    (deg_u, u) > (deg_v, v)
}

/// Launches init + coloring rounds until every vertex is colored; returns
/// the device color array.
///
/// `P` is the policy for the polled color array, `Q` the policy for the
/// shortcut bookkeeping (`minposs`): the baseline reads colors through
/// `volatile` pointers but keeps the shortcut state in plain accesses,
/// which is exactly the split the race-free conversion removes.
///
/// `shortcuts == false` disables the ECL-GC shortcuts — the ablation that
/// isolates what the shortcutting optimization buys (the ECL-GC paper's
/// 2.9x parallelism claim).
pub(super) fn run_on_with<P: AccessPolicy, Q: AccessPolicy>(
    gpu: &mut Gpu,
    dg: &DeviceGraph,
    visibility: StoreVisibility,
    shortcuts: bool,
) -> DeviceBuffer<u32> {
    if gpu.fast_path_eligible() {
        run_on_hooks::<P, Q, NoHooks>(gpu, dg, visibility, shortcuts)
    } else {
        run_on_hooks::<P, Q, FullHooks>(gpu, dg, visibility, shortcuts)
    }
}

fn run_on_hooks<P: AccessPolicy, Q: AccessPolicy, H: Hooks>(
    gpu: &mut Gpu,
    dg: &DeviceGraph,
    visibility: StoreVisibility,
    shortcuts: bool,
) -> DeviceBuffer<u32> {
    let n = dg.n;
    let colors = gpu.alloc_named::<u32>(n as usize, "color");
    let minposs = gpu.alloc_named::<u32>(n as usize, "minposs");
    let remaining = gpu.alloc_named::<u32>(1, "remaining");
    let g = *dg;

    gpu.launch_with::<H, _>(
        LaunchConfig::for_items(n).with_visibility(visibility),
        ForEach::with_hooks::<H>("gc_init", n, move |ctx, v| {
            P::write_u32(ctx, colors.at(v as usize), NO_COLOR);
            Q::write_u32(ctx, minposs.at(v as usize), 0);
        }),
    );

    loop {
        gpu.write_scalar(&remaining, 0, 0u32);
        gpu.launch_with::<H, _>(
            LaunchConfig::for_items(n).with_visibility(visibility),
            ForEach::with_hooks::<H>("gc_round", n, move |ctx, v| {
                round_body::<P, Q, H>(ctx, &g, colors, minposs, remaining, v, shortcuts);
            })
            .with_chunk(4),
        );
        if gpu.read_scalar(&remaining, 0) == 0 {
            break;
        }
    }

    colors
}

/// One vertex's work in a coloring round.
#[allow(clippy::too_many_arguments)]
fn round_body<P: AccessPolicy, Q: AccessPolicy, H: Hooks>(
    ctx: &mut Ctx<'_, H>,
    g: &DeviceGraph,
    colors: DeviceBuffer<u32>,
    minposs: DeviceBuffer<u32>,
    remaining: DeviceBuffer<u32>,
    v: u32,
    shortcuts: bool,
) {
    if P::read_u32(ctx, colors.at(v as usize)) != NO_COLOR {
        return;
    }
    let begin = ctx.load(g.row_offsets.at(v as usize));
    let end = ctx.load(g.row_offsets.at(v as usize + 1));
    let deg_v = end - begin;

    // Candidate color: the smallest one no already-colored neighbor uses.
    // A 128-bit mask covers almost every vertex; the rare overflow falls
    // back to per-candidate probing.
    let mut used: u128 = 0;
    let mut overflow = false;
    for e in begin..end {
        let u = ctx.load(g.col_indices.at(e as usize));
        let cu = P::read_u32(ctx, colors.at(u as usize));
        if cu != NO_COLOR {
            if cu < 128 {
                used |= 1u128 << cu;
            } else {
                overflow = true;
            }
        }
    }
    ctx.compute(deg_v.max(1));
    let mut candidate = (!used).trailing_zeros();
    if candidate == 128 || overflow {
        candidate = probe_candidate::<P, H>(ctx, g, colors, v, begin, end, candidate);
    }

    // Shortcut check: a higher-priority uncolored neighbor blocks `candidate`
    // only while its own minimum possible color does not already exceed it
    // (minposs is monotone, so a stale read is a safe lower bound).
    let mut blocked = false;
    for e in begin..end {
        let u = ctx.load(g.col_indices.at(e as usize));
        let cu = P::read_u32(ctx, colors.at(u as usize));
        if cu != NO_COLOR {
            if cu == candidate {
                // A neighbor took our candidate between the mask pass and
                // this read: the candidate is stale, recompute next round.
                // Together with the minposs bound this closes the only
                // conflicting-write window — a neighbor that has not yet
                // published `candidate` still has minposs <= candidate, so
                // the uncolored branch below blocks us instead.
                blocked = true;
                break;
            }
            continue;
        }
        let deg_u =
            ctx.load(g.row_offsets.at(u as usize + 1)) - ctx.load(g.row_offsets.at(u as usize));
        if higher_priority(deg_u, u, deg_v, v)
            && (!shortcuts || Q::read_u32(ctx, minposs.at(u as usize)) <= candidate)
        {
            // Without shortcuts this is pure Jones-Plassmann: any uncolored
            // higher-priority neighbor blocks, regardless of its minposs.
            blocked = true;
            break;
        }
    }

    if blocked {
        if shortcuts {
            // Publish our lower bound so lower-priority neighbors can shortcut.
            Q::write_u32(ctx, minposs.at(v as usize), candidate);
        }
        ctx.atomic_add_u32(remaining.at(0), 1);
    } else {
        P::write_u32(ctx, colors.at(v as usize), candidate);
    }
}

/// Fallback candidate search for vertices whose neighborhood uses more than
/// 128 colors: probes candidates one by one (O(d²), vanishingly rare).
fn probe_candidate<P: AccessPolicy, H: Hooks>(
    ctx: &mut Ctx<'_, H>,
    g: &DeviceGraph,
    colors: DeviceBuffer<u32>,
    _v: u32,
    begin: u32,
    end: u32,
    start: u32,
) -> u32 {
    let mut candidate = start;
    'outer: loop {
        for e in begin..end {
            let u = ctx.load(g.col_indices.at(e as usize));
            if P::read_u32(ctx, colors.at(u as usize)) == candidate {
                candidate += 1;
                continue 'outer;
            }
        }
        return candidate;
    }
}
