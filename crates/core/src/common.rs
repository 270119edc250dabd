//! Shared host-side plumbing: uploading CSR graphs to the device and hashing
//! solutions for cross-variant comparison.

use crate::primitives::AccessPolicy;
use ecl_graph::Csr;
use ecl_simt::{Ctx, DeviceBuffer, FaultPlan, Gpu, GpuConfig, Hooks};

/// Simulator-level options threaded through an algorithm run: the watchdog
/// budget and an optional fault-injection plan. `Default` is a plain run —
/// no watchdog override, no faults — so existing call sites are unaffected.
#[derive(Debug, Clone, Default)]
pub struct SimOptions {
    /// Per-launch watchdog budget in cycles; `None` keeps the GPU
    /// configuration's default.
    pub watchdog: Option<u64>,
    /// Seeded fault plan to arm before the first launch.
    pub fault: Option<FaultPlan>,
    /// Host wall-clock deadline for the whole run: any launch still running
    /// when it passes fails with [`ecl_simt::SimError::DeadlineExceeded`].
    /// Isolated sweep workers derive this from their cell's wall-clock
    /// budget; it never perturbs runs that finish in time.
    pub deadline: Option<std::time::Instant>,
    /// Per-(kernel, buffer) access-mode table for runs under the
    /// [`crate::primitives::IrDriven`] policy: installed on the device before
    /// any launch so every policy-mediated access resolves its mode from the
    /// synthesized kernel IR instead of a compile-time policy.
    pub mode_table: Option<ecl_simt::ModeTable>,
}

impl SimOptions {
    /// Builds the device every algorithm run starts from: configured,
    /// seeded, and with these options applied.
    pub fn make_gpu(&self, cfg: &GpuConfig, seed: u64) -> Gpu {
        let mut gpu = Gpu::new(cfg.clone());
        gpu.set_seed(seed);
        if let Some(budget) = self.watchdog {
            gpu.set_watchdog(Some(budget));
        }
        if let Some(deadline) = self.deadline {
            gpu.set_deadline(Some(deadline));
        }
        if let Some(plan) = &self.fault {
            let mut plan = plan.clone();
            // Transient faults are i.i.d. across reruns: mixing the run seed
            // into the plan seed gives a retry a fresh fault schedule, not a
            // replay of the one that just corrupted it. Still deterministic
            // for a fixed (plan seed, run seed) pair.
            plan.seed ^= seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            gpu.set_fault_plan(plan);
        }
        if let Some(table) = &self.mode_table {
            gpu.install_mode_table(table.clone());
        }
        gpu
    }
}

/// A CSR graph resident in simulated device memory.
#[derive(Debug, Clone, Copy)]
pub struct DeviceGraph {
    /// Number of vertices.
    pub n: u32,
    /// Number of stored (directed) edges.
    pub m: u32,
    /// Row offsets (`n + 1` entries).
    pub row_offsets: DeviceBuffer<u32>,
    /// Column indices (`m` entries).
    pub col_indices: DeviceBuffer<u32>,
    /// Edge weights (`m` entries), when the graph is weighted.
    pub weights: Option<DeviceBuffer<u32>>,
}

impl DeviceGraph {
    /// Copies a graph into device memory.
    pub fn upload(gpu: &mut Gpu, g: &Csr) -> DeviceGraph {
        let row_offsets = gpu.alloc_named::<u32>(g.num_vertices() + 1, "row_offsets");
        gpu.upload(&row_offsets, g.row_offsets());
        let col_indices = gpu.alloc_named::<u32>(g.num_edges().max(1), "col_indices");
        gpu.upload(&col_indices, g.col_indices());
        let weights = g.weights().map(|w| {
            let buf = gpu.alloc_named::<u32>(w.len().max(1), "weights");
            gpu.upload(&buf, w);
            buf
        });
        DeviceGraph {
            n: g.num_vertices() as u32,
            m: g.num_edges() as u32,
            row_offsets,
            col_indices,
            weights,
        }
    }
}

/// Follows parent pointers to the set representative with *intermediate
/// pointer jumping*: every hop shortens the path behind it by one link, the
/// technique ECL-CC and ECL-MST share (and the §VI-A hot spot whose racy
/// plain accesses dominate the baseline CC's performance).
///
/// Parent links always point to vertices with smaller ids, so concurrent
/// (even lost) shortening writes keep the structure acyclic.
#[inline]
pub fn union_find_rep<P: AccessPolicy, H: Hooks>(
    ctx: &mut Ctx<'_, H>,
    parent: DeviceBuffer<u32>,
    v: u32,
) -> u32 {
    let mut cur = P::read_u32(ctx, parent.at(v as usize));
    if cur == v {
        return v;
    }
    let mut prev = v;
    loop {
        let next = P::read_u32(ctx, parent.at(cur as usize));
        if next == cur {
            return cur;
        }
        // Path shortening: racy plain write in the baseline, atomic in the
        // race-free conversion.
        P::write_u32(ctx, parent.at(prev as usize), next);
        prev = cur;
        cur = next;
    }
}

/// Hooks the tree rooted at the larger of the two representatives under the
/// smaller via `atomicCAS`, retrying until the two inputs are connected.
/// Returns `true` if this call performed the union, `false` if the two
/// vertices were already connected.
///
/// Both the baseline and race-free ECL codes perform the hook itself with
/// `atomicCAS` — the races are in the reads around it.
#[inline]
pub fn union_find_hook<P: AccessPolicy, H: Hooks>(
    ctx: &mut Ctx<'_, H>,
    parent: DeviceBuffer<u32>,
    a: u32,
    b: u32,
) -> bool {
    let mut ra = union_find_rep::<P, H>(ctx, parent, a);
    let mut rb = union_find_rep::<P, H>(ctx, parent, b);
    loop {
        if ra == rb {
            return false;
        }
        let (hi, lo) = if ra > rb { (ra, rb) } else { (rb, ra) };
        if ctx.atomic_cas_u32(parent.at(hi as usize), hi, lo) == hi {
            return true;
        }
        // The root moved under us; chase the new representatives.
        ra = union_find_rep::<P, H>(ctx, parent, hi);
        rb = union_find_rep::<P, H>(ctx, parent, lo);
    }
}

/// FNV-1a over a `u64` stream — solution digests that are stable across
/// variants and platforms.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    /// Creates a fresh digest.
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes one value into the digest.
    pub fn push(&mut self, v: u64) {
        let mut h = self.0;
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    /// The digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Digest {
    fn default() -> Self {
        Self::new()
    }
}

/// Canonicalizes a partition (component labels) so two labelings that induce
/// the same partition hash identically: each vertex's label is replaced by
/// the smallest vertex id in its group.
///
/// Labels no larger than `labels.len()` — every code's output: CC vertex
/// ids, SCC pivot ids + 1, Tarjan vertex ids — index a dense
/// first-occurrence table; any other labeling goes through a map.
pub fn canonical_partition(labels: &[u32]) -> Vec<u32> {
    if labels.iter().all(|&l| l as usize <= labels.len()) {
        let mut first = vec![u32::MAX; labels.len() + 1];
        for (v, &l) in labels.iter().enumerate() {
            if first[l as usize] == u32::MAX {
                first[l as usize] = v as u32;
            }
        }
        return labels.iter().map(|&l| first[l as usize]).collect();
    }
    let mut first = std::collections::HashMap::new();
    for (v, &l) in labels.iter().enumerate() {
        first.entry(l).or_insert(v as u32);
    }
    labels.iter().map(|l| first[l]).collect()
}

/// Summarizes a partition: the digest of its canonical form and its number
/// of groups (the vertices that are their own group's smallest id).
pub fn partition_summary(labels: &[u32]) -> (u64, usize) {
    let mut d = Digest::new();
    let mut groups = 0;
    for (v, c) in canonical_partition(labels).into_iter().enumerate() {
        d.push(c as u64);
        groups += (c == v as u32) as usize;
    }
    (d.finish(), groups)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::GpuConfig;

    #[test]
    fn upload_roundtrips_structure() {
        let g = ecl_graph::gen::grid2d_torus(4, 4).with_random_weights(100, 1);
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let dg = DeviceGraph::upload(&mut gpu, &g);
        assert_eq!(dg.n, 16);
        assert_eq!(dg.m as usize, g.num_edges());
        assert_eq!(gpu.download(&dg.row_offsets), g.row_offsets());
        assert_eq!(gpu.download(&dg.col_indices), g.col_indices());
        assert_eq!(
            gpu.download(&dg.weights.unwrap()),
            g.weights().unwrap().to_vec()
        );
    }

    #[test]
    fn partitions_hash_by_structure_not_labels() {
        // Same partition, different label values.
        let a = [7, 7, 9, 9, 7];
        let b = [1, 1, 2, 2, 1];
        let c = [1, 1, 2, 1, 1];
        assert_eq!(partition_summary(&a), partition_summary(&b));
        assert_ne!(partition_summary(&a).0, partition_summary(&c).0);
        assert_eq!(partition_summary(&a).1, 2);
        assert_eq!(partition_summary(&c).1, 2);
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::new();
        a.push(1);
        a.push(2);
        let mut b = Digest::new();
        b.push(2);
        b.push(1);
        assert_ne!(a.finish(), b.finish());
    }
}
