//! Per-allocation access profiling — the data behind the paper's §VI-C
//! observation that "the execution frequency of the affected code section
//! plays an important role in determining the performance impact".
//!
//! An armed [`AccessProfiler`] counts how often each allocation is touched
//! with each access mode, and [`access_profile`] names the counts, so one
//! can see at a glance which shared arrays dominate a code's traffic (e.g.
//! CC's `label` array) and therefore how much a race-free conversion of
//! that array will cost.

use ecl_simt::mem::Memory;
use ecl_simt::{AccessEvent, AccessMode, AccessSink, Gpu, Space};
use std::collections::{BTreeMap, HashMap};

/// Access counts for one allocation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocationProfile {
    /// Plain loads + stores.
    pub plain: u64,
    /// Volatile loads + stores.
    pub volatile_accesses: u64,
    /// Atomic loads, stores, and RMWs.
    pub atomic: u64,
}

impl AllocationProfile {
    /// All accesses of any mode.
    pub fn total(&self) -> u64 {
        self.plain + self.volatile_accesses + self.atomic
    }

    /// The fraction of this allocation's accesses that are racy (non-atomic).
    pub fn racy_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            0.0
        } else {
            (self.plain + self.volatile_accesses) as f64 / total as f64
        }
    }
}

/// An [`AccessSink`] that counts global-memory accesses per allocation and
/// mode. Arm it with [`Gpu::observe`] before launching; [`access_profile`]
/// reads it.
#[derive(Debug, Default)]
pub struct AccessProfiler {
    /// Allocation base (`None` for an address in no allocation) → counts.
    by_base: HashMap<Option<u32>, AllocationProfile>,
}

impl AccessSink for AccessProfiler {
    fn launch(&mut self, _id: u32, _kernel: &str) {}

    fn access(&mut self, e: &AccessEvent, memory: &Memory) {
        if e.space != Space::Global {
            return;
        }
        let base = memory.allocation_of(e.addr).map(|(base, _)| base);
        let entry = self.by_base.entry(base).or_default();
        match e.mode {
            AccessMode::Plain => entry.plain += 1,
            AccessMode::Volatile => entry.volatile_accesses += 1,
            AccessMode::Atomic => entry.atomic += 1,
        }
    }
}

/// The armed profiler's counts per named allocation. Unnamed allocations
/// are grouped under their base address rendered as hex.
///
/// # Panics
///
/// Panics if no [`AccessProfiler`] was armed on the GPU before launching.
pub fn access_profile(gpu: &Gpu) -> BTreeMap<String, AllocationProfile> {
    let profiler = gpu.sink::<AccessProfiler>().expect(
        "profiling needs an armed profiler: call gpu.observe(AccessProfiler::default()) \
         before launching",
    );
    let mut out: BTreeMap<String, AllocationProfile> = BTreeMap::new();
    for (base, counts) in &profiler.by_base {
        let name = match base {
            Some(base) => gpu
                .memory()
                .allocation_name(*base)
                .map_or_else(|| format!("{base:#x}"), str::to_string),
            None => "<unknown>".to_string(),
        };
        let entry = out.entry(name).or_default();
        entry.plain += counts.plain;
        entry.volatile_accesses += counts.volatile_accesses;
        entry.atomic += counts.atomic;
    }
    out
}

/// Renders a profile as an aligned table, busiest allocation first.
pub fn format_profile(profile: &BTreeMap<String, AllocationProfile>) -> String {
    let mut rows: Vec<(&String, &AllocationProfile)> = profile.iter().collect();
    rows.sort_by_key(|(_, p)| std::cmp::Reverse(p.total()));
    let mut out = format!(
        "{:<16} {:>10} {:>10} {:>10} {:>8}\n",
        "allocation", "plain", "volatile", "atomic", "racy%"
    );
    for (name, p) in rows {
        out.push_str(&format!(
            "{:<16} {:>10} {:>10} {:>10} {:>7.1}%\n",
            name,
            p.plain,
            p.volatile_accesses,
            p.atomic,
            100.0 * p.racy_fraction()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ecl_simt::{ForEach, GpuConfig, LaunchConfig};

    #[test]
    fn profiles_by_allocation_and_mode() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.observe(AccessProfiler::default());
        let named = gpu.alloc_named::<u32>(64, "labels");
        let anon = gpu.alloc::<u32>(64);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("mix", 64, move |ctx, i| {
                let v = ctx.load(named.at(i as usize)); // plain
                ctx.atomic_store(named.at(i as usize), v + 1); // atomic
                ctx.store_volatile(anon.at(i as usize), v); // volatile
            }),
        );
        let profile = access_profile(&gpu);
        let labels = profile.get("labels").expect("named allocation profiled");
        assert_eq!(labels.plain, 64);
        assert_eq!(labels.atomic, 64);
        assert_eq!(labels.volatile_accesses, 0);
        assert!((labels.racy_fraction() - 0.5).abs() < 1e-12);
        // The anonymous buffer appears under its hex base.
        let anon_profile = profile
            .iter()
            .find(|(k, _)| k.starts_with("0x"))
            .expect("anon allocation profiled");
        assert_eq!(anon_profile.1.volatile_accesses, 64);

        let text = format_profile(&profile);
        assert!(text.contains("labels"));
        assert!(text.contains("50.0%"));
    }

    #[test]
    #[should_panic(expected = "armed profiler")]
    fn unarmed_profile_panics() {
        let gpu = Gpu::new(GpuConfig::test_tiny());
        let _ = access_profile(&gpu);
    }
}
