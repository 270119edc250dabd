//! The host side: device construction, memory management, kernel launches,
//! and timing/profiling queries — the simulator's `cudaMalloc`/`cudaMemcpy`/
//! `<<<grid, block>>>` surface.

use crate::config::GpuConfig;
use crate::contract::{KernelContract, SanitizerState};
use crate::error::{self, catch_sim, SimError};
use crate::exec::{run_kernel, FullHooks, Hooks, Kernel, LaunchBuffers, LaunchConfig};
use crate::fault::{FaultPlan, FaultReport, FaultState};
use crate::ir::ModeTable;
use crate::mem::{DeviceBuffer, DeviceValue, MemSystem, Memory};
use crate::metrics::{KernelStats, RunStats};
use crate::sink::AccessSink;
use std::any::Any;

/// A simulated GPU: configuration, device memory, cache hierarchy, and the
/// accumulated launch history.
///
/// # Example
///
/// ```
/// use ecl_simt::{ForEach, Gpu, GpuConfig, LaunchConfig};
///
/// let mut gpu = Gpu::new(GpuConfig::rtx2070_super());
/// let data = gpu.alloc::<u32>(256);
/// gpu.upload(&data, &(0..256).collect::<Vec<u32>>());
/// let sum = gpu.alloc::<u32>(1);
/// gpu.launch(
///     LaunchConfig::for_items(256),
///     ForEach::new("sum", 256, move |ctx, i| {
///         let v = ctx.load(data.at(i as usize));
///         ctx.atomic_add_u32(sum.at(0), v);
///     }),
/// );
/// assert_eq!(gpu.download(&sum)[0], 255 * 256 / 2);
/// ```
pub struct Gpu {
    config: GpuConfig,
    memory: Memory,
    msys: MemSystem,
    /// The scheduler's per-launch vectors, kept across launches.
    buffers: LaunchBuffers,
    sinks: Vec<Box<dyn AccessSink>>,
    seed: u64,
    watchdog: Option<u64>,
    deadline: Option<std::time::Instant>,
    fault: Option<FaultState>,
    sanitizer: Option<SanitizerState>,
    mode_table: Option<ModeTable>,
    launches: RunStats,
    /// The id of the next launch. Failed launches are not recorded in
    /// `launches` but still use up an id, so every launch a sink sees on
    /// this device has its own.
    next_launch: u32,
    total_cycles: u64,
}

impl std::fmt::Debug for Gpu {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gpu")
            .field("config", &self.config.name)
            .field("launches", &self.launches.num_launches())
            .field("total_cycles", &self.total_cycles)
            .finish_non_exhaustive()
    }
}

impl Gpu {
    /// Creates a device from a configuration.
    pub fn new(config: GpuConfig) -> Self {
        let msys = MemSystem::new(&config);
        let watchdog = config.watchdog_cycles;
        Gpu {
            config,
            memory: Memory::new(),
            msys,
            buffers: LaunchBuffers::default(),
            sinks: Vec::new(),
            seed: 0,
            watchdog,
            deadline: None,
            fault: None,
            sanitizer: None,
            mode_table: None,
            launches: RunStats::default(),
            next_launch: 0,
            total_cycles: 0,
        }
    }

    /// The device's configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.config
    }

    /// Sets the scheduler-interleaving seed (the paper's repeated runs map to
    /// distinct seeds here).
    pub fn set_seed(&mut self, seed: u64) {
        self.seed = seed;
    }

    /// Sets (or clears) the per-launch watchdog budget, in cycles. A launch
    /// whose busiest SM exceeds the budget fails with
    /// [`SimError::WatchdogTimeout`] instead of running on — the simulator's
    /// version of a driver-level kernel timeout. Defaults to the device
    /// configuration's `watchdog_cycles`.
    pub fn set_watchdog(&mut self, budget_cycles: Option<u64>) {
        self.watchdog = budget_cycles;
    }

    /// The active watchdog budget, if any.
    pub fn watchdog(&self) -> Option<u64> {
        self.watchdog
    }

    /// Sets (or clears) a host wall-clock deadline for subsequent launches.
    /// A launch still running when the deadline passes fails with
    /// [`SimError::DeadlineExceeded`] — the real-time complement to the
    /// cycle-budget watchdog, checked at the same per-round granularity.
    /// Isolated sweep workers arm this from their cell's wall-clock budget
    /// so an overrunning simulation dies as a typed, journalable error
    /// instead of being SIGKILLed from outside.
    ///
    /// The deadline only affects the *error* path: runs that finish in time
    /// are bit-identical with or without one armed.
    pub fn set_deadline(&mut self, deadline: Option<std::time::Instant>) {
        self.deadline = deadline;
    }

    /// The active wall-clock deadline, if any.
    pub fn deadline(&self) -> Option<std::time::Instant> {
        self.deadline
    }

    /// The armed fault plan, if any (the running state's counters are
    /// internal; see [`Gpu::fault_report`] for what it has injected).
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault.as_ref().map(|f| &f.plan)
    }

    /// Arms seeded fault injection for subsequent launches. The plan's
    /// decision stream persists across launches (a multi-kernel algorithm
    /// sees one continuous schedule); re-arming resets it.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = Some(FaultState::new(plan));
    }

    /// Disarms fault injection.
    pub fn clear_fault_plan(&mut self) {
        self.fault = None;
    }

    /// What the armed fault plan has injected so far, if one is armed.
    pub fn fault_report(&self) -> Option<&FaultReport> {
        self.fault.as_ref().map(|f| f.report())
    }

    /// Installs kernel access contracts and arms the dynamic sanitizer:
    /// every subsequent device access is validated against the launched
    /// kernel's declared footprint, and the first out-of-contract access
    /// fails the launch with a typed [`SimError::ContractViolation`].
    /// Kernels without a contract and accesses to unnamed allocations are
    /// violations too — enforcement is strict by design.
    pub fn install_contracts(&mut self, contracts: impl IntoIterator<Item = KernelContract>) {
        self.sanitizer = Some(SanitizerState::new(contracts));
    }

    /// Disarms the contract sanitizer.
    pub fn clear_contracts(&mut self) {
        self.sanitizer = None;
    }

    /// Installs an IR-derived access-mode dispatch table (see
    /// [`crate::ir::ModeTable`]): kernels running through the `IrDriven`
    /// access policy will issue each policy-mediated access with the mode
    /// the table prescribes for its `(kernel, buffer)` group. This is how a
    /// synthesized (repaired) kernel IR executes without new kernel code.
    pub fn install_mode_table(&mut self, table: ModeTable) {
        self.mode_table = Some(table);
    }

    /// Removes the installed mode table.
    pub fn clear_mode_table(&mut self) {
        self.mode_table = None;
    }

    /// True when the contract sanitizer is armed.
    pub fn sanitizer_armed(&self) -> bool {
        self.sanitizer.is_some()
    }

    /// Arms `sink` to observe every access of the launches that follow,
    /// after the sinks armed before it. No sink is armed by default: an
    /// armed sink sends every launch down the hooked interpreter path.
    pub fn observe(&mut self, sink: impl AccessSink) {
        self.sinks.push(Box::new(sink));
    }

    /// The first armed sink of type `S`, if any.
    pub fn sink<S: AccessSink>(&self) -> Option<&S> {
        self.sinks.iter().find_map(|s| {
            let any: &dyn Any = s.as_ref();
            any.downcast_ref()
        })
    }

    /// Allocates `len` zero-initialized elements in device memory.
    pub fn alloc<T: DeviceValue>(&mut self, len: usize) -> DeviceBuffer<T> {
        self.memory.alloc(len)
    }

    /// Allocates like [`Gpu::alloc`] and names the allocation so race
    /// reports can identify the array (e.g. `node_stat`, `label`).
    pub fn alloc_named<T: DeviceValue>(&mut self, len: usize, name: &str) -> DeviceBuffer<T> {
        let buf = self.memory.alloc(len);
        self.memory.set_allocation_name(buf.as_ptr().addr(), name);
        buf
    }

    /// Copies host data into a device buffer (`cudaMemcpyHostToDevice`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() > buf.len()`.
    pub fn upload<T: DeviceValue>(&mut self, buf: &DeviceBuffer<T>, data: &[T]) {
        assert!(data.len() <= buf.len(), "upload larger than buffer");
        for (i, &v) in data.iter().enumerate() {
            self.memory.write(buf.at(i), v);
        }
    }

    /// Copies a device buffer back to the host (`cudaMemcpyDeviceToHost`).
    pub fn download<T: DeviceValue>(&self, buf: &DeviceBuffer<T>) -> Vec<T> {
        (0..buf.len())
            .map(|i| self.memory.read(buf.at(i)))
            .collect()
    }

    /// Reads a single element without a full download.
    pub fn read_scalar<T: DeviceValue>(&self, buf: &DeviceBuffer<T>, index: usize) -> T {
        self.memory.read(buf.at(index))
    }

    /// Writes a single element from the host.
    pub fn write_scalar<T: DeviceValue>(&mut self, buf: &DeviceBuffer<T>, index: usize, v: T) {
        self.memory.write(buf.at(index), v);
    }

    /// Launches a kernel and runs it to completion, accumulating its cycles
    /// into the device timeline. Returns the launch's stats.
    ///
    /// # Panics
    ///
    /// Panics on any launch failure ([`Gpu::try_launch`] lists them): the
    /// watchdog, an out-of-bounds device access, barrier divergence,
    /// scheduler livelock, or an exhausted fault budget. The panic carries
    /// the error's display text, and the typed [`SimError`] is recoverable
    /// with [`crate::catch_sim`].
    pub fn launch<K: Kernel>(&mut self, launch: LaunchConfig, kernel: K) -> &KernelStats {
        match self.launch_inner::<FullHooks, K>(launch, &kernel) {
            Ok(()) => self.launches.launches.last().unwrap(),
            Err(e) => {
                error::stash(e.clone());
                panic!("{e}");
            }
        }
    }

    /// Launches a kernel, reporting failures as a typed [`SimError`] instead
    /// of panicking: watchdog timeout, out-of-bounds device access, barrier
    /// divergence, scheduler livelock, or fault-budget exhaustion. On error
    /// the launch is not recorded in the stats timeline (device memory may
    /// still have been partially written, as on a real GPU fault).
    pub fn try_launch<K: Kernel>(
        &mut self,
        launch: LaunchConfig,
        kernel: K,
    ) -> Result<&KernelStats, SimError> {
        self.launch_inner::<FullHooks, K>(launch, &kernel)?;
        Ok(self.launches.launches.last().unwrap())
    }

    /// Whether the next launch may take the monomorphized fast path
    /// ([`crate::NoHooks`]): true when no per-access hook — an access
    /// sink, fault injection, or the contract sanitizer — is armed. The
    /// watchdog and wall-clock deadline do not affect eligibility (they are
    /// per-round checks performed identically on both paths).
    pub fn fast_path_eligible(&self) -> bool {
        self.sinks.is_empty() && self.fault.is_none() && self.sanitizer.is_none()
    }

    /// [`Gpu::launch`] with an explicit interpreter path `H`.
    ///
    /// # Panics
    ///
    /// Panics on the launch failures [`Gpu::try_launch`] lists, and when
    /// `H` is [`crate::NoHooks`] while a hook is armed (see
    /// [`Gpu::try_launch_with`]).
    pub fn launch_with<H: Hooks, K: Kernel<H>>(
        &mut self,
        launch: LaunchConfig,
        kernel: K,
    ) -> &KernelStats {
        match self.try_launch_with::<H, K>(launch, kernel) {
            Ok(_) => self.launches.launches.last().unwrap(),
            Err(e) => {
                error::stash(e.clone());
                panic!("{e}");
            }
        }
    }

    /// [`Gpu::try_launch`] with an explicit interpreter path `H`:
    /// [`crate::NoHooks`] monomorphizes the per-access hook code away,
    /// [`FullHooks`] keeps it. Callers pick the path once per launch, e.g.
    /// `if gpu.fast_path_eligible() { ..NoHooks.. } else { ..FullHooks.. }`.
    ///
    /// # Panics
    ///
    /// Panics when `H` is [`crate::NoHooks`] but a hook is armed — silently
    /// skipping an armed sink/fault plan/sanitizer would be a correctness
    /// bug, so the mismatch fails loudly.
    pub fn try_launch_with<H: Hooks, K: Kernel<H>>(
        &mut self,
        launch: LaunchConfig,
        kernel: K,
    ) -> Result<&KernelStats, SimError> {
        assert!(
            H::HOOKED || self.fast_path_eligible(),
            "NoHooks launch with a hook armed: sinks={} fault={} sanitizer={}",
            self.sinks.len(),
            self.fault.is_some(),
            self.sanitizer.is_some(),
        );
        self.launch_inner(launch, &kernel)?;
        Ok(self.launches.launches.last().unwrap())
    }

    fn launch_inner<H: Hooks, K: Kernel<H>>(
        &mut self,
        launch: LaunchConfig,
        kernel: &K,
    ) -> Result<(), SimError> {
        let id = self.next_launch;
        self.next_launch = id.wrapping_add(1);
        // Destructure so the catch_unwind closure borrows fields, not self.
        let Gpu {
            config,
            memory,
            msys,
            buffers,
            sinks,
            seed,
            watchdog,
            deadline,
            fault,
            sanitizer,
            mode_table,
            ..
        } = self;
        let (seed, watchdog, deadline) = (*seed, *watchdog, *deadline);
        let stats = catch_sim(|| {
            run_kernel(
                config,
                memory,
                msys,
                buffers,
                sinks,
                id,
                seed,
                watchdog,
                deadline,
                fault.as_mut(),
                sanitizer.as_mut(),
                mode_table.as_ref(),
                launch,
                kernel,
            )
        })??;
        self.total_cycles += stats.cycles;
        self.launches.launches.push(stats);
        Ok(())
    }

    /// Total simulated cycles across all launches so far.
    pub fn elapsed_cycles(&self) -> u64 {
        self.total_cycles
    }

    /// Total simulated time in nanoseconds.
    pub fn elapsed_ns(&self) -> f64 {
        self.config.cycles_to_ns(self.total_cycles)
    }

    /// Stats of the most recent launch.
    pub fn last_stats(&self) -> Option<&KernelStats> {
        self.launches.launches.last()
    }

    /// The full launch history.
    pub fn run_stats(&self) -> &RunStats {
        &self.launches
    }

    /// Direct access to device memory for host-side verification code.
    pub fn memory(&self) -> &Memory {
        &self.memory
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::ForEach;
    use crate::sink::AccessEvent;

    #[test]
    fn upload_download_roundtrip() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u64>(8);
        let data: Vec<u64> = (0..8).map(|i| i * 1000).collect();
        gpu.upload(&buf, &data);
        assert_eq!(gpu.download(&buf), data);
        assert_eq!(gpu.read_scalar(&buf, 3), 3000);
    }

    #[test]
    fn elapsed_accumulates_across_launches() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(64);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("a", 64, move |ctx, i| ctx.store(buf.at(i as usize), 1)),
        );
        let after_one = gpu.elapsed_cycles();
        assert!(after_one > 0);
        gpu.launch(
            LaunchConfig::for_items(64),
            ForEach::new("b", 64, move |ctx, i| ctx.store(buf.at(i as usize), 2)),
        );
        assert!(gpu.elapsed_cycles() > after_one);
        assert_eq!(gpu.run_stats().num_launches(), 2);
        assert_eq!(gpu.download(&buf)[0], 2);
    }

    /// Records what it observes.
    #[derive(Default)]
    struct Recorder {
        launches: Vec<(u32, String)>,
        events: Vec<AccessEvent>,
    }

    impl AccessSink for Recorder {
        fn launch(&mut self, id: u32, kernel: &str) {
            self.launches.push((id, kernel.to_string()));
        }

        fn access(&mut self, event: &AccessEvent, _memory: &Memory) {
            self.events.push(*event);
        }
    }

    #[test]
    fn sinks_observe_every_launch_and_access() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        assert!(gpu.sink::<Recorder>().is_none());
        gpu.observe(Recorder::default());
        assert!(!gpu.fast_path_eligible());
        let buf = gpu.alloc::<u32>(16);
        for name in ["a", "b"] {
            gpu.launch(
                LaunchConfig::for_items(16),
                ForEach::new(name, 16, move |ctx, i| ctx.store(buf.at(i as usize), i)),
            );
        }
        let seen = gpu.sink::<Recorder>().expect("armed");
        assert_eq!(seen.launches, [(0, "a".to_string()), (1, "b".to_string())]);
        assert_eq!(seen.events.len(), 32);
        assert!(seen.events[..16].iter().all(|e| e.launch == 0));
        assert_eq!(seen.events[16].launch, 1);
    }

    #[test]
    fn a_failed_launch_uses_up_its_id() {
        // A failed launch is not recorded, but the launch after it must not
        // reuse its id: a sink would merge the two launches.
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.observe(Recorder::default());
        let buf = gpu.alloc::<u32>(16);
        gpu.set_watchdog(Some(0));
        let failed = gpu.try_launch(
            LaunchConfig::for_items(16),
            ForEach::new("a", 16, move |ctx, i| ctx.store(buf.at(i as usize), i)),
        );
        assert!(matches!(failed, Err(SimError::WatchdogTimeout { .. })));
        gpu.set_watchdog(None);
        gpu.launch(
            LaunchConfig::for_items(16),
            ForEach::new("b", 16, move |ctx, i| ctx.store(buf.at(i as usize), i)),
        );
        assert_eq!(gpu.run_stats().num_launches(), 1);
        let seen = gpu.sink::<Recorder>().expect("armed");
        assert_eq!(seen.launches, [(0, "a".to_string()), (1, "b".to_string())]);
        assert!(seen.events.iter().any(|e| e.launch == 1));
    }

    #[test]
    fn a_failed_launchs_held_stores_die_with_it() {
        // Launch A's thread defers a store, then spins until the watchdog
        // fails the launch. The device keeps its store buffers across
        // launches, but A's held store must neither be forwarded to B's
        // load nor drain into memory when B's thread finishes.
        struct StoreThenSpin {
            x: DeviceBuffer<u32>,
        }
        impl Kernel for StoreThenSpin {
            type State = bool;
            fn name(&self) -> &str {
                "store-then-spin"
            }
            fn init(&self, _: crate::exec::ThreadInfo) -> bool {
                false
            }
            fn step(&self, stored: &mut bool, ctx: &mut crate::exec::Ctx<'_>) -> crate::Step {
                if !*stored {
                    ctx.store(self.x.at(0), 7);
                    *stored = true;
                }
                ctx.compute(1);
                crate::Step::Yield
            }
        }
        let one_thread = LaunchConfig {
            grid_blocks: 1,
            block_threads: 1,
            store_visibility: crate::StoreVisibility::DeferUntilDone,
            shared_bytes: 0,
            exact_geometry: true,
        };
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let x = gpu.alloc::<u32>(1);
        let y = gpu.alloc::<u32>(1);
        gpu.set_watchdog(Some(1));
        let failed = gpu.try_launch(one_thread, StoreThenSpin { x });
        assert!(matches!(failed, Err(SimError::WatchdogTimeout { .. })));
        gpu.set_watchdog(None);
        gpu.launch(
            LaunchConfig {
                store_visibility: crate::StoreVisibility::Immediate,
                ..one_thread
            },
            ForEach::new("copy", 1, move |ctx, _| {
                let v = ctx.load(x.at(0));
                ctx.store(y.at(0), v);
            }),
        );
        assert_eq!(gpu.download(&x), [0]);
        assert_eq!(gpu.download(&y), [0]);
    }

    #[test]
    fn seeds_change_interleaving_but_not_results() {
        let run = |seed: u64| -> (Vec<u32>, u64) {
            let mut gpu = Gpu::new(GpuConfig::test_tiny());
            gpu.set_seed(seed);
            let buf = gpu.alloc::<u32>(512);
            gpu.launch(
                LaunchConfig::for_items(512),
                ForEach::new("w", 512, move |ctx, i| ctx.store(buf.at(i as usize), i * 3)),
            );
            (gpu.download(&buf), gpu.elapsed_cycles())
        };
        let (r1, _) = run(1);
        let (r2, _) = run(2);
        assert_eq!(r1, r2);
    }

    #[test]
    #[should_panic(expected = "upload larger")]
    fn oversized_upload_panics() {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        let buf = gpu.alloc::<u32>(2);
        gpu.upload(&buf, &[1, 2, 3]);
    }
}
