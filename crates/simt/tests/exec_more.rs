//! Additional execution-model tests: visibility-policy edge cases, store
//! buffer behaviour, split accesses, and launch geometry.

use ecl_simt::{
    AccessKind, Ctx, DevicePtr, ForEach, Gpu, GpuConfig, Kernel, LaunchConfig, NoHooks, SimError,
    Step, StoreVisibility, ThreadInfo,
};

fn single_thread_launch(visibility: StoreVisibility) -> LaunchConfig {
    LaunchConfig {
        grid_blocks: 1,
        block_threads: 1,
        store_visibility: visibility,
        shared_bytes: 0,
        exact_geometry: true,
    }
}

#[test]
fn defer_bounded_zero_eighths_behaves_like_immediate() {
    // eighths = 0: no address is deferred; another thread polling sees the
    // store after the writer's first step.
    let observed = cross_thread_visibility_rounds(StoreVisibility::DeferBounded {
        every: 4,
        eighths: 0,
    });
    let immediate = cross_thread_visibility_rounds(StoreVisibility::Immediate);
    assert_eq!(observed, immediate);
}

#[test]
fn defer_bounded_full_eighths_delays_visibility() {
    let deferred = cross_thread_visibility_rounds(StoreVisibility::DeferBounded {
        every: 4,
        eighths: 8,
    });
    let immediate = cross_thread_visibility_rounds(StoreVisibility::Immediate);
    assert!(
        deferred > immediate,
        "full deferral ({deferred} polls) must be slower than immediate ({immediate})"
    );
}

/// Thread 0 writes a plain flag once; thread 1 polls it with volatile loads.
/// Returns how many polls thread 1 needed.
fn cross_thread_visibility_rounds(visibility: StoreVisibility) -> u32 {
    struct WriterPoller {
        cell: ecl_simt::DeviceBuffer<u32>,
        polls: ecl_simt::DeviceBuffer<u32>,
    }
    impl Kernel for WriterPoller {
        type State = (u32, u32);
        fn name(&self) -> &str {
            "writer_poller"
        }
        fn init(&self, info: ThreadInfo) -> (u32, u32) {
            (info.global_id, 0)
        }
        fn step(&self, state: &mut (u32, u32), ctx: &mut Ctx<'_>) -> Step {
            let (tid, ref mut stage) = *state;
            if tid == 0 {
                if *stage == 0 {
                    ctx.store(self.cell.at(0), 1);
                    state.1 = 1;
                    return Step::Yield;
                }
                // Keep yielding so the deferred store only drains on the
                // policy's schedule, until the poller has seen it.
                if ctx.load_volatile(self.polls.at(1)) == u32::MAX {
                    return Step::Done;
                }
                state.1 += 1;
                if state.1 > 64 {
                    return Step::Done; // safety valve
                }
                Step::Yield
            } else {
                state.1 += 1;
                if ctx.load_volatile(self.cell.at(0)) == 1 {
                    ctx.store_volatile(self.polls.at(0), state.1);
                    ctx.store_volatile(self.polls.at(1), u32::MAX);
                    Step::Done
                } else {
                    Step::Yield
                }
            }
        }
    }
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let cell = gpu.alloc::<u32>(1);
    let polls = gpu.alloc::<u32>(2);
    gpu.launch(
        LaunchConfig {
            grid_blocks: 1,
            block_threads: 2,
            store_visibility: visibility,
            shared_bytes: 0,
            exact_geometry: true,
        },
        WriterPoller { cell, polls },
    );
    gpu.download(&polls)[0]
}

#[test]
fn store_buffer_overflow_drains_oldest() {
    // More distinct deferred stores than the buffer holds: the oldest must
    // still land in memory by the time the thread finishes.
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let buf = gpu.alloc::<u32>(128);
    gpu.launch(
        single_thread_launch(StoreVisibility::DeferUntilDone),
        ForEach::new("many_stores", 128, move |ctx, i| {
            ctx.store(buf.at(i as usize), i + 1);
        })
        .with_chunk(128),
    );
    let host = gpu.download(&buf);
    for (i, &v) in host.iter().enumerate() {
        assert_eq!(v, i as u32 + 1);
    }
}

#[test]
fn overlapping_loads_drain_a_held_byte_store() {
    // A held byte store inside the loaded word is not an exact match, so
    // each load kind must drain it before reading the word from memory.
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let word = gpu.alloc::<u32>(1);
    let seen = gpu.alloc::<u32>(3);
    gpu.upload(&word, &[0x1111_1111]);
    gpu.launch(
        single_thread_launch(StoreVisibility::DeferUntilDone),
        ForEach::new("byte_overlap", 1, move |ctx, _| {
            let byte1 = DevicePtr::<u8>::from_raw(word.at(0).addr() + 1);
            ctx.store(byte1, 0xaa);
            let plain = ctx.load(word.at(0));
            ctx.store_volatile(seen.at(0), plain);
            ctx.store(byte1, 0xbb);
            let volatile = ctx.load_volatile(word.at(0));
            ctx.store_volatile(seen.at(1), volatile);
            ctx.store(byte1, 0xcc);
            let atomic = ctx.atomic_add_u32(word.at(0), 0);
            ctx.store_volatile(seen.at(2), atomic);
        }),
    );
    assert_eq!(
        gpu.download(&seen),
        vec![0x1111_aa11, 0x1111_bb11, 0x1111_cc11]
    );
}

#[test]
fn raw_address_past_the_arena_is_a_typed_error_on_both_paths() {
    fn check(result: Result<&ecl_simt::KernelStats, SimError>, end: u32) {
        let err = result.expect_err("a load past the arena must fail the launch");
        let message = err.to_string();
        assert!(
            message.contains("'past_end'") && message.contains(&format!("{end:#x}")),
            "{message}"
        );
        match err {
            SimError::OutOfBounds {
                kernel,
                addr,
                access,
            } => {
                assert_eq!(kernel, "past_end");
                assert_eq!(addr, end);
                assert_eq!(access, AccessKind::Load);
            }
            other => panic!("expected OutOfBounds, got {other:?}"),
        }
    }
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let _buf = gpu.alloc::<u32>(64);
    let end = gpu.memory().footprint() as u32;
    let past_end = DevicePtr::<u32>::from_raw(end);
    let hooked = gpu.try_launch(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::new("past_end", 1, move |ctx, _| {
            ctx.load(past_end);
        }),
    );
    check(hooked, end);
    let fast = gpu.try_launch_with::<NoHooks, _>(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::with_hooks::<NoHooks>("past_end", 1, move |ctx, _| {
            ctx.load(past_end);
        }),
    );
    check(fast, end);
}

#[test]
fn volatile_64bit_also_tears_on_32bit_hardware() {
    // The paper's §II-A point: volatile does NOT prevent word tearing.
    let mut cfg = GpuConfig::test_tiny();
    cfg.native_64bit = false;
    let mut gpu = Gpu::new(cfg);
    let cell = gpu.alloc::<u64>(1);
    gpu.upload(&cell, &[u64::MAX]);
    // Functional check: a volatile 64-bit store still lands completely
    // (both halves are immediate), but it costs two volatile transactions.
    gpu.launch(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::new("v64", 1, move |ctx, _| {
            ctx.store_volatile(cell.at(0), 0x1111_2222_3333_4444u64);
        }),
    );
    assert_eq!(gpu.download(&cell)[0], 0x1111_2222_3333_4444);
    let stats = gpu.last_stats().unwrap();
    assert_eq!(stats.volatile_accesses, 2, "split into two 32-bit stores");
}

#[test]
fn native_64bit_volatile_is_one_access() {
    let mut gpu = Gpu::new(GpuConfig::test_tiny()); // native_64bit = true
    let cell = gpu.alloc::<u64>(1);
    gpu.launch(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::new("v64n", 1, move |ctx, _| {
            ctx.store_volatile(cell.at(0), 7u64);
        }),
    );
    assert_eq!(gpu.last_stats().unwrap().volatile_accesses, 1);
}

#[test]
fn foreach_with_zero_work_per_thread_finishes() {
    // More threads than items: surplus threads must exit immediately.
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let buf = gpu.alloc::<u32>(4);
    gpu.launch(
        LaunchConfig {
            grid_blocks: 2,
            block_threads: 256,
            store_visibility: StoreVisibility::Immediate,
            shared_bytes: 0,
            exact_geometry: true,
        },
        ForEach::new("sparse", 4, move |ctx, i| ctx.store(buf.at(i as usize), 9)),
    );
    assert_eq!(gpu.download(&buf), vec![9; 4]);
}

#[test]
fn atomic_u64_min_max_and_cas() {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let buf = gpu.alloc::<u64>(3);
    gpu.upload(&buf, &[u64::MAX, 0, 10]);
    gpu.launch(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::new("ops64", 1, move |ctx, _| {
            ctx.atomic_min_u64(buf.at(0), 5);
            ctx.atomic_min_u64(buf.at(0), 9); // no effect
            ctx.atomic_add_u64(buf.at(1), 1 << 40);
            let old = ctx.atomic_cas_u64(buf.at(2), 10, 11);
            assert_eq!(old, 10);
            let old = ctx.atomic_cas_u64(buf.at(2), 10, 12); // fails
            assert_eq!(old, 11);
        }),
    );
    assert_eq!(gpu.download(&buf), vec![5, 1 << 40, 11]);
}

#[test]
fn compute_charges_cycles() {
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.launch(
        single_thread_launch(StoreVisibility::Immediate),
        ForEach::new("spin", 1, move |ctx, _| ctx.compute(10_000)),
    );
    let busy = gpu.elapsed_cycles();
    assert!(busy >= 10_000, "compute cycles not charged: {busy}");
}

#[test]
fn threadfence_publishes_deferred_stores() {
    // Writer defers its store, fences, then spins; the fence makes the
    // value visible to the polling thread even under full deferral.
    struct FenceKernel {
        cell: ecl_simt::DeviceBuffer<u32>,
        seen: ecl_simt::DeviceBuffer<u32>,
    }
    impl Kernel for FenceKernel {
        type State = (u32, bool);
        fn name(&self) -> &str {
            "fence"
        }
        fn init(&self, info: ThreadInfo) -> (u32, bool) {
            (info.global_id, false)
        }
        fn step(&self, state: &mut (u32, bool), ctx: &mut Ctx<'_>) -> Step {
            let (tid, done_write) = *state;
            if tid == 0 {
                if !done_write {
                    ctx.store(self.cell.at(0), 77);
                    ctx.threadfence();
                    state.1 = true;
                }
                // Wait for the reader so the kernel-end drain can't be what
                // published the value.
                if ctx.load_volatile(self.seen.at(0)) == 77 {
                    Step::Done
                } else {
                    Step::Yield
                }
            } else {
                let v = ctx.load_volatile(self.cell.at(0));
                if v == 77 {
                    ctx.store_volatile(self.seen.at(0), v);
                    Step::Done
                } else {
                    Step::Yield
                }
            }
        }
    }
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    let cell = gpu.alloc::<u32>(1);
    let seen = gpu.alloc::<u32>(1);
    gpu.launch(
        LaunchConfig {
            grid_blocks: 1,
            block_threads: 2,
            store_visibility: StoreVisibility::DeferUntilDone,
            shared_bytes: 0,
            exact_geometry: true,
        },
        FenceKernel { cell, seen },
    );
    assert_eq!(gpu.download(&seen)[0], 77);
}

#[test]
#[should_panic(expected = "livelocked")]
fn livelock_is_detected() {
    struct Forever;
    impl Kernel for Forever {
        type State = ();
        fn name(&self) -> &str {
            "forever"
        }
        fn init(&self, _: ThreadInfo) {}
        fn step(&self, _: &mut (), _: &mut Ctx<'_>) -> Step {
            Step::Yield
        }
    }
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.launch(single_thread_launch(StoreVisibility::Immediate), Forever);
}

#[test]
fn expired_wall_deadline_kills_a_running_launch() {
    // A would-be livelock dies with a typed DeadlineExceeded long before the
    // livelock round limit: the wall-clock deadline is the host's real-time
    // bound on a launch, independent of simulated cycles.
    struct Forever;
    impl Kernel for Forever {
        type State = ();
        fn name(&self) -> &str {
            "forever"
        }
        fn init(&self, _: ThreadInfo) {}
        fn step(&self, _: &mut (), _: &mut Ctx<'_>) -> Step {
            Step::Yield
        }
    }
    let mut gpu = Gpu::new(GpuConfig::test_tiny());
    gpu.set_deadline(Some(std::time::Instant::now()));
    let r = gpu.try_launch(single_thread_launch(StoreVisibility::Immediate), Forever);
    assert!(matches!(
        r,
        Err(ecl_simt::SimError::DeadlineExceeded { .. })
    ));
}

#[test]
fn deadline_does_not_perturb_a_run_that_finishes_in_time() {
    let run = |deadline: Option<std::time::Instant>| -> (Vec<u32>, u64) {
        let mut gpu = Gpu::new(GpuConfig::test_tiny());
        gpu.set_deadline(deadline);
        let buf = gpu.alloc::<u32>(128);
        gpu.launch(
            LaunchConfig::for_items(128),
            ForEach::new("w", 128, move |ctx, i| ctx.store(buf.at(i as usize), i * 7)),
        );
        (gpu.download(&buf), gpu.elapsed_cycles())
    };
    let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
    assert_eq!(run(None), run(Some(far)));
}
