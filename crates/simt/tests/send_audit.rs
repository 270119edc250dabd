//! Thread-safety audit for the types the parallel sweep runner moves across
//! worker threads.
//!
//! The bench crate's work pool (`ecl-bench::pool`) runs whole simulations on
//! scoped worker threads: the *inputs* (GPU configs, fault plans, graphs)
//! are shared by reference and the *outputs* (stats, errors) are sent back
//! to the reassembly thread. These assertions pin down, at compile time,
//! that every type crossing that boundary is `Send` (and the shared ones
//! `Sync`) — so a future `Rc`/`RefCell` slipping into one of them becomes a
//! build failure here rather than a trait-bound error three crates away.

use ecl_simt::metrics::RunStats;
use ecl_simt::{
    AccessEvent, DeviceBuffer, DevicePtr, FaultPlan, FaultReport, GpuConfig, KernelStats, SimError,
};

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}
fn assert_send_sync<T: Send + Sync>() {}

#[test]
fn sweep_inputs_are_shareable_across_workers() {
    // Shared by `&` from the sweep driver into every worker.
    assert_send_sync::<GpuConfig>();
    assert_send_sync::<FaultPlan>();
}

#[test]
fn sweep_outputs_are_sendable_back() {
    // Produced on a worker thread, moved to the main thread for reassembly.
    assert_send::<SimError>();
    assert_sync::<SimError>();
    assert_send::<KernelStats>();
    assert_send::<RunStats>();
    assert_send::<FaultReport>();
    assert_send::<AccessEvent>();
}

#[test]
fn device_handles_are_plain_indices() {
    // `DevicePtr` carries a `PhantomData<*const T>` purely for variance; it
    // is an index into a per-`Gpu` arena, not a real pointer, and is
    // explicitly `Send + Sync` so kernels built on one thread can run on
    // another worker's simulation.
    assert_send_sync::<DevicePtr<u32>>();
    assert_send_sync::<DeviceBuffer<u64>>();
}
