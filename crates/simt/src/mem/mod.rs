//! Simulated device memory: the byte-addressable arena, typed pointers and
//! buffers, the cache hierarchy, and the per-level cost model.

mod arena;
mod cache;
mod hierarchy;

pub use arena::{DeviceBuffer, DevicePtr, DeviceValue, Memory};
pub use cache::{Cache, CacheStats};
pub(crate) use hierarchy::MemPort;
pub use hierarchy::{MemLevel, MemSystem};
