//! The byte-addressable device memory arena and typed pointers into it.

use std::marker::PhantomData;

/// A scalar type that can live in simulated device memory.
///
/// This trait is sealed in spirit: the simulator supports exactly the scalar
/// widths GPU hardware loads and stores natively (8, 32, and 64 bits), which
/// is what makes the paper's sub-word typecasting tricks (Figs. 3–5)
/// necessary in the first place.
pub trait DeviceValue: Copy + PartialEq + std::fmt::Debug + 'static {
    /// Size of the value in bytes.
    const WIDTH: u32;

    /// Reads a value from the byte slice at `addr`.
    fn read_from(bytes: &[u8], addr: u32) -> Self;
    /// Writes the value into the byte slice at `addr`.
    fn write_to(self, bytes: &mut [u8], addr: u32);
    /// Zero-extends the value's bit pattern to 64 bits (store-buffer entry).
    fn to_bits(self) -> u64;
    /// Recovers a value from a 64-bit bit pattern.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! impl_device_value {
    ($ty:ty, $width:expr) => {
        impl DeviceValue for $ty {
            const WIDTH: u32 = $width;

            #[inline]
            fn read_from(bytes: &[u8], addr: u32) -> Self {
                let a = addr as usize;
                <$ty>::from_le_bytes(bytes[a..a + $width].try_into().unwrap())
            }

            #[inline]
            fn write_to(self, bytes: &mut [u8], addr: u32) {
                let a = addr as usize;
                bytes[a..a + $width].copy_from_slice(&self.to_le_bytes());
            }

            #[inline]
            fn to_bits(self) -> u64 {
                // Cast through the unsigned type of equal width to avoid
                // sign-extension surprises.
                self.to_le_bytes()
                    .iter()
                    .rev()
                    .fold(0u64, |acc, &b| (acc << 8) | b as u64)
            }

            #[inline]
            fn from_bits(bits: u64) -> Self {
                let mut le = [0u8; $width];
                for (i, slot) in le.iter_mut().enumerate() {
                    *slot = (bits >> (8 * i)) as u8;
                }
                <$ty>::from_le_bytes(le)
            }
        }
    };
}

impl_device_value!(u8, 1);
impl_device_value!(i8, 1);
impl_device_value!(u32, 4);
impl_device_value!(i32, 4);
impl_device_value!(u64, 8);
impl_device_value!(i64, 8);

/// A typed address in device memory. `Copy`, so kernels can capture it.
pub struct DevicePtr<T> {
    addr: u32,
    _marker: PhantomData<*const T>,
}

// Manual impls: derive would bound them on `T`.
impl<T> Clone for DevicePtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DevicePtr<T> {}
impl<T> PartialEq for DevicePtr<T> {
    fn eq(&self, other: &Self) -> bool {
        self.addr == other.addr
    }
}
impl<T> Eq for DevicePtr<T> {}
impl<T> std::fmt::Debug for DevicePtr<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "DevicePtr({:#x})", self.addr)
    }
}

// A DevicePtr is an index, not a real pointer; it is safe to move across
// threads (the harness may run simulations on worker threads).
unsafe impl<T> Send for DevicePtr<T> {}
unsafe impl<T> Sync for DevicePtr<T> {}

impl<T: DeviceValue> DevicePtr<T> {
    /// Creates a pointer from a raw byte address.
    ///
    /// Used by the typecasting helpers in `ecl-core::primitives` that
    /// reinterpret a `u8` array as `u32`s (the paper's Fig. 3 trick).
    pub fn from_raw(addr: u32) -> Self {
        DevicePtr {
            addr,
            _marker: PhantomData,
        }
    }

    /// The raw byte address.
    pub fn addr(self) -> u32 {
        self.addr
    }

    /// Pointer `count` elements further.
    pub fn offset(self, count: usize) -> Self {
        DevicePtr::from_raw(self.addr + (count as u32) * T::WIDTH)
    }

    /// Reinterprets this pointer as a pointer to another scalar type — the
    /// simulator analogue of the paper's `(int*)node_stat` casts.
    pub fn cast<U: DeviceValue>(self) -> DevicePtr<U> {
        DevicePtr::from_raw(self.addr)
    }
}

/// A typed, sized allocation in device memory.
pub struct DeviceBuffer<T> {
    ptr: DevicePtr<T>,
    len: usize,
}

impl<T> Clone for DeviceBuffer<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for DeviceBuffer<T> {}
impl<T> std::fmt::Debug for DeviceBuffer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DeviceBuffer")
            .field("addr", &self.ptr)
            .field("len", &self.len)
            .finish()
    }
}

impl<T: DeviceValue> DeviceBuffer<T> {
    pub(crate) fn new(addr: u32, len: usize) -> Self {
        DeviceBuffer {
            ptr: DevicePtr::from_raw(addr),
            len,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Pointer to element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len` — the simulator's equivalent of a segfault,
    /// caught deterministically.
    #[inline]
    pub fn at(&self, i: usize) -> DevicePtr<T> {
        assert!(
            i < self.len,
            "device buffer index {i} out of range {}",
            self.len
        );
        self.ptr.offset(i)
    }

    /// Pointer to the first element.
    pub fn as_ptr(&self) -> DevicePtr<T> {
        self.ptr
    }
}

/// The flat byte-addressable device memory.
///
/// All functional state lives here; caches are timing-only. Allocation is a
/// bump allocator with 256-byte alignment (matching `cudaMalloc`).
#[derive(Debug)]
pub struct Memory {
    bytes: Vec<u8>,
    next: u32,
    allocations: Vec<Allocation>,
    /// The index of the allocation owning each 256-byte page of the arena.
    /// Allocations start page-aligned and never share a page, so one load
    /// finds the only allocation an address can belong to.
    page_owner: Vec<u32>,
}

/// One bump-allocated range of the arena. Each starts on a fresh 256-byte
/// page; allocations never move, shrink, or share a page.
#[derive(Debug)]
pub(crate) struct Allocation {
    pub(crate) base: u32,
    /// Requested bytes; the padding up to the next allocation belongs to
    /// no allocation.
    pub(crate) size: u32,
    pub(crate) name: Option<String>,
}

impl Memory {
    /// Creates an empty device memory.
    pub fn new() -> Self {
        Memory {
            bytes: Vec::new(),
            next: 0,
            allocations: Vec::new(),
            page_owner: Vec::new(),
        }
    }

    /// Allocates `len` elements of `T`, zero-initialized.
    pub fn alloc<T: DeviceValue>(&mut self, len: usize) -> DeviceBuffer<T> {
        let size = (len as u32) * T::WIDTH;
        let addr = self.next;
        let padded = (size + 255) & !255;
        self.next += padded.max(256);
        self.bytes.resize(self.next as usize, 0);
        let index = self.allocations.len() as u32;
        self.page_owner.resize((self.next / 256) as usize, index);
        self.allocations.push(Allocation {
            base: addr,
            size,
            name: None,
        });
        DeviceBuffer::new(addr, len)
    }

    /// Attaches a human-readable name to the allocation that starts at
    /// `base` (used by race reports to identify the racing array, e.g.
    /// `node_stat` for the MIS status bytes).
    pub fn set_allocation_name(&mut self, base: u32, name: &str) {
        if let Some(a) = self.allocations.iter_mut().find(|a| a.base == base) {
            a.name = Some(name.to_string());
        }
    }

    /// The name of the allocation containing `addr`, if one was set.
    pub fn allocation_name(&self, addr: u32) -> Option<&str> {
        self.find_allocation(addr)?.1.name.as_deref()
    }

    /// The allocation containing `addr` and its index in allocation order.
    #[inline]
    pub(crate) fn find_allocation(&self, addr: u32) -> Option<(usize, &Allocation)> {
        let index = *self.page_owner.get((addr / 256) as usize)? as usize;
        let a = &self.allocations[index];
        (addr - a.base < a.size).then_some((index, a))
    }

    /// Every allocation's name (`None` when unnamed), indexed like
    /// [`Memory::find_allocation`].
    pub(crate) fn allocation_names(&self) -> impl Iterator<Item = Option<&str>> {
        self.allocations.iter().map(|a| a.name.as_deref())
    }

    /// Total bytes currently reserved.
    pub fn footprint(&self) -> usize {
        self.bytes.len()
    }

    /// Finds the allocation containing `addr`, as `(base, size)`, for
    /// race-report symbolization.
    pub fn allocation_of(&self, addr: u32) -> Option<(u32, u32)> {
        self.find_allocation(addr).map(|(_, a)| (a.base, a.size))
    }

    /// Reads a value, bypassing all modeling (host access / debugger view).
    #[inline]
    pub fn read<T: DeviceValue>(&self, ptr: DevicePtr<T>) -> T {
        T::read_from(&self.bytes, ptr.addr())
    }

    /// Writes a value, bypassing all modeling (host access).
    #[inline]
    pub fn write<T: DeviceValue>(&mut self, ptr: DevicePtr<T>, value: T) {
        value.write_to(&mut self.bytes, ptr.addr());
    }

    /// Raw read of `width` bytes at `addr` as a zero-extended u64.
    #[inline]
    pub fn read_bits(&self, addr: u32, width: u32) -> u64 {
        match width {
            1 => u8::read_from(&self.bytes, addr) as u64,
            4 => u32::read_from(&self.bytes, addr) as u64,
            8 => u64::read_from(&self.bytes, addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Raw write of `width` bytes at `addr` from a u64 bit pattern.
    #[inline]
    pub fn write_bits(&mut self, addr: u32, width: u32, bits: u64) {
        match width {
            1 => (bits as u8).write_to(&mut self.bytes, addr),
            4 => (bits as u32).write_to(&mut self.bytes, addr),
            8 => bits.write_to(&mut self.bytes, addr),
            _ => panic!("unsupported access width {width}"),
        }
    }
}

impl Default for Memory {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_zeroed_and_aligned() {
        let mut mem = Memory::new();
        let a = mem.alloc::<u32>(10);
        let b = mem.alloc::<u8>(3);
        assert_eq!(a.as_ptr().addr() % 256, 0);
        assert_eq!(b.as_ptr().addr() % 256, 0);
        assert_ne!(a.as_ptr().addr(), b.as_ptr().addr());
        assert_eq!(mem.read(a.at(5)), 0u32);
    }

    #[test]
    fn typed_read_write_roundtrip() {
        let mut mem = Memory::new();
        let buf = mem.alloc::<u64>(4);
        mem.write(buf.at(2), 0xdead_beef_cafe_f00du64);
        assert_eq!(mem.read(buf.at(2)), 0xdead_beef_cafe_f00du64);
        let bytes = mem.alloc::<u8>(4);
        mem.write(bytes.at(0), 0xabu8);
        assert_eq!(mem.read(bytes.at(0)), 0xab);
    }

    #[test]
    fn cast_views_same_bytes() {
        let mut mem = Memory::new();
        let bytes = mem.alloc::<u8>(8);
        for i in 0..4 {
            mem.write(bytes.at(i), (i as u8) + 1);
        }
        let as_u32: DevicePtr<u32> = bytes.as_ptr().cast();
        assert_eq!(mem.read(as_u32), 0x0403_0201);
    }

    #[test]
    fn signed_bits_roundtrip_without_sign_extension() {
        assert_eq!((-1i32).to_bits(), 0xffff_ffffu64);
        assert_eq!(i32::from_bits(0xffff_ffff), -1);
        assert_eq!((-2i64).to_bits(), u64::MAX - 1);
        assert_eq!((-5i8).to_bits(), 0xfb);
        assert_eq!(i8::from_bits(0xfb), -5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_bounds_index_panics() {
        let mut mem = Memory::new();
        let buf = mem.alloc::<u32>(4);
        let _ = buf.at(4);
    }

    #[test]
    fn allocation_of_finds_owner() {
        let mut mem = Memory::new();
        let a = mem.alloc::<u32>(16);
        let (base, size) = mem.allocation_of(a.at(3).addr()).unwrap();
        assert_eq!(base, a.as_ptr().addr());
        assert_eq!(size, 64);
        assert!(mem.allocation_of(base + size).is_none());
    }

    #[test]
    fn allocation_search_matches_a_linear_scan() {
        let mut mem = Memory::new();
        for (i, len) in [10usize, 0, 64, 1, 300, 0].into_iter().enumerate() {
            let buf = mem.alloc::<u32>(len);
            if i % 2 == 0 {
                mem.set_allocation_name(buf.as_ptr().addr(), &format!("b{i}"));
            }
        }
        for addr in 0..mem.footprint() as u32 + 8 {
            let linear = mem
                .allocations
                .iter()
                .position(|a| addr >= a.base && addr < a.base + a.size);
            assert_eq!(mem.find_allocation(addr).map(|(i, _)| i), linear);
            assert_eq!(
                mem.allocation_name(addr),
                linear.and_then(|i| mem.allocations[i].name.as_deref())
            );
        }
    }

    #[test]
    fn read_write_bits_widths() {
        let mut mem = Memory::new();
        let buf = mem.alloc::<u64>(2);
        let addr = buf.as_ptr().addr();
        mem.write_bits(addr, 8, 0x1122_3344_5566_7788);
        assert_eq!(mem.read_bits(addr, 4), 0x5566_7788);
        assert_eq!(mem.read_bits(addr + 4, 4), 0x1122_3344);
        assert_eq!(mem.read_bits(addr, 1), 0x88);
        mem.write_bits(addr + 1, 1, 0xaa);
        assert_eq!(mem.read_bits(addr, 4), 0x5566_aa88);
    }
}
