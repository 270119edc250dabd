//! Shared atomic arrays: the native analogue of device buffers.
//!
//! Every element is an atomic cell so the race-free policy can use real
//! orderings; the baseline policy reaches through the cells with volatile
//! raw-pointer accesses (see [`crate::policy`]), which is exactly the
//! layout trick the paper's Fig. 2 conversion exploits in reverse: an
//! `AtomicU32` and a `u32` share a representation, so the same array can be
//! accessed racily or atomically without copying.

use std::sync::atomic::{AtomicU32, AtomicU64, AtomicU8, Ordering};

/// A shared array of `u32` cells.
#[derive(Debug)]
pub struct WordArr {
    data: Box<[AtomicU32]>,
}

impl WordArr {
    /// Allocates `n` cells, all holding `fill`.
    pub fn new(n: usize, fill: u32) -> WordArr {
        WordArr {
            data: (0..n).map(|_| AtomicU32::new(fill)).collect(),
        }
    }

    /// Allocates from a per-index initializer.
    pub fn from_fn(n: usize, mut f: impl FnMut(usize) -> u32) -> WordArr {
        WordArr {
            data: (0..n).map(|i| AtomicU32::new(f(i))).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The cell at `i`.
    #[inline]
    pub fn at(&self, i: usize) -> &AtomicU32 {
        &self.data[i]
    }

    /// The cells in `range`.
    #[inline]
    pub fn cells(&self, range: std::ops::Range<usize>) -> &[AtomicU32] {
        &self.data[range]
    }

    /// Copies the array out with relaxed loads. Call only from a point
    /// where writers are quiescent (after a barrier or join).
    pub fn snapshot(&self) -> Vec<u32> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// A shared array of `u64` cells (packed pairs, min-reduction keys).
#[derive(Debug)]
pub struct LongArr {
    data: Box<[AtomicU64]>,
}

impl LongArr {
    /// Allocates `n` cells, all holding `fill`.
    pub fn new(n: usize, fill: u64) -> LongArr {
        LongArr {
            data: (0..n).map(|_| AtomicU64::new(fill)).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The cell at `i`.
    #[inline]
    pub fn at(&self, i: usize) -> &AtomicU64 {
        &self.data[i]
    }

    /// Copies the array out with relaxed loads (quiescent callers only).
    pub fn snapshot(&self) -> Vec<u64> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// A shared array of byte cells (MIS status bytes, MST edge flags).
///
/// The GPU race-free conversion needs the Fig. 3/4 typecast-and-mask
/// helpers because CUDA has no byte atomics; the host has `AtomicU8`, so
/// the native conversion uses it directly — the mapping table in DESIGN.md
/// §13 records the substitution.
#[derive(Debug)]
pub struct ByteArr {
    data: Box<[AtomicU8]>,
}

impl ByteArr {
    /// Allocates `n` cells, all holding `fill`.
    pub fn new(n: usize, fill: u8) -> ByteArr {
        ByteArr {
            data: (0..n).map(|_| AtomicU8::new(fill)).collect(),
        }
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` if the array has no cells.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The cell at `i`.
    #[inline]
    pub fn at(&self, i: usize) -> &AtomicU8 {
        &self.data[i]
    }

    /// Copies the array out with relaxed loads (quiescent callers only).
    pub fn snapshot(&self) -> Vec<u8> {
        self.data
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrays_roundtrip() {
        let w = WordArr::from_fn(5, |i| i as u32 * 2);
        assert_eq!(w.snapshot(), vec![0, 2, 4, 6, 8]);
        w.at(3).store(99, Ordering::Relaxed);
        assert_eq!(w.snapshot()[3], 99);

        let l = LongArr::new(2, u64::MAX);
        assert_eq!(l.snapshot(), vec![u64::MAX; 2]);

        let b = ByteArr::new(3, 7);
        assert_eq!(b.snapshot(), vec![7, 7, 7]);
        assert!(!w.is_empty() && !l.is_empty() && !b.is_empty());
        assert_eq!((w.len(), l.len(), b.len()), (5, 2, 3));
    }
}
