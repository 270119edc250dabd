//! A per-round frontier: the host twin of the device worklists the CUDA
//! codes run each round over, an array of item slots plus an `atomicAdd`
//! append cursor.
//!
//! A round appends (each thread claims slots for a full local buffer with
//! one `fetch_add`), crosses a team barrier, then drains (threads claim
//! disjoint index chunks, or read slots by index). The barrier orders every
//! relaxed slot store before every read, and one thread clears a drained
//! frontier between two barriers, so slots are never freed or rewritten
//! while a reader can reach them and nothing needs reclaiming (DESIGN.md
//! §13).

use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};

/// Items a [`Pusher`] buffers per `fetch_add`, and items per drained chunk.
const CHUNK: usize = 256;

/// A fixed-capacity frontier of `u32` items.
pub struct Frontier {
    slots: Box<[AtomicU32]>,
    /// Append cursor: slots `0..len` hold this round's items.
    len: AtomicUsize,
    /// Drain cursor: the first slot no [`Frontier::grab`] has handed out.
    taken: AtomicUsize,
}

impl Frontier {
    /// An empty frontier holding at most `capacity` items per round.
    pub fn new(capacity: usize) -> Frontier {
        Frontier {
            slots: (0..capacity).map(|_| AtomicU32::new(0)).collect(),
            len: AtomicUsize::new(0),
            taken: AtomicUsize::new(0),
        }
    }

    /// A thread-local append buffer. Dropping it publishes what it still
    /// holds, so drop it before the barrier that ends the append phase.
    pub fn pusher(&self) -> Pusher<'_> {
        Pusher {
            frontier: self,
            buf: Vec::with_capacity(CHUNK),
        }
    }

    /// Items appended this round; exact once the append phase's barrier
    /// has passed.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` if no item was appended this round.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The item in slot `i < len()`.
    #[inline]
    pub fn get(&self, i: usize) -> u32 {
        self.slots[i].load(Ordering::Relaxed)
    }

    /// Claims the next chunk of this round's items, or `None` once all are
    /// handed out; each item goes to one caller.
    pub fn grab(&self) -> Option<impl Iterator<Item = u32> + '_> {
        let len = self.len();
        let start = self.taken.fetch_add(CHUNK, Ordering::Relaxed);
        if start >= len {
            return None;
        }
        let chunk = &self.slots[start..(start + CHUNK).min(len)];
        Some(chunk.iter().map(|s| s.load(Ordering::Relaxed)))
    }

    /// Empties the frontier for another round. Call from one thread, after
    /// the barrier that ends the drain and before the one that starts the
    /// next append.
    pub fn clear(&self) {
        self.len.store(0, Ordering::Relaxed);
        self.taken.store(0, Ordering::Relaxed);
    }
}

/// One thread's append buffer on a [`Frontier`].
pub struct Pusher<'a> {
    frontier: &'a Frontier,
    buf: Vec<u32>,
}

impl Pusher<'_> {
    /// Appends an item; a full buffer claims its slots at once.
    #[inline]
    pub fn push(&mut self, item: u32) {
        self.buf.push(item);
        if self.buf.len() == CHUNK {
            self.flush();
        }
    }

    /// Claims slots for the buffered items and stores them. Panics past
    /// capacity: callers size a frontier by what one round can hold, so
    /// an overflow is a bug in the caller.
    fn flush(&mut self) {
        let Frontier { slots, len, .. } = self.frontier;
        let start = len.fetch_add(self.buf.len(), Ordering::Relaxed);
        let end = start + self.buf.len();
        assert!(
            end <= slots.len(),
            "frontier overflow: {end} items pushed into capacity {}",
            slots.len()
        );
        for (slot, &item) in slots[start..end].iter().zip(&self.buf) {
            slot.store(item, Ordering::Relaxed);
        }
        self.buf.clear();
    }
}

impl Drop for Pusher<'_> {
    fn drop(&mut self) {
        // A second panic while unwinding would abort the process.
        if !std::thread::panicking() {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_team;
    use std::sync::atomic::AtomicU64;

    /// The pattern every native code runs: drain this round's frontier into
    /// the next one, clear the drained one between barriers, swap.
    #[test]
    fn double_buffered_rounds_converge() {
        const THREADS: usize = 6;
        const N: u32 = 50_000;
        let (a, b) = (Frontier::new(N as usize), Frontier::new(N as usize));
        let survivors = AtomicU64::new(0);

        // Seed A with 1..=N; each round keeps the even items, halved, until
        // the frontier empties.
        run_team(THREADS, 0, |ctx| {
            {
                let mut out = a.pusher();
                for i in ctx.my_block(N as usize) {
                    out.push(i as u32 + 1);
                }
            }
            ctx.barrier();
            let (mut cur, mut next) = (&a, &b);
            loop {
                {
                    let mut out = next.pusher();
                    while let Some(chunk) = cur.grab() {
                        for item in chunk {
                            survivors.fetch_add(1, Ordering::Relaxed);
                            if item % 2 == 0 {
                                out.push(item / 2);
                            }
                        }
                    }
                }
                ctx.barrier();
                if next.is_empty() {
                    break;
                }
                if ctx.tid == 0 {
                    cur.clear();
                }
                std::mem::swap(&mut cur, &mut next);
                ctx.barrier();
            }
        });

        // Item k is seen once in each of its trailing_zeros(k) + 1 rounds.
        let expected: u64 = (1..=N).map(|k| k.trailing_zeros() as u64 + 1).sum();
        assert_eq!(survivors.load(Ordering::Relaxed), expected);
    }

    #[test]
    fn clear_makes_a_drained_frontier_reusable() {
        let f = Frontier::new(1000);
        for round in 0..3u32 {
            let mut out = f.pusher();
            (0..1000).for_each(|i| out.push(round * 1000 + i));
            drop(out);
            let drained = std::iter::from_fn(|| f.grab()).flatten();
            assert!(drained.eq(round * 1000..(round + 1) * 1000));
            assert!(f.grab().is_none(), "a drained frontier hands out nothing");
            f.clear();
            assert!(f.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "301 items pushed into capacity 300")]
    fn push_past_capacity_panics_naming_it() {
        let f = Frontier::new(300);
        let mut out = f.pusher();
        (0..301).for_each(|i| out.push(i));
    }
}
