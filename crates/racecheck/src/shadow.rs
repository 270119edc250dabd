//! Shadow memory: what each detector mode remembers about every location.
//!
//! A detector remembers, per byte, up to [`RECS_PER_BYTE`] distinct
//! accesses, and checks each new access against every byte it touches: the
//! first remembered access it conflicts with is reported for that byte,
//! then the new access is remembered there. [`Shadow`] stores these lists
//! without one map entry per byte:
//!
//! - **Indexing.** Global memory is indexed by arena word, shared memory by
//!   (block, word), in tables that grow on demand.
//! - **Words.** A word keeps one list while every access to it covered all
//!   four bytes. Such an access remembers the same record in each byte's
//!   list, so the four lists are equal and finding the first conflict once
//!   answers for every byte. The first access that covers only part of a
//!   word splits it into four byte lists, each a copy of the word's list.
//! - **Reads.** Two reads never conflict, so a read scans only the
//!   remembered writes; a write scans every record in insertion order.
//! - **Reset.** [`Shadow::reset`] forgets every location and keeps the
//!   lists' storage for reuse. Modes whose locations are per launch call it
//!   at each launch boundary.

use ecl_simt::{AccessEvent, Space};

/// Cap on distinct remembered accesses per byte. Once two accesses
/// conflict the location is reported, so the cap only bounds memory and
/// scan time on hot non-conflicting locations (e.g. all-atomic counters).
const RECS_PER_BYTE: usize = 64;

/// Slot value of a word that no access touched since the last reset.
/// Lists are numbered from 1, so no slot names list 0.
const EMPTY: u32 = 0;

/// Slot flag: the word is split into four consecutive byte lists.
const SPLIT: u32 = 1 << 31;

/// A remembered access.
pub(crate) trait Record: Copy + PartialEq {
    /// `true` for stores and read-modify-writes.
    fn writes(&self) -> bool;
}

/// The remembered accesses of one byte, or of every byte of an unsplit
/// word, in insertion order.
#[derive(Debug, Clone)]
struct RecList<R> {
    recs: Vec<R>,
    /// Bit `i` is set when `recs[i]` writes.
    writes: u64,
}

impl<R: Record> RecList<R> {
    /// The first remembered access, in insertion order, that `conflicts`
    /// accepts. A read only considers remembered writes.
    #[inline]
    fn first_conflict(&self, writes: bool, conflicts: &mut impl FnMut(&R) -> bool) -> Option<R> {
        if writes {
            return self.recs.iter().find(|r| conflicts(r)).copied();
        }
        let mut mask = self.writes;
        while mask != 0 {
            let rec = &self.recs[mask.trailing_zeros() as usize];
            if conflicts(rec) {
                return Some(*rec);
            }
            mask &= mask - 1;
        }
        None
    }

    #[inline]
    fn remember(&mut self, rec: R) {
        if self.recs.len() < RECS_PER_BYTE && !self.recs.contains(&rec) {
            if rec.writes() {
                self.writes |= 1 << self.recs.len();
            }
            self.recs.push(rec);
        }
    }
}

/// The record lists, reused across resets: lists `1..live` are in use,
/// the rest keep their storage.
#[derive(Debug)]
struct Lists<R> {
    lists: Vec<RecList<R>>,
    live: usize,
}

impl<R: Record> Lists<R> {
    /// Takes `n` consecutive lists, each a copy of list `like` (or empty
    /// when `like` is [`EMPTY`]), and returns the first one's number.
    fn take(&mut self, n: usize, like: u32) -> u32 {
        let first = self.live;
        self.live += n;
        assert!(
            self.live <= SPLIT as usize,
            "shadow list numbers must stay below the split flag"
        );
        if self.lists.len() < self.live {
            self.lists.resize_with(self.live, || RecList {
                recs: Vec::new(),
                writes: 0,
            });
        }
        let (old, new) = self.lists.split_at_mut(first);
        for list in &mut new[..n] {
            list.recs.clear();
            list.writes = 0;
            if like != EMPTY {
                let src = &old[like as usize];
                list.recs.extend_from_slice(&src.recs);
                list.writes = src.writes;
            }
        }
        first as u32
    }
}

/// Word-granular shadow memory over both address spaces.
#[derive(Debug)]
pub(crate) struct Shadow<R> {
    /// Global arena word → slot.
    global: Vec<u32>,
    /// Global words whose slot was set since the last reset.
    touched: Vec<u32>,
    /// Block → shared-memory word → slot.
    shared: Vec<Vec<u32>>,
    lists: Lists<R>,
}

impl<R: Record> Shadow<R> {
    /// An empty shadow.
    pub(crate) fn new() -> Self {
        Shadow {
            global: Vec::new(),
            touched: Vec::new(),
            shared: Vec::new(),
            lists: Lists {
                lists: Vec::new(),
                live: 1,
            },
        }
    }

    /// Forgets every remembered access.
    pub(crate) fn reset(&mut self) {
        for &word in &self.touched {
            self.global[word as usize] = EMPTY;
        }
        self.touched.clear();
        for words in &mut self.shared {
            words.clear();
        }
        self.lists.live = 1;
    }

    /// Checks access `e`, remembered as `rec`, against every byte it
    /// touches: for each byte, in address order, calls `report(byte, prev)`
    /// with the first remembered access `prev` that `conflicts` accepts,
    /// then remembers `rec` there.
    #[inline]
    pub(crate) fn access(
        &mut self,
        e: &AccessEvent,
        rec: R,
        mut conflicts: impl FnMut(&R) -> bool,
        mut report: impl FnMut(u32, &R),
    ) {
        let writes = rec.writes();
        let end = e.addr + e.width;
        let mut word = e.addr / 4;
        while word * 4 < end {
            let lo = (word * 4).max(e.addr);
            let hi = (word * 4 + 4).min(end);
            let whole = hi - lo == 4;
            let w = word as usize;
            let slot = match e.space {
                Space::Global => {
                    if w >= self.global.len() {
                        self.global.resize(w + 1, EMPTY);
                    }
                    let slot = &mut self.global[w];
                    if *slot == EMPTY {
                        self.touched.push(word);
                    }
                    slot
                }
                Space::Shared => {
                    let b = e.block as usize;
                    if b >= self.shared.len() {
                        self.shared.resize_with(b + 1, Vec::new);
                    }
                    let words = &mut self.shared[b];
                    if w >= words.len() {
                        words.resize(w + 1, EMPTY);
                    }
                    &mut words[w]
                }
            };
            if *slot == EMPTY {
                *slot = if whole {
                    self.lists.take(1, EMPTY)
                } else {
                    self.lists.take(4, EMPTY) | SPLIT
                };
            } else if !whole && *slot & SPLIT == 0 {
                *slot = self.lists.take(4, *slot) | SPLIT;
            }
            let lists = &mut self.lists.lists;
            if *slot & SPLIT == 0 {
                let list = &mut lists[*slot as usize];
                if let Some(prev) = list.first_conflict(writes, &mut conflicts) {
                    for byte in lo..hi {
                        report(byte, &prev);
                    }
                }
                list.remember(rec);
            } else {
                let first = (*slot & !SPLIT) as usize + (lo - word * 4) as usize;
                for (list, byte) in lists[first..].iter_mut().zip(lo..hi) {
                    if let Some(prev) = list.first_conflict(writes, &mut conflicts) {
                        report(byte, &prev);
                    }
                    list.remember(rec);
                }
            }
            word += 1;
        }
    }
}
