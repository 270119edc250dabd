//! Host-speed calibration: host times are scaled to a fixed reference speed.
//!
//! The hosts this benchmark runs on are shared. Other tenants slow the same
//! code by 1.3–2× for spells of several minutes, so a 25-second run can fall
//! wholly inside one, and no best-of or median over its own passes removes
//! that. So the benchmark also times three fixed reference loops of its own
//! right before and right after each pass, and scales the pass's host times
//! by `REFERENCE_US` over the median reference time: a pass that ran while
//! the loops ran 1.4× slow is reported 1.4× faster. The loops are the
//! benchmark's own code, so a change to the program moves scaled times
//! exactly as it moves raw ones; only the host's speed cancels. Sampling
//! between runs instead left the next run to refill the caches the loops
//! had used, which made short runs noisier.
//!
//! No single loop slows like the program does. In the spells measured, a
//! pointer chase through an L2-sized table slowed too little, a branchy
//! multiply chain too much, and a small hash-map workload about right. One
//! sample is the geometric mean of the three, each the fastest of three
//! tries. Over ten minutes of `repair-racy` passes with a spell of 1.45×,
//! the median of pass time over that sample, per 25-second window, varied
//! with a CV of 4%, where the median raw pass time varied with a CV of 16%.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

/// One sample's value on the quiet 2-core x86-64 container the benchmark
/// was sized on (the median over two quiet minutes), so that scaled times
/// read as that host's raw times when it is quiet.
pub const REFERENCE_US: f64 = 75.3;

const CHASE_LEN: usize = 1 << 16;
const TRIES: usize = 3;
/// Samples taken at each edge of a window.
const EDGE_SAMPLES: usize = 3;

pub struct Calibrator {
    /// A random cyclic permutation of `0..CHASE_LEN` (256 KiB).
    chase: Vec<u32>,
    /// Samples (µs) since the last `take_scale`.
    window: RefCell<Vec<f64>>,
}

fn fastest(f: impl Fn() -> u64) -> f64 {
    (0..TRIES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos() as f64 * 1e-3
        })
        .fold(f64::INFINITY, f64::min)
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut order: Vec<u32> = (0..CHASE_LEN as u32).collect();
        let mut h = 5;
        for i in (1..CHASE_LEN).rev() {
            h = crate::stats::mix(h, i as u64);
            order.swap(i, (h % (i as u64 + 1)) as usize);
        }
        let mut chase = vec![0u32; CHASE_LEN];
        for w in 0..CHASE_LEN {
            chase[order[w] as usize] = order[(w + 1) % CHASE_LEN];
        }
        Calibrator {
            chase,
            window: RefCell::new(Vec::new()),
        }
    }

    /// Dependent loads through the table: memory latency.
    fn chase(&self) -> u64 {
        let mut x = 0u32;
        for _ in 0..16_384 {
            x = self.chase[x as usize];
        }
        u64::from(x)
    }

    /// Four independent multiply chains with data-dependent branches:
    /// issue width, which a busy sibling hyperthread takes away.
    fn chains(&self) -> u64 {
        let (mut x, mut acc) = ([1u64, 2, 3, 4], 0u64);
        for i in 0..5_000u64 {
            for x in &mut x {
                let v = u64::from(self.chase[(*x as usize) & 1023]);
                *x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(v) ^ (*x >> 29);
                if *x & 3 == 1 {
                    acc = acc.wrapping_add(*x ^ i);
                } else {
                    acc ^= *x >> 7;
                }
            }
        }
        acc
    }

    /// Hash-map lookups and small vector pushes, sorts and allocations.
    fn map(&self) -> u64 {
        let mut m: HashMap<u64, Vec<u32>> = HashMap::new();
        let (mut h, mut acc) = (1u64, 0u64);
        for i in 0..3_000u64 {
            h = crate::stats::mix(h, i);
            let e = m.entry(h % 512).or_default();
            e.push(i as u32);
            if e.len() > 6 {
                e.sort_unstable();
                e.truncate(2);
            }
            acc = acc.wrapping_add(
                m.get(&(h.rotate_left(7) % 512))
                    .map_or(0, |v| v.len() as u64),
            );
        }
        acc
    }

    /// Takes the samples that open or close a window.
    pub fn edge(&self) {
        for _ in 0..EDGE_SAMPLES {
            let us = fastest(|| self.chase()) * fastest(|| self.chains()) * fastest(|| self.map());
            self.window.borrow_mut().push(us.cbrt());
        }
    }

    /// The factor that scales host times of the window since the last call
    /// to the reference speed, and starts a new window.
    pub fn take_scale(&self) -> f64 {
        REFERENCE_US / crate::stats::median(&self.window.take())
    }
}
