//! SPMD thread teams: scoped threads + a shared barrier, the native
//! analogue of a persistent-threads kernel launch.
//!
//! Every algorithm runs as one team executing the same round-structured
//! code; `Barrier::wait` separates rounds the way kernel launch boundaries
//! do on the device. A barrier is also a synchronization edge in the Rust
//! memory model, so values written before a wait are visible after it even
//! to the racy baseline policy — which is exactly the guarantee a kernel
//! boundary gives the published CUDA codes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Resolves the worker-thread count: an explicit request (`--threads N`)
/// beats the `ECL_THREADS` environment variable beats the machine's
/// available parallelism. Clamped to `1..=256`.
pub fn thread_count(explicit: Option<usize>) -> usize {
    explicit
        .or_else(|| {
            std::env::var("ECL_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
        })
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        })
        .clamp(1, 256)
}

/// One team member's identity and the team's barrier.
pub struct TeamCtx<'a> {
    /// This member's index in `0..threads`.
    pub tid: usize,
    /// Team size.
    pub threads: usize,
    /// Schedule-perturbation seed the team was launched with.
    pub seed: u64,
    barrier: &'a Barrier,
}

impl TeamCtx<'_> {
    /// Waits for the whole team (a kernel-boundary-equivalent sync edge).
    pub fn barrier(&self) {
        self.barrier.wait();
    }

    /// This member's contiguous share of `0..n` for the current pass,
    /// rotated by the schedule seed so different seeds hand different
    /// vertices to different threads — the native analogue of the
    /// simulator's scheduler-seed perturbation.
    pub fn my_block(&self, n: usize) -> std::ops::Range<usize> {
        let worker = (self.tid + self.seed as usize) % self.threads;
        block_of(n, worker, self.threads)
    }
}

/// The `worker`-th of `workers` contiguous, balanced blocks of `0..n`.
pub fn block_of(n: usize, worker: usize, workers: usize) -> std::ops::Range<usize> {
    let per = n / workers;
    let extra = n % workers;
    let start = worker * per + worker.min(extra);
    let len = per + usize::from(worker < extra);
    start..(start + len).min(n)
}

/// Runs `f` on `threads` scoped team members sharing one barrier. Returns
/// once every member finished, with the team's wall time from launch to
/// join — the native counterpart of a run's simulated launch cycles, so
/// set-up before the team and post-processing after it stay out of it.
/// Panics propagate.
pub fn run_team<F>(threads: usize, seed: u64, f: F) -> Duration
where
    F: Fn(TeamCtx<'_>) + Sync,
{
    assert!(threads >= 1, "a team needs at least one thread");
    let barrier = Barrier::new(threads);
    let start = Instant::now();
    if threads == 1 {
        // Degenerate team: run inline (no spawn cost, easier debugging).
        f(TeamCtx {
            tid: 0,
            threads,
            seed,
            barrier: &barrier,
        });
        return start.elapsed();
    }
    std::thread::scope(|s| {
        for tid in 0..threads {
            let barrier = &barrier;
            let f = &f;
            s.spawn(move || {
                f(TeamCtx {
                    tid,
                    threads,
                    seed,
                    barrier,
                })
            });
        }
    });
    start.elapsed()
}

/// A dynamic work ticket: threads grab disjoint index chunks until `n` is
/// exhausted — the load-balancing analogue of a grid-stride loop over a
/// worklist whose items have very uneven cost.
pub struct Tickets {
    next: AtomicUsize,
    n: usize,
    chunk: usize,
}

impl Tickets {
    /// A ticket dispenser over `0..n` in chunks of `chunk` (min 1).
    pub fn new(n: usize, chunk: usize) -> Tickets {
        Tickets {
            next: AtomicUsize::new(0),
            n,
            chunk: chunk.max(1),
        }
    }

    /// Grabs the next chunk, or `None` when the range is exhausted.
    pub fn grab(&self) -> Option<std::ops::Range<usize>> {
        let start = self.next.fetch_add(self.chunk, Ordering::Relaxed);
        if start >= self.n {
            return None;
        }
        Some(start..(start + self.chunk).min(self.n))
    }

    /// Rewinds the dispenser for another pass (call between barriers only).
    pub fn reset(&self) {
        self.next.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn blocks_cover_and_partition() {
        for n in [0usize, 1, 7, 64, 1000] {
            for workers in [1usize, 2, 3, 8] {
                let mut seen = vec![false; n];
                for w in 0..workers {
                    for i in block_of(n, w, workers) {
                        assert!(!seen[i], "index {i} covered twice");
                        seen[i] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s), "n={n} workers={workers}");
            }
        }
    }

    #[test]
    fn my_block_rotation_still_partitions() {
        let barrier = Barrier::new(1);
        for seed in [0u64, 1, 5, 1234] {
            let mut seen = [false; 100];
            for tid in 0..4 {
                let ctx = TeamCtx {
                    tid,
                    threads: 4,
                    seed,
                    barrier: &barrier,
                };
                for i in ctx.my_block(100) {
                    assert!(!seen[i]);
                    seen[i] = true;
                }
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn team_sums_in_parallel() {
        let total = AtomicU64::new(0);
        run_team(4, 0, |ctx| {
            let mut local = 0u64;
            for i in ctx.my_block(1000) {
                local += i as u64;
            }
            total.fetch_add(local, Ordering::Relaxed);
            ctx.barrier();
        });
        assert_eq!(total.load(Ordering::Relaxed), 999 * 1000 / 2);
    }

    #[test]
    fn tickets_cover_exactly_once() {
        let t = Tickets::new(1003, 17);
        let hits = (0..1003).map(|_| AtomicU64::new(0)).collect::<Vec<_>>();
        run_team(8, 0, |_ctx| {
            while let Some(r) = t.grab() {
                for i in r {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                }
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        t.reset();
        assert_eq!(t.grab(), Some(0..17));
    }

    #[test]
    fn thread_count_clamps() {
        assert_eq!(thread_count(Some(0)), 1);
        assert_eq!(thread_count(Some(3)), 3);
        assert_eq!(thread_count(Some(100_000)), 256);
        assert!(thread_count(None) >= 1);
    }
}
