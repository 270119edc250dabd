//! Host-thread primitives: SPMD thread teams for the native kernels, and a
//! deterministic job pool for independent jobs.
//!
//! A team is scoped threads + a shared barrier, the native analogue of a
//! persistent-threads kernel launch. Every algorithm runs as one team
//! executing the same round-structured code; `Barrier::wait` separates
//! rounds the way kernel launch boundaries do on the device. A barrier is
//! also a synchronization edge in the Rust memory model, so values written
//! before a wait are visible after it even to the racy baseline policy —
//! which is exactly the guarantee a kernel boundary gives the published
//! CUDA codes.
//!
//! The job pool ([`run_indexed`], [`run_indexed_until`]) runs a flat list of
//! independent jobs — the sweeps' matrix cells, repair verification's
//! catalog inputs — whose results must come back *in job order*,
//! bit-identical to a serial run, no matter how many workers execute them.
//! It keeps that contract trivially:
//!
//! - work is claimed from a shared atomic index (no per-worker striding, so
//!   load imbalance between cheap and expensive jobs self-levels);
//! - every job function receives its job index and must derive all of its
//!   randomness from it (the matrix's per-cell seeds are position-derived,
//!   never drawn from shared mutable state);
//! - each worker tags results with their job index, and the caller
//!   reassembles them in index order.
//!
//! `std::thread::scope` borrows the job closure and job list directly, so
//! the pool works with non-`'static` data.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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

/// Runs `jobs` independent jobs on up to `workers` threads and returns the
/// results in job order.
///
/// `f(i)` must be a pure function of `i` (plus shared immutable state) for
/// the output to be independent of the schedule; the pool guarantees only
/// that each index runs exactly once and results are reassembled in order.
/// With `workers <= 1` the jobs run inline on the caller's thread in index
/// order — the serial reference the determinism tests compare against.
///
/// # Panics
///
/// Propagates the first panic observed in a worker (after all workers have
/// drained). Sweeps that must survive bad cells catch per-cell failures
/// inside `f` (see `ecl_core::suite::run_cell`).
pub fn run_indexed<T, F>(workers: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    run_indexed_until(workers, jobs, None, f)
        .into_iter()
        .map(|slot| slot.expect("without a stop flag every job runs"))
        .collect()
}

/// [`run_indexed`] with a cooperative stop flag: once `stop` reads `true`,
/// no *new* job index is claimed — jobs already in flight run to completion
/// (a half-measured cell is worthless; a completed one is journalable).
///
/// Returns one slot per job index: `Some(result)` for jobs that ran,
/// `None` for jobs abandoned to the stop flag. With `stop` never raised
/// every slot is `Some` — the abort path costs one relaxed load per claim.
pub fn run_indexed_until<T, F>(
    workers: usize,
    jobs: usize,
    stop: Option<&AtomicBool>,
    f: F,
) -> Vec<Option<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let stopped = || stop.is_some_and(|s| s.load(Ordering::Relaxed));
    let workers = workers.max(1).min(jobs.max(1));
    let mut out: Vec<Option<T>> = (0..jobs).map(|_| None).collect();
    if workers == 1 {
        for (i, slot) in out.iter_mut().enumerate() {
            if stopped() {
                break;
            }
            *slot = Some(f(i));
        }
        return out;
    }

    let next = AtomicUsize::new(0);
    let tagged: Vec<(usize, T)> = std::thread::scope(|scope| {
        let next = &next;
        let f = &f;
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(move || {
                    let mut mine = Vec::new();
                    loop {
                        if stopped() {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= jobs {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });

    for (i, v) in tagged {
        out[i] = Some(v);
    }
    out
}

/// The worker count the job pool's callers default to: the `ECL_JOBS`
/// environment variable if set to a positive integer, otherwise the
/// machine's available parallelism, otherwise 1.
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var("ECL_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
        eprintln!("ignoring ECL_JOBS='{v}' (need a positive integer)");
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
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

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 3, 8] {
            let out = run_indexed(workers, 100, |i| i * i);
            assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let counters: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
        let _ = run_indexed(4, 64, |i| counters[i].fetch_add(1, Ordering::Relaxed));
        assert!(counters.iter().all(|c| c.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn zero_jobs_and_oversubscription_are_fine() {
        assert!(run_indexed::<u32, _>(8, 0, |_| unreachable!()).is_empty());
        assert_eq!(run_indexed(64, 3, |i| i), vec![0, 1, 2]);
    }

    #[test]
    fn worker_panic_propagates() {
        let r = std::panic::catch_unwind(|| {
            run_indexed(2, 8, |i| {
                if i == 5 {
                    panic!("job 5 exploded");
                }
                i
            })
        });
        assert!(r.is_err());
    }

    #[test]
    fn until_without_a_stop_flag_matches_run_indexed() {
        for workers in [1, 3] {
            let out = run_indexed_until(workers, 20, None, |i| i * 3);
            assert_eq!(
                out,
                (0..20).map(|i| Some(i * 3)).collect::<Vec<_>>(),
                "workers={workers}"
            );
        }
    }

    #[test]
    fn raised_stop_flag_abandons_unclaimed_jobs() {
        let stop = AtomicBool::new(false);
        let out = run_indexed_until(2, 64, Some(&stop), |i| {
            if i == 4 {
                stop.store(true, Ordering::Relaxed);
            }
            i
        });
        // In-flight jobs complete; the tail is abandoned.
        assert_eq!(out[4], Some(4));
        assert!(out.iter().any(|s| s.is_none()), "nothing was abandoned");
        for (i, s) in out.iter().enumerate() {
            if let Some(v) = s {
                assert_eq!(*v, i);
            }
        }
    }

    #[test]
    fn pre_raised_stop_flag_runs_nothing() {
        let stop = AtomicBool::new(true);
        let out = run_indexed_until(4, 16, Some(&stop), |i| i);
        assert!(out.iter().all(Option::is_none));
    }

    #[test]
    fn borrows_non_static_data() {
        let data = [10usize, 20, 30, 40];
        let out = run_indexed(2, data.len(), |i| data[i] + 1);
        assert_eq!(out, vec![11, 21, 31, 41]);
    }
}
