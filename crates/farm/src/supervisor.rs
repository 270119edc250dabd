//! The worker fleet supervisor: run, reap, back off, quarantine.
//!
//! The supervisor owns a fixed number of worker *slots*. A slot runs one
//! cell at a time in its own worker subprocess (`farm --worker-cell`),
//! spawned and reaped through `ecl_bench::isolate`, the executor
//! `all_tests --isolate` uses. Each slot cycles idle → busy → idle; after
//! a worker death it waits out an exponential backoff (reset by the next
//! delivered result) before it takes another cell.
//!
//! Liveness is the cell deadline: a worker still running past its job's
//! `cell_timeout` is killed. The worker also arms the simulator deadline at
//! 0.9× that budget, so a runaway launch usually ends as a typed failure
//! before the kill.
//!
//! A death — abort, OOM, SIGKILL, deadline kill, or output that is not a
//! `WORKER_CELL/v1` document — counts as one failed *attempt* for the cell
//! the worker held. The cell is requeued at the front of its priority class
//! until it has consumed `max_attempts` attempts; then it is
//! **quarantined**: converted into one typed failure record
//! (`worker process died …`, the body [`ecl_bench::failure_json`] writes)
//! and a repro bundle, and the rest of the sweep proceeds. Attempt counts
//! key on (job, cell), not on the slot — a poison cell kills one worker per
//! attempt but only ever burns its own budget.

use crate::api::JobSpec;
use crate::queue::{CellQueue, CellTask};
use ecl_bench::isolate::{self, IsolateSpec, RunningCell, WorkerVerdict};
use ecl_bench::{failure_json, parse_cell_key, CellFailure, Json};
use ecl_core::suite::RunError;
use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Fleet tuning knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker slots (concurrent cells).
    pub workers: usize,
    /// The binary to spawn with `--worker-cell` (normally
    /// `std::env::current_exe()`).
    pub exe: PathBuf,
    /// Worker deaths a single cell may cause before quarantine.
    pub max_attempts: u32,
    /// First restart backoff; doubles per consecutive death of a slot.
    pub backoff_base_ms: u64,
    /// Backoff ceiling (before jitter; see [`restart_backoff_ms`]).
    pub backoff_cap_ms: u64,
    /// Seed for the deterministic per-slot restart jitter.
    pub jitter_seed: u64,
    /// Directory for the workers' stdout and stderr capture files.
    pub scratch: PathBuf,
}

/// The jittered exponential restart backoff, as a pure function so the
/// schedule can be pinned by tests: `base·2^min(deaths,16)` capped at
/// `cap`, plus a seed-derived jitter in `[0, exp/2]` mixed from
/// `(seed, slot, deaths)`.
///
/// Without the jitter a fleet whose workers all died together (shared
/// poison input, machine hiccup) restarts in lockstep and reconverges on
/// whatever killed it in lockstep too. Deriving the jitter from the slot
/// index decorrelates the slots; deriving it deterministically keeps farm
/// runs reproducible — the same seed always yields the same schedule.
pub fn restart_backoff_ms(base: u64, cap: u64, deaths: u32, seed: u64, slot: u64) -> u64 {
    let exp = base.saturating_mul(1u64 << deaths.min(16)).min(cap);
    let span = exp / 2 + 1;
    let mix = ecl_bench::splitmix64(
        seed ^ slot.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            ^ (deaths as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9),
    );
    exp.saturating_add(mix % span)
}

/// What a tick observed, in observation order.
#[derive(Debug)]
pub enum FleetOutcome {
    /// A worker returned a `WORKER_CELL/v1` verdict for its cell.
    CellDone {
        /// Owning job.
        job: String,
        /// Cell key.
        key: String,
        /// Measured (`true`) or typed in-process failure.
        ok: bool,
        /// The verdict body (cell or failure JSON).
        body: Json,
    },
    /// A cell exhausted its attempt budget killing workers.
    Quarantined {
        /// Owning job.
        job: String,
        /// Cell key.
        key: String,
        /// Failure body, shaped for [`ecl_bench::parse_failure`].
        body: Json,
        /// Attempts consumed.
        attempts: u32,
    },
}

enum SlotState {
    /// Waiting out a restart backoff after its worker died.
    Backoff(Instant),
    Idle,
    Busy(CellTask, RunningCell),
}

struct Slot {
    state: SlotState,
    /// Consecutive deaths (for backoff); reset by a delivered result.
    deaths: u32,
}

/// The supervised fleet. Drive it by calling [`Fleet::tick`] frequently
/// (every few milliseconds); all supervision is time-based and synchronous
/// inside `tick`, so there is nothing to join or lock elsewhere.
pub struct Fleet {
    cfg: FleetConfig,
    slots: Vec<Slot>,
    /// (job, key) → worker deaths charged to that cell.
    attempts: HashMap<(String, String), u32>,
    /// Known jobs: how to run each job's cells.
    jobs: HashMap<String, IsolateSpec>,
    /// Workers spawned so far; numbers their capture files.
    spawned: u64,
}

impl Fleet {
    /// A fleet with every slot idle.
    pub fn new(cfg: FleetConfig) -> Fleet {
        let slots = (0..cfg.workers.max(1))
            .map(|_| Slot {
                state: SlotState::Idle,
                deaths: 0,
            })
            .collect();
        Fleet {
            cfg,
            slots,
            attempts: HashMap::new(),
            jobs: HashMap::new(),
            spawned: 0,
        }
    }

    /// Registers a job so its cells can be assigned.
    pub fn register_job(&mut self, job: &JobSpec) {
        let spec = IsolateSpec {
            exe: self.cfg.exe.clone(),
            base_args: job.sweep.worker_args(),
            timeout: Duration::from_secs(job.sweep.cell_timeout),
            scratch: self.cfg.scratch.clone(),
        };
        self.jobs.insert(job.id.clone(), spec);
    }

    /// Forgets a finished job and its attempt counters.
    pub fn unregister_job(&mut self, id: &str) {
        self.jobs.remove(id);
        self.attempts.retain(|(job, _), _| job != id);
    }

    /// Busy slots right now.
    pub fn busy(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s.state, SlotState::Busy(..)))
            .count()
    }

    /// Starts slot `idx`'s backoff after a death (or a failed spawn).
    fn back_off(&mut self, idx: usize, now: Instant) {
        let slot = &mut self.slots[idx];
        slot.deaths = slot.deaths.saturating_add(1);
        let ms = restart_backoff_ms(
            self.cfg.backoff_base_ms,
            self.cfg.backoff_cap_ms,
            slot.deaths - 1,
            self.cfg.jitter_seed,
            idx as u64,
        );
        slot.state = SlotState::Backoff(now + Duration::from_millis(ms));
    }

    /// Charges a worker death to the cell it held: requeues the cell, or
    /// quarantines it once its attempts are spent.
    fn charge(
        &mut self,
        task: CellTask,
        error: RunError,
        queue: &mut CellQueue,
    ) -> Option<FleetOutcome> {
        let counter = self
            .attempts
            .entry((task.job.clone(), task.key.clone()))
            .or_insert(0);
        *counter += 1;
        let attempts = *counter;
        if attempts < self.cfg.max_attempts {
            queue.requeue(task);
            return None;
        }
        let (_, input, algorithm, gpu) =
            parse_cell_key(&task.key).expect("queued keys come from SweepSpec::cell_keys");
        let body = failure_json(&CellFailure {
            input: input.name(),
            algorithm,
            gpu: gpu.name,
            run: 0,
            error,
        });
        Some(FleetOutcome::Quarantined {
            job: task.job,
            key: task.key,
            body,
            attempts,
        })
    }

    /// One supervision step: end due backoffs, reap finished or overdue
    /// workers, and (when `assign` is true) start queued cells on idle
    /// slots. Returns the outcomes observed this tick.
    pub fn tick(&mut self, queue: &mut CellQueue, assign: bool) -> Vec<FleetOutcome> {
        let mut out = Vec::new();
        let now = Instant::now();

        for idx in 0..self.slots.len() {
            let slot = &mut self.slots[idx];
            let result = match &mut slot.state {
                SlotState::Backoff(until) if now >= *until => {
                    slot.state = SlotState::Idle;
                    continue;
                }
                SlotState::Busy(_, cell) => cell.poll(),
                _ => None,
            };
            let Some(result) = result else { continue };
            let SlotState::Busy(task, _) = std::mem::replace(&mut slot.state, SlotState::Idle)
            else {
                unreachable!("only a busy slot has a result")
            };
            let verdict = match result {
                Ok(verdict) => verdict,
                Err(error) => {
                    self.back_off(idx, now);
                    out.extend(self.charge(task, error, queue));
                    continue;
                }
            };
            slot.deaths = 0;
            self.attempts.remove(&(task.job.clone(), task.key.clone()));
            let (ok, body) = match verdict {
                WorkerVerdict::Ok(body) => (true, body),
                WorkerVerdict::Failed(body) => (false, body),
            };
            out.push(FleetOutcome::CellDone {
                job: task.job,
                key: task.key,
                ok,
                body,
            });
        }

        if assign {
            for idx in 0..self.slots.len() {
                if !matches!(self.slots[idx].state, SlotState::Idle) {
                    continue;
                }
                let Some(task) = queue.pop() else { break };
                let Some(spec) = self.jobs.get(&task.job) else {
                    // Job was abandoned while its cell sat queued; drop it.
                    continue;
                };
                self.spawned += 1;
                match isolate::spawn(spec, &task.key, self.spawned) {
                    Ok(cell) => self.slots[idx].state = SlotState::Busy(task, cell),
                    Err(e) => {
                        // The cell never ran, so it is not charged.
                        eprintln!("farm: cannot start a worker in slot {idx}: {e}");
                        queue.requeue(task);
                        self.back_off(idx, now);
                    }
                }
            }
        }
        out
    }

    /// Kills every running worker. Requeues nothing — callers drain or
    /// abandon the queue themselves.
    pub fn shutdown(&mut self) {
        for slot in &mut self.slots {
            // Dropping a running cell kills its worker.
            slot.state = SlotState::Idle;
        }
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::restart_backoff_ms;

    #[test]
    fn restart_backoff_schedule_is_pinned() {
        // The exact schedule for (base 100ms, cap 2000ms, seed 0xec1fa3a7):
        // exponential growth is visible, jitter is bounded by exp/2, slots
        // diverge, and the numbers are frozen — a silent change to the
        // mixing breaks this test, not production reproducibility.
        let sched = |slot: u64| -> Vec<u64> {
            (0..7)
                .map(|d| restart_backoff_ms(100, 2000, d, 0xec1f_a3a7, slot))
                .collect()
        };
        assert_eq!(sched(0), [114, 221, 547, 834, 2175, 2490, 2035]);
        assert_eq!(sched(1), [150, 254, 460, 938, 2347, 2546, 2388]);
        assert_eq!(
            (0..7)
                .map(|d| restart_backoff_ms(100, 2000, d, 1, 0))
                .collect::<Vec<_>>(),
            [144, 243, 508, 1003, 1810, 2381, 2346]
        );
    }

    #[test]
    fn restart_backoff_is_bounded_and_deterministic() {
        for deaths in 0..20 {
            for slot in 0..8u64 {
                let ms = restart_backoff_ms(100, 2000, deaths, 7, slot);
                let exp = 100u64.saturating_mul(1 << deaths.min(16)).min(2000);
                assert!(ms >= exp, "jitter never shortens the backoff");
                assert!(ms <= exp + exp / 2, "jitter bounded by exp/2");
                assert_eq!(ms, restart_backoff_ms(100, 2000, deaths, 7, slot));
            }
        }
        // Degenerate configs don't panic or overflow.
        assert_eq!(restart_backoff_ms(0, 0, 63, 0, 0), 0);
        let _ = restart_backoff_ms(u64::MAX, u64::MAX, u32::MAX, u64::MAX, u64::MAX);
    }

    #[test]
    fn slots_do_not_restart_in_lockstep() {
        // For any death count, at least some pair of slots must disagree —
        // the whole point of the jitter.
        for deaths in 0..6 {
            let times: Vec<u64> = (0..8)
                .map(|slot| restart_backoff_ms(100, 2000, deaths, 0xec1f_a3a7, slot))
                .collect();
            let first = times[0];
            assert!(
                times.iter().any(|&t| t != first),
                "deaths {deaths}: all slots at {first}ms"
            );
        }
    }
}
