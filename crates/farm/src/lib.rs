//! The sweep farm: a long-lived daemon executing sweep jobs on a
//! supervised worker fleet.
//!
//! `all_tests --isolate` runs *one* sweep, spawning a worker per cell.
//! The farm turns that into a *service*: it accepts sweep-specification
//! jobs over a JSONL API (stdin or TCP), schedules their cells onto a
//! fixed number of worker slots, each running one cell at a time in its own
//! subprocess, and survives anything short of losing the state directory:
//!
//! * a worker that panics, aborts, or is OOM-killed is reaped when it
//!   exits, one that hangs is killed at its cell deadline, and its slot
//!   backs off exponentially before it takes the next cell, while the cell
//!   is retried;
//! * a cell that kills its worker [`supervisor::FleetConfig::max_attempts`]
//!   times is **quarantined** — one typed failure record plus a repro
//!   bundle — while the rest of the sweep proceeds;
//! * a daemon that is `kill -9`'d restarts, replays its fsync'd job store
//!   and per-job journals, and finishes every accepted job with reports
//!   **byte-identical** to an uninterrupted run.
//!
//! The determinism inheritance is the point: a job's sweep is an
//! [`ecl_bench::SweepSpec`], and its cells run through the executor
//! `all_tests --isolate` uses (`ecl_bench::isolate`) and are measured by
//! the function every `all_tests` worker runs ([`ecl_bench::measure_cell`]).
//! They are journaled in the same `ecl-bench/JOURNAL/v1` format, and
//! reports are reassembled from journal bodies in canonical cell order with
//! the experiment's `jobs` pinned to 1 — so fleet size, scheduling order,
//! worker deaths, and daemon restarts are all invisible in the output
//! bytes. Repro bundles come from [`ecl_bench::repro::Bundle::for_cell`],
//! as in `all_tests`, so `all_tests --replay` re-runs a quarantined cell
//! with the job's own flags.
//!
//! Module map: [`api`] (job schema), [`queue`] (bounded priority queue),
//! [`submit`] (the admission/ACK contract), [`supervisor`] (the fleet),
//! [`worker`] (`farm --worker-cell`, the worker side), [`recovery`]
//! (durable job store, journals, report assembly). All durable writes go
//! through `ecl_bench::storage`, so every path here is exercised under
//! injected storage faults and simulated power loss
//! (`tests/crash_consistency.rs`); see DESIGN.md §12 for the durability
//! model. The `farm` binary wires them together; see `README.md` for the
//! quickstart.

pub mod api;
pub mod queue;
pub mod recovery;
pub mod submit;
pub mod supervisor;
pub mod worker;

pub use api::{ack, event, job_json, parse_job, JobSpec, SweepSpec};
pub use queue::{CellQueue, CellTask};
pub use recovery::{ActiveJob, JobStore, StoreError, StoredJob};
pub use submit::{admit, Admission};
pub use supervisor::{restart_backoff_ms, Fleet, FleetConfig, FleetOutcome};
