//! The experiment harness: reproduces the paper's Tables IV–IX and Fig. 6.
//!
//! The paper's methodology (§V): run every baseline and race-free code on
//! every appropriate input on each of four GPUs, nine times each, and report
//! the speedup `baseline_time / racefree_time` from the median runtimes.
//! This crate drives the same matrix on the simulator (default 3 seeds,
//! `runs(9)` restores the paper's count), computes the per-input speedups,
//! the min/geomean/max summary rows, the Fig. 6 geomean chart, and the
//! Table IX Pearson correlations against graph properties.
//!
//! # Example
//!
//! ```no_run
//! use ecl_bench::{Experiment, Matrix};
//!
//! let matrix = Matrix::quick().scale(0.25);
//! let undirected = matrix.run_undirected();
//! println!("{}", undirected.table(&ecl_simt::GpuConfig::a100()));
//! ```

pub mod export;
pub mod interrupt;
pub mod isolate;
pub mod journal;
mod matrix;
pub mod repro;
mod stats;
pub mod storage;
mod tables;

/// The deterministic job pool the sweeps run their cells on.
pub use ecl_native::pool;
pub use export::{
    cell_json, failure_json, parse_cell, parse_failure, resolve_input_name, run_stats_json,
    table_from_records, table_json, BenchReport, Json, SweepTiming,
};
pub use interrupt::{
    force_quit_requested, install_interrupt_handler, interrupted, spawn_force_quit_watcher,
};
pub use isolate::{cap_tail, IsolateSpec, STDERR_TAIL_BUDGET};
pub use journal::{Journal, JournalWriter, LoadError};
pub use matrix::{
    cell_key, graph_seed, relative_deviation, sched_seed, set_cell_keys, set_plan, CellFailure,
    Experiment, Matrix, MeasuredCell, MeasuredTable, SweepControl, VariantArg, VariantProfile,
};
pub use stats::{geomean, median, pearson};
pub use storage::{
    splitmix64, DurableFile, FaultPlan, MemFs, Storage, StorageBackend, StorageError,
    StorageErrorKind,
};
pub use tables::{format_fig6, format_speedup_table, format_table9, to_csv};
