//! # sal-bench — experiment machinery regenerating the paper's tables & figures
//!
//! The paper's evaluation artifacts are **Table 1** (complexity / fairness
//! comparison of abortable locks) and **Figures 1–5** (the algorithms and
//! their cost behaviours). This crate measures all of them on the exact
//! CC cost model via `sal-memory`/`sal-runtime`:
//!
//! * `cargo run -p sal-bench --bin table1 -- <worst-case|no-abort|adaptive|space|fairness|all>`
//! * `cargo run -p sal-bench --bin figures -- <fig2|fig4|fig5|logw|all>`
//!
//! Lock wall-clock timings live in the `perfbench` package at the
//! repository root, which times the real `sal-sync` surfaces against
//! `std::sync::Mutex` and the classic locks.
//!
//! The library half provides the lock registry (build any lock in the
//! workspace by kind), the workload builders, and plain-text/JSON result
//! rendering. `EXPERIMENTS.md` at the repo root records paper-vs-measured
//! for every experiment id defined in `DESIGN.md`.

#![warn(missing_docs)]

pub mod cli;
pub mod grid;
pub mod registry;
pub mod report;
pub mod workloads;

pub use cli::Cli;
pub use grid::{par_grid, parse_jobs_args};
pub use registry::{build_lock, AnyLock, LockKind};
pub use report::{export_events, save_artifact, save_json, save_json_with_log, RmrSummary, Table};
pub use workloads::{
    adaptive_sweep, adaptive_sweep_probed, amortized_sweep, no_abort_sweep, no_abort_sweep_probed,
    space_row, worst_case_sweep, worst_case_sweep_probed, AmortizedPoint, ExploreCell, SweepPoint,
};
