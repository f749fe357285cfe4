//! Shared harness for the per-figure experiment binaries.
//!
//! Every table and figure in the paper's evaluation has a binary in
//! `src/bin/` (see DESIGN.md's experiment index). Each binary prints the
//! rows/series the paper reports to stdout and writes a JSON record into
//! `results/` (override with `VERUS_RESULTS`). `repro_all` runs the whole
//! set.
//!
//! This library holds the pieces those binaries share: protocol
//! factories, simulation runners for the two testbed shapes (dumbbell and
//! trace-driven cell), the chaos soak's runs, and the table/JSON output
//! helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod output;
pub mod parallel;
pub mod runners;
pub mod soak;

pub use output::{guard_finite, print_table, results_dir, write_json};
pub use parallel::{default_jobs, run_ordered};
pub use runners::{
    cc_by_name, cell_experiment, dumbbell_experiment, CellExperiment, DumbbellExperiment,
    ProtocolSpec,
};
