//! Experiment harness for the Rewire reproduction.
//!
//! One module per concern:
//!
//! * [`experiments`] — the study's experiments, one table row each
//!   (workloads, mappers, default budget, printer), selected by name on
//!   the `repro` command line,
//! * [`workloads`] — the 47 benchmark–architecture combinations of Fig 5
//!   and the other experiments' kernel × fabric groups,
//! * [`runner`] — runs a set of mappers over workloads and collects rows,
//!   and parses the `repro` command line,
//! * [`mii_tightness`] — the exact-SAT MII-tightness study's snapshot
//!   and table (proven minimal II vs the MII bound vs capped heuristics),
//! * [`report`] — table printers and the summary statistics the paper
//!   quotes (speedups, optimal/near-optimal counts, time reductions),
//! * [`doctor`] — the reader behind `rewire-doctor`: joins observe
//!   directories into one per-run table, failure forensics (flight-log
//!   analysis, congestion heatmaps), span trees, and Chrome-trace
//!   validation.
//!
//! The `repro` binary regenerates every paper artefact
//! (`repro [EXPERIMENT...] [seconds_per_ii] [--jobs N] [--kernels a,b]
//! [--observe DIR]`); `--observe DIR` writes the runs' artifacts
//! ([`rewire_mappers::observe`]). See `EXPERIMENTS.md` at the workspace
//! root for recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doctor;
pub mod experiments;
pub mod mii_tightness;
pub mod report;
pub mod runner;
pub mod workloads;

pub use experiments::{Experiment, DEFAULT_EXPERIMENTS, EXPERIMENTS};
pub use mii_tightness::{render_markdown, render_snapshot, tightness_rows, TightnessRow};
pub use report::{print_fig5, print_fig6, print_table1, summarize, Summary};
pub use runner::{parallel_map, parse_cli, run_workloads, BenchArgs, Budget, MapperKind, Row};
pub use workloads::{
    fig5_workloads, fig6_workloads, scaling_workloads, table1_workloads, Workload,
};
