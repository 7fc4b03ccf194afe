//! Experiment harness for the Rewire reproduction.
//!
//! One module per paper artefact:
//!
//! * [`workloads`] — the 47 benchmark–architecture combinations of Fig 5,
//! * [`runner`] — runs a set of mappers over workloads and collects rows,
//! * [`mii_tightness`] — the exact-SAT MII-tightness study (proven
//!   minimal II vs the MII bound vs capped heuristics),
//! * [`report`] — table/series printers and the summary statistics the
//!   paper quotes (speedups, optimal/near-optimal counts, time reductions),
//! * [`doctor`] — the reader behind `rewire-doctor`: joins observe
//!   directories into one per-run table, failure forensics (flight-log
//!   analysis, congestion heatmaps), span trees, and Chrome-trace
//!   validation.
//!
//! The binaries `fig5`, `fig6`, `table1`, `repro`, `ablation` and
//! `scaling` regenerate each paper artefact; each takes `--observe DIR`
//! to write the runs' artifacts ([`rewire_mappers::observe`]). See
//! `EXPERIMENTS.md` at the workspace root for recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doctor;
pub mod mii_tightness;
pub mod report;
pub mod runner;
pub mod workloads;

pub use mii_tightness::{mii_tightness_rows, render_markdown, render_snapshot, TightnessRow};
pub use report::{print_fig5, print_fig6, print_table1, summarize, to_markdown, Summary};
pub use runner::{parallel_map, parse_cli, run_workloads, BenchArgs, MapperKind, Row};
pub use workloads::{
    fig5_workloads, fig6_workloads, scaling_workloads, table1_workloads, Workload,
};
