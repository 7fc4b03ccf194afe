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
//! * [`obs_report`] — run-record/metrics aggregation behind
//!   `rewire-report`,
//! * [`doctor`] — failure forensics behind `rewire-doctor` (flight-log
//!   analysis, congestion heatmaps, Chrome-trace validation).
//!
//! The binaries `fig5`, `fig6`, `table1` and `repro` regenerate each paper
//! artefact (all accept `--trace FILE`, `--metrics FILE`,
//! `--chrome-trace FILE` and `--flight FILE`); see `EXPERIMENTS.md` at the
//! workspace root for recorded outputs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod doctor;
pub mod mii_tightness;
pub mod obs_report;
pub mod report;
pub mod runner;
pub mod workloads;

pub use mii_tightness::{mii_tightness_rows, render_markdown, render_snapshot, TightnessRow};
pub use report::{print_fig5, print_fig6, print_table1, summarize, to_markdown, Summary};
pub use runner::{parallel_map, parse_cli, run_workloads, write_trace, BenchArgs, MapperKind, Row};
pub use workloads::{
    fig5_workloads, fig6_workloads, scaling_workloads, table1_workloads, Workload,
};
