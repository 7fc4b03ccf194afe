//! `rewire-report` — aggregates an experiment's observability artefacts.
//!
//! Takes the run records written by `--trace` (one `MapStats` JSON line
//! per run) and any number of metrics snapshots written by `--metrics`,
//! and prints one table row per record (fabric, II achieved, MII, IIs
//! explored, iterations, time) joined with the router/mapper counters of
//! the record's `mapper/kernel@fabric` scope, one `MapStats` line per
//! run, and the span-timer time breakdown.
//!
//! Usage: `rewire-report <trace.jsonl> [metrics.json ...]`
//!
//! Exit status: 0 = report printed, 1 = empty trace or malformed input,
//! 2 = usage error.

use rewire_bench::obs_report::{load_snapshots, parse_records, render_report};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((trace_path, snapshot_paths)) = args.split_first() else {
        eprintln!("usage: rewire-report <trace.jsonl> [metrics.json ...]");
        return ExitCode::from(2);
    };

    let trace_text = match std::fs::read_to_string(trace_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("{trace_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let runs = match parse_records(&trace_text) {
        Ok(runs) => runs,
        Err(e) => {
            eprintln!("{trace_path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if runs.is_empty() {
        eprintln!("{trace_path}: trace contains no runs");
        return ExitCode::FAILURE;
    }

    let mut snapshot_texts = Vec::new();
    for path in snapshot_paths {
        match std::fs::read_to_string(path) {
            Ok(t) => snapshot_texts.push((path.clone(), t)),
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::from(2);
            }
        }
    }
    let snapshot = if snapshot_texts.is_empty() {
        None
    } else {
        match load_snapshots(&snapshot_texts) {
            Ok(s) => Some(s),
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    };

    print!("{}", render_report(&runs, snapshot.as_ref()));
    ExitCode::SUCCESS
}
