//! `rewire-doctor` — diagnoses mapping runs from their observe
//! directories.
//!
//! Reads one or more directories written by `--observe DIR` (run records,
//! metrics snapshot, flight log; several directories are joined) and
//! prints the diagnosis: one row per run with II vs MII, failures first,
//! joined with its scope's router counters; the most-failed DFG edges;
//! the top contended resources with one ASCII fabric heatmap per run
//! scope; the merged span tree; each scope's own span tree and
//! histogram tails; and the flight summary (ring drops, phase heartbeats,
//! detected stalls).
//!
//! `--validate-chrome FILE` instead validates a Chrome `trace_event`
//! export (an observe directory's `chrome.json`, or the benchmark's
//! `<workload>.chrome.json`): well-formed JSON, balanced `B`/`E` pairs in
//! stack order per thread, monotonic per-thread timestamps.
//!
//! Usage:
//!   rewire-doctor [--top K] DIR...
//!   rewire-doctor --validate-chrome FILE
//!
//! Exit status: 0 = diagnosis printed / trace valid, 1 = malformed input
//! or invalid trace, 2 = usage error.

use rewire_bench::doctor::{diagnose, validate_chrome, Evidence};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str =
    "usage: rewire-doctor [--top K] DIR...\n       rewire-doctor --validate-chrome FILE";

struct Args {
    dirs: Vec<PathBuf>,
    validate_chrome: Option<String>,
    top: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        dirs: Vec::new(),
        validate_chrome: None,
        top: 10,
    };
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        let top = |v: String| {
            v.parse()
                .map_err(|_| "--top needs a positive integer".to_string())
        };
        if arg == "--validate-chrome" {
            parsed.validate_chrome = Some(take("--validate-chrome")?);
        } else if let Some(v) = arg.strip_prefix("--validate-chrome=") {
            parsed.validate_chrome = Some(v.to_string());
        } else if arg == "--top" {
            parsed.top = top(take("--top")?)?;
        } else if let Some(v) = arg.strip_prefix("--top=") {
            parsed.top = top(v.to_string())?;
        } else if arg.starts_with("--") {
            return Err(format!("unrecognised argument {arg:?}"));
        } else {
            parsed.dirs.push(arg.into());
        }
    }
    if parsed.validate_chrome.is_none() && parsed.dirs.is_empty() {
        return Err("nothing to do: give an observe directory or --validate-chrome".into());
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<String, String> {
    if let Some(path) = &args.validate_chrome {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let summary = validate_chrome(&text).map_err(|e| format!("{path}: {e}"))?;
        return Ok(format!(
            "{path}: valid chrome trace ({} events, {} span pairs, {} instants)\n",
            summary.events, summary.spans, summary.instants
        ));
    }
    Ok(diagnose(&Evidence::load(&args.dirs)?, args.top))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rewire-doctor: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            print!("{report}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("rewire-doctor: {e}");
            ExitCode::FAILURE
        }
    }
}
