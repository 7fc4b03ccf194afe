//! `rewire-doctor` — diagnoses a mapping run from its observability
//! artefacts.
//!
//! Reads whatever the run left behind — the run records (`--trace`, one
//! `MapStats` JSON line per run), metrics snapshots (`--metrics`,
//! repeatable), and the flight-recorder decision log (`--flight`) — and
//! prints a diagnosis: II-vs-MII gap per run with failures first, the
//! most-failed DFG edges, the top contended resources with one ASCII
//! fabric heatmap per run scope, the span-tree time breakdown, and the
//! flight summary (ring drops, phase heartbeats, detected stalls).
//!
//! `--validate-chrome FILE` instead validates a Chrome `trace_event`
//! export (written by `--chrome-trace`): well-formed JSON, balanced
//! `B`/`E` pairs in stack order per thread, monotonic per-thread
//! timestamps. CI runs this against the fig5 smoke trace.
//!
//! Usage:
//!   rewire-doctor [--trace FILE] [--metrics FILE ...] [--flight FILE] [--top K]
//!   rewire-doctor --validate-chrome FILE
//!
//! Exit status: 0 = diagnosis printed / trace valid, 1 = malformed input
//! or invalid trace, 2 = usage error.

use rewire_bench::doctor::{diagnose, parse_flight, validate_chrome, FlightData};
use rewire_bench::obs_report::{load_snapshots, parse_records};
use rewire_mappers::MapStats;
use rewire_obs::Snapshot;
use std::process::ExitCode;

struct Args {
    trace: Option<String>,
    metrics: Vec<String>,
    flight: Option<String>,
    validate_chrome: Option<String>,
    top: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        trace: None,
        metrics: Vec::new(),
        flight: None,
        validate_chrome: None,
        top: 10,
    };
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a file path"))
        };
        if arg == "--trace" {
            parsed.trace = Some(take("--trace")?);
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            parsed.trace = Some(v.to_string());
        } else if arg == "--metrics" {
            parsed.metrics.push(take("--metrics")?);
        } else if let Some(v) = arg.strip_prefix("--metrics=") {
            parsed.metrics.push(v.to_string());
        } else if arg == "--flight" {
            parsed.flight = Some(take("--flight")?);
        } else if let Some(v) = arg.strip_prefix("--flight=") {
            parsed.flight = Some(v.to_string());
        } else if arg == "--validate-chrome" {
            parsed.validate_chrome = Some(take("--validate-chrome")?);
        } else if let Some(v) = arg.strip_prefix("--validate-chrome=") {
            parsed.validate_chrome = Some(v.to_string());
        } else if arg == "--top" {
            parsed.top = take("--top")?
                .parse()
                .map_err(|_| "--top needs a positive integer".to_string())?;
        } else if let Some(v) = arg.strip_prefix("--top=") {
            parsed.top = v
                .parse()
                .map_err(|_| "--top needs a positive integer".to_string())?;
        } else {
            return Err(format!("unrecognised argument {arg:?}"));
        }
    }
    if parsed.validate_chrome.is_none()
        && parsed.trace.is_none()
        && parsed.metrics.is_empty()
        && parsed.flight.is_none()
    {
        return Err("nothing to do: give --trace/--metrics/--flight or --validate-chrome".into());
    }
    Ok(parsed)
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

fn run(args: &Args) -> Result<String, String> {
    if let Some(path) = &args.validate_chrome {
        let summary = validate_chrome(&read(path)?).map_err(|e| format!("{path}: {e}"))?;
        return Ok(format!(
            "{path}: valid chrome trace ({} events, {} span pairs, {} instants)\n",
            summary.events, summary.spans, summary.instants
        ));
    }

    let runs: Vec<MapStats> = match &args.trace {
        Some(path) => parse_records(&read(path)?).map_err(|e| format!("{path}: {e}"))?,
        None => Vec::new(),
    };
    let snapshot: Option<Snapshot> = if args.metrics.is_empty() {
        None
    } else {
        let mut texts = Vec::new();
        for path in &args.metrics {
            texts.push((path.clone(), read(path)?));
        }
        Some(load_snapshots(&texts)?)
    };
    let flight: Option<FlightData> = match &args.flight {
        Some(path) => Some(parse_flight(&read(path)?).map_err(|e| format!("{path}: {e}"))?),
        None => None,
    };
    Ok(diagnose(
        &runs,
        snapshot.as_ref(),
        flight.as_ref(),
        args.top,
    ))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rewire-doctor: {e}");
            eprintln!(
                "usage: rewire-doctor [--trace FILE] [--metrics FILE ...] [--flight FILE] [--top K]"
            );
            eprintln!("       rewire-doctor --validate-chrome FILE");
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
