//! Differential fuzzing driver.
//!
//! Usage:
//! `rewire-fuzz [--seeds A..B] [--budget-ms N] [--jobs N] [--corpus DIR]
//!              [--observe DIR] [--replay DIR]`
//!
//! Every mapper routes with the one pruned router, fan-out as shared
//! route trees; there is no routing mode to select.
//!
//! Default mode fuzzes the seed range (default `0..256`): every seed is a
//! random DFG on a random fabric, mapped by Rewire, PF*, SA and the exact
//! SAT backend and checked against the oracle stack, the SAT verdicts
//! included. Failures are shrunk to minimal reproducers and written to
//! the corpus directory (default `fuzz/corpus`), and the process exits 1.
//!
//! `--budget-ms N` (default 10000) is the per-II wall-clock safety net of
//! all four mappers; their deterministic caps are meant to bind first, so
//! outcomes replay byte-identically on any machine.
//!
//! `--replay DIR` instead replays every `.dfg` artifact in DIR and checks
//! each against its recorded expectation (the CI regression mode).
//!
//! `--observe DIR` writes an observe directory (`rewire_mappers::observe`)
//! when the campaign ends: every seed's four run records on its original
//! scenario, the metrics snapshot (the `fuzz` scope holds the campaign
//! counters), the flight log and the Chrome trace. A replay reports
//! verdicts, not runs, so its `runs.jsonl` is empty.
//!
//! A malformed command line prints the usage and exits 2.

use rewire_fuzz::{fuzz_range, replay, Artifact, CheckKind, FuzzConfig};
use rewire_mappers::{observe, MapStats};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: rewire-fuzz [--seeds A..B] [--budget-ms N] [--jobs N] \
[--corpus DIR] [--observe DIR] [--replay DIR]";

struct Args {
    seeds: std::ops::Range<u64>,
    budget_ms: u64,
    jobs: usize,
    corpus: PathBuf,
    observe: Option<PathBuf>,
    replay: Option<PathBuf>,
}

fn parse_seed_range(v: &str) -> Result<std::ops::Range<u64>, String> {
    let (lo, hi) = v
        .split_once("..")
        .ok_or_else(|| format!("--seeds needs the form A..B, got `{v}`"))?;
    let lo: u64 = lo.parse().map_err(|_| format!("bad seed `{lo}`"))?;
    let hi: u64 = hi.parse().map_err(|_| format!("bad seed `{hi}`"))?;
    if lo >= hi {
        return Err(format!("--seeds range {v} is empty"));
    }
    Ok(lo..hi)
}

fn parse_positive<T: std::str::FromStr + PartialOrd + Default>(
    flag: &str,
    v: &str,
) -> Result<T, String> {
    match v.parse::<T>() {
        Ok(n) if n > T::default() => Ok(n),
        _ => Err(format!("{flag} needs a positive integer, got `{v}`")),
    }
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut parsed = Args {
        seeds: 0..256,
        budget_ms: FuzzConfig::default().budget_ms,
        jobs: 1,
        corpus: PathBuf::from("fuzz/corpus"),
        observe: None,
        replay: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let (flag, inline) = match arg.split_once('=') {
            Some((f, v)) if f.starts_with("--") => (f.to_string(), Some(v.to_string())),
            _ => (arg.clone(), None),
        };
        let mut value = || {
            inline
                .clone()
                .or_else(|| args.next())
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--seeds" => parsed.seeds = parse_seed_range(&value()?)?,
            "--budget-ms" => parsed.budget_ms = parse_positive("--budget-ms", &value()?)?,
            "--jobs" => parsed.jobs = parse_positive("--jobs", &value()?)?,
            "--corpus" => parsed.corpus = PathBuf::from(value()?),
            "--observe" => parsed.observe = Some(PathBuf::from(value()?)),
            "--replay" => parsed.replay = Some(PathBuf::from(value()?)),
            _ => return Err(format!("unrecognised argument `{arg}`")),
        }
    }
    Ok(parsed)
}

fn write_observe<'a>(dir: &Path, runs: impl IntoIterator<Item = &'a MapStats>) {
    observe::write(dir, runs).unwrap_or_else(|e| panic!("--observe: {e}"));
    eprintln!("observe directory written to {}", dir.display());
}

/// Replay mode: every artifact in the directory must match its recorded
/// expectation.
fn run_replay(dir: &Path, cfg: &FuzzConfig) -> ExitCode {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read corpus dir {}: {e}", dir.display()))
        .filter_map(|entry| {
            let path = entry.expect("readable dir entry").path();
            (path.extension().is_some_and(|e| e == "dfg")).then_some(path)
        })
        .collect();
    paths.sort();
    if paths.is_empty() {
        eprintln!("no .dfg artifacts in {}", dir.display());
        return ExitCode::FAILURE;
    }
    let mut failures = 0usize;
    for path in &paths {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
        let artifact =
            Artifact::from_text(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        match replay(&artifact, cfg) {
            Ok(_) => println!("OK   {} ({})", path.display(), artifact.expect),
            Err(reason) => {
                println!("FAIL {}: {reason}", path.display());
                failures += 1;
            }
        }
    }
    println!(
        "replayed {} artifacts, {} failure(s)",
        paths.len(),
        failures
    );
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = FuzzConfig {
        budget_ms: args.budget_ms,
        ..FuzzConfig::default()
    };

    if args.observe.is_some() {
        observe::enable_collectors();
    }
    if let Some(dir) = &args.replay {
        let code = run_replay(dir, &cfg);
        if let Some(dir) = &args.observe {
            write_observe(dir, []);
        }
        return code;
    }

    let n = args.seeds.end - args.seeds.start;
    eprintln!(
        "fuzzing seeds {}..{} (budget {} ms/II, {} jobs)",
        args.seeds.start, args.seeds.end, args.budget_ms, args.jobs
    );
    let started = Instant::now();
    let reports = fuzz_range(args.seeds.clone(), &cfg, args.jobs);
    let elapsed = started.elapsed();

    let mut failing = 0usize;
    for report in &reports {
        if report.clean() {
            continue;
        }
        failing += 1;
        print!("{}", report.render());
        if let Some(artifact) = &report.artifact {
            std::fs::create_dir_all(&args.corpus)
                .unwrap_or_else(|e| panic!("cannot create {}: {e}", args.corpus.display()));
            let path = args.corpus.join(artifact.file_name());
            std::fs::write(&path, artifact.to_text())
                .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
            println!("  reproducer written to {}", path.display());
        }
    }

    let per_sec = n as f64 / elapsed.as_secs_f64().max(1e-9);
    println!(
        "fuzzed {n} seeds in {:.2}s ({per_sec:.1} scenarios/s): {} clean, {failing} failing",
        elapsed.as_secs_f64(),
        reports.len() - failing
    );
    let snapshot = rewire_obs::metrics().snapshot();
    for kind in CheckKind::all() {
        let name = format!("fuzz.checks.{kind}");
        let fired = snapshot
            .scopes
            .get("fuzz")
            .and_then(|s| s.counters.get(&name))
            .copied()
            .unwrap_or(0);
        println!("  check {kind}: {fired} violation(s)");
    }
    if let Some(dir) = &args.observe {
        write_observe(dir, reports.iter().flat_map(|r| &r.runs));
    }
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
