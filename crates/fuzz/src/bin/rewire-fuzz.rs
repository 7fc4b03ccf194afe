//! Differential fuzzing driver.
//!
//! Usage:
//! `rewire-fuzz [--seeds A..B] [--budget-ms N] [--exact-budget-ms N]
//!              [--jobs N] [--corpus DIR] [--metrics FILE] [--replay DIR]`
//!
//! Every mapper routes with the one pruned router, fan-out as shared
//! route trees; there is no routing mode to select.
//!
//! `--exact-budget-ms N` (default 0 = off) additionally runs the exact
//! SAT backend on every scenario with an N-millisecond per-II wall-clock
//! safety net, enabling the `exact_verdict` oracle layer: any heuristic
//! mapping at an II the SAT solver proved infeasible is a violation.
//!
//! Default mode fuzzes the seed range (default `0..256`): every seed is a
//! random DFG on a random fabric, mapped by all four mappers and checked
//! against the oracle stack. Failures are shrunk to minimal reproducers
//! and written to the corpus directory (default `fuzz/corpus`), and the
//! process exits nonzero.
//!
//! `--replay DIR` instead replays every `.dfg` artifact in DIR and checks
//! each against its recorded expectation (the CI regression mode).

use rewire_fuzz::{fuzz_range, replay, Artifact, CheckKind, FuzzConfig};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

struct Args {
    seeds: std::ops::Range<u64>,
    budget_ms: u64,
    exact_budget_ms: u64,
    jobs: usize,
    corpus: PathBuf,
    metrics: Option<String>,
    replay: Option<PathBuf>,
}

fn parse_seed_range(v: &str) -> std::ops::Range<u64> {
    let (lo, hi) = v
        .split_once("..")
        .unwrap_or_else(|| panic!("--seeds needs the form A..B, got `{v}`"));
    let lo: u64 = lo.parse().unwrap_or_else(|_| panic!("bad seed `{lo}`"));
    let hi: u64 = hi.parse().unwrap_or_else(|_| panic!("bad seed `{hi}`"));
    assert!(lo < hi, "--seeds range {v} is empty");
    lo..hi
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Args {
    let mut parsed = Args {
        seeds: 0..256,
        budget_ms: 200,
        exact_budget_ms: 0,
        jobs: 1,
        corpus: PathBuf::from("fuzz/corpus"),
        metrics: None,
        replay: None,
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--seeds" {
            parsed.seeds = parse_seed_range(&args.next().expect("--seeds needs A..B"));
        } else if let Some(v) = arg.strip_prefix("--seeds=") {
            parsed.seeds = parse_seed_range(v);
        } else if arg == "--budget-ms" {
            parsed.budget_ms = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--budget-ms needs a positive integer");
        } else if let Some(v) = arg.strip_prefix("--budget-ms=") {
            parsed.budget_ms = v.parse().expect("--budget-ms needs a positive integer");
        } else if arg == "--exact-budget-ms" {
            parsed.exact_budget_ms = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--exact-budget-ms needs an integer");
        } else if let Some(v) = arg.strip_prefix("--exact-budget-ms=") {
            parsed.exact_budget_ms = v.parse().expect("--exact-budget-ms needs an integer");
        } else if arg == "--jobs" {
            parsed.jobs = args
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--jobs needs a positive integer");
        } else if let Some(v) = arg.strip_prefix("--jobs=") {
            parsed.jobs = v.parse().expect("--jobs needs a positive integer");
        } else if arg == "--corpus" {
            parsed.corpus = PathBuf::from(args.next().expect("--corpus needs a directory"));
        } else if let Some(v) = arg.strip_prefix("--corpus=") {
            parsed.corpus = PathBuf::from(v);
        } else if arg == "--metrics" {
            parsed.metrics = Some(args.next().expect("--metrics needs a file path"));
        } else if let Some(v) = arg.strip_prefix("--metrics=") {
            parsed.metrics = Some(v.to_string());
        } else if arg == "--replay" {
            parsed.replay = Some(PathBuf::from(
                args.next().expect("--replay needs a directory"),
            ));
        } else if let Some(v) = arg.strip_prefix("--replay=") {
            parsed.replay = Some(PathBuf::from(v));
        } else {
            panic!("unrecognised argument `{arg}`");
        }
    }
    parsed
}

fn write_metrics(path: &str) {
    let mut json = rewire_obs::metrics().snapshot().to_json();
    json.push('\n');
    std::fs::write(path, json).unwrap_or_else(|e| panic!("cannot write metrics file {path}: {e}"));
    eprintln!("metrics written to {path}");
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
    let args = parse_args(std::env::args().skip(1));
    let cfg = FuzzConfig {
        budget_ms: args.budget_ms,
        exact_budget_ms: args.exact_budget_ms,
        ..FuzzConfig::default()
    };

    if let Some(dir) = &args.replay {
        let code = run_replay(dir, &cfg);
        if let Some(path) = &args.metrics {
            write_metrics(path);
        }
        return code;
    }

    let n = args.seeds.end - args.seeds.start;
    eprintln!(
        "fuzzing seeds {}..{} (budget {} ms/II, exact oracle {}, {} jobs)",
        args.seeds.start,
        args.seeds.end,
        args.budget_ms,
        if args.exact_budget_ms > 0 {
            format!("{} ms/II", args.exact_budget_ms)
        } else {
            "off".to_string()
        },
        args.jobs
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
    if let Some(path) = &args.metrics {
        write_metrics(path);
    }
    if failing == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
