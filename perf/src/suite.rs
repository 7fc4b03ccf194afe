//! `rewire-perf suite`: every workload, each run several times in its own
//! process plus one traced run, collected into one results file that
//! `rewire-perf compare` reads.

use crate::metrics::END_TO_END;
use crate::run::SEED;
use crate::stats::{median, quartiles, relative_spread};
use crate::workloads::{Workload, WORKLOADS};
use rewire::obs::json::{self, Json};
use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, Stdio};

/// Untraced runs per workload; run `r` uses input seed `SEED + r`.
const RUNS: u64 = 3;
/// Measuring window of each run. Shorter than a single run's default so
/// that the whole suite takes about four minutes.
const SECONDS: u64 = 12;

/// Runs this executable once with `args` and returns its last stdout line,
/// echoing the rest.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let output = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!("run {args:?} exited with {}", output.status));
    }
    let last = stdout.lines().last().unwrap_or_default().to_string();
    let parsed = json::parse(&last).map_err(|e| format!("run {args:?}: last line: {e}"))?;
    if parsed.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("run {args:?} reported incorrect output"));
    }
    Ok(last)
}

/// Runs the suite, writes `<out_dir>/results.json` (the traced runs'
/// artifacts go next to it) and prints each metric's spread across runs.
pub fn suite(out_dir: &Path) -> Result<(), String> {
    std::fs::create_dir_all(out_dir)
        .map_err(|e| format!("cannot create {}: {e}", out_dir.display()))?;
    let out = out_dir.display().to_string();
    let common = |w: &Workload, seed: u64, trace: &str| -> Vec<String> {
        [
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--seconds",
            &SECONDS.to_string(),
            "--trace",
            trace,
            "--out",
            &out,
        ]
        .map(String::from)
        .to_vec()
    };
    let mut file =
        format!("{{\"seed\": {SEED}, \"seconds\": {SECONDS}, \"runs\": {RUNS}, \"workloads\": [");
    let mut summary = String::new();
    for (i, w) in WORKLOADS.iter().enumerate() {
        let mut lines = Vec::new();
        for r in 0..RUNS {
            lines.push(child(&common(w, SEED + r, "0"))?);
        }
        let traced = child(&common(w, SEED, "1"))?;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            file,
            "{sep}{{\"name\": \"{}\", \"untraced\": [{}], \"traced\": {traced}}}",
            w.name,
            lines.join(", ")
        );
        let runs: Vec<Json> = lines
            .iter()
            .map(|l| json::parse(l).map_err(|e| e.to_string()))
            .collect::<Result<_, _>>()?;
        for m in &END_TO_END {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.get("metrics")?.get(m.name)?.get("value")?.as_f64())
                .collect();
            let (q1, q3) = quartiles(&values).unwrap_or_default();
            let spread = relative_spread(&values);
            let _ = writeln!(
                summary,
                "{:<14} {:<15} {:>14.6} {:<7} [{q1:.6}, {q3:.6}] spread {:.2}% of median, bound {:.1}%{}",
                w.name,
                m.name,
                median(&values).unwrap_or(0.0),
                m.unit,
                spread * 100.0,
                m.bound * 100.0,
                if spread > m.bound / 3.0 { "  (above a third of the bound)" } else { "" }
            );
        }
    }
    file.push_str("]}\n");
    let path = out_dir.join("results.json");
    std::fs::write(&path, file).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\n{RUNS} untraced runs per workload, input seeds {SEED}..:");
    print!("{summary}");
    println!("wrote {}", path.display());
    Ok(())
}
