//! `rewire-perf compare A.json B.json`: per workload and end-to-end metric,
//! both sides' medians and quartiles, the change, and a verdict against the
//! metric's bound; then a diff of the per-layer counts.

use crate::metrics::{Better, EndToEnd, END_TO_END, PER_LAYER};
use crate::stats::{median, quartiles, relative_spread};
use rewire::obs::json::{self, Json};
use std::fmt;

/// The outcome of comparing one metric between a baseline and a change.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse by more than the bound, with both spreads within it.
    Regressed,
    /// A spread is wider than the bound, so the runs cannot tell.
    Unresolved,
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        })
    }
}

/// How much worse `new`'s median is than `base`'s, as a share of `base`'s
/// (negative when better).
pub fn worsening(metric: &EndToEnd, base: &[f64], new: &[f64]) -> f64 {
    let (b, n) = (median(base).unwrap_or(0.0), median(new).unwrap_or(0.0));
    let delta = match metric.better {
        Better::Lower => n - b,
        Better::Higher => b - n,
    };
    if b == 0.0 {
        if delta == 0.0 {
            0.0
        } else {
            delta.signum() * f64::INFINITY
        }
    } else {
        delta / b.abs()
    }
}

/// Judges `new` against `base`. When either spread (interquartile range
/// over median) is wider than the bound the result is unresolved, unless
/// every run of `new` is better than every run of `base`.
pub fn verdict(metric: &EndToEnd, base: &[f64], new: &[f64]) -> Verdict {
    let spread = relative_spread(base).max(relative_spread(new));
    if spread > metric.bound {
        let all_better = match metric.better {
            Better::Lower => max(new) < min(base),
            Better::Higher => min(new) > max(base),
        };
        if all_better {
            Verdict::Ok
        } else {
            Verdict::Unresolved
        }
    } else if worsening(metric, base, new) > metric.bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// One workload's runs in a results file.
struct WorkloadRuns<'a> {
    name: &'a str,
    untraced: &'a [Json],
    traced: Option<&'a Json>,
}

fn workloads(root: &Json) -> Result<Vec<WorkloadRuns<'_>>, String> {
    let list = root
        .get("workloads")
        .and_then(Json::as_array)
        .ok_or("no \"workloads\" array")?;
    list.iter()
        .map(|w| {
            Ok(WorkloadRuns {
                name: w
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("workload without a name")?,
                untraced: w.get("untraced").and_then(Json::as_array).unwrap_or(&[]),
                traced: w.get("traced"),
            })
        })
        .collect()
}

fn metric_value(run: &Json, name: &str) -> Option<f64> {
    run.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn summary(values: &[f64]) -> String {
    match (median(values), quartiles(values)) {
        (Some(m), Some((q1, q3))) => format!("{m:.6} [{q1:.6}, {q3:.6}]"),
        _ => "-".to_string(),
    }
}

/// Compares two results files written by `rewire-perf suite`. Returns
/// whether any metric regressed.
pub fn compare(a_path: &str, b_path: &str) -> Result<bool, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let (a_runs, b_runs) = (workloads(&a)?, workloads(&b)?);
    let mut regressed = false;
    println!("A = {a_path}\nB = {b_path}\n");
    println!(
        "{:<14} {:<15} {:>36} {:>36} {:>9}  verdict (bound)",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse by"
    );
    for wa in &a_runs {
        let Some(wb) = b_runs.iter().find(|w| w.name == wa.name) else {
            println!("{:<14} missing from B", wa.name);
            continue;
        };
        for m in &END_TO_END {
            let va: Vec<f64> = wa
                .untraced
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            let vb: Vec<f64> = wb
                .untraced
                .iter()
                .filter_map(|r| metric_value(r, m.name))
                .collect();
            if va.is_empty() || vb.is_empty() {
                println!("{:<14} {:<15} no samples", wa.name, m.name);
                continue;
            }
            let v = verdict(m, &va, &vb);
            regressed |= v == Verdict::Regressed;
            println!(
                "{:<14} {:<15} {:>36} {:>36} {:>8.2}%  {v} ({:.1}%, {}+{} runs)",
                wa.name,
                m.name,
                summary(&va),
                summary(&vb),
                worsening(m, &va, &vb) * 100.0,
                m.bound * 100.0,
                va.len(),
                vb.len()
            );
        }
    }
    for wa in &a_runs {
        let Some(wb) = b_runs.iter().find(|w| w.name == wa.name) else {
            continue;
        };
        let (Some(ta), Some(tb)) = (wa.traced, wb.traced) else {
            println!("\n{}: no traced run on both sides", wa.name);
            continue;
        };
        let diffs: Vec<String> = PER_LAYER
            .iter()
            .filter(|(_, unit)| *unit == "count")
            .filter_map(|(name, _)| {
                let (x, y) = (metric_value(ta, name), metric_value(tb, name));
                (x != y).then(|| format!("  {name}: {x:?} -> {y:?}"))
            })
            .collect();
        if diffs.is_empty() {
            println!("\n{}: every per-layer count identical", wa.name);
        } else {
            println!("\n{}: per-layer counts that differ:", wa.name);
            for d in diffs {
                println!("{d}");
            }
        }
    }
    Ok(regressed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;

    fn metric(name: &str) -> &'static EndToEnd {
        metrics::end_to_end(name).expect("catalogued")
    }

    #[test]
    fn identical_runs_are_ok() {
        let v = [3.0, 3.01, 2.99, 3.0, 3.02];
        assert_eq!(verdict(metric("map_s"), &v, &v), Verdict::Ok);
        assert_eq!(worsening(metric("map_s"), &v, &v), 0.0);
    }

    #[test]
    fn a_tight_slowdown_past_the_bound_regresses() {
        let base = [3.0, 3.01, 2.99, 3.0, 3.02];
        let slow: Vec<f64> = base.iter().map(|v| v * 1.3).collect();
        assert_eq!(verdict(metric("map_s"), &base, &slow), Verdict::Regressed);
        let mild: Vec<f64> = base.iter().map(|v| v * 1.2).collect();
        assert_eq!(verdict(metric("map_s"), &base, &mild), Verdict::Ok);
        // A speed-up is never a regression.
        let fast: Vec<f64> = base.iter().map(|v| v * 0.7).collect();
        assert_eq!(verdict(metric("map_s"), &base, &fast), Verdict::Ok);
    }

    #[test]
    fn a_wide_spread_is_unresolved() {
        let base = [3.0, 3.01, 2.99, 3.0, 3.02];
        let noisy = [2.0, 3.5, 4.5, 3.2, 2.6];
        assert_eq!(verdict(metric("map_s"), &base, &noisy), Verdict::Unresolved);
        assert_eq!(verdict(metric("map_s"), &noisy, &base), Verdict::Unresolved);
    }

    #[test]
    fn a_wide_spread_is_ok_when_every_new_run_is_better() {
        let base = [3.0, 4.0, 5.0];
        let better = [1.0, 1.5, 2.0];
        assert_eq!(verdict(metric("map_s"), &base, &better), Verdict::Ok);
    }

    #[test]
    fn higher_is_better_metrics_regress_downwards() {
        let base = [36.0 / 36.0; 3];
        let lost_one = [35.0 / 36.0; 3];
        let m = metric("mapped_share");
        assert_eq!(verdict(m, &base, &lost_one), Verdict::Regressed);
        assert_eq!(verdict(m, &lost_one, &base), Verdict::Ok);
        assert!(worsening(m, &base, &lost_one) > 0.0);
    }

    #[test]
    fn deterministic_counts_catch_one_cycle() {
        let m = metric("ii_sum");
        assert_eq!(verdict(m, &[172.0; 3], &[173.0; 3]), Verdict::Regressed);
        assert_eq!(verdict(m, &[172.0; 3], &[171.0; 3]), Verdict::Ok);
    }
}
